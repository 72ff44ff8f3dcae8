"""Eavesdropping attacks: generalized measurements on the n-dim channel.

An attack is a finite set of Kraus operators {A_r} with sum_r A_r† A_r = Id.
Outcome r fires on |psi> with probability <psi|A_r†A_r|psi> and forwards
A_r|psi>/sqrt(p). Constructors cover the named families (projective, identity,
the saturating one-parameter family, the probabilistic intercept family),
seeded random measurements, and user-supplied diagonal coefficient tables.

Descriptors serialize attacks to text, e.g. "optimal(n=4,g=0.5)" or
"random(n=4,k=16,seed=42)"; parse_descriptor inverts the format.
"""

from __future__ import annotations

import logging
import re
from dataclasses import InitVar, dataclass

import numpy as np

from .linalg import DEFAULT_TOL, ZERO_NORM, blocks, check_dim, check_seed, frobenius_norms, inv_sqrt_psd

log = logging.getLogger(__name__)

#: completeness residual above which random_attack whitens its draw a second time
_REWHITEN_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class GeneralizedMeasurement:
    """Complete Kraus set {A_r} as one read-only (K, n, n) complex array, in outcome order.

    Construction is the one place an attack is checked. It copies the
    operators once, so later changes to the caller's arrays do not reach the
    attack; checks the (K, n, n) shape; names a stack given no descriptor
    custom(n=..,k=..), k counting every operator given; checks n >= 2; drops
    zero operators (outcomes that never fire); and raises unless what is left
    is nonempty and complete within DEFAULT_TOL. `gram` is sum_r A_r†A_r, if
    the caller has already formed it from these operators; dropped ones are
    zero, so they do not change it. descriptor is provenance text.
    """

    ops: np.ndarray
    descriptor: str = ""
    gram: InitVar[np.ndarray | None] = None

    def __post_init__(self, gram):
        ops = np.array(self.ops, dtype=complex)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise ValueError(f"Kraus operators must form a (K, n, n) stack, got shape {ops.shape}")
        if not self.descriptor:
            object.__setattr__(self, "descriptor", f"custom(n={ops.shape[1]},k={len(ops)})")
        check_dim(ops.shape[1])
        keep = ~(frobenius_norms(ops) < ZERO_NORM)  # a NaN operator is kept, and fails completeness
        dropped = int(keep.size - keep.sum())
        if dropped:
            log.info("%s: dropped %d zero-probability outcome(s)", self.descriptor, dropped)
            ops = ops[keep]
        if not len(ops):
            raise ValueError(f"{self.descriptor}: no nonzero outcomes")
        ops.setflags(write=False)
        object.__setattr__(self, "ops", ops)
        res = self.completeness_residual() if gram is None else _identity_residual(gram)
        if not res <= DEFAULT_TOL:
            raise ValueError(f"{self.descriptor}: completeness violated: residual {res:.3e} > {DEFAULT_TOL:.1e}")

    @property
    def dim(self) -> int:
        return self.ops.shape[1]

    def completeness_residual(self) -> float:
        """Max-norm of sum_r A_r†A_r - Id.

        The Gram sum runs over blocks of the (K*n, n) rows (`blocks`), so the
        check holds one block's conjugate, not a copy of the whole attack.
        """
        rows = self.ops.reshape(-1, self.dim)
        total = sum(gram_sum(rows[lo:hi]) for lo, hi in blocks(len(rows), rows[0].nbytes))
        return _identity_residual(total)


def gram_sum(a: np.ndarray) -> np.ndarray:
    """sum_r A_r†A_r over a (K, m, n) stack, as one product of its (K*m, n) reshape.

    A 2-D (rows, n) block is its own reshape, so it gives rows† rows.
    """
    rows = a.reshape(-1, a.shape[-1])
    return rows.conj().T @ rows


def _identity_residual(s: np.ndarray) -> float:
    """Max-norm of s - Id for a square matrix s."""
    return float(np.max(np.abs(s - np.eye(len(s)))))


def _whiten(b: np.ndarray, s_inv_sqrt: np.ndarray) -> np.ndarray:
    """{B_r S} for a (K, n, n) stack, as one product of its (K*n, n) reshape."""
    return (b.reshape(-1, b.shape[-1]) @ s_inv_sqrt).reshape(b.shape)


def _basis_projectors(n: int) -> np.ndarray:
    """The (n, n, n) stack of basis projectors |r><r|."""
    proj = np.zeros((n, n, n), dtype=complex)
    idx = np.arange(n)
    proj[idx, idx, idx] = 1.0
    return proj


def identity_attack(n: int) -> GeneralizedMeasurement:
    """Single-outcome do-nothing measurement {Id}."""
    check_dim(n)
    return GeneralizedMeasurement([np.eye(n, dtype=complex)], f"identity(n={n})")


def projective_attack(n: int) -> GeneralizedMeasurement:
    """Full basis readout {|r><r|}."""
    check_dim(n)
    return GeneralizedMeasurement(_basis_projectors(n), f"projective(n={n})")


def optimal_attack(n: int, g: float) -> GeneralizedMeasurement:
    """The saturating family A_r = sqrt(g)|r><r| + sqrt((1-g)/(n-1))(Id - |r><r|).

    Its estimation fidelity is exactly g and its disturbance meets the
    tradeoff bound with equality for every g in [1/n, 1].
    """
    check_dim(n)
    g = float(g)
    if not 1.0 / n <= g <= 1.0:
        raise ValueError(f"estimation fidelity target {g} outside [1/{n}, 1]")
    mu = np.sqrt((1.0 - g) / (n - 1))
    proj = _basis_projectors(n)
    ops = np.sqrt(g) * proj + mu * (np.eye(n, dtype=complex) - proj)
    return GeneralizedMeasurement(ops, f"optimal(n={n},g={g!r})")


def probabilistic_attack(n: int, p: float) -> GeneralizedMeasurement:
    """Intercept with probability p: {sqrt(p)|r><r|} plus sqrt(1-p) Id."""
    check_dim(n)
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"interception probability {p} outside [0, 1]")
    ops = np.concatenate([np.sqrt(p) * _basis_projectors(n), [np.sqrt(1.0 - p) * np.eye(n)]])
    return GeneralizedMeasurement(ops, f"prob(n={n},p={p!r})")


def random_attack(n: int, outcomes: int | None = None, seed: int = 0) -> GeneralizedMeasurement:
    """Seeded random measurement: Gaussian draws whitened to completeness.

    Draws `outcomes` (default n^2) complex Gaussian matrices B_r, forms
    S = sum B_r†B_r, and returns {B_r S^(-1/2)}. Deterministic per seed;
    singular draws are retried on fresh substreams (at most 8). An
    ill-conditioned S (say, one nearly singular outcome) costs S^(-1/2) digits,
    so a draw left more than _REWHITEN_TOL from completeness is whitened once
    more by its now near-identity Gram sum, which brings it to rounding.
    The Gram sum of the first whitening is handed to the constructor as its
    completeness check; a re-whitened draw is checked afresh.
    """
    check_dim(n)
    k = n * n if outcomes is None else int(outcomes)
    if k < 1:
        raise ValueError("need at least one outcome")
    check_seed(seed)
    for attempt in range(8):
        rng = np.random.default_rng([seed, attempt])
        # one draw of the real parts, then the imaginary parts: the stream of two draws,
        # filled in place so no complex temporary is made
        parts = rng.standard_normal((2, k, n, n))
        b = np.empty((k, n, n), dtype=complex)
        b.real = parts[0]
        b.imag = parts[1]
        del parts
        try:
            s_inv_sqrt = inv_sqrt_psd(gram_sum(b))
        except ValueError:
            continue
        b = _whiten(b, s_inv_sqrt)  # rebound, so the raw draw is freed before the attack copies it
        s = gram_sum(b)
        if _identity_residual(s) > _REWHITEN_TOL:
            b = _whiten(b, inv_sqrt_psd(s))
            s = None
        return GeneralizedMeasurement(b, f"random(n={n},k={k},seed={seed})", gram=s)
    raise ValueError(f"random draw not normalizable after 8 attempts (n={n}, k={k}, seed={seed})")


def diagonal_attack(rows) -> GeneralizedMeasurement:
    """Measurement from a (K, n) table whose row r is the diagonal of A_r.

    The entries a_rj must satisfy completeness sum_r |a_rj|^2 = 1 per level j,
    which forces the total coefficient norm sum |a_rj|^2 = n. For a diagonal
    stack sum_r A_r†A_r = diag(sum_r |a_rj|^2), so the completeness check is
    exactly that. A zero row is an outcome that never fires; like the
    families, it is dropped.
    """
    a = np.asarray(rows, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"coefficient table must be a (K, n) array, got shape {a.shape}")
    k, n = a.shape
    ops = np.zeros((k, n, n), dtype=complex)
    ops[:, np.arange(n), np.arange(n)] = a
    return GeneralizedMeasurement(ops, f"diagonal(n={n},k={k})")


_DESCRIPTOR_RE = re.compile(r"^\s*([a-z]+)\s*\(\s*([^()]*)\s*\)\s*$")

_FAMILIES = {
    "optimal": (optimal_attack, {"n": int, "g": float}),
    "projective": (projective_attack, {"n": int}),
    "identity": (identity_attack, {"n": int}),
    "prob": (probabilistic_attack, {"n": int, "p": float}),
    "random": (random_attack, {"n": int, "k": int, "seed": int}),
}


def parse_descriptor(text: str) -> GeneralizedMeasurement:
    """Build the attack named by a descriptor such as "prob(n=4,p=0.3)"."""
    m = _DESCRIPTOR_RE.match(text)
    if not m:
        raise ValueError(f"malformed attack descriptor: {text!r}")
    name, body = m.group(1), m.group(2)
    if name not in _FAMILIES:
        raise ValueError(f"unknown attack family {name!r} in {text!r}")
    ctor, fields = _FAMILIES[name]
    kwargs = {}
    for part in filter(None, (p.strip() for p in body.split(","))):
        if "=" not in part:
            raise ValueError(f"malformed descriptor argument {part!r} in {text!r}")
        key, _, val = part.partition("=")
        key = key.strip()
        if key not in fields:
            raise ValueError(f"unknown argument {key!r} for family {name!r}")
        if key in kwargs:
            raise ValueError(f"repeated argument {key!r} in {text!r}")
        try:
            kwargs[key] = fields[key](val.strip())
        except ValueError as exc:
            raise ValueError(f"bad value for {key!r} in {text!r}: {exc}") from None
    optional = {"k"} if name == "random" else set()
    missing = set(fields) - optional - set(kwargs)
    if missing:
        raise ValueError(f"descriptor {text!r} is missing {sorted(missing)}")
    if name == "random":
        kwargs["outcomes"] = kwargs.pop("k", None)
    return ctor(**kwargs)
