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
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, ZERO_NORM, check_dim, inv_sqrt_psd

log = logging.getLogger(__name__)

#: bytes of operator rows that completeness_residual conjugates at a time
_GRAM_BLOCK_BYTES = 1 << 20
#: completeness residual above which random_attack whitens its draw a second time
_REWHITEN_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class GeneralizedMeasurement:
    """Kraus set {A_r} as one read-only (K, n, n) complex array, in outcome order.

    The operators are copied once on construction, so later changes to the
    caller's arrays do not reach the attack. Construction checks only the
    shape, not completeness (tests need to build corrupt instances); use
    from_kraus or call validate() to enforce it. descriptor is provenance text.
    """

    ops: np.ndarray
    descriptor: str = ""

    def __post_init__(self):
        ops = np.array(self.ops, dtype=complex)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise ValueError(f"Kraus operators must form a (K, n, n) stack, got shape {ops.shape}")
        ops.setflags(write=False)
        object.__setattr__(self, "ops", ops)

    @property
    def dim(self) -> int:
        return self.ops.shape[1]

    def completeness_residual(self) -> float:
        """Max-norm of sum_r A_r†A_r - Id.

        The Gram sum runs over blocks of _GRAM_BLOCK_BYTES of the (K*n, n) rows,
        so the check holds one block's conjugate, not a copy of the whole attack.
        """
        rows = self.ops.reshape(-1, self.dim)
        step = max(1, _GRAM_BLOCK_BYTES // rows[0].nbytes)
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for i in range(0, len(rows), step):
            total += gram_sum(rows[i : i + step])
        return _identity_residual(total)

    def validate(self) -> None:
        """Raise unless this is a well-formed complete measurement."""
        if not len(self.ops):
            raise ValueError("measurement has no outcomes")
        zero = np.flatnonzero(_norms(self.ops) < ZERO_NORM)
        if zero.size:
            raise ValueError(f"outcome {zero[0]}: zero operator")
        self._check_complete()

    def _check_complete(self, gram: np.ndarray | None = None) -> None:
        """Raise unless complete; `gram` is sum_r A_r†A_r, if the caller has already formed it."""
        res = self.completeness_residual() if gram is None else _identity_residual(gram)
        if res > DEFAULT_TOL:
            raise ValueError(f"completeness violated: residual {res:.3e} > {DEFAULT_TOL:.1e}")


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


def _norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each operator in a complex (K, m, n) stack.

    The squares are summed over a real view of each operator, so no array
    the size of the stack is made.
    """
    parts = np.ascontiguousarray(a).reshape(len(a), -1).view(np.float64)
    return np.sqrt(np.einsum("ri,ri->r", parts, parts))


def from_kraus(ops) -> GeneralizedMeasurement:
    """Validated measurement from a nonempty list of uniform square operators.

    The descriptor is read off the stack's shape first, so the operators are
    copied once, by the one construction.
    """
    a = np.asarray(ops, dtype=complex)
    # a stack of the wrong shape gets no descriptor; the constructor rejects it
    m = GeneralizedMeasurement(a, f"custom(n={a.shape[-1]},k={len(a)})" if a.ndim == 3 else "")
    m.validate()
    return m


def _from_family(ops, descriptor: str, gram: np.ndarray | None = None) -> GeneralizedMeasurement:
    """Family constructor back end: drop zero operators, check completeness.

    The norms are taken once here, so what is kept is nonempty and nonzero and
    only completeness is left to check, against `gram` (sum_r A_r†A_r) when
    the caller has formed it; dropped operators are zero, so they do not
    change it.
    """
    a = np.asarray(ops, dtype=complex)
    keep = _norms(a) >= ZERO_NORM
    dropped = int(keep.size - keep.sum())
    if dropped:
        log.info("%s: dropped %d zero-probability outcome(s)", descriptor, dropped)
    if not keep.any():
        raise ValueError(f"{descriptor}: no nonzero outcomes")
    # a[keep] is a copy, made only when an outcome goes
    m = GeneralizedMeasurement(a[keep] if dropped else a, descriptor)
    m._check_complete(gram)
    return m


def _basis_projectors(n: int) -> np.ndarray:
    """The (n, n, n) stack of basis projectors |r><r|."""
    proj = np.zeros((n, n, n), dtype=complex)
    idx = np.arange(n)
    proj[idx, idx, idx] = 1.0
    return proj


def identity_attack(n: int) -> GeneralizedMeasurement:
    """Single-outcome do-nothing measurement {Id}."""
    check_dim(n)
    return _from_family([np.eye(n, dtype=complex)], f"identity(n={n})")


def projective_attack(n: int) -> GeneralizedMeasurement:
    """Full basis readout {|r><r|}."""
    check_dim(n)
    return _from_family(_basis_projectors(n), f"projective(n={n})")


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
    return _from_family(ops, f"optimal(n={n},g={g!r})")


def probabilistic_attack(n: int, p: float) -> GeneralizedMeasurement:
    """Intercept with probability p: {sqrt(p)|r><r|} plus sqrt(1-p) Id."""
    check_dim(n)
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"interception probability {p} outside [0, 1]")
    ops = np.concatenate([np.sqrt(p) * _basis_projectors(n), [np.sqrt(1.0 - p) * np.eye(n)]])
    return _from_family(ops, f"prob(n={n},p={p!r})")


def random_attack(n: int, outcomes: int | None = None, seed: int = 0) -> GeneralizedMeasurement:
    """Seeded random measurement: Gaussian draws whitened to completeness.

    Draws `outcomes` (default n^2) complex Gaussian matrices B_r, forms
    S = sum B_r†B_r, and returns {B_r S^(-1/2)}. Deterministic per seed;
    singular draws are retried on fresh substreams (at most 8). An
    ill-conditioned S (say, one nearly singular outcome) costs S^(-1/2) digits,
    so a draw left more than _REWHITEN_TOL from completeness is whitened once
    more by its now near-identity Gram sum, which brings it to rounding.
    The Gram sum of the first whitening is also the completeness check; a
    re-whitened draw is checked afresh.
    """
    check_dim(n)
    k = n * n if outcomes is None else int(outcomes)
    if k < 1:
        raise ValueError("need at least one outcome")
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
        return _from_family(b, f"random(n={n},k={k},seed={seed})", gram=s)
    raise ValueError(f"random draw not normalizable after 8 attempts (n={n}, k={k}, seed={seed})")


def diagonal_attack(rows) -> GeneralizedMeasurement:
    """Measurement from a (K, n) table whose row r is the diagonal of A_r.

    The entries a_rj must satisfy completeness sum_r |a_rj|^2 = 1 per level j,
    which forces the total coefficient norm sum |a_rj|^2 = n. For a diagonal
    stack sum_r A_r†A_r = diag(sum_r |a_rj|^2), so validate() checks exactly that.
    """
    a = np.asarray(rows, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"coefficient table must be a (K, n) array, got shape {a.shape}")
    k, n = a.shape
    ops = np.zeros((k, n, n), dtype=complex)
    ops[:, np.arange(n), np.arange(n)] = a
    m = GeneralizedMeasurement(ops, f"diagonal(n={n},k={k})")
    m.validate()
    return m


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
