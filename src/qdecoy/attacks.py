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

from .linalg import DEFAULT_TOL, inv_sqrt_psd

log = logging.getLogger(__name__)

_ZERO_NORM = 1e-12


@dataclass(frozen=True)
class GeneralizedMeasurement:
    """Kraus set {A_r} labeled by outcome index; descriptor is provenance text.

    Construction does not validate (tests need to build corrupt instances);
    use from_kraus or call validate() to enforce completeness.
    """

    dim: int
    kraus: tuple  # of (label, operator) pairs
    descriptor: str = ""

    @property
    def ops(self) -> tuple:
        return tuple(op for _, op in self.kraus)

    @property
    def labels(self) -> tuple:
        return tuple(r for r, _ in self.kraus)

    @property
    def stack(self) -> np.ndarray:
        """The operators as one new (K, n, n) complex array, in outcome order."""
        return np.array(self.ops, dtype=complex)

    def completeness_residual(self) -> float:
        """Max-norm of sum_r A_r†A_r - Id."""
        return float(np.max(np.abs(gram_sum(self.stack) - np.eye(self.dim))))

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        """Raise unless this is a well-formed complete measurement."""
        if not self.kraus:
            raise ValueError("measurement has no outcomes")
        for r, op in self.kraus:
            if op.shape != (self.dim, self.dim):
                raise ValueError(f"outcome {r}: operator shape {op.shape} != ({self.dim},{self.dim})")
        zero = np.flatnonzero(_norms(self.stack) < _ZERO_NORM)
        if zero.size:
            raise ValueError(f"outcome {self.labels[zero[0]]}: zero operator")
        res = self.completeness_residual()
        if res > tol:
            raise ValueError(f"completeness violated: residual {res:.3e} > {tol:.1e}")


def gram_sum(a: np.ndarray) -> np.ndarray:
    """sum_r A_r†A_r over a (K, m, n) stack, as one product of its (K*m, n) reshape."""
    rows = a.reshape(-1, a.shape[-1])
    return rows.conj().T @ rows


def _norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each operator in a (K, m, n) stack."""
    return np.linalg.norm(a.reshape(a.shape[0], -1), axis=1)


def from_kraus(ops, tol: float = DEFAULT_TOL, descriptor: str = "") -> GeneralizedMeasurement:
    """Validated measurement from a nonempty list of square operators."""
    arr = [np.array(op, dtype=complex) for op in ops]
    if not arr:
        raise ValueError("empty Kraus list")
    n = arr[0].shape[0] if arr[0].ndim == 2 else 0
    for a in arr:
        if a.ndim != 2 or a.shape != (n, n):
            raise ValueError("Kraus operators must be square and uniform in size")
    m = GeneralizedMeasurement(
        dim=n,
        kraus=tuple((r, a) for r, a in enumerate(arr)),
        descriptor=descriptor or f"custom(n={n},k={len(arr)})",
    )
    m.validate(tol)
    return m


def _from_family(ops, descriptor: str) -> GeneralizedMeasurement:
    """Family constructor back end: drop zero operators, relabel, validate."""
    a = np.asarray(ops, dtype=complex)
    keep = _norms(a) >= _ZERO_NORM
    kept = a[keep]
    dropped = int(keep.size - keep.sum())
    if dropped:
        log.info("%s: dropped %d zero-probability outcome(s)", descriptor, dropped)
    if not len(kept):
        raise ValueError(f"{descriptor}: no nonzero outcomes")
    return from_kraus(kept, descriptor=descriptor)


def identity_attack(n: int) -> GeneralizedMeasurement:
    """Single-outcome do-nothing measurement {Id}."""
    _check_dim(n)
    return _from_family([np.eye(n, dtype=complex)], f"identity(n={n})")


def projective_attack(n: int) -> GeneralizedMeasurement:
    """Full basis readout {|r><r|}."""
    _check_dim(n)
    eye = np.eye(n, dtype=complex)
    return _from_family(
        [np.outer(eye[r], eye[r]) for r in range(n)], f"projective(n={n})"
    )


def optimal_attack(n: int, g: float) -> GeneralizedMeasurement:
    """The saturating family A_r = sqrt(g)|r><r| + sqrt((1-g)/(n-1))(Id - |r><r|).

    Its estimation fidelity is exactly g and its disturbance meets the
    tradeoff bound with equality for every g in [1/n, 1].
    """
    _check_dim(n)
    g = float(g)
    if not 1.0 / n <= g <= 1.0:
        raise ValueError(f"estimation fidelity target {g} outside [1/{n}, 1]")
    mu = np.sqrt((1.0 - g) / (n - 1))
    eye = np.eye(n, dtype=complex)
    ops = []
    for r in range(n):
        proj = np.outer(eye[r], eye[r])
        ops.append(np.sqrt(g) * proj + mu * (eye - proj))
    return _from_family(ops, f"optimal(n={n},g={g!r})")


def probabilistic_attack(n: int, p: float) -> GeneralizedMeasurement:
    """Intercept with probability p: {sqrt(p)|r><r|} plus sqrt(1-p) Id."""
    _check_dim(n)
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"interception probability {p} outside [0, 1]")
    eye = np.eye(n, dtype=complex)
    ops = [np.sqrt(p) * np.outer(eye[r], eye[r]) for r in range(n)]
    ops.append(np.sqrt(1.0 - p) * eye)
    return _from_family(ops, f"prob(n={n},p={p!r})")


def random_attack(n: int, outcomes: int | None = None, seed: int = 0) -> GeneralizedMeasurement:
    """Seeded random measurement: Gaussian draws whitened to completeness.

    Draws `outcomes` (default n^2) complex Gaussian matrices B_r, forms
    S = sum B_r†B_r, and returns {B_r S^(-1/2)}. Deterministic per seed;
    singular draws are retried on fresh substreams (at most 8).
    """
    _check_dim(n)
    k = n * n if outcomes is None else int(outcomes)
    if k < 1:
        raise ValueError("need at least one outcome")
    for attempt in range(8):
        rng = np.random.default_rng([seed, attempt])
        b = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
        try:
            s_inv_sqrt = inv_sqrt_psd(gram_sum(b))
        except ValueError:
            continue
        return _from_family(b @ s_inv_sqrt, f"random(n={n},k={k},seed={seed})")
    raise ValueError(f"random draw not normalizable after 8 attempts (n={n}, k={k}, seed={seed})")


def diagonal_attack(coeffs) -> GeneralizedMeasurement:
    """Measurement from a table of (outcome label, diagonal entries) rows.

    The entries a_jr must satisfy completeness sum_r |a_jr|^2 = 1 per j, which
    forces the total coefficient norm sum |a_jr|^2 = n.
    """
    rows = [(r, np.asarray(a, dtype=complex)) for r, a in coeffs]
    if not rows:
        raise ValueError("empty coefficient table")
    n = rows[0][1].shape[0]
    total = 0.0
    col = np.zeros(n)
    for _, a in rows:
        if a.shape != (n,):
            raise ValueError("ragged coefficient table")
        total += float(np.sum(np.abs(a) ** 2))
        col += np.abs(a) ** 2
    if abs(total - n) > n * DEFAULT_TOL:
        raise ValueError(f"coefficient norm^2 is {total!r}, expected {n}")
    if np.max(np.abs(col - 1.0)) > DEFAULT_TOL:
        raise ValueError("completeness violated: per-level outcome weights do not sum to 1")
    m = GeneralizedMeasurement(
        dim=n,
        kraus=tuple((int(r), np.diag(a)) for r, a in rows),
        descriptor=f"diagonal(n={n},k={len(rows)})",
    )
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


def _check_dim(n: int) -> None:
    if n < 2:
        raise ValueError(f"need dimension n >= 2, got {n}")
