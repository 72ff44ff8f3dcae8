"""The information-gain/disturbance tradeoff: bound, certification, search.

Any complete measurement on the n-dim channel with estimation fidelity G
disturbs the pairing-ensemble decoys by at least

    D >= 1/2 - (1/(2n)) (sqrt(G) + sqrt((n-1)(1-G)))^2,

with G running from 1/n (do nothing) to 1 (full readout) and D from 0 to
1/2 - 1/(2n). The bound is tight: the one-parameter family built by
optimal_attack meets it with equality at every admissible G. This module
evaluates the bound, certifies attacks against it (random sweeps), and
rediscovers the optimum by polar ascent over every n-outcome attack, with
numpy alone.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace

import numpy as np

from .attacks import (
    GeneralizedMeasurement,
    diagonal_attack,  # not called here; qdbench/tracing.py wraps qdecoy.tradeoff.diagonal_attack
    optimal_attack,  # not called here; qdbench/tracing.py wraps qdecoy.tradeoff.optimal_attack
    projective_attack,
    random_attack,
)
from .linalg import DEFAULT_TOL, check_dim, check_seed
from .metrics import (
    _decoy_amplitudes,
    estimation_fidelity,
    induced_fidelity_closed,
    induced_fidelity_functional,  # not called here; qdbench/tracing.py wraps qdecoy.tradeoff.induced_fidelity_functional
)

#: random attacks, a sweep's first ones, that sweep_random hands to its `check`
_KEPT = 10
#: an ascent has converged once no entry of its stack moves by more than this in a step
_STEP_TOL = 1e-14
#: most polar steps in one ascent
_ASCENT_STEPS = 2000
#: a restart's root search stops once its G is this close to the target
_ROOT_TOL = 1e-13
#: ascents a restart's root search may take; at the largest float g below 1,
#: λ doubles from 1 to ~1e6, and the whole search took 21 (n = 2, 8, 12)
_ROOT_STEPS = 64


class BoundViolation(RuntimeError):
    """An attack landed below the proven bound by more than float noise."""


@dataclass(frozen=True)
class TradeoffPoint:
    """One (G, D) evaluation with its bound value and provenance."""

    n: int
    g: float
    d: float
    bound: float
    margin: float
    source: str


def disturbance_bound(g: float, n: int) -> float:
    """Least possible disturbance at estimation fidelity g on dimension n."""
    check_dim(n)
    g = float(g)
    if not 1.0 / n <= g <= 1.0:
        raise ValueError(f"estimation fidelity {g} outside [1/{n}, 1]")
    # closed-form endpoints, exact where the float formula wobbles by 1 ulp
    if g == 1.0 / n:
        return 0.0
    if g == 1.0:
        return 0.5 - 1.0 / (2 * n)
    return 0.5 - (np.sqrt(g) + np.sqrt((n - 1) * (1.0 - g))) ** 2 / (2 * n)


def attack_point(m: GeneralizedMeasurement) -> TradeoffPoint:
    """Evaluate an attack, sourced by its descriptor, with the O(K n^2) evaluator."""
    n = m.dim
    g, _ = estimation_fidelity(m)
    d = 1.0 - induced_fidelity_closed(m.ops)
    # completeness noise can push G a few ulp outside [1/n, 1]
    g_eval = min(max(g, 1.0 / n), 1.0)
    if not abs(g_eval - g) <= DEFAULT_TOL:
        raise ValueError(f"estimation fidelity {g} outside [1/{n}, 1] beyond tolerance")
    b = disturbance_bound(g_eval, n)
    return TradeoffPoint(
        n=n,
        g=float(g),
        d=float(d),
        bound=float(b),
        margin=float(d - b),
        source=m.descriptor,
    )


def trial_seed(seed: int, t: int) -> int:
    """Seed of random attack t in a sweep seeded with `seed`."""
    return int(np.random.SeedSequence(entropy=[int(seed), t]).generate_state(1, np.uint64)[0])


def certify(
    attacks: Iterable[GeneralizedMeasurement],
    check: Callable[[GeneralizedMeasurement, TradeoffPoint], object] | None = None,
    checked: int | None = None,
) -> TradeoffPoint:
    """Certify the bound on each attack that `attacks` yields; returns the point of least margin.

    A margin below -DEFAULT_TOL, float noise on a probability, raises
    BoundViolation (the bound is proven, so that is an implementation bug,
    not a counterexample). Given `check`, it calls check(attack, point) on
    the first `checked` attacks (all of them when None) right after
    certifying each, so a caller can check them further without building
    them again. It lets go of each attack and its point before it pulls the
    next, so its memory does not grow with their number.
    """
    worst, count = None, 0
    for m in attacks:  # not enumerate: its cached tuple would keep the last attack alive
        p = attack_point(m)
        if not p.margin >= -DEFAULT_TOL:
            raise BoundViolation(
                f"attack {p.source!r} lands {-p.margin:.3e} below the proven bound "
                f"(G={p.g!r}, D={p.d!r}); this indicates a broken attack or metric"
            )
        count += 1
        if worst is None or p.margin < worst.margin:
            worst = p
        if check is not None and (checked is None or count <= checked):
            check(m, p)
        del m  # freed before the next attack is pulled
    if worst is None:
        raise ValueError("need at least one attack")
    return worst


def sweep_random(
    n: int,
    trials: int,
    seed: int = 0,
    check: Callable[[GeneralizedMeasurement, TradeoffPoint], object] | None = None,
) -> TradeoffPoint:
    """Certify the bound on `trials` seeded random attacks; returns the point of least margin.

    Attacks are drawn one at a time and certified as in `certify`, which
    hands the first min(trials, _KEPT) of them to `check` and keeps no
    other point, so memory does not grow with `trials`.
    """
    check_dim(n)
    check_seed(seed)
    drawn = (random_attack(n, seed=trial_seed(seed, t)) for t in range(trials))
    return certify(drawn, check, checked=_KEPT)


def _gradient(a: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Gradient of F + lam[k] G with respect to conj(A) for each attack k of an (R, n, n, n) stack.

    Attack k has n outcomes, and outcome r guesses r, so G = (1/n) sum_r
    |column r of A_r|^2 and its gradient is (1/n) times that column. F is
    (1/n^2) times the sum of the squared decoy amplitudes amp, so its
    gradient is (1/n^2) [i (amp^T - amp)/2 + diag((row sums + column sums of
    amp)/2)] for each outcome.
    """
    n = a.shape[1]
    idx = np.arange(n)
    amp = _decoy_amplitudes(a.reshape(-1, n, n)).reshape(a.shape)
    grad = 0.5j * (amp.swapaxes(2, 3) - amp)
    grad[..., idx, idx] += 0.5 * (amp.sum(axis=3) + amp.sum(axis=2))
    grad /= n * n
    grad[:, idx, :, idx] += (lam / n)[:, None] * a[:, idx, :, idx]
    return grad


def _polar(x: np.ndarray) -> np.ndarray:
    """The polar factor X (X†X)^(-1/2) of each (n n, n) row stack X of an (R, n, n, n) array.

    One whose Gram matrix X†X is singular to float precision is zeroed, not
    divided by zero, so the attack's constructor drops it.
    """
    k, n = x.shape[:2]
    rows = x.reshape(k, n * n, n)
    w, u = np.linalg.eigh(rows.conj().swapaxes(1, 2) @ rows)
    ok = w[:, :1] > np.finfo(float).eps * w[:, -1:]
    # abs: the eigenvalues of a singular Gram matrix can round to just below 0
    s = np.divide(1.0, np.sqrt(np.abs(w)), out=np.zeros_like(w), where=ok)
    return (rows @ ((u * s[:, None, :]) @ u.conj().swapaxes(1, 2))).reshape(x.shape)


def _ascend(a: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Polar ascent of F + lam[k] G over the attacks of an (R, n, n, n) stack, from `a`.

    Each step replaces the stack, the isometry of each attack, by the polar
    factor of its gradient (P.-A. Absil, R. Mahony and R. Sepulchre,
    Optimization Algorithms on Matrix Manifolds, 2008). F + λG is a positive
    semidefinite quadratic form, so no step can lower it and none needs a
    step size (M. Journée, Y. Nesterov, P. Richtárik and R. Sepulchre,
    JMLR 11, 517 (2010)). It stops once no entry moves by more than
    _STEP_TOL in a step, or after _ASCENT_STEPS steps.
    """
    for _ in range(_ASCENT_STEPS):
        a, prev = _polar(_gradient(a, lam)), a
        if np.max(np.abs(a - prev)) <= _STEP_TOL:
            break
    return a


def _search(n: int, g_target: float, restarts: int, seed: int) -> np.ndarray:
    """One n-outcome attack, as an (n, n, n) stack, with G near g_target.

    Restart k starts from the polar factor of the k-th complex Gaussian
    (n, n, n) stack drawn from `seed`, whatever `restarts` is. The restarts
    ascend together once, at λ = 1, and the one with the largest F + G (the
    quadratic form Re<A, gradient>) carries on alone to the λ at which G =
    g_target. G(λ) is 1/n at λ = 0, so λ doubles from 1 until G >= g_target
    brackets the root, which false position (Illinois) on G(λ) - g_target
    then narrows. Each ascent starts from the stack with G closest to
    g_target so far, and that stack is returned.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((restarts, 2, n, n, n))
    a = _ascend(_polar(z[:, 0] + 1j * z[:, 1]), np.ones(restarts))
    top = np.einsum("kabc,kabc->k", a.conj(), _gradient(a, np.ones(restarts))).real  # F + G of each
    a = a[[np.argmax(top)]]
    best, miss = a, np.inf  # miss: |G - g_target| of the best stack
    lam, side = 1.0, 0
    lo, f_lo = 0.0, 1.0 / n - g_target
    hi, f_hi = np.inf, 0.0
    for step in range(_ROOT_STEPS):
        if step:  # the first ascent, at λ = 1, is the restarts' own
            a = _ascend(best, np.array([lam]))
        f = np.einsum("rir->", np.abs(a[0]) ** 2) / n - g_target
        if abs(f) < miss:
            best, miss = a, abs(f)
        if miss <= _ROOT_TOL:
            break
        # Illinois: an end kept a second time in a row has its value halved
        if f < 0:
            if side < 0:
                f_hi /= 2
            lo, f_lo, side = lam, f, -1
        else:
            if side > 0:
                f_lo /= 2
            hi, f_hi, side = lam, f, 1
        if hi == np.inf:
            lam *= 2
        else:
            lam = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
    return best[0]


def optimize_attack(
    n: int,
    g_target: float,
    restarts: int = 16,
    seed: int = 0,
) -> tuple[TradeoffPoint, GeneralizedMeasurement]:
    """Rediscover the least-disturbance attack at fixed estimation fidelity.

    Searches n-outcome attacks in which outcome r guesses r for the largest
    F at G = g_target, by polar ascent of F + λG from `restarts` random
    complex starts (_search), each ascent of at most _ASCENT_STEPS steps. The
    stack found is built by the GeneralizedMeasurement constructor and scored
    by attack_point; RuntimeError if it is refused, misses g_target or lands
    below the bound, each by more than DEFAULT_TOL. Returns the point and attack.
    """
    check_dim(n)
    g_target = float(g_target)
    if not 1.0 / n <= g_target <= 1.0:
        raise ValueError(f"estimation fidelity target {g_target} outside [1/{n}, 1]")
    if restarts < 1:
        raise ValueError(f"restarts must be positive, got {restarts}")
    check_seed(seed)
    source = f"optimized(n={n},g={g_target!r},seed={seed})"

    if g_target == 1.0:
        # G(λ) reaches 1 only as λ grows without limit, so no search brackets it;
        # the full readout meets the bound there
        m = replace(projective_attack(n), descriptor=source)
        return attack_point(m), m

    failure = RuntimeError(f"no feasible candidate found at (n={n}, g={g_target})")
    try:
        m = GeneralizedMeasurement(_search(n, g_target, restarts, seed), source)
    except ValueError as exc:  # a zeroed stack, or one that is not complete
        raise failure from exc
    p = attack_point(m)
    # a margin below noise, or a NaN, is only reachable through float pathology
    if not (abs(p.g - g_target) <= DEFAULT_TOL and p.margin >= -DEFAULT_TOL):
        raise failure
    return p, m
