"""The information-gain/disturbance tradeoff: bound, saturation, certification.

Any complete measurement on the n-dim channel with estimation fidelity G
disturbs the pairing-ensemble decoys by at least

    D >= 1/2 - (1/(2n)) (sqrt(G) + sqrt((n-1)(1-G)))^2,

with G running from 1/n (do nothing) to 1 (full readout) and D from 0 to
1/2 - 1/(2n). The bound is tight: the one-parameter family built by
optimal_attack meets it with equality at every admissible G. This module
evaluates the bound, certifies attacks against it (random sweeps), and
rediscovers the optimum by constrained local search over diagonal attacks.

Only that search uses scipy (SLSQP). It imports scipy.optimize when it
runs and calls optimize.minimize through the module, so verify, simulate
and curve never load scipy.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace

import numpy as np

from .attacks import (
    GeneralizedMeasurement,
    diagonal_attack,
    optimal_attack,
    projective_attack,
    random_attack,
)
from .linalg import check_dim
from .metrics import estimation_fidelity, induced_fidelity_closed, induced_fidelity_functional

#: margins at or above this are float noise; below it an attack or metric is broken
_NOISE = -1e-9
#: largest float-noise offset of an estimation fidelity from its range or target
_G_TOL = 1e-9
#: random attacks, a sweep's first ones, that sweep_random hands to its `check`
_KEPT = 10
#: floor on a diagonal entry before water-filling, so a zero can still be scaled up
_DIAG_FLOOR = 1e-300
#: diagonal weight left over or overspent by less than this is float noise, not infeasible
_PIN_SLACK = 1e-12
#: squared row mass at or below this is zero: nothing to fill, or nothing to rescale
_MASS_FLOOR = 1e-30


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
    if abs(g_eval - g) > _G_TOL:
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


def saturation_gap(n: int, g: float) -> float:
    """|D - bound| for the saturating family at (n, g); contract: <= 1e-9.

    D comes from the state-operator route, not from the evaluator that
    attack_point uses, so this check grades that evaluator independently.
    """
    m = optimal_attack(n, g)
    d = 1.0 - induced_fidelity_functional(m)
    return abs(d - disturbance_bound(g, n))


def trial_seed(seed: int, t: int) -> int:
    """Seed of random attack t in a sweep seeded with `seed`."""
    return int(np.random.SeedSequence(entropy=[int(seed), t]).generate_state(1, np.uint64)[0])


def certify(
    attacks: Iterable[GeneralizedMeasurement],
    check: Callable[[GeneralizedMeasurement, TradeoffPoint], object] | None = None,
    checked: int | None = None,
) -> list[TradeoffPoint]:
    """Certify the bound on each attack that `attacks` yields; returns their points.

    A margin below _NOISE raises BoundViolation (the bound is proven, so that
    is an implementation bug, not a counterexample). Given `check`, it calls
    check(attack, point) on the first `checked` attacks (all of them when
    None) right after certifying each, so a caller can check them further
    without building them again. It lets go of each attack before it pulls
    the next.
    """
    points = []
    for m in attacks:  # not enumerate: its cached tuple would keep the last attack alive
        p = attack_point(m)
        if p.margin < _NOISE:
            raise BoundViolation(
                f"attack {p.source!r} lands {-p.margin:.3e} below the proven bound "
                f"(G={p.g!r}, D={p.d!r}); this indicates a broken attack or metric"
            )
        points.append(p)
        if check is not None and (checked is None or len(points) <= checked):
            check(m, p)
        del m  # freed before the next attack is pulled
    return points


def sweep_random(
    n: int,
    trials: int,
    seed: int = 0,
    check: Callable[[GeneralizedMeasurement, TradeoffPoint], object] | None = None,
) -> tuple[list[TradeoffPoint], float]:
    """Certify the bound on `trials` seeded random attacks.

    Returns all evaluated points and the minimum margin. Attacks are drawn
    one at a time and certified as in `certify`, which hands the first
    min(trials, _KEPT) of them to `check`.
    """
    check_dim(n)
    if trials < 1:
        raise ValueError("need at least one trial")
    drawn = (random_attack(n, seed=trial_seed(seed, t)) for t in range(trials))
    points = certify(drawn, check, checked=_KEPT)
    return points, min(p.margin for p in points)


def _pin_diagonal(d: np.ndarray, target: float, n: int) -> np.ndarray | None:
    """Scale entries of d so sum(d^2) = target with each capped at 1 (water-filling)."""
    d = np.clip(d, _DIAG_FLOOR, 1.0)
    free = np.ones(n, dtype=bool)
    for _ in range(n + 1):
        rem = target - float((d[~free] ** 2).sum())
        ssq_free = float((d[free] ** 2).sum())
        if rem < -_PIN_SLACK or (rem > _PIN_SLACK and ssq_free <= 0.0):
            return None
        scale = np.sqrt(max(rem, 0.0) / ssq_free) if ssq_free > 0 else 0.0
        over = free & (d * scale > 1.0)
        if not over.any():
            d[free] *= scale
            return d
        d[over] = 1.0
        free &= ~over
    return None


def _polish(a: np.ndarray, n: int, g_target: float) -> np.ndarray | None:
    """Project a coefficient grid onto the exact feasible set at g_target.

    Pins sum_r a_rr^2 = n*g_target (diagonal untouched afterwards), then
    rescales only the off-diagonal mass of each row to restore unit row norms,
    so both constraints hold to float precision simultaneously.
    """
    a = np.clip(a, 0.0, None)
    d = _pin_diagonal(np.diag(a).copy(), n * g_target, n)
    if d is None:
        return None
    out = np.zeros_like(a)
    for j in range(n):
        off = a[j].copy()
        off[j] = 0.0
        rem = 1.0 - d[j] ** 2
        onorm2 = float((off ** 2).sum())
        if rem <= _MASS_FLOOR:
            off[:] = 0.0
        elif onorm2 <= _MASS_FLOOR:
            return None
        else:
            off *= np.sqrt(rem / onorm2)
        out[j] = off
        out[j, j] = d[j]
    return out


def _constraints(n: int, g_target: float) -> list[dict]:
    """SLSQP's two constraints on the flattened grid a_jr (level j, outcome r).

    The equality stacks the n unit row norms and the pinned diagonal weight
    sum_r a_rr^2 = n*g_target. The guess inequalities a_rr - a_jr >= 0 for
    j != r are linear, so their Jacobian is one constant (n(n-1), n^2) matrix;
    under the [0, 1] bounds they are the same as a_rr^2 >= a_jr^2.
    """
    idx = np.arange(n)

    def eq(x):
        sq = x.reshape(n, n) ** 2
        return np.append(sq.sum(axis=1) - 1.0, sq[idx, idx].sum() - n * g_target)

    def eq_jac(x):
        a = x.reshape(n, n)
        jac = np.zeros((n + 1, n, n))
        jac[idx, idx] = 2 * a
        jac[n, idx, idx] = 2 * a[idx, idx]
        return jac.reshape(n + 1, n * n)

    r, j = np.nonzero(~np.eye(n, dtype=bool))
    rows = np.arange(len(r))
    guess = np.zeros((len(r), n * n))
    guess[rows, r * (n + 1)] = 1.0
    guess[rows, j * n + r] = -1.0
    return [
        {"type": "eq", "fun": eq, "jac": eq_jac},
        {"type": "ineq", "fun": lambda x: guess @ x, "jac": lambda x: guess},
    ]


def _search_once(n: int, g_target: float, iters: int, rng: np.random.Generator) -> np.ndarray:
    """One SLSQP run from a random feasible-ish start; returns the raw grid."""
    from scipy import optimize  # imported here: only the search needs scipy

    def obj(x):
        col = x.reshape(n, n).sum(axis=0)
        return 0.5 - float(col @ col) / (2 * n * n)

    def obj_grad(x):
        col = x.reshape(n, n).sum(axis=0)
        return np.tile(-col / (n * n), (n, 1)).ravel()

    start = np.abs(rng.standard_normal((n, n)))
    start /= np.linalg.norm(start, axis=1, keepdims=True)
    res = optimize.minimize(
        obj,
        start.ravel(),
        jac=obj_grad,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * (n * n),
        constraints=_constraints(n, g_target),
        options={"maxiter": iters, "ftol": 1e-14},
    )
    return res.x.reshape(n, n)


def optimize_attack(
    n: int,
    g_target: float,
    restarts: int = 16,
    iters: int = 2000,
    seed: int = 0,
) -> tuple[TradeoffPoint, GeneralizedMeasurement]:
    """Rediscover the least-disturbance attack at fixed estimation fidelity.

    Local search over n-outcome diagonal attacks parametrized by the
    nonnegative grid a_jr (level j, outcome r), under unit row norms
    (completeness), pinned sum_r a_rr^2 = n*g_target, and a_rr >= a_jr so the
    per-outcome guess is r. Each restart's result is projected onto the exact
    feasible set and scored by attack_point. Returns the best point and its
    attack.
    """
    check_dim(n)
    g_target = float(g_target)
    if not 1.0 / n <= g_target <= 1.0:
        raise ValueError(f"estimation fidelity target {g_target} outside [1/{n}, 1]")
    source = f"optimized(n={n},g={g_target!r},seed={seed})"

    if g_target == 1.0:
        # unit row norms cap every diagonal entry at 1, so sum a_rr^2 = n has
        # exactly one solution: the full readout grid a = Id
        m = replace(projective_attack(n), descriptor=source)
        return attack_point(m), m

    best: tuple[TradeoffPoint, GeneralizedMeasurement] | None = None
    for k in range(restarts):
        raw = _search_once(n, g_target, iters, np.random.default_rng([seed, k]))
        a = _polish(raw, n, g_target)
        if a is None:
            continue
        m = replace(diagonal_attack(a.T), descriptor=source)
        p = attack_point(m)
        # a margin below noise is only reachable through float pathology in the pin
        if abs(p.g - g_target) > _G_TOL or p.margin < _NOISE:
            continue
        if best is None or p.d < best[0].d:
            best = (p, m)
    if best is None:
        raise RuntimeError(f"no feasible candidate found at (n={n}, g={g_target})")
    return best
