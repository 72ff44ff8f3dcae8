"""Tests for the disturbance bound, attack certification, and the optimizer."""

import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from qdecoy.attacks import (
    GeneralizedMeasurement,
    identity_attack,
    optimal_attack,
    probabilistic_attack,
    projective_attack,
    random_attack,
)
from qdecoy import tradeoff
from qdecoy.metrics import estimation_fidelity, induced_fidelity_closed, induced_fidelity_functional
from qdecoy.tradeoff import (
    BoundViolation,
    attack_point,
    certify,
    disturbance_bound,
    optimize_attack,
    sweep_random,
    trial_seed,
)


class TestDisturbanceBound:
    def test_endpoints_exact(self):
        for n in range(2, 51):
            assert disturbance_bound(1.0 / n, n) == 0.0
            assert disturbance_bound(1.0, n) == 0.5 - 1.0 / (2 * n)

    def test_frozen_values(self):
        assert_allclose(
            disturbance_bound(0.75, 2), 0.03349364905389035, rtol=0, atol=1e-15
        )
        # same closed form (2 + sqrt(3))/8 shows up at (n=4, g=0.5)
        assert_allclose(
            disturbance_bound(0.5, 4), 0.03349364905389035, rtol=0, atol=1e-15
        )
        assert disturbance_bound(1.0, 3) == 0.5 - 1.0 / 6

    def test_monotone_in_g(self):
        for n in range(2, 17):
            grid = np.linspace(1.0 / n, 1.0, 101)
            vals = np.array([disturbance_bound(g, n) for g in grid])
            assert np.all(np.diff(vals) >= -1e-12)
            assert np.all(vals >= 0.0)
            assert np.all(vals <= 0.5 - 1.0 / (2 * n) + 1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            disturbance_bound(0.5, 1)
        with pytest.raises(ValueError):
            disturbance_bound(0.5 - 1e-6, 2)
        with pytest.raises(ValueError):
            disturbance_bound(1.0 + 1e-6, 2)


class TestAttackPoint:
    def test_identity_sits_on_lower_endpoint(self):
        p = attack_point(identity_attack(3))
        assert p.n == 3
        assert_allclose(p.g, 1.0 / 3, rtol=0, atol=1e-15)
        assert_allclose(p.d, 0.0, rtol=0, atol=1e-12)
        assert p.bound == 0.0
        assert p.source == "identity(n=3)"

    def test_projective_saturates_upper_endpoint(self):
        for n in (2, 4):
            p = attack_point(projective_attack(n))
            assert p.g == 1.0
            assert_allclose(p.d, 0.5 - 1.0 / (2 * n), rtol=0, atol=1e-12)
            assert_allclose(p.margin, 0.0, rtol=0, atol=1e-12)

    def test_probabilistic_point_frozen(self):
        p = attack_point(probabilistic_attack(2, 0.5))
        assert_allclose(p.g, 0.75, rtol=0, atol=1e-12)
        assert_allclose(p.d, 0.125, rtol=0, atol=1e-12)
        assert_allclose(p.margin, 0.09150635094610965, rtol=0, atol=1e-12)

    def test_source_override(self):
        # the source is the attack's descriptor, so a relabeled attack carries its label
        p = attack_point(replace(identity_attack(2), descriptor="custom"))
        assert p.source == "custom"

    def test_incomplete_attack_rejected(self, monkeypatch):
        # an attack cannot be built incomplete, so the G an incomplete 0.5 Id would give is patched in
        monkeypatch.setattr(tradeoff, "estimation_fidelity", lambda m: (0.25, np.zeros(1, dtype=int)))
        with pytest.raises(ValueError, match=r"estimation fidelity 0.25 outside \[1/2, 1\] beyond tolerance"):
            attack_point(identity_attack(2))


def _saturation_gap(n, g):
    """|D - bound| on the saturating family, with D from the state-operator route, not attack_point's evaluator."""
    return abs((1.0 - induced_fidelity_functional(optimal_attack(n, g))) - disturbance_bound(g, n))


class TestSaturationGap:
    def test_endpoints(self):
        assert _saturation_gap(2, 1.0) <= 1e-12
        assert _saturation_gap(10, 0.1) <= 1e-12

    def test_interior(self):
        assert _saturation_gap(4, 0.6) <= 1e-9

    def test_grid(self):
        for n in (2, 3, 4):
            for g in np.linspace(1.0 / n, 1.0, 11):
                assert _saturation_gap(n, float(g)) <= 1e-9


def _spy_on_points(monkeypatch) -> list:
    """Record every point that certification evaluates, in order."""
    points = []

    def spy(m):
        points.append(attack_point(m))
        return points[-1]

    monkeypatch.setattr("qdecoy.tradeoff.attack_point", spy)
    return points


class TestSweepRandom:
    def test_margins_nonnegative(self, monkeypatch):
        points = _spy_on_points(monkeypatch)
        worst = sweep_random(2, trials=25, seed=0)
        assert len(points) == 25
        assert worst.margin >= -1e-9
        assert worst is min(points, key=lambda p: p.margin)

    def test_injected_attack_is_evaluated(self, monkeypatch):
        injected = probabilistic_attack(2, 0.5)
        last_seed = trial_seed(0, 9)
        monkeypatch.setattr(
            "qdecoy.tradeoff.random_attack",
            lambda n, seed=0: injected if seed == last_seed else random_attack(n, seed=seed),
        )
        seen = []
        worst = sweep_random(2, trials=10, seed=0, check=lambda m, p: seen.append(p))
        last = seen[-1]
        assert len(seen) == 10
        assert last.source == "prob(n=2,p=0.5)"
        assert_allclose(last.g, 0.75, rtol=0, atol=1e-12)
        assert_allclose(last.d, 0.125, rtol=0, atol=1e-12)
        assert last.margin > 0.05
        assert worst.margin >= -1e-9

    def test_nan_fidelity_fails_certification(self, monkeypatch):
        monkeypatch.setattr(tradeoff, "induced_fidelity_closed", lambda a: np.nan)
        with pytest.raises(BoundViolation, match="lands nan below the proven bound"):
            sweep_random(2, trials=5, seed=1)

    def test_deterministic(self):
        ops_a, ops_b = [], []
        a = sweep_random(3, trials=8, seed=42, check=lambda m, p: ops_a.append(m.ops))
        b = sweep_random(3, trials=8, seed=42, check=lambda m, p: ops_b.append(m.ops))
        assert a == b
        for ma, mb in zip(ops_a, ops_b, strict=True):
            assert_array_equal(ma, mb)
        c = sweep_random(3, trials=8, seed=43)
        assert c != a

    def test_trial_seeds_are_frozen(self):
        # the per-trial stream: SeedSequence(entropy=[seed, t]), first uint64 word
        assert [trial_seed(7, t) for t in range(3)] == [
            16920295385781661272,
            6635463128224577688,
            18279110831140952437,
        ]
        seen = []
        sweep_random(2, trials=3, seed=7, check=lambda m, p: seen.append(p))
        assert len(seen) == 3
        for t, p in enumerate(seen):
            assert p == attack_point(random_attack(2, seed=trial_seed(7, t)))

    def test_check_sees_the_first_attacks_with_their_points(self, monkeypatch):
        for trials in (2, 12):
            points = _spy_on_points(monkeypatch)
            seen = []
            sweep_random(2, trials=trials, seed=7, check=lambda m, p: seen.append((m.ops.copy(), p)))
            assert len(points) == trials
            assert len(seen) == min(trials, 10)
            for t, (ops, p) in enumerate(seen):
                assert_array_equal(ops, random_attack(2, seed=trial_seed(7, t)).ops)
                assert p is points[t]

    def test_memory_does_not_grow_with_trials(self):
        # one attack and its point alive at a time; a list of every point
        # grew by about 320 B per trial. A first sweep warms numpy's caches up,
        # which would otherwise count in the first peak only
        sweep_random(2, trials=2, seed=0)
        peaks = []
        for trials in (200, 2000):
            tracemalloc.start()
            try:
                sweep_random(2, trials=trials, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 4 * 2**10

    def test_check_sees_each_attack_freed_before_the_next_is_drawn(self, monkeypatch):
        refs = []

        def build(n, seed=0):
            # every attack handed out so far is dead before the next one is built
            assert all(r() is None for r in refs)
            return random_attack(n, seed=seed)

        def check(m, p):
            refs.append(weakref.ref(m))

        monkeypatch.setattr("qdecoy.tradeoff.random_attack", build)
        sweep_random(2, trials=12, seed=7, check=check)
        assert len(refs) == 10
        assert all(r() is None for r in refs)

    def test_broken_attack_raises(self, monkeypatch):
        # F above 1 puts every attack below the bound; the violation names the first one drawn
        monkeypatch.setattr(tradeoff, "induced_fidelity_closed", lambda a: induced_fidelity_closed(a) + 1.0)
        with pytest.raises(BoundViolation, match=rf"random\(n=2,k=4,seed={trial_seed(0, 0)}\)"):
            sweep_random(2, trials=2, seed=0)

    @staticmethod
    def _margin_pinned_at(monkeypatch, margin):
        def shifted(m):
            p = attack_point(m)
            return replace(p, d=p.d - p.margin + margin, margin=margin)

        monkeypatch.setattr("qdecoy.tradeoff.attack_point", shifted)

    def test_margin_below_noise_raises(self, monkeypatch):
        # between the noise floor -1e-9 and -1e-6: verify's threshold applies here too
        self._margin_pinned_at(monkeypatch, -1e-7)
        with pytest.raises(BoundViolation, match="1.000e-07 below"):
            sweep_random(2, trials=3, seed=0)

    def test_margin_within_noise_passes(self, monkeypatch):
        self._margin_pinned_at(monkeypatch, -1e-10)
        assert sweep_random(2, trials=3, seed=0).margin == -1e-10

    def test_argument_guards(self):
        with pytest.raises(ValueError):
            sweep_random(1, trials=5)
        with pytest.raises(ValueError):
            sweep_random(2, trials=0)


def _near_bound(n, g, seed, eps=1e-6):
    """optimal_attack(n, g) with outcome r turned by U_r = exp(i eps H_r), H_r a seeded Hermitian matrix.

    (U_r A_r)†(U_r A_r) = A_r†A_r, so G and completeness stay; D rises above the bound by O(eps^2).
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    w, v = np.linalg.eigh((x + x.conj().swapaxes(1, 2)) / 2)
    u = (v * np.exp(1j * eps * w)[:, None, :]) @ v.conj().swapaxes(1, 2)
    return GeneralizedMeasurement(u @ optimal_attack(n, g).ops, f"near(n={n},g={g!r},seed={seed})")


class TestNearBound:
    """Certification of non-diagonal attacks within 1e-10 of the bound, where a small error in D shows."""

    CASES = [(n, float(g), seed) for n in (2, 3, 4, 8) for g in np.linspace(1 / n, 1, 7)[1:-1] for seed in range(3)]

    def _attacks(self):
        # each diagonal optimal attack, then its rotations
        for n, g, seed in self.CASES:
            if seed == 0:
                yield optimal_attack(n, g)
            yield _near_bound(n, g, seed)

    def test_rotation_keeps_g(self):
        for n, g, seed in self.CASES:
            g_near, _ = estimation_fidelity(_near_bound(n, g, seed))
            g_opt, _ = estimation_fidelity(optimal_attack(n, g))
            assert abs(g_near - g_opt) <= 1e-12

    def test_certified_within_1e10_of_the_bound(self):
        margins = {}
        certify(self._attacks(), lambda m, p: margins.update({p.source: p.margin}))
        near = [v for k, v in margins.items() if k.startswith("near(")]
        assert len(near) == len(self.CASES)
        assert all(0.0 <= v <= 1e-10 for v in near)

    def test_error_of_1e8_on_non_diagonal_attacks_is_caught(self, monkeypatch):
        def raised(a):
            off = a.copy()
            idx = np.arange(a.shape[1])
            off[:, idx, idx] = 0
            return induced_fidelity_closed(a) + (1e-8 if np.any(off) else 0.0)

        monkeypatch.setattr("qdecoy.tradeoff.induced_fidelity_closed", raised)
        n, g, seed = self.CASES[0]
        # the diagonal optimal attack ahead of it still passes
        with pytest.raises(BoundViolation, match=rf"'near\(n={n},g={g!r},seed={seed}\)'"):
            certify(self._attacks())


def _complex_stacks(rng, r, n):
    """r complex Gaussian (n, n, n) stacks, neither diagonal nor isometries."""
    return rng.standard_normal((r, n, n, n)) + 1j * rng.standard_normal((r, n, n, n))


class TestAscent:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_gradient_matches_central_differences(self, n):
        # d/dt (F + λG)(A + tH) at t = 0 is 2 Re <grad, H>, with outcome r guessing r
        def objective(a, lam):
            g = sum(np.sum(np.abs(a[r, :, r]) ** 2) for r in range(n)) / n
            return induced_fidelity_closed(a) + lam * g

        rng = np.random.default_rng(n)
        a, h = _complex_stacks(rng, 3, n), _complex_stacks(rng, 3, n)
        lam = rng.uniform(0.0, 3.0, 3)
        grad = tradeoff._gradient(a, lam)
        step = 1e-6
        for k in range(3):
            central = (objective(a[k] + step * h[k], lam[k]) - objective(a[k] - step * h[k], lam[k])) / (2 * step)
            assert_allclose(2 * np.sum(grad[k].conj() * h[k]).real, central, rtol=0, atol=1e-8)

    def test_polar_factor_is_an_isometry_and_zeroes_a_singular_stack(self):
        x = _complex_stacks(np.random.default_rng(1), 2, 3)
        x[1, :, :, 0] = 0.0  # column 0 of every outcome: X†X is singular
        p = tradeoff._polar(x)
        rows = p[0].reshape(9, 3)
        assert_allclose(rows.conj().T @ rows, np.eye(3), rtol=0, atol=1e-13)
        assert_array_equal(p[1], 0.0)

    @pytest.mark.parametrize("n, g", [(2, 0.75), (3, 0.6), (4, 0.625), (5, 0.201), (7, 0.1438)])
    def test_the_searched_stack_is_the_saturating_family(self, n, g):
        want = optimal_attack(n, g).ops
        stack = tradeoff._search(n, g, restarts=4, seed=0)
        assert stack.shape == (n, n, n)
        # one phase per outcome, read off its diagonal entry at the outcome's own guess
        phase = stack[np.arange(n), np.arange(n), np.arange(n)]
        assert np.max(np.abs(stack * (np.abs(phase) / phase)[:, None, None] - want)) <= 1e-10

    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_restarts_agree_on_the_top_of_the_first_ascent(self, n, monkeypatch):
        # why one stack may carry the root search on: every restart reaches the same F + G at λ = 1
        firsts = []
        ascend = tradeoff._ascend

        def spy(a, lam):
            out = ascend(a, lam)
            if not firsts:
                firsts.append(out)
            return out

        monkeypatch.setattr(tradeoff, "_ascend", spy)
        tradeoff._search(n, 0.5, restarts=16, seed=0)
        (first,) = firsts
        idx = np.arange(n)
        tops = [induced_fidelity_closed(a) + np.sum(np.abs(a[idx, :, idx]) ** 2) / n for a in first]
        assert len(tops) == 16
        assert max(tops) - min(tops) <= 1e-12

    def test_a_restart_zeroed_in_the_first_ascent_loses(self, monkeypatch):
        ascend = tradeoff._ascend
        calls = []

        def zero_first(a, lam):
            out = ascend(a, lam)
            if not calls:
                out[0] = 0.0
            calls.append(len(out))
            return out

        monkeypatch.setattr(tradeoff, "_ascend", zero_first)
        point, m = optimize_attack(3, 0.6, restarts=2, seed=0)
        assert calls[0] == 2 and set(calls[1:]) == {1}
        assert abs(point.g - 0.6) <= 1e-12
        assert point.margin >= -1e-9
        assert m.ops.shape == (3, 3, 3)

    def test_restarts_start_from_non_diagonal_complex_stacks(self, monkeypatch):
        starts = []
        ascend = tradeoff._ascend

        def spy(a, lam):
            if not starts:
                starts.append(a.copy())
            return ascend(a, lam)

        monkeypatch.setattr(tradeoff, "_ascend", spy)
        optimize_attack(3, 0.6, restarts=4, seed=0)
        (start,) = starts
        assert start.shape == (4, 3, 3, 3)
        off = ~np.eye(3, dtype=bool)
        assert np.all(np.abs(start[..., off]).max(axis=(1, 2)) > 0.1)
        assert np.all(np.abs(start.imag).max(axis=(1, 2, 3)) > 0.1)


class TestOptimizeAttack:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_reaches_bound_at_mid_g(self, n):
        g = 0.5 * (1.0 / n + 1.0)
        point, _ = optimize_attack(n, g, restarts=4, seed=0)
        assert abs(point.d - disturbance_bound(g, n)) <= 1e-9
        assert_allclose(point.g, g, rtol=0, atol=1e-9)

    def test_rediscovers_bound_midrange(self):
        point, _ = optimize_attack(2, 0.75, restarts=4, seed=0)
        bound = disturbance_bound(0.75, 2)
        assert abs(point.d - bound) <= 5e-4
        assert point.d >= bound - 1e-9
        assert_allclose(point.g, 0.75, rtol=0, atol=1e-9)
        assert point.source == "optimized(n=2,g=0.75,seed=0)"

    def test_lower_endpoint(self):
        point, _ = optimize_attack(2, 0.5, restarts=4, seed=0)
        assert point.d <= 5e-4
        assert point.d >= -1e-9

    def test_one_restart_meets_g_near_the_lower_end(self):
        point, _ = optimize_attack(5, 0.201, restarts=1, seed=0)
        assert abs(point.g - 0.201) <= 1e-12
        assert abs(point.margin) <= 1e-11

    def test_a_restart_may_leave_an_outcome_without_weight(self, monkeypatch):
        # outcome 1 of this complete stack never fires: the attack keeps outcomes 0 and 2
        stack = np.zeros((3, 3, 3), dtype=complex)
        stack[0, [0, 1], [0, 1]] = 1.0
        stack[2, 2, 2] = 1.0
        monkeypatch.setattr(tradeoff, "_ascend", lambda a, lam: np.broadcast_to(stack, a.shape).copy())
        point, m = optimize_attack(3, 2 / 3, restarts=1, seed=0)
        assert len(m.ops) == 2
        assert_allclose(point.g, 2 / 3, rtol=0, atol=1e-12)
        assert_allclose(point.d, 2 / 9, rtol=0, atol=1e-12)

    def test_no_restart_left_when_every_one_is_singular(self, monkeypatch):
        def singular(a, lam):
            a = a.copy()
            a[..., 0] = 0.0  # column 0 of every outcome
            return tradeoff._polar(a)

        monkeypatch.setattr(tradeoff, "_ascend", singular)
        with pytest.raises(RuntimeError, match="no feasible candidate"):
            optimize_attack(3, 0.6, restarts=2, seed=0)

    def test_nan_point_is_not_a_candidate(self, monkeypatch):
        # a NaN D, and so a NaN margin, is dropped like a margin below noise
        def nan_d(m):
            return replace(attack_point(m), d=np.nan, margin=np.nan)

        monkeypatch.setattr(tradeoff, "attack_point", nan_d)
        with pytest.raises(RuntimeError, match="no feasible candidate"):
            optimize_attack(3, 0.6, restarts=2, seed=0)

    @pytest.mark.parametrize("n, seed", [(5, 5), (7, 6)])
    def test_meets_g_a_float_step_below_one(self, n, seed):
        # the margin is ill-conditioned here; one restart missed these two, the default 16 do not
        g = 1 - 2**-52
        point, _ = optimize_attack(n, g, seed=seed)
        assert abs(point.g - g) <= 1e-9
        assert point.margin >= -1e-9

    def test_full_readout_is_projective(self):
        point, m = optimize_attack(4, 1.0, seed=0)
        assert point.d == 0.375
        assert point.margin == 0.0
        assert_array_equal(m.ops, projective_attack(4).ops)

    def test_deterministic(self):
        p1, m1 = optimize_attack(2, 0.8, restarts=2, seed=7)
        p2, m2 = optimize_attack(2, 0.8, restarts=2, seed=7)
        assert p1 == p2
        assert_array_equal(m1.ops, m2.ops)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            optimize_attack(3, 0.1)
        with pytest.raises(ValueError):
            optimize_attack(3, 1.1)
        with pytest.raises(ValueError):
            optimize_attack(1, 0.9)

    @pytest.mark.parametrize("restarts", [0, -2])
    def test_restarts_must_be_positive(self, restarts):
        # not "no feasible candidate" after an empty search, nor numpy's "negative dimensions"
        with pytest.raises(ValueError, match=f"restarts must be positive, got {restarts}"):
            optimize_attack(3, 0.6, restarts=restarts)
