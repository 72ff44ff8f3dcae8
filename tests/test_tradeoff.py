"""Tests for the disturbance bound, attack certification, and the optimizer."""

import weakref
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from qdecoy.attacks import (
    GeneralizedMeasurement,
    identity_attack,
    probabilistic_attack,
    projective_attack,
    random_attack,
)
from qdecoy import tradeoff
from qdecoy.tradeoff import (
    BoundViolation,
    _constraints,
    attack_point,
    disturbance_bound,
    optimize_attack,
    saturation_gap,
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

    def test_incomplete_attack_rejected(self):
        m = GeneralizedMeasurement([0.5 * np.eye(2, dtype=complex)], descriptor="corrupt")
        with pytest.raises(ValueError):
            attack_point(m)


class TestSaturationGap:
    def test_endpoints(self):
        assert saturation_gap(2, 1.0) <= 1e-12
        assert saturation_gap(10, 0.1) <= 1e-12

    def test_interior(self):
        assert saturation_gap(4, 0.6) <= 1e-9

    def test_grid(self):
        for n in (2, 3, 4):
            for g in np.linspace(1.0 / n, 1.0, 11):
                assert saturation_gap(n, float(g)) <= 1e-9


class TestSweepRandom:
    def test_margins_nonnegative(self):
        points, min_margin = sweep_random(2, trials=25, seed=0)
        assert len(points) == 25
        assert min_margin >= -1e-9
        assert min_margin == min(p.margin for p in points)

    def test_injected_attack_is_evaluated(self, monkeypatch):
        injected = probabilistic_attack(2, 0.5)
        last_seed = trial_seed(0, 9)
        monkeypatch.setattr(
            "qdecoy.tradeoff.random_attack",
            lambda n, seed=0: injected if seed == last_seed else random_attack(n, seed=seed),
        )
        points, min_margin = sweep_random(2, trials=10, seed=0)
        last = points[-1]
        assert last.source == "prob(n=2,p=0.5)"
        assert_allclose(last.g, 0.75, rtol=0, atol=1e-12)
        assert_allclose(last.d, 0.125, rtol=0, atol=1e-12)
        assert last.margin > 0.05
        assert min_margin >= -1e-9

    def test_deterministic(self):
        ops_a, ops_b = [], []
        a = sweep_random(3, trials=8, seed=42, check=lambda m, p: ops_a.append(m.ops))
        b = sweep_random(3, trials=8, seed=42, check=lambda m, p: ops_b.append(m.ops))
        assert a == b
        for ma, mb in zip(ops_a, ops_b, strict=True):
            assert_array_equal(ma, mb)
        c = sweep_random(3, trials=8, seed=43)
        assert c[0] != a[0]

    def test_trial_seeds_are_frozen(self):
        # the per-trial stream: SeedSequence(entropy=[seed, t]), first uint64 word
        assert [trial_seed(7, t) for t in range(3)] == [
            16920295385781661272,
            6635463128224577688,
            18279110831140952437,
        ]
        points, _ = sweep_random(2, trials=3, seed=7)
        for t, p in enumerate(points):
            assert p == attack_point(random_attack(2, seed=trial_seed(7, t)))

    def test_check_sees_the_first_attacks_with_their_points(self):
        for trials in (2, 12):
            seen = []
            points, _ = sweep_random(2, trials=trials, seed=7, check=lambda m, p: seen.append((m.ops.copy(), p)))
            assert len(seen) == min(trials, 10)
            for t, (ops, p) in enumerate(seen):
                assert_array_equal(ops, random_attack(2, seed=trial_seed(7, t)).ops)
                assert p is points[t]

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
        bad = GeneralizedMeasurement([np.sqrt(1.1) * np.eye(2, dtype=complex)], descriptor="corrupt")
        monkeypatch.setattr("qdecoy.tradeoff.random_attack", lambda n, seed=0: bad)
        with pytest.raises(BoundViolation, match="corrupt"):
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
        _, min_margin = sweep_random(2, trials=3, seed=0)
        assert min_margin == -1e-10

    def test_argument_guards(self):
        with pytest.raises(ValueError):
            sweep_random(1, trials=5)
        with pytest.raises(ValueError):
            sweep_random(2, trials=0)


class TestSearchConstraints:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equality_jacobian_matches_central_differences(self, n):
        eq, _ = _constraints(n, 0.5 * (1.0 / n + 1.0))
        rng = np.random.default_rng(n)
        h = 1e-6
        for _ in range(5):
            x = rng.uniform(0.0, 1.0, n * n)
            steps = h * np.eye(n * n)
            central = np.array([(eq["fun"](x + s) - eq["fun"](x - s)) / (2 * h) for s in steps]).T
            assert eq["jac"](x).shape == (n + 1, n * n)
            assert np.max(np.abs(eq["jac"](x) - central)) <= 1e-6

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_constraint_values_match_their_definitions(self, n):
        g = 0.5 * (1.0 / n + 1.0)
        eq, guess = _constraints(n, g)
        assert (eq["type"], guess["type"]) == ("eq", "ineq")
        a = np.random.default_rng(10 + n).uniform(0.0, 1.0, (n, n))
        x = a.ravel()
        want_eq = [float((a[j] ** 2).sum()) - 1.0 for j in range(n)]
        want_eq.append(float(sum(a[r, r] ** 2 for r in range(n))) - n * g)
        assert_allclose(eq["fun"](x), want_eq, rtol=0, atol=1e-14)
        want_guess = [a[r, r] - a[j, r] for r in range(n) for j in range(n) if j != r]
        assert_allclose(guess["fun"](x), want_guess, rtol=0, atol=1e-15)
        jac = guess["jac"](x)
        assert jac.shape == (n * (n - 1), n * n)
        assert_array_equal(jac @ x, guess["fun"](x))
        assert_array_equal(guess["jac"](np.zeros(n * n)), jac)

    def test_slsqp_gets_two_constraints_with_jacobians(self, monkeypatch):
        from scipy import optimize

        seen = []
        minimize = optimize.minimize

        def spy(*args, **kwargs):
            seen.append(kwargs["constraints"])
            return minimize(*args, **kwargs)

        monkeypatch.setattr("scipy.optimize.minimize", spy)
        optimize_attack(4, 0.625, restarts=2, seed=0)
        assert len(seen) == 2
        for cons in seen:
            assert [c["type"] for c in cons] == ["eq", "ineq"]
            assert all(callable(c["jac"]) for c in cons)


class TestOptimizeAttack:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_reaches_bound_at_mid_g(self, n):
        g = 0.5 * (1.0 / n + 1.0)
        point, m = optimize_attack(n, g, restarts=4, seed=0)
        assert abs(point.d - disturbance_bound(g, n)) <= 1e-9
        assert_allclose(point.g, g, rtol=0, atol=1e-9)
        m.validate()

    def test_rediscovers_bound_midrange(self):
        point, m = optimize_attack(2, 0.75, restarts=4, seed=0)
        bound = disturbance_bound(0.75, 2)
        assert abs(point.d - bound) <= 5e-4
        assert point.d >= bound - 1e-9
        assert_allclose(point.g, 0.75, rtol=0, atol=1e-9)
        assert point.source == "optimized(n=2,g=0.75,seed=0)"
        m.validate()

    def test_lower_endpoint(self):
        point, _ = optimize_attack(2, 0.5, restarts=4, seed=0)
        assert point.d <= 5e-4
        assert point.d >= -1e-9

    def test_projection_makes_iteration_limited_restarts_feasible(self, monkeypatch):
        # near g = 1/n SLSQP exhausts its iterations; only _polish makes the grid feasible
        from scipy import optimize

        statuses = []
        minimize = optimize.minimize

        def spy(*args, **kwargs):
            res = minimize(*args, **kwargs)
            statuses.append(res.status)
            return res

        monkeypatch.setattr("scipy.optimize.minimize", spy)
        point, m = optimize_attack(5, 0.201, restarts=1, seed=0)
        assert statuses == [9]  # SciPy's SLSQP status for "Iteration limit reached"
        assert_allclose(point.g, 0.201, rtol=0, atol=1e-9)
        assert point.margin >= -1e-9
        m.validate()

    def test_a_restart_may_leave_an_outcome_without_weight(self, monkeypatch):
        # outcome 1 of this feasible grid never fires: the attack keeps outcomes 0 and 2
        grid = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        monkeypatch.setattr(tradeoff, "_search_once", lambda n, g, iters, rng: grid)
        point, m = optimize_attack(3, 2 / 3, restarts=1, seed=0)
        assert len(m.ops) == 2
        assert_allclose(point.g, 2 / 3, rtol=0, atol=1e-12)
        assert_allclose(point.d, 2 / 9, rtol=0, atol=1e-12)
        m.validate()

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
