"""Tests for the Monte Carlo decoy protocol simulator."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qdecoy.attacks import (
    GeneralizedMeasurement,
    identity_attack,
    optimal_attack,
    probabilistic_attack,
    projective_attack,
    random_attack,
)
from qdecoy.ensembles import pairing_ensemble
from qdecoy.metrics import estimation_fidelity, induced_fidelity, induced_fidelity_closed
from qdecoy.protocol import (
    SimReport,
    _pair_tables,
    _sample_outcomes,
    run_protocol,
)


def _sample_rows(table, rows, u):
    """Reference sampler: gathers a (trials, K) table of rows and counts u > cumsum."""
    probs = table[rows]
    probs = probs / probs.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)
    return np.minimum((u[:, None] > cum).sum(axis=1), table.shape[1] - 1)


def _uniforms_on_entries(table):
    """Every row once per CDF entry, with u on that entry, at 0 and just above the last entry."""
    cum = np.cumsum(table / table.sum(axis=1, keepdims=True), axis=1)
    rows = np.repeat(np.arange(table.shape[0]), cum.shape[1] + 2)
    u = np.concatenate([np.concatenate([[0.0], c, [np.nextafter(c[-1], 2.0)]]) for c in cum])
    return rows, u


def _sampler_attacks():
    for n in range(2, 9):
        yield identity_attack(n)
        yield projective_attack(n)
        for g in (1.0 / n, 0.5 * (1.0 + 1.0 / n), 1.0):
            yield optimal_attack(n, g)
        for p in (0.0, 0.3, 1.0):
            yield probabilistic_attack(n, p)
        for k in (1, n, n * n, n * n + 3):
            yield random_attack(n, outcomes=k, seed=n + k)


class TestSampler:
    def test_matches_reference_on_every_family(self):
        rng = np.random.default_rng(0)
        for m in _sampler_attacks():
            p_msg, p_decoy, _ = _pair_tables(m)
            for table in (p_msg, p_decoy):
                rows = rng.integers(0, table.shape[0], size=1500)
                u = rng.random(1500)
                np.testing.assert_array_equal(
                    _sample_outcomes(table, rows, u), _sample_rows(table, rows, u), err_msg=m.descriptor
                )

    def test_uniforms_on_cdf_entries(self):
        # u equal to a CDF entry is where "count of entries below u" is decided by ties
        for m in _sampler_attacks():
            for table in _pair_tables(m)[:2]:
                rows, u = _uniforms_on_entries(table)
                np.testing.assert_array_equal(
                    _sample_outcomes(table, rows, u), _sample_rows(table, rows, u), err_msg=m.descriptor
                )

    def test_outcome_counts_around_powers_of_two(self):
        # the search halves K each step; odd and power-of-two K end their last steps differently
        rng = np.random.default_rng(3)
        for k in (1, 2, 3, 4, 5, 8, 9):
            table = rng.random((6, k))
            if k > 1:
                table[1, 0] = 0.0
                table[2, -1] = 0.0
            for rows, u in (_uniforms_on_entries(table), (rng.integers(0, 6, 4000), rng.random(4000))):
                got = _sample_outcomes(table, rows, u)
                np.testing.assert_array_equal(got, _sample_rows(table, rows, u), err_msg=f"K = {k}")
                assert got.min() >= 0 and got.max() <= k - 1

    def test_cdf_ending_below_one_clamps_to_last_outcome(self):
        # 21 equal entries cumulate to 1 - 7e-16; a uniform above that is outcome K - 1, not K
        table = np.full((1, 21), 1.0 / 21)
        last = np.cumsum(table[0] / table[0].sum())[-1]
        assert last < 1.0
        u = np.array([np.nextafter(last, 1.0), 1.0 - 2.0**-53])
        rows = np.zeros(2, dtype=np.intp)
        np.testing.assert_array_equal(_sample_outcomes(table, rows, u), [20, 20])
        np.testing.assert_array_equal(_sample_outcomes(table, rows, u), _sample_rows(table, rows, u))
        # the same row followed by zeros: the clamp lands where the reference's does
        table = np.concatenate([table, np.zeros((1, 3))], axis=1)
        rows, u = _uniforms_on_entries(table)
        np.testing.assert_array_equal(_sample_outcomes(table, rows, u), _sample_rows(table, rows, u))

    def test_zero_probability_runs_at_head_and_tail(self):
        # zero entries repeat a CDF value; a uniform in (0, 1) never lands inside a run
        table = np.array(
            [
                [0.0, 0.0, 0.0, 0.25, 0.75, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                [0.0, 0.5, 0.0, 0.0, 0.0, 0.5, 0.0],
            ]
        )
        rows, u = _uniforms_on_entries(table)
        rng = np.random.default_rng(5)
        rows = np.concatenate([rows, rng.integers(0, table.shape[0], 3000)])
        u = np.concatenate([u, rng.random(3000)])
        got = _sample_outcomes(table, rows, u)
        np.testing.assert_array_equal(got, _sample_rows(table, rows, u))
        inside = (u > 0) & (u < 1)
        assert np.all(table[rows[inside], got[inside]] > 0)

    def test_memory_is_tables_plus_a_few_arrays_per_trial(self):
        # no (trials, K) or (trials, log K) array: two tables and 48 bytes a trial at most
        rng = np.random.default_rng(6)
        table = rng.random((256, 256))
        rows = rng.integers(0, 256, 200000)
        u = rng.random(200000)
        _sample_outcomes(table, rows[:10], u[:10])
        tracemalloc.start()
        try:
            _sample_outcomes(table, rows, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * table.nbytes + 48 * rows.size

    def test_rows_past_sixteen_bit_keys(self):
        # more rows than a 16-bit index holds; the flat CDF has 210000 entries
        rng = np.random.default_rng(2)
        table = rng.random((70000, 3))
        rows = np.concatenate([[0, 65535, 65536, 69999], rng.integers(0, table.shape[0], size=5000)])
        u = rng.random(rows.size)
        np.testing.assert_array_equal(_sample_outcomes(table, rows, u), _sample_rows(table, rows, u))

    def test_single_row(self):
        rng = np.random.default_rng(1)
        for m in (projective_attack(3), random_attack(4, seed=2), optimal_attack(2, 0.75)):
            p_msg, p_decoy, _ = _pair_tables(m)
            for probs in (*p_msg, *p_decoy):
                for u in rng.random((4, 1)):
                    got = _sample_outcomes(probs[None, :], np.array([0]), u)
                    assert got.shape == (1,)
                    assert got[0] == _sample_rows(probs[None, :], np.array([0]), u)[0]


class TestRunProtocol:
    def test_identity_never_detected(self):
        rep = run_protocol(4, identity_attack(4), shots=20000, seed=3)
        assert rep.d_hat == 0.0
        assert rep.d_analytic == 0.0
        assert rep.g_analytic == 0.25
        assert rep.g_within_4se
        assert rep.message_trials + rep.decoy_trials == 20000

    def test_projective_always_guesses(self):
        rep = run_protocol(2, projective_attack(2), shots=20000, seed=1)
        assert rep.g_hat == 1.0
        assert rep.d_analytic == 0.25
        assert rep.d_within_4se
        assert abs(rep.d_hat - 0.25) < 0.02

    def test_saturating_attack_flags(self):
        m = optimal_attack(4, 0.5)
        for seed in range(4):
            rep = run_protocol(4, m, shots=20000, seed=seed)
            assert rep.g_within_4se
            assert rep.d_within_4se

    def test_deterministic(self):
        m = probabilistic_attack(3, 0.4)
        a = run_protocol(3, m, shots=5000, seed=11)
        b = run_protocol(3, m, shots=5000, seed=11)
        assert a == b
        c = run_protocol(3, m, shots=5000, seed=12)
        assert c != a

    def test_sample_bob_mode(self):
        m = optimal_attack(4, 0.5)
        exact = run_protocol(4, m, shots=20000, seed=0)
        sampled = run_protocol(4, m, shots=20000, seed=0, sample_bob=True)
        assert sampled.sample_bob and not exact.sample_bob
        assert sampled.d_within_4se
        assert sampled.d_hat != exact.d_hat
        # sampled detections are bits, so the mean is a multiple of 1/trials
        assert (sampled.d_hat * sampled.decoy_trials) % 1 == pytest.approx(0, abs=1e-9)

    def test_decoy_fraction_extremes(self):
        m = projective_attack(2)
        only_decoys = run_protocol(2, m, shots=500, decoy_fraction=1.0, seed=0)
        assert only_decoys.g_hat is None
        assert only_decoys.g_within_4se is None
        assert only_decoys.message_trials == 0
        assert only_decoys.d_hat is not None
        only_messages = run_protocol(2, m, shots=500, decoy_fraction=0.0, seed=0)
        assert only_messages.d_hat is None
        assert only_messages.decoy_trials == 0
        assert only_messages.g_hat == 1.0

    def test_analytics_match_ensemble_metrics(self):
        # the O(K n^2) pair tables must agree with the ensemble definitions
        for n in (2, 3):
            attacks = [
                random_attack(n, seed=0),
                optimal_attack(n, 0.7),
                probabilistic_attack(n, 0.3),
            ]
            for m in attacks:
                rep = run_protocol(n, m, shots=10, seed=0)
                g_def, _ = estimation_fidelity(m)
                d_def = 1.0 - induced_fidelity(m, pairing_ensemble(n))
                assert_allclose(rep.g_analytic, g_def, rtol=0, atol=1e-12)
                assert_allclose(rep.d_analytic, d_def, rtol=0, atol=1e-12)
                d_closed = 1.0 - induced_fidelity_closed(m.ops)
                assert_allclose(rep.d_analytic, d_closed, rtol=0, atol=1e-15)

    def test_seeded_report_pinned(self):
        # recorded from the shots x K sampler this one replaced; the random stream is unchanged
        rep = run_protocol(16, random_attack(16, seed=1), 100000, seed=1)
        assert rep == SimReport(
            n=16,
            shots=100000,
            decoy_fraction=0.5,
            seed=1,
            attack_descriptor="random(n=16,k=256,seed=1)",
            sample_bob=False,
            message_trials=49950,
            decoy_trials=50050,
            g_hat=0.09293293293293294,
            g_se=0.0012990826278040132,
            g_analytic=0.09323157539571354,
            g_within_4se=True,
            d_hat=0.9383213110897202,
            d_se=0.0010753288951102895,
            d_analytic=0.937611419932862,
            d_within_4se=True,
        )

    def test_seeded_sampled_report_pinned(self):
        # recorded from the per-row sampler: K = 27 is not a power of two, and Bob's bit is sampled
        rep = run_protocol(
            5, random_attack(5, outcomes=27, seed=3), 30000, decoy_fraction=0.3, seed=7, sample_bob=True
        )
        assert rep == SimReport(
            n=5,
            shots=30000,
            decoy_fraction=0.3,
            seed=7,
            attack_descriptor="random(n=5,k=27,seed=3)",
            sample_bob=True,
            message_trials=21038,
            decoy_trials=8962,
            g_hat=0.32336724023196123,
            g_se=0.003224944871721891,
            g_analytic=0.3187250334289836,
            g_within_4se=True,
            d_hat=0.8052889979915198,
            d_se=0.004182815020775933,
            d_analytic=0.8022734730006871,
            d_within_4se=True,
        )

    def test_memory_does_not_scale_with_shots_times_outcomes(self):
        # K = 256: a (shots, K) float table alone would be 390 MiB at 2e5 shots
        m = random_attack(16, seed=1)
        tracemalloc.start()
        try:
            run_protocol(16, m, 200000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_incomplete_attack_rejected(self):
        bad = GeneralizedMeasurement([0.9 * np.eye(2, dtype=complex)], descriptor="corrupt")
        with pytest.raises(ValueError, match="not complete"):
            run_protocol(2, bad, shots=10, seed=0)

    def test_completeness_tolerance_is_default_tol(self):
        # level 0's outcome probabilities sum to 1 + excess: within DEFAULT_TOL = 1e-9 it runs
        for excess, ok in ((5e-10, True), (2e-9, False)):
            m = GeneralizedMeasurement([np.diag([np.sqrt(1.0 + excess), 1.0]).astype(complex)])
            if ok:
                assert run_protocol(2, m, shots=10, seed=0).shots == 10
            else:
                with pytest.raises(ValueError, match="not complete"):
                    run_protocol(2, m, shots=10, seed=0)

    def test_pair_tables_match_decoy_states(self):
        # every table entry from its definition on the decoy ket
        for m in (random_attack(3, outcomes=4, seed=2), probabilistic_attack(3, 0.3)):
            n = m.dim
            p_msg, p_decoy, amp = _pair_tables(m)
            for r, op in enumerate(m.ops):
                gram = op.conj().T @ op
                assert_allclose(p_msg[:, r], np.diag(gram).real, rtol=0, atol=1e-15)
                for j, k in np.ndindex(n, n):
                    ket = pairing_ensemble(n).items[j * n + k][1]
                    want_p = (ket.conj() @ gram @ ket).real
                    assert_allclose(p_decoy[j * n + k, r], want_p, rtol=0, atol=1e-15)
                    assert_allclose(amp[j * n + k, r], ket.conj() @ op @ ket, rtol=0, atol=1e-15)

    def test_argument_guards(self):
        m = identity_attack(2)
        with pytest.raises(ValueError):
            run_protocol(1, identity_attack(2), shots=10)
        with pytest.raises(ValueError):
            run_protocol(3, m, shots=10)
        with pytest.raises(ValueError):
            run_protocol(2, m, shots=0)
        with pytest.raises(ValueError):
            run_protocol(2, m, shots=10, decoy_fraction=1.5)
        with pytest.raises(ValueError):
            run_protocol(2, m, shots=10, decoy_fraction=-0.1)
