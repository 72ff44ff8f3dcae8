"""Tests for the Monte Carlo decoy protocol simulator."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qdecoy import linalg, protocol
from qdecoy.attacks import (
    identity_attack,
    optimal_attack,
    parse_descriptor,
    probabilistic_attack,
    projective_attack,
    random_attack,
)
from qdecoy.ensembles import pairing_ensemble
from qdecoy.metrics import estimation_fidelity, induced_fidelity, induced_fidelity_closed
from qdecoy.protocol import (
    SimReport,
    _cells,
    _multinomial_rows,
    _pair_tables,
    _sample_outcomes,
    run_protocol,
)
from qdecoy.tradeoff import attack_point


def _sample_rows(table, rows, u):
    """Reference sampler: gathers a (trials, K) table of rows and counts the CDF entries <= u.

    Each CDF is 1.0 from its row's last positive outcome on, so an outcome of
    probability zero is never drawn and no count reaches K for u < 1.
    """
    probs = table[rows]
    probs = probs / probs.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)
    k = table.shape[1]
    last = k - 1 - np.argmax(probs[:, ::-1] > 0, axis=1)
    cum[np.arange(k) >= last[:, None]] = 1.0
    return (u[:, None] >= cum).sum(axis=1)


def _uniforms_on_entries(table):
    """Every row at u = 0, on and just above each CDF entry below 1, and at the largest uniform.

    Only values a uniform in [0, 1) can take are kept.
    """
    cum = np.cumsum(table / table.sum(axis=1, keepdims=True), axis=1)
    rows, u = [], []
    for i, c in enumerate(cum):
        row_u = np.concatenate([[0.0], c, np.nextafter(c, 2.0), [1.0 - 2.0**-53]])
        row_u = row_u[row_u < 1.0]
        rows.append(np.full(row_u.size, i))
        u.append(row_u)
    return np.concatenate(rows), np.concatenate(u)


def _assert_no_zero_outcome(table, rows, u, got):
    """No uniform in [0, 1) lands on an outcome of probability zero."""
    assert np.all((u >= 0.0) & (u < 1.0))
    assert np.all(table[rows, got] > 0)


def _tables(m):
    """p_msg, p_decoy, w and F as run_protocol builds them: p_msg is estimation_fidelity's table, transposed."""
    d = np.empty(m.ops.shape[:2])
    estimation_fidelity(m, out=d)
    return (d.T, *_pair_tables(m.ops, d))


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
            p_msg, p_decoy, *_ = _tables(m)
            for table in (p_msg, p_decoy):
                rows = rng.integers(0, table.shape[0], size=1500)
                u = rng.random(1500)
                np.testing.assert_array_equal(
                    _sample_outcomes(table, rows, u), _sample_rows(table, rows, u), err_msg=m.descriptor
                )

    def test_uniforms_on_cdf_entries(self):
        # u equal to a CDF entry is where "count of entries <= u" is decided by ties
        for m in _sampler_attacks():
            for table in _tables(m)[:2]:
                rows, u = _uniforms_on_entries(table)
                got = _sample_outcomes(table, rows, u)
                np.testing.assert_array_equal(got, _sample_rows(table, rows, u), err_msg=m.descriptor)
                _assert_no_zero_outcome(table, rows, u, got)

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
                _assert_no_zero_outcome(table, rows, u, got)

    def test_cdf_ending_below_one_clamps_to_last_outcome(self):
        # 21 equal entries cumulate to 1 - 7e-16; a uniform above that is outcome K - 1, not K
        table = np.full((1, 21), 1.0 / 21)
        last = np.cumsum(table[0] / table[0].sum())[-1]
        assert last < 1.0
        u = np.array([np.nextafter(last, 1.0), 1.0 - 2.0**-53])
        rows = np.zeros(2, dtype=np.intp)
        np.testing.assert_array_equal(_sample_outcomes(table, rows, u), [20, 20])
        np.testing.assert_array_equal(_sample_outcomes(table, rows, u), _sample_rows(table, rows, u))
        # the same row followed by zeros: the last positive outcome, never a zero one after it
        table = np.concatenate([table, np.zeros((1, 3))], axis=1)
        np.testing.assert_array_equal(_sample_outcomes(table, rows, u), [20, 20])
        rows, u = _uniforms_on_entries(table)
        got = _sample_outcomes(table, rows, u)
        np.testing.assert_array_equal(got, _sample_rows(table, rows, u))
        _assert_no_zero_outcome(table, rows, u, got)

    def test_zero_probability_runs_at_head_and_tail(self):
        # zero entries repeat a CDF value; no uniform in [0, 1), 0 itself included, lands on one
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
        _assert_no_zero_outcome(table, rows, u, got)
        np.testing.assert_array_equal(_sample_outcomes(table, np.arange(4), np.zeros(4)), [3, 6, 0, 1])

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
            p_msg, p_decoy, *_ = _tables(m)
            for probs in (*p_msg, *p_decoy):
                for u in rng.random((4, 1)):
                    got = _sample_outcomes(probs[None, :], np.array([0]), u)
                    assert got.shape == (1,)
                    assert got[0] == _sample_rows(probs[None, :], np.array([0]), u)[0]


def _row_counts(table, trials, seeds):
    """Outcome counts per row of `table`, summed over one `_cells` pass per seed."""
    total = np.zeros(table.shape, dtype=np.int64)
    for seed in seeds:
        for rows, r, count in _cells(np.random.default_rng(seed), table, trials):
            np.add.at(total, (rows, r), count)
    return total


class TestCountSampler:
    # row 0 is dense (40 trials per outcome), row 1 sparse (5 trials over K = 8), row 2 empty
    TABLE = np.array(
        [
            [0.05, 0.1, 0.0, 0.2, 0.15, 0.3, 0.2, 0.0],
            [0.3, 0.0, 0.05, 0.15, 0.1, 0.0, 0.25, 0.15],
            [0.125] * 8,
        ]
    )
    TRIALS = np.array([320, 5, 0])

    def test_row_counts_follow_row_probabilities(self):
        # chi-square over the outcomes of positive probability, summed over 300 fixed seeds
        from scipy.stats import chi2

        counts = _row_counts(self.TABLE, self.TRIALS, range(300))
        assert counts[2].sum() == 0
        for row in (0, 1):
            p = self.TABLE[row]
            assert counts[row].sum() == 300 * self.TRIALS[row]
            assert np.all(counts[row][p == 0] == 0)
            want = counts[row].sum() * p[p > 0]
            stat = float(np.sum((counts[row][p > 0] - want) ** 2 / want))
            assert chi2.sf(stat, df=int(np.count_nonzero(p)) - 1) > 1e-4, (row, stat)

    def test_zero_probability_cells_never_filled_by_the_multinomial(self):
        # zero runs at the head, in the middle and at the tail, where numpy's
        # multinomial hands its remainder; row 0 sits at the threshold, K trials
        table = np.array(
            [
                [0.0, 0.0, 0.0, 0.25, 0.75, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                [0.0, 0.5, 0.0, 0.0, 0.0, 0.5, 0.0],
                [1.0 / 3.0, 0.0, 1.0 / 3.0, 0.0, 1.0 / 3.0, 0.0, 0.0],
                # numpy's chain leaves ~1e-12 of this row's mass after outcome 3
                [1.42038203e-01, 1.69490369e-01, 6.88433428e-01, 3.79999702e-05, 0.0, 0.0, 0.0],
            ]
        )
        trials = np.array([7, 10**6, 10**9, 999, 10**12, 10**18])
        for seed in range(50):
            p = table / table.sum(axis=1, keepdims=True)
            got = _multinomial_rows(np.random.default_rng(seed), trials, p)
            np.testing.assert_array_equal(got.sum(axis=1), trials)
            assert np.all(got[table == 0] == 0)
            placed = np.zeros(len(table), dtype=np.int64)
            for rows, r, count in _cells(np.random.default_rng(seed), table, trials):
                assert np.all(table[rows, r] > 0)
                np.add.at(placed, rows, count)
            np.testing.assert_array_equal(placed, trials)

    def test_one_run_takes_both_row_paths(self, monkeypatch):
        # at 1e5 shots and K = 256 the 16 message rows hold ~3125 trials each
        # (multinomial) and the 256 decoy rows ~195 each (binary search)
        calls = {"multinomial": 0, "search": 0}

        def spy(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)

            return wrapped

        monkeypatch.setattr(protocol, "_multinomial_rows", spy("multinomial", protocol._multinomial_rows))
        monkeypatch.setattr(protocol, "_sample_outcomes", spy("search", protocol._sample_outcomes))
        rep = run_protocol(random_attack(16, seed=1), 100000, seed=1)
        assert calls["multinomial"] >= 1 and calls["search"] >= 1
        assert rep.g_within_4se and rep.d_within_4se

    @pytest.mark.parametrize("sample_bob", [False, True])
    def test_z_scores_over_seeds(self, sample_bob):
        # K = 128 at 3000 shots: ~94 trials per decoy row and ~375 per word, so
        # the decoy rows go through the search and the words through the multinomial
        m = random_attack(4, outcomes=128, seed=5)
        zg, zd = [], []
        for seed in range(240):
            rep = run_protocol(m, 3000, seed=seed, sample_bob=sample_bob)
            g, d = rep.g_analytic, rep.d_analytic
            zg.append((rep.g_hat - g) / np.sqrt(g * (1 - g) / rep.message_trials))
            zd.append((rep.d_hat - d) / np.sqrt(d * (1 - d) / rep.decoy_trials))
        zg, zd = np.array(zg), np.array(zd)
        # the mean of 240 unit-variance scores is within 4 / sqrt(240) = 0.26 of 0
        assert abs(zg.mean()) < 0.26 and abs(zd.mean()) < 0.26
        assert 0.8 < zg.std() < 1.2
        if sample_bob:
            assert 0.8 < zd.std() < 1.2
        else:
            # the exact conditional score has less variance than the receiver's bit
            assert zd.std() < 0.9

    def test_scored_d_se_is_the_spread_of_d_hat(self):
        # the scored d_se is the standard error of the mean detection score; the
        # binomial one of the receiver's bit is about 5x the spread on this attack
        m = optimal_attack(4, 0.5)
        reps = [run_protocol(m, 20000, seed=seed) for seed in range(200)]
        spread = np.std([r.d_hat for r in reps])
        assert 0.8 <= spread / np.median([r.d_se for r in reps]) <= 1.25

    def test_memory_does_not_grow_with_shots(self):
        m = random_attack(16, seed=1)
        run_protocol(m, 10, seed=0)
        peaks = []
        for shots in (10**5, 10**8):
            tracemalloc.start()
            try:
                run_protocol(m, shots, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 2**20, peaks


class TestRunProtocol:
    def test_identity_never_detected(self):
        rep = run_protocol(identity_attack(4), shots=20000, seed=3)
        assert rep.d_hat == 0.0
        assert rep.d_analytic == 0.0
        assert rep.g_analytic == 0.25
        assert rep.g_within_4se
        assert rep.message_trials + rep.decoy_trials == 20000

    def test_projective_always_guesses(self):
        rep = run_protocol(projective_attack(2), shots=20000, seed=1)
        assert rep.g_hat == 1.0
        assert rep.d_analytic == 0.25
        assert rep.d_within_4se
        assert abs(rep.d_hat - 0.25) < 0.02

    def test_saturating_attack_flags(self):
        m = optimal_attack(4, 0.5)
        for seed in range(4):
            rep = run_protocol(m, shots=20000, seed=seed)
            assert rep.g_within_4se
            assert rep.d_within_4se

    def test_deterministic(self):
        m = probabilistic_attack(3, 0.4)
        a = run_protocol(m, shots=5000, seed=11)
        b = run_protocol(m, shots=5000, seed=11)
        assert a == b
        c = run_protocol(m, shots=5000, seed=12)
        assert c != a

    def test_sample_bob_mode(self):
        m = optimal_attack(4, 0.5)
        exact = run_protocol(m, shots=20000, seed=0)
        sampled = run_protocol(m, shots=20000, seed=0, sample_bob=True)
        assert sampled.sample_bob and not exact.sample_bob
        assert sampled.d_within_4se
        assert sampled.d_hat != exact.d_hat
        # sampled detections are bits, so the mean is a multiple of 1/trials
        assert (sampled.d_hat * sampled.decoy_trials) % 1 == pytest.approx(0, abs=1e-9)

    def test_decoy_fraction_extremes(self):
        m = projective_attack(2)
        only_decoys = run_protocol(m, shots=500, decoy_fraction=1.0, seed=0)
        assert only_decoys.g_hat is None
        assert only_decoys.g_within_4se is None
        assert only_decoys.message_trials == 0
        assert only_decoys.d_hat is not None
        only_messages = run_protocol(m, shots=500, decoy_fraction=0.0, seed=0)
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
                rep = run_protocol(m, shots=10, seed=0)
                g_def, _ = estimation_fidelity(m)
                d_def = 1.0 - induced_fidelity(m, pairing_ensemble(n))
                assert_allclose(rep.g_analytic, g_def, rtol=0, atol=1e-12)
                assert_allclose(rep.d_analytic, d_def, rtol=0, atol=1e-12)
                assert rep.d_analytic == 1.0 - induced_fidelity_closed(m.ops)

    def test_seeded_report_pinned(self):
        # recorded from the count sampler (stream 0.2.0, unchanged in 0.2.1): dense message rows, sparse decoy rows;
        # d_se is the scored standard error since 0.5.0
        rep = run_protocol(random_attack(16, seed=1), 100000, seed=1)
        assert rep == SimReport(
            n=16,
            shots=100000,
            decoy_fraction=0.5,
            seed=1,
            attack_descriptor="random(n=16,k=256,seed=1)",
            sample_bob=False,
            message_trials=50094,
            decoy_trials=49906,
            g_hat=0.09520102207849243,
            g_se=0.0013113058553012335,
            g_analytic=0.09323157539571354,
            g_within_4se=True,
            d_hat=0.9376076912342312,
            d_se=0.00026243724864179706,
            d_analytic=0.937611419932862,
            d_within_4se=True,
        )

    def test_seeded_sampled_report_pinned(self):
        # recorded from the count sampler (stream 0.2.0, unchanged in 0.2.1): K = 27 is not a power of
        # two, and Bob's bit is sampled
        rep = run_protocol(random_attack(5, outcomes=27, seed=3), 30000, decoy_fraction=0.3, seed=7, sample_bob=True)
        assert rep == SimReport(
            n=5,
            shots=30000,
            decoy_fraction=0.3,
            seed=7,
            attack_descriptor="random(n=5,k=27,seed=3)",
            sample_bob=True,
            message_trials=21011,
            decoy_trials=8989,
            g_hat=0.3206415687021084,
            g_se=0.0032198529332012134,
            g_analytic=0.3187250334289836,
            g_within_4se=True,
            d_hat=0.8037601512960285,
            d_se=0.004188911118451177,
            d_analytic=0.8022734730006871,
            d_within_4se=True,
        )

    def test_memory_does_not_scale_with_shots_times_outcomes(self):
        # K = 256: a (shots, K) float table alone would be 390 MiB at 2e5 shots
        m = random_attack(16, seed=1)
        tracemalloc.start()
        try:
            run_protocol(m, 200000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_pair_tables_match_decoy_states(self):
        # every table entry from its definition on the decoy ket
        for m in (random_attack(3, outcomes=4, seed=2), probabilistic_attack(3, 0.3)):
            n = m.dim
            p_msg, p_decoy, weights, f = _tables(m)
            for r, op in enumerate(m.ops):
                gram = op.conj().T @ op
                assert_allclose(p_msg[:, r], np.diag(gram).real, rtol=0, atol=1e-15)
                for j, k in np.ndindex(n, n):
                    ket = pairing_ensemble(n).kets[j * n + k]
                    want_p = (ket.conj() @ gram @ ket).real
                    assert_allclose(p_decoy[j * n + k, r], want_p, rtol=0, atol=1e-15)
                    assert_allclose(weights[j * n + k, r], abs(ket.conj() @ op @ ket) ** 2, rtol=0, atol=1e-15)
            assert f == induced_fidelity_closed(m.ops)

    @pytest.mark.parametrize("outcomes", [None, 3])
    def test_blocked_tables_equal_the_whole_stack_tables(self, outcomes, monkeypatch):
        # bit for bit the tables of the whole stack at once: p_msg is the
        # diagonal-weight sum G is read from, p_decoy the real-product formula;
        # both within 1e-15 of the complex Gram product A_r†A_r
        for m in _sampler_attacks():
            a = m.ops
            k, n, _ = a.shape
            idx = np.arange(n)
            if outcomes:
                monkeypatch.setattr(linalg, "BLOCK_BYTES", outcomes * 128 * n * n)
            d = np.einsum("rij,rij->rj", a.conj(), a).real
            prod = a.real.transpose(0, 2, 1) @ a.imag
            pd = 0.5 * (d[:, :, None] + d[:, None, :]) - (prod - prod.transpose(0, 2, 1))
            pd[:, idx, idx] = d
            p_msg, p_decoy, *_ = _tables(m)
            np.testing.assert_array_equal(p_msg, d.T, err_msg=m.descriptor)
            np.testing.assert_array_equal(p_decoy, pd.reshape(k, n * n).T, err_msg=m.descriptor)
            gram = a.conj().transpose(0, 2, 1) @ a
            dg = np.einsum("rjj->rj", gram).real
            pd = 0.5 * (dg[:, :, None] + dg[:, None, :]) - gram.imag
            pd[:, idx, idx] = dg
            assert_allclose(p_msg, dg.T, rtol=0, atol=1e-15, err_msg=m.descriptor)
            assert_allclose(p_decoy, pd.reshape(k, n * n).T, rtol=0, atol=1e-15, err_msg=m.descriptor)

    def test_message_rows_are_sampled_from_estimation_fidelitys_table(self, monkeypatch):
        # one G evaluation per run, and its diagonal weights are the message table itself
        outs, tables = [], []

        def spy(m, out=None):
            outs.append(out)
            return estimation_fidelity(m, out=out)

        def cells(rng, table, trials):
            tables.append(table)
            return _cells(rng, table, trials)

        monkeypatch.setattr(protocol, "estimation_fidelity", spy)
        monkeypatch.setattr(protocol, "_cells", cells)
        run_protocol(random_attack(3, seed=1), shots=2000, seed=0)
        assert len(outs) == 1 and outs[0] is not None
        assert len(tables) == 2 and tables[0].base is outs[0]
        np.testing.assert_array_equal(tables[0], outs[0].T)
        assert not np.shares_memory(tables[1], outs[0])

    def test_pair_tables_hold_no_stack_sized_temporary(self):
        # the two tables and a few block-sized temporaries (5.0 blocks
        # measured); a whole-stack real product would add a stack of reals,
        # 8 MiB here, and a complex Gram product with its conjugated operand
        # two complex stacks
        m = random_attack(32, seed=1)
        d = np.empty(m.ops.shape[:2])
        estimation_fidelity(m, out=d)
        tables = _pair_tables(m.ops, d)
        held = sum(t.nbytes for t in tables[:2])
        tracemalloc.start()
        try:
            _pair_tables(m.ops, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < held + 8 * linalg.BLOCK_BYTES // 8

    @pytest.mark.parametrize(
        "descriptor",
        [
            "random(n=24,k=24,seed=0)",
            "optimal(n=24,g=0.1375)",
            "random(n=16,k=259,seed=275)",
            "random(n=32,seed=1)",
            "projective(n=7)",
            "prob(n=5,p=0.3)",
        ],
    )
    def test_d_analytic_is_the_evaluators_d(self, descriptor):
        # simulate and verify print the same D for an attack, to the last bit
        m = parse_descriptor(descriptor)
        assert run_protocol(m, shots=10, seed=0).d_analytic == attack_point(m).d

    def test_argument_guards(self):
        m = identity_attack(2)
        with pytest.raises(ValueError):
            run_protocol(m, shots=0)
        with pytest.raises(ValueError, match="shots must lie in"):
            run_protocol(m, shots=2**63)
        assert run_protocol(m, shots=2**63 - 1).message_trials > 0
        with pytest.raises(ValueError):
            run_protocol(m, shots=10, decoy_fraction=1.5)
        with pytest.raises(ValueError):
            run_protocol(m, shots=10, decoy_fraction=-0.1)
