"""Tests for estimation fidelity, induced fidelity, and their functional forms."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from qdecoy.attacks import (
    GeneralizedMeasurement,
    diagonal_attack,
    identity_attack,
    optimal_attack,
    probabilistic_attack,
    projective_attack,
    random_attack,
)
from qdecoy.choi import ChoiState, apply_channel, choi_of_kraus
from qdecoy.ensembles import Ensemble, decoy_ket, pairing_ensemble
from qdecoy import linalg, metrics
from qdecoy.linalg import BLOCK_BYTES, herm_eig, inv_sqrt_psd, psd_check
from qdecoy.metrics import (
    estimation_fidelity,
    estimation_fidelity_functional,
    induced_fidelity,
    induced_fidelity_closed,
    induced_fidelity_functional,
)

#: off-diagonal entries above this make an outcome non-diagonal for spectral_quantities
_DIAGONAL_TOL = 1e-10


def spectral_quantities(m):
    """(g, f) for attacks with diagonal Kraus operators: the paper's diagonal-case route.

    g = sum_r |a_{j_(r) j_(r) r}|^2 and f = sum_r |sum_j a_jjr|^2, so that
    G = g/n and D = 1/2 - f/(2 n^2) hold exactly in the diagonal case.
    """
    a = m.ops
    diags = np.einsum("rjj->rj", a)
    off = np.abs(a - diags[:, :, None] * np.eye(m.dim)).reshape(len(a), -1).max(axis=1)
    bad = np.flatnonzero(off > _DIAGONAL_TOL)
    if bad.size:
        raise ValueError(
            f"outcome {bad[0]} is not diagonal; use estimation_fidelity/induced_fidelity instead"
        )
    g = float(np.sum(np.max(np.abs(diags) ** 2, axis=1)))
    f = float(np.sum(np.abs(diags.sum(axis=1)) ** 2))
    return g, f


def banaszek_bound(g, m, n):
    """Largest f compatible with spectral weight g: (sqrt(g) + sqrt((m-1)(n-g)))^2.

    Holds for any coefficient vector of norm^2 = n split over m outcomes.
    """
    if m < 1:
        raise ValueError("need at least one outcome")
    if g < 0 or g > n:
        raise ValueError(f"spectral weight {g} outside [0, {n}]")
    return float((np.sqrt(g) + np.sqrt((m - 1) * (n - g))) ** 2)


def _canonical_ensemble(n):
    """The n basis states, weight 1/n each: the message words."""
    return Ensemble(weights=np.full(n, 1.0 / n), kets=np.eye(n, dtype=complex))


def _rand_diagonal_attack(n, k, rng):
    # row j = level, column r = outcome; rows normalized for completeness
    a = np.abs(rng.normal(size=(n, k))) + 0.05
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    return diagonal_attack(a.T)


def _named_attacks(n):
    return [
        identity_attack(n),
        projective_attack(n),
        *(optimal_attack(n, g) for g in (1.0 / n, 0.5, 0.9, 1.0)),
        *(probabilistic_attack(n, p) for p in (0.0, 0.3, 1.0)),
    ]


def _dense_euro(m):
    """The dense € on the outcome-extended composite (n^2 K rows).

    € = (1/n) sum_r Id_n ⊗ |j_(r)><j_(r)| ⊗ |r><r|, with the guesses j_(r)
    from the per-outcome loop, so G = Tr(€ |w><w|) for w = sum_r vec(A_r) ⊗ |r>.
    """
    n, k = m.dim, len(m.ops)
    guesses, _ = _guesses_by_loop(m)
    euro = np.zeros((n * n * k, n * n * k))
    eye_k = np.eye(k)
    for r, j in enumerate(guesses):
        guess_proj = np.zeros((n, n))
        guess_proj[j, j] = 1.0
        euro += np.kron(np.kron(np.eye(n), guess_proj), np.outer(eye_k[r], eye_k[r]))
    return euro / n


def _beta(n):
    """Maximally entangled unit vector (1/sqrt(n)) sum_j |jj>."""
    beta = np.zeros(n * n)
    beta[np.arange(n) * n + np.arange(n)] = 1.0 / np.sqrt(n)
    return beta


def _pound_by_loop(n):
    """The dense n^2 x n^2 L with F = Tr(L $), built one singlet projector at a time.

    L = (1/2n) P_rep + (1/2n) P_beta P_rep + (1/n^2) sum_{j<k} singlet
    projectors on the nonrepeated subspace.
    """
    rep = np.arange(n) * n + np.arange(n)
    p_rep = np.zeros((n * n, n * n))
    p_rep[rep, rep] = 1.0
    beta = _beta(n)
    pound = (p_rep + np.outer(beta, beta) @ p_rep) / (2 * n)
    for j in range(n):
        for k in range(j + 1, n):
            s = np.zeros(n * n)
            s[j * n + k] = 1.0 / np.sqrt(2)
            s[k * n + j] = -1.0 / np.sqrt(2)
            pound += np.outer(s, s) / (n * n)
    return pound


def _dense_trace(m):
    """Tr(L $) over every entry of the dense L and of the attack's state operator."""
    return float(np.einsum("ij,ji->", _pound_by_loop(m.dim), choi_of_kraus(m.ops).matrix).real)


def _induced_fidelity_by_outcome(m, e):
    """The definition sum one outcome at a time, with (states, n) temporaries."""
    weights, kets = e.weights, e.kets
    bras = kets.conj()
    per_state = np.zeros(len(weights))
    for op in m.ops:
        per_state += np.abs(np.sum(bras * (kets @ op.T), axis=1)) ** 2
    return float(weights @ per_state)


def _custom_ensemble(n, seed):
    """n + 3 random unit kets with unequal weights."""
    rng = np.random.default_rng(seed)
    kets = rng.normal(size=(n + 3, n)) + 1j * rng.normal(size=(n + 3, n))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    weights = rng.dirichlet(np.ones(n + 3))
    return Ensemble(weights=weights, kets=kets)


def _guesses_by_loop(m):
    """Per-outcome reference for the tie rule: lowest index within 1e-12 of the max."""
    guesses, weights = [], []
    for op in m.ops:
        d = np.einsum("ij,ij->j", op.conj(), op).real
        guesses.append(int(np.argmax(d >= d.max() - 1e-12)))
        weights.append(d[guesses[-1]])
    return np.array(guesses), np.array(weights)


def _guess_weights(m, guesses):
    """d[r, j_(r)] = <j_(r)|A_r†A_r|j_(r)>: each outcome's diagonal weight at its guess."""
    d = np.einsum("rij,rij->rj", m.ops.conj(), m.ops).real
    return d[np.arange(len(d)), guesses]


class TestEstimationFidelity:
    def test_identity_guesses_blindly(self):
        for n in range(2, 7):
            m = identity_attack(n)
            g, guesses = estimation_fidelity(m)
            assert g == 1.0 / n
            assert_array_equal(guesses, [0])
            assert_array_equal(_guess_weights(m, guesses), [1.0])

    def test_projective_guesses_perfectly(self):
        for n in (2, 3, 5):
            m = projective_attack(n)
            g, guesses = estimation_fidelity(m)
            assert g == 1.0
            assert_array_equal(guesses, np.arange(n))
            assert_array_equal(_guess_weights(m, guesses), np.ones(n))

    def test_optimal_family_hits_target(self):
        for n in (2, 4):
            for target in (1.0 / n, 0.5, 0.9, 1.0):
                g, _ = estimation_fidelity(optimal_attack(n, target))
                assert_allclose(g, target, rtol=0, atol=1e-12)

    def test_probabilistic_half(self):
        g, _ = estimation_fidelity(probabilistic_attack(2, 0.5))
        assert_allclose(g, 0.75, rtol=0, atol=1e-15)

    def test_tie_break_prefers_lowest_index(self):
        # exact tie: identity diagonal is constant
        _, guesses = estimation_fidelity(identity_attack(3))
        assert guesses[0] == 0
        # near tie within 1e-12: index 1 is larger but index 0 still wins
        eps = 5e-13
        m = diagonal_attack([[np.sqrt(0.3), np.sqrt(0.3 + eps)], [np.sqrt(0.7), np.sqrt(0.7 - eps)]])
        _, guesses = estimation_fidelity(m)
        assert guesses[0] == 0
        assert_allclose(_guess_weights(m, guesses)[0], 0.3, rtol=0, atol=1e-15)

    def test_tie_rule_matches_per_outcome_loop(self):
        # identity and prob (its last outcome) tie over every index, optimal at
        # g = 1/n ties in every outcome, projective has one strict maximum each
        for n in (2, 3, 5):
            for m in _named_attacks(n) + [random_attack(n, seed=3)]:
                g, got = estimation_fidelity(m)
                guesses, weights = _guesses_by_loop(m)
                assert_array_equal(got, guesses)
                assert_allclose(_guess_weights(m, got), weights, rtol=0, atol=1e-15)
                assert_allclose(g, weights.sum() / n, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 16, 32])
    def test_blocks_equal_the_whole_stack_sum(self, n, monkeypatch):
        # G and the guesses are bit for bit those of one einsum over the whole
        # stack, in blocks of 128 KiB of operators and in blocks of 3 outcomes
        stacks = [random_attack(n, outcomes=k, seed=n + k) for k in (1, n, n * n, n * n + 3)]
        for outcomes in (None, 3):
            if outcomes:
                _small_blocks(monkeypatch, n, outcomes)
            for m in stacks:
                d = np.einsum("rij,rij->rj", m.ops.conj(), m.ops).real
                guesses = np.argmax(d >= d.max(axis=1, keepdims=True) - metrics._TIE, axis=1)
                g, got = estimation_fidelity(m)
                assert_array_equal(got, guesses)
                assert g == d[np.arange(len(d)), guesses].sum() / n

    def test_holds_no_conjugated_stack(self):
        # the (K, n) weights and about one block's operators of temporaries
        # (1.05 measured; a block's operators are BLOCK_BYTES // 8); the
        # whole-stack einsum holds a conjugated copy, 1.03 stacks
        m = random_attack(32, seed=1)
        estimation_fidelity(m)
        tracemalloc.start()
        try:
            estimation_fidelity(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k, n, _ = m.ops.shape
        assert peak < 8 * k * n + 2 * BLOCK_BYTES // 8

    def test_random_attacks_stay_in_range(self):
        for seed in range(20):
            m = random_attack(3, seed=seed)
            g, guesses = estimation_fidelity(m)
            assert 1.0 / 3 - 1e-12 <= g <= 1.0 + 1e-12
            assert guesses.shape == (len(m.ops),)
            assert np.all(_guess_weights(m, guesses) >= 0)


class TestFunctionalEquivalence:
    def test_named_families(self):
        attacks = [
            identity_attack(3),
            projective_attack(3),
            optimal_attack(3, 0.5),
            probabilistic_attack(3, 0.3),
        ]
        for m in attacks:
            g_def, _ = estimation_fidelity(m)
            assert_allclose(
                estimation_fidelity_functional(m), g_def, rtol=0, atol=1e-12
            )
            f_def = induced_fidelity(m, pairing_ensemble(m.dim))
            assert_allclose(induced_fidelity_functional(m), f_def, rtol=0, atol=1e-10)

    def test_random_attacks(self):
        for seed in range(20):
            for n in (2, 3, 4):
                m = random_attack(n, seed=seed)
                g_def, _ = estimation_fidelity(m)
                assert_allclose(
                    estimation_fidelity_functional(m), g_def, rtol=0, atol=1e-12
                )
                f_def = induced_fidelity(m, pairing_ensemble(n))
                assert_allclose(
                    induced_fidelity_functional(m), f_def, rtol=0, atol=1e-10
                )


def _reference_amplitudes(a):
    """amp[j*n + k, r] = <phi_jk|A_r|phi_jk> as one complex expression over the whole stack."""
    k, n, _ = a.shape
    diag = np.einsum("rjj->rj", a)
    amp = 0.5 * (diag[:, :, None] + diag[:, None, :] + 1j * (a - a.transpose(0, 2, 1)))
    idx = np.arange(n)
    amp[:, idx, idx] = diag
    return amp.reshape(k, n * n).T


def _weight_table(a):
    """The (n^2, K) squared decoy amplitudes that induced_fidelity_closed keeps, and its F."""
    k, n, _ = a.shape
    w = np.empty((k, n, n))
    f = induced_fidelity_closed(a, out=w)
    return w.reshape(k, n * n).T, f


def _small_blocks(monkeypatch, n, outcomes):
    """Blocks of `outcomes` outcomes at dimension n, so small stacks cross block edges."""
    monkeypatch.setattr(linalg, "BLOCK_BYTES", outcomes * 128 * n * n)


class TestClosedForm:
    def test_amplitudes_are_decoy_overlaps(self):
        # the kernel's weights are the squared overlaps |<phi_jk|A_r|phi_jk>|^2
        for n in (2, 3, 4):
            m = random_attack(n, outcomes=5, seed=n)
            w, _ = _weight_table(m.ops)
            assert w.shape == (n * n, 5)
            for j in range(n):
                for k in range(n):
                    ket = decoy_ket(j, k, n)
                    want = [abs(ket.conj() @ op @ ket) ** 2 for op in m.ops]
                    assert_allclose(w[j * n + k], want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_amplitudes_equal_the_complex_expression(self, n, monkeypatch):
        # every weight is |amp|^2 of the one complex expression, bit for bit, in
        # whole-stack blocks and in blocks of 3 outcomes, and F is the same
        # whether the weights are kept in a table or not
        stacks = [random_attack(n, outcomes=k, seed=n + k).ops for k in (1, n, n * n, n * n + 3)]
        stacks += [m.ops for m in (optimal_attack(n, 0.6), projective_attack(n), identity_attack(n))]
        for outcomes in (None, 3):
            if outcomes:
                _small_blocks(monkeypatch, n, outcomes)
            for a in stacks:
                want = np.abs(_reference_amplitudes(a)) ** 2
                w, f = _weight_table(a)
                assert_array_equal(w, want)
                assert induced_fidelity_closed(a) == f

    @pytest.mark.parametrize("n", [16, 32])
    def test_amplitudes_hold_no_stack_sized_temporary(self, n):
        # filling a given table holds a few block-sized temporaries (4.0 blocks
        # measured); the complex expression over the whole stack peaks at 2.0
        # to 2.1 stacks
        a = random_attack(n, seed=1).ops
        w = np.empty(a.shape)
        induced_fidelity_closed(a, out=w)
        tracemalloc.start()
        try:
            induced_fidelity_closed(a, out=w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * BLOCK_BYTES // 8

    @pytest.mark.parametrize("n", range(2, 9))
    def test_blocked_sum_equals_the_table(self, n, monkeypatch):
        # F is the same sum, to the bit, whether or not the weights are kept,
        # and it is the table's mean over the pairs
        stacks = [random_attack(n, outcomes=k, seed=n + k).ops for k in (1, n, n * n, n * n + 3)]
        stacks += [m.ops for m in _named_attacks(n)]
        for outcomes in (None, 3):
            if outcomes:
                _small_blocks(monkeypatch, n, outcomes)
            for a in stacks:
                w, f = _weight_table(a)
                assert f == induced_fidelity_closed(a)
                assert_allclose(f, w.sum() / (n * n), rtol=0, atol=1e-15)

    def test_closed_form_builds_no_amplitude_table(self):
        # a few block-sized temporaries; the (K, n, n) table alone is one stack
        a = random_attack(16, seed=1).ops
        induced_fidelity_closed(a)
        tracemalloc.start()
        try:
            induced_fidelity_closed(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * a.nbytes

    @pytest.mark.parametrize("n", range(2, 7))
    def test_three_routes_agree_on_random_attacks(self, n):
        pairing = pairing_ensemble(n)
        for k in (1, n, n * n, n * n + 3):
            for seed in range(3):
                m = random_attack(n, outcomes=k, seed=seed)
                f_def = induced_fidelity(m, pairing)
                assert_allclose(induced_fidelity_closed(m.ops), f_def, rtol=0, atol=1e-10)
                assert_allclose(induced_fidelity_functional(m), f_def, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_three_routes_agree_on_named_families(self, n):
        pairing = pairing_ensemble(n)
        for m in _named_attacks(n):
            f_def = induced_fidelity(m, pairing)
            assert_allclose(induced_fidelity_closed(m.ops), f_def, rtol=0, atol=1e-10)
            assert_allclose(induced_fidelity_functional(m), f_def, rtol=0, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 4),
        k=st.integers(1, 6),
        data=st.data(),
    )
    def test_routes_agree_on_arbitrary_whitened_sets(self, n, k, data):
        parts = data.draw(
            st.lists(
                st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
                min_size=2 * k * n * n,
                max_size=2 * k * n * n,
            )
        )
        x = np.array(parts).reshape(2, k, n, n)
        b = x[0] + 1j * x[1]
        gram = np.einsum("rji,rjk->ik", b.conj(), b)
        assume(np.linalg.eigvalsh(gram)[0] > 1e-3)
        ops = b @ inv_sqrt_psd(gram)
        assume(all(np.linalg.norm(op) > 1e-6 for op in ops))
        m = GeneralizedMeasurement(ops)
        f_def = induced_fidelity(m, pairing_ensemble(n))
        assert_allclose(induced_fidelity_closed(m.ops), f_def, rtol=0, atol=1e-10)
        assert_allclose(induced_fidelity_functional(m), f_def, rtol=0, atol=1e-10)
        g_def, _ = estimation_fidelity(m)
        assert_allclose(estimation_fidelity_functional(m), g_def, rtol=0, atol=1e-12)


class TestInducedFidelity:
    def test_identity_preserves_decoys(self):
        for n in (2, 3, 4):
            f = induced_fidelity(identity_attack(n), pairing_ensemble(n))
            assert_allclose(f, 1.0, rtol=0, atol=1e-12)

    def test_projective_value(self):
        # messages survive projection but superposition decoys lose coherence
        for n in (2, 3, 5):
            m = projective_attack(n)
            assert_allclose(
                induced_fidelity(m, _canonical_ensemble(n)), 1.0, rtol=0, atol=1e-12
            )
            f = induced_fidelity(m, pairing_ensemble(n))
            assert_allclose(f, 0.5 + 0.5 / n, rtol=0, atol=1e-12)

    def test_matches_channel_average(self):
        # independent route: send each decoy through the channel and project back
        for seed in (0, 1):
            for n in (2, 3):
                m = random_attack(n, seed=seed)
                choi = choi_of_kraus(m.ops)
                total = 0.0
                e = pairing_ensemble(n)
                for w, ket in zip(e.weights, e.kets):
                    rho = np.outer(ket, ket.conj())
                    out = apply_channel(choi, rho)
                    total += w * float((ket.conj() @ out @ ket).real)
                f = induced_fidelity(m, e)
                assert_allclose(f, total, rtol=0, atol=1e-12)

    def test_saturating_attack_disturbance(self):
        d = 1.0 - induced_fidelity(optimal_attack(4, 0.5), pairing_ensemble(4))
        assert_allclose(d, 0.03349364905389035, rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            induced_fidelity(identity_attack(2), pairing_ensemble(3))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_blocked_sum_matches_outcome_loop(self, n):
        ensembles = [pairing_ensemble(n), _canonical_ensemble(n), _custom_ensemble(n, n)]
        for k in (1, n, n * n, n * n + 3):
            m = random_attack(n, outcomes=k, seed=k)
            for e in ensembles:
                assert_allclose(induced_fidelity(m, e), _induced_fidelity_by_outcome(m, e), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("outcomes", [1, 3, 16])
    def test_blocks_that_do_not_divide_the_outcomes(self, monkeypatch, outcomes):
        n, k = 4, 5
        m = random_attack(n, outcomes=k, seed=2)
        # blocks of 3 outcomes leave one block short; 16 holds all 5
        for e in (pairing_ensemble(n), _custom_ensemble(n, 5)):
            monkeypatch.setattr(linalg, "BLOCK_BYTES", outcomes * 48 * len(e.weights))
            assert_allclose(induced_fidelity(m, e), _induced_fidelity_by_outcome(m, e), rtol=0, atol=1e-14)

    def test_block_temporaries_are_bounded(self):
        # 21 outcomes per block; all 1024 at once would hold 16 MiB of
        # amplitudes and 32 MiB of gathered components and their products
        m = random_attack(32, seed=1)
        e = pairing_ensemble(32)
        tracemalloc.start()
        try:
            induced_fidelity(m, e)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_state = 8 * len(e.weights)  # each state's running sum
        ufunc_buffer = 8192 * 16  # numpy's buffer for the broadcast products
        assert peak <= BLOCK_BYTES + per_state + ufunc_buffer + 2**16


class TestFunctionalMatrices:
    def test_projector_identities(self):
        for n in (2, 3, 4):
            beta = _beta(n)
            rep = np.arange(n) * n + np.arange(n)
            p_rep = np.zeros((n * n, n * n))
            p_rep[rep, rep] = 1.0
            p_nonrep = np.eye(n * n) - p_rep
            p_beta = np.outer(beta, beta)
            assert_allclose(p_rep @ p_rep, p_rep, rtol=0, atol=1e-15)
            assert_allclose(p_beta @ p_beta, p_beta, rtol=0, atol=1e-15)
            assert_allclose(p_beta @ p_rep, p_beta, rtol=0, atol=1e-15)
            assert_allclose(np.linalg.norm(beta), 1.0, rtol=0, atol=1e-15)
            # L splits over the repeated and nonrepeated subspaces
            pound = _pound_by_loop(n)
            assert_allclose(p_rep @ pound @ p_rep, (p_rep + p_beta @ p_rep) / (2 * n), rtol=0, atol=1e-15)
            assert_array_equal(p_rep @ pound @ p_nonrep, 0.0)
            singlets = n * n * (p_nonrep @ pound @ p_nonrep)
            assert_allclose(singlets @ singlets, singlets, rtol=0, atol=1e-15)
            assert_allclose(np.trace(singlets), n * (n - 1) / 2, rtol=0, atol=1e-12)

    def test_pound_explicit_matrix(self):
        ref = np.array(
            [
                [3.0, 0.0, 0.0, 1.0],
                [0.0, 1.0, -1.0, 0.0],
                [0.0, -1.0, 1.0, 0.0],
                [1.0, 0.0, 0.0, 3.0],
            ]
        ) / 8.0
        assert_allclose(_pound_by_loop(2), ref, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_pound_matches_singlet_loop(self, n, monkeypatch):
        # the entries the functional reads, with their weights, are the singlet-loop L: a
        # generic complex matrix in place of $ (not Hermitian, not PSD) leaves no entry unseen
        x = np.random.default_rng(n).standard_normal((2, n * n, n * n))
        x = x[0] + 1j * x[1]
        monkeypatch.setattr(metrics, "choi_of_kraus", lambda ops: ChoiState(dim_out=n, dim_in=n, matrix=x))
        want = np.einsum("ij,ji->", _pound_by_loop(n), x).real
        assert_allclose(induced_fidelity_functional(identity_attack(n)), want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_pound_is_exactly_symmetric(self, n):
        # Tr(L $) = sum_ij L_ij Re $_ij, which the functional reads, needs L real and symmetric
        pound = _pound_by_loop(n)
        assert_array_equal(pound, pound.T)

    def test_pound_spectrum(self):
        for n in (2, 3, 4, 6):
            pound = _pound_by_loop(n)
            assert np.isrealobj(pound)
            assert_allclose(pound, pound.T, rtol=0, atol=1e-15)
            assert psd_check(pound)
            w, _ = herm_eig(pound)
            assert_allclose(w[-1], 1.0 / n, rtol=0, atol=1e-12)
            beta = _beta(n)
            assert_allclose(pound @ beta, beta / n, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_structured_trace_equals_dense_trace(self, n):
        attacks = [random_attack(n, outcomes=k, seed=n + k) for k in (1, n, n * n, n * n + 3)]
        for m in attacks + _named_attacks(n):
            assert_allclose(induced_fidelity_functional(m), _dense_trace(m), rtol=0, atol=1e-15, err_msg=m.descriptor)

    def test_functional_holds_one_state_operator(self):
        # $ (1 MiB at n = 16) and the conjugated (K, n^2) rows its product needs (1 MiB at
        # K = n^2), plus O(n^2) gathered entries: no dense L, no copy of the stack or of Re $
        n = 16
        m = random_attack(n, seed=1)
        induced_fidelity_functional(m)
        tracemalloc.start()
        try:
            induced_fidelity_functional(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * n**4 + m.ops.nbytes + 64 * n * n

    def test_euro_trace_recovers_estimation(self):
        # pair the dense block matrix with the outcome-extended state operator
        attacks = [random_attack(2, outcomes=3, seed=seed) for seed in range(5)]
        attacks += _named_attacks(2) + _named_attacks(3)
        for m in attacks:
            k = len(m.ops)
            eye = np.eye(k)
            w = np.zeros(m.dim * m.dim * k, dtype=complex)
            for i, op in enumerate(m.ops):
                w += np.kron(op.reshape(-1), eye[i])
            g_dense = float(np.einsum("ij,ji->", _dense_euro(m), np.outer(w, w.conj())).real)
            g_def, _ = estimation_fidelity(m)
            assert_allclose(g_dense, g_def, rtol=0, atol=1e-12)
            assert_allclose(g_dense, estimation_fidelity_functional(m), rtol=0, atol=1e-12)

    def test_euro_skipped_when_large(self):
        # a dense € would have n^2 K = 4160 rows; the functional route reads it blockwise
        m = random_attack(8, outcomes=65, seed=1)
        g_def, _ = estimation_fidelity(m)
        assert_allclose(estimation_fidelity_functional(m), g_def, rtol=0, atol=1e-12)


class TestSpectralQuantities:
    def test_projective(self):
        for n in (2, 3, 4):
            assert spectral_quantities(projective_attack(n)) == (float(n), float(n))

    def test_identity(self):
        for n in (2, 3, 4):
            g, f = spectral_quantities(identity_attack(n))
            assert g == 1.0
            assert f == float(n * n)

    def test_probabilistic_half(self):
        g, f = spectral_quantities(probabilistic_attack(2, 0.5))
        assert_allclose(g, 1.5, rtol=0, atol=1e-12)
        assert_allclose(f, 3.0, rtol=0, atol=1e-12)

    def test_optimal_two_level(self):
        g, f = spectral_quantities(optimal_attack(2, 0.9))
        assert_allclose(g, 1.8, rtol=0, atol=1e-12)
        assert_allclose(f, 3.2, rtol=0, atol=1e-12)
        assert_allclose(0.5 - f / 8.0, 0.1, rtol=0, atol=1e-12)

    def test_matches_full_metrics_on_diagonal_attacks(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5):
            for _ in range(10):
                k = int(rng.integers(1, 7))
                m = _rand_diagonal_attack(n, k, rng)
                g, f = spectral_quantities(m)
                g_def, _ = estimation_fidelity(m)
                assert_allclose(g / n, g_def, rtol=0, atol=1e-12)
                d_def = 1.0 - induced_fidelity(m, pairing_ensemble(n))
                assert_allclose(0.5 - f / (2 * n * n), d_def, rtol=0, atol=1e-10)

    def test_rejects_off_diagonal(self):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        m = GeneralizedMeasurement([h])
        with pytest.raises(ValueError):
            spectral_quantities(m)
        with pytest.raises(ValueError):
            spectral_quantities(random_attack(2, seed=0))


class TestBanaszekBound:
    def test_endpoints(self):
        for m_out in (1, 2, 5):
            for n in (2, 3, 4):
                assert_allclose(banaszek_bound(n, m_out, n), n, rtol=0, atol=1e-12)
                assert_allclose(
                    banaszek_bound(0.0, m_out, n), (m_out - 1) * n, rtol=0, atol=1e-12
                )

    def test_identity_vector_saturates(self):
        # all-ones coefficient vector: g = 1, f = n^2, bound exact
        for n in (2, 3, 4):
            _, f = spectral_quantities(identity_attack(n))
            assert_allclose(banaszek_bound(1.0, n, n), f, rtol=0, atol=1e-12)

    def test_optimal_family_saturates(self):
        for n in (2, 3, 4):
            for target in (1.0 / n, 0.3, 0.62, 0.9, 1.0):
                if target < 1.0 / n:
                    continue
                g, f = spectral_quantities(optimal_attack(n, target))
                assert_allclose(g, n * target, rtol=0, atol=1e-12)
                assert_allclose(banaszek_bound(g, n, n), f, rtol=0, atol=1e-11)

    def test_random_diagonal_attacks_obey_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            k = int(rng.integers(1, 7))
            m = _rand_diagonal_attack(3, k, rng)
            g, f = spectral_quantities(m)
            assert f <= banaszek_bound(g, 3, 3) + 1e-9

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            banaszek_bound(-0.1, 2, 2)
        with pytest.raises(ValueError):
            banaszek_bound(2.5, 3, 2)
        with pytest.raises(ValueError):
            banaszek_bound(1.0, 0, 2)
