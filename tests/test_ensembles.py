"""Message/decoy ensembles and the tamper test."""

import numpy as np
import numpy.testing as npt
import pytest

from qdecoy import attacks, ensembles, linalg, metrics


def _canonical_ensemble(n):
    """The n basis states, weight 1/n each: the message words."""
    linalg.check_dim(n)
    eye = np.eye(n, dtype=complex)
    return ensembles.Ensemble(dim=n, items=tuple((1.0 / n, eye[j]) for j in range(n)))


def _average_density(e):
    """Mixture density matrix sum_i p_i |phi_i><phi_i|."""
    return sum(w * np.outer(ket, ket.conj()) for w, ket in e.items)


def _tamper_projectors(j, k, n):
    """Receiver's test for decoy (j, k): (P_intact, P_tamper = Id - P_intact)."""
    ket = ensembles.decoy_ket(j, k, n)
    p_intact = np.outer(ket, ket.conj())
    return p_intact, np.eye(n, dtype=complex) - p_intact


class TestCanonical:
    def test_two_level_content(self):
        e = _canonical_ensemble(2)
        assert e.dim == 2 and len(e.items) == 2
        for j, (w, ket) in enumerate(e.items):
            assert w == 0.5
            want = np.zeros(2, dtype=complex)
            want[j] = 1.0
            npt.assert_array_equal(ket, want)

    def test_average_density_is_maximally_mixed(self):
        for n in (2, 5):
            e = _canonical_ensemble(n)
            npt.assert_allclose(_average_density(e), np.eye(n) / n, atol=1e-15)

    def test_degenerate_dimension_raises(self):
        with pytest.raises(ValueError):
            _canonical_ensemble(1)


class TestDecoyKet:
    def test_equal_indices_give_basis_state(self):
        for n in (2, 4):
            npt.assert_array_equal(ensembles.decoy_ket(0, 0, n), np.eye(n, dtype=complex)[0])

    def test_pair_state_value(self):
        ket = ensembles.decoy_ket(0, 1, 2)
        npt.assert_allclose(ket, np.array([1.0, 1.0j]) / np.sqrt(2), atol=1e-15)

    def test_swapped_pairs_are_orthogonal(self):
        n = 4
        for j in range(n):
            for k in range(n):
                if j != k:
                    a = ensembles.decoy_ket(j, k, n)
                    b = ensembles.decoy_ket(k, j, n)
                    assert abs(a.conj() @ b) <= 1e-15

    def test_unit_norms(self):
        n = 5
        for j in range(n):
            for k in range(n):
                assert abs(np.linalg.norm(ensembles.decoy_ket(j, k, n)) - 1) <= 1e-12

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            ensembles.decoy_ket(2, 0, 2)
        with pytest.raises(ValueError):
            ensembles.decoy_ket(0, -1, 2)


class TestPairing:
    def test_two_level_items(self):
        e = ensembles.pairing_ensemble(2)
        assert len(e.items) == 4
        kets = [ket for _, ket in e.items]
        npt.assert_array_equal(kets[0], [1.0, 0.0])
        npt.assert_allclose(kets[1], np.array([1.0, 1.0j]) / np.sqrt(2), atol=1e-15)
        npt.assert_allclose(kets[2], np.array([1.0j, 1.0]) / np.sqrt(2), atol=1e-15)
        npt.assert_array_equal(kets[3], [0.0, 1.0])
        assert all(w == 0.25 for w, _ in e.items)

    def test_item_count(self):
        assert len(ensembles.pairing_ensemble(7).items) == 49

    def test_average_density_matches_canonical(self):
        for n in range(2, 17):
            pair = _average_density(ensembles.pairing_ensemble(n))
            canon = _average_density(_canonical_ensemble(n))
            npt.assert_allclose(pair, np.eye(n) / n, atol=1e-12)
            assert np.max(np.abs(pair - canon)) <= 1e-12

    def test_degenerate_dimension_raises(self):
        with pytest.raises(ValueError):
            ensembles.pairing_ensemble(1)


class TestTamperProjectors:
    def test_projector_algebra(self):
        n = 4
        for j, k in ((0, 0), (0, 1), (2, 3)):
            p_in, p_out = _tamper_projectors(j, k, n)
            npt.assert_allclose(p_in @ p_in, p_in, atol=1e-12)
            npt.assert_allclose(p_out @ p_out, p_out, atol=1e-12)
            npt.assert_array_equal(p_in + p_out, np.eye(n))
            npt.assert_allclose(np.trace(p_in), 1.0, atol=1e-12)
            npt.assert_allclose(np.trace(p_out), n - 1.0, atol=1e-12)

    def test_undisturbed_decoy_never_flags(self):
        n = 3
        for j in range(n):
            for k in range(n):
                ket = ensembles.decoy_ket(j, k, n)
                _, p_out = _tamper_projectors(j, k, n)
                assert abs(ket.conj() @ p_out @ ket) <= 1e-12

    def test_two_level_intact_matrix(self):
        p_in, _ = _tamper_projectors(0, 1, 2)
        want = np.array([[0.5, -0.5j], [0.5j, 0.5]])
        npt.assert_allclose(p_in, want, atol=1e-15)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            _tamper_projectors(0, 5, 2)


class TestEnsembleValidation:
    def test_bad_weights_rejected(self):
        ket = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError):
            ensembles.Ensemble(dim=2, items=((0.6, ket), (0.6, ket)))

    def test_unnormalized_ket_rejected(self):
        bad = np.array([1.0, 1.0], dtype=complex)
        with pytest.raises(ValueError):
            ensembles.Ensemble(dim=2, items=((1.0, bad),))

    def test_dimension_mismatch_rejected(self):
        ket = np.array([1.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(ValueError):
            ensembles.Ensemble(dim=2, items=((1.0, ket),))


class TestEnsembleArrays:
    @staticmethod
    def _random_ensemble(n, size, seed):
        """`size` random unit kets with unequal weights: not the pairing ensemble."""
        rng = np.random.default_rng(seed)
        kets = rng.normal(size=(size, n)) + 1j * rng.normal(size=(size, n))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        return ensembles.Ensemble(dim=n, items=tuple(zip(rng.dirichlet(np.ones(size)), kets)))

    def test_arrays_are_read_only_stacks_of_the_items(self):
        for e in (ensembles.pairing_ensemble(3), self._random_ensemble(4, 7, seed=0)):
            npt.assert_array_equal(e.weights, [w for w, _ in e.items])
            npt.assert_array_equal(e.kets, [ket for _, ket in e.items])
            assert e.kets.shape == (len(e.items), e.dim)
            for arr in (e.weights, e.kets):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_definition_sum_reads_the_arrays(self, n):
        e = self._random_ensemble(n, 2 * n + 3, seed=n)
        m = attacks.random_attack(n, outcomes=n + 2, seed=n)
        want = sum(w * sum(abs(ket.conj() @ op @ ket) ** 2 for op in m.ops) for w, ket in e.items)
        assert abs(metrics.induced_fidelity(m, e) - want) <= 1e-14
