"""State-operator correspondence against the direct Kraus-sum oracle."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from qdecoy import choi, linalg
from qdecoy.attacks import random_attack


def _rand_complex(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def _rand_kraus(rng, n, k):
    """Random completeness-normalized Kraus set (independent of attacks module math)."""
    b = [_rand_complex(rng, n, n) for _ in range(k)]
    s = sum(a.conj().T @ a for a in b)
    s_inv_sqrt = linalg.inv_sqrt_psd(s)
    return [a @ s_inv_sqrt for a in b]


def _mat_to_vec(a):
    """Flatten an m x n matrix to the length-mn vector, (i, j) -> i*n + j."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    return a.reshape(-1)


def _vec_to_mat(v, m, n):
    """Inverse of _mat_to_vec: reshape a length-mn vector to an m x n matrix."""
    v = np.asarray(v)
    if v.shape != (m * n,):
        raise ValueError(f"vector length {v.shape} does not match {m}x{n}")
    return v.reshape(m, n)


def _apply_direct(ops, rho):
    return sum(a @ rho @ a.conj().T for a in ops)


class TestVec:
    def test_identity_flattening(self):
        npt.assert_array_equal(_mat_to_vec(np.eye(2)), [1.0, 0.0, 0.0, 1.0])

    def test_basis_outer_product_lands_at_composite_index(self):
        e = np.eye(2)
        v = _mat_to_vec(np.outer(e[0], e[1]))
        want = np.zeros(4)
        want[0 * 2 + 1] = 1.0
        npt.assert_array_equal(v, want)

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(3)
        a = _rand_complex(rng, 3, 4)
        back = _vec_to_mat(_mat_to_vec(a), 3, 4)
        assert np.array_equal(back, a)

    def test_norm_equals_trace(self):
        rng = np.random.default_rng(5)
        a = _rand_complex(rng, 3, 3)
        npt.assert_allclose(
            np.sum(np.abs(_mat_to_vec(a)) ** 2), np.trace(a.conj().T @ a).real, atol=1e-12
        )

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            _vec_to_mat(np.zeros(5), 2, 3)
        with pytest.raises(ValueError):
            _mat_to_vec(np.zeros(4))


class TestChoiOfKraus:
    def test_identity_channel_is_maximally_entangled_state(self):
        n = 3
        dollar = choi.choi_of_kraus([np.eye(n)])
        beta = np.zeros(n * n)
        beta[np.arange(n) * n + np.arange(n)] = 1.0 / np.sqrt(n)
        npt.assert_allclose(dollar.matrix, n * np.outer(beta, beta), atol=1e-14)

    def test_dephasing_is_repeated_index_projector(self):
        n = 3
        eye = np.eye(n)
        dollar = choi.choi_of_kraus([np.outer(eye[r], eye[r]) for r in range(n)])
        want = np.zeros((n * n, n * n))
        rep = np.arange(n) * n + np.arange(n)
        want[rep, rep] = 1.0
        npt.assert_allclose(dollar.matrix, want, atol=1e-15)

    def test_complete_measurements_are_tp(self):
        rng = np.random.default_rng(7)
        for k in (1, 2, 5):
            ops = _rand_kraus(rng, 3, k)
            assert choi.is_tp(choi.choi_of_kraus(ops))

    def test_rejects_empty_ragged_zero(self):
        with pytest.raises(ValueError):
            choi.choi_of_kraus([])
        with pytest.raises(ValueError):
            choi.choi_of_kraus([np.eye(2), np.eye(3)])
        with pytest.raises(ValueError):
            choi.choi_of_kraus([np.zeros((2, 2))])
        with pytest.raises(ValueError, match="ragged"):
            choi.choi_of_kraus([np.eye(2), np.eye(2), np.ones((2, 3))])
        with pytest.raises(ValueError, match="zero Kraus operator"):
            choi.choi_of_kraus([np.eye(2), np.zeros((2, 2)), np.eye(2)])

    def test_rejects_a_single_matrix(self):
        with pytest.raises(ValueError, match=r"\(K, m, n\) stack, got shape \(2, 2\)"):
            choi.choi_of_kraus(np.eye(2))

    def test_read_only_stack_is_not_copied(self):
        # the (K, mn) rows are a view of the stack; only their conjugate is a copy
        ops = random_attack(8, outcomes=200, seed=1).ops
        assert not ops.flags.writeable
        want = sum(np.outer(a.reshape(-1), a.reshape(-1).conj()) for a in ops)
        choi.choi_of_kraus(ops)
        tracemalloc.start()
        try:
            dollar = choi.choi_of_kraus(ops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ops.nbytes + dollar.matrix.nbytes + 2**12
        npt.assert_allclose(dollar.matrix, want, rtol=0, atol=1e-14)

    def test_matches_outer_product_sum(self):
        # rectangular operators, passed as a list and as one stacked array
        rng = np.random.default_rng(13)
        ops = [_rand_complex(rng, 2, 3) for _ in range(4)]
        want = sum(np.outer(_mat_to_vec(a), _mat_to_vec(a).conj()) for a in ops)
        for kraus in (ops, np.array(ops)):
            dollar = choi.choi_of_kraus(kraus)
            assert (dollar.dim_out, dollar.dim_in) == (2, 3)
            npt.assert_allclose(dollar.matrix, want, rtol=0, atol=1e-13)


class TestApplyChannel:
    def test_identity_channel(self):
        rng = np.random.default_rng(9)
        rho = _rand_complex(rng, 2, 2)
        dollar = choi.choi_of_kraus([np.eye(2)])
        npt.assert_allclose(choi.apply_channel(dollar, rho), rho, atol=1e-13)

    def test_full_dephasing(self):
        rng = np.random.default_rng(11)
        n = 3
        eye = np.eye(n)
        rho = _rand_complex(rng, n, n)
        dollar = choi.choi_of_kraus([np.outer(eye[r], eye[r]) for r in range(n)])
        npt.assert_allclose(choi.apply_channel(dollar, rho), np.diag(np.diag(rho)), atol=1e-13)

    def test_against_direct_kraus_sum(self):
        rng = np.random.default_rng(13)
        for n in (2, 3):
            for _ in range(25):
                ops = _rand_kraus(rng, n, int(rng.integers(1, 5)))
                rho = _rand_complex(rng, n, n)
                dollar = choi.choi_of_kraus(ops)
                npt.assert_allclose(
                    choi.apply_channel(dollar, rho), _apply_direct(ops, rho), atol=1e-10
                )

    def test_linearity(self):
        rng = np.random.default_rng(17)
        ops = _rand_kraus(rng, 3, 3)
        dollar = choi.choi_of_kraus(ops)
        r1 = _rand_complex(rng, 3, 3)
        r2 = _rand_complex(rng, 3, 3)
        a, b = 0.7, -1.3 + 0.2j
        npt.assert_allclose(
            choi.apply_channel(dollar, a * r1 + b * r2),
            a * choi.apply_channel(dollar, r1) + b * choi.apply_channel(dollar, r2),
            atol=1e-12,
        )

    def test_trace_form(self):
        # Tr(kappa S(rho)) = Tr((kappa (x) rho^t) $)
        rng = np.random.default_rng(19)
        ops = _rand_kraus(rng, 3, 2)
        dollar = choi.choi_of_kraus(ops)
        for _ in range(10):
            kappa = _rand_complex(rng, 3, 3)
            rho = _rand_complex(rng, 3, 3)
            lhs = np.trace(kappa @ choi.apply_channel(dollar, rho))
            rhs = np.trace(np.kron(kappa, rho.T) @ dollar.matrix)
            npt.assert_allclose(lhs, rhs, atol=1e-10)

    def test_dimension_mismatch_raises(self):
        dollar = choi.choi_of_kraus([np.eye(2)])
        with pytest.raises(ValueError):
            choi.apply_channel(dollar, np.eye(3))


class TestSandwich:
    def test_identity_channel_identity_operators(self):
        rng = np.random.default_rng(23)
        rho = _rand_complex(rng, 2, 2)
        dollar = choi.choi_of_kraus([np.eye(2)])
        assert choi.sandwich_identity_residual(np.eye(2), rho, np.eye(2), np.eye(2), dollar) <= 1e-12

    def test_reduces_to_apply_channel_for_identity_sides(self):
        rng = np.random.default_rng(29)
        ops = _rand_kraus(rng, 3, 3)
        dollar = choi.choi_of_kraus(ops)
        rho = _rand_complex(rng, 3, 3)
        eye = np.eye(3)
        assert choi.sandwich_identity_residual(eye, rho, eye, eye, dollar) <= 1e-10

    def test_random_tuples(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            ops = _rand_kraus(rng, 3, int(rng.integers(1, 4)))
            dollar = choi.choi_of_kraus(ops)
            kappa, rho, sigma, tau = (_rand_complex(rng, 3, 3) for _ in range(4))
            assert choi.sandwich_identity_residual(kappa, rho, sigma, tau, dollar) <= 1e-10

    def test_dimension_mismatch_raises(self):
        dollar = choi.choi_of_kraus([np.eye(2)])
        with pytest.raises(ValueError):
            choi.sandwich_identity_residual(np.eye(3), np.eye(2), np.eye(2), np.eye(2), dollar)
        with pytest.raises(ValueError):
            choi.sandwich_identity_residual(np.eye(2), np.eye(3), np.eye(2), np.eye(2), dollar)


class TestCpTp:
    def test_identity_channel_is_cp_tp(self):
        dollar = choi.choi_of_kraus([np.eye(2)])
        assert choi.is_cp(dollar) and choi.is_tp(dollar)

    def test_transpose_map_fails_cp(self):
        n = 2
        eye = np.eye(n)
        mat = np.zeros((n * n, n * n), dtype=complex)
        for i in range(n):
            for j in range(n):
                e_ij = np.outer(eye[i], eye[j])
                mat += np.kron(e_ij, e_ij.T)
        assert not choi.is_cp(choi.ChoiState(dim_out=n, dim_in=n, matrix=mat))

    def test_lossy_channel_is_cp_not_tp(self):
        dollar = choi.choi_of_kraus([np.sqrt(0.5) * np.eye(2)])
        assert choi.is_cp(dollar)
        assert not choi.is_tp(dollar)

    def test_attack_states_are_cp_tp(self):
        for seed in range(5):
            m = random_attack(3, 5, seed=seed)
            dollar = choi.choi_of_kraus(m.ops)
            assert choi.is_cp(dollar) and choi.is_tp(dollar)
