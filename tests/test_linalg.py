"""Linear algebra primitives against naive independent oracles."""

import numpy as np
import numpy.testing as npt
import pytest

from qdecoy import linalg


def _rand_complex(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def _kron_naive(a, b):
    """Quadruple-loop Kronecker product, the elementwise definition."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for p in range(rb):
                for q in range(cb):
                    out[i * rb + p, j * cb + q] = a[i, j] * b[p, q]
    return out


class TestKron:
    """np.kron's block layout is the composite-index convention (i, j) -> i*dim2 + j
    that partial_trace and the state-operator tools assume."""

    def test_identity_case(self):
        npt.assert_array_equal(np.kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_diagonal_case(self):
        npt.assert_array_equal(
            np.kron(np.diag([1.0, 2.0]), np.eye(2)), np.diag([1.0, 1.0, 2.0, 2.0])
        )

    def test_block_placement_against_naive_loop(self):
        rng = np.random.default_rng(3)
        proj = np.zeros((2, 2))
        proj[0, 0] = 1.0
        rho = _rand_complex(rng, 2, 2)
        got = np.kron(proj, rho)
        npt.assert_allclose(got, _kron_naive(proj, rho), atol=1e-15)
        npt.assert_allclose(got[:2, :2], rho, atol=1e-15)
        assert np.all(got[2:, :] == 0) and np.all(got[:, 2:] == 0)

    def test_matches_naive_loop_on_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            a = _rand_complex(rng, 2, 3)
            b = _rand_complex(rng, 3, 2)
            npt.assert_allclose(np.kron(a, b), _kron_naive(a, b), atol=1e-13)

    def test_associativity(self):
        rng = np.random.default_rng(5)
        a = _rand_complex(rng, 2, 2)
        b = _rand_complex(rng, 3, 3)
        c = _rand_complex(rng, 2, 2)
        npt.assert_allclose(
            np.kron(np.kron(a, b), c), np.kron(a, np.kron(b, c)), atol=1e-12
        )


class TestCheckDim:
    def test_accepts_two_and_up_and_names_the_bad_value(self):
        for n in (2, 3, 64):
            linalg.check_dim(n)
        for n in (1, 0, -3):
            with pytest.raises(ValueError, match=f"need dimension n >= 2, got {n}"):
                linalg.check_dim(n)


class TestPartialTrace:
    def test_product_state_factorization(self):
        rng = np.random.default_rng(7)
        a = _rand_complex(rng, 3, 3)
        b = _rand_complex(rng, 2, 2)
        npt.assert_allclose(
            linalg.partial_trace(np.kron(a, b), 3, 2, "second"), a * np.trace(b), atol=1e-13
        )
        npt.assert_allclose(
            linalg.partial_trace(np.kron(a, b), 3, 2, "first"), b * np.trace(a), atol=1e-13
        )

    def test_identity_reduces_to_scaled_identity(self):
        n = 3
        npt.assert_allclose(linalg.partial_trace(np.eye(n * n), n, n, "first"), n * np.eye(n))

    def test_identity_channel_state_reduces_to_identity(self):
        # state operator of the identity channel on n=2, built by hand:
        # vec(Id) vec(Id)† with vec(Id) = (1,0,0,1)
        v = np.array([1.0, 0.0, 0.0, 1.0])
        dollar = np.outer(v, v)
        npt.assert_allclose(linalg.partial_trace(dollar, 2, 2, "first"), np.eye(2), atol=1e-15)

    def test_matches_explicit_loop(self):
        rng = np.random.default_rng(9)
        m = _rand_complex(rng, 6, 6)
        want = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for k in range(2):
                for j in range(3):
                    want[i, k] += m[i * 3 + j, k * 3 + j]
        npt.assert_allclose(linalg.partial_trace(m, 2, 3, "second"), want, atol=1e-14)
        want1 = np.zeros((3, 3), dtype=complex)
        for j in range(3):
            for l in range(3):
                for i in range(2):
                    want1[j, l] += m[i * 3 + j, i * 3 + l]
        npt.assert_allclose(linalg.partial_trace(m, 2, 3, "first"), want1, atol=1e-14)

    def test_trace_preserved_both_ways(self):
        rng = np.random.default_rng(13)
        m = _rand_complex(rng, 6, 6)
        for which in ("first", "second"):
            npt.assert_allclose(
                np.trace(linalg.partial_trace(m, 2, 3, which)), np.trace(m), atol=1e-12
            )

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            linalg.partial_trace(np.eye(5), 2, 3, "first")
        with pytest.raises(ValueError):
            linalg.partial_trace(np.eye(6), 2, 3, "sideways")


class TestHermEig:
    def test_identity_spectrum(self):
        w, _ = linalg.herm_eig(np.eye(3))
        npt.assert_allclose(w, np.ones(3))

    def test_diagonal_ascending_with_permutation_vectors(self):
        w, v = linalg.herm_eig(np.diag([3.0, -1.0]))
        npt.assert_allclose(w, [-1.0, 3.0])
        npt.assert_allclose(np.abs(v), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_rank_one_projector_spectrum(self):
        beta = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        w, v = linalg.herm_eig(np.outer(beta, beta))
        npt.assert_allclose(w, [0.0, 0.0, 0.0, 1.0], atol=1e-14)
        top = v[:, -1]
        npt.assert_allclose(np.abs(top @ beta), 1.0, atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(17)
        a = _rand_complex(rng, 5, 5)
        h = a + a.conj().T
        w, v = linalg.herm_eig(h)
        scale = 1.0 + np.max(np.abs(h))
        assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - h)) <= 1e-10 * scale
        npt.assert_allclose(v.conj().T @ v, np.eye(5), atol=1e-10)
        assert np.all(np.diff(w) >= 0)

    def test_non_hermitian_raises(self):
        with pytest.raises(ValueError):
            linalg.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPsdCheck:
    def test_identity_is_psd(self):
        assert linalg.psd_check(np.eye(4))

    def test_indefinite_diagonal_is_not(self):
        assert not linalg.psd_check(np.diag([1.0, -0.5]))

    def test_transpose_map_state_operator_is_not_psd(self):
        # sum_ij |i><j| (x) (|i><j|)^t on n=2 is the SWAP matrix: eigenvalue -1
        n = 2
        eye = np.eye(n)
        dollar = np.zeros((n * n, n * n))
        for i in range(n):
            for j in range(n):
                e_ij = np.outer(eye[i], eye[j])
                dollar += np.kron(e_ij, e_ij.T)
        w, _ = linalg.herm_eig(dollar)
        npt.assert_allclose(w[0], -1.0, atol=1e-12)
        assert not linalg.psd_check(dollar)

    def test_gram_matrices_are_psd(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = _rand_complex(rng, 4, 4)
            assert linalg.psd_check(a @ a.conj().T)


class TestInvSqrtPsd:
    def test_identity_fixed_point(self):
        npt.assert_allclose(linalg.inv_sqrt_psd(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal_case(self):
        npt.assert_allclose(
            linalg.inv_sqrt_psd(np.diag([4.0, 1.0])), np.diag([0.5, 1.0]), atol=1e-14
        )

    def test_roundtrip_on_random_psd(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            a = _rand_complex(rng, 4, 4)
            h = a @ a.conj().T + 0.1 * np.eye(4)
            s = linalg.inv_sqrt_psd(h)
            npt.assert_allclose(s @ h @ s, np.eye(4), atol=1e-9)

    def test_singular_raises(self):
        with pytest.raises(ValueError):
            linalg.inv_sqrt_psd(np.diag([1.0, 0.0]))
        with pytest.raises(ValueError):
            linalg.inv_sqrt_psd(np.diag([1.0, -1.0]))

    def test_positivity_threshold_is_default_tol(self):
        # the smallest eigenvalue must reach DEFAULT_TOL = 1e-9
        with pytest.raises(ValueError, match="not strictly positive"):
            linalg.inv_sqrt_psd(np.diag([1.0, 5e-10]))
        s = linalg.inv_sqrt_psd(np.diag([1.0, 2e-9]))
        npt.assert_allclose(s @ np.diag([1.0, 2e-9]) @ s, np.eye(2), atol=1e-12)


class TestIsHermitian:
    def test_accepts_hermitian_within_tolerance(self):
        h = np.array([[1.0, 1j], [-1j, 2.0]])
        assert linalg.is_hermitian(h)
        assert linalg.is_hermitian(h + 1e-12 * np.array([[0, 1], [0, 0]]))

    def test_rejects_non_hermitian_and_non_square(self):
        assert not linalg.is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not linalg.is_hermitian(np.ones((2, 3)))
