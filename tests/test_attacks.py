"""Attack constructors, validation, the (K, n, n) representation and the descriptor grammar."""

import dataclasses
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdecoy import attacks
from qdecoy.linalg import inv_sqrt_psd


def _coeff_norm_sq(m):
    return sum(float(np.sum(np.abs(op.reshape(-1)) ** 2)) for op in m.ops)


class TestFromKraus:
    def test_single_identity(self):
        m = attacks.from_kraus([np.eye(3)])
        assert m.dim == 3 and len(m.ops) == 1
        assert m.completeness_residual() <= 1e-15

    def test_incomplete_set_rejected(self):
        proj = np.zeros((2, 2), dtype=complex)
        proj[0, 0] = 1.0
        with pytest.raises(ValueError):
            attacks.from_kraus([proj])

    def test_zero_operator_rejected(self):
        with pytest.raises(ValueError):
            attacks.from_kraus([np.eye(2), np.zeros((2, 2))])

    def test_empty_and_ragged_rejected(self):
        with pytest.raises(ValueError):
            attacks.from_kraus([])
        with pytest.raises(ValueError):
            attacks.from_kraus([np.eye(2), np.eye(3)])
        with pytest.raises(ValueError):
            attacks.from_kraus([np.ones((2, 3))])

    def test_operators_copied_once(self):
        # a 16 MiB stack: the one construction copies it, and validation adds
        # only its 1 MiB Gram blocks and a norm per outcome
        ops = attacks.random_attack(32, seed=1).ops.copy()
        tracemalloc.start()
        try:
            m = attacks.from_kraus(ops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.descriptor == "custom(n=32,k=1024)"
        assert peak < 1.1 * ops.nbytes

    def test_norms_match_linalg_norm(self):
        for m in (attacks.random_attack(3, outcomes=7, seed=2), attacks.projective_attack(4)):
            want = np.linalg.norm(m.ops.reshape(len(m.ops), -1), axis=1)
            npt.assert_allclose(attacks._norms(m.ops), want, rtol=1e-15, atol=0)
        npt.assert_array_equal(attacks._norms(np.zeros((2, 3, 3), dtype=complex)), [0.0, 0.0])
        # a strided view is read as its copy
        npt.assert_allclose(attacks._norms(np.eye(4, dtype=complex)[None, ::2, ::2]), [np.sqrt(2.0)])

    def test_projective_set_coefficient_norm(self):
        n = 4
        eye = np.eye(n, dtype=complex)
        m = attacks.from_kraus([np.outer(eye[r], eye[r]) for r in range(n)])
        npt.assert_allclose(_coeff_norm_sq(m), n, atol=1e-12)

    def test_zero_operator_message_names_outcome_index(self):
        eye = np.eye(2, dtype=complex)
        bad = attacks.GeneralizedMeasurement([eye, eye, np.zeros((2, 2))], descriptor="corrupt")
        with pytest.raises(ValueError, match="outcome 2: zero operator"):
            bad.validate()

    def test_completeness_residual_matches_loop(self):
        m = attacks.random_attack(3, 5, seed=4)
        s = sum(op.conj().T @ op for op in m.ops)
        npt.assert_allclose(attacks.gram_sum(m.ops), s, rtol=0, atol=1e-14)
        assert m.completeness_residual() == pytest.approx(
            float(np.max(np.abs(s - np.eye(3)))), abs=1e-14
        )

    def test_completeness_residual_in_row_blocks(self, monkeypatch):
        m = attacks.random_attack(3, 5, seed=4)
        whole = float(np.max(np.abs(attacks.gram_sum(m.ops) - np.eye(3))))
        monkeypatch.setattr(attacks, "_GRAM_BLOCK_BYTES", 2 * m.ops[0, 0].nbytes)  # 2 rows a block
        assert m.completeness_residual() == pytest.approx(whole, abs=1e-15)
        monkeypatch.setattr(attacks, "_GRAM_BLOCK_BYTES", 1)
        assert m.completeness_residual() == pytest.approx(whole, abs=1e-15)
        bad = attacks.GeneralizedMeasurement(np.concatenate([m.ops, m.ops[:1]]), descriptor="corrupt")
        with pytest.raises(ValueError, match="completeness violated"):
            bad.validate()

    def test_corrupt_instance_fails_validate(self):
        bad = attacks.GeneralizedMeasurement([0.5 * np.eye(2, dtype=complex)], descriptor="corrupt")
        with pytest.raises(ValueError):
            bad.validate()


class TestRepresentation:
    def test_fields_are_ops_and_descriptor(self):
        names = [f.name for f in dataclasses.fields(attacks.GeneralizedMeasurement)]
        assert names == ["ops", "descriptor"]
        m = attacks.random_attack(3, 5, seed=0)
        assert m.ops.shape == (5, 3, 3) and m.ops.dtype == complex and m.dim == 3

    def test_ops_are_read_only(self):
        m = attacks.random_attack(3, seed=0)
        with pytest.raises(ValueError):
            m.ops[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            m.ops[1] *= 2.0

    def test_caller_arrays_are_copied(self):
        ops = [np.eye(2, dtype=complex) / np.sqrt(2), np.eye(2, dtype=complex) / np.sqrt(2)]
        m = attacks.from_kraus(ops)
        ops[0][0, 0] = 5.0
        npt.assert_array_equal(m.ops[0], np.eye(2) / np.sqrt(2))
        stack = np.array([np.eye(2, dtype=complex)])
        bare = attacks.GeneralizedMeasurement(stack, descriptor="bare")
        stack[0, 1, 1] = 7.0
        npt.assert_array_equal(bare.ops[0], np.eye(2))
        assert stack.flags.writeable

    def test_rejects_non_stack_shapes(self):
        for bad in (np.eye(2), np.ones((2, 2, 3)), np.ones(4)):
            with pytest.raises(ValueError, match="stack"):
                attacks.GeneralizedMeasurement(bad)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(2, 6))
    def test_named_families_are_complete_and_round_trip(self, data, n):
        family = data.draw(st.sampled_from(["optimal", "projective", "identity", "prob", "random"]))
        if family == "optimal":
            m = attacks.optimal_attack(n, data.draw(st.floats(1.0 / n, 1.0)))
        elif family == "projective":
            m = attacks.projective_attack(n)
        elif family == "identity":
            m = attacks.identity_attack(n)
        elif family == "prob":
            m = attacks.probabilistic_attack(n, data.draw(st.floats(0.0, 1.0)))
        else:
            k = data.draw(st.integers(1, n * n + 3))
            m = attacks.random_attack(n, k, seed=data.draw(st.integers(0, 2**32 - 1)))
        assert m.completeness_residual() <= 1e-12
        again = attacks.parse_descriptor(m.descriptor)
        assert again.descriptor == m.descriptor
        assert np.array_equal(again.ops, m.ops)


class TestNamedFamilies:
    def test_projective_outcome_count(self):
        assert len(attacks.projective_attack(3).ops) == 3

    def test_identity_is_single_identity(self):
        m = attacks.identity_attack(5)
        assert len(m.ops) == 1
        npt.assert_array_equal(m.ops[0], np.eye(5))

    def test_optimal_frozen_coefficients(self):
        m = attacks.optimal_attack(4, 0.5)
        want = np.diag([np.sqrt(0.5)] + [np.sqrt(1.0 / 6.0)] * 3)
        npt.assert_allclose(m.ops[0], want, atol=1e-15)

    def test_optimal_full_readout_endpoint(self):
        m = attacks.optimal_attack(3, 1.0)
        p = attacks.projective_attack(3)
        for a, b in zip(m.ops, p.ops):
            npt.assert_allclose(a, b, atol=1e-15)

    def test_optimal_do_nothing_endpoint(self):
        n = 4
        m = attacks.optimal_attack(n, 1.0 / n)
        for op in m.ops:
            npt.assert_allclose(op, np.eye(n) / np.sqrt(n), atol=1e-15)

    def test_optimal_domain_guard(self):
        with pytest.raises(ValueError):
            attacks.optimal_attack(3, 0.2)
        with pytest.raises(ValueError):
            attacks.optimal_attack(3, 1.1)
        with pytest.raises(ValueError):
            attacks.optimal_attack(1, 1.0)

    def test_probabilistic_outcome_count_and_completeness(self):
        m = attacks.probabilistic_attack(3, 0.3)
        assert len(m.ops) == 4
        assert m.completeness_residual() <= 1e-12

    def test_probabilistic_degenerate_endpoints(self):
        m0 = attacks.probabilistic_attack(3, 0.0)
        assert len(m0.ops) == 1
        npt.assert_array_equal(m0.ops[0], np.eye(3))
        m1 = attacks.probabilistic_attack(3, 1.0)
        assert len(m1.ops) == 3
        for a, b in zip(m1.ops, attacks.projective_attack(3).ops):
            npt.assert_array_equal(a, b)

    def test_probabilistic_domain_guard(self):
        with pytest.raises(ValueError):
            attacks.probabilistic_attack(3, -0.1)
        with pytest.raises(ValueError):
            attacks.probabilistic_attack(3, 1.5)

    def test_every_constructor_validates(self):
        for m in (
            attacks.projective_attack(4),
            attacks.identity_attack(4),
            attacks.optimal_attack(4, 0.6),
            attacks.probabilistic_attack(4, 0.25),
            attacks.random_attack(4, 7, seed=1),
        ):
            m.validate()
            npt.assert_allclose(_coeff_norm_sq(m), 4, atol=1e-8)


class TestRandomAttack:
    def test_deterministic_per_seed(self):
        a = attacks.random_attack(3, 5, seed=42)
        b = attacks.random_attack(3, 5, seed=42)
        for x, y in zip(a.ops, b.ops):
            assert np.array_equal(x, y)

    def test_different_seeds_differ(self):
        a = attacks.random_attack(3, 5, seed=1)
        b = attacks.random_attack(3, 5, seed=2)
        assert any(not np.array_equal(x, y) for x, y in zip(a.ops, b.ops))

    def test_whitening_matches_per_outcome_product(self):
        # same draw as random_attack's first attempt, whitened one outcome at a time
        rng = np.random.default_rng([5, 0])
        b = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
        s = sum(x.conj().T @ x for x in b)
        w, v = np.linalg.eigh(s)
        s_inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
        m = attacks.random_attack(3, 6, seed=5)
        for op, x in zip(m.ops, b):
            npt.assert_allclose(op, x @ s_inv_sqrt, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [3, 16, 32])
    @pytest.mark.parametrize("seed", [0, 1, 12345678901])
    def test_draw_is_the_two_call_stream(self, n, seed):
        # the real and imaginary parts as two separate draws, summed, then whitened
        rng = np.random.default_rng([seed, 0])
        b = rng.standard_normal((n * n, n, n)) + 1j * rng.standard_normal((n * n, n, n))
        want = b @ inv_sqrt_psd(attacks.gram_sum(b))
        npt.assert_array_equal(attacks.random_attack(n, seed=seed).ops, want)

    def test_build_peak_is_about_two_attacks(self):
        attacks.random_attack(4, seed=0)  # first-call allocations stay out of the count
        tracemalloc.start()
        try:
            m = attacks.random_attack(32, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whitened stack and its copy into the attack, plus one Gram block and small arrays
        assert peak <= 2 * m.ops.nbytes + 2 * 2**20

    def test_default_outcome_count_is_n_squared(self):
        assert len(attacks.random_attack(3, seed=0).ops) == 9

    def test_completeness_across_seeds(self):
        for seed in range(20):
            assert attacks.random_attack(2, 4, seed=seed).completeness_residual() <= 1e-9

    def test_ill_conditioned_draw_is_rewhitened(self):
        # one nearly singular 2x2 outcome: a single whitening pass leaves ~1.4e-11
        assert attacks.random_attack(2, 1, seed=2573).completeness_residual() <= 1e-14

    @pytest.mark.parametrize("rewhiten_tol", [attacks._REWHITEN_TOL, 1.0])
    def test_incomplete_whitening_is_caught(self, monkeypatch, rewhiten_tol):
        # whitening 0.1 % too strong leaves every Gram sum ~1.002 Id: the
        # re-whitened draw's fresh check catches it, and with re-whitening off
        # (tolerance 1.0) the first whitening's reused Gram sum does
        monkeypatch.setattr(attacks, "_REWHITEN_TOL", rewhiten_tol)
        monkeypatch.setattr(attacks, "inv_sqrt_psd", lambda s: 1.001 * inv_sqrt_psd(s))
        with pytest.raises(ValueError, match="completeness violated"):
            attacks.random_attack(3, seed=0)

    def test_outcome_guard(self):
        with pytest.raises(ValueError):
            attacks.random_attack(3, 0, seed=1)


class TestDiagonalAttack:
    def test_projective_coefficients(self):
        n = 3
        m = attacks.diagonal_attack(np.eye(n))
        for a, b in zip(m.ops, attacks.projective_attack(n).ops):
            npt.assert_allclose(a, b, atol=1e-15)

    def test_single_all_ones_is_identity(self):
        m = attacks.diagonal_attack([np.ones(4)])
        npt.assert_array_equal(m.ops[0], np.eye(4))

    def test_optimal_family_expansion(self):
        n, g = 4, 0.37
        lam = np.sqrt(g) - np.sqrt((1 - g) / (n - 1))
        mu = np.sqrt((1 - g) / (n - 1))
        m = attacks.diagonal_attack(lam * np.eye(n) + mu * np.ones((n, n)))
        ref = attacks.optimal_attack(n, g)
        for a, b in zip(m.ops, ref.ops):
            npt.assert_allclose(a, b, atol=1e-14)

    def test_norm_and_completeness_guards(self):
        with pytest.raises(ValueError):
            attacks.diagonal_attack([np.ones(3) * 0.5])
        # right total norm, wrong per-level split
        bad = [np.array([1.2, 0.6]), np.array([0.2, np.sqrt(2 - 1.44 - 0.36 - 0.04)])]
        with pytest.raises(ValueError):
            attacks.diagonal_attack(bad)
        with pytest.raises(ValueError):
            attacks.diagonal_attack([])

    def test_completeness_tolerance_is_default_tol(self):
        # level 1's outcome weights sum to 1 + excess: within DEFAULT_TOL = 1e-9 it is accepted
        for excess, ok in ((5e-10, True), (2e-9, False)):
            table = [[np.sqrt(0.3), np.sqrt(0.5)], [np.sqrt(0.7), np.sqrt(0.5 + excess)]]
            if ok:
                assert len(attacks.diagonal_attack(table).ops) == 2
            else:
                with pytest.raises(ValueError, match="completeness violated"):
                    attacks.diagonal_attack(table)


class TestDescriptors:
    def test_constructor_descriptors_parse_back(self):
        for m in (
            attacks.optimal_attack(4, 0.5),
            attacks.projective_attack(4),
            attacks.identity_attack(4),
            attacks.probabilistic_attack(4, 0.3),
            attacks.random_attack(4, 16, seed=42),
        ):
            again = attacks.parse_descriptor(m.descriptor)
            assert again.descriptor == m.descriptor
            assert len(again.ops) == len(m.ops)
            for a, b in zip(again.ops, m.ops):
                assert np.array_equal(a, b)

    def test_grammar_examples(self):
        assert attacks.parse_descriptor("optimal(n=4,g=0.5)").dim == 4
        assert attacks.parse_descriptor("prob(n=4, p=0.3)").dim == 4
        assert len(attacks.parse_descriptor("random(n=2,k=16,seed=7)").ops) == 16

    def test_repeated_argument_rejected(self):
        for text in ("optimal(n=4,g=0.5,g=0.7)", "random(n=3,k=4,k=5,seed=1)", "identity(n=2, n=2)"):
            with pytest.raises(ValueError, match="repeated argument"):
                attacks.parse_descriptor(text)

    def test_malformed_descriptors_rejected(self):
        bad = [
            "optimal",
            "optimal(n=4,g=0.5",
            "unknown(n=4)",
            "optimal(n=4,q=0.5)",
            "optimal(n=four,g=0.5)",
            "optimal(g=0.5)",
            "prob(n=4)",
            "random(n=4,k=16)",
            "projective(n=4) extra",
        ]
        for text in bad:
            with pytest.raises((ValueError, TypeError)):
                attacks.parse_descriptor(text)
