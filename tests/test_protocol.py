"""Tests for the Monte Carlo decoy protocol simulator."""

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
from qdecoy.metrics import estimation_fidelity, induced_fidelity
from qdecoy.protocol import _pair_tables, run_protocol, trial_trace


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

    def test_incomplete_attack_rejected(self):
        bad = GeneralizedMeasurement(
            dim=2, kraus=((0, 0.9 * np.eye(2, dtype=complex)),), descriptor="corrupt"
        )
        with pytest.raises(ValueError, match="not complete"):
            run_protocol(2, bad, shots=10, seed=0)

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


class TestTrialTrace:
    def test_identity_decoy_always_intact(self):
        for seed in range(5):
            rec = trial_trace(2, identity_attack(2), ("decoy", 0, 1), seed=seed)
            assert rec.kind == "decoy"
            assert rec.sent == (0, 1)
            assert rec.outcome_probs == (1.0,)
            assert rec.intact_prob == 1.0
            assert rec.bob_outcome == "intact"
            assert rec.guess is None

    def test_projective_decoy_fifty_fifty(self):
        rec = trial_trace(2, projective_attack(2), ("decoy", 0, 1), seed=0)
        assert_allclose(rec.outcome_probs, (0.5, 0.5), rtol=0, atol=1e-15)
        assert rec.intact_prob == 0.5
        assert rec.outcome in (0, 1)
        verdicts = [
            trial_trace(2, projective_attack(2), ("decoy", 0, 1), seed=s).bob_outcome
            for s in range(200)
        ]
        tamper_rate = verdicts.count("tamper") / 200
        assert 0.35 < tamper_rate < 0.65

    def test_projective_message_is_read_exactly(self):
        rec = trial_trace(3, projective_attack(3), ("message", 1), seed=4)
        assert rec.kind == "message"
        assert rec.sent == (1,)
        assert rec.outcome == 1
        assert rec.guess == 1
        assert rec.guess_correct
        assert rec.intact_prob is None
        assert_allclose(rec.outcome_probs, (0.0, 1.0, 0.0), rtol=0, atol=1e-15)

    def test_probabilities_sum_to_one(self):
        rec = trial_trace(3, random_attack(3, seed=5), ("decoy", 2, 0), seed=1)
        assert_allclose(sum(rec.outcome_probs), 1.0, rtol=0, atol=1e-9)

    def test_deterministic(self):
        m = random_attack(2, seed=9)
        assert trial_trace(2, m, ("decoy", 1, 0), seed=3) == trial_trace(
            2, m, ("decoy", 1, 0), seed=3
        )

    def test_malformed_specs(self):
        m = identity_attack(2)
        with pytest.raises(ValueError):
            trial_trace(2, m, ("message", 5))
        with pytest.raises(ValueError):
            trial_trace(2, m, ("decoy", 0, 5))
        with pytest.raises(ValueError):
            trial_trace(2, m, ("noise", 0))
        with pytest.raises(ValueError):
            trial_trace(3, m, ("message", 0))

    def test_incomplete_attack_rejected(self):
        bad = GeneralizedMeasurement(
            dim=2, kraus=((0, 0.9 * np.eye(2, dtype=complex)),), descriptor="corrupt"
        )
        with pytest.raises(ValueError, match="not complete"):
            trial_trace(2, bad, ("decoy", 0, 1))
