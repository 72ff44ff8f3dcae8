"""Monte Carlo simulation of the decoy protocol.

Each trial the sender transmits either a message word |j> (uniform over the n
basis states) or, with probability decoy_fraction, a decoy drawn uniformly
from the n^2 ordered pairs (j, k). The eavesdropper applies her attack, gets
outcome r with probability <psi|A_r†A_r|psi>, guesses j_(r) on message trials,
and forwards the post-measurement state. The receiver projects decoys onto
{intact, tampered}: conditioned on outcome r the intact probability is
|<phi|A_r|phi>|^2 / p(r).

g_hat estimates the eavesdropper's guess success rate on message trials;
d_hat estimates the receiver's detection rate on decoy trials. By default the
detection score uses the exact conditional probability per trial (half the
variance of sampling the receiver's bit; identical in expectation); pass
sample_bob=True to sample it.

Cost: the per-state tables and their CDFs are O(n^2 K), built once per run
whatever the shot count; the outcomes of all message trials, then of all
decoy trials, come from one vectorized binary search each over the flat table
of CDFs, log2(K) steps. Each random draw is cut down to the trials that use
it as soon as it is made, so beyond the tables a run holds about 49 bytes per
shot (tracemalloc, 1e5 to 4e5 shots at n = 16), never a shots x K array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attacks import GeneralizedMeasurement
from .linalg import check_dim
from .metrics import decoy_amplitudes, estimation_fidelity, pairing_fidelity

#: conditional probabilities within this of 0 or 1 are physically exact events
#: reported off by float rounding (decoy amplitudes carry 1/sqrt(2) factors)
_SNAP = 1e-12

#: an attack whose outcome probabilities for some sent state sum further than
#: this from 1 is not complete and is rejected
_COMPLETE_TOL = 1e-9


@dataclass(frozen=True)
class SimReport:
    """Empirical vs analytic (G, D) for one simulated run.

    g_hat/d_hat are None when no trial of that type occurred; the *_within_4se
    flags compare |hat - analytic| against 4 binomial standard errors and are
    advisory (a conforming run can fail one by chance roughly 1 in 16000).
    """

    n: int
    shots: int
    decoy_fraction: float
    seed: int
    attack_descriptor: str
    sample_bob: bool
    message_trials: int
    decoy_trials: int
    g_hat: float | None
    g_se: float | None
    g_analytic: float
    g_within_4se: bool | None
    d_hat: float | None
    d_se: float | None
    d_analytic: float
    d_within_4se: bool | None


@dataclass(frozen=True)
class TrialRecord:
    """Full audit of a single trial: every intermediate probability."""

    kind: str
    sent: tuple
    outcome_probs: tuple
    outcome: int
    guess: int | None
    guess_correct: bool | None
    intact_prob: float | None
    bob_outcome: str | None


def _pair_tables(m: GeneralizedMeasurement) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-state outcome tables: p_msg[j, r], p_decoy[s, r], amp[s, r].

    s runs over ordered pairs (j, k) flattened as j*n + k; amp is the decoy's
    forwarded amplitude <phi_jk|A_r|phi_jk>. With G_r = A_r†A_r, the decoy
    probability is (G_jj + G_kk)/2 - Im G_jk, and G_jj on the diagonal.
    Everything is O(K n^2), so the simulator never materializes ensembles or
    n^4 functional matrices.
    """
    a = m.ops
    k, n, _ = a.shape
    gram = a.conj().transpose(0, 2, 1) @ a
    dg = np.einsum("rjj->rj", gram).real
    pd = 0.5 * (dg[:, :, None] + dg[:, None, :]) - gram.imag
    idx = np.arange(n)
    pd[:, idx, idx] = dg
    p_msg = np.ascontiguousarray(dg.T)
    p_decoy = np.ascontiguousarray(pd.reshape(k, n * n).T)
    return p_msg, p_decoy, decoy_amplitudes(a)


def _check_complete(rows: np.ndarray, what: str) -> None:
    worst = float(np.max(np.abs(rows.sum(axis=1) - 1.0)))
    if worst > _COMPLETE_TOL:
        raise ValueError(
            f"outcome probabilities over {what} sum off by {worst:.3e}; the attack is not complete"
        )


def _snap_unit(q: np.ndarray) -> np.ndarray:
    q = np.where(np.abs(q) < _SNAP, 0.0, q)
    q = np.where(np.abs(q - 1.0) < _SNAP, 1.0, q)
    return np.clip(q, 0.0, 1.0)


def _sample_outcomes(table: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Draw one outcome per trial: trial i samples row rows[i] of `table` with uniform u[i].

    Each row is normalized and cumulated once into an (R, K) CDF table; every
    trial then runs the same branch-free lower bound in its row of the flat
    table, log2(K) vectorized steps over all trials at once. Entries are
    clamped at 0 first so every CDF is non-decreasing, which makes the bound
    exactly the count of CDF entries below u; a row whose last entry rounds
    below 1 is clamped to its last outcome.
    """
    k = table.shape[1]
    cdf = np.maximum(table, 0.0)
    cdf /= cdf.sum(axis=1, keepdims=True)
    flat = np.cumsum(cdf, axis=1, out=cdf).ravel()
    base = np.multiply(rows, k, dtype=np.intp)
    pos = base.copy()
    length = k
    # the count of entries below u, within this row, lies in [pos - base, pos - base + length]
    while length > 1:
        half = length >> 1
        pos += half * (flat[half:].take(pos) < u)
        length -= half
    pos += flat.take(pos) < u
    pos -= base
    return np.minimum(pos, k - 1, out=pos)


def _draw_trials(
    rng: np.random.Generator, n: int, shots: int, decoy_fraction: float, sample_bob: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """The run's draws, each cut down to the trials that use it as soon as it is made.

    The draws keep their order and sizes, so the seeded stream is fixed: trial
    type, message word, decoy pair, outcome uniform and, last, the receiver's
    uniform (drawn only when it is sampled). Returns the message trials' words
    and outcome uniforms, then the decoy trials' pairs, outcome uniforms and
    receiver uniforms (or None).
    """
    is_decoy = rng.random(shots) < decoy_fraction
    msg, dec = np.flatnonzero(~is_decoy), np.flatnonzero(is_decoy)
    words = rng.integers(0, n, size=shots).take(msg)
    pairs = rng.integers(0, n * n, size=shots).take(dec)
    u_out = rng.random(shots)
    u_bob = rng.random(shots).take(dec) if sample_bob else None
    return words, u_out.take(msg), pairs, u_out.take(dec), u_bob


def run_protocol(
    n: int,
    attack: GeneralizedMeasurement,
    shots: int,
    decoy_fraction: float = 0.5,
    seed: int = 0,
    sample_bob: bool = False,
) -> SimReport:
    """Simulate `shots` trials; deterministic for fixed arguments and seed."""
    check_dim(n)
    if attack.dim != n:
        raise ValueError(f"attack dimension {attack.dim} != n = {n}")
    if shots < 1:
        raise ValueError("need at least one shot")
    if not 0.0 <= decoy_fraction <= 1.0:
        raise ValueError(f"decoy fraction {decoy_fraction} outside [0, 1]")

    p_msg, p_decoy, amp = _pair_tables(attack)
    _check_complete(p_msg, "message words")
    _check_complete(p_decoy, "decoys")
    g_analytic, table = estimation_fidelity(attack)
    d_analytic = 1.0 - pairing_fidelity(amp)

    words, u_msg, pairs, u_dec, u_bob = _draw_trials(
        np.random.default_rng(seed), n, shots, decoy_fraction, sample_bob
    )

    g_hat = g_se = g_flag = None
    d_hat = d_se = d_flag = None

    n_msg = words.size
    if n_msg:
        r = _sample_outcomes(p_msg, words, u_msg)
        hits = table.guess[r] == words
        g_hat = float(np.mean(hits))
        g_se = float(np.sqrt(g_hat * (1.0 - g_hat) / n_msg))
        g_flag = bool(abs(g_hat - g_analytic) <= 4.0 * g_se)

    n_dec = pairs.size
    if n_dec:
        r = _sample_outcomes(p_decoy, pairs, u_dec)
        p_r = p_decoy.ravel().take(pairs * p_decoy.shape[1] + r)
        # amp is the transpose of a C-ordered (K, n^2) array: index that flat layout, not a copy
        a_r = amp.T.ravel().take(r * amp.shape[0] + pairs)
        intact = np.where(p_r > 0, np.abs(a_r) ** 2 / np.where(p_r > 0, p_r, 1.0), 1.0)
        detect = _snap_unit(1.0 - intact)
        if sample_bob:
            detect = (u_bob < detect).astype(float)
        d_hat = float(np.mean(detect))
        d_se = float(np.sqrt(d_hat * (1.0 - d_hat) / n_dec))
        d_flag = bool(abs(d_hat - d_analytic) <= 4.0 * d_se)

    return SimReport(
        n=n,
        shots=shots,
        decoy_fraction=float(decoy_fraction),
        seed=int(seed),
        attack_descriptor=attack.descriptor,
        sample_bob=bool(sample_bob),
        message_trials=n_msg,
        decoy_trials=n_dec,
        g_hat=g_hat,
        g_se=g_se,
        g_analytic=float(g_analytic),
        g_within_4se=g_flag,
        d_hat=d_hat,
        d_se=d_se,
        d_analytic=float(d_analytic),
        d_within_4se=d_flag,
    )


def trial_trace(n: int, attack: GeneralizedMeasurement, trial_spec: tuple, seed: int = 0) -> TrialRecord:
    """Run a single fully audited trial.

    trial_spec is ("message", j) or ("decoy", j, k). The record carries the
    complete outcome distribution for the sent state, the sampled outcome, the
    eavesdropper's guess on message trials, and the receiver's conditional
    intact probability and sampled verdict on decoy trials.
    """
    if attack.dim != n:
        raise ValueError(f"attack dimension {attack.dim} != n = {n}")
    p_msg, p_decoy, amp = _pair_tables(attack)
    _, table = estimation_fidelity(attack)
    rng = np.random.default_rng(seed)

    if trial_spec[0] == "message":
        _, j = trial_spec
        if not 0 <= j < n:
            raise ValueError(f"basis index {j} out of range")
        probs = p_msg[j]
    elif trial_spec[0] == "decoy":
        _, j, k = trial_spec
        if not (0 <= j < n and 0 <= k < n):
            raise ValueError(f"pair index ({j},{k}) out of range")
        probs = p_decoy[j * n + k]
    else:
        raise ValueError(f"unknown trial kind {trial_spec[0]!r}")

    _check_complete(probs[None, :], "the sent state")
    r = int(_sample_outcomes(probs[None, :], np.array([0]), rng.random(1))[0])

    if trial_spec[0] == "message":
        guess = int(table.guess[r])
        return TrialRecord(
            kind="message",
            sent=(j,),
            outcome_probs=tuple(float(p) for p in probs),
            outcome=r,
            guess=guess,
            guess_correct=bool(guess == j),
            intact_prob=None,
            bob_outcome=None,
        )

    p_r = float(probs[r])
    intact = abs(amp[j * n + k, r]) ** 2 / p_r if p_r > 0 else 1.0
    intact = float(_snap_unit(np.array([intact]))[0])
    verdict = "intact" if rng.random() < intact else "tamper"
    return TrialRecord(
        kind="decoy",
        sent=(j, k),
        outcome_probs=tuple(float(p) for p in probs),
        outcome=r,
        guess=None,
        guess_correct=None,
        intact_prob=intact,
        bob_outcome=verdict,
    )
