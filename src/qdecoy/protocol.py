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
detection score uses the exact conditional probability p per trial: identical
in expectation to sampling the receiver's bit, with a variance smaller by the
mean of p(1 - p), and d_se is the standard error of the mean of those scores.
Pass sample_bob=True to sample the bit; d_se is then binomial.

Cost: a report depends only on how many trials fall on each (sent state,
outcome) cell, so a run draws those counts instead of sampling every shot:
one binomial for the number of decoy trials, one multinomial each for the
trials per word and per pair, then each row's outcome counts. A row with at
least K trials draws them with one multinomial over the row; each trial of a
sparser row draws a uniform and runs a vectorized binary search in the row's
CDF, log2(K) steps. g_hat and d_hat are sums over the occupied cells,
weighted by their counts. The per-state tables are O(n^2 K) and built once,
a block of outcomes at a time, by the evaluator's kernels: the message rows
are the weights g_analytic is read from and d_analytic sums the decoy
weights, so both are the evaluator's G and D to the bit. A sparse row holds
fewer than K trials, so sampling costs O(n^2 K) at any shot count, and the
rows go in blocks of about _BLOCK_BYTES, so beyond the tables memory does
not grow with shots. The block layout is part of the seeded stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attacks import GeneralizedMeasurement
from .linalg import check_seed
from .metrics import _outcome_blocks, estimation_fidelity, induced_fidelity_closed

#: conditional probabilities within this of 0 or 1 are physically exact events
#: reported off by float rounding (decoy amplitudes carry 1/sqrt(2) factors)
_SNAP = 1e-12
#: a row whose trials number at least this many per outcome draws its outcome
#: counts with one multinomial over the row; fewer trials each run the binary
#: search. On random(n) attacks (K = n^2, one BLAS thread) the multinomial
#: overtook the search at about 3 K trials at n = 8, 1.5 K at n = 16 and
#: 0.4 K at n = 32
_DENSE_TRIALS_PER_OUTCOME = 1
#: bytes a block of table rows may use while it is sampled and scored; not linalg.BLOCK_BYTES,
#: since with _CELL_BYTES it sets the row edges, which are part of the seeded stream
_BLOCK_BYTES = 2 << 20
#: bytes held per searched trial or filled cell while a block is scored
_CELL_BYTES = 128
#: trial counts are 64-bit integers
_MAX_SHOTS = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class SimReport:
    """Empirical vs analytic (G, D) for one simulated run.

    g_hat/d_hat are None when no trial of that type occurred; the *_within_4se
    flags compare |hat - analytic| against 4 standard errors (g_se is binomial,
    d_se that of the detection scores) and are advisory (a conforming run can
    fail one by chance roughly 1 in 16000).
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


def _pair_tables(a: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-pair outcome tables p_decoy[s, r], w[s, r], and F, from a (K, n, n) Kraus stack.

    s runs over ordered pairs (j, k) flattened as j*n + k; w is the squared
    amplitude |<phi_jk|A_r|phi_jk>|^2 the decoy keeps, filled by
    induced_fidelity_closed in the pass that sums it to F. With
    G_r = A_r†A_r and d[r, j] = <j|G_r|j> from estimation_fidelity, the
    decoy probability is (d_j + d_k)/2 - Im G_jk, and d_j on the diagonal;
    Im G = M - M^T for the real product M = Re(A)^T Im(A). Each table is
    O(K n^2) and built one block of outcomes at a time, so beyond the tables
    the build holds a few block-sized temporaries, never a (K, n, n) one.
    """
    k, n, _ = a.shape
    idx = np.arange(n)
    p_decoy = np.empty((n * n, k))
    for lo, hi, blk in _outcome_blocks(a):
        dg = d[lo:hi]
        prod = blk.real.transpose(0, 2, 1) @ blk.imag
        pd = 0.5 * (dg[:, :, None] + dg[:, None, :]) - (prod - prod.transpose(0, 2, 1))
        pd[:, idx, idx] = dg
        p_decoy[:, lo:hi] = pd.reshape(hi - lo, n * n).T
    weights = np.empty((k, n, n))
    f = induced_fidelity_closed(a, out=weights)
    return p_decoy, weights.reshape(k, n * n).T, f


def _snap_unit(q: np.ndarray) -> np.ndarray:
    q = np.where(np.abs(q) < _SNAP, 0.0, q)
    q = np.where(np.abs(q - 1.0) < _SNAP, 1.0, q)
    return np.clip(q, 0.0, 1.0)


def _normalized(table: np.ndarray) -> np.ndarray:
    """Fresh C-ordered copy of `table`, clamped at 0, rows summing to 1: a transposed p_msg sums alike."""
    p = np.maximum(table, 0.0, order="C")
    p /= p.sum(axis=1, keepdims=True)
    return p


def _sample_outcomes(table: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Draw one outcome per trial: trial i samples row rows[i] of `table` with uniform u[i] in [0, 1).

    Each row is normalized and cumulated once into an (R, K) CDF table; every
    trial then runs the same branch-free search in its row of the flat table,
    log2(K) vectorized steps over all trials at once, for the count of CDF
    entries <= u. Entries are clamped at 0 first so every CDF is
    non-decreasing, and each row's CDF is exactly 1.0 from its last positive
    outcome on, so the count is the first outcome whose CDF exceeds u: an
    outcome of probability zero repeats the entry before it and is never
    drawn, and no count reaches K.
    """
    k = table.shape[1]
    cdf = _normalized(table)
    last = k - 1 - np.argmax(cdf[:, ::-1] > 0, axis=1)
    np.cumsum(cdf, axis=1, out=cdf)
    cdf[np.arange(k) >= last[:, None]] = 1.0
    flat = cdf.ravel()
    base = np.multiply(rows, k, dtype=np.intp)
    pos = base.copy()
    length = k
    # the count of entries <= u, within this row, lies in [pos - base, pos - base + length]
    while length > 1:
        half = length >> 1
        pos += half * (flat[half:].take(pos) <= u)
        length -= half
    pos += flat.take(pos) <= u
    return np.subtract(pos, base, out=pos)


def _multinomial_rows(rng: np.random.Generator, trials: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Outcome counts of `trials[i]` trials over row i of the normalized (R, K) `p`, which it reorders.

    numpy's multinomial is a chain of binomials that hands whatever is left
    after outcome K - 2 to outcome K - 1, so rounding could put a trial on a
    last outcome of probability zero. Each row's likeliest outcome is swapped
    into the last place for the draw, and its count swapped back after.
    """
    i = np.arange(len(p))
    top = p.argmax(axis=1)
    p[i, top], p[i, -1] = p[i, -1], p[i, top]
    got = rng.multinomial(trials, p)
    got[i, top], got[i, -1] = got[i, -1], got[i, top]
    return got


def _blocks(trials: np.ndarray, k: int):
    """Row ranges [lo, hi) of a (len(trials), k) table, each using about _BLOCK_BYTES while sampled.

    A row costs its normalized copy, 8 k bytes, plus _CELL_BYTES for each
    trial it searches or cell it fills, of which there are at most
    _DENSE_TRIALS_PER_OUTCOME * k.
    """
    cost = np.cumsum(8 * k + _CELL_BYTES * np.minimum(trials, _DENSE_TRIALS_PER_OUTCOME * k))
    cuts = np.searchsorted(cost, np.arange(_BLOCK_BYTES, cost[-1], _BLOCK_BYTES), side="right")
    edges = [0, *cuts.tolist(), len(trials)]  # a row dearer than a block leaves an empty range
    return zip(edges[:-1], edges[1:])


def _cells(rng: np.random.Generator, table: np.ndarray, trials: np.ndarray):
    """Yield (rows, outcomes, counts) of the occupied cells of `table`, one block of rows at a time.

    trials[s] trials sample row s. A row with at least _DENSE_TRIALS_PER_OUTCOME
    trials per outcome gets its counts from one multinomial over the row; the
    trials of the other rows each draw a uniform and go through the binary
    search, as cells of count 1. Beyond the tables a block holds about
    _BLOCK_BYTES (`_blocks`), whatever the shot count.
    """
    k = table.shape[1]
    for lo, hi in _blocks(trials, k):
        c = trials[lo:hi]
        if not c.any():
            continue
        is_dense = c >= _DENSE_TRIALS_PER_OUTCOME * k
        dense = np.flatnonzero(is_dense)
        if dense.size:
            got = _multinomial_rows(rng, c[dense], _normalized(table[lo + dense]))
            i, r = np.nonzero(got)
            yield lo + dense[i], r, got[i, r]
        rows = np.repeat(np.arange(hi - lo), np.where(is_dense, 0, c))
        if rows.size:
            yield lo + rows, _sample_outcomes(table[lo:hi], rows, rng.random(rows.size)), 1


def run_protocol(
    attack: GeneralizedMeasurement,
    shots: int,
    decoy_fraction: float = 0.5,
    seed: int = 0,
    sample_bob: bool = False,
) -> SimReport:
    """Simulate `shots` trials; deterministic for fixed arguments and seed."""
    n = attack.dim
    if not 1 <= shots <= _MAX_SHOTS:
        raise ValueError(f"shots must lie in [1, {_MAX_SHOTS}], got {shots}")
    if not 0.0 <= decoy_fraction <= 1.0:
        raise ValueError(f"decoy fraction {decoy_fraction} outside [0, 1]")
    check_seed(seed)

    d = np.empty(attack.ops.shape[:2])
    g_analytic, guesses = estimation_fidelity(attack, out=d)
    p_msg = d.T  # message words are sampled from the weights G is read from
    p_decoy, weights, f = _pair_tables(attack.ops, d)
    d_analytic = 1.0 - f

    rng = np.random.default_rng(seed)
    n_dec = int(rng.binomial(shots, decoy_fraction))
    n_msg = shots - n_dec
    words = rng.multinomial(n_msg, np.full(n, 1.0 / n))
    pairs = rng.multinomial(n_dec, np.full(n * n, 1.0 / (n * n)))

    g_hat = g_se = g_flag = None
    d_hat = d_se = d_flag = None

    if n_msg:
        hits = 0
        for rows, r, count in _cells(rng, p_msg, words):
            hits += int(np.sum(count * (guesses[r] == rows)))
        g_hat = hits / n_msg
        g_se = float(np.sqrt(g_hat * (1.0 - g_hat) / n_msg))
        g_flag = bool(abs(g_hat - g_analytic) <= 4.0 * g_se)

    if n_dec:
        k = p_decoy.shape[1]
        detected = m2 = 0
        for rows, r, count in _cells(rng, p_decoy, pairs):
            p_r = p_decoy.ravel().take(rows * k + r)
            # weights is the transpose of a C-ordered (K, n^2) array: index that flat layout, not a copy
            w_r = weights.T.ravel().take(r * weights.shape[0] + rows)
            intact = np.where(p_r > 0, w_r / np.where(p_r > 0, p_r, 1.0), 1.0)
            detect = _snap_unit(1.0 - intact)
            if sample_bob:
                detected += int(np.sum(rng.binomial(count, detect)))
            else:
                detected += float(np.sum(count * detect))
                m2 += float(np.sum(count * detect**2))
        d_hat = detected / n_dec
        var = d_hat * (1.0 - d_hat) if sample_bob else max(m2 / n_dec - d_hat**2, 0.0)
        d_se = float(np.sqrt(var / n_dec))
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
