"""Estimation fidelity G, induced fidelity F (disturbance D = 1 - F): the
evaluator on the hot path and the independent routes that check it.

G is the eavesdropper's mean success probability at naming the transmitted
basis state: per outcome r she guesses the index j_(r) maximizing
<j|A_r†A_r|j>, and G = (1/n) sum_r <j_(r)|A_r†A_r|j_(r)>. F is the mean
overlap the forwarded state keeps with a decoy, averaged over the pairing
ensemble; the receiver catches tampering with probability D = 1 - F.

The evaluator works on the attack's (K, n, n) Kraus array `ops` in
O(K n^2), one block of outcomes at a time: estimation_fidelity for G, from
the diagonal weights <j|A_r†A_r|j>, and induced_fidelity_closed for F, which
sums the squared decoy amplitudes |<phi_jk|A_r|phi_jk>|^2. Each can keep its
table for the protocol. attack_point, the certification sweep and the
protocol's analytic values all use it, and the search in `tradeoff` reads
F's gradient from the same decoy amplitudes (_decoy_amplitudes).

The other routes compute the same numbers another way and serve only as
oracles for `verify` and the tests:

- the definition sum induced_fidelity, over the states of any Ensemble: each
  amplitude <phi|A_r|phi> is vec(A_r) . (conj(phi) ⊗ phi), read on the w
  nonzero entries of conj(phi) ⊗ phi that the ensemble keeps (w = 4 for the
  pairing decoys), so N states cost O(K N w), a block of outcomes at a time;
- the linear functionals of the attack's state operator $: G is a trace
  against the block-diagonal operator € built from the per-outcome guesses
  j_(r), which reduces to squared vec components, so $ is never built
  (estimation_fidelity_functional); F = Tr(L $) for a fixed n^2 x n^2
  operator L, whose O(n^2) nonzero entries are the only entries of $ the
  trace reads (induced_fidelity_functional).

The paper's sums for diagonal attacks, with G = g/n and D = 1/2 - f/(2n^2),
and its coefficient-vector bound on f live in tests/test_metrics.py, their
only caller.
"""

from __future__ import annotations

import numpy as np

from .attacks import GeneralizedMeasurement
from .choi import choi_of_kraus
from .ensembles import Ensemble
from .linalg import blocks

#: diagonal weights within this of an outcome's largest tie; the lowest index wins
_TIE = 1e-12


def _outcome_blocks(a: np.ndarray):
    """Yield (lo, hi, a[lo:hi]) over a (K, n, n) Kraus stack by `blocks`, at 128 n^2 bytes of temporaries an outcome."""
    for lo, hi in blocks(len(a), 128 * a.shape[1] ** 2):
        yield lo, hi, a[lo:hi]


def estimation_fidelity(m: GeneralizedMeasurement, out: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """G from the definition, the mean best diagonal weight per outcome, and each guess j_(r).

    The weights d[r, j] = <j|A_r†A_r|j> are kept in `out`, a real (K, n) table, when one is given.
    """
    a = m.ops
    d = np.empty(a.shape[:2]) if out is None else out
    for lo, hi, blk in _outcome_blocks(a):
        d[lo:hi] = np.einsum("rij,rij->rj", blk.conj(), blk).real
    guesses = np.argmax(d >= d.max(axis=1, keepdims=True) - _TIE, axis=1)
    weights = d[np.arange(len(d)), guesses]
    return float(weights.sum() / m.dim), guesses


def estimation_fidelity_functional(m: GeneralizedMeasurement) -> float:
    """G as the trace of € against the attack's state operator.

    € is block-diagonal over the outcome register, so the trace reduces per
    outcome to the squared vec components at input index j_(r).
    """
    n = m.dim
    _, guesses = estimation_fidelity(m)
    vecs = m.ops.reshape(len(guesses), n * n)
    idx = np.arange(n) * n + guesses[:, None]  # vec index (i, j_(r)) per outcome
    return float(np.sum(np.abs(np.take_along_axis(vecs, idx, axis=1)) ** 2) / n)


def _decoy_amplitudes(a: np.ndarray) -> np.ndarray:
    """The decoy amplitudes of a (K, n, n) Kraus stack: entry [r, j, k] is <phi_jk|A_r|phi_jk>.

    With phi_jk = (|j> + i|k>)/sqrt(2) the amplitude is
    (A_jj + A_kk + i A_jk - i A_kj)/2, and A_jj on the diagonal, where the
    decoy is |j> itself.
    """
    idx = np.arange(a.shape[1])
    d = np.einsum("rjj->rj", a)
    amp = 0.5 * (d[:, :, None] + d[:, None, :] + 1j * (a - a.transpose(0, 2, 1)))
    amp[:, idx, idx] = d
    return amp


def induced_fidelity_closed(a: np.ndarray, out: np.ndarray | None = None) -> float:
    """F over the pairing ensemble in O(K n^2): the squared decoy amplitudes
    |<phi_jk|A_r|phi_jk>|^2 (_decoy_amplitudes), summed one block of outcomes at a time.

    Given a real (K, n, n) `out`, each block's squares are written into its
    rows there, so the protocol's weight table and its F come from one pass;
    every entry is the same expression whatever the block.
    """
    n = a.shape[1]
    total = 0.0
    for lo, hi, blk in _outcome_blocks(a):
        w = np.abs(_decoy_amplitudes(blk), out=None if out is None else out[lo:hi])
        total += np.sum(np.square(w, out=w))
    return float(total / (n * n))


def induced_fidelity(m: GeneralizedMeasurement, e: Ensemble) -> float:
    """F from the definition: sum_i p_i sum_r |<phi_i|A_r|phi_i>|^2.

    <phi|A|phi> = vec(A) . (conj(phi) ⊗ phi), and the ensemble keeps only
    the w nonzero entries of each conj(phi) ⊗ phi (`support`, `coef`), so
    the N amplitudes of one outcome are w gathers of its vec components,
    each scaled by one coefficient per state: O(K N w) in all. Outcomes go
    a block at a time (`blocks`), so each block's vec rows stay in cache
    while every state reads them, with the block's temporaries within the
    shared budget (one outcome's, if those alone are larger).
    """
    if e.dim != m.dim:
        raise ValueError(f"ensemble dimension {e.dim} != measurement dimension {m.dim}")
    n, k = m.dim, len(m.ops)
    vecs = m.ops.reshape(k, n * n)
    support, coef = e.support, e.coef
    per_state = np.zeros(len(e.weights))
    # bytes per outcome, at most: N complex amplitudes, and the N vec
    # components of one slot with their N products
    for lo, hi in blocks(k, 48 * len(e.weights)):
        blk = vecs[lo:hi]
        amp = blk[:, support[:, 0]] * coef[:, 0]
        for slot in range(1, support.shape[1]):
            amp += blk[:, support[:, slot]] * coef[:, slot]
        w = np.abs(amp)
        per_state += np.sum(np.square(w, out=w), axis=0)
        del amp, w  # freed before the next block's are made
    return float(e.weights @ per_state)


def induced_fidelity_functional(m: GeneralizedMeasurement) -> float:
    """F = Tr(L $) with $ the attack's state operator, read from the O(n^2) entries L touches.

    L is real and symmetric, so Tr(L $) = sum_ij L_ij Re $_ij. It is the sum
    of 1/(2n) on each repeated index |jj><jj|, 1/(2n^2) on each |jj><kk|
    (the rank-one block of the maximally entangled vector), and the 2x2
    singlet block of weight 1/(2n^2) on each pair j < k:

        F = (1/2n) sum_j Re $[jj,jj] + (1/2n^2) sum_{j,k} Re $[jj,kk]
            + (1/2n^2) sum_{j<k} Re($[jk,jk] + $[kj,kj] - $[jk,kj] - $[kj,jk]).
    """
    n = m.dim
    dollar = choi_of_kraus(m.ops).matrix.real
    rep = np.arange(n) * (n + 1)  # |jj>
    j, k = np.triu_indices(n, 1)
    jk, kj = j * n + k, k * n + j
    singlets = dollar[jk, jk].sum() + dollar[kj, kj].sum() - dollar[jk, kj].sum() - dollar[kj, jk].sum()
    beta_block = dollar[np.ix_(rep, rep)].sum()
    return float(dollar[rep, rep].sum() / (2 * n) + (beta_block + singlets) / (2 * n * n))
