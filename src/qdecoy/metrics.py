"""Estimation fidelity G, induced fidelity F (disturbance D = 1 - F): the
evaluator on the hot path and the independent routes that check it.

G is the eavesdropper's mean success probability at naming the transmitted
basis state: per outcome r she guesses the index j_(r) maximizing
<j|A_r†A_r|j>, and G = (1/n) sum_r <j_(r)|A_r†A_r|j_(r)>. F is the mean
overlap the forwarded state keeps with a decoy, averaged over the pairing
ensemble; the receiver catches tampering with probability D = 1 - F.

The evaluator works on the attack's (K, n, n) Kraus array `ops` in
O(K n^2): estimation_fidelity for G, and induced_fidelity_closed for F, which
sums the squared decoy amplitudes <phi_jk|A_r|phi_jk> a block of outcomes
at a time; decoy_amplitudes fills the whole table from the same blocks.
attack_point, the certification sweep and the protocol's analytic values
all use it.

The other routes compute the same numbers another way and serve only as
oracles for `verify` and the tests:

- the definition sum induced_fidelity, over the states of any Ensemble: each
  amplitude <phi|A_r|phi> is vec(A_r) . (conj(phi) ⊗ phi), so a block of
  states costs one (K, n^2) @ (n^2, B) product, with B bounded by a byte cap;
- the linear functionals of the attack's state operator $: G is a trace
  against the block-diagonal operator € built from the per-outcome guesses
  j_(r), which reduces to squared vec components, so $ is never built
  (estimation_fidelity_functional); F = Tr(L $) for a fixed n^2 x n^2
  operator L, whose O(n^2) nonzero entries are the only entries of $ the
  trace reads (induced_fidelity_functional);
- for attacks with diagonal Kraus operators, the spectral sums
  (spectral_quantities), with G = g/n and D = 1/2 - f/(2n^2) exactly.
"""

from __future__ import annotations

import numpy as np

from .attacks import GeneralizedMeasurement
from .choi import choi_of_kraus
from .ensembles import Ensemble

#: diagonal weights within this of an outcome's largest tie; the lowest index wins
_TIE = 1e-12
#: off-diagonal entries above this make an outcome non-diagonal for spectral_quantities
_DIAGONAL_TOL = 1e-10
#: bytes of temporaries per block of ensemble states in induced_fidelity. A
#: block of a few dozen states (2 MiB at n = 64) is too few columns for the
#: product to keep up with one outcome at a time when K = n; 16 MiB holds
#: over 100 states up to n = 64 and K = n^2
_ORACLE_BLOCK_BYTES = 16 * 2**20
#: bytes of Kraus operators per block of outcomes in _amplitude_blocks; small
#: blocks keep its temporaries in cache and out of the peak
_AMP_BLOCK_BYTES = 128 * 2**10


def estimation_fidelity(m: GeneralizedMeasurement) -> tuple[float, np.ndarray]:
    """G from the definition, the mean best diagonal weight per outcome, and each guess j_(r)."""
    a = m.ops
    d = np.einsum("rij,rij->rj", a.conj(), a).real  # d[r, j] = <j|A_r†A_r|j>
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


def _amplitude_blocks(a: np.ndarray, out: np.ndarray | None = None):
    """Yield the decoy amplitudes of a (K, n, n) Kraus stack one block of outcomes at a time.

    Block entry [r, j, k] is <phi_jk|A_r|phi_jk>. With phi_jk = (|j> + i|k>)/sqrt(2)
    this is (A_jj + A_kk + i A_jk - i A_kj)/2, and A_jj on the diagonal, where
    the decoy is |j> itself. A block covers _AMP_BLOCK_BYTES of operators, so
    its temporaries stay that small; it is written into its rows of `out`, a
    (K, n, n) table, when one is given, else into a new array. Every entry is
    the same complex expression whatever the block.
    """
    k, n, _ = a.shape
    step = max(1, _AMP_BLOCK_BYTES // (16 * n * n))
    idx = np.arange(n)
    for lo in range(0, k, step):
        blk = a[lo : lo + step]
        d = np.einsum("rjj->rj", blk)
        amp = np.multiply(
            0.5,
            d[:, :, None] + d[:, None, :] + 1j * (blk - blk.transpose(0, 2, 1)),
            out=None if out is None else out[lo : lo + step],
        )
        amp[:, idx, idx] = d
        yield amp


def decoy_amplitudes(a: np.ndarray) -> np.ndarray:
    """amp[j*n + k, r] = <phi_jk|A_r|phi_jk> for a (K, n, n) Kraus stack.

    The table is filled by _amplitude_blocks, so it holds no (K, n, n)
    temporary besides itself.
    """
    k, n, _ = a.shape
    amp = np.empty((k, n, n), dtype=complex)
    for _ in _amplitude_blocks(a, out=amp):
        pass
    return amp.reshape(k, n * n).T


def pairing_fidelity(amp: np.ndarray) -> float:
    """F from the (n^2, K) decoy amplitudes: sum_{s,r} |amp[s, r]|^2 / n^2."""
    return float(np.sum(np.abs(amp) ** 2) / amp.shape[0])


def induced_fidelity_closed(a: np.ndarray) -> float:
    """F over the pairing ensemble in O(K n^2): the squared decoy amplitudes,
    summed one block of outcomes at a time, so no (K, n, n) table is built."""
    n = a.shape[1]
    total = 0.0
    for amp in _amplitude_blocks(a):
        total += np.sum(np.abs(amp) ** 2)
    return float(total / (n * n))


def induced_fidelity(m: GeneralizedMeasurement, e: Ensemble) -> float:
    """F from the definition: sum_i p_i sum_r |<phi_i|A_r|phi_i>|^2.

    <phi|A|phi> = vec(A) . (conj(phi) ⊗ phi), so each block of ensemble
    states is one (K, n^2) @ (n^2, B) product, with its temporaries bounded
    by _ORACLE_BLOCK_BYTES.
    """
    if e.dim != m.dim:
        raise ValueError(f"ensemble dimension {e.dim} != measurement dimension {m.dim}")
    n, k = m.dim, len(m.ops)
    weights, kets = e.weights, e.kets
    vecs = m.ops.reshape(k, n * n)
    # bytes per state, at most: its complex n^2 column, plus K complex
    # amplitudes and their K moduli, or K moduli and their K squares
    block = max(1, _ORACLE_BLOCK_BYTES // (16 * n * n + 24 * k))
    total = 0.0
    for start in range(0, len(kets), block):
        ket = kets[start:start + block]
        cols = (ket.conj()[:, :, None] * ket[:, None, :]).reshape(len(ket), n * n)
        per_state = np.sum(np.abs(vecs @ cols.T) ** 2, axis=0)
        total += float(weights[start:start + block] @ per_state)
    return total


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


def spectral_quantities(m: GeneralizedMeasurement) -> tuple[float, float]:
    """(g, f) for attacks with diagonal Kraus operators.

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


def banaszek_bound(g: float, m: int, n: int) -> float:
    """Largest f compatible with spectral weight g: (sqrt(g) + sqrt((m-1)(n-g)))^2.

    Holds for any coefficient vector of norm^2 = n split over m outcomes.
    """
    if m < 1:
        raise ValueError("need at least one outcome")
    if g < 0 or g > n:
        raise ValueError(f"spectral weight {g} outside [0, {n}]")
    return float((np.sqrt(g) + np.sqrt((m - 1) * (n - g))) ** 2)
