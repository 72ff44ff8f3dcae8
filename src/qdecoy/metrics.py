"""Estimation fidelity G, induced fidelity F (disturbance D = 1 - F): the
evaluator on the hot path and the independent routes that check it.

G is the eavesdropper's mean success probability at naming the transmitted
basis state: per outcome r she guesses the index j_(r) maximizing
<j|A_r†A_r|j>, and G = (1/n) sum_r <j_(r)|A_r†A_r|j_(r)>. F is the mean
overlap the forwarded state keeps with a decoy, averaged over the pairing
ensemble; the receiver catches tampering with probability D = 1 - F.

The evaluator works on the attack's (K, n, n) Kraus array `ops` in
O(K n^2): estimation_fidelity for G, and induced_fidelity_closed for F, which
sums the squared decoy amplitudes <phi_jk|A_r|phi_jk> (decoy_amplitudes).
attack_point, the certification sweep and the protocol's analytic values
all use it.

The other routes compute the same numbers another way and serve only as
oracles for `verify` and the tests:

- the definition sum induced_fidelity, over the states of any Ensemble: each
  amplitude <phi|A_r|phi> is vec(A_r) . (conj(phi) ⊗ phi), so a block of
  states costs one (K, n^2) @ (n^2, B) product, with B bounded by a byte cap;
- the linear functionals of the attack's state operator $: G is a trace
  against the block-diagonal operator € built from the per-outcome guesses
  j_(r) (estimation_fidelity_functional), F = Tr(L $) for a fixed n^2 x n^2
  matrix L (pound_matrix, induced_fidelity_functional);
- for attacks with diagonal Kraus operators, the spectral sums
  (spectral_quantities), with G = g/n and D = 1/2 - f/(2n^2) exactly.
"""

from __future__ import annotations

from functools import lru_cache

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


def decoy_amplitudes(a: np.ndarray) -> np.ndarray:
    """amp[j*n + k, r] = <phi_jk|A_r|phi_jk> for a (K, n, n) Kraus stack.

    With phi_jk = (|j> + i|k>)/sqrt(2) this is
    (A_jj + A_kk + i A_jk - i A_kj)/2, and A_jj on the diagonal, where the
    decoy is |j> itself.
    """
    k, n, _ = a.shape
    diag = np.einsum("rjj->rj", a)
    amp = 0.5 * (diag[:, :, None] + diag[:, None, :] + 1j * (a - a.transpose(0, 2, 1)))
    idx = np.arange(n)
    amp[:, idx, idx] = diag
    return amp.reshape(k, n * n).T


def pairing_fidelity(amp: np.ndarray) -> float:
    """F from the (n^2, K) decoy amplitudes: sum_{s,r} |amp[s, r]|^2 / n^2."""
    return float(np.sum(np.abs(amp) ** 2) / amp.shape[0])


def induced_fidelity_closed(a: np.ndarray) -> float:
    """F over the pairing ensemble in O(K n^2), from `decoy_amplitudes`."""
    return pairing_fidelity(decoy_amplitudes(a))


def induced_fidelity(m: GeneralizedMeasurement, e: Ensemble) -> float:
    """F from the definition: sum_i p_i sum_r |<phi_i|A_r|phi_i>|^2.

    <phi|A|phi> = vec(A) . (conj(phi) ⊗ phi), so each block of ensemble
    states is one (K, n^2) @ (n^2, B) product, with its temporaries bounded
    by _ORACLE_BLOCK_BYTES.
    """
    if e.dim != m.dim:
        raise ValueError(f"ensemble dimension {e.dim} != measurement dimension {m.dim}")
    n, k = m.dim, len(m.ops)
    weights = np.array([w for w, _ in e.items])
    kets = np.array([ket for _, ket in e.items])
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


def beta_vector(n: int) -> np.ndarray:
    """Maximally entangled unit vector (1/sqrt(n)) sum_j |jj>."""
    beta = np.zeros(n * n)
    beta[np.arange(n) * n + np.arange(n)] = 1.0 / np.sqrt(n)
    return beta


@lru_cache(maxsize=None)
def pound_matrix(n: int) -> np.ndarray:
    """The n^2 x n^2 operator L with F = Tr(L $) on the pairing ensemble.

    L = (1/2n) P_rep + (1/2n) P_beta P_rep + (1/n^2) sum_{j<k} singlet
    projectors on the nonrepeated subspace. All entries are real.
    """
    rep = np.arange(n) * n + np.arange(n)
    p_rep = np.zeros((n * n, n * n))
    p_rep[rep, rep] = 1.0
    beta = beta_vector(n)
    # beta lives on the repeated indices, so P_beta P_rep = |beta><beta|
    pound = (p_rep + np.outer(beta, beta)) / (2 * n)
    # singlet (|jk> - |kj>)/sqrt(2) for each j < k, on disjoint index pairs
    j, k = np.triu_indices(n, 1)
    jk, kj = j * n + k, k * n + j
    h = 1.0 / np.sqrt(2)
    w = h * h / (n * n)  # not 0.5 / n^2: keeps L bit-identical to sum_jk outer(s, s) / n^2
    pound[jk, jk] = pound[kj, kj] = w
    pound[jk, kj] = pound[kj, jk] = -w
    pound.setflags(write=False)
    return pound


def induced_fidelity_functional(m: GeneralizedMeasurement) -> float:
    """F = Tr(L $) with $ the attack's state operator."""
    pound = pound_matrix(m.dim)
    choi = choi_of_kraus(m.ops)
    # L is real and symmetric: Tr(L $) = sum_ij L_ij Re $_ij, read row by row
    return float(np.einsum("ij,ij->", pound, choi.matrix.real))


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
