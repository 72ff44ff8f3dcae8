"""Decoy states and the pairing ensemble.

The sender's message words are the n basis states, drawn uniformly. Decoys
are drawn from the pairing ensemble: the n^2 states (|j> + i|k>)/sqrt(2) over
ordered pairs (j, k), weight 1/n^2 each, where the j = k entry is the basis
state |j> itself. Both mixtures average to Id/n, so an eavesdropper cannot
tell messages from decoys. The receiver tests decoy |phi> with the projector
pair {|phi><phi|, Id - |phi><phi|}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import check_dim

#: largest accepted deviation of the total weight, or of a ket's norm, from 1
_UNIT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Finite ensemble of pure states: `weights` (N,) and unit `kets` (N, dim).

    Construction copies both into read-only arrays, after checking that their
    shapes agree, that the weights are nonnegative and sum to 1 and that every
    ket has unit norm. It also keeps the nonzero entries of each state's
    vector conj(phi) ⊗ phi, which the definition sum reads. Row i of
    `support` (N, w) holds vec indices a*dim + b over the pairs of nonzero
    positions a, b of ket i, and row i of `coef` (N, w) the entries
    conj(phi_a) phi_b there; w is the widest state's count, and narrower
    rows are padded with zero coefficients. A decoy of the pairing ensemble
    touches two basis states, so w = 4 there; dense kets give w = dim^2.
    Both come from each ket's nonzero positions, never from an (N, dim^2)
    table. Ensembles compare and hash by identity.
    """

    weights: np.ndarray
    kets: np.ndarray
    support: np.ndarray = field(init=False, repr=False)
    coef: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float)
        kets = np.array(self.kets, dtype=complex)
        if weights.ndim != 1 or kets.ndim != 2 or len(kets) != len(weights):
            raise ValueError(f"weights of shape {weights.shape} and kets of shape {kets.shape} do not agree")
        if not np.all(weights >= 0):
            raise ValueError(f"weights must be nonnegative, got {weights.min()!r}")
        if not abs(weights.sum() - 1.0) <= _UNIT_TOL:
            raise ValueError(f"weights sum to {weights.sum()!r}, not 1")
        if not np.all(np.abs(np.linalg.norm(kets, axis=1) - 1.0) <= _UNIT_TOL):
            raise ValueError("ket is not normalized")
        nonzero = kets != 0
        counts = nonzero.sum(axis=1, keepdims=True)
        s = int(counts.max())
        # each row's nonzero positions first, in index order; the padding
        # positions past a row's count get zero amplitude
        pos = np.argsort(~nonzero, axis=1, kind="stable")[:, :s]
        amp = np.take_along_axis(kets, pos, axis=1)
        amp[np.arange(s) >= counts] = 0
        support = (pos[:, :, None] * kets.shape[1] + pos[:, None, :]).reshape(len(kets), s * s)
        coef = (amp.conj()[:, :, None] * amp[:, None, :]).reshape(len(kets), s * s)
        for name, arr in (("weights", weights), ("kets", kets), ("support", support), ("coef", coef)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.kets.shape[1]


def _check_index(j: int, n: int) -> None:
    if not 0 <= j < n:
        raise ValueError(f"basis index {j} out of range for dimension {n}")


def decoy_ket(j: int, k: int, n: int) -> np.ndarray:
    """Decoy state (|j> + i|k>)/sqrt(2), or |j> itself when j = k."""
    _check_index(j, n)
    _check_index(k, n)
    ket = np.zeros(n, dtype=complex)
    if j == k:
        # the pair formula gives |j>(1+i)/sqrt(2); return the phase-canonical |j>
        ket[j] = 1.0
        return ket
    ket[j] = 1.0 / np.sqrt(2.0)
    ket[k] = 1.0j / np.sqrt(2.0)
    return ket


def pairing_ensemble(n: int) -> Ensemble:
    """Uniform mixture of the n^2 decoy states over ordered pairs (j, k)."""
    check_dim(n)
    kets = np.stack([decoy_ket(j, k, n) for j in range(n) for k in range(n)])
    return Ensemble(weights=np.full(n * n, 1.0 / (n * n)), kets=kets)
