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


@dataclass(frozen=True)
class Ensemble:
    """Finite ensemble of pure states: items are (weight, unit ket) pairs.

    Construction also stacks them once, as read-only arrays: `weights`
    (length N) and `kets` (N, dim), and the nonzero entries of each state's
    vector conj(phi) ⊗ phi, which the definition sum reads. Row i of
    `support` (N, w) holds vec indices a*dim + b over the pairs of nonzero
    positions a, b of ket i, and row i of `coef` (N, w) the entries
    conj(phi_a) phi_b there; w is the widest state's count, and narrower
    rows are padded with zero coefficients. A decoy of the pairing ensemble
    touches two basis states, so w = 4 there; dense kets give w = dim^2.
    Both come from each ket's nonzero positions, never from an (N, dim^2)
    table.
    """

    dim: int
    items: tuple
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    kets: np.ndarray = field(init=False, repr=False, compare=False)
    support: np.ndarray = field(init=False, repr=False, compare=False)
    coef: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = np.array([w for w, _ in self.items], dtype=float)
        if abs(weights.sum() - 1.0) > _UNIT_TOL:
            raise ValueError(f"weights sum to {weights.sum()!r}, not 1")
        for _, ket in self.items:
            if ket.shape != (self.dim,):
                raise ValueError("ket dimension mismatch")
            if abs(np.linalg.norm(ket) - 1.0) > _UNIT_TOL:
                raise ValueError("ket is not normalized")
        kets = np.array([ket for _, ket in self.items], dtype=complex)
        nonzero = kets != 0
        counts = nonzero.sum(axis=1, keepdims=True)
        s = int(counts.max())
        # each row's nonzero positions first, in index order; the padding
        # positions past a row's count get zero amplitude
        pos = np.argsort(~nonzero, axis=1, kind="stable")[:, :s]
        amp = np.take_along_axis(kets, pos, axis=1)
        amp[np.arange(s) >= counts] = 0
        support = (pos[:, :, None] * self.dim + pos[:, None, :]).reshape(len(kets), s * s)
        coef = (amp.conj()[:, :, None] * amp[:, None, :]).reshape(len(kets), s * s)
        for name, arr in (("weights", weights), ("kets", kets), ("support", support), ("coef", coef)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


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
    w = 1.0 / (n * n)
    items = tuple(
        (w, decoy_ket(j, k, n)) for j in range(n) for k in range(n)
    )
    return Ensemble(dim=n, items=items)
