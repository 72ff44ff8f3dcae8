"""Message and decoy ensembles, and the receiver's tamper test.

The sender's message words are the n basis states, drawn uniformly (canonical
ensemble). Decoys are drawn from the pairing ensemble: the n^2 states
(|j> + i|k>)/sqrt(2) over ordered pairs (j, k), weight 1/n^2 each, where the
j = k entry is the basis state |j> itself. Both ensembles average to Id/n, so
an eavesdropper cannot tell messages from decoys. The receiver tests a decoy
with the projector pair {P_intact, Id - P_intact}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import check_dim


@dataclass(frozen=True)
class Ensemble:
    """Finite ensemble of pure states: items are (weight, unit ket) pairs."""

    dim: int
    items: tuple

    def __post_init__(self):
        weights = np.array([w for w, _ in self.items], dtype=float)
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {weights.sum()!r}, not 1")
        for _, ket in self.items:
            if ket.shape != (self.dim,):
                raise ValueError("ket dimension mismatch")
            if abs(np.linalg.norm(ket) - 1.0) > 1e-12:
                raise ValueError("ket is not normalized")

    def average_density(self) -> np.ndarray:
        """Mixture density matrix sum_i p_i |phi_i><phi_i|."""
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        for w, ket in self.items:
            rho += w * np.outer(ket, ket.conj())
        return rho


def _check_index(j: int, n: int) -> None:
    if not 0 <= j < n:
        raise ValueError(f"basis index {j} out of range for dimension {n}")


def canonical_ensemble(n: int) -> Ensemble:
    """Uniform mixture of the n basis states: the message words."""
    check_dim(n)
    eye = np.eye(n, dtype=complex)
    return Ensemble(dim=n, items=tuple((1.0 / n, eye[j]) for j in range(n)))


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


def tamper_projectors(j: int, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Receiver's test for decoy (j, k): (P_intact, P_tamper = Id - P_intact)."""
    ket = decoy_ket(j, k, n)
    p_intact = np.outer(ket, ket.conj())
    p_tamper = np.eye(n, dtype=complex) - p_intact
    return p_intact, p_tamper
