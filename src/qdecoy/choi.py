"""State-operator correspondence for quantum channels.

An m x n operator A flattens to the length-mn vector with component
(i, j) -> i*n + j (C-order), so vec(Id_n) = sqrt(n) |beta> with |beta> the
maximally entangled unit vector. A Kraus set {A_r} maps to the state operator

    $ = sum_r vec(A_r) vec(A_r)†

on the m*n-dimensional composite. Complete positivity of the channel is
positivity of $, trace preservation is Tr_1($) = Id_n, and the channel acts as
S(rho) = Tr_2((Id_m ⊗ rho^t) $) where ^t is the plain transpose (no
conjugation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, ZERO_NORM, frobenius_norms, is_hermitian, partial_trace, psd_check


@dataclass(frozen=True)
class ChoiState:
    """State operator $ of a channel from an n-dim input to an m-dim output."""

    dim_out: int
    dim_in: int
    matrix: np.ndarray


def choi_of_kraus(kraus) -> ChoiState:
    """Build $ = sum_r vec(A_r) vec(A_r)† from a nonempty uniform Kraus set.

    `kraus` is anything np.asarray turns into a complex (K, m, n) stack; a
    complex C-ordered stack is used as it is. With the vec(A_r) as the rows
    of the (K, mn) view V, $ = V^T conj(V), and conj(V) is the only copy.
    """
    try:
        a = np.asarray(kraus, dtype=complex)
    except ValueError:
        raise ValueError("ragged Kraus set: the operators differ in shape") from None
    if a.size == 0:
        raise ValueError("empty Kraus set")
    if a.ndim != 3:
        raise ValueError(f"Kraus set must be a (K, m, n) stack, got shape {a.shape}")
    k, m, n = a.shape
    if np.any(frobenius_norms(a) < ZERO_NORM):
        raise ValueError("zero Kraus operator")
    v = a.reshape(k, m * n)
    return ChoiState(dim_out=m, dim_in=n, matrix=v.T @ v.conj())


def apply_channel(choi: ChoiState, rho: np.ndarray) -> np.ndarray:
    """Evaluate the channel on rho: S(rho) = Tr_2((Id_m ⊗ rho^t) $)."""
    rho = np.asarray(rho, dtype=complex)
    m, n = choi.dim_out, choi.dim_in
    if rho.shape != (n, n):
        raise ValueError(f"state shape {rho.shape} does not match input dim {n}")
    # (Id_m ⊗ rho^t) $ then Tr_2, contracted without forming the kron product
    t = choi.matrix.reshape(m, n, m, n)
    return np.einsum("ab,iakb->ik", rho, t)


def sandwich_identity_residual(
    kappa: np.ndarray,
    rho: np.ndarray,
    sigma: np.ndarray,
    tau: np.ndarray,
    choi: ChoiState,
) -> float:
    """Max-norm residual of kappa S(rho sigma) tau = Tr_2((kappa⊗rho^t) $ (tau⊗sigma^t))."""
    kappa = np.asarray(kappa, dtype=complex)
    tau = np.asarray(tau, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    m, n = choi.dim_out, choi.dim_in
    if kappa.shape != (m, m) or tau.shape != (m, m):
        raise ValueError("kappa/tau must act on the output system")
    if rho.shape != (n, n) or sigma.shape != (n, n):
        raise ValueError("rho/sigma must act on the input system")
    lhs = kappa @ apply_channel(choi, rho @ sigma) @ tau
    left = np.kron(kappa, rho.T)
    right = np.kron(tau, sigma.T)
    rhs = partial_trace(left @ choi.matrix @ right, m, n, "second")
    return float(np.max(np.abs(lhs - rhs)))


def is_cp(choi: ChoiState) -> bool:
    """Complete positivity: the state operator is PSD."""
    return psd_check(choi.matrix)


def is_tp(choi: ChoiState) -> bool:
    """Trace preservation: Tr_1($) = Id on the input system within DEFAULT_TOL."""
    if not is_hermitian(choi.matrix):
        return False
    red = partial_trace(choi.matrix, choi.dim_out, choi.dim_in, "first")
    return bool(np.max(np.abs(red - np.eye(choi.dim_in))) <= DEFAULT_TOL)
