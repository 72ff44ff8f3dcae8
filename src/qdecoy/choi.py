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

from .linalg import DEFAULT_TOL, ZERO_NORM, is_hermitian, partial_trace, psd_check


@dataclass(frozen=True)
class ChoiState:
    """State operator $ of a channel from an n-dim input to an m-dim output."""

    dim_out: int
    dim_in: int
    matrix: np.ndarray


def mat_to_vec(a: np.ndarray) -> np.ndarray:
    """Flatten an m x n matrix to the length-mn vector, (i, j) -> i*n + j."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    return a.reshape(-1)


def choi_of_kraus(kraus) -> ChoiState:
    """Build $ = sum_r vec(A_r) vec(A_r)† from a nonempty uniform Kraus set.

    With the vec(A_r) as the rows of a (K, mn) matrix V, $ = V^T conj(V).
    """
    ops = [np.asarray(a, dtype=complex) for a in kraus]
    if not ops:
        raise ValueError("empty Kraus set")
    m, n = ops[0].shape
    ragged = next((a.shape for a in ops if a.shape != (m, n)), None)
    if ragged is not None:
        raise ValueError(f"ragged Kraus set: {ragged} vs ({m},{n})")
    v = np.array(ops).reshape(len(ops), m * n)
    if np.any(np.linalg.norm(v, axis=1) < ZERO_NORM):
        raise ValueError("zero Kraus operator")
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
    return psd_check(choi.matrix, DEFAULT_TOL)


def is_tp(choi: ChoiState, tol: float = DEFAULT_TOL) -> bool:
    """Trace preservation: Tr_1($) = Id on the input system within tol."""
    if not is_hermitian(choi.matrix, tol):
        return False
    red = partial_trace(choi.matrix, choi.dim_out, choi.dim_in, "first")
    return bool(np.max(np.abs(red - np.eye(choi.dim_in))) <= tol)
