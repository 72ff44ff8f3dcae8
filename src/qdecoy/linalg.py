"""Dense complex linear algebra primitives shared by every other module.

Matrices and vectors are plain numpy arrays (complex dtype). Composite indices
on bipartite systems follow the convention (i, j) -> i*dim2 + j, i.e. C-order
reshape of an (dim1, dim2) grid; this must match the vec/Choi flattening used
elsewhere, so it is fixed here once.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9
#: Frobenius norms below this mark a zero operator
ZERO_NORM = 1e-12


def check_dim(n: int) -> None:
    """Raise unless n is a channel dimension, n >= 2."""
    if n < 2:
        raise ValueError(f"need dimension n >= 2, got {n}")


def is_hermitian(m: np.ndarray) -> bool:
    """True iff max |M_ij - conj(M_ji)| <= DEFAULT_TOL."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(np.max(np.abs(m - m.conj().T)) <= DEFAULT_TOL)


def partial_trace(m: np.ndarray, dim1: int, dim2: int, which: str) -> np.ndarray:
    """Trace out one factor of a (dim1*dim2) x (dim1*dim2) bipartite matrix.

    which="second": (Tr_2 M)_{ik} = sum_j M_{(i,j),(k,j)}, shape (dim1, dim1).
    which="first":  (Tr_1 M)_{jl} = sum_i M_{(i,j),(i,l)}, shape (dim2, dim2).
    """
    m = np.asarray(m)
    d = dim1 * dim2
    if m.shape != (d, d):
        raise ValueError(f"matrix shape {m.shape} does not factor as ({dim1}*{dim2})^2")
    t = m.reshape(dim1, dim2, dim1, dim2)
    if which == "second":
        return np.einsum("ijkj->ik", t)
    if which == "first":
        return np.einsum("ijil->jl", t)
    raise ValueError(f"which must be 'first' or 'second', got {which!r}")


def herm_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector columns) with h = V diag(w) V†.
    """
    h = np.asarray(h)
    if not is_hermitian(h):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    return w, v


def psd_check(h: np.ndarray) -> bool:
    """True iff the Hermitian matrix h has min eigenvalue >= -DEFAULT_TOL."""
    w, _ = herm_eig(h)
    return bool(w[0] >= -DEFAULT_TOL)


def inv_sqrt_psd(h: np.ndarray) -> np.ndarray:
    """Inverse square root S of a strictly positive matrix: S h S = Id.

    Raises on singular or indefinite input (min eigenvalue < DEFAULT_TOL).
    """
    w, v = herm_eig(h)
    if w[0] < DEFAULT_TOL:
        raise ValueError(f"matrix is not strictly positive (min eigenvalue {w[0]:.3e})")
    return (v / np.sqrt(w)) @ v.conj().T
