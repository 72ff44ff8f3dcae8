"""Reference values for checking qdecoy's outputs, computed without qdecoy.

Everything here is plain numpy written from the paper's definitions, so a
fault in the program cannot also hide in the value it is checked against:

- the bound D >= 1/2 - (1/2n)(sqrt(G) + sqrt((n-1)(1-G)))^2 in closed form;
- G = (1/n) sum_r max_j ||A_r e_j||^2 over the Kraus operators A_r;
- D = 1 - (1/n^2) sum_{j,k} sum_r |<phi_jk|A_r|phi_jk>|^2 over the decoys
  phi_jk = (|j> + i|k>)/sqrt(2) for j != k and phi_jj = |j>.
"""

from __future__ import annotations

import math

import numpy as np


def bound(g: float, n: int) -> float:
    """Least disturbance at estimation fidelity g on dimension n."""
    return 0.5 - (math.sqrt(g) + math.sqrt((n - 1) * max(1.0 - g, 0.0))) ** 2 / (2 * n)


def kraus_stack(ops) -> np.ndarray:
    """The Kraus operators as one (K, n, n) complex array."""
    a = np.asarray([np.asarray(op, dtype=complex) for op in ops])
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[0] < 1:
        raise ValueError(f"expected K >= 1 square operators, got shape {a.shape}")
    return a


def completeness_residual(a: np.ndarray) -> float:
    """Max-norm of sum_r A_r^dagger A_r - Id."""
    s = np.einsum("rji,rjk->ik", a.conj(), a)
    return float(np.max(np.abs(s - np.eye(a.shape[1]))))


def decoy_kets(n: int) -> np.ndarray:
    """Rows phi_jk for the n^2 ordered pairs, row index j*n + k."""
    kets = np.zeros((n * n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            if j == k:
                kets[j * n + k, j] = 1.0
            else:
                kets[j * n + k, j] = 1.0 / math.sqrt(2.0)
                kets[j * n + k, k] = 1.0j / math.sqrt(2.0)
    return kets


def estimation_fidelity(a: np.ndarray) -> float:
    """G = (1/n) sum_r max_j ||A_r e_j||^2."""
    col_norms = np.sum(np.abs(a) ** 2, axis=1)  # (K, n): ||A_r e_j||^2
    return float(col_norms.max(axis=1).sum() / a.shape[1])


def disturbance(a: np.ndarray) -> float:
    """D = 1 - (1/n^2) sum_{j,k} sum_r |<phi_jk|A_r|phi_jk>|^2."""
    n = a.shape[1]
    kets = decoy_kets(n)
    amp = np.einsum("sa,rab,sb->rs", kets.conj(), a, kets)
    return float(1.0 - np.sum(np.abs(amp) ** 2) / (n * n))


def probabilistic_kraus(n: int, p: float) -> np.ndarray:
    """Intercept with probability p: sqrt(p)|r><r| for each r, plus sqrt(1-p) Id."""
    eye = np.eye(n, dtype=complex)
    ops = [math.sqrt(p) * np.outer(eye[r], eye[r]) for r in range(n)]
    ops.append(math.sqrt(1.0 - p) * eye)
    return np.asarray(ops)
