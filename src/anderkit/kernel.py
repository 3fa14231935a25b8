"""Small dense linear algebra kernel backing the mixing solves.

Scalar reductions (dot, norm2) accumulate strictly left to right so that
recorded residual norms are reproducible across BLAS builds.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# Columns whose pivot magnitude falls below this fraction of the largest
# pivot are treated as rank-deficient and receive zero coefficients.
RANK_TOL = 1e-12


def _as_vector(v, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {a.shape}")
    return a


def dot(a, b) -> float:
    a = _as_vector(a, "a")
    b = _as_vector(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    # sum() over a Python list is a sequential left-to-right accumulation.
    # Overflow is not an error here: inf propagates to the caller's checks.
    with np.errstate(over="ignore", invalid="ignore"):
        return float(sum((a * b).tolist()))


def norm2(v) -> float:
    v = _as_vector(v, "v")
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sqrt(sum((v * v).tolist())))


def least_squares(matrix, rhs) -> np.ndarray:
    """Minimize ||rhs - matrix @ w||_2 via QR with column pivoting.

    Columns pivoted out by the rank tolerance get coefficient zero, so a
    rank-deficient system returns the basic solution supported on the
    dominant columns (an all-zero matrix yields all-zero coefficients).
    """
    a = np.asarray(matrix, dtype=float)
    b = _as_vector(rhs, "rhs")
    if a.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {a.shape}")
    n, p = a.shape
    if p < 1 or n < 1:
        raise ValueError(f"matrix must be non-empty, got shape {a.shape}")
    if p > n:
        raise ValueError(f"more columns than rows: {p} > {n}")
    if b.shape[0] != n:
        raise ValueError(f"rhs length {b.shape[0]} does not match {n} rows")

    q, r, piv = scipy.linalg.qr(a, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        return np.zeros(p)
    rank = int(np.count_nonzero(diag >= RANK_TOL * diag[0]))
    w = np.zeros(p)
    if rank > 0:
        qtb = q.T[:rank] @ b
        z = scipy.linalg.solve_triangular(r[:rank, :rank], qtb, lower=False)
        w[piv[:rank]] = z
    return w
