"""Small dense linear algebra kernel backing the mixing solves.

Scalar reductions (dot, norm2, ordered_sum) accumulate strictly left to
right, through numpy's add.accumulate, so that recorded residual norms are
reproducible across BLAS builds. least_squares is the pivoted-QR solve
that decides the numerical rank of every mixing problem; the mixing solve
hands it either the small triangular factor kept by the history window or,
when that factor is unavailable, the stacked residual differences.
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


def ordered_sum(v) -> float:
    """Sum of a 1-D array, accumulated strictly left to right."""
    # cumsum is add.accumulate, which never reorders (unlike np.sum's
    # pairwise summation). An empty vector sums to 0.0, as sum([]) does.
    return float(np.cumsum(v)[-1]) if len(v) else 0.0


def dot(a, b) -> float:
    a = _as_vector(a, "a")
    b = _as_vector(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    # Overflow is not an error here: inf propagates to the caller's checks.
    with np.errstate(over="ignore", invalid="ignore"):
        return ordered_sum(a * b)


def norm2(v) -> float:
    v = _as_vector(v, "v")
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sqrt(ordered_sum(v * v)))


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
