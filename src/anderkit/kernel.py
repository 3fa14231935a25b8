"""Small dense linear algebra kernel backing the mixing solves.

Scalar reductions (dot, norm2, ordered_sum) accumulate strictly left to
right, so norm2 of a given vector has the same bits on every BLAS build.
A Picard step calls no BLAS routine, so a Picard trace (of a map g that
calls none either) is the same across OpenBLAS kernels. A windowed run's
vectors pass through gemv, qr_delete and LAPACK solves that round per
kernel, so its trace is reproducible only per numpy, scipy and OpenBLAS
core.

numpy sums pairwise only in add's reduce loop; add's accumulate loop and
subtract's reduce loop run element by element. dot and norm2 sum the
products of whole iterates (1024 or 4096 terms on every benchmark
workload) through np.subtract.reduce over the negated products, twice as
fast as add.accumulate at 4096 terms. IEEE arithmetic defines x - y as
x + (-y) and rounds -(a * b) and (-a) * b alike, so this gives the bits of
a left-to-right sum of the products at every length, sign of zero
included. Only the sign of a NaN result may differ, which IEEE leaves
unspecified. ordered_sum sums mixing coefficients (1 to 21 terms there)
as a fold over Python floats. That beats add.accumulate up to about 8
terms and trails it beyond, and unlike numpy it never warns on inf - inf.

dot and norm2 are safe out of range. Where the left-to-right sum leaves
the normal range, [2^-1022, inf) in magnitude, although every entry is
finite and one is nonzero, a product or the sum under- or overflowed. The
same sum is then redone on the entries scaled by 2^-e, e the exponent of
the largest (max_exponent), and scaled back by 2^e (Blue, ACM TOMS 4,
1978; Anderson, ACM TOMS 44, 2017). Powers of two scale exactly, so norm2
of 2^k v is 2^k norm2(v) wherever both sums stay normal; a true value
past the largest double is still inf. A sum in range keeps its bits.

least_squares solves every mixing problem; the mixing solve hands it the
columns of the triangular factor kept by the history window (all of them,
or a tail's newest ones) and Q^T f_k. A difference column that the factor
found dependent is an exact zero column of Q with a zero row of R, so rank
deficiency reaches least_squares as zero rows. It picks its path from the
input. A square, upper triangular, full-rank matrix (every |r_ii| >=
RANK_TOL * max |r_ii| > 0) takes one dtrtrs, with the bits of
scipy.linalg.solve_triangular(np.asfortranarray(R), b). Anything else
(a zero or tiny diagonal entry, a nonzero entry below the diagonal, a
non-square block) takes a pivoted-QR solve that decides the numerical
rank, which the diagonal of an updated factor cannot: a zero column
rotated ahead of a live one leaves a rank-1 R = [[0, 1], [0, 0]] with a
zero diagonal. A 1 x 1 system takes the closed form below before either.

least_squares calls LAPACK directly: dgeqp3 for the pivoted QR, dorgqr
for Q and dtrtrs for the triangle, the same routines scipy.linalg.qr and
solve_triangular run, without their per-call wrapper work. On the pivoted
path dtrtrs gets R^T with lower=1, trans=1, which is what solve_triangular
passes for the C-ordered triangle it is given; a plain upper solve on R
rounds differently. On the triangle path it gets the Fortran-ordered
copy with lower=0, trans=0, which is what solve_triangular passes for a
Fortran-ordered triangle. dgeqp3 and dorgqr get the wrappers' default
workspaces: up to 128 columns, LAPACK's blocking crossover, both run
unblocked whatever the workspace, with the bits of the optimal one
scipy.linalg.qr queries.
A wider block (AA(129) or deeper) misses the blocked path, so it is slower
and may round differently. The finiteness check that check_finite made is
kept: a non-finite matrix, or a non-finite Q^T rhs (which a non-finite rhs
gives), raises ValueError, and so does a non-finite rhs on the triangle
path.

A 1 x 1 system, which every depth-1 window hands over, skips the LAPACK
calls and does their arithmetic in closed form, bit for bit. dgeqp3
leaves a 1 x 1 block as it is (tau = 0), so R = [a] and Q = [1]; a zero a
is rank 0 and gives the zero solution whatever the rhs. Q^T b is a sum
that starts from +0.0, so it is 0.0 + b, not b: the two differ only for
b = -0.0, which 0.0 + b turns into +0.0, and the quotient's sign of zero
follows (b = -0.0, a = -2 gives -0.0, not +0.0). dtrtrs then divides, so
w = (0.0 + b) / a, which overflows to inf as dtrtrs does.

Only this module updates the history window's thin QR factor of dF, its
residual differences. qr_append adds a column by classical Gram-Schmidt,
with a second pass where the first left ||v|| < ||u|| / sqrt(2) (Daniel,
Gragg, Kaufman & Stewart, 1976), and _norm, sqrt(v @ v) in BLAS's order,
rescaled as norm2 is. A column within RANK_TOL of the older ones' span
becomes an exact zero column of Q with a zero row of R, which
qr_downdate's Givens rotations (scipy.linalg.qr_delete) pass by an
identity or a swap, so QR = dF holds through every eviction. Outside
(2^-511, 2^511) LAPACK's dlartg rescales a rotation's entries by their
larger magnitude, not by a power of two (Anderson, ACM TOMS 44, 2017), so
qr_downdate rotates R scaled by 2^-e, e = max_exponent(R), and scales it
back after. Powers of two scale exactly, so a run scaled by 2^k meets the
same rotations as the unscaled one. Where every rotated entry lies inside
that range before and after the scaling, dlartg takes its unscaled
branch, which is scale-free, so the scaling moves no bit there.

scipy loads at the first LAPACK call of least_squares or qr_downdate, or
when a window of capacity 3 or more, the only kind that makes such calls,
is built and calls load_scipy; run() builds its window before it starts
the clock. Picard and depth-1 solves (1 x 1 systems in closed form, no
downdate) never load it; the inner window of AA(1,AA(5)), which each outer
step builds afresh, loads it inside a step. Once loaded, a function-local
import is a dictionary lookup of well under a microsecond.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

# Columns whose pivot magnitude falls below this fraction of the largest
# pivot are treated as rank-deficient and receive zero coefficients.
RANK_TOL = 1e-12

# The smallest positive normal double, 2^-1022.
NORMAL_MIN = 2.0**-1022

# A Gram-Schmidt pass that leaves ||v|| below this fraction of ||u|| is
# repeated (Daniel, Gragg, Kaufman & Stewart, 1976).
_REORTHOGONALIZE_BELOW = 1.0 / math.sqrt(2.0)


def _as_vector(v, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {a.shape}")
    return a


def ordered_sum(v) -> float:
    """Sum of a 1-D float array, accumulated strictly left to right."""
    # Not the builtin sum, which compensates from Python 3.12 on. The fold
    # starts from the first term, so a lone -0.0 keeps its sign; an empty
    # vector sums to 0.0.
    return functools.reduce(operator.add, v.tolist()) if len(v) else 0.0


def _product_sum(a: np.ndarray, b: np.ndarray) -> float:
    """a[0] * b[0] + a[1] * b[1] + ..., left to right."""
    if not len(a):
        return 0.0
    # (-a) * b is -(a * b) bit for bit: w holds the negated products.
    # Restoring the first, w[0] - w[1] - ... - w[-1] is their sum, and
    # subtract's reduce loop takes it element by element.
    w = np.negative(a)
    w *= b
    w[0] = -w[0]
    return float(np.subtract.reduce(w))


def max_exponent(v: np.ndarray) -> int | None:
    """e with 2^(e-1) <= max |v_i| < 2^e, or None if v is empty, zero or not finite.

    Scaled by 2^-e, v's largest entry lies in [0.5, 1): its products and
    their sums stay in range whatever v's scale.
    """
    top = float(np.abs(v).max()) if len(v) else 0.0
    if top == 0.0 or not math.isfinite(top):
        return None
    return math.frexp(top)[1]


def dot(a, b) -> float:
    a = _as_vector(a, "a")
    b = _as_vector(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    # Overflow is not an error here: inf propagates to the caller's checks.
    with np.errstate(over="ignore", invalid="ignore"):
        total = _product_sum(a, b)
        if NORMAL_MIN <= abs(total) < math.inf:
            return total
        ea, eb = max_exponent(a), max_exponent(b)
        if ea is None or eb is None:
            return total
        # Out of range; see the module docstring.
        total = _product_sum(np.ldexp(a, -ea), np.ldexp(b, -eb))
        return float(np.ldexp(total, ea + eb))


def norm2(v) -> float:
    v = _as_vector(v, "v")
    with np.errstate(over="ignore", invalid="ignore"):
        # math.sqrt is correctly rounded, as np.sqrt is.
        total = _product_sum(v, v)
        if NORMAL_MIN <= total < math.inf:
            return math.sqrt(total)
        e = max_exponent(v)
        if e is None:
            return math.sqrt(total)
        # Out of range; see the module docstring.
        w = np.ldexp(v, -e)
        return float(np.ldexp(math.sqrt(_product_sum(w, w)), e))


def _check_info(info: int, routine: str) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine} returned info={info}")


def least_squares(matrix, rhs) -> np.ndarray:
    """Minimize ||rhs - matrix @ w||_2, by the path the matrix calls for.

    A full-rank square upper triangle is solved directly, with the bits of
    scipy.linalg.solve_triangular; see the module docstring. Any other
    matrix goes through QR with column pivoting: columns pivoted out by
    the rank tolerance get coefficient zero, so a rank-deficient system
    returns the basic solution supported on the dominant columns (an
    all-zero matrix yields all-zero coefficients). A 1 x 1 system takes a
    closed form with the pivoted solve's bits.
    """
    # A Fortran-ordered copy, which dgeqp3 factors in place.
    a = np.array(matrix, dtype=float, order="F")
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
    if not np.isfinite(a).all():
        raise ValueError("matrix must not contain infs or NaNs")
    if n == 1:
        # LAPACK's own arithmetic on a 1 x 1 block; see the module docstring.
        pivot = float(a[0, 0])
        if pivot == 0.0:
            return np.zeros(1)
        qtb = 0.0 + float(b[0])
        if not math.isfinite(qtb):
            raise ValueError("rhs must not contain infs or NaNs")
        return np.array([qtb / pivot])

    from scipy.linalg import lapack

    if n == p and _is_full_rank_triangle(a):
        if not np.isfinite(b).all():
            raise ValueError("rhs must not contain infs or NaNs")
        w, info = lapack.dtrtrs(a, b, lower=0, trans=0)
        _check_info(info, "dtrtrs")
        return w

    qr, piv, tau, _, info = lapack.dgeqp3(a, overwrite_a=1)
    _check_info(info, "dgeqp3")
    # R is the upper triangle of qr[:p]; dtrtrs and diagonal read nothing else.
    diag = np.abs(qr.diagonal())
    if diag[0] == 0.0:
        return np.zeros(p)
    rank = int(np.count_nonzero(diag >= RANK_TOL * diag[0]))
    # Copied out before dorgqr overwrites qr with Q.
    r = qr[:rank, :rank].copy()
    q, _, info = lapack.dorgqr(qr, tau, overwrite_a=1)
    _check_info(info, "dorgqr")
    qtb = q.T[:rank] @ b
    if not np.isfinite(qtb).all():
        raise ValueError("rhs must not contain infs or NaNs")
    z, info = lapack.dtrtrs(r.T, qtb, lower=1, trans=1)
    _check_info(info, "dtrtrs")
    w = np.zeros(p)
    # dgeqp3 numbers the pivot columns from 1.
    w[piv[:rank] - 1] = z
    return w


@functools.lru_cache(maxsize=16)
def _strictly_lower(p: int) -> np.ndarray:
    """Read-only 0/1 mask of a p x p matrix's strictly lower part, Fortran-ordered."""
    # np.tri costs more than the test it masks, so each size is built once.
    # A float mask in least_squares' Fortran order multiplies without a cast.
    mask = np.asfortranarray(np.tri(p, p, -1))
    mask.flags.writeable = False
    return mask


def _is_full_rank_triangle(a: np.ndarray) -> bool:
    """Whether the finite square a is upper triangular with every |a_ii| >= RANK_TOL * max > 0."""
    # a is finite, so its product with the mask is nonzero only where a is.
    if np.count_nonzero(a * _strictly_lower(a.shape[0])):
        return False
    diag = np.abs(a.diagonal()).tolist()
    top = max(diag)
    return top > 0.0 and min(diag) >= RANK_TOL * top


def load_scipy() -> None:
    """Import scipy.linalg now, so that no later solve or downdate does."""
    import scipy.linalg  # noqa: F401


def _norm(v: np.ndarray) -> float:
    """sqrt(v @ v), rescaled by a power of two where v @ v leaves the normal range.

    As norm2, but with BLAS's summation order. A v with a NaN or inf entry
    gives NaN, so a column holding one is not taken for zero.
    """
    total = float(v @ v)
    if NORMAL_MIN <= total < math.inf:
        return math.sqrt(total)
    e = max_exponent(v)
    if e is None:
        return 0.0 if total == 0.0 else math.nan
    w = np.ldexp(v, -e)
    return float(np.ldexp(math.sqrt(w @ w), e))


@np.errstate(over="ignore", invalid="ignore")
def qr_append(q: np.ndarray, r: np.ndarray, k: int, u: np.ndarray) -> None:
    """Extend the thin QR in q[:, :k], r[:k, :k] by u into q[:, k], r[:k + 1, k], in place.

    A column with NaN or inf entries is stored as it is, so the next solve
    on r raises; the warnings of its norms are silenced, as _norm takes
    care of the range.
    """
    u_norm = _norm(u)
    if k:
        qk = q[:, :k]
        c = qk.T @ u
        v = u - qk @ c
        rho = _norm(v)
        # Norms, not their squares, so that neither side can overflow.
        if rho < _REORTHOGONALIZE_BELOW * u_norm:
            c2 = qk.T @ v
            v -= qk @ c2
            c += c2
            rho = _norm(v)
        r[:k, k] = c
        r[k, :k] = 0.0
    else:
        # Projecting onto an empty basis subtracts exact zeros: v is u.
        v = u
        rho = u_norm
    # A NaN fails the test.
    if rho <= RANK_TOL * u_norm:
        q[:, k] = 0.0
        r[k, k] = 0.0
    else:
        np.divide(v, rho, out=q[:, k])
        r[k, k] = rho


def qr_downdate(q: np.ndarray, r: np.ndarray) -> None:
    """Delete the first column of the thin QR q (F-contiguous), r in place.

    The rotations see r scaled by 2^-e, e = max_exponent(r); see the module
    docstring.
    """
    import scipy.linalg

    e = max_exponent(r)
    if e is not None:
        np.ldexp(r, -e, out=r)
    scipy.linalg.qr_delete(q, r, 0, which="col", overwrite_qr=True, check_finite=False)
    if e is not None:
        np.ldexp(r, e, out=r)
