"""Kernel primitives: reductions and the least-squares solve."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from anderkit.composer import AA, RunConfig, run
from anderkit.diagnostics import Termination
from anderkit.kernel import RANK_TOL, dot, least_squares, norm2, ordered_sum
from anderkit.problems import tridiag_problem


def test_dot_matches_numpy_on_random_vectors():
    rng = np.random.default_rng(101)
    for _ in range(25):
        n = int(rng.integers(1, 400))
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        assert abs(dot(a, b) - float(np.dot(a, b))) < 1e-10 * max(1.0, float(np.abs(a @ b)))


def test_dot_is_exact_left_to_right_accumulation():
    # Ordering is part of the contract: same result as a python loop.
    rng = np.random.default_rng(7)
    a = rng.standard_normal(64)
    b = rng.standard_normal(64)
    acc = 0.0
    for ai, bi in zip(a.tolist(), b.tolist()):
        acc += ai * bi
    assert dot(a, b) == acc


def test_norm2_and_ordered_sum_are_exact_left_to_right_accumulations():
    rng = np.random.default_rng(13)
    v = rng.standard_normal(257) * 10.0 ** rng.integers(-8, 8, 257)
    acc = sq = 0.0
    for vi in v.tolist():
        acc += vi
        sq += vi * vi
    assert ordered_sum(v) == acc
    assert norm2(v) == float(np.sqrt(sq))


def _left_to_right(terms):
    acc = terms[0]
    for x in terms[1:]:
        acc += x
    return acc


def _exponent(terms):
    # e with 2^(e-1) <= max |t| < 2^e, or None unless every entry is finite
    # and one is nonzero
    if not all(map(math.isfinite, terms)) or not any(terms):
        return None
    return math.frexp(max(map(abs, terms)))[1]


def _loop_product_sum(a, b, root=False):
    """Python reference of dot (and of norm2 with a = b and root=True).

    The left-to-right sum of the products, or, where it leaves the normal
    range [2^-1022, inf) though every entry is finite and one is nonzero,
    the same sum over the entries scaled by 2^-e, scaled back by 2^e.
    """
    finish = math.sqrt if root else float
    total = _left_to_right([x * y for x, y in zip(a, b)])
    ea, eb = _exponent(a), _exponent(b)
    if 2.0**-1022 <= abs(total) < math.inf or ea is None or eb is None:
        return finish(total)
    scaled = _left_to_right([math.ldexp(x, -ea) * math.ldexp(y, -eb) for x, y in zip(a, b)])
    # math.ldexp raises on overflow; np.ldexp gives inf
    with np.errstate(over="ignore"):
        return float(np.ldexp(finish(scaled), ea if root else ea + eb))


def test_reductions_are_bitwise_left_to_right_on_both_sides_of_the_crossover():
    # ordered_sum folds Python floats and dot/norm2 run subtract.reduce at
    # every length, around the old 1024-term crossover included; both must
    # equal a Python loop in value and in the sign of zero, dot and norm2
    # by way of the out-of-range rescaling that _loop_product_sum spells out.
    # A NaN result only has to be NaN: IEEE leaves its sign unspecified.
    t = 1024
    rng = np.random.default_rng(31)
    specials = [0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan, 1e200, -1e200]

    def same(got, want):
        if math.isnan(want):
            return math.isnan(got)
        return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    def scaled(n):
        return rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)

    def pairs(n):
        yield scaled(n), scaled(n)
        yield scaled(n), scaled(n)
        yield np.full(n, -0.0), np.ones(n)  # every product is -0.0
        yield rng.choice([0.0, -0.0], n), scaled(n)
        yield np.full(n, 1e200), scaled(n)  # every square overflows: norm2 rescales
        for _ in range(3):
            v, w = scaled(n), scaled(n)
            for x in (v, w):
                at = rng.integers(0, n, int(rng.integers(1, 4)))
                x[at] = rng.choice(specials, len(at))
            yield v, w

    pairwise_differs = False
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 2, t - 1, t, t + 1, 4096, 20000):
            for v, w in pairs(n):
                terms = v.tolist()
                want_sum = _left_to_right(terms)
                want_dot = _loop_product_sum(terms, w.tolist())
                want_norm = _loop_product_sum(terms, terms, root=True)
                assert same(ordered_sum(v), want_sum), (n, want_sum)
                assert same(dot(v, w), want_dot), (n, want_dot)
                assert same(norm2(v), want_norm), (n, want_norm)
                if n == 4096 and math.isfinite(want_sum):
                    pairwise_differs |= float(np.add.reduce(v)) != want_sum
    # a pairwise sum would fail the assertions above
    assert pairwise_differs


def test_reductions_of_empty_vectors_are_zero():
    assert dot(np.zeros(0), np.zeros(0)) == 0.0
    assert norm2(np.zeros(0)) == 0.0
    assert ordered_sum(np.zeros(0)) == 0.0


def test_norm2_basic_values():
    assert norm2(np.array([3.0, 4.0])) == 5.0
    assert norm2(np.zeros(10)) == 0.0
    rng = np.random.default_rng(11)
    v = rng.standard_normal(333)
    assert abs(norm2(v) - float(np.linalg.norm(v))) < 1e-12 * float(np.linalg.norm(v))


def test_norm2_and_dot_are_safe_out_of_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the sum of squares overflows, the norm does not
        assert norm2(np.array([1e200])) == 1e200
        # the sum of squares underflows to 0.0; the norm is that of the
        # vector scaled into range, scaled back
        tiny = np.full(3, 1e-170)
        assert norm2(tiny) == np.ldexp(norm2(np.ldexp(tiny, 600)), -600) > 0.0
        # a true norm past the largest double is still inf
        assert norm2(np.array([1.5e308, 1.5e308])) == math.inf
        assert dot(np.array([1.5e308, 1.5e308]), np.array([2.0, 2.0])) == math.inf
        # inf - inf on the direct path; rescaled, the large products cancel
        assert dot(np.array([1e300, -1e300, 1.0]), np.array([1e10, 1e10, 1.0])) == 1.0
        # subnormal products
        a, b = np.full(4, 1e-160), np.full(4, -1e-150)
        assert dot(a, b) == np.ldexp(dot(np.ldexp(a, 600), np.ldexp(b, 600)), -1200) < 0.0
        # non-finite entries and exact zeros are left to the direct sum
        assert math.isnan(norm2(np.array([np.inf, np.nan])))
        assert norm2(np.array([1.0, np.inf])) == math.inf
        assert math.copysign(1.0, dot(np.full(3, -0.0), np.ones(3))) == -1.0


def test_norm2_scales_exactly_by_powers_of_two():
    rng = np.random.default_rng(59)
    v = rng.choice([-1.0, 1.0], 50) * rng.uniform(0.5, 2.0, 50)
    base = norm2(v)
    for k in (-1000, -600, -300, -1, 0, 1, 300, 600, 1000):
        assert norm2(np.ldexp(v, k)) == np.ldexp(base, k), k


def test_dot_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        dot(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        norm2(np.ones((2, 2)))


def test_least_squares_square_exact():
    rng = np.random.default_rng(3)
    for _ in range(10):
        mat = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
        rhs = rng.standard_normal(6)
        w = least_squares(mat, rhs)
        assert np.allclose(mat @ w, rhs, atol=1e-9)


def test_least_squares_overdetermined_matches_lstsq():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(4, 40))
        p = int(rng.integers(1, n + 1))
        mat = rng.standard_normal((n, p))
        rhs = rng.standard_normal(n)
        w = least_squares(mat, rhs)
        ref, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
        # residual norms must agree even if coefficients differ
        assert abs(norm2(rhs - mat @ w) - norm2(rhs - mat @ ref)) < 1e-9


def test_least_squares_beats_coarse_grid_search():
    # Independent check on a tiny instance: no grid point does better.
    mat = np.array([[1.0, 0.5], [0.0, 1.0], [1.0, 1.0]])
    rhs = np.array([1.0, -1.0, 0.5])
    w = least_squares(mat, rhs)
    best = norm2(rhs - mat @ w)
    grid = np.linspace(-3.0, 3.0, 121)
    for a in grid:
        for b in grid:
            assert best <= norm2(rhs - mat @ np.array([a, b])) + 1e-12


def test_least_squares_rank_deficient_duplicate_columns():
    # Two identical columns: pivoting keeps one, the clone gets weight 0.
    col = np.array([1.0, 2.0, 3.0])
    mat = np.column_stack([col, col])
    rhs = np.array([1.0, 2.0, 3.0])
    w = least_squares(mat, rhs)
    assert np.isfinite(w).all()
    assert np.allclose(mat @ w, rhs, atol=1e-12)
    assert min(abs(w[0]), abs(w[1])) == 0.0


def test_least_squares_zero_matrix_returns_zero():
    w = least_squares(np.zeros((4, 2)), np.ones(4))
    assert np.array_equal(w, np.zeros(2))


def test_least_squares_near_dependent_columns_stay_bounded():
    # Columns differing by ~1e-15 must not produce 1e15-sized coefficients.
    rng = np.random.default_rng(23)
    base = rng.standard_normal(8)
    mat = np.column_stack([base, base * (1.0 + 1e-15)])
    w = least_squares(mat, rng.standard_normal(8))
    assert float(np.max(np.abs(w))) < 1e6


def test_least_squares_input_validation():
    with pytest.raises(ValueError):
        least_squares(np.ones(3), np.ones(3))  # not 2-D
    with pytest.raises(ValueError):
        least_squares(np.ones((3, 4)), np.ones(3))  # p > n
    with pytest.raises(ValueError):
        least_squares(np.ones((3, 0)), np.ones(3))  # empty
    with pytest.raises(ValueError):
        least_squares(np.ones((3, 2)), np.ones(4))  # rhs length


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_least_squares_rejects_non_finite_matrix_and_rhs(bad):
    rng = np.random.default_rng(29)
    mat = rng.standard_normal((6, 3))
    rhs = rng.standard_normal(6)
    broken = mat.copy()
    broken[4, 1] = bad
    with pytest.raises(ValueError):
        least_squares(broken, rhs)
    broken = rhs.copy()
    broken[2] = bad
    with pytest.raises(ValueError):
        least_squares(mat, broken)


def _scipy_least_squares(matrix, rhs):
    # The wrapper-based solve the direct LAPACK calls replace.
    q, r, piv = scipy.linalg.qr(matrix, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    w = np.zeros(matrix.shape[1])
    if diag[0] == 0.0:
        return w
    rank = int(np.count_nonzero(diag >= RANK_TOL * diag[0]))
    z = scipy.linalg.solve_triangular(r[:rank, :rank], q.T[:rank] @ rhs, lower=False)
    w[piv[:rank]] = z
    return w


def _kernel_cases():
    rng = np.random.default_rng(31)

    def scaled(n, p):
        # Column scales down to 1e-14 make some systems drop columns.
        return rng.standard_normal((n, p)) * 10.0 ** rng.integers(-14, 3, p)

    for _ in range(100):
        n = int(rng.integers(2, 80))
        p = int(rng.integers(1, min(n, 21) + 1))
        yield "tall", scaled(n, p), rng.standard_normal(n)
    for _ in range(40):
        p = int(rng.integers(1, 21))
        tri = np.linalg.qr(scaled(p + 10, p))[1]
        rhs = rng.standard_normal(p)
        yield "triangle-c", np.ascontiguousarray(tri), rhs
        yield "triangle-f", np.asfortranarray(tri), rhs
        buf = np.zeros((p + 3, p + 3), order="F")
        buf[:p, :p] = tri
        yield "triangle-view", buf[:p, :p], rhs
    for _ in range(60):
        n = int(rng.integers(3, 60))
        p = int(rng.integers(2, min(n, 12) + 1))
        mat = scaled(n, p)
        mat[:, int(rng.integers(p))] = mat[:, int(rng.integers(p))]
        yield "repeated", mat, rng.standard_normal(n)
    for n, p in ((1, 1), (4, 2), (30, 30)):
        yield "zero", np.zeros((n, p)), rng.standard_normal(n)
    for _ in range(20):
        yield "1x1", rng.standard_normal((1, 1)) * 10.0 ** rng.integers(-5, 5), rng.standard_normal(1)
    # 22-127 columns: LAPACK still runs unblocked, whatever the workspace.
    for _ in range(20):
        p = int(rng.integers(22, 128))
        n = p + int(rng.integers(0, 60))
        yield "wide-tall", scaled(n, p), rng.standard_normal(n)
    for _ in range(20):
        p = int(rng.integers(22, 128))
        yield "wide-triangle", np.linalg.qr(scaled(p + 10, p))[1], rng.standard_normal(p)


def _is_full_rank_triangle(mat):
    # Square, upper triangular, every |r_ii| >= RANK_TOL * max |r_ii| > 0. A
    # 1 x 1 system is left out: its closed form keeps the pivoted bits.
    n, p = mat.shape
    if n != p or n < 2 or not np.array_equal(mat, np.triu(mat)):
        return False
    diag = np.abs(np.diag(mat))
    return diag.max() > 0.0 and diag.min() >= RANK_TOL * diag.max()


def _solve_triangular(tri, rhs):
    return scipy.linalg.solve_triangular(np.asfortranarray(tri), rhs, check_finite=False)


def test_least_squares_is_bit_identical_to_the_scipy_wrapper_solve():
    # A full-rank triangle has the bits of solve_triangular, and every
    # other system those of the pivoted QR solve.
    cases = list(_kernel_cases())
    assert len(cases) >= 300
    pivoted_triangles = direct = 0
    for kind, mat, rhs in cases:
        if _is_full_rank_triangle(mat):
            direct += 1
            want = _solve_triangular(mat, rhs)
        else:
            pivoted_triangles += "triangle" in kind
            want = _scipy_least_squares(mat, rhs)
        assert np.array_equal(least_squares(mat, rhs), want), kind
    # both paths are reached, triangles with a tiny diagonal entry included
    assert direct >= 30 and pivoted_triangles >= 30, (direct, pivoted_triangles)


def _assert_same_bits(got, want, case):
    assert np.array_equal(got, want), case
    assert np.array_equal(np.signbit(got), np.signbit(want)), case


def test_least_squares_one_by_one_closed_form_matches_the_scipy_wrapper_solve():
    # The closed form (0.0 + b) / a must round, overflow and sign its zeros
    # exactly as the pivoted QR and triangular solve do.
    rng = np.random.default_rng(37)

    def signed(size):
        return rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300.0, 300.0, size)

    special_a = [5e-324, -5e-324, 1e-310, -2.2e-308, 1e-300, -1.0, 2.0, 1e300]
    special_b = [0.0, -0.0, 5e-324, -5e-324, -1e-310, 1.0, -1.0, 1e300]
    cases = list(zip(signed(4000), signed(4000)))
    cases += [(a, b) for a in special_a for b in special_b]
    cases += [(a, b) for a in signed(200) for b in (0.0, -0.0)]
    for a, b in cases:
        mat, rhs = np.array([[a]]), np.array([b])
        _assert_same_bits(least_squares(mat, rhs), _scipy_least_squares(mat, rhs), (a, b))
    # The quotient overflows to inf, as the triangular solve's does.
    w = least_squares(np.array([[1e-310]]), np.array([1.0]))
    assert np.isinf(w[0]) and w[0] > 0.0
    _assert_same_bits(w, _scipy_least_squares(np.array([[1e-310]]), np.array([1.0])), "overflow")
    # A zero pivot of either sign is rank 0 and gives +0.0.
    for a in (0.0, -0.0):
        for b in (-3.0, -0.0, 5e-324):
            _assert_same_bits(least_squares(np.array([[a]]), np.array([b])), np.zeros(1), (a, b))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_least_squares_one_by_one_keeps_the_error_contract(bad):
    with pytest.raises(ValueError, match="matrix"):
        least_squares(np.array([[bad]]), np.array([1.0]))
    # a zero matrix is rank 0: its coefficients are zero whatever the rhs
    for zero in (0.0, -0.0):
        w = least_squares(np.array([[zero]]), np.array([bad]))
        _assert_same_bits(w, np.zeros(1), (zero, bad))
    for a in (1.0, -2.5, 5e-324):
        with pytest.raises(ValueError, match="rhs"):
            least_squares(np.array([[a]]), np.array([bad]))


# ---- the triangular path ----


def _full_rank_triangles():
    rng = np.random.default_rng(41)
    for _ in range(40):
        p = int(rng.integers(2, 21))
        # R of a well-conditioned tall block: every |r_ii| is far above RANK_TOL
        tri = np.linalg.qr(rng.standard_normal((p + 10, p)))[1]
        rhs = rng.standard_normal(p) * 10.0 ** rng.integers(-3, 4)
        yield np.ascontiguousarray(tri), rhs
        yield np.asfortranarray(tri), rhs
        buf = np.zeros((p + 3, p + 3), order="F")
        buf[:p, :p] = tri
        yield buf[:p, :p], rhs


def test_triangular_least_squares_is_bit_identical_to_solve_triangular():
    cases = list(_full_rank_triangles())
    # A -0.0 below the diagonal is zero, and a diagonal entry exactly at
    # RANK_TOL times the largest passes the rank test.
    tri = np.linalg.qr(np.random.default_rng(42).standard_normal((12, 6)))[1]
    tri[4, 1] = -0.0
    cases.append((tri, np.ones(6)))
    edge = tri.copy()
    edge[3, 3] = RANK_TOL * np.abs(edge.diagonal()).max()
    cases.append((edge, np.ones(6)))
    assert len(cases) >= 120
    pivoted_differs = False
    for tri, rhs in cases:
        got = least_squares(tri, rhs)
        _assert_same_bits(got, _solve_triangular(tri, rhs), tri.shape)
        pivoted_differs |= not np.array_equal(got, _scipy_least_squares(tri, rhs))
    # the pivoted solve rounds differently, so the path taken shows in the bits
    assert pivoted_differs


def test_triangular_least_squares_leaves_other_systems_to_the_pivoted_solve():
    rng = np.random.default_rng(43)
    tri = np.linalg.qr(rng.standard_normal((15, 5)))[1]
    zero_diagonal = tri.copy()
    zero_diagonal[2, 2] = 0.0
    tiny_diagonal = tri.copy()
    tiny_diagonal[3, 3] = 0.5 * RANK_TOL * np.abs(tri.diagonal()).max()
    below = tri.copy()
    below[4, 1] = 1e-300
    cases = {
        "zero diagonal entry": zero_diagonal,
        "diagonal entry below RANK_TOL": tiny_diagonal,
        # the e3 window's rank-1 R, whose diagonal is all zero
        "[[0, 1], [0, 0]]": np.array([[0.0, 1.0], [0.0, 0.0]]),
        "zero matrix": np.zeros((4, 4)),
        "nonzero entry below the diagonal": below,
        # a tail's block of R's newest columns
        "non-square": tri[:, 2:],
        "general": rng.standard_normal((7, 3)),
    }
    for name, mat in cases.items():
        rhs = rng.standard_normal(mat.shape[0])
        _assert_same_bits(least_squares(mat, rhs), _scipy_least_squares(mat, rhs), name)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_triangular_least_squares_keeps_the_error_contract(bad):
    rng = np.random.default_rng(47)
    tri = np.linalg.qr(rng.standard_normal((12, 5)))[1]
    rhs = rng.standard_normal(5)

    def error(mat, b):
        with pytest.raises(ValueError) as info:
            least_squares(mat, b)
        return str(info.value)

    for at in ((1, 3), (2, 2)):
        broken = tri.copy()
        broken[at] = bad
        assert error(broken, rhs) == "matrix must not contain infs or NaNs"
    broken = rhs.copy()
    broken[2] = bad
    # the triangle path and the pivoted one (a tail's block) say the same
    assert error(tri, broken) == error(tri[:, 1:], broken) == (
        "rhs must not contain infs or NaNs"
    )


def test_a_lapack_error_code_raises_and_fails_the_run(monkeypatch):
    dtrtrs = scipy.linalg.lapack.dtrtrs
    monkeypatch.setattr(
        scipy.linalg.lapack, "dtrtrs", lambda *args, **kwargs: (dtrtrs(*args, **kwargs)[0], 1)
    )
    rng = np.random.default_rng(53)
    with pytest.raises(np.linalg.LinAlgError, match=r"^dtrtrs returned info=1$"):
        least_squares(rng.standard_normal((6, 2)), rng.standard_normal(6))
    problem = tridiag_problem(10)
    trace = run(AA(2), problem, problem.default_start, RunConfig(max_iters=10))
    assert trace.termination == Termination.FAILED
    assert trace.error == "LinAlgError: dtrtrs returned info=1"
