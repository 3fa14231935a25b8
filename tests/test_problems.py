"""Benchmark problems: grids, stencils, preconditioned maps; the GMRES oracle
of tests/gmres_oracle.py."""

import warnings

import numpy as np
import pytest

from anderkit.kernel import norm2
from anderkit.problems import (
    FixedPointProblem,
    Grid2D,
    _interior,
    _stencil_views,
    bratu_problem,
    convdiff_problem,
    tridiag_problem,
)

from gmres_oracle import gmres_reference


# ---- dense oracles for the stencils (entry loops, small grids only) ----

_DENSE_LIMIT = 32


def _dense_guard(n_side: int) -> None:
    if n_side > _DENSE_LIMIT:
        raise ValueError(
            f"dense assembly is an oracle path, limited to n_side <= {_DENSE_LIMIT}"
        )


def bratu_dense_operator(n_side: int) -> np.ndarray:
    """Dense linear part of the Bratu stencil (entry loops, oracle path)."""
    _dense_guard(n_side)
    grid = Grid2D(n_side)
    a = np.zeros((grid.unknowns, grid.unknowns))
    for i in range(n_side):
        for j in range(n_side):
            row = i * n_side + j
            a[row, row] = 4.0
            for di, dj, coeff in ((0, 1, -1.0), (0, -1, -1.0), (1, 0, -1.0), (-1, 0, -1.0)):
                ii, jj = i + di, j + dj
                if 0 <= ii < n_side and 0 <= jj < n_side:
                    a[row, ii * n_side + jj] = coeff
    return a


def convdiff_dense_operator(n_side: int, eps: float, scheme: str = "centered") -> np.ndarray:
    """Dense linear convection-diffusion operator (entry loops, oracle path)."""
    _dense_guard(n_side)
    if scheme not in ("centered", "upwind"):
        raise ValueError(f"scheme must be 'centered' or 'upwind', got {scheme!r}")
    grid = Grid2D(n_side)
    h = grid.h
    if scheme == "centered":
        diag = 4.0 * eps
        east = north = -eps + 0.5 * h
        west = south = -eps - 0.5 * h
    else:
        diag = 4.0 * eps + 2.0 * h
        east = north = -eps
        west = south = -eps - h
    a = np.zeros((grid.unknowns, grid.unknowns))
    for i in range(n_side):
        for j in range(n_side):
            row = i * n_side + j
            a[row, row] = diag
            for di, dj, coeff in ((0, 1, north), (0, -1, south), (1, 0, east), (-1, 0, west)):
                ii, jj = i + di, j + dj
                if 0 <= ii < n_side and 0 <= jj < n_side:
                    a[row, ii * n_side + jj] = coeff
    return a


# ---- grid ----


def test_grid_indexing_row_major():
    grid = Grid2D(3)
    assert grid.h == pytest.approx(0.25)
    assert grid.unknowns == 9
    # node (i, j) = (2, 1) is entry i * n_side + j of a raveled mesh
    xg, yg = grid.mesh()
    assert xg.ravel()[2 * 3 + 1] == 3.0 * grid.h and yg.ravel()[2 * 3 + 1] == 2.0 * grid.h
    with pytest.raises(ValueError, match="n_side"):
        Grid2D(0)


def test_grid_mesh_excludes_boundary():
    grid = Grid2D(4)
    xg, yg = grid.mesh()
    assert xg.shape == (4, 4)
    assert xg.min() == pytest.approx(grid.h)
    assert xg.max() == pytest.approx(1.0 - grid.h)
    # x varies along axis 0, y along axis 1
    assert np.allclose(xg[:, 0], xg[:, -1])
    assert np.allclose(yg[0, :], yg[-1, :])


def test_stencil_views_are_named_for_the_axes_of_mesh():
    # On u = X a view that moves along x (axis 0) differs from the centre by
    # +-h and one that moves along y (axis 1) equals it; on u = Y the roles
    # swap. Rows and columns next to the zero border are left out.
    n = 5
    grid = Grid2D(n)
    h = grid.h
    xg, yg = grid.mesh()
    inner = (slice(1, -1), slice(1, -1))
    for u, along, across in ((xg, ("east", "west"), ("north", "south")),
                             (yg, ("north", "south"), ("east", "west"))):
        names = ("centre", "north", "south", "east", "west")
        views = {k: _interior(v, n)[inner] for k, v in zip(names, _stencil_views(u.ravel(), n))}
        centre = views["centre"]
        assert np.array_equal(centre, u[inner])
        assert np.allclose(views[along[0]] - centre, h, rtol=0.0, atol=1e-15)
        assert np.allclose(views[along[1]] - centre, -h, rtol=0.0, atol=1e-15)
        assert np.array_equal(views[across[0]], centre)
        assert np.array_equal(views[across[1]], centre)


# ---- problem container ----


def test_problem_residual_and_known_solution_check():
    with pytest.raises(ValueError):
        FixedPointProblem(
            n=2,
            g=lambda x: x + 1.0,
            label="bad",
            default_start=np.zeros(2),
            known_solution=np.zeros(2),  # not a fixed point of x+1
        )
    for start, known in (
        (np.zeros(3), None),
        (np.array([0.0, np.nan]), None),
        (np.zeros(2), np.zeros(3)),
    ):
        with pytest.raises(ValueError):
            FixedPointProblem(n=2, g=lambda x: x, label="bad", default_start=start,
                              known_solution=known)


# ---- bratu ----


def test_bratu_zero_lambda_has_zero_fixed_point():
    p = bratu_problem(6, lam=0.0)
    assert norm2(p.g(np.zeros(p.n))) == 0.0


def test_bratu_first_step_from_zero_is_constant():
    # A*0 = 0 and exp(0) = 1, so g(0) = lam*h^2/4 at every interior node.
    for n_side, lam in ((4, 6.0), (9, 2.5)):
        p = bratu_problem(n_side, lam=lam)
        h = 1.0 / (n_side + 1)
        expect = lam * h * h / 4.0
        assert np.allclose(p.g(np.zeros(p.n)), expect, rtol=0.0, atol=1e-16)


def test_bratu_matches_hand_assembled_stencil_at_n4():
    # independent check: g(u) = u + (lam h^2 e^u - A u)/4 with dense A
    n_side = 4
    lam = 6.0
    p = bratu_problem(n_side, lam=lam)
    a = bratu_dense_operator(n_side)
    h = 1.0 / (n_side + 1)
    rng = np.random.default_rng(31)
    for _ in range(10):
        u = rng.standard_normal(p.n)
        expect = u + (lam * h * h * np.exp(u) - a @ u) / 4.0
        got = p.g(u)
        assert np.allclose(got, expect, rtol=1e-12, atol=1e-14)


def test_bratu_dense_operator_structure():
    a = bratu_dense_operator(3)
    assert a.shape == (9, 9)
    assert np.allclose(np.diag(a), 4.0)
    assert np.allclose(a, a.T)
    # row sums: 0 for interior nodes, positive where a boundary was dropped
    sums = a.sum(axis=1)
    assert sums.min() >= 0.0
    center = 1 * 3 + 1  # node (1, 1), entry i * n_side + j
    assert sums[center] == pytest.approx(0.0)


def test_bratu_validation():
    with pytest.raises(ValueError):
        bratu_problem(1)
    for lam in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lam"):
            bratu_problem(4, lam=lam)


# ---- convection-diffusion ----


def test_convdiff_matches_hand_assembled_stencil_at_n4():
    rng = np.random.default_rng(67)
    for scheme in ("centered", "upwind"):
        for eps in (1.0, 0.1):
            react = 3.0
            p = convdiff_problem(4, eps=eps, react=react, scheme=scheme)
            a = convdiff_dense_operator(4, eps=eps, scheme=scheme)
            h = 1.0 / 5.0
            diag = 4.0 * eps + (2.0 * h if scheme == "upwind" else 0.0)
            rhs = p.params["rhs"]
            for _ in range(5):
                u = rng.standard_normal(p.n)
                expect = u + (rhs - a @ u - react * h * h * u * u) / diag
                assert np.allclose(p.g(u), expect, rtol=1e-12, atol=1e-14)


def test_convdiff_linear_fixed_point_matches_direct_solve():
    # react=0 makes the problem linear: the fixed point is the solution of
    # the dense system, checked by direct solve.
    for scheme in ("centered", "upwind"):
        p = convdiff_problem(8, eps=1.0, react=0.0, scheme=scheme)
        a = convdiff_dense_operator(8, eps=1.0, scheme=scheme)
        u_star = np.linalg.solve(a, p.params["rhs"])
        assert norm2(p.g(u_star) - u_star) <= 1e-10


def test_convdiff_first_step_from_zero_is_positive():
    for scheme in ("centered", "upwind"):
        p = convdiff_problem(6, eps=0.5, react=3.0, scheme=scheme)
        step = p.g(np.zeros(p.n))
        assert np.all(step > 0.0)


def test_convdiff_upwind_rows_diagonally_dominant():
    # upwind keeps the operator an M-matrix for every eps > 0
    for eps in (1.0, 0.1, 0.01):
        a = convdiff_dense_operator(8, eps=eps, scheme="upwind")
        diag = np.abs(np.diag(a))
        off = np.abs(a).sum(axis=1) - diag
        assert np.all(diag >= off - 1e-14), eps


def test_convdiff_centered_loses_dominance_at_small_eps():
    # cell Peclet > 1: the centered east/north entries flip sign
    a = convdiff_dense_operator(8, eps=0.01, scheme="centered")
    h = 1.0 / 9.0
    assert -0.01 + h / 2.0 > 0.0  # sanity on the regime
    diag = np.abs(np.diag(a))
    off = np.abs(a).sum(axis=1) - diag
    assert np.any(off > diag)


def test_convdiff_default_start_is_ones():
    p = convdiff_problem(5)
    assert np.array_equal(p.default_start, np.ones(25))


def test_convdiff_validation():
    with pytest.raises(ValueError):
        convdiff_problem(4, scheme="upstream")
    for key, value in (("eps", 0.0), ("eps", float("nan")), ("eps", float("inf")),
                       ("react", float("nan")), ("react", float("-inf"))):
        with pytest.raises(ValueError, match=key):
            convdiff_problem(4, **{key: value})
    with pytest.raises(ValueError):
        convdiff_problem(1)


# ---- tridiagonal ----


def test_tridiag_known_solution_is_fixed_point():
    p = tridiag_problem(100)
    x = p.known_solution
    assert x is not None
    # closed form i(n+1-i)/2, 1-based
    i = np.arange(1, 101, dtype=float)
    assert np.allclose(x, i * (101.0 - i) / 2.0)
    assert norm2(p.g(x) - x) <= 1e-10


def test_tridiag_small_cases():
    p = tridiag_problem(2)
    assert np.allclose(p.known_solution, [1.0, 1.0])
    assert np.allclose(p.g(np.zeros(2)), [0.5, 0.5])
    with pytest.raises(ValueError):
        tridiag_problem(1)


def test_tridiag_apply_matches_dense():
    p = tridiag_problem(12)
    a_apply = p.params["a_apply"]
    a = np.diag(np.full(12, 2.0)) + np.diag(np.full(11, -1.0), 1) + np.diag(np.full(11, -1.0), -1)
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = rng.standard_normal(12)
        assert np.allclose(a_apply(v), a @ v, rtol=1e-14, atol=1e-14)


def _padded_g(problem):
    """The problem's g with its stencil border made by np.pad.

    The grid maps take each neighbour as a 2-D view of the padded grid and
    suppress overflow only where the library does: in exp and in the
    convdiff residual.
    """
    prm = problem.params
    if problem.label == "tridiag":

        def g(x):
            p = np.pad(x, 1)
            return x - ((2.0 * x - p[:-2] - p[2:]) - prm["b"]) / 2.0

        return g
    n_side, h = prm["N"], prm["h"]
    h2 = h * h

    def g(u):
        u2d = u.reshape(n_side, n_side)
        p = np.pad(u2d, 1)
        # x runs along axis 0 and y along axis 1, as in Grid2D.mesh().
        north, south, east, west = p[1:-1, 2:], p[1:-1, :-2], p[2:, 1:-1], p[:-2, 1:-1]
        lap = 4.0 * u2d - north - south - east - west
        if problem.label == "bratu":
            with np.errstate(over="ignore", invalid="ignore"):
                source = prm["lam"] * h2 * np.exp(u2d)
            return u + (source - lap).ravel() / 4.0
        if prm["scheme"] == "centered":
            conv = 0.5 * h * (north - south + east - west)
        else:
            conv = h * (2.0 * u2d - south - west)
        rhs = prm["rhs"].reshape(n_side, n_side)
        with np.errstate(over="ignore", invalid="ignore"):
            resid = rhs - (prm["eps"] * lap + conv + prm["react"] * h2 * u2d * u2d)
        return u + resid.ravel() / prm["operator_diag"]

    return g


@pytest.mark.parametrize(
    "problem",
    [
        bratu_problem(7),
        bratu_problem(16, lam=3.0),
        convdiff_problem(7, eps=0.01, scheme="centered"),
        convdiff_problem(16, eps=1.0, scheme="upwind"),
        tridiag_problem(2),
        tridiag_problem(50),
        *(
            factory(n_side)
            for n_side in (2, 3, 32, 64)
            for factory in (
                bratu_problem,
                lambda n: convdiff_problem(n, eps=0.01, scheme="centered"),
                lambda n: convdiff_problem(n, scheme="upwind"),
            )
        ),
    ],
    ids=lambda prob: f"{prob.label}-{prob.n}",
)
def test_stencil_maps_equal_the_np_pad_reference_bit_for_bit(problem):
    # Signed zeros and overflowing inputs too. Warnings are errors, so an
    # operation that overflows outside the library's np.errstate fails here.
    reference = _padded_g(problem)
    rng = np.random.default_rng(37)
    inputs = [rng.standard_normal(problem.n) * 10.0 ** rng.integers(-3, 2) for _ in range(20)]
    spread = rng.standard_normal(problem.n) * 10.0 ** rng.uniform(-3.0, 3.0, problem.n)
    zeros = spread.copy()
    zeros[::3] = 0.0
    zeros[1::3] = -0.0
    inputs += [spread, zeros, -zeros, np.full(problem.n, 800.0), np.full(problem.n, 1e200)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u in inputs:
            got, want = problem.g(u), reference(u)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))


# ---- gmres reference ----


def test_gmres_identity_converges_immediately():
    b = np.array([2.0, -1.0, 3.0])
    xs, rnorms = gmres_reference(lambda v: v.copy(), b, np.zeros(3), 3)
    assert rnorms[0] == pytest.approx(norm2(b))
    assert rnorms[-1] <= 1e-13
    assert np.allclose(xs[-1], b)
    # happy breakdown: done after one iteration, not three
    assert len(rnorms) == 2


def test_gmres_two_by_two_spd_exact_in_two():
    a = np.array([[3.0, 1.0], [1.0, 2.0]])
    b = np.array([1.0, 5.0])
    xs, rnorms = gmres_reference(lambda v: a @ v, b, np.zeros(2), 2)
    assert rnorms[-1] <= 1e-12
    assert np.allclose(xs[-1], np.linalg.solve(a, b), atol=1e-12)


def test_gmres_residuals_non_increasing_random():
    rng = np.random.default_rng(2020)
    for trial in range(8):
        n = 20
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        x0 = rng.standard_normal(n)
        xs, rnorms = gmres_reference(lambda v: a @ v, b, x0, n)
        diffs = np.diff(rnorms)
        assert np.all(diffs <= 1e-9 * rnorms[0]), trial
        # reported norms are true residual norms, not recurrence values
        for x, r in zip(xs, rnorms):
            assert abs(norm2(b - a @ x) - r) <= 1e-8 * max(1.0, rnorms[0])
        assert rnorms[-1] <= 1e-8 * rnorms[0]


def test_gmres_zero_rhs_short_circuits():
    xs, rnorms = gmres_reference(lambda v: 2.0 * v, np.zeros(4), np.zeros(4), 4)
    assert rnorms == [0.0]
    assert np.array_equal(xs[0], np.zeros(4))


def test_gmres_respects_iteration_cap():
    # laplacian-like system needs all n steps; cap at 5 and check length
    p = tridiag_problem(30)
    a_apply = p.params["a_apply"]
    xs, rnorms = gmres_reference(a_apply, p.params["b"], np.zeros(30), 5)
    assert len(rnorms) == 6 and len(xs) == 6


def test_gmres_validation():
    with pytest.raises(ValueError):
        gmres_reference(lambda v: v, np.ones(3), np.ones(3), 0)
    with pytest.raises(ValueError):
        gmres_reference(lambda v: v, np.ones(3), np.ones(3), 4)
    with pytest.raises(ValueError):
        gmres_reference(lambda v: v, np.ones(3), np.ones(4), 2)
