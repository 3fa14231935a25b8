"""Benchmark fixed-point problems: Bratu, convection-diffusion, tridiagonal.

The PDE problems discretize on a uniform interior grid with h = 1/(N+1)
and keep the discrete equations in h^2-scaled stencil form, so the plain
five-point Laplacian reads (4 u_ij - neighbours). Each problem is exposed
as the Jacobi-preconditioned Richardson map

    g(u) = u + D^{-1} (rhs - operator(u)),

whose fixed points solve operator(u) = rhs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .kernel import norm2


@dataclass
class Grid2D:
    """Interior nodes of the unit square, n_side per direction."""

    n_side: int

    def __post_init__(self):
        if self.n_side < 1:
            raise ValueError(f"n_side must be >= 1, got {self.n_side}")

    @property
    def h(self) -> float:
        return 1.0 / (self.n_side + 1)

    @property
    def unknowns(self) -> int:
        return self.n_side * self.n_side

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Interior coordinate arrays (X, Y), each shaped (n_side, n_side).

        X[i, j] = (i + 1) h and Y[i, j] = (j + 1) h: x varies along axis 0
        and y along axis 1. Raveled row-major, node (i, j) is entry
        i * n_side + j, as in the grid problems' vectors.
        """
        pts = (np.arange(self.n_side) + 1.0) * self.h
        xgrid, ygrid = np.meshgrid(pts, pts, indexing="ij")
        return xgrid, ygrid


@dataclass
class FixedPointProblem:
    """A fixed-point map x = g(x) in R^n with benchmark metadata."""

    n: int
    g: Callable[[np.ndarray], np.ndarray]
    label: str
    default_start: np.ndarray
    params: dict = field(default_factory=dict)
    known_solution: np.ndarray | None = None

    def __post_init__(self):
        self.default_start = np.asarray(self.default_start, dtype=float)
        if self.default_start.shape != (self.n,):
            raise ValueError("default_start dimension does not match n")
        if not np.all(np.isfinite(self.default_start)):
            raise ValueError("default_start must be finite")
        if self.known_solution is not None:
            self.known_solution = np.asarray(self.known_solution, dtype=float)
            if self.known_solution.shape != (self.n,):
                raise ValueError("known_solution dimension does not match n")
            gap = norm2(self.g(self.known_solution) - self.known_solution)
            if not gap <= 1e-10:
                raise ValueError(f"known_solution is not a fixed point (residual {gap:.3e})")


def _stencil_views(u: np.ndarray, n_side: int):
    """Centre and north, south, east, west neighbours of u as shifts of one padded grid.

    u is copied into a zero-bordered (n_side + 2)^2 grid, flattened. Each
    view spans the interior rows, border columns included, so the five are
    equal-length contiguous shifts (0, +1, -1, +w, -w for width w). As in
    mesh(), y runs along axis 1 and x along axis 0: the +1 shift is the
    north neighbour (y + h) and the +w shift the east one (x + h). A
    result computed over them keeps its interior as [:, 1:-1] of the
    (n_side, w) reshape, and its border columns read only the zero border
    and one interior neighbour.
    """
    w = n_side + 2
    flat = np.zeros(w * w)
    flat.reshape(w, w)[1:-1, 1:-1] = u.reshape(n_side, n_side)
    lo, hi = w, w + n_side * w
    return flat[lo:hi], flat[lo + 1:hi + 1], flat[lo - 1:hi - 1], flat[lo + w:hi + w], flat[:hi - w]


def _interior(a: np.ndarray, n_side: int) -> np.ndarray:
    """The interior columns of a result computed over _stencil_views."""
    return a.reshape(n_side, n_side + 2)[:, 1:-1]


def _laplacian(centre, north, south, east, west) -> np.ndarray:
    """4 u - north - south - east - west, left to right, in one new array."""
    lap = 4.0 * centre
    lap -= north
    lap -= south
    lap -= east
    lap -= west
    return lap


def bratu_problem(n_side: int, lam: float = 6.0) -> FixedPointProblem:
    """Nonlinear Bratu equation -lap(u) = lam * e^u, zero boundary.

    h^2-scaled form: (4u - neighbours) - lam h^2 e^u = 0, diagonal 4.
    """
    if n_side < 2:
        raise ValueError(f"n_side must be >= 2, got {n_side}")
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    grid = Grid2D(n_side)
    h2 = grid.h * grid.h
    n = grid.unknowns

    def g(u):
        u = np.asarray(u, dtype=float)
        lap = _interior(_laplacian(*_stencil_views(u, n_side)), n_side)
        # u + (lam h^2 e^u - lap) / 4 in one buffer; * 0.25 is / 4 exactly.
        with np.errstate(over="ignore", invalid="ignore"):
            step = np.exp(u.reshape(n_side, n_side))
            step *= lam * h2
        step -= lap
        step *= 0.25
        step = step.ravel()
        step += u
        return step

    return FixedPointProblem(
        n=n,
        g=g,
        label="bratu",
        default_start=np.zeros(n),
        params={"N": n_side, "lam": lam, "h": grid.h, "operator_diag": 4.0},
    )


def convdiff_problem(
    n_side: int, eps: float = 1.0, react: float = 3.0, scheme: str = "centered"
) -> FixedPointProblem:
    """Convection-diffusion-reaction: eps(-u_xx - u_yy) + u_x + u_y + react u^2 = f.

    f = 2 pi^2 sin(pi x) sin(pi y), zero boundary. Convection is either
    centered or backward (upwind for the +x, +y flow). In h^2-scaled form
    the operator diagonal is 4 eps (centered) or 4 eps + 2h (upwind).
    """
    if scheme not in ("centered", "upwind"):
        raise ValueError(f"scheme must be 'centered' or 'upwind', got {scheme!r}")
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    if not math.isfinite(react):
        raise ValueError(f"react must be finite, got {react}")
    if n_side < 2:
        raise ValueError(f"n_side must be >= 2, got {n_side}")
    grid = Grid2D(n_side)
    h = grid.h
    h2 = h * h
    n = grid.unknowns
    xg, yg = grid.mesh()
    rhs = h2 * 2.0 * np.pi**2 * np.sin(np.pi * xg) * np.sin(np.pi * yg)
    diag = 4.0 * eps if scheme == "centered" else 4.0 * eps + 2.0 * h

    def g(u):
        u = np.asarray(u, dtype=float)
        centre, north, south, east, west = _stencil_views(u, n_side)
        lap = _laplacian(centre, north, south, east, west)
        # u + (rhs - (eps lap + conv + react h^2 u^2)) / diag, in place, with
        # the operands and the order of that expression.
        if scheme == "centered":
            conv = north - south
            conv += east
            conv -= west
            conv *= 0.5 * h
        else:
            conv = 2.0 * centre
            conv -= south
            conv -= west
            conv *= h
        with np.errstate(over="ignore", invalid="ignore"):
            lap *= eps
            lap += conv
            quad = centre * (react * h2)
            quad *= centre
            lap += quad
            resid = rhs - _interior(lap, n_side)
        resid = resid.ravel()
        resid /= diag
        resid += u
        return resid

    return FixedPointProblem(
        n=n,
        g=g,
        label=f"convdiff-{scheme}",
        default_start=np.ones(n),
        params={
            "N": n_side,
            "eps": eps,
            "react": react,
            "scheme": scheme,
            "h": h,
            "rhs": rhs.ravel(),
            "operator_diag": diag,
        },
    )


def tridiag_problem(n: int = 100) -> FixedPointProblem:
    """Linear system A x = b with A = tridiag(-1, 2, -1) and b = ones.

    Jacobi splitting gives g(x) = x - (A x - b) / 2; the solution is
    x_i = i (n + 1 - i) / 2 for 1-based i.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    b = np.ones(n)
    idx = np.arange(1, n + 1, dtype=float)
    known = idx * (n + 1 - idx) / 2.0

    def a_apply(x):
        x = np.asarray(x, dtype=float)
        p = np.zeros(n + 2)
        p[1:-1] = x
        return 2.0 * x - p[:-2] - p[2:]

    def g(x):
        x = np.asarray(x, dtype=float)
        return x - (a_apply(x) - b) / 2.0

    return FixedPointProblem(
        n=n,
        g=g,
        label="tridiag",
        default_start=np.zeros(n),
        params={"n": n, "b": b, "a_apply": a_apply, "operator_diag": 2.0},
        known_solution=known,
    )
