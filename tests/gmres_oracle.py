"""Full-memory GMRES, the test oracle for AA's equivalence on linear maps.

Walker & Ni (SINUM 2011): on a linear map, AA(m) with a window at least as
deep as the step count reproduces GMRES. No solve calls this; the tests
that check that equivalence, and the oracle itself, import it from here.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def gmres_reference(
    a_apply: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    x0: np.ndarray,
    iters: int,
) -> tuple[list[np.ndarray], list[float]]:
    """Full-memory GMRES with Givens rotations, for equivalence checks.

    Returns the iterates x_0 .. x_K and the true residual norms
    ||b - A x_k||_2, recomputed per iterate. Stops early on happy
    breakdown, where the Krylov space contains the exact solution.
    """
    b = np.asarray(b, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if b.ndim != 1 or x0.shape != b.shape:
        raise ValueError("b and x0 must be matching 1-D vectors")
    n = b.shape[0]
    if not 1 <= iters <= n:
        raise ValueError(f"iters must be in [1, {n}], got {iters}")

    xs = [x0.copy()]
    r0 = b - a_apply(x0)
    beta = float(np.linalg.norm(r0))
    rnorms = [beta]
    if beta == 0.0:
        return xs, rnorms

    basis = np.zeros((n, iters + 1))
    basis[:, 0] = r0 / beta
    rmat = np.zeros((iters + 1, iters))
    cs = np.zeros(iters)
    sn = np.zeros(iters)
    gvec = np.zeros(iters + 1)
    gvec[0] = beta

    for j in range(iters):
        w = a_apply(basis[:, j])
        scale = float(np.linalg.norm(w))
        col = np.zeros(j + 2)
        for i in range(j + 1):  # modified Gram-Schmidt
            col[i] = float(np.dot(basis[:, i], w))
            w = w - col[i] * basis[:, i]
        hsub = float(np.linalg.norm(w))
        col[j + 1] = hsub
        happy = hsub <= 1e-14 * max(scale, 1e-300)

        for i in range(j):
            tmp = cs[i] * col[i] + sn[i] * col[i + 1]
            col[i + 1] = -sn[i] * col[i] + cs[i] * col[i + 1]
            col[i] = tmp
        denom = float(np.hypot(col[j], col[j + 1]))
        if denom == 0.0:
            cs[j], sn[j] = 1.0, 0.0
        else:
            cs[j], sn[j] = col[j] / denom, col[j + 1] / denom
        col[j] = denom
        col[j + 1] = 0.0
        rmat[: j + 2, j] = col
        gvec[j + 1] = -sn[j] * gvec[j]
        gvec[j] = cs[j] * gvec[j]

        y = np.linalg.solve(rmat[: j + 1, : j + 1], gvec[: j + 1])
        x = x0 + basis[:, : j + 1] @ y
        xs.append(x)
        rnorms.append(float(np.linalg.norm(b - a_apply(x))))
        if happy or j + 1 >= iters:
            break
        basis[:, j + 1] = w / hsub
    return xs, rnorms
