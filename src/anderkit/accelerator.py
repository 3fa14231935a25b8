"""Anderson mixing core: iterate history, coefficient solves, damping.

At iterate x_k with residual f_k = g(x_k) - x_k, the mixing coefficients
alpha over the window's p + 1 most recent iterates minimize
||sum_i alpha_i f_i||_2 subject to sum_i alpha_i = 1.

Following Walker & Ni (2011, section 4), the constraint is eliminated with
the consecutive differences df_i = f_{i+1} - f_i, which span the same space
as the f_i - f_k: gamma minimizes ||f_k - dF gamma||_2, and alpha follows
by differencing gamma. Because each push only appends one difference
column and, once the window is full, drops the oldest, the window keeps a
thin QR factor of dF up to date by column updates instead of refactoring
the whole block every step (Daniel, Gragg, Kaufman & Stewart, 1976). The
factor is all the window keeps of dF: the averages are x_k - dX gamma and
f_k - Q (R gamma). A window therefore holds only its newest (x_k, g(x_k),
f_k), the factor, and the difference block dX in a mirrored ring buffer:
each column is written at its ring row and, where a live block can reach
it, again one ring length further down, so the live block, oldest first,
is always one contiguous slice.

The factor is valid as soon as the window holds one difference; the
kernel updates it (qr_append, qr_downdate) and loads scipy for it. Every mix,
full window or tail, is one least_squares call on R's columns and Q^T f_k,
which is computed once per push and shared with the tails. A whole
window's R is square and is solved as the triangle it is when its diagonal
passes the rank test; a tail's block of R's newest columns, or an R with a
zero or tiny diagonal entry, takes the pivoted solve. A tail is a
read-only view of the same buffers, valid until the window's next push.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .kernel import NORMAL_MIN, dot, least_squares, load_scipy, max_exponent, norm2, ordered_sum
from .kernel import qr_append, qr_downdate

# Relative threshold below which the damping direction r_p - r_q is treated
# as degenerate and the undamped step is taken.
_DEGENERATE_RTOL = 1e-14

# A one-entry window mixes nothing: alpha = [1], and theta and both
# coefficient sums are 1.0. Every such step (each Picard step, the first
# step of each fresh inner window) shares these objects, so its trace row
# holds none of its own. The unit alpha is read-only because it is shared.
_UNIT_ALPHA = np.ones(1)
_UNIT_ALPHA.flags.writeable = False
_ONE = 1.0
_UNIT_CHECKS = ((_ONE, _ONE),)


class DivergedError(RuntimeError):
    """Raised when a step or an evaluation leaves the finite float range."""


class WindowEntry(NamedTuple):
    x: np.ndarray
    gx: np.ndarray
    f: np.ndarray
    # ||f||_2, computed once when the entry is pushed.
    f_norm: float


class WindowMeter:
    """Counts history slots held by live windows; tracks the peak."""

    def __init__(self) -> None:
        self.current = 0
        self.peak = 0

    def acquire(self) -> None:
        self.current += 1
        if self.current > self.peak:
            self.peak = self.current

    def release(self, k: int) -> None:
        self.current -= k


class HistoryWindow:
    """Sliding window over the last `capacity` iterates.

    Pushing beyond capacity evicts the oldest iterate. All vectors in a
    window share one dimension; single-writer use is assumed. The window
    keeps only its newest entry (x, g(x), f and f_norm = ||f||_2, computed
    once so no reader recomputes it) and its length.

    The older iterates live on only as the p = len - 1 consecutive
    differences dx_i = x_{i+1} - x_i, in a ring buffer of capacity - 1
    slots, and df_i = f_{i+1} - f_i, as a thin QR factor of the df block,
    set whenever p >= 1. Each dx column is written at ring row r and again
    at r + capacity - 1 where that row exists, so the live columns, oldest
    first, are always the contiguous rows [_head, _head + p) and every
    reader takes a slice. As _head < capacity - 1 and p <= capacity - 1,
    2 capacity - 3 rows hold every row a live block reads. Q's
    columns are orthonormal or exactly zero, and a zero column has a zero
    row in R; QR is the df block, which no array holds.

    The factor lives in storage allocated with the ring buffer: _q, a
    max(n, capacity - 1) x (capacity - 1) Fortran-ordered array whose rows
    past n stay zero, and _r, its square triangle. Each push downdates and
    extends them in place, so factor is a pair of views of their leading p
    columns (and n rows), valid until the window's next push.
    A one-column factor is replaced, not downdated: deleting its only
    column would leave nothing, so an evicting push onto a full
    capacity-2 window writes the new column over q[:, 0] and r[0, 0].
    """

    def __init__(self, capacity: int, meter: WindowMeter | None = None):
        if capacity < 1:
            raise ValueError(f"window capacity must be >= 1, got {capacity}")
        if capacity > 2:
            load_scipy()
        self.capacity = capacity
        self.meter = meter
        self._newest: WindowEntry | None = None
        self._len = 0
        self._closed = False
        # The window a tail() view reads; views must not be pushed onto.
        self._root: HistoryWindow | None = None
        # Difference column i sits in row _head + i of _dx.
        self._dx: np.ndarray | None = None
        self._head = 0
        # The factor's storage; factor views its leading p columns.
        self._q: np.ndarray | None = None
        self._r: np.ndarray | None = None
        self.factor: tuple[np.ndarray, np.ndarray] | None = None
        # Q^T f_k of the newest entry, cleared by push.
        self._qtf: np.ndarray | None = None

    def __len__(self) -> int:
        return self._len

    def push(self, x, gx) -> "HistoryWindow":
        if self._root is not None:
            raise ValueError("cannot push onto a tail view; push onto its window")
        x = np.asarray(x, dtype=float)
        gx = np.asarray(gx, dtype=float)
        if x.ndim != 1 or gx.shape != x.shape:
            raise ValueError(
                f"push expects matching 1-D vectors, got {x.shape} and {gx.shape}"
            )
        prev = self._newest
        if prev is not None and x.shape != prev.x.shape:
            raise ValueError(
                f"dimension {x.shape[0]} does not match window dimension {prev.x.shape[0]}"
            )
        f = gx - x
        self._newest = entry = WindowEntry(x, gx, f, norm2(f))
        self._qtf = None
        full = self._len == self.capacity
        if not full:
            self._len += 1
            if self.meter is not None:
                self.meter.acquire()
        if prev is not None and self.capacity > 1:
            self._append_difference(prev, entry, evict=full)
        return self

    def _append_difference(self, prev: WindowEntry, entry: WindowEntry, evict: bool) -> None:
        slots = self.capacity - 1
        if self._dx is None:
            n = entry.x.shape[0]
            self._dx = np.empty((2 * slots - 1, n))
            # Rows past n stay zero: qr_delete rotates a Q with more columns
            # than rows wrongly, and a window deeper than n would give one.
            self._q = np.zeros((max(n, slots), slots), order="F")
            self._r = np.zeros((slots, slots))
        p = self._len - 1
        if evict:
            self._head = (self._head + 1) % slots
        row = (self._head + p - 1) % slots
        # The ring row and, where a live block can reach it, its mirror row + slots.
        np.subtract(entry.x, prev.x, out=self._dx[row::slots])
        # A one-column factor is not downdated: the append overwrites it.
        if evict and p > 1:
            qr_downdate(self._q[:, :p], self._r[:p, :p])
        q = self._q[: entry.x.shape[0]]
        qr_append(q, self._r, p - 1, entry.f - prev.f)
        self.factor = (q[:, :p], self._r[:p, :p])

    def differences(self) -> np.ndarray:
        """The dx block as a p x n view, oldest column first."""
        if self._dx is None:
            return np.empty((0, self._newest.x.shape[0] if self._newest is not None else 0))
        return self._dx[self._head : self._head + self._len - 1]

    def tail(self, k: int) -> "HistoryWindow":
        """Read-only view of the newest min(k, len) iterates, unmetered.

        With k >= len the view is the window itself. A smaller view shares
        the window's newest entry, dx rows, Q and Q^T f_k, and carries R's
        newest k - 1 columns, so Q times them is its df block.
        It is valid only until the window's next push, and refuses push.
        """
        if k < 1:
            raise ValueError(f"tail size must be >= 1, got {k}")
        if k >= self._len:
            return self
        view = HistoryWindow(k)
        view._newest, view._len, view._root = self._newest, k, self
        if k > 1:
            view._dx = self.differences()[1 - k:]
            q, r = self.factor
            view.factor = (q, r[:, 1 - k:])
        return view

    def qtf(self) -> np.ndarray:
        """Q^T f_k, computed at the first call after a push and shared with tails."""
        owner = self if self._root is None else self._root
        if owner._qtf is None:
            owner._qtf = self.factor[0].T @ self._newest.f
        return owner._qtf

    def newest(self) -> WindowEntry | None:
        return self._newest

    def close(self) -> None:
        if self.meter is not None and not self._closed:
            self.meter.release(self._len)
        self._closed = True


@dataclass(frozen=True)
class DampingPolicy:
    """How the mixed step is damped.

    kind "none" takes the undamped step (beta = 1), "constant" uses a fixed
    beta in (0, 1], and "optimized" picks beta per step by projecting the
    averaged residual onto the damping direction. The optional safeguard
    keeps an optimized beta away from zero: "floor" clamps it up to eta,
    "reflect" maps beta < eta to 1 - beta. eta must lie in (0, 0.5).
    """

    kind: str = "none"
    beta: float = 1.0
    safeguard: str = "off"
    eta: float = 0.1

    def __post_init__(self):
        if self.kind not in ("none", "constant", "optimized"):
            raise ValueError(f"unknown damping kind {self.kind!r}")
        if self.kind == "constant" and not 0.0 < self.beta <= 1.0:
            raise ValueError(f"constant beta must be in (0, 1], got {self.beta}")
        if self.safeguard not in ("off", "floor", "reflect"):
            raise ValueError(f"unknown safeguard {self.safeguard!r}")
        if not 0.0 < self.eta < 0.5:
            raise ValueError(f"eta must be in (0, 0.5), got {self.eta}")
        # A field the kind ignores would be lost on a round trip through the grammar.
        if self.kind != "constant" and self.beta != 1.0:
            raise ValueError(f"beta applies to constant damping, not {self.kind!r}")
        if self.kind != "optimized" and (self.safeguard, self.eta) != ("off", 0.1):
            raise ValueError(f"safeguard and eta apply to optimized damping, not {self.kind!r}")

    @classmethod
    def none(cls) -> "DampingPolicy":
        return cls()

    @classmethod
    def constant(cls, beta: float) -> "DampingPolicy":
        return cls(kind="constant", beta=beta)

    @classmethod
    def optimized(cls, safeguard: str = "off", eta: float = 0.1) -> "DampingPolicy":
        return cls(kind="optimized", safeguard=safeguard, eta=eta)


@dataclass
class MixingResult:
    """Coefficients and averages of one mixing solve.

    alpha is ordered oldest entry first and sums to one; mixed_norm is
    ||sum_i alpha_i f_i||_2, the residual norm left after mixing. A
    one-entry window's alpha is one shared, read-only [1.0].
    """

    alpha: np.ndarray
    x_avg: np.ndarray
    gx_avg: np.ndarray
    mixed_norm: float

    @property
    def alpha_sum(self) -> float:
        return ordered_sum(self.alpha)

    @property
    def alpha_abs_sum(self) -> float:
        return ordered_sum(np.abs(self.alpha))


@dataclass(slots=True)
class StepOutcome:
    """One step's next iterate, not yet evaluated, and the fields of its trace row.

    checks holds one (theta, alpha_sum) pair per mixing event, in order.
    """

    x_next: np.ndarray
    beta: float | None
    theta: float | None
    alpha_abs_sum: float | None
    checks: tuple
    inner_theta: float | None = None


def solve_mixing_coefficients(window: HistoryWindow) -> MixingResult:
    """Solve the constrained mixing problem over the window's residuals.

    With dF = QR, ||f_k - dF gamma||_2 and ||Q^T f_k - R gamma||_2 differ
    only by the part of f_k outside Q's range, so gamma is least_squares
    on the window's R columns and Q^T f_k, and the mixed residual
    f_k - dF gamma is f_k - Q (R gamma). least_squares solves a whole
    window's square R directly when its diagonal passes the rank test;
    otherwise its pivoted solve gives columns below RANK_TOL zero weight,
    so a degenerate window prefers the newest iterate.
    alpha = diff([0, gamma, 1]) sums to one by construction.
    """
    if not len(window):
        raise ValueError("cannot mix an empty window")
    newest = window.newest()
    if len(window) == 1:
        return MixingResult(
            alpha=_UNIT_ALPHA, x_avg=newest.x, gx_avg=newest.gx, mixed_norm=newest.f_norm
        )
    q, r = window.factor
    gamma = least_squares(r, window.qtf())
    x_avg = gamma @ window.differences()
    np.subtract(newest.x, x_avg, out=x_avg)
    # np.dot, not @: on a depth-1 window's n x 1 Fortran view of Q, @ costs
    # about twice as much for the same bits.
    mixed = np.dot(q, np.dot(r, gamma))
    np.subtract(newest.f, mixed, out=mixed)
    # alpha = diff([0, gamma, 1])
    alpha = np.concatenate((gamma, (1.0,)))
    alpha[1:] -= gamma
    return MixingResult(alpha=alpha, x_avg=x_avg, gx_avg=x_avg + mixed, mixed_norm=norm2(mixed))


def optimized_beta(r_p, r_q) -> float:
    """Damping factor minimizing ||r_p - beta (r_p - r_q)||_2 over the line.

    r_p and r_q are the residuals at the averaged iterate and at the
    averaged g-image. The magnitude of the 1-D least-squares minimizer is
    clamped to 1. A degenerate direction, ||r_p - r_q|| <= 1e-14 ||r_p||
    (relative, so beta is scale-free; r_p = r_q = 0 is one), or an
    uninformative one falls back to the undamped value 1. beta is the same
    for r_p - r_q and r_p scaled alike, so where ||r_p - r_q||^2 would
    leave the normal range both are scaled by one power of two first.
    """
    r_p = np.asarray(r_p, dtype=float)
    r_q = np.asarray(r_q, dtype=float)
    diff = r_p - r_q
    dn = norm2(diff)
    if dn <= _DEGENERATE_RTOL * norm2(r_p):
        return 1.0
    if not NORMAL_MIN <= dn * dn < math.inf:
        e = max_exponent(diff)
        if e is not None:
            diff, r_p = np.ldexp(diff, -e), np.ldexp(r_p, -e)
            dn = norm2(diff)
    raw = abs(dot(diff, r_p)) / (dn * dn)
    if raw == 0.0:
        # A zero projection would freeze the iterate; take the plain step.
        return 1.0
    return min(raw, 1.0)


def safeguard_beta(beta: float, policy: DampingPolicy) -> float:
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    if policy.safeguard == "floor":
        return max(beta, policy.eta)
    if policy.safeguard == "reflect":
        return beta if beta >= policy.eta else 1.0 - beta
    return beta


def aa_step(
    window: HistoryWindow,
    policy: DampingPolicy,
    g: Callable[[np.ndarray], np.ndarray],
) -> StepOutcome:
    """One Anderson step from the window's current contents.

    Returns the next iterate with its trace-row fields: beta, the mixing
    gain theta = ||sum_i alpha_i f_i|| / ||f_k||, ||alpha||_1, and the one
    mixing check (theta, sum_i alpha_i). The optimized policy spends
    exactly two g evaluations (at the averaged iterate and at the averaged
    g-image); the other policies spend none. An undamped step returns the
    averaged g-image itself, which for a one-entry window is the stored g(x).
    """
    mix = solve_mixing_coefficients(window)
    fk_norm = window.newest().f_norm
    theta = mix.mixed_norm / fk_norm if fk_norm > 0.0 else 0.0
    # A finite ||f|| proves x and g(x) finite, and a one-entry window's
    # undamped step is its g(x), so only that step skips the check below.
    checked = True

    if policy.kind == "optimized":
        # g gets read-only points, as run() gives it: these may be stored ones.
        mix.x_avg.flags.writeable = mix.gx_avg.flags.writeable = False
        gp = g(mix.x_avg)
        # Formed before the second probe, which may write over gp's buffer.
        r_p = mix.x_avg - gp if np.isfinite(gp).all() else None
        gq = g(mix.gx_avg)
        if r_p is None or not np.isfinite(gq).all():
            raise DivergedError("damping probe evaluations left the finite range")
        r_q = mix.gx_avg - gq
        beta = safeguard_beta(optimized_beta(r_p, r_q), policy)
        x_next = mix.x_avg + beta * (mix.gx_avg - mix.x_avg)
    else:
        beta = 1.0 if policy.kind == "none" else policy.beta
        if beta == 1.0:
            # Equal in value to the blend below, which would add 0 * x_avg:
            # only the sign of a zero entry can differ.
            x_next = mix.gx_avg
            checked = len(window) > 1 or not math.isfinite(fk_norm)
        else:
            x_next = (1.0 - beta) * mix.x_avg + beta * mix.gx_avg

    if checked and not np.isfinite(x_next).all():
        raise DivergedError("next iterate left the finite range")
    # A field equal to 1.0 is the shared 1.0, and a check equal to (1.0, 1.0)
    # the shared tuple: the same bits, held once for every row.
    theta = _ONE if theta == 1.0 else theta
    abs_sum = mix.alpha_abs_sum
    abs_sum = _ONE if abs_sum == 1.0 else abs_sum
    alpha_sum = mix.alpha_sum
    checks = _UNIT_CHECKS if theta == alpha_sum == 1.0 else ((theta, alpha_sum),)
    return StepOutcome(x_next, beta, theta, abs_sum, checks)
