"""Accelerator composition algebra and the fixed-point runner.

A solver is described by a small recursive spec: Picard, a windowed
Anderson accelerator AA, an Additive blend of two specs over one shared
iterate history, or a Multiplicative chain where each outer Anderson step
hands its result to a freshly started inner accelerator for iter_n steps.

Each spec node steps itself: step(window, g) reads the newest `depth` slots
of the shared window, and `memory` is an upper bound on the history slots
live while it steps (its depth plus the largest window it opens for one
step). A step returns one flat record holding the next iterate, not yet
evaluated, and the fields of its trace row. `_advance` is the only place
that evaluates g on a produced iterate, checks that the image is finite and
pushes the pair onto a window.

Each node also describes itself: `label` is its canonical grammar string,
`iter_scale` the sub-steps one step counts for in paper-style iteration
plots, and `cost_per_step` the g evaluations one run() step spends on it,
the evaluation of its result included. These four numbers are set once,
when a node is built, from its fields and its children's numbers, so
reading one never walks the tree.

run() records the seed as step 0, a step whose outcome is x0 itself, and
evaluates and records every step the same way. After each row the first
check that holds ends the run: converged, then diverged (from step 1 on),
then max_iters, then max_fevals.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .accelerator import (
    DampingPolicy,
    DivergedError,
    HistoryWindow,
    StepOutcome,
    WindowEntry,
    WindowMeter,
    aa_step,
)
from .diagnostics import ConvergenceTrace, Termination, TraceRow
# Unused since each push computes its entry's norm; bench/spans.py rebinds it.
from .kernel import norm2  # noqa: F401


def _num(x: float) -> str:
    return repr(float(x))


def _check_size(name: str, value, least: int = 0) -> None:
    # bool is an Integral, but AA(True) would render a label that does not parse.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _account(node, **values) -> None:
    """Set node's accounting attributes; they are not fields, so ==, repr and hash ignore them."""
    for name, value in values.items():
        object.__setattr__(node, name, value)


@dataclass(frozen=True)
class Picard:
    """Plain fixed-point iteration x <- g(x)."""

    depth = memory = iter_scale = cost_per_step = 1
    label = "picard"

    def step(self, window: HistoryWindow, g) -> StepOutcome:
        return _PLAIN.step(window, g)


@dataclass(frozen=True)
class AA:
    """Anderson acceleration with window size m (m + 1 stored iterates)."""

    m: int
    damping: DampingPolicy = field(default_factory=DampingPolicy.none)

    iter_scale = 1

    def __post_init__(self):
        _check_size("window size", self.m)
        # The optimized policy probes g at the averaged iterate and image.
        _account(self, depth=self.m + 1, memory=self.m + 1,
                 cost_per_step=3 if self.damping.kind == "optimized" else 1)

    @property
    def label(self) -> str:
        return self.label_with()

    def label_with(self, inner: str = "") -> str:
        """The grammar string with `inner` (",SPEC" or "") inside the parentheses."""
        policy = self.damping
        name = "AAoptD" if policy.kind == "optimized" else "AA"
        text = f"{name}({self.m}{inner})"
        if policy.kind == "constant":
            text += f";beta={_num(policy.beta)}"
        elif policy.kind == "optimized":
            if policy.safeguard != "off" or policy.eta != DampingPolicy.eta:
                text += f";eta={_num(policy.eta)}"
            if policy.safeguard != "off":
                text += f";guard={policy.safeguard}"
        return text

    def step(self, window: HistoryWindow, g) -> StepOutcome:
        return aa_step(window.tail(self.depth), self.damping, g)


_PLAIN = AA(0)


@dataclass(frozen=True)
class Additive:
    """Convex blend of two accelerator steps over one shared history.

    The trace row carries the larger of the two gains and of the two
    ||alpha||_1, both branches' mixing checks, and no single beta.
    """

    left: "AcceleratorSpec"
    right: "AcceleratorSpec"
    w_left: float = 0.5
    w_right: float = 0.5

    iter_scale = 2

    def __post_init__(self):
        # Written so that NaN weights (or inf - inf) fail the check too.
        if not abs(self.w_left + self.w_right - 1.0) <= 1e-12:
            raise ValueError(
                f"weights must sum to 1, got {self.w_left} + {self.w_right}"
            )
        depth = max(self.left.depth, self.right.depth)
        # The branches step in turn, so only the larger of their transient
        # windows is live on top of the shared one. Each branch's cost counts
        # the evaluation of its own result; only the blend's is made.
        _account(self, depth=depth,
                 memory=depth + max(b.memory - b.depth for b in (self.left, self.right)),
                 cost_per_step=self.left.cost_per_step + self.right.cost_per_step - 1)

    @property
    def label(self) -> str:
        text = f"ADD({self.left.label},{self.right.label}"
        if (self.w_left, self.w_right) != (0.5, 0.5):
            text += f",{_num(self.w_left)},{_num(self.w_right)}"
        return text + ")"

    def step(self, window: HistoryWindow, g) -> StepOutcome:
        lo = self.left.step(window, g)
        ro = self.right.step(window, g)
        x_next = self.w_left * lo.x_next + self.w_right * ro.x_next
        if not np.isfinite(x_next).all():
            raise DivergedError("blended iterate left the finite range")
        theta = max(lo.theta, ro.theta)
        abs_sum = max(lo.alpha_abs_sum, ro.alpha_abs_sum)
        return StepOutcome(x_next, None, theta, abs_sum, lo.checks + ro.checks)


@dataclass(frozen=True)
class Multiplicative:
    """Outer windowed accelerator chained with a fresh inner one per step.

    iter_n = 0 degenerates to the plain outer accelerator.
    """

    outer: "AcceleratorSpec"
    inner: "AcceleratorSpec"
    iter_n: int = 1

    def __post_init__(self):
        if not isinstance(self.outer, AA):
            raise ValueError("multiplicative composition needs a windowed outer accelerator")
        _check_size("iter_n", self.iter_n)
        inner = self.inner
        # The inner window holds the start of each of the iter_n inner steps.
        _account(self, depth=self.outer.depth,
                 memory=self.outer.depth + inner.memory - max(inner.depth - self.iter_n, 0),
                 iter_scale=1 + self.iter_n,
                 cost_per_step=self.outer.cost_per_step + self.iter_n * inner.cost_per_step)

    @property
    def label(self) -> str:
        if self.outer.damping.kind == "constant":
            raise ValueError("constant-damped outer accelerators have no grammar form")
        text = self.outer.label_with(f",{self.inner.label}")
        if self.iter_n != 1:
            text += f";iterN={self.iter_n}"
        return text

    def step(self, window: HistoryWindow, g) -> StepOutcome:
        oo = self.outer.step(window, g)
        if self.iter_n == 0:
            return oo
        x = oo.x_next
        checks = oo.checks
        inner_theta = None
        inner_window = HistoryWindow(self.inner.depth, window.meter)
        try:
            for _ in range(self.iter_n):
                _advance(inner_window, x, g)
                io = self.inner.step(inner_window, g)
                if inner_theta is None:
                    inner_theta = io.theta
                checks += io.checks
                x = io.x_next
        finally:
            inner_window.close()
        return StepOutcome(x, oo.beta, oo.theta, oo.alpha_abs_sum, checks, inner_theta)


AcceleratorSpec = Union[Picard, AA, Additive, Multiplicative]


@dataclass
class RunConfig:
    tol: float = 1e-8
    max_iters: int = 1000
    max_fevals: int = 1_000_000
    divergence_factor: float = 1e6

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        _check_size("max_iters", self.max_iters, least=1)
        _check_size("max_fevals", self.max_fevals, least=1)
        if not 1.0 < self.divergence_factor < math.inf:
            raise ValueError(
                f"divergence_factor must exceed 1 and be finite, got {self.divergence_factor}"
            )


class CountingMap:
    """Wraps the fixed-point map and counts evaluations."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray]):
        self.fn = fn
        self.calls = 0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.calls += 1
        return self.fn(x)


def _advance(window: HistoryWindow, x: np.ndarray, g) -> WindowEntry:
    """Evaluate g(x), push (x, g(x)) onto window and return the new entry.

    A non-finite image raises DivergedError before anything is pushed.
    """
    gx = g(x)
    if not np.isfinite(gx).all():
        raise DivergedError("evaluation left the finite range")
    window.push(x, gx)
    return window.newest()


def run(
    spec: AcceleratorSpec,
    problem,
    x0,
    config: RunConfig | None = None,
    meter: WindowMeter | None = None,
) -> ConvergenceTrace:
    """Iterate a solver spec on problem.g from x0 until a termination fires.

    Row 0 is the seed step, whose iterate is x0 itself; later iterates come
    from the solver's step. Each row records the residual of the freshly
    evaluated pair, cumulative evaluation counts and the step's mixing
    diagnostics. The first check that holds on a row ends the run:
    converged, diverged (from step 1), max_iters, then max_fevals.

    Invalid arguments raise before the first evaluation. After that, any
    exception but DivergedError from an evaluation or a step (a failing g,
    a LinAlgError from the kernel) ends the run as FAILED: the rows so far
    are kept and the trace's error names the exception.
    """
    config = config if config is not None else RunConfig()
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1 or x.shape[0] != problem.n:
        raise ValueError(f"x0 must be a length-{problem.n} vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    if not isinstance(spec, AcceleratorSpec):
        raise TypeError(f"not an accelerator spec: {spec!r}")
    g = CountingMap(problem.g)
    window = HistoryWindow(spec.depth, meter)
    start = time.perf_counter_ns()
    rows: list[TraceRow] = []
    termination: Termination | None = None
    error: str | None = None
    out = StepOutcome(x, None, None, None, ())  # step 0, the seed: x0 itself
    k = 0
    while termination is None:
        try:
            if k > 0:
                out = spec.step(window, g)
            res = _advance(window, out.x_next, g).f_norm
        except DivergedError:
            termination = Termination.DIVERGED
            break
        except Exception as exc:  # noqa: BLE001 - kept on the trace
            termination, error = Termination.FAILED, f"{type(exc).__name__}: {exc}"
            break
        rows.append(
            TraceRow(
                k=k, fevals=g.calls, res_norm=res, beta=out.beta, theta=out.theta,
                alpha_abs_sum=out.alpha_abs_sum, wall_ns=time.perf_counter_ns() - start,
                inner_theta=out.inner_theta, mixing_checks=out.checks,
            )
        )
        if res <= config.tol:
            termination = Termination.CONVERGED
        elif k > 0 and (
            not math.isfinite(res) or res > config.divergence_factor * rows[0].res_norm
        ):
            termination = Termination.DIVERGED
        elif k >= config.max_iters:
            termination = Termination.MAX_ITERS
        elif g.calls + spec.cost_per_step > config.max_fevals:
            termination = Termination.MAX_FEVALS
        k += 1

    window.close()
    return ConvergenceTrace(rows=rows, termination=termination, error=error, fevals=g.calls)
