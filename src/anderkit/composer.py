"""Accelerator composition algebra and the fixed-point runner.

A solver is described by a small recursive spec of two node classes: a
windowed Anderson accelerator AA, or an Additive blend of two specs over
one shared iterate history. AA(0) is plain fixed-point iteration, which
Picard() builds. An AA node with an inner spec is the multiplicative
composite AA(m,SPEC): each outer Anderson step hands its result to a freshly
started inner accelerator for iter_n steps. Multiplicative(outer, inner,
iter_n) builds one.

Each spec node steps itself: step(window, g) reads the newest `depth` slots
of the shared window, and `memory` is the most history slots live at once
while it steps (its depth plus the largest window it opens for one step). A step returns one flat record holding the next iterate, not yet
evaluated, and the fields of its trace row. `_advance` is the only place
that evaluates g on a produced iterate, checks that the image is finite and
pushes the pair onto a window.

Each node also describes itself: `label` is its canonical grammar string,
`iter_scale` the sub-steps one step counts for in paper-style iteration
plots, and `cost_per_step` the g evaluations one run() step spends on it,
the evaluation of its result included. These, depth and memory are set
once, when a node is built, from its fields and its children's values, so
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
from dataclasses import dataclass, field, replace
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
class AA:
    """Anderson acceleration with window size m (m + 1 stored iterates).

    With an inner spec the node is the multiplicative composite AA(m,SPEC):
    each outer step hands its result to a freshly started inner accelerator
    for iter_n steps. iter_n = 0 degenerates to the plain outer accelerator.
    AA(0) mixes a one-entry window, which is plain fixed-point iteration
    (Walker & Ni, 2011); undamped and uncomposed, it is labelled picard.
    """

    m: int
    damping: DampingPolicy = field(default_factory=DampingPolicy.none)
    inner: "AcceleratorSpec | None" = None
    iter_n: int = 1

    def __post_init__(self):
        _check_size("window size", self.m)
        _check_size("iter_n", self.iter_n)
        if self.inner is None and self.iter_n != 1:
            raise ValueError("iter_n applies to a composed AA(m,SPEC) only")
        policy, inner = self.damping, self.inner
        depth = self.m + 1
        # The optimized policy probes g at the averaged iterate and image.
        cost = 3 if policy.kind == "optimized" else 1
        memory, iter_scale = depth, 1
        if inner is not None and self.iter_n > 0:
            # The inner window holds the start of each of the iter_n inner steps.
            memory += inner.memory - max(inner.depth - self.iter_n, 0)
            iter_scale += self.iter_n
            cost += self.iter_n * inner.cost_per_step
        label = "AAoptD" if policy.kind == "optimized" else "AA"
        label += f"({self.m})" if inner is None else f"({self.m},{inner.label})"
        if policy.kind == "constant":
            label += f";beta={_num(policy.beta)}"
        elif policy.kind == "optimized":
            if policy.safeguard != "off" or policy.eta != DampingPolicy.eta:
                label += f";eta={_num(policy.eta)}"
            if policy.safeguard != "off":
                label += f";guard={policy.safeguard}"
        if self.iter_n != 1:
            label += f";iterN={self.iter_n}"
        _account(self, depth=depth, memory=memory, iter_scale=iter_scale, cost_per_step=cost,
                 label="picard" if label == "AA(0)" else label)

    def step(self, window: HistoryWindow, g) -> StepOutcome:
        oo = aa_step(window.tail(self.depth), self.damping, g)
        if self.inner is None or self.iter_n == 0:
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


@dataclass(frozen=True)
class Additive:
    """Affine blend of two accelerator steps over one shared history.

    The weights sum to one; either may be negative (2.0 and -1.0 extrapolate).

    The trace row carries the larger of the two gains and of the two
    ||alpha||_1, both branches' mixing checks, and no single beta.
    """

    left: "AcceleratorSpec"
    right: "AcceleratorSpec"
    w_left: float = 0.5
    w_right: float = 0.5

    def __post_init__(self):
        # Written so that NaN weights (or inf - inf) fail the check too.
        if not abs(self.w_left + self.w_right - 1.0) <= 1e-12:
            raise ValueError(
                f"weights must sum to 1, got {self.w_left} + {self.w_right}"
            )
        depth = max(self.left.depth, self.right.depth)
        weights = "" if (self.w_left, self.w_right) == (0.5, 0.5) else (
            f",{_num(self.w_left)},{_num(self.w_right)}")
        # The branches step in turn, so only the larger of their transient
        # windows is live on top of the shared one. Each branch's cost counts
        # the evaluation of its own result; only the blend's is made.
        _account(self, depth=depth, iter_scale=2,
                 memory=depth + max(b.memory - b.depth for b in (self.left, self.right)),
                 cost_per_step=self.left.cost_per_step + self.right.cost_per_step - 1,
                 label=f"ADD({self.left.label},{self.right.label}{weights})")

    def step(self, window: HistoryWindow, g) -> StepOutcome:
        lo = self.left.step(window, g)
        ro = self.right.step(window, g)
        x_next = self.w_left * lo.x_next + self.w_right * ro.x_next
        if not np.isfinite(x_next).all():
            raise DivergedError("blended iterate left the finite range")
        theta = max(lo.theta, ro.theta)
        abs_sum = max(lo.alpha_abs_sum, ro.alpha_abs_sum)
        return StepOutcome(x_next, None, theta, abs_sum, lo.checks + ro.checks)


def Picard() -> AA:
    """Plain fixed-point iteration x <- g(x), which is AA(0)."""
    return AA(0)


def Multiplicative(outer: AA, inner: "AcceleratorSpec", iter_n: int = 1) -> AA:
    """The composite AA(m,SPEC): outer with the inner spec, run iter_n times per step."""
    if not isinstance(outer, AA) or outer.inner is not None:
        raise ValueError("multiplicative composition needs a windowed outer accelerator")
    return replace(outer, inner=inner, iter_n=iter_n)


AcceleratorSpec = Union[AA, Additive]


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

    x is made read-only before g sees it, and the image is stored as a
    read-only copy, so g can neither write the iterate nor change the
    stored image later by reusing its output buffer. A non-finite image
    raises DivergedError before anything is pushed.
    """
    x.flags.writeable = False
    gx = np.array(g(x), dtype=float)
    if not np.isfinite(gx).all():
        raise DivergedError("evaluation left the finite range")
    gx.flags.writeable = False
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
    x = np.array(x0, dtype=float)
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
    # The last row's entry is the newest: no entry is pushed without a row.
    last = window.newest()
    return ConvergenceTrace(rows=rows, termination=termination, error=error, fevals=g.calls,
                            x=x if last is None else last.x)
