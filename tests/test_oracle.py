"""Whole runs against an independent dense reference of the spec semantics.

The reference below solves every mixing problem from scratch, min
||sum_i alpha_i f_i|| subject to sum_i alpha_i = 1, with numpy.linalg.lstsq
on [f_i - f_k] (Anderson 1965; Walker & Ni 2011, section 2). It keeps no
factor and no difference buffers. ADD steps both branches over one shared
history and blends them; AA(m,SPEC) runs a fresh inner history for iter_n
steps after every outer step. Both sides record every point g is evaluated
at, so one comparison covers the iterates, the damping probes, the inner
steps and the evaluation count.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anderkit.accelerator import DampingPolicy, WindowMeter
from anderkit.cli import parse_spec, render_spec
from anderkit.composer import AA, Additive, Multiplicative, Picard, RunConfig, run
from anderkit.diagnostics import Termination
from anderkit.problems import FixedPointProblem, bratu_problem, convdiff_problem, tridiag_problem

STEPS = 30
COND_LIMIT = 1e8
RTOL = 1e-9


class _Reference:
    """Dense re-implementation of run() that records what it evaluates."""

    def __init__(self, g):
        self.g = g
        self.evals = []  # every point g is evaluated at, in order
        self.live = self.peak = 0  # history vectors held, as WindowMeter counts
        # evaluations made before the first solve with cond >= COND_LIMIT
        self.cut = None

    def ev(self, x):
        self.evals.append(x)
        return self.g(x)

    def push(self, hist, depth, x, gx):
        hist.append((x, gx, gx - x))
        if len(hist) > depth:
            del hist[0]
        else:
            self.live += 1
            self.peak = max(self.peak, self.live)

    def mix(self, hist, m):
        xs, gxs, fs = (np.array(col) for col in zip(*hist[-(m + 1):]))
        if len(fs) == 1:
            return xs[0], gxs[0]
        diffs = (fs[:-1] - fs[-1]).T
        w, _, _, sv = np.linalg.lstsq(diffs, -fs[-1], rcond=None)
        full_rank = len(sv) == diffs.shape[1] and sv[-1] > 0.0
        if self.cut is None and not (full_rank and sv[0] / sv[-1] < COND_LIMIT):
            self.cut = len(self.evals)
        alpha = np.append(w, 1.0 - w.sum())
        return alpha @ xs, alpha @ gxs

    def step(self, spec, hist):
        """Next iterate, not yet evaluated."""
        if isinstance(spec, Picard):
            return hist[-1][1]
        if isinstance(spec, AA):
            x_avg, gx_avg = self.mix(hist, spec.m)
            d = spec.damping
            if d.kind == "optimized":
                r_p, r_q = x_avg - self.ev(x_avg), gx_avg - self.ev(gx_avg)
                # beta minimizes ||r_p - beta (r_p - r_q)||, clamped to 1;
                # a degenerate direction or a zero projection takes beta = 1
                dn = np.linalg.norm(r_p - r_q)
                beta = 1.0
                if dn > 1e-14 * np.linalg.norm(r_p):
                    beta = min(abs((r_p - r_q) @ r_p) / dn**2, 1.0) or 1.0
                return x_avg + beta * (gx_avg - x_avg)
            beta = d.beta if d.kind == "constant" else 1.0
            return (1.0 - beta) * x_avg + beta * gx_avg
        if isinstance(spec, Additive):
            xl = self.step(spec.left, hist)
            xr = self.step(spec.right, hist)
            return spec.w_left * xl + spec.w_right * xr
        # each inner step starts from the evaluated point before it
        x = self.step(spec.outer, hist)
        inner, depth = [], _depth(spec.inner)
        for _ in range(spec.iter_n):
            self.push(inner, depth, x, self.ev(x))
            x = self.step(spec.inner, inner)
        self.live -= len(inner)
        return x

    def run(self, spec, x0, steps):
        hist, depth = [], _depth(spec)
        self.push(hist, depth, x0, self.ev(x0))
        for _ in range(steps):
            x = self.step(spec, hist)
            self.push(hist, depth, x, self.ev(x))


def _depth(spec):
    if isinstance(spec, Picard):
        return 1
    if isinstance(spec, AA):
        return spec.m + 1
    if isinstance(spec, Additive):
        return max(_depth(spec.left), _depth(spec.right))
    return _depth(spec.outer)


PROBLEMS = {
    "tridiag30": tridiag_problem(30),
    "convdiff8": convdiff_problem(8),
    "bratu8": bratu_problem(8),
}


def _check_against_reference(spec, problem):
    calls = []

    def g(x):
        calls.append(np.array(x, copy=True))
        return problem.g(x)

    traced = FixedPointProblem(problem.n, g, problem.label, problem.default_start)
    meter = WindowMeter()
    cfg = RunConfig(tol=1e-300, max_iters=STEPS, divergence_factor=1e300)
    trace = run(spec, traced, problem.default_start, cfg, meter)
    ref = _Reference(problem.g)
    ref.run(spec, problem.default_start, trace.iters)
    if trace.termination != Termination.DIVERGED:
        assert trace.fevals == len(calls) == len(ref.evals)
        assert meter.peak == ref.peak
    cut = min(len(calls), len(ref.evals) if ref.cut is None else ref.cut)
    for i in range(cut):
        gap = np.linalg.norm(calls[i] - ref.evals[i])
        assert gap <= RTOL * np.linalg.norm(ref.evals[i]), (render_spec(spec), i, gap)


NAMED = (
    "picard",
    "AA(5)",
    "AA(3);beta=0.6",
    "AAoptD(4)",
    "ADD(AA(4),AA(1),0.3,0.7)",
    "ADD(AAoptD(2),AA(3,AA(2)),0.8,0.2)",
    "AA(3,AA(2));iterN=2",
    "AAoptD(2,ADD(AA(3),AA(0),0.25,0.75))",
    "AA(4,AA(2,AA(1)))",
)


CASES = [(text, problem) for text in NAMED for problem in sorted(PROBLEMS)] + [
    # Heavy damping keeps consecutive differences nearly parallel, so this
    # window's factor relies on the reorthogonalization pass. (On tridiag30
    # and bratu8 its large, cancelling alpha amplifies rounding past RTOL.)
    ("AA(10);beta=0.1", "convdiff8"),
]


@pytest.mark.parametrize("text, problem", CASES)
def test_named_specs_match_the_dense_reference(text, problem):
    _check_against_reference(parse_spec(text), PROBLEMS[problem])


_DAMPING = st.sampled_from(
    [DampingPolicy.none(), DampingPolicy.constant(0.6), DampingPolicy.optimized()]
)
_WINDOWED = st.builds(AA, st.integers(0, 4), _DAMPING)
_WEIGHT = st.sampled_from([0.5, 0.3, 0.8])


def _specs(depth):
    if depth == 1:
        return st.one_of(st.just(Picard()), _WINDOWED)
    sub = _specs(depth - 1)
    return st.one_of(
        sub,
        st.builds(lambda l, r, w: Additive(l, r, w, 1.0 - w), sub, sub, _WEIGHT),
        st.builds(Multiplicative, _WINDOWED, sub, st.integers(0, 2)),
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spec=_specs(3), problem=st.sampled_from(sorted(PROBLEMS)))
def test_random_specs_match_the_dense_reference(spec, problem):
    _check_against_reference(spec, PROBLEMS[problem])


def test_two_runs_in_one_process_give_identical_rows():
    problem = PROBLEMS["bratu8"]
    spec = parse_spec("ADD(AAoptD(3,AA(1)),AA(4),0.3,0.7)")
    cfg = RunConfig(tol=1e-300, max_iters=STEPS)

    def rows():
        trace = run(spec, problem, problem.default_start, cfg)
        return [
            (r.k, r.fevals, r.res_norm, r.beta, r.theta, r.alpha_abs_sum, r.inner_theta, r.mixing_checks)
            for r in trace.rows
        ]

    first = rows()
    assert len(first) == STEPS + 1 and repr(first) == repr(rows())
