"""Scale equivariance of whole runs.

Anderson mixing is invariant under x -> c x with g_c(x) = c g(x / c): the
mixing coefficients solve a scale-free least-squares problem. For c = 2^e
every rounding scales exactly, so each trace row's residual norm must be
exactly c times the unscaled one, and beta, theta, ||alpha||_1 and the
mixing checks must be equal bit for bit.

Past |e| = 200 sums of squares under- or overflow. The reductions, the
factor's column norms and the damping projection then rescale by powers of
two, and the factor's downdate rotates R scaled by a power of two to its
largest entry, as LAPACK's dlartg would otherwise rescale by factors that
are not powers of two. So the rows keep their bits there too, out to the
|e| = 600 these tests reach.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anderkit.accelerator import DampingPolicy
from anderkit.cli import parse_spec, render_spec
from anderkit.composer import AA, Additive, Multiplicative, Picard, RunConfig, run
from anderkit.problems import FixedPointProblem, bratu_problem, convdiff_problem, tridiag_problem

PROBLEMS = {
    "tridiag30": tridiag_problem(30),
    "bratu16": bratu_problem(16),
    "convdiff16": convdiff_problem(16, eps=0.1),
}
CONFIG = RunConfig(tol=1e-300, max_iters=60)

_DAMPING = st.one_of(
    st.just(DampingPolicy.none()),
    st.builds(DampingPolicy.constant, st.sampled_from([0.6, 0.3])),
    st.builds(
        DampingPolicy.optimized,
        st.sampled_from(["off", "floor", "reflect"]),
        st.sampled_from([0.1, 0.2]),
    ),
)
_WINDOWED = st.builds(AA, st.integers(0, 5), _DAMPING)
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


def _scaled(problem, c):
    return FixedPointProblem(
        problem.n, lambda x: c * problem.g(x / c), problem.label, c * problem.default_start
    )


def _runs(spec, problem, e):
    """Run spec on the problem and on its 2^e scaling; assert equal outcomes and bits."""
    c = 2.0**e
    base = PROBLEMS[problem]
    plain = run(spec, base, base.default_start, CONFIG)
    scaled = run(spec, _scaled(base, c), c * base.default_start, CONFIG)
    label = (render_spec(spec), problem, e)
    assert (scaled.termination, scaled.iters, scaled.fevals) == (
        plain.termination, plain.iters, plain.fevals), label
    assert len(scaled.rows) == len(plain.rows), label
    for a, b in zip(plain.rows, scaled.rows):
        # repr compares NaN and the sign of zero as equal to themselves
        assert repr(b.res_norm) == repr(c * a.res_norm), (label, a.k)
        assert repr(_fields(b)) == repr(_fields(a)), (label, a.k)


def _fields(row):
    return (row.k, row.fevals, row.beta, row.theta, row.alpha_abs_sum, row.inner_theta,
            row.mixing_checks)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    spec=_specs(3),
    problem=st.sampled_from(sorted(PROBLEMS)),
    e=st.integers(-200, 200),
)
def test_runs_are_equivariant_under_power_of_two_scaling(spec, problem, e):
    _runs(spec, problem, e)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    spec=_specs(3),
    problem=st.sampled_from(sorted(PROBLEMS)),
    e=st.integers(201, 600),
    sign=st.sampled_from([-1, 1]),
)
def test_runs_keep_their_outcome_when_scaled_out_of_range(spec, problem, e, sign):
    _runs(spec, problem, sign * e)


# Every damping form and safeguard, both composites, and windows that evict
# (AA(5)) or never do (AA(40) within 60 steps).
FORMS = (
    "picard",
    "AA(5)",
    "AA(5);beta=0.5",
    "ADD(AA(5),AA(1))",
    "AA(5,AA(1))",
    "AA(40)",
    "AAoptD(5)",
    "AAoptD(5);guard=floor",
    "AAoptD(5,AA(1));eta=0.2;guard=reflect",
    "ADD(AAoptD(3),AA(2,picard))",
)


@pytest.mark.parametrize("form", FORMS)
def test_named_forms_keep_their_outcome_at_extreme_scales(form):
    # At 2^-600 a sum of squares that underflows to 0 would end a run as
    # converged at its seed row; at 2^600 one that overflows would diverge.
    spec = parse_spec(form)
    for problem in PROBLEMS:
        for e in (-600, -300, 300, 600):
            _runs(spec, problem, e)
