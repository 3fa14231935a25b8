"""Solver-spec composition semantics, the run loop, and evaluation accounting."""

import math

import numpy as np
import pytest
import scipy.linalg

from anderkit import accelerator
from anderkit.accelerator import DampingPolicy, WindowMeter
from anderkit.cli import parse_spec
from anderkit.composer import (
    AA,
    Additive,
    CountingMap,
    Multiplicative,
    Picard,
    RunConfig,
    run,
)
from anderkit.diagnostics import Termination
from anderkit.kernel import norm2
from anderkit.problems import FixedPointProblem, bratu_problem, tridiag_problem
from test_equivariance import FORMS, PROBLEMS


def affine_problem(seed=0, n=8, scale=0.8):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, n))
    mat *= scale / np.linalg.norm(mat, 2)
    offset = rng.standard_normal(n)
    return FixedPointProblem(
        n=n,
        g=lambda x: mat @ x + offset,
        label="affine-test",
        default_start=np.zeros(n),
    )


def res_seq(trace):
    return [r.res_norm for r in trace.rows]


# ---- spec dataclasses ----


def test_spec_validation():
    for m in (-1, 2.0, True):
        with pytest.raises(ValueError):
            AA(m)
    with pytest.raises(ValueError):
        Additive(AA(1), AA(2), 0.7, 0.2)
    with pytest.raises(ValueError):
        Additive(Picard(), AA(1), float("nan"), float("nan"))
    for iter_n in (-1, 1.5, False):
        with pytest.raises(ValueError):
            Multiplicative(AA(2), AA(1), iter_n=iter_n)
    with pytest.raises(ValueError):
        RunConfig(tol=0.0)
    for budgets in (
        {"max_iters": 0},
        {"max_iters": 2.5},
        {"max_iters": True},
        {"max_fevals": 0},
        {"max_fevals": 3.5},
    ):
        with pytest.raises(ValueError, match="must be"):
            RunConfig(**budgets)
    with pytest.raises(ValueError):
        RunConfig(divergence_factor=1.0)
    for bounds in ({"tol": math.inf}, {"divergence_factor": math.inf}):
        with pytest.raises(ValueError, match="finite"):
            RunConfig(**bounds)
    # legal corners
    AA(0)
    assert AA(np.int64(3)).label == "AA(3)"
    assert Multiplicative(AA(2), AA(1), iter_n=np.int64(2)).label == "AA(2,AA(1));iterN=2"
    Multiplicative(AA(3), Picard(), iter_n=0)
    Additive(Picard(), AA(2), 0.25, 0.75)
    RunConfig(max_iters=np.int64(5), max_fevals=np.int64(1))


def test_composition_needs_a_plain_windowed_outer():
    # iter_n has no grammar form without an inner spec
    with pytest.raises(ValueError, match="composed"):
        AA(2, iter_n=3)
    # a composed outer would silently drop one of the two inner specs
    with pytest.raises(ValueError, match="windowed outer"):
        Multiplicative(Multiplicative(AA(2), AA(1)), AA(1))
    # picard is AA(0), which composes as the grammar's AA(0,SPEC)
    assert Multiplicative(Picard(), AA(1)) == parse_spec("AA(0,AA(1))")
    assert Multiplicative(AA(2), AA(1), 3) == AA(2, DampingPolicy.none(), AA(1), 3)


def test_counting_map():
    g = CountingMap(lambda x: x + 1)
    assert g.calls == 0
    out = g(np.array([1.0]))
    assert out[0] == 2.0 and g.calls == 1
    g(out)
    assert g.calls == 2


# ---- baseline equivalences ----


def test_picard_equals_window_zero_bitwise():
    p = affine_problem(seed=1)
    cfg = RunConfig(tol=1e-12, max_iters=40)
    a = run(Picard(), p, p.default_start, cfg)
    b = run(AA(0), p, p.default_start, cfg)
    assert res_seq(a) == res_seq(b)
    assert a.fevals == b.fevals
    assert a.termination == b.termination


def test_multiplicative_iter_zero_is_plain_outer_bitwise():
    p = affine_problem(seed=2)
    cfg = RunConfig(tol=1e-12, max_iters=40)
    a = run(AA(3), p, p.default_start, cfg)
    b = run(Multiplicative(AA(3), AA(1), iter_n=0), p, p.default_start, cfg)
    assert res_seq(a) == res_seq(b)
    assert a.fevals == b.fevals


def test_additive_with_full_weight_on_left_is_plain_left():
    p = affine_problem(seed=3)
    cfg = RunConfig(tol=1e-12, max_iters=40)
    a = run(AA(3), p, p.default_start, cfg)
    b = run(Additive(AA(3), AA(1), 1.0, 0.0), p, p.default_start, cfg)
    assert res_seq(a) == res_seq(b)
    assert a.fevals == b.fevals


@pytest.mark.parametrize(
    "optimized, plain, problem",
    [("AAoptD(2)", "AA(2)", lambda: tridiag_problem(30)),
     ("AAoptD(3,AA(1))", "AA(3,AA(1))", lambda: bratu_problem(16))],
)
def test_optimized_damping_whose_every_beta_is_one_runs_as_aa(optimized, plain, problem):
    # A beta = 1 step is the averaged image under every policy, so AAoptD
    # differs from AA only by its two probes per step.
    p = problem()
    cfg = RunConfig(tol=1e-300, max_iters=40)
    damped = run(parse_spec(optimized), p, p.default_start, cfg)
    undamped = run(parse_spec(plain), p, p.default_start, cfg)
    assert len(damped.rows) == len(undamped.rows) == 41
    assert all(row.beta == 1.0 for row in damped.rows[1:])
    fields = lambda row: repr((row.res_norm, row.theta, row.alpha_abs_sum, row.mixing_checks))
    for a, b in zip(damped.rows, undamped.rows):
        assert fields(a) == fields(b), a.k
        assert a.fevals - b.fevals == 2 * a.k


def test_inner_picard_one_step_is_g_of_half_step():
    # composed form with a picard inner: x_next = g(x_half). Equivalent to
    # chaining one extra map application after each outer mixed step.
    p = affine_problem(seed=4)
    cfg = RunConfig(tol=1e-12, max_iters=30)
    composed = run(Multiplicative(AA(2), Picard(), iter_n=1), p, p.default_start, cfg)

    # manual reference: intercept the outer trajectory
    from anderkit.accelerator import HistoryWindow, aa_step

    w = HistoryWindow(3)
    x = p.default_start.copy()
    w.push(x, p.g(x))
    manual = []
    for _ in range(10):
        x_half = aa_step(w, DampingPolicy.none(), p.g).x_next
        x = p.g(x_half)
        w.push(x, p.g(x))
        manual.append(float(np.linalg.norm(w.newest().f)))
    got = res_seq(composed)[1:11]
    assert np.allclose(got, manual, rtol=1e-13, atol=0.0)


# ---- evaluation accounting ----


def test_feval_totals_for_ten_steps():
    p = affine_problem(seed=5)
    cfg = RunConfig(tol=1e-300, max_iters=10)
    table = [
        (Picard(), 11),  # seed + 1 per step
        (AA(2), 11),
        (AA(2, DampingPolicy.optimized()), 31),  # seed + 3 per step
        (Multiplicative(AA(2), AA(1)), 21),  # seed + 2 per step
        (Multiplicative(AA(2, DampingPolicy.optimized()), AA(1)), 41),  # seed + 4
        (Multiplicative(AA(2), AA(1), iter_n=2), 31),  # seed + 3 per step
        (Additive(AA(2), AA(1)), 11),  # shared history, 1 per step
    ]
    for spec, want in table:
        trace = run(spec, p, p.default_start, cfg)
        assert trace.termination == Termination.MAX_ITERS
        assert trace.fevals == want, (spec, trace.fevals)


@pytest.mark.parametrize(
    "text, cost",
    [
        ("picard", 1),
        ("AA(3)", 1),
        ("AAoptD(3)", 3),
        ("ADD(AA(3),AAoptD(1))", 3),
        ("AA(3,AA(1));iterN=7", 8),
        ("AAoptD(2,AAoptD(1));iterN=2", 9),
        ("ADD(AA(2,AA(1)),AA(3))", 2),
        ("ADD(AA(2,AA(1)),AAoptD(2,ADD(AA(1),picard)))", 5),
    ],
)
def test_cost_per_step_and_the_hard_evaluation_budget(text, cost):
    spec = parse_spec(text)
    assert spec.cost_per_step == cost
    p = tridiag_problem(30)
    trace = run(spec, p, p.default_start, RunConfig(tol=1e-300, max_fevals=10))
    assert trace.termination == Termination.MAX_FEVALS
    # no step starts that the budget cannot pay for in full
    assert 10 - cost < trace.fevals <= 10
    assert trace.fevals == 1 + cost * trace.iters


def test_deep_specs_built_in_code_account_and_run():
    # Each node's accounting is set when it is built, so reading it does not recurse.
    additive = Picard()
    for _ in range(400):
        additive = Additive(Picard(), additive)
    multiplicative = Picard()
    for _ in range(600):
        multiplicative = Multiplicative(AA(1), multiplicative)
    p = tridiag_problem(10)
    for spec, accounting in ((additive, (1, 1, 2, 1)), (multiplicative, (2, 602, 2, 601))):
        got = (spec.depth, spec.memory, spec.iter_scale, spec.cost_per_step)
        assert got == accounting
        trace = run(spec, p, p.default_start, RunConfig(tol=1e-300, max_iters=2))
        assert trace.iters == 2
        assert trace.fevals == 1 + trace.iters * spec.cost_per_step


def test_feval_column_is_cumulative_and_monotone():
    p = affine_problem(seed=6)
    cfg = RunConfig(tol=1e-300, max_iters=8)
    trace = run(Multiplicative(AA(1), AA(1)), p, p.default_start, cfg)
    fe = [r.fevals for r in trace.rows]
    assert fe == [1 + 2 * k for k in range(9)]


# ---- window memory ----


def test_peak_window_slots_by_composition():
    p = affine_problem(seed=7, n=6)
    cfg = RunConfig(tol=1e-300, max_iters=15)
    for spec, want in [
        (Picard(), 1),
        (AA(4), 5),
        (Additive(AA(4), AA(2)), 5),  # shared window: max(m+1, n+1)
        (Additive(AA(1), AA(4)), 5),
        (Multiplicative(AA(4), AA(1)), 6),  # m+1 outer plus the one inner start
        # inner window fill is iterN pushes, capped at its depth
        (Multiplicative(AA(4), AA(2), iter_n=1), 6),
        (Multiplicative(AA(4), AA(2), iter_n=2), 7),
        (Multiplicative(AA(4), AA(2), iter_n=5), 8),
        (Multiplicative(AA(4), Picard()), 6),
        (Multiplicative(AA(1), AA(5), iter_n=0), 2),  # opens no inner window
        (Multiplicative(AA(1), Multiplicative(AA(1), AA(1)), iter_n=0), 2),
        # a composite branch opens its inner window on top of the full shared one
        (Additive(Multiplicative(AA(2), AA(1)), AA(5)), 7),
        (Additive(AA(5), Multiplicative(AA(2), AA(1))), 7),
    ]:
        meter = WindowMeter()
        run(spec, p, p.default_start, cfg, meter=meter)
        assert meter.peak == want == spec.memory, (spec, meter.peak, spec.memory)
        assert meter.current == 0  # all windows closed after the run


# ---- run-loop terminations ----


def test_converged_at_seed_when_starting_at_fixed_point():
    p = affine_problem(seed=8)
    fixed = np.linalg.solve(np.eye(p.n) - _matrix_of(p), _offset_of(p))
    trace = run(Picard(), p, fixed, RunConfig(tol=1e-10))
    assert trace.termination == Termination.CONVERGED
    assert len(trace.rows) == 1
    assert trace.rows[0].k == 0 and trace.fevals == 1
    assert trace.rows[0].beta is None and trace.rows[0].theta is None


def _matrix_of(problem):
    n = problem.n
    cols = [problem.g(col) - problem.g(np.zeros(n)) for col in np.eye(n)]
    return np.column_stack(cols)


def _offset_of(problem):
    return problem.g(np.zeros(problem.n))


def test_converged_on_contraction():
    p = affine_problem(seed=9)
    trace = run(AA(2), p, p.default_start, RunConfig(tol=1e-9, max_iters=500))
    assert trace.termination == Termination.CONVERGED
    assert trace.final_res <= 1e-9
    assert trace.rows[-1].res_norm == trace.final_res


def test_max_iters_termination():
    p = affine_problem(seed=10)
    trace = run(Picard(), p, p.default_start, RunConfig(tol=1e-300, max_iters=7))
    assert trace.termination == Termination.MAX_ITERS
    assert trace.iters == 7 and len(trace.rows) == 8


def test_max_fevals_termination():
    p = affine_problem(seed=11)
    trace = run(Picard(), p, p.default_start, RunConfig(tol=1e-300, max_fevals=5))
    assert trace.termination == Termination.MAX_FEVALS
    assert trace.fevals == 5
    # a step is only started while the budget is strictly unspent
    trace1 = run(Picard(), p, p.default_start, RunConfig(tol=1e-300, max_fevals=1))
    assert trace1.termination == Termination.MAX_FEVALS
    assert trace1.fevals == 1 and len(trace1.rows) == 1


def test_diverged_by_residual_growth():
    p = FixedPointProblem(
        n=1, g=lambda x: 2.0 * x, label="doubling", default_start=np.array([1.0])
    )
    trace = run(Picard(), p, p.default_start, RunConfig(tol=1e-12, max_iters=10_000))
    assert trace.termination == Termination.DIVERGED
    assert trace.final_res > 1e6 * trace.rows[0].res_norm


def test_diverged_by_overflow_to_non_finite():
    p = FixedPointProblem(
        n=1, g=lambda x: x * x + 1.0, label="squares", default_start=np.array([2.0])
    )
    cfg = RunConfig(tol=1e-12, max_iters=10_000, divergence_factor=1e307)
    # ||f|| stays finite at f = 1.4e181, so the run goes on until g itself
    # overflows to inf, and that step leaves no row.
    with pytest.warns(RuntimeWarning, match="overflow"):
        trace = run(Picard(), p, p.default_start, cfg)
    assert trace.termination == Termination.DIVERGED
    # before the last recorded row every residual is finite
    assert all(np.isfinite(r.res_norm) for r in trace.rows[:-1])


def test_diverged_at_seed_returns_empty_trace():
    p = FixedPointProblem(
        n=1, g=lambda x: np.full_like(x, np.nan), label="nan", default_start=np.array([0.0])
    )
    trace = run(Picard(), p, p.default_start)
    assert trace.termination == Termination.DIVERGED
    assert trace.rows == []
    # the seeding evaluation counts though it left no row
    assert np.isnan(trace.final_res) and trace.iters == 0 and trace.fevals == 1


def test_termination_ladder_edge_order():
    # x0 and g(x0) are finite but g(x0) - x0 overflows: the seed is row 0
    # with an infinite residual, and divergence is judged from step 1 only.
    p = FixedPointProblem(
        n=1, g=lambda x: np.full_like(x, 1e308), label="overflow", default_start=[-1e308]
    )
    with pytest.warns(RuntimeWarning, match="overflow"):
        trace = run(Picard(), p, p.default_start)
    assert trace.termination == Termination.CONVERGED
    assert [r.k for r in trace.rows] == [0, 1]
    assert trace.rows[0].res_norm == np.inf and trace.final_res == 0.0
    # Convergence wins over a budget that the same row spends.
    p = FixedPointProblem(
        n=1, g=lambda x: np.full_like(x, 2.0), label="constant", default_start=[0.0]
    )
    for x0, cfg, iters in [
        ([2.0], RunConfig(max_fevals=1), 0),  # the seed is the fixed point
        ([0.0], RunConfig(max_iters=1), 1),
        ([0.0], RunConfig(max_fevals=2), 1),
    ]:
        trace = run(Picard(), p, x0, cfg)
        assert (trace.termination, trace.iters) == (Termination.CONVERGED, iters)


def _failing_on_call(n_fail, problem):
    calls = {"n": 0}

    def g(x):
        calls["n"] += 1
        if calls["n"] == n_fail:
            raise RuntimeError("boom")
        return problem.g(x)

    return FixedPointProblem(n=problem.n, g=g, label="flaky", default_start=problem.default_start)


def test_a_raising_map_ends_the_run_as_failed_and_keeps_the_rows():
    base = affine_problem(seed=14)
    meter = WindowMeter()
    trace = run(AA(2), _failing_on_call(3, base), base.default_start, meter=meter)
    assert trace.termination == Termination.FAILED
    assert trace.error == "RuntimeError: boom"
    assert [row.k for row in trace.rows] == [0, 1]
    # the raising call counts; the rows keep their own counts
    assert trace.fevals == 3 and trace.rows[-1].fevals == 2
    assert meter.current == 0
    # a damping probe that raises: seed 1, step 1 spends 3, the probe is call 5
    damped = run(AA(2, DampingPolicy.optimized()), _failing_on_call(5, base), base.default_start)
    assert damped.termination == Termination.FAILED and damped.error == "RuntimeError: boom"
    assert [row.fevals for row in damped.rows] == [1, 4] and damped.fevals == 5
    # raising at the seed leaves no row, as a non-finite seed does
    seed = run(AA(2), _failing_on_call(1, base), base.default_start)
    assert seed.termination == Termination.FAILED and seed.rows == []
    # a run that ends any other way carries no error
    assert run(AA(2), base, base.default_start).error is None


def test_a_non_finite_image_of_the_last_inner_iterate_ends_the_run_as_diverged():
    # AA(2,AA(1)) evaluates the outer result (call 2k) and run() the last
    # inner iterate (call 2k + 1), so call 5 is the image of step 2's result.
    base = affine_problem(seed=16)
    calls = {"n": 0}

    def g(x):
        calls["n"] += 1
        return np.full_like(x, np.nan) if calls["n"] == 5 else base.g(x)

    p = FixedPointProblem(n=base.n, g=g, label="nan-at-5", default_start=base.default_start)
    spec = Multiplicative(AA(2), AA(1))
    meter = WindowMeter()
    trace = run(spec, p, p.default_start, meter=meter)
    assert trace.termination == Termination.DIVERGED and trace.error is None
    assert [(row.k, row.fevals) for row in trace.rows] == [(0, 1), (1, 3)]
    assert trace.fevals == 5 and meter.current == 0
    clean = run(spec, base, base.default_start, RunConfig(tol=1e-300, max_iters=1))
    assert [row.res_norm for row in trace.rows] == [row.res_norm for row in clean.rows]


# The map contract as run() enforces it, on every named form and test problem.
CONTRACT_RUN = RunConfig(tol=1e-8, max_iters=200)


def _with_map(problem, g):
    return FixedPointProblem(problem.n, g, problem.label, problem.default_start)


def _row_bits(row):
    return repr((row.k, row.fevals, row.res_norm, row.beta, row.theta, row.alpha_abs_sum,
                 row.inner_theta, row.mixing_checks))


@pytest.mark.parametrize("form", FORMS)
def test_a_map_that_reuses_its_output_buffer_runs_as_a_fresh_one(form):
    # Stored images are copies: a map that writes every image into one
    # buffer used to turn the stored g(x) of a Picard step into the next x
    # and certify f = 0 at step 1.
    spec = parse_spec(form)
    for name, problem in PROBLEMS.items():
        buf = np.empty(problem.n)

        def reusing(x, problem=problem, buf=buf):
            buf[:] = problem.g(x)
            return buf

        fresh = run(spec, problem, problem.default_start, CONTRACT_RUN)
        reused = run(spec, _with_map(problem, reusing), problem.default_start, CONTRACT_RUN)
        case = (form, name)
        assert (reused.termination, reused.iters, reused.fevals) == (
            fresh.termination, fresh.iters, fresh.fevals), case
        assert [_row_bits(r) for r in reused.rows] == [_row_bits(r) for r in fresh.rows], case
        assert np.array_equal(reused.x, fresh.x), case


@pytest.mark.parametrize("form", FORMS)
def test_every_array_handed_to_g_is_read_only(form):
    # A map that writes its argument ends the run as failed, with numpy's message.
    spec = parse_spec(form)
    for name, problem in PROBLEMS.items():
        writable = []

        def watching(x, problem=problem):
            writable.append(x.flags.writeable)
            return problem.g(x)

        trace = run(spec, _with_map(problem, watching), problem.default_start, CONTRACT_RUN)
        assert trace.fevals == len(writable) > 1 and not any(writable), (form, name)

        def scribbling(x, problem=problem):
            gx = problem.g(x)
            x[:] = 0.0
            return gx

        start = problem.default_start.copy()
        trace = run(spec, _with_map(problem, scribbling), start, CONTRACT_RUN)
        assert trace.termination == Termination.FAILED and trace.rows == [], (form, name)
        assert trace.error == "ValueError: assignment destination is read-only", (form, name)
        assert np.array_equal(start, problem.default_start), (form, name)


@pytest.mark.parametrize("form", FORMS)
def test_the_trace_returns_the_iterate_it_certifies(form):
    spec = parse_spec(form)
    for name, problem in PROBLEMS.items():
        trace = run(spec, problem, problem.default_start, CONTRACT_RUN)
        assert not trace.x.flags.writeable, (form, name)
        assert norm2(problem.g(trace.x) - trace.x) == trace.final_res, (form, name)
    # Without a row the iterate is x0 itself.
    problem = tridiag_problem(5)
    nan_seed = _with_map(problem, lambda x: np.full_like(x, np.nan))
    trace = run(spec, nan_seed, problem.default_start)
    assert trace.rows == [] and np.array_equal(trace.x, problem.default_start)


def test_whole_windows_solve_their_triangle_and_tails_their_block(monkeypatch):
    # Every mix hands least_squares R's columns and nothing else, and the
    # input picks the path. A whole window's R is square and, full rank
    # here, is solved as the triangle it is; ADD's AA(1) branch reads a
    # tail of the shared window, whose p x 1 block of R's newest column is
    # not square and takes the pivoted solve.
    calls = []
    real = accelerator.least_squares

    def spy(matrix, rhs, **kwargs):
        w = real(matrix, rhs, **kwargs)
        calls.append((matrix.shape, kwargs, w, matrix.copy(), rhs.copy()))
        return w

    monkeypatch.setattr(accelerator, "least_squares", spy)
    problem = tridiag_problem(30)
    for spec, tails in ((AA(3), False), (Additive(AA(3), AA(1)), True)):
        calls.clear()
        trace = run(spec, problem, problem.default_start, RunConfig(tol=1e-300, max_iters=10))
        assert trace.iters == 10
        assert all(kwargs == {} for _, kwargs, *_ in calls), spec
        shapes = [shape for shape, *_ in calls]
        assert shapes.count((3, 3)) >= 6, spec
        assert ((3, 1) in shapes) == tails and ((2, 1) in shapes) == tails, spec
        assert all(p == q or q == 1 for p, q in shapes), spec
        for (p, q), _, w, mat, rhs in calls:
            if p == q > 1:
                want = scipy.linalg.solve_triangular(np.asfortranarray(mat), rhs)
                assert np.array_equal(w, want), spec
            elif q < p:
                assert np.array_equal(w, real(mat, rhs)), spec


def test_a_kernel_error_ends_the_run_as_failed(monkeypatch):
    def singular(matrix, rhs, **_):
        raise np.linalg.LinAlgError("singular")

    # solve_mixing_coefficients looks least_squares up in its own module.
    monkeypatch.setattr(accelerator, "least_squares", singular)
    p = affine_problem(seed=15)
    trace = run(AA(2), p, p.default_start)
    # the first step mixes a one-entry window, which needs no solve
    assert trace.termination == Termination.FAILED
    assert trace.error == "LinAlgError: singular"
    assert [row.k for row in trace.rows] == [0, 1]


def test_run_validates_start_vector():
    p = affine_problem(seed=12)
    with pytest.raises(ValueError):
        run(Picard(), p, np.zeros(p.n + 1))
    with pytest.raises(ValueError):
        run(Picard(), p, np.full(p.n, np.inf))
    with pytest.raises(TypeError):
        run("AA(2)", p, p.default_start)


# ---- trace diagnostics content ----


def test_rows_carry_mixing_checks_per_event():
    p = affine_problem(seed=13)
    cfg = RunConfig(tol=1e-300, max_iters=6)
    for spec, events in [
        (AA(2), 1),
        (Additive(AA(2), AA(1)), 2),
        (Multiplicative(AA(2), AA(1)), 2),  # one outer, one inner
        (Multiplicative(AA(2), AA(1), iter_n=3), 4),
    ]:
        trace = run(spec, p, p.default_start, cfg)
        for row in trace.rows[1:]:
            assert len(row.mixing_checks) == events, (spec, row.k)
            for theta, alpha_sum in row.mixing_checks:
                assert theta <= 1.0 + 1e-12
                assert abs(alpha_sum - 1.0) <= 1e-10


def test_multiplicative_rows_record_inner_theta():
    p = affine_problem(seed=14)
    trace = run(Multiplicative(AA(2), AA(1)), p, p.default_start, RunConfig(tol=1e-300, max_iters=5))
    for row in trace.rows[1:]:
        # the inner window holds a single seed entry at its first step
        assert row.inner_theta == 1.0
    plain = run(AA(2), p, p.default_start, RunConfig(tol=1e-300, max_iters=5))
    assert all(r.inner_theta is None for r in plain.rows)


def test_additive_row_fields_take_the_larger_branch_values():
    from anderkit.accelerator import HistoryWindow, aa_step

    p = affine_problem(seed=19)
    trace = run(Additive(AA(2), AA(1)), p, p.default_start, RunConfig(tol=1e-300, max_iters=5))
    w = HistoryWindow(3)
    w.push(p.default_start, p.g(p.default_start))
    theta_from_right = False
    for row in trace.rows[1:]:
        dl = aa_step(w.tail(3), DampingPolicy.none(), p.g)
        dr = aa_step(w.tail(2), DampingPolicy.none(), p.g)
        x = 0.5 * dl.x_next + 0.5 * dr.x_next
        w.push(x, p.g(x))
        assert row.beta is None
        assert row.theta == pytest.approx(max(dl.theta, dr.theta), rel=1e-12)
        assert row.alpha_abs_sum == pytest.approx(max(dl.alpha_abs_sum, dr.alpha_abs_sum), rel=1e-12)
        want = [*dl.checks, *dr.checks]
        assert np.array(row.mixing_checks) == pytest.approx(np.array(want), rel=1e-12)
        assert row.inner_theta is None
        theta_from_right |= dr.theta > dl.theta
    # the branches disagree, so taking one side's values would be caught
    assert theta_from_right and dl.alpha_abs_sum != dr.alpha_abs_sum


def test_multiplicative_row_fields_come_from_the_outer_step():
    from anderkit.accelerator import HistoryWindow, aa_step

    p = affine_problem(seed=20)
    outer_policy = DampingPolicy.optimized()
    spec = Multiplicative(AA(2, outer_policy), AA(1), iter_n=2)
    trace = run(spec, p, p.default_start, RunConfig(tol=1e-300, max_iters=5))
    w = HistoryWindow(3)
    w.push(p.default_start, p.g(p.default_start))
    for row in trace.rows[1:]:
        do = aa_step(w.tail(3), outer_policy, p.g)
        x = do.x_next
        inner = HistoryWindow(2)
        inner.push(x, p.g(x))
        inner_diags = []
        for _ in range(2):
            di = aa_step(inner.tail(2), DampingPolicy.none(), p.g)
            x = di.x_next
            inner.push(x, p.g(x))
            inner_diags.append(di)
        w.push(x, p.g(x))
        assert row.beta == pytest.approx(do.beta, rel=1e-12)
        assert row.theta == pytest.approx(do.theta, rel=1e-12)
        assert row.alpha_abs_sum == pytest.approx(do.alpha_abs_sum, rel=1e-12)
        # outer event first, then the inner ones in order
        want = [*do.checks] + [check for d in inner_diags for check in d.checks]
        assert np.array(row.mixing_checks) == pytest.approx(np.array(want), rel=1e-12)
        # the first inner step, on the seed entry alone, not the second
        assert row.inner_theta == inner_diags[0].theta == 1.0
        assert inner_diags[1].theta != 1.0


def test_additive_weights_blend_the_two_steps():
    p = affine_problem(seed=15)
    cfg = RunConfig(tol=1e-300, max_iters=1)

    from anderkit.accelerator import HistoryWindow, aa_step

    # reproduce one blended step by hand
    x0 = p.default_start
    w = HistoryWindow(3)
    w.push(x0, p.g(x0))
    left = aa_step(w.tail(3), DampingPolicy.none(), p.g).x_next
    right = aa_step(w.tail(2), DampingPolicy.none(), p.g).x_next
    blended = 0.3 * left + 0.7 * right
    expect = float(np.linalg.norm(p.g(blended) - blended))

    trace = run(Additive(AA(2), AA(1), 0.3, 0.7), p, p.default_start, cfg)
    assert trace.rows[1].res_norm == pytest.approx(expect, rel=1e-14)

    # a blend that overflows ends the run as diverged before it is evaluated
    huge = FixedPointProblem(n=1, g=lambda x: np.full(1, 1e308), label="huge",
                             default_start=np.zeros(1))
    with pytest.warns(RuntimeWarning, match="overflow"):
        trace = run(Additive(Picard(), AA(0), 2.0, -1.0), huge, huge.default_start)
    assert trace.termination == Termination.DIVERGED
    assert len(trace.rows) == 1 and trace.fevals == 1


def test_additive_with_identical_sides_matches_single_accelerator():
    p = affine_problem(seed=3, n=6, scale=0.7)
    cfg = RunConfig(tol=1e-300, max_iters=12)
    single = run(AA(2), p, p.default_start, cfg)

    # 0.5 is a power of two, so the convex blend of equal steps is exact
    halves = run(Additive(AA(2), AA(2)), p, p.default_start, cfg)
    assert [r.res_norm for r in halves.rows] == [r.res_norm for r in single.rows]

    # other weights agree up to blend rounding, which compounds slowly
    skew = run(Additive(AA(2), AA(2), 0.3, 0.7), p, p.default_start, cfg)
    for got, want in zip(skew.rows[:4], single.rows[:4]):
        assert got.res_norm == pytest.approx(want.res_norm, rel=1e-12)


def test_additive_pair_beats_plain_iteration_on_bratu():
    from anderkit.problems import bratu_problem

    p = bratu_problem(32, lam=6.0)
    add = run(Additive(AA(20), AA(1)), p, p.default_start, RunConfig(tol=1e-8, max_iters=2000))
    assert add.termination == Termination.CONVERGED
    matched = run(Picard(), p, p.default_start, RunConfig(tol=1e-300, max_iters=add.iters))
    assert add.final_res < matched.rows[add.iters].res_norm


def test_constant_damping_slows_but_still_converges():
    p = affine_problem(seed=16)
    cfg = RunConfig(tol=1e-9, max_iters=2000)
    damped = run(AA(1, DampingPolicy.constant(0.5)), p, p.default_start, cfg)
    plain = run(AA(1), p, p.default_start, cfg)
    assert damped.termination == Termination.CONVERGED
    assert all(r.beta == 0.5 for r in damped.rows[1:])
    assert all(r.beta == 1.0 for r in plain.rows[1:])


def test_optimized_damping_converges_and_records_beta():
    p = affine_problem(seed=17)
    cfg = RunConfig(tol=1e-9, max_iters=2000)
    trace = run(AA(1, DampingPolicy.optimized()), p, p.default_start, cfg)
    assert trace.termination == Termination.CONVERGED
    for row in trace.rows[1:]:
        assert row.beta is not None and 0.0 <= row.beta <= 1.0


def test_residuals_recomputed_from_current_iterate():
    # plain AA evaluates g exactly once per iterate, so capturing every call
    # recovers the (x_k, g(x_k)) pairs; each row's residual must match a
    # from-scratch norm of that pair, never a stale value
    p = affine_problem(seed=21)
    seen = []

    def spy(x):
        out = p.g(x)
        seen.append((x.copy(), out.copy()))
        return out

    probe = FixedPointProblem(n=p.n, g=spy, label=p.label, default_start=p.default_start)
    trace = run(AA(2), probe, probe.default_start, RunConfig(tol=1e-300, max_iters=10))
    assert len(seen) == len(trace.rows) == 11
    from anderkit.kernel import norm2

    for row, (x, gx) in zip(trace.rows, seen):
        assert row.res_norm == norm2(gx - x)


def test_deeply_nested_composition_runs():
    p = affine_problem(seed=18)
    spec = Additive(
        Multiplicative(AA(2), Additive(AA(1), Picard())),
        AA(1, DampingPolicy.optimized()),
    )
    trace = run(spec, p, p.default_start, RunConfig(tol=1e-9, max_iters=500))
    assert trace.termination == Termination.CONVERGED
