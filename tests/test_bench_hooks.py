"""The benchmark's traced run rebinds public names; keep them where it looks."""

import importlib.util
from pathlib import Path

from anderkit import accelerator, composer
from anderkit.accelerator import DampingPolicy
from anderkit.composer import AA, Additive, Multiplicative, Picard, RunConfig
from anderkit.problems import convdiff_problem, tridiag_problem

_SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_rebound_name_exists_on_its_owner():
    spans = _load_spans()
    for owner, name, *_ in spans._REBINDINGS:
        assert name in vars(owner), (owner, name)


def test_traced_solve_reaches_every_layer():
    spans = _load_spans()
    tracer = spans.Tracer()
    problem = tridiag_problem(30)
    spec = Multiplicative(AA(3, DampingPolicy.optimized()), AA(1))
    originals = [vars(owner)[name] for owner, name, *_ in spans._REBINDINGS]
    with spans.instrumented(tracer, [problem]) as traced:
        twin = traced[id(problem)]
        composer.run(spec, twin, twin.default_start, RunConfig(tol=1e-300, max_iters=10))
    for layer in (
        "kernel.least_squares",
        "kernel.reductions",
        "accelerator.step",
        "accelerator.damping",
        "accelerator.window",
        "problems.g",
    ):
        assert tracer.layer(layer).calls > 0, layer
    # the rebindings are undone when the block ends
    assert [vars(owner)[name] for owner, name, *_ in spans._REBINDINGS] == originals


def test_traced_solve_calls_least_squares_once_per_windowed_step():
    # A window of k + 1 entries solves with p = k >= 1 difference columns at
    # every outer step but the first. The inner AA(1) of the composition sees
    # only its seed entry (p = 0, no solve); both ADD branches solve.
    spans = _load_spans()
    problem = tridiag_problem(30)
    for spec, solves_per_step in (
        (Multiplicative(AA(3, DampingPolicy.optimized()), AA(1)), 1),
        (Additive(AA(3), AA(1)), 2),
    ):
        tracer = spans.Tracer()
        with spans.instrumented(tracer, [problem]) as traced:
            twin = traced[id(problem)]
            trace = composer.run(spec, twin, twin.default_start, RunConfig(tol=1e-300, max_iters=10))
        assert trace.iters == 10
        assert tracer.layer("kernel.least_squares").calls == solves_per_step * (trace.iters - 1)


def test_traced_solve_computes_each_residual_norm_once():
    # Every push stores its entry's norm, and nothing else recomputes it: the
    # run loop and aa_step's gain read it back. The only other norm is the
    # mixed residual of a windowed step, at every step but the first, whose
    # window holds a single entry (p = 0).
    spans = _load_spans()
    problem = tridiag_problem(30)
    for spec, mixed_per_step in ((Picard(), 0), (AA(3), 1)):
        tracer = spans.Tracer()
        with spans.instrumented(tracer, [problem]) as traced:
            twin = traced[id(problem)]
            trace = composer.run(spec, twin, twin.default_start, RunConfig(tol=1e-300, max_iters=10))
        assert trace.iters == 10
        pushes = trace.iters + 1
        want = pushes + mixed_per_step * (trace.iters - 1)
        assert tracer.layer("kernel.reductions").calls == want, spec


def test_undamped_steps_still_reach_the_rebound_mixing_names():
    # The undamped step returns the averaged image without blending, but
    # every step still mixes once through the rebound solve and reads both
    # coefficient sums, and no norm is added or dropped.
    spans = _load_spans()
    problem = tridiag_problem(30)
    for spec, mixed_per_step in ((Picard(), 0), (AA(1), 1)):
        tracer = spans.Tracer()
        with spans.instrumented(tracer, [problem]) as traced:
            twin = traced[id(problem)]
            trace = composer.run(spec, twin, twin.default_start, RunConfig(tol=1e-300, max_iters=10))
        assert trace.iters == 10
        assert tracer.layer("accelerator.mix").calls == trace.iters, spec
        assert tracer.layer("accelerator.mix_sums").calls == 2 * trace.iters, spec
        want = trace.iters + 1 + mixed_per_step * (trace.iters - 1)
        assert tracer.layer("kernel.reductions").calls == want, spec


def test_depth_one_solves_reach_the_rebound_least_squares(monkeypatch):
    # Depth-1 windows solve 1 x 1 systems in closed form inside
    # least_squares, so every mixing event with p >= 1 is still one call of
    # the name the traced run rebinds.
    spans = _load_spans()
    problem = convdiff_problem(8)
    for spec in (AA(1), Multiplicative(AA(1), AA(1))):
        columns = []
        original = accelerator.solve_mixing_coefficients

        def spy(window):
            columns.append(len(window) - 1)
            return original(window)

        tracer = spans.Tracer()
        # The spy goes in before the rebinding, so the traced wrapper wraps it.
        with monkeypatch.context() as patch:
            patch.setattr(accelerator, "solve_mixing_coefficients", spy)
            with spans.instrumented(tracer, [problem]) as traced:
                twin = traced[id(problem)]
                trace = composer.run(
                    spec, twin, twin.default_start, RunConfig(tol=1e-300, max_iters=40)
                )
        assert trace.iters == 40
        assert len(columns) == sum(len(row.mixing_checks) for row in trace.rows)
        solves = sum(p >= 1 for p in columns)
        assert solves == trace.iters - 1, spec
        ls = tracer.layer("kernel.least_squares")
        assert ls.calls == solves, spec
        assert tracer.counters["ls_cols"] == solves, spec
