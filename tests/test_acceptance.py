"""End-to-end acceptance checks.

One test per numbered criterion; `pytest -v` prints one pass/fail line for
each. Time-budgeted sections measure wall clock with perf_counter. Every
solver run made for criteria 1-5 is collected so criterion 6 can sweep all
of their mixing events.
"""

import time

import numpy as np
import pytest

from anderkit.accelerator import (
    DampingPolicy,
    HistoryWindow,
    WindowMeter,
    aa_step,
    optimized_beta,
    solve_mixing_coefficients,
)
from anderkit.composer import AA, Additive, Multiplicative, Picard, RunConfig, run
from anderkit.diagnostics import Termination, contraction_audit
from anderkit.kernel import norm2
from anderkit.problems import (
    FixedPointProblem,
    bratu_problem,
    convdiff_problem,
    gmres_reference,
    tridiag_problem,
)

# every run() trace produced for criteria 1-5 lands here for criterion 6
ALL_RUNS: list[tuple[str, object]] = []


def _register(name, trace):
    ALL_RUNS.append((name, trace))
    return trace


def _aaoptd(m):
    return AA(m, DampingPolicy.optimized())


# ---- shared fixtures ----


@pytest.fixture(scope="module")
def tridiag():
    return tridiag_problem(100)


@pytest.fixture(scope="module")
def gmres_comparison(tridiag):
    """Manual full-window trajectory beside the gmres oracle, timed."""
    t0 = time.perf_counter()
    a_apply = tridiag.params["a_apply"]
    b = tridiag.params["b"]
    xs, _ = gmres_reference(lambda v: a_apply(v) / 2.0, b / 2.0, np.zeros(100), 20)

    window = HistoryWindow(101)
    x = tridiag.default_start.copy()
    window.push(x, tridiag.g(x))
    rel = []
    for k in range(20):
        x = aa_step(window, DampingPolicy.none(), tridiag.g).x_next
        window.push(x, tridiag.g(x))
        target = tridiag.g(xs[k])
        rel.append(norm2(x - target) / max(norm2(target), 1e-300))
    _register(
        "tridiag AA(100) first 20",
        run(AA(100), tridiag, tridiag.default_start, RunConfig(tol=1e-300, max_iters=20)),
    )
    return {"max_rel": max(rel), "seconds": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def tridiag_stall(tridiag):
    cfg = RunConfig(tol=1e-300, max_iters=50)
    picard = _register("tridiag picard 50", run(Picard(), tridiag, tridiag.default_start, cfg))
    cfg_aa = RunConfig(tol=1e-8, max_iters=120)
    aa50 = _register("tridiag AA(50)", run(AA(50), tridiag, tridiag.default_start, cfg_aa))
    aa100 = _register("tridiag AA(100)", run(AA(100), tridiag, tridiag.default_start, cfg_aa))
    return {"picard": picard, "aa50": aa50, "aa100": aa100}


BRATU_SOLVERS = (
    ("picard", Picard()),
    ("AA(20)", AA(20)),
    ("AA(20,AA(1))", Multiplicative(AA(20), AA(1))),
    ("AAoptD(20,AA(1))", Multiplicative(_aaoptd(20), AA(1))),
)


@pytest.fixture(scope="module")
def bratu_tables():
    out = {}
    for n_side in (32, 64):
        problem = bratu_problem(n_side, lam=6.0)
        cfg = RunConfig(tol=1e-8, max_iters=40_000, max_fevals=10**7)
        t0 = time.perf_counter()
        traces = {}
        for name, spec in BRATU_SOLVERS:
            traces[name] = _register(f"bratu{n_side} {name}", run(spec, problem, problem.default_start, cfg))
        out[n_side] = {"traces": traces, "seconds": time.perf_counter() - t0}
    return out


CONVDIFF_SOLVERS = (
    ("picard", Picard()),
    ("AA(1)", AA(1)),
    ("AA(1,AA(1))", Multiplicative(AA(1), AA(1))),
    ("AAoptD(1,AA(1))", Multiplicative(_aaoptd(1), AA(1))),
)

# bounded oscillation shows up well below the library default; the regime
# table declares failure once the residual sits 20x above its start
REGIME_DIVERGENCE_FACTOR = 20.0


@pytest.fixture(scope="module")
def convdiff_regimes():
    cfg = RunConfig(
        tol=1e-8, max_iters=20_000, max_fevals=10**7, divergence_factor=REGIME_DIVERGENCE_FACTOR
    )
    out = {}
    for key, eps, scheme, names in (
        ("eps1", 1.0, "centered", ("picard", "AA(1)", "AA(1,AA(1))", "AAoptD(1,AA(1))")),
        ("eps01", 0.1, "centered", ("picard", "AA(1)", "AAoptD(1,AA(1))")),
        ("eps001", 0.01, "upwind", ("picard", "AA(1)", "AA(1,AA(1))", "AAoptD(1,AA(1))")),
    ):
        problem = convdiff_problem(32, eps=eps, react=3.0, scheme=scheme)
        traces = {}
        seconds = {}
        for name, spec in CONVDIFF_SOLVERS:
            if name not in names:
                continue
            t0 = time.perf_counter()
            traces[name] = _register(f"convdiff {key} {name}", run(spec, problem, problem.default_start, cfg))
            seconds[name] = time.perf_counter() - t0
        out[key] = {"traces": traces, "seconds": seconds}
    return out


@pytest.fixture(scope="module")
def affine_audits():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    reports = []
    cfg = RunConfig(tol=1e-12, max_iters=60, max_fevals=10**6)
    for trial in range(20):
        mat = rng.standard_normal((10, 10))
        mat *= rng.uniform(0.2, 0.95) / np.linalg.norm(mat, 2)
        kappa = float(np.linalg.norm(mat, 2))
        offset = rng.standard_normal(10)
        problem = FixedPointProblem(
            n=10, g=lambda x, m=mat, c=offset: m @ x + c, label="affine", default_start=np.zeros(10)
        )
        damped = _register(f"affine{trial} AAoptD(2)", run(_aaoptd(2), problem, problem.default_start, cfg))
        composite = _register(
            f"affine{trial} AA(2,AA(1))", run(Multiplicative(AA(2), AA(1)), problem, problem.default_start, cfg)
        )
        reports.append((kappa, contraction_audit(damped, kappa, kind="damped"),
                        contraction_audit(composite, kappa, kind="composite")))
    return {"reports": reports, "seconds": time.perf_counter() - t0}


# ---- the criteria ----


def test_criterion_01_gmres_equivalence(gmres_comparison):
    # full-window undamped AA tracks the preconditioned gmres iterates as
    # x_aa[k+1] = g(x_gmres[k]) on the linear problem
    assert gmres_comparison["max_rel"] <= 1e-8
    assert gmres_comparison["seconds"] < 1.0
    print(
        f"criterion 1 PASS: max relative gap {gmres_comparison['max_rel']:.2e} over 20 "
        f"iterations in {gmres_comparison['seconds']:.2f}s"
    )


def test_criterion_02_picard_stalls_while_windowed_aa_converges(tridiag_stall):
    res = [r.res_norm for r in tridiag_stall["picard"].rows]
    assert len(res) == 51
    ratios = [b / a for a, b in zip(res, res[1:])]
    # the residual is trapped: no step improves by even 2 percent and after
    # 50 steps at least 90 percent of the initial residual remains
    assert min(ratios) > 0.98
    assert res[-1] >= 0.9 * res[0]
    for label in ("aa50", "aa100"):
        trace = tridiag_stall[label]
        assert trace.termination == Termination.CONVERGED
        assert trace.final_res <= 1e-8
        assert trace.iters <= 120
    print(
        f"criterion 2 PASS: picard kept {res[-1] / res[0]:.3f} of its residual over 50 steps; "
        f"AA(50) converged in {tridiag_stall['aa50'].iters}, "
        f"AA(100) in {tridiag_stall['aa100'].iters} iterations"
    )


def test_criterion_03_bratu_iteration_ordering(bratu_tables):
    for n_side in (32, 64):
        traces = bratu_tables[n_side]["traces"]
        for name, trace in traces.items():
            assert trace.termination == Termination.CONVERGED, (n_side, name)
        iters = {name: tr.iters for name, tr in traces.items()}
        assert iters["AAoptD(20,AA(1))"] <= iters["AA(20,AA(1))"] <= iters["AA(20)"] <= iters["picard"]
    assert bratu_tables[64]["seconds"] < 60.0
    i32 = {k: v.iters for k, v in bratu_tables[32]["traces"].items()}
    i64 = {k: v.iters for k, v in bratu_tables[64]["traces"].items()}
    f64 = {k: v.fevals for k, v in bratu_tables[64]["traces"].items()}
    print(
        f"criterion 3 PASS: iterations N=32 {i32}; N=64 {i64} "
        f"({bratu_tables[64]['seconds']:.1f}s); N=64 fevals (reported, unasserted) {f64}"
    )


def test_criterion_04_convdiff_regime_table(convdiff_regimes):
    for regime in convdiff_regimes.values():
        for name, dt in regime["seconds"].items():
            assert dt < 30.0, name

    eps1 = convdiff_regimes["eps1"]["traces"]
    assert all(t.termination == Termination.CONVERGED for t in eps1.values())

    eps01 = convdiff_regimes["eps01"]["traces"]
    assert eps01["picard"].termination == Termination.DIVERGED
    assert eps01["picard"].final_res > REGIME_DIVERGENCE_FACTOR * eps01["picard"].rows[0].res_norm
    assert eps01["AA(1)"].termination == Termination.CONVERGED

    eps001 = convdiff_regimes["eps001"]["traces"]
    for name in ("AA(1)", "AA(1,AA(1))", "AAoptD(1,AA(1))"):
        assert eps001[name].termination == Termination.CONVERGED, name

    print(
        "criterion 4 PASS: eps=1 all converged; eps=0.1 centered picard diverged at "
        f"{eps01['picard'].iters} iterations (factor {REGIME_DIVERGENCE_FACTOR:g}) while AA(1) "
        f"converged in {eps01['AA(1)'].iters}; eps=0.01 upwind accelerated methods converged"
    )


def test_criterion_05_affine_contraction_bounds(affine_audits):
    assert affine_audits["seconds"] < 5.0
    checked = 0
    for kappa, damped, composite in affine_audits["reports"]:
        assert 0.0 < kappa < 1.0
        assert not damped.skipped and not composite.skipped
        assert damped.violations == []
        assert composite.violations == []
        checked += damped.checked + composite.checked
    print(
        f"criterion 5 PASS: 20 affine contractions, {checked} audited steps, zero bound "
        f"violations in {affine_audits['seconds']:.2f}s"
    )


def test_criterion_06_gain_and_coefficient_invariants(
    gmres_comparison, tridiag_stall, bratu_tables, convdiff_regimes, affine_audits
):
    assert len(ALL_RUNS) >= 50
    events = 0
    for name, trace in ALL_RUNS:
        for row in trace.rows:
            for theta, alpha_sum in row.mixing_checks:
                events += 1
                assert theta <= 1.0 + 1e-12, (name, row.k, theta)
                assert abs(alpha_sum - 1.0) <= 1e-10, (name, row.k, alpha_sum)
    assert events > 10_000
    print(f"criterion 6 PASS: {events} mixing events across {len(ALL_RUNS)} runs, zero violations")


def test_criterion_07_optimized_beta_tracks_grid_argmin():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    grid = np.arange(1e-4, 1.0, 1e-4)
    checked = 0
    worst = 0.0
    for _ in range(100):
        mat = rng.standard_normal((6, 6))
        mat *= rng.uniform(0.3, 1.4) / np.linalg.norm(mat, 2)
        offset = rng.standard_normal(6)
        g = lambda x, m=mat, c=offset: m @ x + c
        window = HistoryWindow(3)
        x = rng.standard_normal(6)
        window.push(x, g(x))
        for _ in range(3):
            x = aa_step(window, DampingPolicy.none(), g).x_next
            window.push(x, g(x))

        mix = solve_mixing_coefficients(window)
        r_p = mix.x_avg - g(mix.x_avg)
        r_q = mix.gx_avg - g(mix.gx_avg)
        denom = float(np.dot(r_p - r_q, r_p - r_q))
        if denom == 0.0:
            continue
        signed = float(np.dot(r_p, r_p - r_q)) / denom
        if not 0.0 < signed < 1.0:
            continue
        checked += 1
        # exact residual of every candidate along the damping segment
        d = mix.gx_avg - mix.x_avg
        candidates = mix.x_avg[None, :] + grid[:, None] * d[None, :]
        residuals = candidates @ mat.T + offset[None, :] - candidates
        best = grid[int(np.argmin(np.linalg.norm(residuals, axis=1)))]
        worst = max(worst, abs(optimized_beta(r_p, r_q) - best))
    seconds = time.perf_counter() - t0
    assert checked >= 30
    assert worst <= 1e-3
    assert seconds < 5.0
    print(
        f"criterion 7 PASS: {checked}/100 instances had an interior minimizer, worst gap "
        f"{worst:.2e} in {seconds:.2f}s"
    )


def test_criterion_08_peak_history_memory_exact(tridiag):
    cfg = RunConfig(tol=1e-300, max_iters=30)
    table = (
        ("AA(20)", AA(20), 21),
        ("AA(20)+AA(1)", Additive(AA(20), AA(1)), 21),
        ("AA(20,AA(1))", Multiplicative(AA(20), AA(1)), 22),
    )
    peaks = {}
    for name, spec, want in table:
        meter = WindowMeter()
        run(spec, tridiag, tridiag.default_start, cfg, meter=meter)
        assert meter.peak == want, (name, meter.peak)
        assert spec.memory == want
        assert meter.current == 0
        peaks[name] = meter.peak
    print(f"criterion 8 PASS: instrumented peaks {peaks} match m+1 / max(m+1,n+1) / m+2 with iterN=1")


def test_criterion_09_feval_per_step_exact(tridiag):
    cfg = RunConfig(tol=1e-300, max_iters=10)
    table = (
        ("AA(20)", AA(20), 1),
        ("AAoptD(20)", _aaoptd(20), 3),
        ("AA(20,AA(1))", Multiplicative(AA(20), AA(1)), 2),
    )
    costs = {}
    for name, spec, per_step in table:
        trace = run(spec, tridiag, tridiag.default_start, cfg)
        fe = [r.fevals for r in trace.rows]
        assert fe[0] == 1
        deltas = sorted(set(b - a for a, b in zip(fe, fe[1:])))
        assert deltas == [per_step], (name, deltas)
        assert trace.fevals == 1 + 10 * per_step
        costs[name] = per_step
    print(f"criterion 9 PASS: per-step evaluation costs {costs} exact over 10 steps each")


def test_criterion_10_desk_scale_non_claims(bratu_tables):
    # wall-clock seconds and exact per-iteration residual values are
    # hardware- and convention-bound; only recorded, never asserted.
    for n_side in (32, 64):
        for name, trace in bratu_tables[n_side]["traces"].items():
            walls = [r.wall_ns for r in trace.rows]
            assert all(w >= 0 for w in walls)
            assert walls == sorted(walls), name
    print(
        "criterion 10 PASS: wall times recorded but unasserted; residual curves checked for "
        "shape and regime outcome only (criteria 3-4), exact figure values out of scope"
    )
