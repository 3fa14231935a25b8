"""Traces, audits, memory formulas, csv persistence."""

import csv
import math

import numpy as np
import pytest

from anderkit.accelerator import DampingPolicy
from anderkit.composer import AA, Additive, Multiplicative, Picard, RunConfig, run
from anderkit.diagnostics import (
    TRACE_COLUMNS,
    ConvergenceTrace,
    Termination,
    TraceRow,
    contraction_audit,
    read_trace_rows,
    write_trace_csv,
)
from anderkit.problems import FixedPointProblem


def affine_problem(seed=0, n=8, scale=0.7):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, n))
    mat *= scale / np.linalg.norm(mat, 2)
    offset = rng.standard_normal(n)
    return FixedPointProblem(
        n=n, g=lambda x: mat @ x + offset, label="affine", default_start=np.zeros(n)
    ), mat


def test_termination_values_are_strings():
    assert Termination.CONVERGED.value == "converged"
    assert Termination.MAX_ITERS.value == "max_iters"
    assert Termination.MAX_FEVALS.value == "max_fevals"
    assert Termination.DIVERGED.value == "diverged"
    assert Termination.FAILED.value == "failed"


def test_memory_footprint_formulas():
    assert Picard().memory == 1
    assert AA(20).memory == 21
    assert Additive(AA(20), AA(1)).memory == 21
    assert Multiplicative(AA(20), AA(1)).memory == 22
    assert Multiplicative(AA(3), Picard()).memory == 5
    nested = Additive(Multiplicative(AA(2), AA(1)), AA(5))
    # the shared window of 6 plus the 1-slot inner window the left branch opens
    assert nested.memory == 6 + 1


# ---- contraction audits ----


def test_damped_audit_passes_on_real_run():
    p, mat = affine_problem(seed=40)
    kappa = float(np.linalg.norm(mat, 2))
    trace = run(AA(2, DampingPolicy.optimized()), p, p.default_start, RunConfig(tol=1e-12, max_iters=60))
    report = contraction_audit(trace, kappa, kind="damped")
    assert not report.skipped
    assert report.checked >= 10
    assert report.violations == []


def test_composite_audit_passes_on_real_run():
    p, mat = affine_problem(seed=41)
    kappa = float(np.linalg.norm(mat, 2))
    trace = run(Multiplicative(AA(2), AA(1)), p, p.default_start, RunConfig(tol=1e-12, max_iters=60))
    report = contraction_audit(trace, kappa, kind="composite")
    assert not report.skipped
    assert report.violations == []


def _fake_trace(rows):
    return ConvergenceTrace(rows=rows, termination=Termination.MAX_ITERS)


def test_damped_audit_flags_fabricated_violation():
    rows = [
        TraceRow(k=0, fevals=1, res_norm=1.0),
        # theta=0.1, beta=1, kappa=0.5 -> bound 0.05, but residual 0.9
        TraceRow(k=1, fevals=4, res_norm=0.9, beta=1.0, theta=0.1, alpha_abs_sum=1.0),
    ]
    report = contraction_audit(_fake_trace(rows), kappa=0.5, kind="damped")
    assert report.checked == 1
    assert len(report.violations) == 1
    v = report.violations[0]
    assert v.k == 1 and v.res_norm == 0.9
    assert v.bound == pytest.approx(0.05, abs=1e-6)


def test_composite_audit_flags_fabricated_violation():
    rows = [
        TraceRow(k=0, fevals=1, res_norm=1.0),
        TraceRow(k=1, fevals=3, res_norm=0.5, theta=0.8, inner_theta=1.0),
    ]
    # factor = 1.0 * 0.8 * 0.6^2 = 0.288 < 0.5
    report = contraction_audit(_fake_trace(rows), kappa=0.6, kind="composite")
    assert len(report.violations) == 1


def test_audit_skips_when_no_step_has_diagnostics():
    p, _ = affine_problem(seed=42)
    trace = run(Picard(), p, p.default_start, RunConfig(tol=1e-12, max_iters=10))
    # picard rows carry beta=1 and theta=1 from the degenerate window, so
    # force the skip path with a trace that has no stepped rows at all
    seed_only = _fake_trace([TraceRow(k=0, fevals=1, res_norm=1.0)])
    report = contraction_audit(seed_only, kappa=0.5, kind="damped")
    assert report.skipped and report.checked == 0
    assert report.notice
    # composite audit on a run without inner thetas also skips
    report2 = contraction_audit(trace, kappa=0.5, kind="composite")
    assert report2.skipped


def test_audit_skips_the_steps_that_lack_its_fields():
    p, _ = affine_problem(seed=43)
    cfg = RunConfig(tol=1e-12, max_iters=10)
    # ADD rows carry theta but no beta; AA rows carry no inner_theta
    additive = run(Additive(AA(2), AA(1)), p, p.default_start, cfg)
    windowed = run(AA(2), p, p.default_start, cfg)
    assert all(row.theta is not None and row.beta is None for row in additive.rows[1:])
    assert all(row.inner_theta is None for row in windowed.rows)
    # and a stepped row may carry no mixing fields at all
    bare = _fake_trace(
        [TraceRow(k=0, fevals=1, res_norm=1.0), TraceRow(k=1, fevals=2, res_norm=2.0)]
    )
    cases = [(additive, "damped"), (windowed, "composite"), (bare, "damped"), (bare, "composite")]
    for trace, kind in cases:
        report = contraction_audit(trace, kappa=0.5, kind=kind)
        assert report.skipped and report.checked == 0 and report.violations == []


def test_audit_rejects_bad_arguments():
    trace = _fake_trace([TraceRow(k=0, fevals=1, res_norm=1.0)])
    with pytest.raises(ValueError):
        contraction_audit(trace, kappa=1.5, kind="damped")
    with pytest.raises(ValueError):
        contraction_audit(trace, kappa=0.5, kind="sideways")
    # a NaN or infinite tol would pass any trace, a negative one tightens the bound
    for tol in (math.nan, math.inf, -1e-8):
        for kind in ("damped", "composite"):
            with pytest.raises(ValueError, match="tol"):
                contraction_audit(trace, kappa=0.5, kind=kind, tol=tol)


# ---- csv persistence ----


def test_trace_csv_round_trip(tmp_path):
    p, _ = affine_problem(seed=43)
    trace = run(AA(2, DampingPolicy.optimized()), p, p.default_start, RunConfig(tol=1e-10, max_iters=40))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == ",".join(TRACE_COLUMNS)

    rows = read_trace_rows(path)
    assert len(rows) == len(trace.rows)
    for got, want in zip(rows, trace.rows):
        assert got.k == want.k
        assert got.fevals == want.fevals
        assert got.res_norm == want.res_norm  # 17g round-trips float64 exactly
        assert got.beta == want.beta
        assert got.theta == want.theta
        assert got.alpha_abs_sum == want.alpha_abs_sum
        assert got.wall_ns == want.wall_ns
    # the seed row has empty diagnostic cells
    assert rows[0].beta is None and rows[0].theta is None


def test_trace_csv_iter_scale(tmp_path):
    p, _ = affine_problem(seed=44)
    trace = run(Multiplicative(AA(1), AA(1)), p, p.default_start, RunConfig(tol=1e-300, max_iters=5))
    path = tmp_path / "scaled.csv"
    write_trace_csv(trace, path, iter_scale=2)
    rows = read_trace_rows(path)
    assert [r.k for r in rows] == [0, 2, 4, 6, 8, 10]
    # residuals unscaled
    assert [r.res_norm for r in rows] == [r.res_norm for r in trace.rows]


def _csv_writer_trace(trace, path, iter_scale):
    # The csv.writer loop that write_trace_csv replaced, kept as the reference.
    def fmt(value):
        return "" if value is None else f"{value:.17g}"

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for row in trace.rows:
            writer.writerow(
                [
                    str(row.k * iter_scale),
                    str(row.fevals),
                    fmt(row.res_norm),
                    fmt(row.beta),
                    fmt(row.theta),
                    fmt(row.alpha_abs_sum),
                    str(row.wall_ns),
                ]
            )


def test_trace_csv_bytes_equal_the_csv_writer_output(tmp_path):
    inf, nan = math.inf, math.nan
    rows = [
        TraceRow(k=0, fevals=1, res_norm=1.0),
        TraceRow(1, 2, 0.0, -0.0, 0.0, -0.0, 0),
        TraceRow(2, 3, inf, -inf, nan, 5e-324, 2**63 - 1),
        TraceRow(3, 5, -5e-324, None, 1e300, None, 10**20),
        TraceRow(40, 81, 0.1, 1.0 / 3.0, -2.5e-308, 123456789.125, 987654321),
        TraceRow(41, 82, nan, None, None, None, 7),
    ]
    trace = ConvergenceTrace(rows, Termination.MAX_ITERS, fevals=82)

    def key(row):
        # repr tells -0.0 from 0.0 and lets NaN equal NaN
        fields = ("fevals", "res_norm", "beta", "theta", "alpha_abs_sum", "wall_ns")
        return tuple(repr(getattr(row, name)) for name in fields)

    for scale in (1, 3):
        got, want = tmp_path / f"got{scale}.csv", tmp_path / f"want{scale}.csv"
        write_trace_csv(trace, got, iter_scale=scale)
        _csv_writer_trace(trace, want, scale)
        assert got.read_bytes() == want.read_bytes()
        back = read_trace_rows(got)
        assert [r.k for r in back] == [r.k * scale for r in rows]
        assert [key(r) for r in back] == [key(r) for r in rows]


def test_read_trace_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_trace_rows(path)
    # an empty file, and a row with too few or too many cells
    header = ",".join(TRACE_COLUMNS) + "\n"
    for text in ("", header + "0,1,2\n", header + "0,1,2.5,,,,7,8\n"):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError):
            read_trace_rows(path)


def test_write_trace_rejects_bad_scale(tmp_path):
    p, _ = affine_problem(seed=45)
    trace = run(Picard(), p, p.default_start, RunConfig(tol=1e-300, max_iters=2))
    for scale in (0, 1.5, True):
        with pytest.raises(ValueError):
            write_trace_csv(trace, tmp_path / "x.csv", iter_scale=scale)
