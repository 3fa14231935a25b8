"""Convergence traces, contraction audits, and the trace CSV format."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral
from pathlib import Path

import numpy as np

TRACE_COLUMNS = ("iter", "fevals", "res_norm", "beta", "theta", "alpha_abs_sum", "wall_ns")


class Termination(str, Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    MAX_FEVALS = "max_fevals"
    DIVERGED = "diverged"
    # g or a step raised; ConvergenceTrace.error holds the message.
    FAILED = "failed"


@dataclass(slots=True)
class TraceRow:
    """One outer iterate. Optional fields are absent on the seed row.

    inner_theta and mixing_checks, one (theta, alpha_sum) pair per mixing
    event, are in-memory audit fields; only the seven named trace columns
    are serialized.
    """

    k: int
    fevals: int
    res_norm: float
    beta: float | None = None
    theta: float | None = None
    alpha_abs_sum: float | None = None
    wall_ns: int = 0
    inner_theta: float | None = None
    mixing_checks: tuple = ()


@dataclass
class ConvergenceTrace:
    """The rows of a run and why it ended.

    error is "ExceptionType: message" when the run ended as FAILED, else None.
    fevals counts every evaluation of g the run made, those of a final step
    that ended the run without a row included; each row keeps its own count.
    x is the read-only iterate of the last row, whose residual is final_res
    (x0 when no row was recorded); a trace read back from CSV has none.
    """

    rows: list[TraceRow]
    termination: Termination
    error: str | None = None
    fevals: int = 0
    x: np.ndarray | None = None

    @property
    def final_res(self) -> float:
        return self.rows[-1].res_norm if self.rows else math.nan

    @property
    def iters(self) -> int:
        return self.rows[-1].k if self.rows else 0


@dataclass
class AuditViolation:
    k: int
    res_norm: float
    bound: float


@dataclass
class AuditReport:
    kind: str
    kappa: float
    tol: float
    checked: int = 0
    violations: list[AuditViolation] = field(default_factory=list)
    skipped: bool = False
    notice: str | None = None


def contraction_audit(
    trace: ConvergenceTrace, kappa: float, kind: str = "damped", tol: float = 1e-8
) -> AuditReport:
    """Check per-step residual bounds that hold exactly on affine maps.

    kind "damped" checks ||f_{k+1}|| <= theta * ((1 - beta) + kappa * beta)
    * ||f_k|| + tol on steps carrying theta and beta. kind "composite"
    checks the two-stage bound ||f_{k+1}|| <= inner_theta * theta * kappa^2
    * ||f_k|| + tol on steps that also carry the inner mixing gain. Steps
    without the needed fields are skipped; a trace with none yields a
    skipped report with a notice. kappa must lie in (0, 1) and tol in
    [0, inf).
    """
    if kind not in ("damped", "composite"):
        raise ValueError(f"unknown audit kind {kind!r}")
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"kappa must lie in (0, 1), got {kappa}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    report = AuditReport(kind=kind, kappa=kappa, tol=tol)
    for prev, row in zip(trace.rows, trace.rows[1:]):
        if row.theta is None:
            continue
        if kind == "damped":
            if row.beta is None:
                continue
            factor = row.theta * ((1.0 - row.beta) + kappa * row.beta)
        else:
            if row.inner_theta is None:
                continue
            factor = row.inner_theta * row.theta * kappa * kappa
        bound = factor * prev.res_norm + tol
        report.checked += 1
        if row.res_norm > bound:
            report.violations.append(AuditViolation(row.k, row.res_norm, bound))
    if report.checked == 0:
        report.skipped = True
        report.notice = "trace carries no usable mixing diagnostics"
    return report


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.17g}"


def write_trace_csv(trace: ConvergenceTrace, path, iter_scale: int = 1) -> None:
    """Write the seven trace columns, iter times the integer iter_scale; floats keep 17 digits."""
    if isinstance(iter_scale, bool) or not isinstance(iter_scale, Integral) or iter_scale < 1:
        raise ValueError(f"iter_scale must be an integer >= 1, got {iter_scale!r}")
    # No cell can hold a comma, a quote or a line break, so each row is one
    # f-string, byte for byte what csv.writer wrote.
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        fh.writelines(
            f"{row.k * iter_scale},{row.fevals},{_fmt(row.res_norm)},{_fmt(row.beta)},"
            f"{_fmt(row.theta)},{_fmt(row.alpha_abs_sum)},{row.wall_ns}\n"
            for row in trace.rows
        )


def _repeat_float_reader():
    """float(cell), or None for an empty cell; a cell equal to the last one reuses its float."""
    text, value = "", None

    def read(cell: str) -> float | None:
        nonlocal text, value
        if cell != text:
            text, value = cell, float(cell) if cell else None
        return value

    return read


def read_trace_rows(path) -> list[TraceRow]:
    """Read rows written by write_trace_csv; empty fields become None.

    Equal consecutive beta, theta or alpha_abs_sum cells share one float,
    so a run of Picard rows holds one 1.0 per column, not one per row.
    """
    beta, theta, alpha_abs_sum = (_repeat_float_reader() for _ in range(3))
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != TRACE_COLUMNS:
            raise ValueError(f"unexpected trace header in {Path(path).name}: {header}")
        for rec in reader:
            if len(rec) != len(TRACE_COLUMNS):
                raise ValueError(f"{Path(path).name}:{reader.line_num}: {len(rec)} cells, not 7")
            rows.append(
                TraceRow(
                    k=int(rec[0]),
                    fevals=int(rec[1]),
                    res_norm=float(rec[2]),
                    beta=beta(rec[3]),
                    theta=theta(rec[4]),
                    alpha_abs_sum=alpha_abs_sum(rec[5]),
                    wall_ns=int(rec[6]),
                )
            )
    return rows
