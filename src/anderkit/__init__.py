"""Composable Anderson acceleration solvers and a fixed-point benchmark harness."""

__version__ = "0.1.0"

from .accelerator import (
    DampingPolicy,
    HistoryWindow,
    MixingResult,
    WindowMeter,
    aa_step,
    optimized_beta,
    safeguard_beta,
    solve_mixing_coefficients,
)
from .composer import (
    AA,
    AcceleratorSpec,
    Additive,
    Multiplicative,
    Picard,
    RunConfig,
    run,
)
from .diagnostics import (
    ConvergenceTrace,
    Termination,
    TraceRow,
    contraction_audit,
    read_trace_rows,
    write_trace_csv,
)
from .kernel import dot, least_squares, norm2
from .problems import (
    FixedPointProblem,
    Grid2D,
    bratu_problem,
    convdiff_problem,
    tridiag_problem,
)

__all__ = [
    "AA",
    "AcceleratorSpec",
    "Additive",
    "ConvergenceTrace",
    "DampingPolicy",
    "FixedPointProblem",
    "Grid2D",
    "HistoryWindow",
    "MixingResult",
    "Multiplicative",
    "Picard",
    "RunConfig",
    "Termination",
    "TraceRow",
    "WindowMeter",
    "aa_step",
    "bratu_problem",
    "contraction_audit",
    "convdiff_problem",
    "dot",
    "least_squares",
    "norm2",
    "optimized_beta",
    "read_trace_rows",
    "run",
    "safeguard_beta",
    "solve_mixing_coefficients",
    "tridiag_problem",
    "write_trace_csv",
]
