"""Benchmark workloads: problems, solver strings, run settings, expected outcomes.

Each workload is a closed loop: one process runs its solves one after
another, the way ``anderkit run`` does. A pass over a workload parses each
solver string, runs it to tolerance from a seeded start vector and writes
its trace CSV. The seed perturbs every ``default_start`` by a uniform offset
of at most 1e-6, small enough that every solve keeps its expected
termination.

Why these workloads:

* ``bratu-picard``: window depth 0, so the least-squares kernel is never
  called. The map, the reductions and the run-loop overhead are the whole
  run; it is the workload that exercises neither the mixing solve nor its
  reuse across additive branches.
* ``bratu-window``: a deep window (m = 20) over n = 4096 unknowns, where
  the mixing solve dominates; plain, additive and multiplicative forms.
* ``convdiff-composite``: the convection-diffusion regime table at n = 1024
  with window depth 1, where each least-squares call is overhead-bound and
  each multiplicative step builds a fresh inner window.

The convdiff table is the one the acceptance tests assert. AA(1,AA(1)) on
the eps = 0.1 centered regime is left out, as it is there: its iteration
count swings between about 4100 and 6600 with the 1e-6 start offset, which
would make the pass time depend on the seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from anderkit import cli, composer, diagnostics
from anderkit.accelerator import WindowMeter
from anderkit.composer import RunConfig
from anderkit.diagnostics import Termination

START_OFFSET = 1e-6

BRATU_RUN = {"tol": 1e-8, "max_iters": 40_000, "max_fevals": 10**7}
# The regime table declares failure once the residual sits 20x above its start.
CONVDIFF_RUN = {"tol": 1e-8, "max_iters": 20_000, "max_fevals": 10**7, "divergence_factor": 20.0}

C = Termination.CONVERGED
D = Termination.DIVERGED


@dataclass(frozen=True)
class Group:
    """Solvers run on one problem with one run configuration."""

    key: str
    kind: str
    params: dict
    run: dict
    expected: dict  # solver string -> expected Termination


WORKLOADS = {
    "bratu-picard": (
        Group("bratu64", "bratu", {"N": 64, "lam": 6.0}, BRATU_RUN, {"picard": C}),
    ),
    "bratu-window": (
        Group(
            "bratu64",
            "bratu",
            {"N": 64, "lam": 6.0},
            BRATU_RUN,
            {"AA(20)": C, "ADD(AA(20),AA(1))": C, "AA(20,AA(1))": C},
        ),
    ),
    "convdiff-composite": (
        Group(
            "eps1-centered",
            "convdiff",
            {"N": 32, "eps": 1.0, "react": 3.0, "scheme": "centered"},
            CONVDIFF_RUN,
            {"picard": C, "AA(1)": C, "AA(1,AA(1))": C, "AAoptD(1,AA(1))": C},
        ),
        Group(
            "eps0.1-centered",
            "convdiff",
            {"N": 32, "eps": 0.1, "react": 3.0, "scheme": "centered"},
            CONVDIFF_RUN,
            {"picard": D, "AA(1)": C, "AAoptD(1,AA(1))": C},
        ),
        Group(
            "eps0.01-upwind",
            "convdiff",
            {"N": 32, "eps": 0.01, "react": 3.0, "scheme": "upwind"},
            CONVDIFF_RUN,
            {"picard": C, "AA(1)": C, "AA(1,AA(1))": C, "AAoptD(1,AA(1))": C},
        ),
    ),
}


@dataclass
class Job:
    group: Group
    text: str
    problem: object
    x0: np.ndarray
    config: RunConfig


@dataclass
class Solve:
    """Outcome of one solve in one pass; trace is None when run() raised."""

    job: Job
    label: str
    csv: Path
    trace: object
    error: str | None
    wall_ns: int

    def outcome(self):
        """(termination, iters, fevals, final_res) or None if run() raised."""
        if self.trace is None:
            return None
        t = self.trace
        return (t.termination, t.iters, t.fevals, _same_key(t.final_res))


def build(name: str, seed: int) -> list[Job]:
    """Problems, parsed specs and seeded start vectors of one workload."""
    rng = np.random.default_rng(seed)
    jobs = []
    for group in WORKLOADS[name]:
        problem = cli.build_problem(group.kind, group.params)
        config = RunConfig(**group.run)
        for text in group.expected:
            # Parsing here rejects a bad spec before any timing; each pass
            # parses again, as `anderkit run` does.
            cli.parse_spec(text)
            x0 = problem.default_start + rng.uniform(-START_OFFSET, START_OFFSET, problem.n)
            jobs.append(Job(group, text, problem, x0, config))
    return jobs


def run_pass(jobs: list[Job], outdir: Path, problems=None, meters=None):
    """One timed pass: parse, solve and write the CSV of every job.

    problems maps id(job.problem) to a replacement problem (the traced run
    passes copies whose g is wrapped); when meters is a list, each solve
    gets its own WindowMeter, appended to it. Returns (pass wall ns, list
    of Solve).
    """
    solves = []
    start = time.perf_counter_ns()
    for job in jobs:
        problem = problems[id(job.problem)] if problems else job.problem
        spec = cli.parse_spec(job.text)
        label = cli.render_spec(spec)
        path = outdir / job.group.key / f"{label}.csv"
        t0 = time.perf_counter_ns()
        error = None
        trace = None
        try:
            if meters is None:
                trace = composer.run(spec, problem, job.x0, job.config)
            else:
                meters.append(WindowMeter())
                trace = composer.run(spec, problem, job.x0, job.config, meters[-1])
        except Exception as exc:  # a failed solve is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        else:
            diagnostics.write_trace_csv(trace, path)
        solves.append(Solve(job, label, path, trace, error, time.perf_counter_ns() - t0))
    return time.perf_counter_ns() - start, solves


def make_dirs(jobs: list[Job], outdir: Path) -> None:
    for job in jobs:
        (outdir / job.group.key).mkdir(parents=True, exist_ok=True)


def _same_key(value):
    # NaN never equals itself; compare it by name so equal runs stay equal.
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return value


def _row_key(row):
    return tuple(
        _same_key(v)
        for v in (row.k, row.fevals, row.res_norm, row.beta, row.theta, row.alpha_abs_sum, row.wall_ns)
    )


def check(solve: Solve) -> str | None:
    """Why a solve counts as failed, or None when it is correct."""
    if solve.error is not None:
        return f"run() raised {solve.error}"
    trace = solve.trace
    expected = solve.job.group.expected[solve.job.text]
    if trace.termination != expected:
        return f"termination {trace.termination.value}, expected {expected.value}"
    if trace.termination == Termination.CONVERGED and not trace.final_res <= solve.job.config.tol:
        return f"converged with final_res {trace.final_res!r} > tol {solve.job.config.tol!r}"
    try:
        rows = diagnostics.read_trace_rows(solve.csv)
    except (OSError, ValueError) as exc:
        return f"trace CSV unreadable: {exc}"
    if [_row_key(r) for r in rows] != [_row_key(r) for r in trace.rows]:
        return "trace CSV does not round-trip through read_trace_rows"
    return None
