"""Time-to-tolerance benchmark for anderkit.

Usage, from the repository root:

    python3 bench/run.py --workload bratu-window --seed 1 --seconds 25 --trace 0

Each run builds one workload (see ``workloads.py``) from the seed, does an
untimed warm-up, then repeats full passes (parse, solve, write trace CSV)
until ``--seconds`` have elapsed. Every solve goes through a correctness
gate; a solve that fails it is counted in ``failed``, not fatal.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from the traced ones (see ``spans.py``); the traced passes must
reproduce the untraced iters, fevals and final residual of every solve.

The run prints the environment, a per-solve breakdown and a metric table,
and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. BLAS is pinned to one thread.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import gc
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
WARM_UP_ITERS = 30
SETUP_TIMEOUT_S = 60

# Run in a fresh interpreter: import anderkit, build the workload's
# problems and start vectors, parse its specs; print the elapsed seconds.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.build({name!r}, {seed!r})
print(repr(time.perf_counter() - t0))
"""


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _blas_threads(pkg) -> int | None:
    """Thread count reported by the OpenBLAS bundled with pkg, if any."""
    libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas_name(pkg) -> str:
    try:
        blas = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    # The ceiling keeps git from reporting an enclosing repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas_name(numpy), "scipy": _blas_name(scipy)},
        "blas_threads": {"numpy": _blas_threads(numpy), "scipy": _blas_threads(scipy)},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "seed": seed,
        "commit": _git_commit(),
    }


def measure_setup(name: str, seed: int) -> list[float]:
    """Set-up seconds of SETUP_REPEATS fresh interpreters."""
    code = _SETUP_CHILD.format(src=str(SRC), bench=str(BENCH_DIR), name=name, seed=seed)
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        if out.returncode != 0:
            _fail(f"set-up child failed:\n{out.stderr}")
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


class Gate:
    """The correctness gate: counts solves attempted and failed, says why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.pass_errors = 0

    def check_pass(self, solves, reference=None) -> list:
        """Gate every solve of a pass; against reference, outcomes must match.

        Returns the pass's outcomes, the reference for later passes.
        """
        import workloads

        for i, solve in enumerate(solves):
            reason = workloads.check(solve)
            if reason is None and reference is not None and solve.outcome() != reference[i]:
                reason = f"outcome {solve.outcome()} differs from the first pass's {reference[i]}"
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                print(f"FAILED {solve.job.group.key} {solve.label}: {reason}")
        return [s.outcome() for s in solves]

    def pass_error(self, message: str) -> None:
        self.pass_errors += 1
        print(f"FAILED {message}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.pass_errors == 0


def warm_up(jobs, outdir) -> None:
    """Untimed short solves, so first-call BLAS and allocator cost stays out."""
    import workloads

    short = [
        dataclasses.replace(job, config=dataclasses.replace(job.config, max_iters=WARM_UP_ITERS))
        for job in jobs
    ]
    workloads.run_pass(short, outdir)


def _print_breakdown(title: str, solves, walls_ns) -> None:
    """Per-solve table: outcome of the last pass, median wall of each solve."""
    print(f"per-solve breakdown, {title}")
    print(f"{'group':<16} {'solver':<20} {'termination':<11} {'iters':>6} {'fevals':>7} {'wall_ms':>9}")
    for s, walls in zip(solves, walls_ns):
        t = s.trace
        term, iters, fevals = ("error", 0, 0) if t is None else (t.termination.value, t.iters, t.fevals)
        wall_ms = statistics.median(walls) / 1e6
        print(f"{s.job.group.key:<16} {s.label:<20} {term:<11} {iters:>6} {fevals:>7} {wall_ms:>9.2f}")


def timed_run(jobs, outdir, seconds: float, gate: Gate) -> dict:
    """Untraced passes for `seconds`; end-to-end metrics except set-up and memory."""
    import workloads

    walls = []
    solve_walls = [[] for _ in jobs]
    reference = None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        gc.collect()
        wall_ns, solves = workloads.run_pass(jobs, outdir)
        walls.append(wall_ns / 1e9)
        for per_solve, s in zip(solve_walls, solves):
            per_solve.append(s.wall_ns)
        outcomes = gate.check_pass(solves, reference)
        if reference is None:
            reference = outcomes
    _print_breakdown(f"median of {len(walls)} untraced passes", solves, solve_walls)
    iters = sum(s.trace.iters for s in solves if s.trace is not None)
    fevals = sum(s.trace.fevals for s in solves if s.trace is not None)
    wall_s = statistics.median(walls)
    print(f"wall_s: median of {len(walls)} passes, each {[round(w, 4) for w in walls]} s")
    return {
        "wall_s": wall_s,
        "us_per_iter": wall_s * 1e6 / max(iters, 1),
        "iters": iters,
        "fevals": fevals,
    }


def traced_run(jobs, outdir, seconds: float, gate: Gate) -> dict:
    """Untraced and traced passes in turn for `seconds`; per-layer metrics.

    Each traced pass must reproduce the untraced outcome of every solve bit
    for bit, and its wrapped g must have been called once per counted feval.
    """
    import spans
    import workloads

    untraced, traced, per_pass = [], [], []
    reference = None
    problems = list({id(job.problem): job.problem for job in jobs}.values())
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        gc.collect()
        wall_ns, solves = workloads.run_pass(jobs, outdir)
        untraced.append(wall_ns)
        outcomes = gate.check_pass(solves, reference)
        if reference is None:
            reference = outcomes

        tracer = spans.Tracer()
        meters = []
        gc.collect()
        with spans.instrumented(tracer, problems) as twins:
            wall_ns, solves = workloads.run_pass(jobs, outdir, twins, meters)
        traced.append(wall_ns)
        gate.check_pass(solves, reference)
        fevals = sum(s.trace.fevals for s in solves if s.trace is not None)
        g_calls = tracer.layer("problems.g").calls
        if g_calls != fevals:
            gate.pass_error(f"traced pass: problems.g.calls {g_calls} != fevals {fevals}")
        per_pass.append(spans.layer_metrics(tracer, wall_ns, max(m.peak for m in meters)))
    _print_breakdown("last traced pass", solves, [[s.wall_ns] for s in solves])
    # median_low keeps each value one that a pass measured (counts stay whole).
    metrics = {name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["bench.trace_overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    print(
        f"{len(traced)} traced passes; untraced {[round(w / 1e9, 4) for w in untraced]} s, "
        f"traced {[round(w / 1e9, 4) for w in traced]} s"
    )
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if not (SRC / "anderkit" / "__init__.py").is_file():
        _fail(f"no anderkit sources under {SRC}; run from a full checkout")
    # Single-threaded BLAS baseline: set before numpy is first imported, and
    # inherited by the set-up interpreters.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import anderkit

    if Path(anderkit.__file__).resolve().parent != SRC / "anderkit":
        _fail(f"imported anderkit from {anderkit.__file__}, not from {SRC}")

    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")

    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    jobs = workloads.build(args.workload, args.seed)
    gate = Gate()
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        outdir = Path(tmp)
        workloads.make_dirs(jobs, outdir)
        warm_up(jobs, outdir)
        if args.trace:
            metrics = traced_run(jobs, outdir, args.seconds, gate)
        else:
            metrics = timed_run(jobs, outdir, args.seconds, gate)
            metrics["setup_s"] = statistics.median(setup)
            print(f"setup_s: median of {len(setup)} fresh interpreters, each {[round(s, 4) for s in setup]} s")
            # ru_maxrss is in KiB on Linux.
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if set(units) != set(metrics):
        _fail(f"measured metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    for name, unit in units.items():
        print(f"  {name:<40} {metrics[name]!r:>24} {unit}")
    result = {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
