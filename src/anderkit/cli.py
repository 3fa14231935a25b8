"""Command line harness: solver grammar, experiment configs, CSV output.

Solver grammar::

    SPEC := "picard"
          | "AA(" INT ["," SPEC] ")"
          | "AAoptD(" INT ["," SPEC] ")"
          | "ADD(" SPEC "," SPEC ["," FLOAT "," FLOAT] ")"

A postfix suffix list may follow any SPEC, naming each suffix at most once:
";beta=F" turns AA(m) into a constant-damped accelerator, ";eta=F" and
";guard=floor|reflect" configure the optimized-damping safeguard, ";iterN=I"
sets the inner step count of a composed form. "AA(m,SPEC)" composes
multiplicatively (outer window m, fresh inner SPEC each step); "ADD" blends
two specs with weights that must sum to one (default 0.5/0.5). A SPEC
nests at most 100 levels below the top-level one, a fixed limit that keeps
every recursive walk of a parsed spec far inside Python's recursion limit.

Experiment configs are JSON with the shape::

    {
      "problem": {"kind": "bratu", "N": 64, "lam": 6.0},
      "solvers": ["picard", "AA(20)", "AAoptD(20,AA(1))"],
      "run": {"tol": 1e-8, "max_iters": 2000, "max_fevals": 1000000,
              "divergence_factor": 1e6},
      "output": "results",
      "paper_style_iters": false
    }

Problem kinds and their keys: bratu (N, lam), convdiff (N, eps, react,
scheme), tridiag (n). Command line flags are merged into the file's dict
(or into an empty one) before anything is checked, so a flag wins over a
file value, even an invalid one; the merged dict is then checked once.
The problem kind comes from --problem or the file, never from --param.
Problem and run values are read by one rule: a number or a numeric string
("--param" values stay strings until then), never JSON true or false; an
integer key rejects a fraction, a float key rejects NaN and infinity. The
run keys are RunConfig's fields, so tol and divergence_factor are floats.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .accelerator import DampingPolicy, WindowMeter
from .composer import (
    AA,
    AcceleratorSpec,
    Additive,
    Multiplicative,
    Picard,
    RunConfig,
    run,
)
from .diagnostics import Termination, write_trace_csv
from .problems import (
    bratu_problem,
    convdiff_problem,
    gmres_reference,
    tridiag_problem,
)

SUMMARY_COLUMNS = ("label", "termination", "iters", "fevals", "final_res", "wall_ns", "memory_vectors")

# Canonical spellings: `list-solvers` prints them and `check` round-trips them.
EXAMPLE_SPECS = ("picard", "AA(20)", "AAoptD(20)", "AA(20,AA(1))", "AAoptD(20,AA(1))",
                 "ADD(AA(20),AA(1))", "AA(20);beta=0.5", "AAoptD(20);eta=0.1;guard=floor")


class SpecParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"column {pos + 1}: {message}")
        self.pos = pos


_INT_RE = re.compile(r"\d+")
_FLOAT_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_WORD_RE = re.compile(r"[A-Za-z_]+")
_MAX_NESTING = 100  # levels below the top-level SPEC

# suffix -> (value pattern, the value's name in error messages, cast)
_SUFFIXES = {
    "beta": (_FLOAT_RE, "beta value", float),
    "eta": (_FLOAT_RE, "eta value", float),
    "guard": (_WORD_RE, "guard name", str),
    "iterN": (_INT_RE, "iterN value", int),
}


def _with_suffix(node: AcceleratorSpec, key: str, value) -> AcceleratorSpec:
    """node with the suffix key=value applied; ValueError if it does not apply."""
    if key == "iterN":
        if not isinstance(node, Multiplicative):
            raise ValueError("iterN suffix applies to composed AA(m,SPEC) forms only")
        return dataclasses.replace(node, iter_n=value)
    if key == "beta":
        if not isinstance(node, AA) or node.damping.kind != "none":
            raise ValueError("beta suffix applies to plain AA(m) only")
        return dataclasses.replace(node, damping=DampingPolicy.constant(value))
    if key == "guard" and value not in ("floor", "reflect"):
        raise ValueError(f"guard must be 'floor' or 'reflect', got {value!r}")
    # eta and guard set the policy of an AAoptD node or of a composed form's outer one.
    target = node.outer if isinstance(node, Multiplicative) else node
    if not isinstance(target, AA) or target.damping.kind != "optimized":
        raise ValueError("eta/guard suffixes apply to AAoptD forms only")
    change = {"eta": value} if key == "eta" else {"safeguard": value}
    target = dataclasses.replace(target, damping=dataclasses.replace(target.damping, **change))
    return dataclasses.replace(node, outer=target) if isinstance(node, Multiplicative) else target


class _SpecParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str, pos: int | None = None):
        raise SpecParseError(message, self.pos if pos is None else pos)

    def build(self, pos: int, make, *args):
        """make(*args), with a ValueError it raises reported at column pos."""
        try:
            return make(*args)
        except ValueError as exc:
            raise SpecParseError(str(exc), pos) from exc

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str):
        if not self.eat(literal):
            found = self.peek() or "end of input"
            self.fail(f"expected {literal!r}, found {found!r}")

    def match(self, regex: re.Pattern, what: str, cast=str):
        """cast of the text regex matches next; a cast error is reported where it starts."""
        self.skip_ws()
        m = regex.match(self.text, self.pos)
        if m is None:
            found = self.peek() or "end of input"
            self.fail(f"expected {what}, found {found!r}")
        value = self.build(self.pos, cast, m.group(0))
        self.pos = m.end()
        return value

    def parse(self) -> AcceleratorSpec:
        spec = self.spec()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail(f"expected end of input, found {self.peek()!r}")
        return spec

    def spec(self, level: int = 0) -> AcceleratorSpec:
        self.skip_ws()
        start = self.pos
        if level > _MAX_NESTING:
            self.fail(f"solver nests more than {_MAX_NESTING} levels")
        if self.eat("picard"):
            node: AcceleratorSpec = Picard()
        elif self.eat("ADD("):
            left = self.spec(level + 1)
            self.expect(",")
            right = self.spec(level + 1)
            weights = ()
            if self.eat(","):
                w_left = self.match(_FLOAT_RE, "weight", float)
                self.expect(",")
                weights = (w_left, self.match(_FLOAT_RE, "weight", float))
            self.expect(")")
            node = self.build(start, Additive, left, right, *weights)
        else:
            if self.eat("AAoptD("):
                policy = DampingPolicy.optimized()
            elif self.eat("AA("):
                policy = DampingPolicy.none()
            else:
                self.fail("expected 'picard', 'AA(', 'AAoptD(' or 'ADD('")
            node = AA(self.match(_INT_RE, "window size", int), policy)
            if self.eat(","):
                node = Multiplicative(node, self.spec(level + 1))
            self.expect(")")
        # Suffixes bind to the node just closed, each at most once.
        seen = set()
        while self.eat(";"):
            key_pos = self.pos
            key = self.match(_WORD_RE, "suffix name")
            self.expect("=")
            if key not in _SUFFIXES:
                self.fail(f"unknown suffix {key!r}", key_pos)
            if key in seen:
                self.fail(f"suffix {key!r} is given twice", key_pos)
            seen.add(key)
            regex, what, cast = _SUFFIXES[key]
            node = self.build(key_pos, lambda text: _with_suffix(node, key, cast(text)),
                              self.match(regex, what))
        return node


def parse_spec(text: str) -> AcceleratorSpec:
    """Parse a solver grammar string into an accelerator spec."""
    return _SpecParser(text).parse()


def render_spec(spec: AcceleratorSpec) -> str:
    """Canonical grammar string for a spec; parse(render(s)) == s."""
    if not isinstance(spec, AcceleratorSpec):
        raise TypeError(f"not an accelerator spec: {spec!r}")
    return spec.label


# kind -> (factory, {key: (cast, default)}), keys in the factory's argument order.
_PROBLEMS = {
    "bratu": (bratu_problem, {"N": (int, 64), "lam": (float, 6.0)}),
    "convdiff": (
        convdiff_problem,
        {"N": (int, 32), "eps": (float, 1.0), "react": (float, 3.0), "scheme": (str, "centered")},
    ),
    "tridiag": (tridiag_problem, {"n": (int, 100)}),
}
# The run keys are RunConfig's fields, each cast to its default's type.
_RUN_KEYS = {f.name: (type(f.default), f.default) for f in dataclasses.fields(RunConfig)}


def build_problem(kind: str, params: dict):
    """Build the problem kind from params, defaults filling the keys left out.

    Raises ValueError for an unknown kind or key and for a value that does
    not cast or that the problem's factory rejects.
    """
    if kind not in _PROBLEMS:
        raise ValueError(f"unknown problem kind {kind!r} (expected one of {sorted(_PROBLEMS)})")
    factory, keys = _PROBLEMS[kind]
    return factory(*_read_keys(params, keys, f"{kind} parameter").values())


def _read_keys(values: dict, keys: dict, what: str) -> dict:
    """{key: _cast value or default} for the keys table; ValueError for a key it does not name."""
    for key in values:
        if key not in keys:
            raise ValueError(f"unknown {what} {key!r} (expected one of {list(keys)})")
    return {key: _cast(cast, values.get(key, default), f"{what} {key}")
            for key, (cast, default) in keys.items()}


def _cast(cast, value, name: str):
    """cast(value), refusing a bool, a fraction for int and NaN or infinity for float."""
    try:
        if isinstance(value, bool):  # JSON true/false, which int() and float() would take
            raise ValueError
        out = cast(value)
        fraction = cast is int and isinstance(value, float) and out != value
        if fraction or (cast is float and not np.isfinite(out)):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be {cast.__name__}, got {value!r}") from None
    return out


@dataclass
class ExperimentConfig:
    problem_kind: str
    problem_params: dict = field(default_factory=dict)
    solvers: list[str] = field(default_factory=lambda: ["picard"])
    run_config: RunConfig = field(default_factory=RunConfig)
    output: Path = Path("results")
    paper_style_iters: bool = False

    def __post_init__(self):
        self.output = Path(self.output)
        # Building the problem checks its kind, keys and values; it is cheap
        # next to any solve.
        build_problem(self.problem_kind, self.problem_params)
        if not self.solvers:
            raise ValueError("at least one solver spec is required")
        labels = [parse_spec(text).label for text in self.solvers]
        repeated = sorted({label for label in labels if labels.count(label) > 1})
        if repeated:
            raise ValueError(f"solvers repeat the labels {repeated}; each label names one CSV")
        for label in labels:
            # 255 bytes is the file-name limit of common file systems (NAME_MAX).
            size = len(f"{label}.csv".encode("utf-8"))
            if size > 255:
                raise ValueError(
                    f"solver label {label!r} names a {size}-byte CSV file; file names hold 255 bytes"
                )


def _object_section(raw: dict, key: str) -> dict:
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ValueError(f"config {key!r} must be a JSON object")
    return dict(value)


def _read_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config root must be a JSON object")
    return raw


def _config_from_dict(raw: dict) -> ExperimentConfig:
    """Check a config dict of the JSON shape above and build its ExperimentConfig."""
    unknown = set(raw) - {"problem", "solvers", "run", "output", "paper_style_iters"}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    problem = _object_section(raw, "problem")
    kind = problem.pop("kind", None)
    if kind is None:
        raise ValueError("config must set problem.kind")
    run_config = RunConfig(**_read_keys(_object_section(raw, "run"), _RUN_KEYS, "run key"))
    solvers = raw.get("solvers", ["picard"])
    if not isinstance(solvers, list) or not all(isinstance(text, str) for text in solvers):
        raise ValueError("config 'solvers' must be a list of strings")
    output = raw.get("output", "results")
    if not isinstance(output, str):
        raise ValueError("config 'output' must be a string")
    paper_style_iters = raw.get("paper_style_iters", False)
    if not isinstance(paper_style_iters, bool):
        raise ValueError("config 'paper_style_iters' must be true or false")
    return ExperimentConfig(str(kind), problem, solvers, run_config, output, paper_style_iters)


def load_experiment_config(path) -> ExperimentConfig:
    return _config_from_dict(_read_config(path))


def run_experiment(config: ExperimentConfig):
    """Run every solver on the configured problem and write the CSVs.

    Per solver: <label>.csv with the trace columns. Plus summary.csv with
    one line per solver. Returns the (label, trace) pairs in order.
    """
    specs = [parse_spec(text) for text in config.solvers]
    problem = build_problem(config.problem_kind, config.problem_params)
    out = config.output
    out.mkdir(parents=True, exist_ok=True)

    results = []
    summary_rows = [SUMMARY_COLUMNS]
    for spec in specs:
        label = spec.label
        trace = run(spec, problem, problem.default_start, config.run_config)
        scale = spec.iter_scale if config.paper_style_iters else 1
        write_trace_csv(trace, out / f"{label}.csv", iter_scale=scale)
        summary_rows.append(
            (
                label,
                trace.termination.value,
                trace.iters,
                trace.fevals,
                f"{trace.final_res:.17g}",
                trace.rows[-1].wall_ns if trace.rows else 0,
                spec.memory,
            )
        )
        results.append((label, trace))
    with open(out / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(summary_rows)
    return results


# ---- self checks (anderkit check) ----


def _check_window_reaches_gmres_bound():
    problem = tridiag_problem(40)
    cfg = RunConfig(tol=1e-8, max_iters=41)
    for spec, want in ((AA(40), Termination.CONVERGED), (Picard(), Termination.MAX_ITERS)):
        trace = run(spec, problem, problem.default_start, cfg)
        assert trace.termination == want, (spec, trace.termination, trace.iters)


def _check_feval_budget():
    problem = tridiag_problem(30)
    cfg = RunConfig(tol=1e-300, max_iters=10)
    points = {
        "picard": (Picard(), 11),
        "AAoptD": (AA(2, DampingPolicy.optimized()), 31),
        "AA(m,AA(1))": (Multiplicative(AA(2), AA(1)), 21),
        "ADD(AA(m,AA(1)),AA(n))": (Additive(Multiplicative(AA(2), AA(1)), AA(3)), 21),
    }
    for name, (spec, want) in points.items():
        trace = run(spec, problem, problem.default_start, cfg)
        assert trace.fevals == want, (name, trace.fevals, want)


def _check_hard_budget():
    problem = tridiag_problem(30)
    trace = run(parse_spec("AA(3,AA(1));iterN=7"), problem, problem.default_start,
                RunConfig(tol=1e-300, max_fevals=10))
    assert trace.termination == Termination.MAX_FEVALS and trace.fevals <= 10, (
        trace.termination, trace.fevals)


def _check_memory():
    problem = tridiag_problem(40)
    cfg = RunConfig(tol=1e-300, max_iters=12)
    for spec, want in (
        (AA(5), 6),
        (Additive(AA(5), AA(1)), 6),
        (Multiplicative(AA(5), AA(1)), 7),
        (Multiplicative(AA(4), AA(2), iter_n=5), 8),
    ):
        meter = WindowMeter()
        run(spec, problem, problem.default_start, cfg, meter=meter)
        assert meter.peak == want == spec.memory, (spec, meter.peak, want)


def _check_gmres():
    xs, rnorms = gmres_reference(lambda v: v.copy(), np.array([3.0, -1.0]), np.zeros(2), 2)
    assert rnorms[-1] <= 1e-12 and np.allclose(xs[-1], [3.0, -1.0])


def _check_grammar_roundtrip():
    for text in EXAMPLE_SPECS:
        assert render_spec(parse_spec(text)) == text, text


_CHECKS = (
    ("full window converges where picard stalls", _check_window_reaches_gmres_bound),
    ("evaluation budgets per step", _check_feval_budget),
    ("evaluation budget is a hard cap", _check_hard_budget),
    ("window memory accounting", _check_memory),
    ("gmres reference sanity", _check_gmres),
    ("solver grammar round-trip", _check_grammar_roundtrip),
)


def run_checks(stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    failures = 0
    for name, fn in _CHECKS:
        t0 = time.perf_counter()
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report any failure and keep going
            failures += 1
            print(f"FAIL {name}: {exc}", file=stream)
        else:
            print(f"ok   {name} ({time.perf_counter() - t0:.3f}s)", file=stream)
    return 0 if failures == 0 else 1


# ---- argument handling ----


class _ArgumentParser(argparse.ArgumentParser):
    # Usage problems exit 1; the default argparse code 2 is reserved for I/O.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="anderkit", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"anderkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run solvers on a benchmark problem")
    runp.add_argument("--config", type=Path, help="JSON experiment config")
    runp.add_argument("--problem", help="problem kind: bratu, convdiff or tridiag")
    runp.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="problem parameter override (repeatable)",
    )
    runp.add_argument(
        "--solver",
        action="append",
        default=[],
        metavar="SPEC",
        help="solver spec (repeatable; replaces the config list)",
    )
    runp.add_argument("--tol", type=float)
    runp.add_argument("--max-iters", type=int)
    runp.add_argument("--max-fevals", type=int)
    runp.add_argument("--out", help="output directory")
    runp.add_argument(
        "--paper-style-iters",
        action="store_true",
        help="scale the iter column by the per-step sub-iteration count",
    )

    listp = sub.add_parser("list-solvers", help="print the solver grammar")
    del listp

    checkp = sub.add_parser("check", help="run built-in verification checks")
    del checkp
    return parser


def _config_from_args(args) -> ExperimentConfig:
    """Merge the flags into the config file's dict (or into {}), then check it once."""
    if args.config is None and args.problem is None:
        raise ValueError("either --config or --problem is required")
    raw = _read_config(args.config) if args.config is not None else {}
    problem = _object_section(raw, "problem")
    if args.problem is not None and args.problem != problem.get("kind"):
        # Switching the problem kind drops file params that no longer apply.
        problem = {"kind": args.problem}
    for item in args.param:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"--param expects KEY=VALUE, got {item!r}")
        if key == "kind":
            raise ValueError("--param cannot set the problem kind; use --problem")
        problem[key] = value
    run = _object_section(raw, "run")
    for f in dataclasses.fields(RunConfig):
        if getattr(args, f.name, None) is not None:
            run[f.name] = getattr(args, f.name)
    raw = {**raw, "problem": problem, "run": run}
    if args.solver:
        raw["solvers"] = args.solver
    if args.out is not None:
        raw["output"] = args.out
    if args.paper_style_iters:
        raw["paper_style_iters"] = True
    return _config_from_dict(raw)


_GRAMMAR_HELP = """\
solver grammar:
  SPEC := picard
        | AA(m)                  windowed Anderson step, m+1 stored iterates
        | AAoptD(m)              AA(m) with per-step optimized damping
        | AA(m,SPEC)             outer AA(m) chained with a fresh inner SPEC
        | AAoptD(m,SPEC)         same, optimized damping on the outer step
        | ADD(SPEC,SPEC[,w,w])   weighted blend over one shared history

suffixes (append after a SPEC):
  ;beta=F                 constant damping for plain AA(m), F in (0,1]
  ;eta=F;guard=floor      keep optimized beta >= eta (eta in (0,0.5))
  ;eta=F;guard=reflect    map beta < eta to 1-beta
  ;iterN=I                inner steps per outer step (default 1)

examples (memory = simultaneously stored history vectors):
"""


def _list_solvers(stream) -> None:
    print(_GRAMMAR_HELP, end="", file=stream)
    for text in EXAMPLE_SPECS:
        spec = parse_spec(text)
        print(f"  {text:32s} memory {spec.memory}", file=stream)


def main(argv=None) -> int:
    try:
        code = _main(argv)
        # Flushed here, so that a closed stdout (output piped into head)
        # fails inside this try, not in the interpreter's exit flush.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone. Point fd 1 at devnull, so that the exit flush
        # of what is still buffered writes nowhere instead of failing again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    return code


def _main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.command == "list-solvers":
        _list_solvers(sys.stdout)
        return 0
    if args.command == "check":
        return run_checks(sys.stdout)

    try:
        config = _config_from_args(args)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"anderkit: config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"anderkit: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        results = run_experiment(config)
    except OSError as exc:
        print(f"anderkit: cannot write results: {exc}", file=sys.stderr)
        return 2
    failed = False
    for label, trace in results:
        print(
            f"{label}: {trace.termination.value} after {trace.iters} iters, "
            f"{trace.fevals} fevals, final residual {trace.final_res:.3e}"
        )
        if trace.termination == Termination.FAILED:
            failed = True
            print(f"anderkit: {label} failed: {trace.error}", file=sys.stderr)
    print(f"wrote {config.output}/summary.csv")
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
