"""Solver grammar, experiment configs, csv outputs, exit codes, package exports."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anderkit
from anderkit import accelerator, cli
from anderkit.accelerator import DampingPolicy, WindowMeter
from anderkit.cli import (
    ExperimentConfig,
    SpecParseError,
    _build_parser,
    _config_from_args,
    build_problem,
    load_experiment_config,
    main,
    parse_spec,
    render_spec,
    run_experiment,
)
from anderkit.composer import AA, Additive, Multiplicative, Picard, RunConfig, run
from anderkit.diagnostics import read_trace_rows
from anderkit.problems import tridiag_problem


# ---- parsing ----


def test_parse_atoms():
    assert parse_spec("picard") == Picard()
    assert parse_spec("AA(3)") == AA(3)
    assert parse_spec("AA(0)") == AA(0)
    assert parse_spec("AAoptD(2)") == AA(2, DampingPolicy.optimized())


def test_parse_compositions():
    assert parse_spec("AA(2,AA(1))") == Multiplicative(AA(2), AA(1))
    assert parse_spec("AAoptD(2,picard)") == Multiplicative(
        AA(2, DampingPolicy.optimized()), Picard()
    )
    assert parse_spec("ADD(AA(2),AA(1))") == Additive(AA(2), AA(1))
    assert parse_spec("ADD(picard,AA(1),0.25,0.75)") == Additive(Picard(), AA(1), 0.25, 0.75)
    nested = parse_spec("ADD(AA(2,AA(1)),AAoptD(1))")
    assert nested == Additive(Multiplicative(AA(2), AA(1)), AA(1, DampingPolicy.optimized()))


def test_parse_suffixes():
    assert parse_spec("AA(3);beta=0.5") == AA(3, DampingPolicy.constant(0.5))
    # picard is AA(0), so it takes AA(0)'s suffixes
    assert parse_spec("picard;beta=0.5") == parse_spec("AA(0);beta=0.5")
    assert parse_spec("AAoptD(2);eta=0.2;guard=floor") == AA(
        2, DampingPolicy.optimized(eta=0.2, safeguard="floor")
    )
    assert parse_spec("AAoptD(2);guard=reflect") == AA(
        2, DampingPolicy.optimized(safeguard="reflect")
    )
    assert parse_spec("AA(2,AA(1));iterN=3") == Multiplicative(AA(2), AA(1), iter_n=3)
    # eta on a composed optimized outer lands on the outer policy
    spec = parse_spec("AAoptD(2,AA(1));eta=0.3;guard=floor;iterN=2")
    assert spec == Multiplicative(
        AA(2, DampingPolicy.optimized(eta=0.3, safeguard="floor")), AA(1), iter_n=2
    )
    # suffix binds to the node just closed, so an inner suffix is legal
    spec = parse_spec("ADD(AA(3);beta=0.5,picard)")
    assert spec == Additive(AA(3, DampingPolicy.constant(0.5)), Picard())
    # each node has its own suffix list, so one key may be given on two nodes
    assert parse_spec("ADD(AAoptD(2);eta=0.2,AAoptD(1);eta=0.3)") == Additive(
        AA(2, DampingPolicy.optimized(eta=0.2)), AA(1, DampingPolicy.optimized(eta=0.3))
    )
    assert parse_spec("AAoptD(2,AAoptD(1);eta=0.2);eta=0.3") == Multiplicative(
        AA(2, DampingPolicy.optimized(eta=0.3)), AA(1, DampingPolicy.optimized(eta=0.2))
    )


def test_parse_tolerates_whitespace():
    assert parse_spec("  AA( 3 , AA( 1 ) ) ; iterN = 2  ") == Multiplicative(
        AA(3), AA(1), iter_n=2
    )


@pytest.mark.parametrize(
    "text",
    [
        "AA(",
        "AA)",
        "AA(x)",
        "picardx",
        "AA(2))",
        "",
        "ADD(AA(1))",
        "ADD(AA(1),AA(2),0.5)",
        "AA(2);beta=",
        "AA(2);beta=2.0",  # constant damping range
        "AA(2);eta=0.1",  # eta needs optimized damping
        "AA(2);iterN=2",  # iterN needs a composed form
        "AAoptD(2);guard=maybe",
        "AA(2);gamma=1",
        "ADD(AA(1),AA(2),0.2,0.3)",  # weights must sum to one
        "ADD(picard,AA(1),1e400,-1e400)",  # inf - inf is NaN, not one
        # a suffix list names each suffix at most once
        "AAoptD(2);eta=0.2;eta=0.3",
        "AA(2,AA(1));iterN=2;iterN=3",
        "AAoptD(2);guard=floor;guard=reflect",
        "AA(3);beta=0.5;beta=0.7",
        # beta applies to undamped AA(m) forms only
        "AAoptD(2);beta=0.5",
        "ADD(AA(1),AA(2));beta=0.5",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(SpecParseError):
        parse_spec(text)


def test_parse_error_carries_position():
    with pytest.raises(SpecParseError) as err:
        parse_spec("AA(2);gamma=1")
    assert "column 7" in str(err.value)
    assert err.value.pos == 6
    with pytest.raises(SpecParseError) as err:
        parse_spec("AA(two)")
    assert "window size" in str(err.value)
    assert isinstance(err.value, ValueError)
    # a rejected suffix value is reported at its key
    with pytest.raises(SpecParseError, match="column 11: eta must be in") as err:
        parse_spec("AAoptD(2);eta=0.7")
    assert err.value.pos == 10
    with pytest.raises(SpecParseError, match="column 19: suffix 'eta' is given twice") as err:
        parse_spec("AAoptD(2);eta=0.2;eta=0.3")
    assert err.value.pos == 18
    # beta on an optimized or additive node is reported at its key
    for text, column in (("AAoptD(2);beta=0.5", 11), ("ADD(AA(1),AA(2));beta=0.5", 18)):
        with pytest.raises(SpecParseError, match=f"column {column}: beta suffix applies") as err:
            parse_spec(text)
        assert err.value.pos == column - 1
    # an integer beyond int's digit limit is a parse error too: a window size
    # at its first digit, a suffix value at its key
    for text, pos in (("AA(" + "1" * 5000 + ")", 3), ("AA(2,AA(1));iterN=" + "1" * 5000, 12)):
        with pytest.raises(SpecParseError, match=f"column {pos + 1}: Exceeds") as err:
            parse_spec(text)
        assert err.value.pos == pos
    # nesting past 100 levels is reported at the first SPEC below the limit
    too_deep = "AA(1," * 101 + "AA(1)" + ")" * 101
    with pytest.raises(SpecParseError, match="column 506: solver nests more than 100 levels"):
        parse_spec(too_deep)


# ---- rendering ----

# a plain AA(0) is picard, and renders under that name
_CANONICAL = {"AA(0)": "picard"}


@pytest.mark.parametrize(
    "text",
    [
        "picard",
        "AA(0)",
        "AA(20)",
        "AAoptD(20)",
        "AA(20);beta=0.5",
        "AAoptD(2);eta=0.2;guard=floor",
        "AAoptD(2);eta=0.2",
        "AAoptD(2,AA(1));eta=0.3",
        "AA(2,AA(1))",
        "AA(2,AA(1));iterN=3",
        "AA(2,AA(1));beta=0.5",
        "AAoptD(2,picard)",
        "ADD(AA(20),AA(1))",
        "ADD(picard,AA(1),0.25,0.75)",
        "ADD(AA(2,AA(1)),AAoptD(1))",
        # the deepest nesting the grammar allows
        pytest.param("AA(1," * 100 + "AA(1)" + ")" * 100, id="AA(1,...)-100-levels"),
    ],
)
def test_render_round_trip(text):
    spec = parse_spec(text)
    assert render_spec(spec) == _CANONICAL.get(text, text)
    assert parse_spec(render_spec(spec)) == spec


def test_render_canonicalizes_defaults():
    assert render_spec(parse_spec("AA( 2 , AA(1) ) ; iterN=1")) == "AA(2,AA(1))"
    assert render_spec(parse_spec("ADD(AA(1),AA(2),0.5,0.5)")) == "ADD(AA(1),AA(2))"
    assert render_spec(parse_spec("AAoptD(2);eta=0.1")) == "AAoptD(2)"
    assert render_spec(parse_spec("AA(0)")) == "picard"


_DAMPING = st.one_of(
    st.just(DampingPolicy.none()),
    st.builds(DampingPolicy.constant, st.floats(0.0, 1.0, exclude_min=True)),
    st.builds(
        DampingPolicy.optimized,
        st.sampled_from(["off", "floor", "reflect"]),
        st.one_of(st.just(0.1), st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)),
    ),
)
_WINDOWED = st.builds(AA, st.integers(0, 30), _DAMPING)


def _specs(depth):
    if depth == 1:
        return st.one_of(st.just(Picard()), _WINDOWED)
    sub = _specs(depth - 1)
    return st.one_of(
        sub,
        st.builds(
            lambda left, right, w: Additive(left, right, w, 1.0 - w),
            sub,
            sub,
            st.one_of(st.just(0.5), st.floats(-2.0, 2.0)),
        ),
        st.builds(Multiplicative, _WINDOWED, sub, st.integers(0, 4)),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(spec=_specs(3))
def test_render_round_trip_property(spec):
    assert parse_spec(render_spec(spec)) == spec


def test_render_rejects_unrepresentable():
    with pytest.raises(TypeError):
        render_spec("AA(2)")


def test_presentation_scale():
    assert Picard().iter_scale == 1
    assert AA(5).iter_scale == 1
    assert Additive(AA(5), AA(1)).iter_scale == 2
    assert Multiplicative(AA(5), AA(1)).iter_scale == 2
    assert Multiplicative(AA(5), AA(1), iter_n=4).iter_scale == 5


@settings(max_examples=300, deadline=None, derandomize=True)
@given(spec=_specs(3))
def test_cost_per_step_and_memory_hold_on_random_specs(spec):
    problem = tridiag_problem(30)
    calls = []
    counted = dataclasses.replace(
        problem, g=lambda x: calls.append(1) or problem.g(x), known_solution=None
    )
    meter = WindowMeter()
    trace = run(spec, counted, problem.default_start, RunConfig(tol=1e-300, max_iters=12),
                meter=meter)
    fevals = [row.fevals for row in trace.rows]
    assert all(b - a == spec.cost_per_step for a, b in zip(fevals, fevals[1:])), fevals
    assert trace.fevals == len(calls)
    assert meter.peak <= spec.memory


# ---- configs and problems ----


def test_build_problem_kinds_and_params():
    assert build_problem("bratu", {"N": 8}).n == 64
    assert build_problem("convdiff", {"N": 6, "scheme": "upwind"}).label == "convdiff-upwind"
    assert build_problem("tridiag", {"n": 30}).n == 30
    # values are cast by the kind's key table, strings included
    assert build_problem("bratu", {"N": "8", "lam": "6"}).n == 64
    assert build_problem("tridiag", {"n": 30.0}).n == 30
    # an integer key reads every integral spelling alike
    for n in ("30.0", "3e1", "+30", " 30 ", 3e1):
        assert build_problem("tridiag", {"n": n}).n == 30, n
    with pytest.raises(ValueError):
        build_problem("poisson", {})
    # an integer key rejects a fraction, a float key rejects NaN and infinity
    for kind, params, message in (
        ("tridiag", {"n": 3.5}, "must be int"),
        ("tridiag", {"n": float("inf")}, "must be int"),
        ("bratu", {"N": "3.5"}, "must be int"),
        ("bratu", {"N": "35e-1"}, "must be int"),
        ("tridiag", {"n": float("nan")}, "must be int"),
        ("tridiag", {"n": "nan"}, "must be int"),
        ("tridiag", {"n": "-inf"}, "must be int"),
        # a spelling that would expand into a huge integer reads as infinity
        ("tridiag", {"n": "1e1000000000"}, "must be int"),
        # from 2**53 on, a float no longer holds every integer exactly
        ("tridiag", {"n": 2.0**53}, "must be int"),
        ("tridiag", {"n": "9007199254740992.0"}, "must be int"),
        ("bratu", {"N": 4, "lam": float("nan")}, "must be float"),
        ("bratu", {"N": 4, "lam": "inf"}, "must be float"),
        ("convdiff", {"N": 4, "eps": float("-inf")}, "must be float"),
        # JSON true and false are not numbers
        ("bratu", {"N": 4, "lam": True}, "must be float"),
        ("tridiag", {"n": False}, "must be int"),
    ):
        with pytest.raises(ValueError, match=message):
            build_problem(kind, params)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(problem_kind="tridiag", problem_params={"N": 4})  # key is n
    with pytest.raises(ValueError):
        ExperimentConfig(problem_kind="bratu", solvers=[])
    with pytest.raises(ValueError):
        ExperimentConfig(problem_kind="bratu", solvers=["AA("])
    # two spellings of one spec would write the same CSV
    with pytest.raises(ValueError):
        ExperimentConfig(problem_kind="bratu", solvers=["AA(2)", "AA( 2 )"])
    # picard is AA(0): one solver, one label
    with pytest.raises(ValueError, match=r"repeat the labels \['picard'\]"):
        ExperimentConfig(problem_kind="bratu", solvers=["picard", "AA(0)"])
    # two different specs have two labels, even when one only changes eta
    config = ExperimentConfig(problem_kind="bratu", solvers=["AAoptD(2)", "AAoptD(2);eta=0.2"])
    assert [render_spec(parse_spec(text)) for text in config.solvers] == [
        "AAoptD(2)",
        "AAoptD(2);eta=0.2",
    ]


def _write_config(path, **overrides):
    payload = {
        "problem": {"kind": "tridiag", "n": 30},
        "solvers": ["picard", "AA(5)"],
        "run": {"tol": 1e-6, "max_iters": 400},
        "output": str(path.parent / "results"),
    }
    payload.update(overrides)
    path.write_text(json.dumps(payload), encoding="utf-8")
    return payload


def test_load_experiment_config(tmp_path):
    cfg_path = tmp_path / "exp.json"
    _write_config(cfg_path)
    config = load_experiment_config(cfg_path)
    assert config.problem_kind == "tridiag"
    assert config.problem_params == {"n": 30}
    assert config.solvers == ["picard", "AA(5)"]
    assert config.run_config.tol == 1e-6
    assert config.run_config.max_iters == 400
    assert config.paper_style_iters is False


def test_load_experiment_config_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "exp.json"
    _write_config(cfg_path, extras=1)
    with pytest.raises(ValueError):
        load_experiment_config(cfg_path)
    _write_config(cfg_path, run={"tol": 1e-6, "cadence": 2})
    with pytest.raises(ValueError):
        load_experiment_config(cfg_path)
    cfg_path.write_text(json.dumps({"solvers": ["picard"]}), encoding="utf-8")
    with pytest.raises(ValueError):
        load_experiment_config(cfg_path)  # problem.kind missing
    cfg_path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ValueError):
        load_experiment_config(cfg_path)
    for section in ("problem", "run"):
        _write_config(cfg_path, **{section: 5})
        with pytest.raises(ValueError, match="must be a JSON object"):
            load_experiment_config(cfg_path)
    # a value of the wrong type is a ValueError, not a TypeError or a silent cast
    for overrides in (
        {"run": {"tol": "x"}},
        {"run": {"max_iters": 2.5}},
        {"run": {"max_fevals": 10.5}},
        {"run": {"tol": True}},
        {"run": {"max_iters": True}},
        # infinity, which json.load reads from Infinity, is no tolerance or factor
        {"run": {"tol": math.inf}},
        {"run": {"divergence_factor": math.inf}},
        {"problem": {"kind": "bratu", "lam": True}},
        {"solvers": 5},
        {"solvers": "AA(2)"},
        {"solvers": ["AA(2)", 3]},
        {"output": 5},
        {"paper_style_iters": "false"},
        {"problem": {"kind": "tridiag", "n": 3.5}},
    ):
        _write_config(cfg_path, **overrides)
        with pytest.raises(ValueError):
            load_experiment_config(cfg_path)


# ---- running experiments ----


def test_run_experiment_writes_per_solver_and_summary(tmp_path):
    config = ExperimentConfig(
        problem_kind="tridiag",
        problem_params={"n": 25},
        solvers=["picard", "AA(25)"],
        run_config=RunConfig(tol=1e-8, max_iters=200),
        output=tmp_path / "out",
    )
    results = run_experiment(config)
    assert [label for label, _ in results] == ["picard", "AA(25)"]
    assert (tmp_path / "out" / "picard.csv").exists()
    assert (tmp_path / "out" / "AA(25).csv").exists()
    summary = (tmp_path / "out" / "summary.csv").read_text(encoding="utf-8").splitlines()
    assert summary[0] == "label,termination,iters,fevals,final_res,wall_ns,memory_vectors"
    assert len(summary) == 3
    aa_line = summary[2].split(",")
    assert aa_line[0] == "AA(25)"
    assert aa_line[1] == "converged"
    assert aa_line[6] == "26"  # m+1 history vectors


def test_summary_quotes_composite_labels(tmp_path):
    config = ExperimentConfig(
        problem_kind="tridiag",
        problem_params={"n": 12},
        solvers=["ADD(AA(3),AA(1))", "AA(2,AA(1));iterN=2", "AA(3)"],
        run_config=RunConfig(tol=1e-8, max_iters=50),
        output=tmp_path / "out",
    )
    run_experiment(config)
    text = (tmp_path / "out" / "summary.csv").read_text(encoding="utf-8")
    rows = list(csv.reader(io.StringIO(text)))
    assert all(len(row) == 7 for row in rows)
    assert [row[0] for row in rows[1:]] == ["ADD(AA(3),AA(1))", "AA(2,AA(1));iterN=2", "AA(3)"]
    # a label without a comma is written as before, unquoted
    assert text.splitlines()[3].startswith("AA(3),")


def test_run_experiment_is_deterministic_modulo_walltime(tmp_path):
    config = ExperimentConfig(
        problem_kind="convdiff",
        problem_params={"N": 6, "eps": 0.5},
        solvers=["AA(2,AA(1))"],
        run_config=RunConfig(tol=1e-8, max_iters=300),
        output=tmp_path / "a",
    )
    first = run_experiment(config)
    config.output = tmp_path / "b"
    second = run_experiment(config)
    rows_a = read_trace_rows(tmp_path / "a" / "AA(2,AA(1)).csv")
    rows_b = read_trace_rows(tmp_path / "b" / "AA(2,AA(1)).csv")
    assert len(rows_a) == len(rows_b)
    for ra, rb in zip(rows_a, rows_b):
        assert (ra.k, ra.fevals, ra.res_norm, ra.beta, ra.theta, ra.alpha_abs_sum) == (
            rb.k,
            rb.fevals,
            rb.res_norm,
            rb.beta,
            rb.theta,
            rb.alpha_abs_sum,
        )
    assert first[0][1].final_res == second[0][1].final_res


def test_run_experiment_paper_style_iteration_scaling(tmp_path):
    base = dict(
        problem_kind="tridiag",
        problem_params={"n": 20},
        solvers=["AA(2,AA(1))"],
        run_config=RunConfig(tol=1e-300, max_iters=4),
    )
    config = ExperimentConfig(output=tmp_path / "raw", **base)
    run_experiment(config)
    scaled = ExperimentConfig(output=tmp_path / "scaled", paper_style_iters=True, **base)
    run_experiment(scaled)
    raw_rows = read_trace_rows(tmp_path / "raw" / "AA(2,AA(1)).csv")
    scaled_rows = read_trace_rows(tmp_path / "scaled" / "AA(2,AA(1)).csv")
    assert [r.k for r in raw_rows] == [0, 1, 2, 3, 4]
    assert [r.k for r in scaled_rows] == [0, 2, 4, 6, 8]
    # residual columns identical: scaling is presentation only
    assert [r.res_norm for r in raw_rows] == [r.res_norm for r in scaled_rows]


# ---- command line entry ----


def test_main_run_with_flags(tmp_path, capsys):
    code = main(
        [
            "run",
            "--problem",
            "tridiag",
            "--param",
            "n=20",
            "--solver",
            "AA(20)",
            "--tol",
            "1e-8",
            "--max-iters",
            "100",
            "--out",
            str(tmp_path / "res"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "AA(20): converged" in out
    assert (tmp_path / "res" / "summary.csv").exists()
    # --paper-style-iters scales the iter column by the sub-steps per step
    argv = ["run", "--problem", "tridiag", "--solver", "AA(2,AA(1))", "--max-iters", "3"]
    assert main([*argv, "--paper-style-iters", "--out", str(tmp_path / "scaled")]) == 0
    rows = read_trace_rows(tmp_path / "scaled" / "AA(2,AA(1)).csv")
    assert [r.k for r in rows] == [0, 2, 4, 6]
    # an infinite tolerance is a config error, not a run converged at its seed
    capsys.readouterr()
    assert main([*argv, "--tol", "inf", "--out", str(tmp_path / "inf")]) == 1
    assert "anderkit: config error:" in capsys.readouterr().err


def test_main_run_with_config_and_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    _write_config(cfg_path)
    code = main(
        ["run", "--config", str(cfg_path), "--solver", "AA(10)", "--out", str(tmp_path / "o")]
    )
    assert code == 0
    # the flag replaced the config's solver list
    assert (tmp_path / "o" / "AA(10).csv").exists()
    assert not (tmp_path / "o" / "picard.csv").exists()


def test_flags_and_run_fields_stay_in_step(tmp_path):
    args = _build_parser().parse_args(
        ["run", "--problem", "tridiag", "--tol", "1e-5", "--max-iters", "7", "--max-fevals", "9"]
    )
    run_config = _config_from_args(args).run_config
    assert (run_config.tol, run_config.max_iters, run_config.max_fevals) == (1e-5, 7, 9)
    # every RunConfig field has a flag but divergence_factor, which only a file sets
    names = {f.name for f in dataclasses.fields(RunConfig)}
    assert names & set(vars(args)) == names - {"divergence_factor"}
    # a file may set every RunConfig field
    fields = {"tol": 1e-5, "max_iters": 7, "max_fevals": 9, "divergence_factor": 20.0}
    assert set(fields) == {f.name for f in dataclasses.fields(RunConfig)}
    cfg_path = tmp_path / "exp.json"
    _write_config(cfg_path, run=fields)
    assert load_experiment_config(cfg_path).run_config == RunConfig(**fields)
    # run values are read like --param values: a numeric string is a number
    _write_config(cfg_path, run={"tol": "1e-6", "max_iters": "400"})
    assert load_experiment_config(cfg_path).run_config == RunConfig(tol=1e-6, max_iters=400)


def test_flags_are_read_by_the_file_rule(tmp_path, capsys):
    # flag values reach the config as strings and are cast once, as file values are
    argv = ["run", "--problem", "tridiag", "--param", "n=10.0", "--tol", "1e-6",
            "--max-iters", "400.0", "--max-fevals", "4e2"]
    config = _config_from_args(_build_parser().parse_args(argv))
    assert build_problem(config.problem_kind, config.problem_params).n == 10
    assert config.run_config == RunConfig(tol=1e-6, max_iters=400, max_fevals=400)
    largest = _config_from_args(_build_parser().parse_args(
        ["run", "--problem", "tridiag", "--max-iters", "9007199254740991.0"]))
    assert largest.run_config.max_iters == 2**53 - 1
    for flag, value, message in (
        ("--max-iters", "3.5", "run key max_iters must be int, got '3.5'"),
        ("--max-iters", "35e-1", "run key max_iters must be int, got '35e-1'"),
        ("--max-fevals", "nan", "run key max_fevals must be int, got 'nan'"),
        ("--max-fevals", "inf", "run key max_fevals must be int, got 'inf'"),
        ("--max-iters", "1e1000000000", "run key max_iters must be int"),
        ("--max-iters", "9007199254740992.0", "run key max_iters must be int"),
        ("--max-iters", "x", "run key max_iters must be int, got 'x'"),
        ("--tol", "x", "run key tol must be float, got 'x'"),
        ("--param", "n=10.5", "tridiag parameter n must be int, got '10.5'"),
    ):
        argv = ["run", "--problem", "tridiag", flag, value, "--out", str(tmp_path / "bad")]
        assert main(argv) == 1, (flag, value)
        assert f"anderkit: config error: {message}" in capsys.readouterr().err, (flag, value)
    assert not (tmp_path / "bad").exists()
    # a file value in float form reads as the flag's does
    cfg_path = tmp_path / "exp.json"
    _write_config(cfg_path, run={"max_iters": "400.0", "max_fevals": 4e2})
    assert load_experiment_config(cfg_path).run_config == RunConfig(max_iters=400, max_fevals=400)


def test_flags_override_invalid_file_values(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(
        json.dumps({"problem": {"kind": "tridiag", "n": 1}, "solvers": ["AA("]}), encoding="utf-8"
    )
    argv = ["run", "--config", str(cfg_path), "--max-iters", "5", "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    assert main([*argv, "--param", "n=10"]) == 1  # the solver list is still invalid
    assert main([*argv, "--solver", "AA(2)"]) == 1  # n is still invalid
    capsys.readouterr()
    assert main([*argv, "--param", "n=10", "--solver", "AA(2)"]) == 0
    assert "AA(2): max_iters after 5 iters" in capsys.readouterr().out


def test_main_switching_problem_kind_drops_file_params(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    _write_config(cfg_path)  # tridiag with n=30
    code = main(
        [
            "run",
            "--config",
            str(cfg_path),
            "--problem",
            "convdiff",
            "--param",
            "N=5",
            "--solver",
            "AA(1)",
            "--max-iters",
            "300",
            "--out",
            str(tmp_path / "o2"),
        ]
    )
    assert code == 0
    # The kind comes from --problem or the file, never from --param.
    for argv in (
        ["run", "--problem", "tridiag", "--param", "kind=bratu", "--param", "N=8"],
        ["run", "--config", str(cfg_path), "--param", "kind=bratu", "--param", "N=8"],
    ):
        assert main([*argv, "--max-iters", "5", "--out", str(tmp_path / "o3")]) == 1
        assert "anderkit: config error: --param cannot set the problem kind" in capsys.readouterr().err
    assert not (tmp_path / "o3").exists()


def test_main_exits_3_when_a_solver_fails_and_runs_the_rest(tmp_path, capsys, monkeypatch):
    def singular(matrix, rhs, **_):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(accelerator, "least_squares", singular)
    out = tmp_path / "out"
    argv = ["run", "--problem", "tridiag", "--param", "n=10", "--solver", "AA(2)",
            "--solver", "picard", "--max-iters", "20", "--out", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "anderkit: AA(2) failed: LinAlgError: singular" in captured.err
    rows = list(csv.reader(io.StringIO((out / "summary.csv").read_text(encoding="utf-8"))))
    assert [row[:3] for row in rows[1:]] == [["AA(2)", "failed", "1"], ["picard", "max_iters", "20"]]
    assert len(read_trace_rows(out / "AA(2).csv")) == 2


def test_a_label_too_long_for_a_file_name_is_a_config_error(tmp_path, capsys):
    # 21 levels name a 262-byte CSV, which no common file system holds: exit 1
    # before any solve. 20 levels name a 250-byte one, which runs.
    argv = ["run", "--problem", "tridiag", "--param", "n=10", "--max-iters", "5", "--solver"]
    too_long = "ADD(picard," * 21 + "picard" + ")" * 21
    assert main([*argv, too_long, "--out", str(tmp_path / "long")]) == 1
    err = capsys.readouterr().err
    assert "anderkit: config error:" in err and "262-byte" in err
    assert not (tmp_path / "long").exists()
    longest = "ADD(picard," * 20 + "picard" + ")" * 20
    assert main([*argv, longest, "--out", str(tmp_path / "longest")]) == 0
    assert (tmp_path / "longest" / f"{longest}.csv").exists()
    assert (tmp_path / "longest" / "summary.csv").exists()


def test_main_exit_codes(tmp_path, capsys):
    # usage problems exit 1
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    assert main(["run"]) == 1  # neither --config nor --problem
    # malformed solver spec exits 1 with a message
    assert main(["run", "--problem", "tridiag", "--solver", "AA("]) == 1
    assert "config error" in capsys.readouterr().err
    # two spellings of one canonical label exit 1 before any CSV is written
    assert main(["run", "--problem", "tridiag", "--solver", "AA(2)", "--solver", "AA( 2 )",
                 "--out", str(tmp_path / "dup")]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "dup").exists()
    # a solver nested far past the limit is a config error, not a RecursionError
    deep = "ADD(picard," * 2000 + "picard" + ")" * 2000
    assert main(["run", "--problem", "tridiag", "--param", "n=10", "--solver", deep,
                 "--out", str(tmp_path / "deep")]) == 1
    assert "anderkit: config error: column 1105: solver nests more than 100 levels" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "deep").exists()
    # malformed problem parameter exits 1
    assert main(["run", "--problem", "tridiag", "--param", "bogus"]) == 1
    capsys.readouterr()
    # an unknown kind, an uncastable value and values the problem rejects are
    # config errors, caught before any solve
    for argv in (
        ["--problem", "foo"],
        ["--problem", "bratu", "--param", "N=abc"],
        ["--problem", "bratu", "--param", "N=3.5"],
        ["--problem", "bratu", "--param", "N=4", "--param", "lam=nan"],
        ["--problem", "convdiff", "--param", "N=4", "--param", "eps=inf"],
        ["--problem", "bratu", "--param", "N=1"],
        ["--problem", "convdiff", "--param", "scheme=sideways"],
    ):
        assert main(["run", *argv, "--out", str(tmp_path / "bad")]) == 1, argv
        assert "anderkit: config error:" in capsys.readouterr().err, argv
    assert not (tmp_path / "bad").exists()
    # an unknown kind is reported as such, naming the known kinds
    assert main(["run", "--problem", "foo", "--param", "N=3"]) == 1
    err = capsys.readouterr().err
    assert "unknown problem kind 'foo'" in err and "bratu" in err
    # the casts keep the "must be int" / "must be float" messages
    assert main(["run", "--problem", "bratu", "--param", "N=3.5"]) == 1
    assert "bratu parameter N must be int, got '3.5'" in capsys.readouterr().err
    assert main(["run", "--problem", "bratu", "--param", "N=4", "--param", "lam=nan"]) == 1
    assert "bratu parameter lam must be float, got 'nan'" in capsys.readouterr().err
    # a fractional integer value in a config file exits 1
    frac = tmp_path / "frac.json"
    frac.write_text(json.dumps({"problem": {"kind": "tridiag", "n": 3.5}}), encoding="utf-8")
    assert main(["run", "--config", str(frac), "--out", str(tmp_path / "bad")]) == 1
    assert "tridiag parameter n must be int, got 3.5" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()
    # bad json exits 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 1
    # missing config file is an I/O failure: exit 2
    assert main(["run", "--config", str(tmp_path / "ghost.json")]) == 2
    # unwritable output directory is an I/O failure: exit 2
    blocker = tmp_path / "file.txt"
    blocker.write_text("x", encoding="utf-8")
    code = main(
        [
            "run",
            "--problem",
            "tridiag",
            "--param",
            "n=10",
            "--solver",
            "picard",
            "--max-iters",
            "5",
            "--out",
            str(blocker / "results"),
        ]
    )
    assert code == 2
    capsys.readouterr()


def test_main_list_solvers(capsys):
    assert main(["list-solvers"]) == 0
    out = capsys.readouterr().out
    assert "SPEC" in out and "AAoptD" in out and "memory" in out


def test_main_check_passes(capsys):
    assert main(["check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(cli._CHECKS)
    for line, (name, _) in zip(lines, cli._CHECKS):
        assert line.startswith(f"ok   {name} ("), line


def test_main_check_reports_a_failing_check_and_runs_the_rest(capsys, monkeypatch):
    def broken():
        raise AssertionError("broken on purpose")

    (name, _), *rest = cli._CHECKS
    monkeypatch.setattr(cli, "_CHECKS", ((name, broken), *rest))
    assert main(["check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"FAIL {name}: broken on purpose"
    assert len(lines) == len(rest) + 1
    assert all(line.startswith(f"ok   {other} (") for line, (other, _) in zip(lines[1:], rest))


# ---- package ----


def test_every_export_resolves_once():
    assert len(anderkit.__all__) == len(set(anderkit.__all__))
    missing = [name for name in anderkit.__all__ if not hasattr(anderkit, name)]
    assert missing == []


def _child_env():
    """os.environ with this checkout's src/ first on PYTHONPATH, for a child interpreter."""
    src = str(Path(anderkit.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_list_solvers_runs_under_python_OO():
    # -OO strips docstrings to None, so nothing on the command path may read one
    proc = subprocess.run([sys.executable, "-OO", "-m", "anderkit.cli", "list-solvers"],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "SPEC := picard" in proc.stdout


def test_check_fails_a_broken_library_under_python_O():
    # -O strips assert statements; with the meter's acquire a no-op, the
    # memory check must still fail and the others still pass
    code = (
        "import sys\n"
        "from anderkit import accelerator, cli\n"
        "accelerator.WindowMeter.acquire = lambda self: None\n"
        "sys.exit(cli.main(['check']))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.startswith("FAIL") for line in lines] == [False, False, False, True, False]
    assert lines[3].startswith("FAIL window memory accounting: AA(5): got {"), lines[3]
    assert "'peak': 0" in lines[3] and "expected {'peak': 6, 'memory': 6}" in lines[3]


@pytest.mark.parametrize(
    "args",
    [
        ["list-solvers"],
        ["run", "--problem", "tridiag", "--param", "n=8", "--solver", "AA(1)", "--max-iters", "3"],
    ],
)
def test_closed_stdout_exits_with_the_io_code_and_no_traceback(args, tmp_path):
    # The pipe's read end is closed before the child starts, so its first
    # write to stdout fails, as when the output is piped into head.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "anderkit.cli", *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=_child_env(),
            cwd=tmp_path,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    if args[0] == "run":
        # the results were written before the final print failed
        assert (tmp_path / "results" / "summary.csv").is_file()
