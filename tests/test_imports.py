"""What a fresh interpreter imports: scipy only for the solves that need
LAPACK, and nothing from tests/.

The pytest process has scipy loaded and tests/ on sys.path already, so each
check runs in a fresh interpreter and reports what it saw.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import anderkit

SRC = str(Path(anderkit.__file__).resolve().parents[1])


def _fresh(code: str, tmp_path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_picard_and_shallow_windows_never_load_scipy(tmp_path):
    seen = _fresh(
        """
        import json, sys

        import anderkit, anderkit.cli
        after_import = "scipy" in sys.modules

        from anderkit import RunConfig, bratu_problem, convdiff_problem, run, tridiag_problem
        from anderkit.cli import main, parse_spec

        specs = ["picard", "AA(1)", "AA(1,AA(1))", "AAoptD(1,AA(1))", "ADD(AA(1),picard)",
                 "AA(1);beta=0.5"]
        problems = [convdiff_problem(8), tridiag_problem(30), bratu_problem(8)]
        terminations = []
        for text in specs:
            for problem in problems:
                trace = run(parse_spec(text), problem, problem.default_start,
                            RunConfig(max_iters=20))
                terminations.append((text, trace.termination.value, trace.iters))
        code = main(["run", "--problem", "bratu", "--param", "N=8", "--solver", "picard",
                     "--max-iters", "20", "--out", "res"])
        try:
            main(["--version"])
        except SystemExit:
            pass
        after_runs = "scipy" in sys.modules

        # a repeated iterate leaves a zero difference, still a 1 x 1 solve
        import numpy as np
        from anderkit.accelerator import HistoryWindow, solve_mixing_coefficients
        window = HistoryWindow(2)
        for _ in range(2):
            window.push(np.ones(3), np.full(3, 2.0))
        repeat_alpha = solve_mixing_coefficients(window).alpha.tolist()
        after_repeat = "scipy" in sys.modules

        problem = tridiag_problem(30)
        run(parse_spec("AA(2)"), problem, problem.default_start, RunConfig(max_iters=20))
        print(json.dumps({"after_import": after_import, "after_runs": after_runs,
                          "repeat_alpha": repeat_alpha, "after_repeat": after_repeat,
                          "terminations": terminations, "code": code,
                          "after_deep": "scipy.linalg" in sys.modules}))
        """,
        tmp_path,
    )
    assert not seen["after_import"]
    assert not seen["after_runs"]
    assert seen["repeat_alpha"] == [0.0, 1.0] and not seen["after_repeat"]
    assert seen["code"] == 0
    for text, termination, iters in seen["terminations"]:
        assert termination != "failed", text
        assert iters > 0, text
    assert seen["after_deep"]


def test_a_deep_window_loads_scipy_before_the_first_evaluation(tmp_path):
    seen = _fresh(
        """
        import json, sys
        from types import SimpleNamespace

        import numpy as np
        from anderkit import AA, Picard, run

        def boom(x):
            raise RuntimeError("boom")

        problem = SimpleNamespace(n=4, g=boom)
        out = {}
        for name, spec in (("picard", Picard()), ("deep", AA(5))):
            trace = run(spec, problem, np.zeros(4))
            out[name] = [trace.termination.value, len(trace.rows), trace.error,
                         "scipy.linalg" in sys.modules]
        print(json.dumps(out))
        """,
        tmp_path,
    )
    assert seen["picard"] == ["failed", 0, "RuntimeError: boom", False]
    assert seen["deep"] == ["failed", 0, "RuntimeError: boom", True]


def test_check_runs_with_only_the_library_on_the_path(tmp_path):
    # tests/ holds test oracles (gmres_oracle.py) that the library must not import
    proc = subprocess.run(
        [sys.executable, "-m", "anderkit.cli", "check"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout
    assert "Traceback" not in proc.stderr
