#!/usr/bin/env bash
# CLI smoke: runs the installed `anderkit` console script. `anderkit check`,
# `list-solvers` and one `anderkit run` must succeed, as must `check` under
# `python -O`, which strips assert statements, and `list-solvers` under
# `python -OO`, which also strips docstrings. Five config errors
# must exit 1: an infinite tolerance, a window size past int's digit limit,
# a problem kind given through --param, a solver nested past 100 levels,
# and a label whose CSV name passes 255 bytes.
#
# Usage, from the repository root after `pip install -e .`: bash .github/cli-smoke.sh
set -euo pipefail

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

anderkit check
anderkit list-solvers
python -O -m anderkit.cli check
python -OO -m anderkit.cli list-solvers
anderkit run --problem tridiag --param n=20 --solver "AA(5)" --solver "AAoptD(2,AA(1));eta=0.2;guard=floor" --solver "AA(3,AA(1));beta=0.5" --paper-style-iters --max-iters 400 --out "$out/anderkit-run"

config_error() {
  local rc=0
  anderkit run "$@" --out "$out/bad" || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "expected exit code 1, got $rc: anderkit run $*" >&2
    exit 1
  fi
}

config_error --problem tridiag --tol inf
config_error --problem tridiag --solver "AA($(printf '1%.0s' $(seq 5000))))"
config_error --problem tridiag --param kind=bratu
config_error --problem tridiag --solver "$(python3 -c "print('ADD(picard,'*2000+'picard'+')'*2000)")"
config_error --problem tridiag --param n=10 --max-iters 5 --solver "$(python3 -c "print('ADD(picard,'*21+'picard'+')'*21)")"
