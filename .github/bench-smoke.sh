#!/usr/bin/env bash
# Bench smoke: a short run of every benchmark workload, untraced, plus
# bratu-window traced. Exits nonzero unless every run reports
# "correct": true and "failed": 0. bench/run.py exits 0 even when its gate
# fails; the verdict is the JSON object on its last line of output.
#
# Usage, from the repository root: bash .github/bench-smoke.sh
set -euo pipefail

smoke() {
  python3 bench/run.py --seed 1 --seconds 1 "$@" | tail -n 1 | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
print(result["correct"], result["failed"], result["attempted"])
sys.exit(0 if result["correct"] is True and result["failed"] == 0 else 1)'
}

for workload in bratu-picard bratu-window convdiff-composite; do
  smoke --workload "$workload" --trace 0
done
smoke --workload bratu-window --trace 1
