#!/usr/bin/env bash
# CI smoke for the benchmark itself: run every workload briefly, untraced
# then traced, exactly as the driver does (`benchmark/run.sh`), and fail
# when a workload errors out (exit 2, so no result line) or a result line
# reports failed operations. A run marked invalid only because the load
# generator fell behind its schedule (`gen.late_ms_p99`) says nothing about
# the program and is reported, not failed; any other invalid reason fails.
#
# Usage: scripts/bench_smoke.sh  (4-second runs; SAQL_BENCH_OUT as run.sh)
set -uo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

LOG=$(mktemp)
trap 'rm -f "$LOG"' EXIT

bash benchmark/run.sh --seed 1 --seconds 4 | tee "$LOG"
echo "benchmark/run.sh exited ${PIPESTATUS[0]}"

python3 - "$LOG" <<'EOF'
import json
import re
import sys

runs = {}
current = None
for line in open(sys.argv[1], encoding="utf-8"):
    header = re.match(r"== (\S+) · seed \S+ · \S+ s · trace (\d)", line)
    if header:
        current = header.groups()
        runs[current] = {"invalid": [], "result": None}
    elif current and line.startswith("INVALID RUN"):
        runs[current]["invalid"].append(line.split(")", 1)[1].strip())
    elif current and line.startswith('{"correct"'):
        runs[current]["result"] = json.loads(line)

problems = []
for workload in ["serve-flood", "serve-paced", "serve-manyquery", "replay-batch"]:
    for trace in "01":
        name = f"{workload} (trace {trace})"
        run = runs.get((workload, trace))
        if run is None or run["result"] is None:
            problems.append(f"{name}: no result line — the workload exited 2")
            continue
        failed = run["result"]["failed"]
        if failed > 0:
            problems.append(f"{name}: {failed} failed operation(s)")
        other = [r for r in run["invalid"] if not r.startswith("gen.late_ms_p99")]
        if other:
            problems.append(f"{name}: invalid run: {'; '.join(other)}")
        elif run["invalid"]:
            print(f"bench smoke: {name} invalid only for {run['invalid'][0]} (reported, not failed)")

for problem in problems:
    print(f"bench smoke FAILED: {problem}", file=sys.stderr)
if problems:
    sys.exit(1)
print("bench smoke OK: 4 workloads, untraced and traced, 0 failed operations")
EOF
