#!/usr/bin/env bash
# One command for the whole benchmark: build `saql` from this checkout,
# build the harness (and, for a traced run, the in-process ladder), then run
# one workload and print its result as the last line of stdout.
#
#   benchmark/run.sh --workload serve-flood --seed 1 --seconds 15 --trace 0
#   benchmark/run.sh --seed 1            # all four workloads, untraced then traced
#
# Results accumulate in benchmark/out/ (or $SAQL_BENCH_OUT); compare two
# sets with benchmark/compare.py.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"
cd "$ROOT"

# The driver sets CARGO_TARGET_DIR (relative to the checkout root); by hand
# everything lands in the repository's own target/.
TARGET="${CARGO_TARGET_DIR:-target}"
case "$TARGET" in /*) ;; *) TARGET="$ROOT/$TARGET" ;; esac
export CARGO_TARGET_DIR="$TARGET"
OUT="${SAQL_BENCH_OUT:-$HERE/out}"

trace=0 workload="" seed=1 seconds=15
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    case "${args[i]}" in
        --trace) trace="${args[i + 1]:-0}" ;;
        --workload) workload="${args[i + 1]:-}" ;;
        --seed) seed="${args[i + 1]:-1}" ;;
        --seconds) seconds="${args[i + 1]:-15}" ;;
    esac
done

# Build output goes to stderr so the result stays the last line of stdout.
cargo build --release --offline --quiet -p saql-cli 1>&2
cargo build --release --offline --quiet --manifest-path "$HERE/Cargo.toml" 1>&2

run_one() { # workload trace
    local ladder=()
    if [ "$2" = 1 ]; then
        cargo build --release --offline --quiet --manifest-path "$HERE/ladder/Cargo.toml" 1>&2
        ladder=(--ladder "$TARGET/release/saql-ladder")
    fi
    "$TARGET/release/saql-benchmark" --saql "$TARGET/release/saql" --queries "$HERE/queries" \
        --out "$OUT" "${ladder[@]}" --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$2"
}

if [ -n "$workload" ]; then
    run_one "$workload" "$trace"
else
    status=0
    for w in serve-flood serve-paced serve-manyquery replay-batch; do
        run_one "$w" 0 || status=$?
        run_one "$w" 1 || status=$?
    done
    exit "$status"
fi
