#!/usr/bin/env python3
"""Spread of one set of benchmark results, or comparison of two sets.

    benchmark/compare.py spread DIR          # run-to-run spread, per metric x workload
    benchmark/compare.py ab DIR_A DIR_B      # B against A under BENCHMARK.json's bounds

A set is a directory of the result-*.json files benchmark/run.sh leaves in
benchmark/out/ (set SAQL_BENCH_OUT to collect each set in its own directory).
Only untraced results (--trace 0) carry end-to-end metrics and are compared.

spread: per (metric, workload) the median, and the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median, marked `wide` where it exceeds the metric's bound and `ok` where it is
under a third of it.

ab: one row per (metric, workload): B's median against A's, as
  better      B is better than A by more than A's own spread
  within      B is no worse than A by more than the bound
  worse       B is worse than A by more than the bound
  unresolved  the spread of A or B is wider than the bound, so the bound
              cannot tell a regression from noise
Exit code 1 if any row is `worse` (ab) or `wide` (spread).
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bounds():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def load_set(directory):
    """{workload: {metric: [values]}} over the untraced results in a directory."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "result-*-trace0-*.json"))):
        with open(path) as f:
            doc = json.load(f)
        workload = doc["machine"]["workload"]
        for name, m in doc["result"]["metrics"].items():
            out.setdefault(workload, {}).setdefault(name, []).append(m["value"])
    return out


def spread_of(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def worse_by(spec, a, b):
    """Share of A's median by which B is worse (negative: better)."""
    if a == 0:
        return 0.0
    change = (b - a) / a
    return change if spec["better"] == "lower" else -change


def cmd_spread(directory):
    bounds = load_bounds()
    results = load_set(directory)
    wide = False
    print(f"{'metric':<26}{'workload':<18}{'n':>3}{'median':>14}{'iqr/median':>12}{'bound':>7}  verdict")
    for workload in sorted(results):
        for name, values in results[workload].items():
            bound = bounds[name]["bound"]
            s = spread_of(values)
            verdict = "ok" if s < bound / 3 else ("wide" if s > bound else "near")
            if verdict == "wide" and name != "setup_s":
                wide = True
            print(f"{name:<26}{workload:<18}{len(values):>3}{statistics.median(values):>14.4f}{s:>12.4f}{bound:>7.2f}  {verdict}")
    return 1 if wide else 0


def cmd_ab(dir_a, dir_b):
    bounds = load_bounds()
    a_set, b_set = load_set(dir_a), load_set(dir_b)
    any_worse = False
    print(f"{'metric':<26}{'workload':<18}{'A median':>14}{'B median':>14}{'worse by':>10}{'bound':>7}  verdict")
    for workload in sorted(a_set):
        for name, a_values in a_set[workload].items():
            b_values = b_set.get(workload, {}).get(name)
            if not b_values:
                continue
            spec = bounds[name]
            a_med, b_med = statistics.median(a_values), statistics.median(b_values)
            change = worse_by(spec, a_med, b_med)
            a_spread, b_spread = spread_of(a_values), spread_of(b_values)
            if max(a_spread, b_spread) > spec["bound"] and name != "setup_s":
                verdict = "unresolved"
            elif change > spec["bound"]:
                verdict = "worse"
                any_worse = True
            elif -change > a_spread:
                verdict = "better"
            else:
                verdict = "within"
            print(f"{name:<26}{workload:<18}{a_med:>14.4f}{b_med:>14.4f}{change:>+10.3f}{spec['bound']:>7.2f}  {verdict}")
    return 1 if any_worse else 0


def main(argv):
    if len(argv) == 3 and argv[1] == "spread":
        return cmd_spread(argv[2])
    if len(argv) == 4 and argv[1] == "ab":
        return cmd_ab(argv[2], argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
