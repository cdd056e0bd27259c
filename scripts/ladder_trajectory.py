#!/usr/bin/env python3
"""Print the ladder's perf trajectory from the committed perf records.

    scripts/ladder_trajectory.py              # every bench/ladder/pr-*.json, in PR order
    scripts/ladder_trajectory.py DIR          # the records in another directory

Each perf PR commits one record, `bench/ladder/pr-<n>.json`: the ten-pair
parent/change A/B of every ladder workload (`benchmark/compare.py ab` over
`benchmark/run.sh --trace 0` result sets), the machine facts, and any probe
counts the PR measured. The output is one markdown table per record, the
rows EXPERIMENTS.md carries: per workload and end-to-end metric the parent
median with its quartiles, the change median and its difference, in how
many pairs the change read better, and compare.py's verdict. Then one
trajectory table: per workload and metric, the change medians record by
record, so a reader sees where each figure went.
"""

import glob
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ORDER = ["setup_s", "throughput_eps", "cpu_s_per_mev", "peak_rss_mb", "alert_latency_p50_ms"]


def load(directory):
    records = []
    for path in glob.glob(os.path.join(directory, "pr-*.json")):
        match = re.search(r"pr-(\d+)\.json$", path)
        if match:
            with open(path) as f:
                records.append((int(match.group(1)), json.load(f)))
    return sorted(records, key=lambda r: r[0])


def fmt(value):
    if value is None:
        return "–"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}"
    return f"{value:.4g}" if abs(value) < 1 else f"{value:.2f}"


def runs(value):
    """A probe's count, or its counts over several runs."""
    return ", ".join(f"{x:,}" for x in (value if isinstance(value, list) else [value]))


def metrics(workload):
    return sorted(workload, key=lambda m: ORDER.index(m) if m in ORDER else len(ORDER))


def record_table(n, record):
    machine = record.get("machine", {})
    out = [
        f"### PR {n} — {record.get('title', '')}",
        "",
        f"{record.get('method', '')} `nproc` = {machine.get('nproc', '?')}, "
        f"{machine.get('rustc', '')}, parent {record.get('parent', '?')}, {record.get('date', '')}.",
        "",
        "| workload | metric | parent (Q1–Q3) | change | better in | verdict |",
        "|---|---|---|---|---|---|",
    ]
    for name, workload in record["workloads"].items():
        first = True
        for metric in metrics(workload):
            row = workload[metric]
            parent, change = row["parent"], row["change"]
            delta = f" ({(change - parent) / parent:+.1%})" if parent else ""
            quartiles = f" ({fmt(row['parent_q1'])}–{fmt(row['parent_q3'])})"
            out.append(
                f"| {f'`{name}`' if first else ''} | {metric} | {fmt(parent)}{quartiles} "
                f"| {fmt(change)}{delta} | {row['better_in']}/{row['pairs']} | {row['verdict']} |"
            )
            first = False
    for probe, row in record.get("probes", {}).items():
        parent, change = runs(row["parent"]), runs(row["change"])
        out.append(f"\nProbe `{probe}`: parent {parent} → change {change}. {row.get('how', '')}")
    return "\n".join(out)


def trajectory(records):
    seen = {}
    for n, record in records:
        for name, workload in record["workloads"].items():
            for metric in metrics(workload):
                seen.setdefault((name, metric), {})[n] = workload[metric]["change"]
    prs = [n for n, _ in records]
    out = [
        "### Trajectory (change medians)",
        "",
        "| workload | metric | " + " | ".join(f"PR {n}" for n in prs) + " |",
        "|---|---|" + "---|" * len(prs),
    ]
    for (name, metric), by_pr in seen.items():
        cells = " | ".join(fmt(by_pr.get(n)) for n in prs)
        out.append(f"| `{name}` | {metric} | {cells} |")
    return "\n".join(out)


def main(argv):
    directory = argv[1] if len(argv) > 1 else os.path.join(ROOT, "bench", "ladder")
    records = load(directory)
    if not records:
        print(f"no pr-*.json records in {directory}", file=sys.stderr)
        return 1
    for n, record in records:
        print(record_table(n, record))
        print()
    print(trajectory(records))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
