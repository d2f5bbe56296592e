#!/usr/bin/env python3
"""Time the seven acceptance criteria against their limits.

Each run is one fresh interpreter calling ``prodquot.acceptance.run_all`` (the
work of ``prodquot selftest``), so no run reuses another's caches.  For each
criterion the script reports the median of its own measured seconds over the
runs, the fastest and slowest run, its time limit (None for criteria without
one; the limits are read from the package, never set here), the share of the
limit the median uses, and how many runs passed.  It exits 1 when any run of
any criterion fails, so a slow host shows up as a failure here as in the
suite.

Usage:
  python3 benchmarks/bench_acceptance.py [--runs N] [--json]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys

from _common import ROOT, git_sha


def run_once() -> list[dict]:
    """Every criterion once, in this interpreter."""
    from prodquot.acceptance import run_all

    return [dataclasses.asdict(r) for r in run_all(quiet=True)]


def run_child() -> list[dict]:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def summarize(runs: list[list[dict]]) -> list[dict]:
    """Per criterion, in order: median, fastest and slowest seconds, limit."""
    out = []
    for results in zip(*runs):
        seconds = [r["seconds"] for r in results]
        median = statistics.median(seconds)
        limit = results[0]["limit_seconds"]
        out.append(
            {
                "number": results[0]["number"],
                "name": results[0]["name"],
                "median_s": round(median, 3),
                "min_s": round(min(seconds), 3),
                "max_s": round(max(seconds), 3),
                "limit_s": limit,
                "limit_share": round(median / limit, 3) if limit else None,
                "passed_runs": sum(r["passed"] for r in results),
            }
        )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=3, help="fresh-interpreter runs")
    parser.add_argument("--json", action="store_true", help="emit the results as JSON")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        print(json.dumps(run_once()))
        return 0

    runs = [run_child() for _ in range(args.runs)]
    criteria = summarize(runs)
    ok = all(c["passed_runs"] == args.runs for c in criteria)
    doc = {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "runs": args.runs,
        "criteria": criteria,
        "all_passed": ok,
    }
    if args.json:
        print(json.dumps(doc, indent=1))
        return 0 if ok else 1

    print(f"python {doc['python']}, {doc['git_sha']}, {args.runs} runs")
    print(
        f"{'criterion':34}{'median_s':>10}{'min_s':>8}{'max_s':>8}"
        f"{'limit_s':>9}{'share':>7}{'passed':>8}"
    )
    for c in criteria:
        limit = f"{c['limit_s']:.0f}" if c["limit_s"] else "-"
        share = f"{c['limit_share']:.0%}" if c["limit_s"] else "-"
        label = f"{c['number']} {c['name']}"
        print(
            f"{label:34}{c['median_s']:>10.2f}{c['min_s']:>8.2f}{c['max_s']:>8.2f}"
            f"{limit:>9}{share:>7}{c['passed_runs']:>5}/{args.runs}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
