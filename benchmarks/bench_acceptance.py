#!/usr/bin/env python3
"""Time the seven acceptance criteria against their limits.

Each run is one fresh interpreter calling ``prodquot.acceptance.run_all`` (the
work of ``prodquot selftest``), so no run reuses another's caches.  For each
criterion the script reports the median of its own measured seconds over the
runs, the fastest and slowest run, its time limit (None for criteria without
one; the limits are read from the package, never set here), the share of the
limit the median uses, and how many runs passed.  It exits 1 when any run of
any criterion fails on this checkout, so a slow host shows up as a failure
here as in the suite.

With --base SRC the harness (_common.py) runs pairs against the package
under SRC; each criterion then also carries the base's readings and the
comparison of its seconds.

Usage:
  python3 benchmarks/bench_acceptance.py [--runs N] [--base SRC] [--json]
"""

from __future__ import annotations

import dataclasses
import statistics
import sys

import _common as bench


def child(args) -> dict:
    """Every criterion once, in this interpreter."""
    from prodquot.acceptance import run_all

    return {"criteria": [dataclasses.asdict(r) for r in run_all(quiet=True)]}


def side_record(runs: list[dict]) -> list[dict]:
    """Per criterion, in order: median, fastest and slowest seconds, limit."""
    out = []
    for results in zip(*(r["criteria"] for r in runs)):
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
                "runs_s": [round(s, 3) for s in seconds],
            }
        )
    return out


def parent(args) -> tuple[dict, bool]:
    sides = bench.alternate(
        args.runs, bench.srcs(args.base), lambda side, src: bench.run_child(__file__, src, [])
    )
    criteria = side_record(sides["after"])
    if "before" in sides:
        for i, (after, before) in enumerate(zip(criteria, side_record(sides["before"]))):
            after["before"] = before
            # from the unrounded seconds: a criterion of under half a
            # millisecond rounds to 0, and the pair ratios divide by it
            after["summary"] = bench.summarize(
                *([r["criteria"][i]["seconds"] for r in sides[key]] for key in ("after", "before")), 3
            )
    ok = all(c["passed_runs"] == args.runs for c in criteria)
    host = {key: [r["host_factor"] for r in runs] for key, runs in sides.items()}
    return {"criteria": criteria, "all_passed": ok, "host_factor_runs": host}, ok


def table(doc: dict, ok: bool) -> None:
    runs = doc["runs"]
    print(f"python {doc['python']}, {doc['git_sha']}, {runs} runs")
    print(
        f"{'criterion':34}{'median_s':>10}{'min_s':>8}{'max_s':>8}"
        f"{'limit_s':>9}{'share':>7}{'passed':>8}{'base_s':>9}"
    )
    for c in doc["criteria"]:
        limit = f"{c['limit_s']:.0f}" if c["limit_s"] else "-"
        share = f"{c['limit_share']:.0%}" if c["limit_s"] else "-"
        base = f"{c['before']['median_s']:.2f}" if "before" in c else "-"
        label = f"{c['number']} {c['name']}"
        print(
            f"{label:34}{c['median_s']:>10.2f}{c['min_s']:>8.2f}{c['max_s']:>8.2f}"
            f"{limit:>9}{share:>7}{c['passed_runs']:>5}/{runs}{base:>9}"
        )


def main(argv=None) -> int:
    return bench.main(bench.options(__doc__, runs=3, base=True), parent, table, child, argv)


if __name__ == "__main__":
    sys.exit(main())
