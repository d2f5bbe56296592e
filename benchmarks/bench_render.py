#!/usr/bin/env python3
"""Benchmark report rendering: ``render_report`` against ``json.dumps``.

``render_report`` must give the text of ``json.dumps(report, indent=2,
sort_keys=True) + "\\n"``, which, because of ``indent``, runs ``json``'s
pure-Python encoder.  The reports are those of every job in the classify
pool, pipebench/frozen/classify_pool.json (read, never written; run with
the outputs each job names, as ``prodquot run`` does), and of the 20 bundled
jobs with all six outputs and ``timing=True``.  Each report is built once,
untimed.  Each run then renders every report of a set with both functions,
in turns (``json`` first in even runs, second in odd ones), and a set's
time is the fastest of --runs runs.  A run exits 1 when any rendered text
differs from ``json``'s, so a speed change cannot change a report.

It also times ``cli._enumerate_doc``, which builds the ``enumerate``
sections (the generating vectors, most of the classify reports' text), over
the actions of every classify-pool job, parsed once: the fastest of --runs
passes.

Usage:
  python3 benchmarks/bench_render.py [--runs N] [--json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

from _common import ROOT, git_sha

sys.path.insert(0, os.path.join(ROOT, "src"))

from prodquot.cli import (  # noqa: E402
    ALL_OUTPUTS,
    _enumerate_doc,
    bundled_job_names,
    load_bundled_job,
    parse_job,
    render_report,
    run_job,
)

POOL_FILE = os.path.join(ROOT, "pipebench", "frozen", "classify_pool.json")


def json_text(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def pool_jobs() -> list:
    with open(POOL_FILE, encoding="utf-8") as fh:
        pool = json.load(fh)
    return [parse_job(text) for stratum in pool for text in stratum["docs"]]


def build_reports(jobs: list) -> dict[str, list[dict]]:
    """Set name -> its reports, each built once."""
    return {
        "classify-pool": [run_job(job) for job in jobs],
        "bundled-all-outputs": [
            run_job(load_bundled_job(name).with_outputs(ALL_OUTPUTS), timing=True)
            for name in bundled_job_names()
        ],
    }


def time_set(render, reports: list[dict]) -> float:
    start = time.perf_counter()
    for report in reports:
        render(report)
    return time.perf_counter() - start


def time_enumerate(jobs: list) -> float:
    start = time.perf_counter()
    for job in jobs:
        _enumerate_doc(job.actions)
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=7, help="timed runs; a set keeps the fastest")
    parser.add_argument("--json", action="store_true", help="emit the results as JSON")
    args = parser.parse_args()

    jobs = pool_jobs()
    sets = {}
    identical = True
    for name, reports in build_reports(jobs).items():
        texts = [json_text(r) for r in reports]
        same = all(render_report(r) == t for r, t in zip(reports, texts))
        identical &= same
        seconds = {"json": [], "render_report": []}
        for k in range(args.runs):
            order = ("json", "render_report") if k % 2 == 0 else ("render_report", "json")
            for side in order:
                render = json_text if side == "json" else render_report
                seconds[side].append(time_set(render, reports))
        best = {side: min(v) for side, v in seconds.items()}
        sets[name] = {
            "reports": len(reports),
            "mb": round(sum(map(len, texts)) / 1e6, 3),
            "json_s": round(best["json"], 4),
            "render_report_s": round(best["render_report"], 4),
            "speedup": round(best["json"] / best["render_report"], 2),
            "identical": same,
        }
    enumerate_s = min(time_enumerate(jobs) for _ in range(args.runs))
    doc = {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "runs": args.runs,
        "sets": sets,
        "classify_pool_enumerate_doc_s": round(enumerate_s, 4),
    }
    if args.json:
        print(json.dumps(doc, indent=1))
        return 0 if identical else 1

    print(f"{'set':22}{'reports':>9}{'MB':>8}{'json_s':>10}{'render_s':>10}{'speedup':>9}")
    for name, s in sets.items():
        print(
            f"{name:22}{s['reports']:>9}{s['mb']:>8.2f}{s['json_s']:>10.4f}"
            f"{s['render_report_s']:>10.4f}{s['speedup']:>8.2f}x"
        )
    print(f"_enumerate_doc over the classify pool: {enumerate_s:.4f} s")
    print(f"rendered text {'identical to json' if identical else 'DIFFERS from json'}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
