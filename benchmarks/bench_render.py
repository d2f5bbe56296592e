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

import json
import os
import sys
import time

import _common as bench  # puts this checkout's src/ on the path

from prodquot.cli import (
    ALL_OUTPUTS,
    _enumerate_doc,
    bundled_job_names,
    load_bundled_job,
    parse_job,
    render_report,
    run_job,
)

POOL_FILE = os.path.join(bench.ROOT, "pipebench", "frozen", "classify_pool.json")


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


def enumerate_all(jobs: list) -> None:
    for job in jobs:
        _enumerate_doc(job.actions)


def parent(args) -> tuple[dict, bool]:
    jobs = pool_jobs()
    sets = {}
    identical = True
    for name, reports in build_reports(jobs).items():
        texts = [json_text(r) for r in reports]
        same = all(render_report(r) == t for r, t in zip(reports, texts))
        identical &= same
        seconds = bench.alternate(
            args.runs,
            {"json": json_text, "render_report": render_report},
            lambda side, render: time_set(render, reports),
        )
        best = {side: min(v) for side, v in seconds.items()}
        sets[name] = {
            "reports": len(reports),
            "mb": round(sum(map(len, texts)) / 1e6, 3),
            "json_s": round(best["json"], 4),
            "render_report_s": round(best["render_report"], 4),
            "speedup": round(best["json"] / best["render_report"], 2),
            "identical": same,
        }
    enumerate_s, _ = bench.best_of(args.runs, lambda: enumerate_all(jobs))
    return {"sets": sets, "classify_pool_enumerate_doc_s": round(enumerate_s, 4)}, identical


def table(doc: dict, ok: bool) -> None:
    print(f"{'set':22}{'reports':>9}{'MB':>8}{'json_s':>10}{'render_s':>10}{'speedup':>9}")
    for name, s in doc["sets"].items():
        print(
            f"{name:22}{s['reports']:>9}{s['mb']:>8.2f}{s['json_s']:>10.4f}"
            f"{s['render_report_s']:>10.4f}{s['speedup']:>8.2f}x"
        )
    print(f"_enumerate_doc over the classify pool: {doc['classify_pool_enumerate_doc_s']:.4f} s")
    print(f"rendered text {'identical to json' if ok else 'DIFFERS from json'}")


def main(argv=None) -> int:
    return bench.main(bench.options(__doc__, runs=7), parent, table, argv=argv)


if __name__ == "__main__":
    sys.exit(main())
