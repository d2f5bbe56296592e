#!/usr/bin/env python3
"""Benchmark Tietze simplification on the classify pool's (1; 2,2)^2 free pairs.

The jobs are the twelve free D4 and Z/2 x Z/4 pairs of signature (1; 2,2)^2
in pipebench/frozen/classify_pool.json (read, never written).  Each raw pi1
presentation has 57 generators and 176 relators, and most of a run goes to
the overlap phase of ``tietze_simplify``.  Each measurement is one job in a
fresh interpreter: ``parse_job`` -> ``run_job`` -> ``render_report``, the
work of ``prodquot run``.  A repeat runs the job back to back until it spans
SPAN_S seconds and takes the time per call, so a 10 ms job is timed over
about 20 calls and a 0.3 s job over one; the measurement is the fastest of
--repeats repeats, since a job timed once per interpreter moved by 10-20%
between identical runs on a shared host.  For each job and side, one more
interpreter runs the job once under ``tracemalloc`` and records its peak of
traced memory; tracing slows the run many times over, so a traced run past
TRACE_LIMIT seconds is stopped and its peak left unmeasured (null).  A run
exits 1 when the sha256 of any report differs from its frozen digest, so a
speed change cannot change an answer (every repeat's report is checked).

With --base SRC the harness (_common.py) runs pairs against the package
under SRC and reports per-job medians of the runs' fastest repeats.  A base
run past BASE_LIMIT seconds is stopped and counted as unfinished; the job is
then timed on this checkout only.

Usage:
  python3 benchmarks/bench_tietze.py [--runs N] [--repeats R] [--base SRC] [--json]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys

import _common as bench

POOL_FILE = os.path.join(bench.ROOT, "pipebench", "frozen", "classify_pool.json")
STRATA = ("D4 (1;2,2)x(1;2,2) free", "Z2xZ4 (1;2,2)x(1;2,2) free")
BASE_LIMIT = 60.0  # seconds before a base run is stopped
TRACE_LIMIT = 300.0  # seconds before a traced run is stopped
SPAN_S = 0.2  # seconds of back-to-back calls in one repeat

# job name -> sha256 of its run report (render_report text, UTF-8), computed
# with the overlap phase that rescans after every hit
REPORT_DIGESTS = {
    "classify-D4-(1;2,2)x(1;2,2)-free-0": "4380c05ba989e1d3b3945041cdfa0504673fa652449427d5245e90c43618b19e",
    "classify-D4-(1;2,2)x(1;2,2)-free-1": "3a02c6fde834d237f5e0d195c400eba36e239d4930c55a7157194163b3dbaabd",
    "classify-D4-(1;2,2)x(1;2,2)-free-2": "b78c84b19169c15982ea30787fc38d6ac82edd4069de0d5ba0c8e2a2502010a2",
    "classify-D4-(1;2,2)x(1;2,2)-free-3": "0d9b0fc777cdbac0488da3ad37780f90fc392f76bd7b859432d44c5d54f9e7b3",
    "classify-D4-(1;2,2)x(1;2,2)-free-4": "4d4e8de29e501e3471f4b4f097836056cfee76d6bb43e504bc84498d8d38d54f",
    "classify-D4-(1;2,2)x(1;2,2)-free-5": "b7acdf6471dcac30a17442d78a60079f096cde090e4875c88c330b2402ec3416",
    "classify-Z2xZ4-(1;2,2)x(1;2,2)-free-0": "987acba5f335b2021209e4d61c8aecf2caca3e01fd7644204cbff56035d0e269",
    "classify-Z2xZ4-(1;2,2)x(1;2,2)-free-1": "84a6d42c744bd2883685d6861eb23a64d0e3e4b6a0887a705c205c351d1d9c85",
    "classify-Z2xZ4-(1;2,2)x(1;2,2)-free-2": "c9492a610ad9884fd15b6c9f60dad9505fedd8fdab36eb47f6f5a3d602c9b30c",
    "classify-Z2xZ4-(1;2,2)x(1;2,2)-free-3": "fa9bfb3bacea79e1f02cef1cc38d4eb54fface7d61fe66f15317d4b41c4e3bf6",
    "classify-Z2xZ4-(1;2,2)x(1;2,2)-free-4": "32226fe6db0ebf731b031c09b5a46e6f59826be5a42cd98a41df117084003ee4",
    "classify-Z2xZ4-(1;2,2)x(1;2,2)-free-5": "29a5858d91e1262b31df50c5fa9fdb6a8adc1f73d143875f04d4bf74f942b650",
}


def load_jobs() -> dict[str, str]:
    """Job name -> document text, in pool order."""
    with open(POOL_FILE, encoding="utf-8") as fh:
        pool = json.load(fh)
    jobs = {}
    for stratum in pool:
        if stratum["stratum"] in STRATA:
            for text in stratum["docs"]:
                jobs[json.loads(text)["name"]] = text
    return jobs


def child(args) -> dict:
    """One job in this interpreter: "s", the seconds per call of the fastest
    of --repeats repeats, "calls", that repeat's number of calls, and
    "digest", None when the calls' reports differ; or with --trace,
    "peak_mb" of one run under tracemalloc.  The collector runs before
    tracing, so the traced peak does not depend on how much garbage the
    imports left behind."""
    import gc
    import signal
    import time
    import tracemalloc

    from prodquot.cli import parse_job, render_report, run_job

    text = load_jobs()[args.job]

    def run() -> str:
        return render_report(run_job(parse_job(text)))

    if args.trace:
        signal.setitimer(signal.ITIMER_PROF, 0)  # host probes allocate; none runs traced
        gc.collect()
        tracemalloc.start()
        run()
        return {"peak_mb": round(tracemalloc.get_traced_memory()[1] / 1e6, 3)}
    digests = set()

    def repeat() -> tuple[float, int]:
        """Seconds per call and calls, over calls spanning SPAN_S seconds;
        the reports are hashed after the clock stops."""
        reports, start = [], time.perf_counter()
        while True:
            reports.append(run())
            elapsed = time.perf_counter() - start
            if elapsed >= SPAN_S:
                break
        digests.update(hashlib.sha256(report.encode()).hexdigest() for report in reports)
        return elapsed / len(reports), len(reports)

    seconds, calls = min(repeat() for _ in range(args.repeats))
    return {
        "s": round(seconds, 5),
        "calls": calls,
        "digest": digests.pop() if len(digests) == 1 else None,
    }


def side_record(name: str, runs: list, src: str) -> dict:
    """One side of a job: its runs, and the traced peak of one more run."""
    if None in runs:
        return {"finished": False}
    traced = bench.run_child(__file__, src, ["--job", name, "--trace"], TRACE_LIMIT)
    return {
        "finished": True,
        "median_s": round(statistics.median(r["s"] for r in runs), 5),
        "runs_s": [r["s"] for r in runs],
        "calls": [r["calls"] for r in runs],
        "peak_mb": traced and traced["peak_mb"],
        "digest_ok": all(r["digest"] == REPORT_DIGESTS[name] for r in runs),
        "digest": runs[0]["digest"],
        "host_factor": [r["host_factor"] for r in runs],
    }


def parent(args) -> tuple[dict, bool]:
    jobs = {}
    for name in load_jobs():
        argv = ["--job", name, "--repeats", str(args.repeats)]
        srcs = bench.srcs(args.base)
        sides = bench.alternate(
            args.runs,
            srcs,
            lambda side, src: bench.run_child(
                __file__, src, argv, BASE_LIMIT if side == "before" else None
            ),
        )
        entry = {key: side_record(name, runs, srcs[key]) for key, runs in sides.items()}
        if entry.get("before", {}).get("finished"):
            summary = bench.summarize(entry["after"]["runs_s"], entry["before"]["runs_s"], 5)
            entry["speedup"] = summary["speedup"]
            entry["summary"] = summary
        jobs[name] = entry
    sides = [entry[k] for entry in jobs.values() for k in ("before", "after") if k in entry]
    return {"jobs": jobs}, all(s["digest_ok"] for s in sides if s["finished"])


def table(doc: dict, ok: bool) -> None:
    def cell(side: dict, key: str) -> str:
        value = side.get(key)
        return "-" if value is None else f"{value:.3f}"

    print(f"{'job':40}{'before_s':>10}{'after_s':>10}{'speedup':>9}{'peak_mb':>16}")
    for name, entry in doc["jobs"].items():
        before, after = entry.get("before", {}), entry["after"]
        peaks = f"{cell(before, 'peak_mb')} -> {cell(after, 'peak_mb')}"
        speedup = f"{entry['speedup']}x" if "speedup" in entry else "-"
        times = f"{cell(before, 'median_s'):>10}{cell(after, 'median_s'):>10}"
        print(f"{name:40}{times}{speedup:>9}{peaks:>16}")
    print(f"report digests {'match' if ok else 'MISMATCH'}")


def main(argv=None) -> int:
    parser = bench.options(__doc__, runs=3, repeats=5, base=True)
    parser.add_argument("--job", help=argparse.SUPPRESS)
    parser.add_argument("--trace", action="store_true", help=argparse.SUPPRESS)
    return bench.main(parser, parent, table, child, argv)


if __name__ == "__main__":
    sys.exit(main())
