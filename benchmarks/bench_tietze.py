#!/usr/bin/env python3
"""Benchmark Tietze simplification on the classify pool's (1; 2,2)^2 free pairs.

The jobs are the twelve free D4 and Z/2 x Z/4 pairs of signature (1; 2,2)^2
in pipebench/frozen/classify_pool.json (read, never written).  Each raw pi1
presentation has 57 generators and 176 relators, and most of a run goes to
the overlap phase of ``tietze_simplify``.  Each measurement is one job in a
fresh interpreter: ``parse_job`` -> ``run_job`` -> ``render_report``, the
work of ``prodquot run``, timed --repeats times; the measurement is the
fastest repeat, since a job timed once per interpreter moved by 10-20%
between identical runs on a shared host.  For each job and package, a second
interpreter runs the job once more under ``tracemalloc`` and records its peak
of traced memory; tracing slows the run many times over, so a traced run past
--trace-limit seconds is stopped and its peak left unmeasured (null).  A run
exits 1 when the sha256 of any report differs from its frozen digest, so a
speed change cannot change an answer (every repeat's report is checked).

With --base SRC the script runs pairs: the checkout it lives in and the
package under SRC (say, the src/ of a clone of the parent commit), the base
first in even pairs and second in odd ones, and reports per-job medians of
the runs' fastest repeats.  A base job whose run passes --base-limit seconds
is stopped and counted as unfinished; it is then timed on this checkout
only.

Usage:
  python3 benchmarks/bench_tietze.py [--runs N] [--repeats R] [--base SRC]
                                     [--base-limit S] [--trace-limit S] [--json]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from _common import ROOT, git_sha

POOL_FILE = os.path.join(ROOT, "pipebench", "frozen", "classify_pool.json")
STRATA = ("D4 (1;2,2)x(1;2,2) free", "Z2xZ4 (1;2,2)x(1;2,2) free")

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


class _Limit(BaseException):
    pass


def _alarm(signum, frame):
    raise _Limit()


def run_once(name: str, trace: bool, limit: float, repeats: int) -> dict:
    """One job in this interpreter: the fastest of ``repeats`` runs, or one
    run under tracemalloc with ``trace``; "s" is None once a run passes the
    limit, and "digest" is None when the repeats' reports differ.  The
    collector runs before tracing, so the traced peak does not depend on how
    much garbage the imports left behind."""
    import gc
    import tracemalloc

    from prodquot.cli import parse_job, render_report, run_job

    text = load_jobs()[name]
    signal.signal(signal.SIGALRM, _alarm)
    seconds, digests = [], set()
    for _ in range(1 if trace else repeats):
        if limit:
            signal.setitimer(signal.ITIMER_REAL, limit)
        if trace:
            gc.collect()
            tracemalloc.start()
        start = time.perf_counter()
        try:
            report = render_report(run_job(parse_job(text)))
        except _Limit:
            return {"s": None}
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds.append(time.perf_counter() - start)
        digests.add(hashlib.sha256(report.encode()).hexdigest())
    out = {"s": round(min(seconds), 4), "digest": digests.pop() if len(digests) == 1 else None}
    if trace:
        out["peak_mb"] = round(tracemalloc.get_traced_memory()[1] / 1e6, 3)
        tracemalloc.stop()
    return out


def run_child(src: str, name: str, trace: bool, limit: float, repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, os.path.abspath(__file__), "--child", name, "--limit", str(limit)]
    cmd += ["--repeats", str(repeats)]
    if trace:
        cmd.append("--trace")
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def measure(
    src: str, name: str, runs: list[dict], limit: float, trace_limit: float, repeats: int
) -> None:
    """Append one timed run; the first one of a job also records its traced peak."""
    run = run_child(src, name, False, limit, repeats)
    if not runs and run["s"] is not None:
        run["peak_mb"] = run_child(src, name, True, trace_limit, 1).get("peak_mb")
    runs.append(run)


def summarize(runs: list[dict]) -> dict:
    if runs[0]["s"] is None:
        return {"finished": False}
    return {
        "finished": True,
        "median_s": round(statistics.median(r["s"] for r in runs), 4),
        "runs_s": [r["s"] for r in runs],
        "peak_mb": runs[0]["peak_mb"],
        "digest_ok": all(r["digest"] == runs[0]["digest"] for r in runs),
        "digest": runs[0]["digest"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=3, help="runs per job (pairs with --base)")
    parser.add_argument(
        "--repeats", type=int, default=5, help="timed repeats per run; a run keeps the fastest"
    )
    parser.add_argument("--base", help="src directory of the package to compare against")
    parser.add_argument(
        "--base-limit", type=float, default=60.0, help="seconds before a base job is stopped"
    )
    parser.add_argument(
        "--trace-limit", type=float, default=300.0, help="seconds before a traced run is stopped"
    )
    parser.add_argument("--json", action="store_true", help="emit the results as JSON")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--limit", type=float, default=0.0, help=argparse.SUPPRESS)
    parser.add_argument("--trace", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        print(json.dumps(run_once(args.child, args.trace, args.limit, args.repeats)))
        return 0

    here_src = os.path.join(ROOT, "src")
    jobs = {}
    for name in load_jobs():
        after: list[dict] = []
        before: list[dict] = []
        for k in range(args.runs):
            base_due = args.base and not (before and before[0]["s"] is None)
            if base_due and k % 2 == 0:
                measure(args.base, name, before, args.base_limit, args.trace_limit, args.repeats)
            measure(here_src, name, after, 0, args.trace_limit, args.repeats)
            if base_due and k % 2 == 1:
                measure(args.base, name, before, args.base_limit, args.trace_limit, args.repeats)
        entry = {"after": summarize(after)}
        entry["after"]["digest_ok"] &= entry["after"]["digest"] == REPORT_DIGESTS[name]
        if before:
            entry["before"] = summarize(before)
            if entry["before"]["finished"]:
                entry["before"]["digest_ok"] &= entry["before"]["digest"] == REPORT_DIGESTS[name]
                entry["speedup"] = round(
                    entry["before"]["median_s"] / entry["after"]["median_s"], 2
                )
        jobs[name] = entry
    doc = {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "runs": args.runs,
        "repeats": args.repeats,
        "jobs": jobs,
    }
    sides = [entry[k] for entry in jobs.values() for k in ("before", "after") if k in entry]
    ok = all(side["digest_ok"] for side in sides if side["finished"])
    if args.json:
        print(json.dumps(doc, indent=1))
        return 0 if ok else 1

    def cell(side: dict, key: str) -> str:
        value = side.get(key)
        return "-" if value is None else f"{value:.3f}"

    print(f"{'job':40}{'before_s':>10}{'after_s':>10}{'speedup':>9}{'peak_mb':>16}")
    for name, entry in jobs.items():
        before, after = entry.get("before", {}), entry["after"]
        peaks = f"{cell(before, 'peak_mb')} -> {cell(after, 'peak_mb')}"
        speedup = f"{entry['speedup']}x" if "speedup" in entry else "-"
        times = f"{cell(before, 'median_s'):>10}{cell(after, 'median_s'):>10}"
        print(f"{name:40}{times}{speedup:>9}{peaks:>16}")
    print(f"report digests {'match' if ok else 'MISMATCH'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
