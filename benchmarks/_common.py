"""The A/B harness shared by the benchmark scripts in this directory.

Each script runs as ``python benchmarks/bench_x.py``, which puts this
directory first on ``sys.path``, so ``import _common as bench`` resolves.

A script that compares packages measures in children: fresh interpreters
running the script itself with ``--child`` and ``PYTHONPATH`` set to one
side's ``src``.  With ``--base SRC`` the side "before" (the package under
SRC) and the side "after" (this checkout) run in alternating pairs, the base
first in even pairs and second in odd ones; an A/A run is ``--base`` this
checkout's own ``src``.  Inside a child, ``best_of`` keeps the fastest of R
timed repeats.  Whatever measures -- each child, or a script that times in
process -- samples pipebench's host-speed probe over its own run
(``HostSpeed``: one probe at each end and one every 0.2 s of CPU time in
between) and records the mean as "host_factor" (1 on pipebench's reference
host, higher on a slower one).  It is context only; raw times decide.
``summarize`` gives each side's median, quartiles and IQR, the ratio of the
medians and the pairs the change won.

``traffic`` is the committed traffic that ``bench_layers.py`` times and
``bench_reach.py`` probes.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# A child imports its side's package through PYTHONPATH; everything else
# (a parent, a script that times in process) imports this checkout's.
if importlib.util.find_spec("prodquot") is None:
    sys.path.append(SRC)
sys.path.append(os.path.join(ROOT, "pipebench"))

import gen  # noqa: E402  (pipebench/gen.py)
from child import HostSpeed  # noqa: E402  (pipebench/child.py)

WORKLOADS = ("bundled", "classify", "beauville")
SEEDS = (1, 9001)


def _edited(doc: dict, **fields) -> dict:
    """``doc`` with the given top-level fields of its job text replaced."""
    return {**doc, "text": json.dumps({**json.loads(doc["text"]), **fields}, indent=2)}


def traffic() -> dict[str, list[dict]]:
    """Group name -> job documents ({"name", "text"}), 267 in all: pipebench's
    workloads at seeds 1 and 9001 as ``gen.documents()`` draws them ("bundled:1"
    ... "beauville:9001", 20, 101 and 2 per seed); the 20 bundled jobs, by
    name, with every output ("jobs", read from the imported package); and
    Beauville's reference job with verify alone at ``verify_index_bound`` 25,
    where the search reports the index-25 canonical candidate FOUND
    ("beauville:bound25")."""
    import prodquot
    from prodquot.cli import ALL_OUTPUTS

    src = os.path.dirname(os.path.dirname(os.path.abspath(prodquot.__file__)))
    groups = {f"{w}:{s}": gen.documents(w, s, src) for w in WORKLOADS for s in SEEDS}
    bundled = sorted(groups["bundled:1"], key=lambda doc: doc["name"])
    groups["jobs"] = [_edited(doc, outputs=list(ALL_OUTPUTS)) for doc in bundled]
    reference = groups["beauville:1"][0]
    groups["beauville:bound25"] = [
        _edited(reference, outputs=["verify"], budgets={"verify_index_bound": 25})
    ]
    return groups


def git_sha() -> str:
    """HEAD of the checkout, suffixed "-dirty" when src/ or benchmarks/ has
    local changes."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "src", "benchmarks"],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
    except OSError:
        return "unknown"
    if head.returncode:
        return "unknown"
    return head.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def sampled(fn, *args) -> tuple:
    """``fn(*args)`` and the host factor over its run: the mean of the
    ``HostSpeed`` samples taken from just before the call to just after it.
    The probe timer and the previous SIGPROF handler are restored after."""
    handler = signal.getsignal(signal.SIGPROF)
    speed = HostSpeed()
    try:
        speed.mark()
        result = fn(*args)
        speed.mark()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, handler)
    return result, round(speed.factor(0, len(speed.samples) - 1), 3)


def run_child(script: str, src: str, argv: list[str], timeout: float | None = None) -> dict | None:
    """Run ``script --child *argv`` in a fresh interpreter importing the
    package under ``src`` and return the JSON object it prints, which
    carries the child's own "host_factor".  A child still running after
    ``timeout`` seconds is stopped and counts as unfinished: None."""
    try:
        out = subprocess.run(
            [sys.executable, script, "--child", *argv],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None
    return json.loads(out.stdout)


def srcs(base: str | None) -> dict[str, str]:
    """Side -> src: "before", the package under ``base`` when given, then
    "after", this checkout."""
    return {"before": base, "after": SRC} if base else {"after": SRC}


def alternate(runs: int, sides: dict, measure) -> dict[str, list]:
    """``runs`` results of ``measure(side, value)`` for each side -> value of
    ``sides``, in pairs: the first side (the base) first in even pairs and
    second in odd ones.  A side that returned None (unfinished) is not
    measured again."""
    out: dict[str, list] = {side: [] for side in sides}
    order = list(sides.items())
    for k in range(runs):
        for side, value in order if k % 2 == 0 else order[::-1]:
            if None not in out[side]:
                out[side].append(measure(side, value))
    return out


def best_of(repeats: int, fn) -> tuple[float, list]:
    """The fastest of ``repeats`` timed calls of ``fn()``, and every call's
    result in order."""
    seconds, results = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        results.append(fn())
        seconds.append(time.perf_counter() - start)
    return min(seconds), results


def _spread(values: list[float], digits: int) -> dict:
    out = {"median": round(statistics.median(values), digits), "quartiles": None, "iqr": None}
    if len(values) > 1:
        quartiles = statistics.quantiles(values, n=4)
        out["quartiles"] = [round(q, digits) for q in quartiles]
        out["iqr"] = round(quartiles[2] - quartiles[0], digits)
    return out


def summarize(after: list[float], before: list[float] | None = None, digits: int = 4) -> dict:
    """Median, quartiles and IQR of each side's values (lower is better);
    with a base, also "speedup", the base's median over this checkout's,
    "pair_speedup", the median over the pairs of the base's value over this
    checkout's (the two runs of a pair are adjacent, so host drift between
    pairs cancels), and "pairs_won" of "pairs": pairs whose value is lower
    on this checkout (a tie counts for neither side)."""
    out = {"after": _spread(after, digits)}
    if before:
        out["before"] = _spread(before, digits)
        out["speedup"] = round(statistics.median(before) / statistics.median(after), 2)
        out["pair_speedup"] = round(statistics.median(b / a for a, b in zip(after, before)), 2)
        out["pairs"] = min(len(after), len(before))
        out["pairs_won"] = sum(a < b for a, b in zip(after, before))
    return out


def options(description: str, runs: int = 0, repeats: int = 0, base: bool = False):
    """The shared options: --json always; --runs and --repeats when given a
    default; --base and the children's hidden --child for an A/B script."""
    parser = argparse.ArgumentParser(description=description)
    if runs:
        parser.add_argument(
            "--runs", type=int, default=runs, help="timed runs (with --base, per side, in pairs)"
        )
    if repeats:
        parser.add_argument(
            "--repeats", type=int, default=repeats, help="timed repeats per run; the fastest counts"
        )
    if base:
        parser.add_argument(
            "--base", help="src directory of the package to compare against (an A/A run: ./src)"
        )
        parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--json", action="store_true", help="emit the results as JSON")
    return parser


def _header(args) -> dict:
    doc = {"python": platform.python_version(), "git_sha": git_sha()}
    for key in ("runs", "repeats"):
        if key in vars(args):
            doc[key] = vars(args)[key]
    return doc


def main(parser, parent, table, child=None, argv=None) -> int:
    """Run a benchmark script.  A child prints ``child(args)`` as JSON, with
    the host factor over that call.  Otherwise ``parent(args)`` returns
    (results, ok); the record is the Python version, the git SHA, --runs and
    --repeats and the results, and for a script without children, which
    measures in process, the host factor over ``parent(args)``.  It is
    printed as JSON with --json, else by ``table(record, ok)``; the exit
    code is 1 unless ok."""
    args = parser.parse_args(argv)
    if getattr(args, "child", False):
        record, factor = sampled(child, args)
        print(json.dumps({**record, "host_factor": factor}))
        return 0
    if child is None:
        (results, ok), factor = sampled(parent, args)
        results["host_factor"] = factor
    else:
        results, ok = parent(args)
    doc = {**_header(args), **results}
    if args.json:
        print(json.dumps(doc, indent=1))
    else:
        table(doc, ok)
    return 0 if ok else 1
