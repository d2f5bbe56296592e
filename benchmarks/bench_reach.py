#!/usr/bin/env python3
"""Which definitions in src/ the workloads reach.

Every ``def`` in the package (module-level, method or nested) is keyed by
its module and qualified name, e.g. ``coset.CosetTable.trace`` or
``cli.run_job.<locals>.overflow``.  Each source below runs in process
under a ``sys.setprofile`` hook that records the code objects called from
the package's files; a code object's ``co_qualname`` gives its key.  (Its
``co_firstlineno`` would not: a decorated function's is its decorator's
line, so every property would read as unreached.)  The sources:

  * pipebench's workloads, bundled, classify and beauville, at seeds 1 and
    9001: the documents of ``pipebench/gen.py``'s ``documents()``, each run
    once the way pipebench's child runs them (parse, run, render);
  * the 20 bundled jobs with all six outputs;
  * every CLI subcommand, through ``cli.main``, ``selftest`` included, and
    ``run`` on a job that fails validation (exit 2) and one that overflows
    its coset budget (exit 3).

The record lists, for each definition, the sources that reach it, and each
source's run time.  A definition no source reaches must be named in
UNREACHED_ALLOWED with the reason it is kept; an unreached definition not
named there, an allowed one that is reached, or two definitions sharing one
key (the probe could not tell them apart) make the exit code 1.

A run takes 70-90 s on a 2-vCPU x86_64 host, nine tenths of it ``selftest``,
and needs Python 3.11 or later for ``co_qualname``.  The record's host
factor samples pipebench's probe under the hook too, so it reads the hook's
slowdown as well as the host's speed.

Usage:
  python3 benchmarks/bench_reach.py [--json]
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import time
from pathlib import Path

import _common as bench
import gen  # pipebench/gen.py, on the path through _common

import prodquot
import prodquot.cli as cli

PACKAGE = Path(prodquot.__file__).resolve().parent
WORKLOADS = ("bundled", "classify", "beauville")
SEEDS = (1, 9001)
CLI_JOB = "kummer"

# Definitions kept although no source reaches them, and why.
UNREACHED_ALLOWED = {
    "coset.CosetTable.trace": "test oracle: follows a word through a coset table",
    "rewrite.SubgroupPresentation.expand": "test oracle: a subgroup word back in the parent",
    "cli.emit_job": "public helper: the canonical text of a parsed job",
    "perm.identity_perm": "public helper next to perm_from_cycles",
    "perm.Permutation.__call__": "public helper: the image of one point",
    "perm.Permutation.__mul__": "public helper: the product of two permutations",
    "perm.Permutation.inverse": "public helper: the inverse permutation",
    "perm.Permutation.order": "public helper: the order of one permutation",
    "presentation.Presentation.text": "public helper: one word as job text",
    "presentation.Presentation.relator_texts": "public helper: the relators as job text",
    "words.Word.__len__": "public helper: the length of a word in single letters",
    "words.Word.generators": "public helper: the generators a word uses",
    "product_quotient.curve_group_image_words": (
        "public helper: the images of the curves' fundamental groups in pi1"
    ),
    "product_quotient._abelian_group": (
        "verify catalogue builder for the non-cyclic abelian quotients, which no committed "
        "job's H1 admits"
    ),
}


def _walk(node: ast.AST, prefix: str):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name
            yield from _walk(child, f"{prefix}{child.name}.<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _walk(child, f"{prefix}{child.name}.")
        else:
            yield from _walk(child, prefix)


def definitions() -> list[str]:
    """The key of every ``def`` in the package, in file order, repeats kept."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        out += _walk(tree, f"{path.stem}.")
    return out


def reached(fn) -> set[str]:
    """Keys of the package's definitions that ``fn()`` calls, its output to
    stdout and stderr discarded."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.setprofile(hook)
        try:
            fn()
        finally:
            sys.setprofile(None)
    keys = set()
    for code in codes:
        path = Path(code.co_filename)
        if path.parent == PACKAGE:
            keys.add(f"{path.stem}.{code.co_qualname}")
    return keys


def run_documents(docs) -> None:
    for doc in docs:
        cli.render_report(cli.run_job(cli.parse_job(doc["text"])))


def run_all_outputs(name: str) -> None:
    job = cli.load_bundled_job(name).with_outputs(cli.ALL_OUTPUTS)
    cli.render_report(cli.run_job(job))


def run_command(argv: list[str], expect: int | None = cli.EXIT_OK, stdin: str = "") -> None:
    """``prodquot *argv`` with ``stdin`` as standard input; its exit code
    must be ``expect`` unless that is None."""
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        code = cli.main(argv)
    finally:
        sys.stdin = saved
    if expect is not None and code != expect:
        raise RuntimeError(f"prodquot {' '.join(argv)} exited {code}, not {expect}")


def sources() -> dict:
    """Source name -> a call that runs it."""
    out = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            docs = gen.documents(workload, seed, str(PACKAGE.parent))
            out[f"{workload}:{seed}"] = lambda docs=docs: run_documents(docs)
    for name in cli.bundled_job_names():
        out[f"job:{name}"] = lambda name=name: run_all_outputs(name)
    job = ["--job", CLI_JOB]
    for command in ("run", "pi1", "structure", "verify", "freeness", "enumerate-vectors"):
        out[f"cli:{command}"] = lambda argv=[command, *job]: run_command(argv)
    budgets = ["--max-cosets", "100000", "--tietze-steps", "10000", "--index-bound", "8"]
    out["cli:run --timing with budgets"] = lambda: run_command(
        ["run", *job, "--quiet", "--timing", *budgets]
    )
    out["cli:run, invalid job"] = lambda: run_command(
        ["run", "--job", "-"], cli.EXIT_VALIDATION, '{"schema": "prodquot-job/1"}'
    )
    out["cli:run, coset overflow"] = lambda: run_command(
        ["run", *job, "--max-cosets", "1"], cli.EXIT_OVERFLOW
    )
    out["cli:list-jobs"] = lambda: run_command(["list-jobs"])
    # selftest's time limits are part of its pass condition, and under the
    # hook criterion 5 runs 2-3 times slower, near its 60 s limit
    out["cli:selftest"] = lambda: run_command(["selftest", "--quiet"], None)
    return out


def probe(runs: dict) -> dict:
    """For each definition, the sources in ``runs`` that reach it, and each
    source's seconds."""
    defs = definitions()
    reach: dict[str, list[str]] = {key: [] for key in defs}
    seconds = {}
    for name, fn in runs.items():
        start = time.perf_counter()
        keys = reached(fn)
        seconds[name] = round(time.perf_counter() - start, 2)
        for key in keys & reach.keys():
            reach[key].append(name)
    return {
        "definitions": len(defs),
        "shared_keys": sorted({key for key in defs if defs.count(key) > 1}),
        "reach": reach,
        "seconds": seconds,
    }


def parent(args) -> tuple[dict, bool]:
    start = time.perf_counter()
    doc = probe(sources())
    doc["total_s"] = round(time.perf_counter() - start, 1)
    unreached = [key for key, names in doc["reach"].items() if not names]
    doc["unreached"] = {key: UNREACHED_ALLOWED.get(key) for key in unreached}
    doc["unexpected"] = [key for key in unreached if key not in UNREACHED_ALLOWED]
    doc["allowed_but_reached"] = [key for key in UNREACHED_ALLOWED if doc["reach"].get(key)]
    ok = not (doc["unexpected"] or doc["allowed_but_reached"] or doc["shared_keys"])
    return doc, ok


def table(doc: dict, ok: bool) -> None:
    print(f"{len(doc['reach'])} definitions, {len(doc['unreached'])} unreached, "
          f"{len(doc['seconds'])} sources in {doc['total_s']} s")
    for key, reason in doc["unreached"].items():
        print(f"  {key}: {reason or 'NOT ALLOWED'}")
    for label in ("allowed_but_reached", "shared_keys"):
        for key in doc[label]:
            print(f"  {label}: {key}")
    print("ok" if ok else "FAILED")


def main(argv=None) -> int:
    return bench.main(bench.options(__doc__), parent, table, argv=argv)


if __name__ == "__main__":
    sys.exit(main())
