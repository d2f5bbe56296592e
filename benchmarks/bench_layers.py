#!/usr/bin/env python3
"""Split the committed traffic's time over the pipeline's layers, and check
every report.

The traffic is ``_common.traffic()``, 267 documents in eight groups, each
run the way pipebench's child runs it: ``parse_job`` -> ``run_job`` ->
``render_report``.  Each layer of LAYERS is timed by self time: its names
are rebound, wherever a prodquot module binds them (``FiniteGroup.__init__``
on its class), to wrappers that add their own time, less that of the timed
calls they make, so a pass's layers add up to at most its time.  A name the
package lacks reads 0, so --base can name another version.  A child runs the
traffic --repeats times and keeps each group's fastest pass.  After each
pass, untimed by it, ``json.dumps(report, indent=2, sort_keys=True)`` is
timed on the same reports as a reference.

A run exits 1 unless, in every pass of every child of this checkout, each
group's sha256 over its report texts in order equals REPORT_DIGESTS, every
text equals ``json.dumps``'s, and the sha256 over the raw pi1 presentations
``tietze_simplify`` receives in the "jobs" group equals RAW_DIGESTS.  The
record gives each document's sha256 too, so two records show which report
moved.  With --base SRC the harness (_common.py) alternates pairs with the
package under SRC, and each group's total gets a ``summary``.

Usage:
  python3 benchmarks/bench_layers.py [--runs N] [--repeats R] [--base SRC] [--json]
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time

import _common as bench

import prodquot.cli as cli

# layer -> the definitions it times, keyed as bench_reach.definitions() keys them
LAYERS = {
    "parse": ("cli.parse_job",),
    "closure": ("perm.FiniteGroup.__init__",),
    "coset": ("coset.fiber_product_table", "coset.todd_coxeter"),
    "rs": ("rewrite.reidemeister_schreier",),
    "torsion_forms": ("product_quotient.torsion_generators",),
    "torsion_words": ("product_quotient.torsion_word",),
    "tietze": ("presentation.tietze_simplify",),
    "evaluate": ("rewrite.evaluate_word",),
    "abel_rs": ("rewrite.subgroup_abelian_invariants",),
    "snf": ("abelian.smith_diagonal",),
    "structure": ("product_quotient.structure_from_pi1",),
    "verify": ("product_quotient._verify",),
    "enumerate": ("orbifold._vector_images",),
    "render": ("cli.render_report",),
}

# group -> sha256 over its report texts in order; a change that moves a
# report regenerates these on purpose
REPORT_DIGESTS = {
    "bundled:1": "5a13ef0eb0cc6872a67fb0ba14b06da62f82a720544e7cec439fd1f5e6b9be57",
    "bundled:9001": "4f0e127926b342bf8366f9840fe7f6b94b1cf65306cafb3f7c9a37080c057b23",
    "classify:1": "670180127ea4aeae2ff35cf72a2f67f3336563cc43824e05d08f10092db36433",
    "classify:9001": "6793468ac854a18f9044fec77a4458cdaf3a9c7c7d9606cda9c826439d379a7b",
    "beauville:1": "3d9c67d5b7da24a1038e36d3a6bc122954b43b0ecc2301dcb680ae6f094831f0",
    "beauville:9001": "f960e1503fef4f61b165c47625fad7ff8749ae309f364a8bee1f129772a52946",
    "jobs": "4e9e64c656cccfb54fa5006e38e49cb71a085a32577b8d3d165a8ffd99640df2",
    "beauville:bound25": "f7cdd9f71e8d869b2a97a0b133c86fb6cbe0a6352ea472ea8e0d472663435568",
}
# group -> sha256 over the raw pi1 presentations tietze_simplify receives
RAW_DIGESTS = {"jobs": "83a439861fb7a2c18ac392820a2c869e410ce747fc306243016030e600846a6a"}


class Layers:
    """While entered, each layer's self seconds, and while ``raw`` is a list,
    the presentations ``tietze_simplify`` receives."""

    def __init__(self):
        self.seconds = dict.fromkeys(LAYERS, 0.0)
        self.raw: list | None = None
        self._stack: list[float] = []  # per active timed call, its timed callees' seconds
        self._undo: list[tuple] = []  # (owner, attribute, original)

    def __enter__(self):
        for layer, keys in LAYERS.items():
            for key in keys:
                self._install(layer, key)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)

    def _install(self, layer: str, key: str) -> None:
        module, *path = key.split(".")
        owner = sys.modules.get(f"prodquot.{module}")
        for attr in path[:-1]:
            owner = getattr(owner, attr, None)
        original = getattr(owner, path[-1], None)
        if original is None:
            return
        sites = [(owner, path[-1])] if len(path) > 1 else [
            (mod, attr)
            for name, mod in list(sys.modules.items())
            if mod is not None and name.split(".")[0] == "prodquot"
            for attr, value in vars(mod).items()
            if value is original
        ]
        seconds, stack, capture = self.seconds, self._stack, key == "presentation.tietze_simplify"

        def timed(*args, **kwargs):
            if capture and self.raw is not None:
                self.raw.append(args[0])
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                seconds[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        for owner, attr in sites:
            self._undo.append((owner, attr, original))
            setattr(owner, attr, timed)


def run_pass(docs: list[dict], layers: Layers) -> tuple[float, dict, list, list]:
    """One pass over ``docs``: its seconds, each layer's self seconds in it,
    and the reports and their texts."""
    before = dict(layers.seconds)
    reports, texts = [], []
    start = time.perf_counter()
    for doc in docs:
        reports.append(cli.run_job(cli.parse_job(doc["text"])))
        texts.append(cli.render_report(reports[-1]))
    seconds = time.perf_counter() - start
    return seconds, {k: layers.seconds[k] - before[k] for k in LAYERS}, reports, texts


def sha256(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


def raw_digest(presentations: list) -> str:
    from prodquot.words import format_word

    docs = ({"gens": list(p.gens), "relators": [format_word(w, p.gens) for w in p.relators]}
            for p in presentations)
    return sha256(json.dumps(doc, separators=(",", ":")) + "\n" for doc in docs)


def child(args) -> dict:
    """The traffic --repeats times in this interpreter: per group, the
    fastest pass's seconds and layers, with the time outside every layer as
    "other", the fastest ``json.dumps`` time and the checks any pass failed;
    and each document's sha256."""
    groups = bench.traffic()
    out = {name: {"documents": len(docs), "seconds": float("inf"), "json_s": float("inf"),
                  "failed": set()} for name, docs in groups.items()}
    shas = {}
    with Layers() as layers:
        for _ in range(args.repeats):
            for name, docs in groups.items():
                rec = out[name]
                layers.raw = [] if name in RAW_DIGESTS else None
                seconds, split, reports, texts = run_pass(docs, layers)
                if seconds < rec["seconds"]:
                    split["other"] = seconds - sum(split.values())
                    rec.update(seconds=seconds, layers=split)
                start = time.perf_counter()
                json_texts = [json.dumps(r, indent=2, sort_keys=True) + "\n" for r in reports]
                rec["json_s"] = min(rec["json_s"], time.perf_counter() - start)
                if sha256(texts) != REPORT_DIGESTS.get(name):
                    rec["failed"].add("digest")
                if texts != json_texts:
                    rec["failed"].add("texts")
                if layers.raw is not None and raw_digest(layers.raw) != RAW_DIGESTS[name]:
                    rec["failed"].add("raw")
                shas[name] = [[doc["name"], sha256([text])] for doc, text in zip(docs, texts)]
    for rec in out.values():
        rec["failed"] = sorted(rec["failed"])
    return {"groups": out, "reports": shas}


def side_record(runs: list[dict]) -> dict:
    """Per group, the medians over the runs and the checks any run failed."""
    groups = {}
    for name in runs[0]["groups"]:
        recs = [r["groups"][name] for r in runs]
        splits = [rec["layers"] for rec in recs]
        groups[name] = {
            "documents": recs[0]["documents"],
            "total_s": round(statistics.median(rec["seconds"] for rec in recs), 4),
            "total_runs_s": [round(rec["seconds"], 4) for rec in recs],
            "layers_s": {k: round(statistics.median(s[k] for s in splits), 4) for k in splits[0]},
            "json_s": round(statistics.median(rec["json_s"] for rec in recs), 4),
            "failed": sorted({check for rec in recs for check in rec["failed"]}),
        }
    return {
        "ok": not any(g["failed"] for g in groups.values()),
        "groups": groups,
        "reports": runs[0]["reports"],
        "host_factor": [r["host_factor"] for r in runs],
    }


def parent(args) -> tuple[dict, bool]:
    argv = ["--repeats", str(args.repeats)]
    sides = bench.alternate(
        args.runs, bench.srcs(args.base), lambda side, src: bench.run_child(__file__, src, argv)
    )
    doc = {side: side_record(runs) for side, runs in sides.items()}
    if "before" in doc:
        doc["summary"] = {
            name: bench.summarize(g["total_runs_s"], doc["before"]["groups"][name]["total_runs_s"])
            for name, g in doc["after"]["groups"].items()
        }
    return doc, doc["after"]["ok"]


def table(doc: dict, ok: bool) -> None:
    names = list(doc["after"]["groups"])
    for side in ("before", "after"):
        if side not in doc:
            continue
        groups = doc[side]["groups"].values()
        print(f"{side + ' (ms)':20}" + "".join(f"{n.split(':')[0]:>11}" for n in names))
        print(f"{'':20}" + "".join(f"{n.partition(':')[2]:>11}" for n in names))
        rows = {k: [g["layers_s"][k] for g in groups] for k in (*LAYERS, "other")}
        rows["total"] = [g["total_s"] for g in groups]
        rows["json.dumps"] = [g["json_s"] for g in groups]
        for label, cells in rows.items():
            print(f"{label:20}" + "".join(f"{1000 * c:>11.1f}" for c in cells))
        for name, g in doc[side]["groups"].items():
            if g["failed"]:
                print(f"{side} {name}: FAILED {', '.join(g['failed'])}")
    for key in ("pair_speedup", "pairs_won") if "summary" in doc else ():
        print(f"{key:20}" + "".join(f"{doc['summary'][n][key]:>11}" for n in names))
    print("ok" if ok else "FAILED")


def main(argv=None) -> int:
    parser = bench.options(__doc__, runs=3, repeats=3, base=True)
    return bench.main(parser, parent, table, child, argv)


if __name__ == "__main__":
    sys.exit(main())
