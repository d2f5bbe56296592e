#!/usr/bin/env python3
"""Benchmark the verify search on Beauville's (Z/5)^2 surface.

The job is the p_g = q = 0 reference pair: G = two commuting 5-cycles on 10
points acting on two genus-6 curves with signature (0; 5,5,5), vectors
(g0, g1, g0^-1*g1^-1) and (g0*g1^2, g0^3*g1^4, g0*g1^4).  pi1 is built once,
untimed; each run times ``verify_from_pi1`` at --index-bound (default 8, the
program's default; at 25 the canonical candidate of index 25 is tried) and
splits its time over five layers (evaluate_word, Reidemeister-Schreier
presentations, the abelianized Reidemeister-Schreier rows of
subgroup_abelian_invariants, SNF, and the kernel coset tables:
fiber_product_table, plus todd_coxeter for a package that still enumerates
them) by rebinding those names in every loaded prodquot module; a name the
package lacks adds nothing.  Each layer counts its own time only, less the
time of the layers it calls (subgroup_abelian_invariants calls SNF), so the
layers add up to at most verify_s.  A run exits 1 when the sha256 of the
verification report differs from the frozen digest for its bound, so a speed
change cannot change the answer.

With --base SRC the harness (_common.py) runs pairs against the package
under SRC and reports the medians.

Usage:
  python3 benchmarks/bench_verify.py [--runs N] [--base SRC] [--index-bound B] [--json]
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
import sys
import time

import _common as bench

JOB = {
    "schema": "prodquot-job/1",
    "name": "beauville-reference",
    "group": {
        "degree": 10,
        "generators": [[1, 2, 3, 4, 0, 5, 6, 7, 8, 9], [0, 1, 2, 3, 4, 6, 7, 8, 9, 5]],
    },
    "actions": [
        {
            "projection": "identity",
            "signature": {"genus": 0, "periods": [5, 5, 5]},
            "vector": {"a": [], "b": [], "c": ["g0", "g1", "g0^4*g1^4"]},
        },
        {
            "projection": "identity",
            "signature": {"genus": 0, "periods": [5, 5, 5]},
            "vector": {"a": [], "b": [], "c": ["g0*g1^2", "g0^3*g1^4", "g0*g1^4"]},
        },
    ],
    "outputs": ["verify"],
}

# sha256 of the verification report as sorted compact JSON (see report_digest)
REPORT_DIGEST = "b5c0b61ac7d2a25a7766209216904be4fdc38f50b3c950b7f7b96711233074c4"
# index bound -> frozen digest; at 25 the report is FOUND at index 25, rank 24
REPORT_DIGESTS = {
    8: REPORT_DIGEST,
    25: "47c1123e9e21a58202a637d2c4089570e6d8317b7d1285f85fb188c95708fc1c",
}

# layer -> (module, function names)
LAYERS = {
    "evaluate_s": ("prodquot.rewrite", ("evaluate_word",)),
    "rs_s": ("prodquot.rewrite", ("reidemeister_schreier",)),
    "abel_rs_s": ("prodquot.rewrite", ("subgroup_abelian_invariants",)),
    "snf_s": ("prodquot.abelian", ("smith_diagonal",)),
    "coset_s": ("prodquot.coset", ("fiber_product_table", "todd_coxeter")),
}


def report_digest(report) -> str:
    text = json.dumps(dataclasses.asdict(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def install_timers(seconds: dict[str, float]) -> None:
    """Rebind each layer's functions, wherever a prodquot module names them,
    to wrappers adding their own wall time to seconds[layer]."""
    import importlib

    # per active timed call, the seconds spent in timed calls it made
    stack: list[float] = []
    for layer, (module, names) in LAYERS.items():
        for name in names:
            original = getattr(importlib.import_module(module), name, None)
            _rebind(original, layer, seconds, stack)


def _rebind(original, layer: str, seconds: dict[str, float], stack: list[float]) -> None:
    if original is None:
        return

    def timed(*args, **kwargs):
        stack.append(0.0)
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            seconds[layer] += elapsed - stack.pop()
            if stack:
                stack[-1] += elapsed

    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and mod_name.split(".")[0] == "prodquot":
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, timed)


def child(args) -> dict:
    """One timed verify_from_pi1 in this interpreter."""
    from prodquot.cli import parse_job
    from prodquot.product_quotient import build_pi1, verify_from_pi1

    job = parse_job(json.dumps(JOB))
    res = build_pi1(job.actions, job.budgets.max_cosets, job.budgets.tietze_steps)
    seconds = dict.fromkeys(LAYERS, 0.0)
    install_timers(seconds)
    start = time.perf_counter()
    report = verify_from_pi1(res, args.index_bound)
    total = time.perf_counter() - start
    digest = report_digest(report)
    return {
        "verify_s": round(total, 4),
        **{k: round(v, 4) for k, v in seconds.items()},
        "status": report.status,
        "digest": digest,
        "digest_ok": digest == REPORT_DIGESTS[args.index_bound],
    }


def side_record(runs: list[dict]) -> dict:
    spread = bench.summarize([r["verify_s"] for r in runs])["after"]
    return {
        **{k: round(statistics.median(r[k] for r in runs), 4) for k in ("verify_s", *LAYERS)},
        "verify_runs_s": [r["verify_s"] for r in runs],
        "verify_quartiles_s": spread["quartiles"],
        "digest_ok": all(r["digest_ok"] for r in runs),
        "host_factor": [r["host_factor"] for r in runs],
    }


def parent(args) -> tuple[dict, bool]:
    argv = ["--index-bound", str(args.index_bound)]
    sides = bench.alternate(
        args.runs, bench.srcs(args.base), lambda side, src: bench.run_child(__file__, src, argv)
    )
    doc = {"index_bound": args.index_bound}
    doc.update((key, side_record(runs)) for key, runs in sides.items())
    if "before" in doc:
        summary = bench.summarize(doc["after"]["verify_runs_s"], doc["before"]["verify_runs_s"])
        doc["speedup"] = summary["speedup"]
        doc["summary"] = summary
    return doc, doc["after"]["digest_ok"]


def table(doc: dict, ok: bool) -> None:
    cols = ["verify_s", *LAYERS]
    print(f"{'':8}" + "".join(f"{c:>12}" for c in cols))
    for side in ("before", "after"):
        if side in doc:
            print(f"{side:8}" + "".join(f"{doc[side][c]:>12.3f}" for c in cols))
    if "speedup" in doc:
        print(f"speedup {doc['speedup']}x")
    print(f"report digest {'match' if ok else 'MISMATCH'}")


def main(argv=None) -> int:
    parser = bench.options(__doc__, runs=3, base=True)
    parser.add_argument(
        "--index-bound",
        type=int,
        default=8,
        choices=sorted(REPORT_DIGESTS),
        help="verify_from_pi1's index bound (a bound with a frozen report digest)",
    )
    return bench.main(parser, parent, table, child, argv)


if __name__ == "__main__":
    sys.exit(main())
