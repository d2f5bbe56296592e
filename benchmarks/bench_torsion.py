#!/usr/bin/env python3
"""Benchmark the torsion stage of build_pi1 on the 20 bundled jobs.

For each job the orbifold group (the preimage of D(G) in the product of the
factors' orbifold groups) is built untimed, then two steps are timed:
``torsion_generators`` (the torsion normal forms and the check of every
coordinate's image) and the torsion words (``torsion_word`` on every
normal form, the rewrite into the orbifold group, with one memo of walks
per job).  Each step is timed --repeats times in one interpreter; a job's
time is the fastest repeat (records made before the shared harness took the
median of the repeats), and the total is the sum over the jobs.  A run exits
1 when the sha256 of any job's raw pi1 presentation (the orbifold group
modulo the torsion words, before Tietze) differs from its frozen digest, so
a speed change cannot change the answer.

With --base SRC the harness (_common.py) runs pairs against the package
under SRC and reports the medians over the runs.  The base's digests are
reported, but only the checkout's decide the exit code.

Usage:
  python3 benchmarks/bench_torsion.py [--runs N] [--repeats R] [--base SRC] [--json]
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys

import _common as bench

# bundled job -> sha256 of its raw pi1 presentation (see presentation_digest),
# computed with the per-element torsion loop that checked and rewrote every
# coordinate of every normal form; the four jobs with a non-injective
# projection were recomputed when pi1 became one fiber product
RAW_DIGESTS = {
    "d4-spherical-pair": "141e7b91150a04eaa5db8a260ee09adc2f83a024054bb5085995fee3f47ad136",
    "free-z2-genus3": "6adc0a0648a8510e6606a73339575403d6884e86ee00a8e6a8eb2b42b312d9b3",
    "klein-faithful-pair": "bbedadff9830a0f12bdf61dc560bb2fcaf3694d9ea2914af25757bbe2590c31b",
    "klein-mixed-projections": "cacc5654f0634675ce69d92bcbefd3d052e58bb6741b424958bdb3a2486653a4",
    "kummer": "95e14ee65dda8333d22b767b635d3882825db6da372db0b3f381e2581dcffd6c",
    "one-factor-s3": "ed0e686de7f7879bc95b8a741e3ee39f00adde7dfba4a737590505a53502d23e",
    "one-factor-z2": "9c60920e13116ecb2e084eed4628bcee74ffb3440dbeef4195ba7e62a0745b51",
    "one-factor-z3-sphere": "55f0352faada65625d462c88be4e59f7e7a24bb9cd9caa3045ad217b2a30ad4b",
    "s3-free-pair": "017e7617dbae6d599bf056d720239db95fa844a6e0b4fbe659a43656d979cc71",
    "s3-pair": "920a0fb473186111e5fe0de2c9bc975df6600f316089c6a421085c7737fc5e14",
    "s3-sign-mixed": "1a92c8ca0b26fcf5ae7491ef1d6589c8865b4a416646c3da826209c13701ac00",
    "trivial-group-surfaces": "d0aad0c1b693ed1dad2644c48c4d2a30909ba05a36da458bf89d1ac63c5bf82e",
    "z2-free-times-kummer": "60a75cdaaf12c70fe55abe3108043c092fb42d3b070281e0a5be51974a06a1f9",
    "z2-pure-kernel-pair": "d0aad0c1b693ed1dad2644c48c4d2a30909ba05a36da458bf89d1ac63c5bf82e",
    "z2-three-kummer": "e63850ed2a07ef043651cf0abc605f92560adc8ed693cce4eb8ec7841c378b35",
    "z2-trivial-plus-kummer": "865d1380fafdddc387a1d9e047f46523bcfc2107d926b9eb81d0795c028272d9",
    "z3-triangle-pair": "197153f4385117d44820ff6ddede6e626a69ef0472a1ee5a61805a9b958da97c",
    "z4-hyperbolic-pair": "d300e4346706386ec8a2a36184f8212421dfa551cefafcc181145679ed37297a",
    "z4-torus-pair": "e5c1704b3b3a0f369de28297cdfd48858b7682a469dcde642af3729c6271ad04",
    "z5-pair": "1e3ba00e75e1e3d974cdf2787f67085befdd0834460db3c8fe2f06e4c749ed2b",
}

STEPS = ("torsion", "words")


def presentation_digest(pres) -> str:
    from prodquot.words import format_word

    text = json.dumps(
        {"gens": list(pres.gens), "relators": [format_word(w, pres.gens) for w in pres.relators]},
        separators=(",", ":"),
    )
    return hashlib.sha256(text.encode()).hexdigest()


def torsion_words(res, torsion) -> list:
    """Every normal form's word, sharing one memo of walks."""
    import prodquot.product_quotient as pq

    walks = {}
    return [pq.torsion_word(res.subgroup, res.offsets, res.actions, te, walks) for te in torsion]


def time_job(name: str, repeats: int) -> dict:
    """Fastest seconds of each step over the repeats, and the raw digest."""
    import prodquot.product_quotient as pq
    from prodquot.cli import load_bundled_job
    from prodquot.presentation import quotient_presentation

    job = load_bundled_job(name)
    res = pq.build_pi1(job.actions, job.budgets.max_cosets, job.budgets.tietze_steps)
    torsion_s, (torsion, *_) = bench.best_of(repeats, lambda: pq.torsion_generators(job.actions))
    words_s, (words, *_) = bench.best_of(repeats, lambda: torsion_words(res, torsion))
    raw = quotient_presentation(res.subgroup.presentation, words)
    return {"torsion": torsion_s, "words": words_s, "digest": presentation_digest(raw)}


def child(args) -> dict:
    """Every bundled job in this interpreter."""
    from prodquot.cli import bundled_job_names

    return {"jobs": {name: time_job(name, args.repeats) for name in bundled_job_names()}}


def side_record(runs: list[dict]) -> dict:
    """Per-job and total medians over the runs, in milliseconds."""
    jobs = [r["jobs"] for r in runs]
    names = list(jobs[0])
    totals = [{step: sum(j[n][step] for n in names) for step in STEPS} for j in jobs]
    for t in totals:
        t["total"] = t["torsion"] + t["words"]
    out = {
        "total_ms": {
            key: round(1000 * statistics.median(t[key] for t in totals), 3)
            for key in (*STEPS, "total")
        },
        "total_runs_ms": [round(1000 * t["total"], 3) for t in totals],
        "jobs_ms": {
            n: {
                step: round(1000 * statistics.median(j[n][step] for j in jobs), 3)
                for step in STEPS
            }
            for n in names
        },
        "digest_ok": all(j[n]["digest"] == RAW_DIGESTS.get(n) for j in jobs for n in names),
        "host_factor": [r["host_factor"] for r in runs],
    }
    bad = sorted({n for j in jobs for n in names if j[n]["digest"] != RAW_DIGESTS.get(n)})
    if bad:
        out["digest_mismatch"] = bad
    return out


def parent(args) -> tuple[dict, bool]:
    sides = bench.alternate(
        args.runs,
        bench.srcs(args.base),
        lambda side, src: bench.run_child(__file__, src, ["--repeats", str(args.repeats)]),
    )
    doc = {key: side_record(runs) for key, runs in sides.items()}
    if "before" in doc:
        summary = bench.summarize(doc["after"]["total_runs_ms"], doc["before"]["total_runs_ms"], 3)
        doc["speedup"] = summary["speedup"]
        doc["summary"] = summary
    return doc, doc["after"]["digest_ok"]


def table(doc: dict, ok: bool) -> None:
    sides = [side for side in ("before", "after") if side in doc]
    print(f"{'job (ms)':28}" + "".join(f"{s + ' ' + step:>20}" for s in sides for step in STEPS))
    for name in doc["after"]["jobs_ms"]:
        cells = [doc[s]["jobs_ms"][name][step] for s in sides for step in STEPS]
        print(f"{name:28}" + "".join(f"{c:>20.3f}" for c in cells))
    cells = [doc[s]["total_ms"][step] for s in sides for step in STEPS]
    print(f"{'total':28}" + "".join(f"{c:>20.3f}" for c in cells))
    if "speedup" in doc:
        print(f"speedup {doc['speedup']}x")
    for side in sides:
        mismatch = doc[side].get("digest_mismatch")
        print(f"{side} raw digests {'MISMATCH ' + ', '.join(mismatch) if mismatch else 'match'}")


def main(argv=None) -> int:
    parser = bench.options(__doc__, runs=3, repeats=5, base=True)
    return bench.main(parser, parent, table, child, argv)


if __name__ == "__main__":
    sys.exit(main())
