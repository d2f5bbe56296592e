#!/usr/bin/env python3
"""Benchmark the coset-enumeration kernel on classical presentations.

Times each case (best of --repeats) and checks its index and the sha256 of its
standardized table against frozen values.  Exits 1 on any mismatch.

Usage:  python3 benchmarks/bench_enumeration.py [--repeats N] [--json]
"""

from __future__ import annotations

import hashlib
import json
import sys

import _common as bench  # puts this checkout's src/ on the path

from prodquot.coset import todd_coxeter
from prodquot.presentation import presentation

_COX_RELATORS = [
    "a^6",
    "b^6",
    "a*b*a*b",
    "a^2*b^2*a^2*b^2",
    "a^3*b^3*a^3*b^3*a^3*b^3*a^3*b^3*a^3*b^3",
]

# (name, generators, relators, subgroup words, expected index,
#  sha256 of the table rows as compact JSON)
CASES = [
    (
        "triangle-2-3-7-mod-commutator-4",
        ["a", "b"],
        [
            "a^2",
            "b^3",
            "a*b*a*b*a*b*a*b*a*b*a*b*a*b",
            "a*b*a^-1*b^-1*a*b*a^-1*b^-1*a*b*a^-1*b^-1*a*b*a^-1*b^-1",
        ],
        [],
        168,
        "700cdd329a7dfdb274083ed2941c8f979573b836c5070b32f6b45a5ab0c0e8ae",
    ),
    (
        "fibonacci-2-7",
        list("abcdefg"),
        [
            "a*b*c^-1",
            "b*c*d^-1",
            "c*d*e^-1",
            "d*e*f^-1",
            "e*f*g^-1",
            "f*g*a^-1",
            "g*a*b^-1",
        ],
        [],
        29,
        "e169ea6d926da4e8f39e12a892c755cf0be87a20067532a86dcf366a71d72a31",
    ),
    (
        "coxeter-6-6-order-3000",
        ["a", "b"],
        _COX_RELATORS,
        [],
        3000,
        "73ca6105cc38978c14f841e9c220aaba725f086086fe2a9caa9084d567fe3ea0",
    ),
    (
        "coxeter-6-6-index-500",
        ["a", "b"],
        _COX_RELATORS,
        ["a"],
        500,
        "0bb83fae7e9ed7ff64f6534a5681862ccc3a8eb1dd0c766d232a3823ed48bb35",
    ),
    (
        "8-7-with-2-3-order-10752",
        ["a", "b"],
        ["a^8", "b^7", "a*b*a*b", "a^-1*b*a^-1*b*a^-1*b"],
        [],
        10752,
        "eeff6ba40469da692023fb1e917d70fe2b616a666c5f21d057960041c684f0cd",
    ),
]

MAX_COSETS = 2_000_000


def parent(args) -> tuple[dict, bool]:
    results = []
    for name, gens, rels, sub, expected, digest in CASES:
        p = presentation(gens, rels)
        sub_words = [p.word(w) for w in sub]
        seconds, tables = bench.best_of(
            args.repeats, lambda: todd_coxeter(p, sub_words, max_cosets=MAX_COSETS)
        )
        last = tables[-1]
        text = json.dumps(last.table, separators=(",", ":"))
        results.append(
            {
                "name": name,
                "index": last.index,
                "seconds": seconds,
                "ok": last.index == expected
                and hashlib.sha256(text.encode()).hexdigest() == digest,
            }
        )
    return {"results": results}, all(r["ok"] for r in results)


def table(doc: dict, ok: bool) -> None:
    results = doc["results"]
    width = max(len(r["name"]) for r in results)
    print(f"{'case':<{width}}  {'index':>6}  {'seconds':>8}  table")
    for r in results:
        print(
            f"{r['name']:<{width}}  {r['index']:>6}  {r['seconds']:>7.3f}s  "
            f"{'match' if r['ok'] else 'MISMATCH'}"
        )


def main(argv=None) -> int:
    return bench.main(bench.options(__doc__, repeats=3), parent, table, argv=argv)


if __name__ == "__main__":
    sys.exit(main())
