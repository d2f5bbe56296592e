"""Answer gate: group invariants, never report bytes.

A job passes when its report's status is ``ok`` and its invariants agree
with the frozen answers: H1, ``is_free``, the vector counts of
``enumerate``, |pi1| when it is finite, the quotient signatures, and the
t-index when it is exact.  Report layout, notes, presentations and the
verify status may change (a schema bump or an INCONCLUSIVE -> FOUND
certificate passes); a FINITE verdict must carry the frozen |pi1|, and
FOUND is wrong for a finite pi1.

Outside the timed region the gate also recomputes every reported H1 from
the reported pi1 presentation with sympy's Smith normal form, and checks
the coset-table digests of five classical presentations (``CASES``).
"""

from __future__ import annotations

import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
FROZEN = os.path.join(HERE, "frozen")
ANSWER_FILES = {
    "bundled": os.path.join(FROZEN, "bundled_answers.json"),
    "classify": os.path.join(FROZEN, "classify_answers.json"),
}
DIGEST_FILE = os.path.join(FROZEN, "coset_digests.json")

# Beauville's (Z/5)^2 surfaces: every free pair has H1 = (Z/5)^3 and an
# infinite pi1 (the universal cover is a product of two discs).
BEAUVILLE_ANSWER = {"h1": [0, [5, 5, 5]], "is_free": True, "pi1_order": None}

FROZEN_KEYS = ("h1", "is_free", "enumerate", "pi1_order", "quotient_signatures", "t_index")

# The classical presentations of benchmarks/bench_enumeration.py:
# (name, generators, relators, subgroup words, expected index).
CASES = [
    ("triangle-2-3-7-mod-commutator-4", ["a", "b"],
     ["a^2", "b^3", "a*b*a*b*a*b*a*b*a*b*a*b*a*b",
      "a*b*a^-1*b^-1*a*b*a^-1*b^-1*a*b*a^-1*b^-1*a*b*a^-1*b^-1"], [], 168),
    ("fibonacci-2-7", list("abcdefg"),
     ["a*b*c^-1", "b*c*d^-1", "c*d*e^-1", "d*e*f^-1", "e*f*g^-1", "f*g*a^-1", "g*a*b^-1"],
     [], 29),
    ("coxeter-6-6-order-3000", ["a", "b"],
     ["a^6", "b^6", "a*b*a*b", "a^2*b^2*a^2*b^2", "a^3*b^3*a^3*b^3*a^3*b^3*a^3*b^3*a^3*b^3"],
     [], 3000),
    ("coxeter-6-6-index-500", ["a", "b"],
     ["a^6", "b^6", "a*b*a*b", "a^2*b^2*a^2*b^2", "a^3*b^3*a^3*b^3*a^3*b^3*a^3*b^3*a^3*b^3"],
     ["a"], 500),
    ("8-7-with-2-3-order-10752", ["a", "b"],
     ["a^8", "b^7", "a*b*a*b", "a^-1*b*a^-1*b*a^-1*b"], [], 10752),
]
CASE_MAX_COSETS = 2_000_000


def frozen_answer(answers):
    return {k: answers[k] for k in FROZEN_KEYS if k in answers}


def load_frozen(workload):
    if workload == "beauville":
        return None
    with open(ANSWER_FILES[workload], encoding="utf-8") as fh:
        return json.load(fh)


def check_job(workload, name, answers, frozen):
    """Problems with one job's answers (empty list: correct)."""
    if answers.get("status") != "ok":
        return [f"status {answers.get('status')!r}"]
    if workload == "beauville":
        want = BEAUVILLE_ANSWER
    else:
        if name not in frozen:
            return ["no frozen answer"]
        want = frozen[name]
    problems = []
    for key in ("h1", "is_free", "enumerate", "quotient_signatures"):
        if key in want and answers.get(key) != want[key]:
            problems.append(f"{key}: got {answers.get(key)!r}, want {want[key]!r}")
    if "pi1_order" in want:
        finite = want["pi1_order"]
        got = answers.get("pi1_order")
        infinite = finite is None and (want["h1"][0] > 0 or workload == "beauville")
        if finite is not None and got != finite:
            problems.append(f"pi1_order: got {got!r}, want {finite!r}")
        if infinite and got is not None:
            problems.append(f"pi1_order: got {got!r} for an infinite group")
        if answers.get("verify") == "FINITE" and (
            finite is None or answers.get("verify_order") != finite
        ):
            problems.append(f"verify FINITE with order {answers.get('verify_order')!r}")
        if answers.get("verify") == "FOUND" and finite is not None:
            problems.append("verify FOUND for a finite group")
    if want.get("t_index") is not None and answers.get("t_index") not in (None, want["t_index"]):
        problems.append(f"t_index: got {answers['t_index']!r}, want {want['t_index']!r}")
    return problems


# ---------------------------------------------------------------------------
# Independent H1 from the reported presentation.


def _exponent_row(word, index):
    row = [0] * len(index)
    if word.strip() in ("", "1"):
        return row
    for chunk in word.split("*"):
        name, _, exp = chunk.partition("^")
        row[index[name]] += int(exp) if exp else 1
    return row


def sympy_h1(presentation):
    """[free rank, torsion] of the abelianized presentation, via sympy."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    gens = presentation["generators"]
    index = {g: i for i, g in enumerate(gens)}
    rows = [_exponent_row(r, index) for r in presentation["relators"]]
    rows = [r for r in rows if any(r)]
    if not gens:
        return [0, []]
    if not rows:
        return [len(gens), []]
    snf = smith_normal_form(Matrix(rows), domain=ZZ)
    diag = [abs(int(snf[i, i])) for i in range(min(snf.shape))]
    nonzero = [d for d in diag if d]
    return [len(gens) - len(nonzero), sorted(d for d in nonzero if d > 1)]


# ---------------------------------------------------------------------------
# Coset-table digests.


def table_rows(table):
    """Rows of a completed CosetTable as lists of ints, whatever its storage."""
    raw = table.table
    n = table.index
    if hasattr(raw, "tolist"):
        raw = raw.tolist()
    if n and raw and isinstance(raw[0], (list, tuple)):
        return [[int(x) for x in row] for row in raw]
    width = len(raw) // n if n else 0
    return [[int(x) for x in raw[r * width:(r + 1) * width]] for r in range(n)]


def coset_digests():
    """name -> (index, sha256 of the standardized table)."""
    from prodquot.coset import todd_coxeter
    from prodquot.presentation import presentation

    out = {}
    for name, gens, rels, sub, _ in CASES:
        p = presentation(gens, rels)
        table = todd_coxeter(p, [p.word(w) for w in sub], max_cosets=CASE_MAX_COSETS)
        text = json.dumps(table_rows(table), separators=(",", ":"))
        out[name] = [table.index, hashlib.sha256(text.encode()).hexdigest()]
    return out


def check_coset_digests():
    with open(DIGEST_FILE, encoding="utf-8") as fh:
        frozen = json.load(fh)
    got = coset_digests()
    problems = []
    for name, _, _, _, expected in CASES:
        if got[name][0] != expected:
            problems.append(f"{name}: index {got[name][0]}, expected {expected}")
        elif got[name] != frozen[name]:
            problems.append(f"{name}: coset table digest changed")
    return problems
