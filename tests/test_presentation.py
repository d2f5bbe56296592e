"""Tests for finite presentations and Tietze simplification."""

import gc
import hashlib
import itertools
import json
import random
import time
import tracemalloc
from pathlib import Path
from typing import Optional, Sequence

import pytest

import prodquot.product_quotient as product_quotient
from prodquot.cli import bundled_job_names, load_bundled_job, parse_job, render_report, run_job
from prodquot.corpus import build_corpus
from prodquot.coset import todd_coxeter
from prodquot.presentation import (
    Presentation,
    TietzeResult,
    _OVERLAP_MAX_LEN,
    _OVERLAP_MAX_RELATORS,
    _OVERLAP_RULE_MAX,
    _TIETZE_MAX_GENS,
    _Code,
    abelian_invariants,
    direct_product_presentation,
    presentation,
    quotient_presentation,
    tietze_simplify,
    transport_word,
)
from prodquot.rewrite import evaluate_word
from prodquot.words import Word, word_from_letters


def signed_letters(word: Word) -> list[int]:
    """The inverse of ``word_from_letters``: +-(gen+1) per single letter."""
    return [(g + 1) * (1 if e > 0 else -1) for g, e in word.letters for _ in range(abs(e))]


def test_presentation_validation():
    with pytest.raises(ValueError, match="bad generator name"):
        presentation(["a", "2b"])
    with pytest.raises(ValueError, match="duplicate"):
        presentation(["a", "a"])
    with pytest.raises(ValueError, match="unknown generator"):
        Presentation(("a",), (Word(((1, 1),)),))


def test_word_and_text_round_trip():
    p = presentation(["a", "b"], ["a*b*a^-1*b^-1"])
    w = p.word("a^2*b^-3")
    assert p.text(w) == "a^2*b^-3"
    assert p.relator_texts() == ["a*b*a^-1*b^-1"]
    assert p.name_to_id() == {"a": 0, "b": 1}


def test_abelian_invariants_known_presentations():
    free2 = presentation(["a", "b"])
    assert abelian_invariants(free2).free_rank == 2
    assert abelian_invariants(free2).torsion == ()

    cyc5 = presentation(["a"], ["a^5"])
    assert abelian_invariants(cyc5).free_rank == 0
    assert abelian_invariants(cyc5).torsion == (5,)

    # Genus-2 surface group: the single relator is a product of commutators,
    # so it abelianizes away entirely.
    surf = presentation(
        ["a1", "b1", "a2", "b2"],
        ["a1*b1*a1^-1*b1^-1*a2*b2*a2^-1*b2^-1"],
    )
    assert abelian_invariants(surf).free_rank == 4
    assert abelian_invariants(surf).torsion == ()

    z2_free_z3 = presentation(["a", "b"], ["a^2", "b^3"])
    assert abelian_invariants(z2_free_z3).torsion == (6,)
    assert abelian_invariants(z2_free_z3).free_rank == 0

    z_times_z2 = presentation(["a", "b"], ["b^2", "a*b*a^-1*b^-1"])
    assert abelian_invariants(z_times_z2).free_rank == 1
    assert abelian_invariants(z_times_z2).torsion == (2,)


def test_quotient_presentation():
    p = presentation(["a", "b"], ["a^4"])
    q = quotient_presentation(p, [p.word("b^2"), Word()])
    assert q.gens == p.gens
    assert q.relator_texts() == ["a^4", "b^2"]
    assert q == Presentation(p.gens, (p.word("a^4"), p.word("b^2")))
    # only the added words are checked, and each of them is
    for bad in ([Word(((5, 1),))], [p.word("b"), Word(((0, 1), (2, -1)))]):
        with pytest.raises(ValueError, match="unknown generator"):
            quotient_presentation(p, bad)


def test_direct_product_presentation():
    f1 = presentation(["a"], ["a^2"])
    f2 = presentation(["b"], ["b^3"])
    prod = direct_product_presentation([f1, f2])
    assert prod.gens == ("a", "b")
    assert todd_coxeter(prod).index == 6
    inv = abelian_invariants(prod)
    assert (inv.free_rank, inv.torsion) == (0, (6,))
    # Clashing generator names get factor prefixes.
    clash = direct_product_presentation([f1, presentation(["a"], ["a^3"])])
    assert clash.gens == ("f0_a", "f1_a")
    assert todd_coxeter(clash).index == 6
    # Two free factors: only the cross commutators appear.
    free_prod = direct_product_presentation(
        [presentation(["x"]), presentation(["y"])]
    )
    assert free_prod.relator_texts() == ["x*y*x^-1*y^-1"]
    assert direct_product_presentation([]).ngens == 0
    assert direct_product_presentation([f1]) is f1


def _finite_order(p: Presentation) -> int:
    return todd_coxeter(p, (), max_cosets=5000).index


def test_tietze_preserves_finite_group_order():
    for entry in build_corpus():
        if entry.group.order > 60:
            continue
        res = tietze_simplify(entry.presentation)
        assert _finite_order(res.presentation) == entry.group.order, entry.name
        assert abelian_invariants(res.presentation) == abelian_invariants(
            entry.presentation
        ), entry.name


def test_tietze_transport_maps_old_generators_correctly():
    for entry in build_corpus():
        if entry.group.order > 120:
            continue
        p, g = entry.presentation, entry.group
        res = tietze_simplify(p)
        # Surviving generators keep their names, so their images are looked
        # up from the original assignment by name.
        old_by_name = dict(zip(p.gens, entry.gen_images))
        new_values = [old_by_name[name] for name in res.presentation.gens]
        assert len(res.old_to_new) == p.ngens
        for i, word in enumerate(res.old_to_new):
            assert evaluate_word(word, new_values, g) == entry.gen_images[i], (
                entry.name,
                p.gens[i],
            )


def test_tietze_eliminates_redundant_generator():
    # The relator c^-1*a*b makes one generator redundant, so the simplified
    # presentation needs only two of the three while presenting the same
    # group of order nine.
    p = presentation(["a", "b", "c"], ["c^-1*a*b", "a^3", "b^3", "a*b*a^-1*b^-1"])
    res = tietze_simplify(p)
    assert res.presentation.ngens == 2
    assert _finite_order(res.presentation) == 9
    assert res.steps_used > 0


def test_tietze_is_deterministic():
    p = presentation(
        ["a", "b", "c"],
        ["a*b*c", "b*c*a", "a^4", "b^6", "c^-2*a*b*a^-1*b^-1"],
    )
    first = tietze_simplify(p)
    second = tietze_simplify(p)
    assert first.presentation == second.presentation
    assert first.old_to_new == second.old_to_new
    assert first.steps_used == second.steps_used


def test_tietze_respects_budget():
    p = presentation(["a", "b"], ["a^2", "b^2", "a*b*a*b"])
    res = tietze_simplify(p, budget=10000)
    assert res.steps_used <= 10000
    tiny = tietze_simplify(p, budget=1)
    assert tiny.steps_used <= 1
    assert _finite_order(tiny.presentation) == 4


def test_transport_word():
    target = presentation(["x", "y"])
    mapping = (target.word("x*y"), target.word("y^-1"))
    # Generator 0 followed by generator 1 squared: x*y * y^-2 reduces to x*y^-1.
    out = transport_word(Word(((0, 1), (1, 2))), mapping)
    assert out == target.word("x*y^-1")
    assert transport_word(Word(), mapping).is_identity()
    identity_map = (target.word("x"), target.word("y"))
    untouched = Word(((0, 2), (1, -1)))
    assert transport_word(untouched, identity_map) == untouched


@pytest.mark.parametrize("ngens,width", [(3, 1), (200, 2), (40000, 4)])
def test_tietze_code_round_trips_and_preserves_order(ngens, width):
    # ``width``: bytes per character of the widest code, 2 * ngens; 40000
    # generators also run through the surrogate range
    rng = random.Random(ngens)
    code = _Code(ngens)
    words = [
        word_from_letters(
            [rng.choice((1, -1)) * rng.randint(1, ngens) for _ in range(rng.randint(0, 12))]
        )
        for _ in range(400)
    ] + [
        Word(((0, 1),)),
        Word(((0, -1),)),
        Word(((ngens - 1, 1),)),
        Word(((ngens - 1, -1),)),
    ]
    texts = [code.encode(w) for w in words]
    assert [code.decode(t) for t in texts] == words
    assert [len(t) for t in texts] == [len(w) for w in words]
    letters = [signed_letters(w) for w in words]
    assert sorted(texts) == [code.encode(word_from_letters(s)) for s in sorted(letters)]
    widest = max(map(ord, "".join(texts)))
    assert widest == 2 * ngens
    assert (1 if widest <= 0xFF else 2 if widest <= 0xFFFF else 4) == width
    assert [code.inverse(t) for t in texts] == [code.encode(w.inverse()) for w in words]


def test_tietze_rejects_too_many_generators_up_front():
    assert chr(2 * _TIETZE_MAX_GENS) and _TIETZE_MAX_GENS == 557055
    with pytest.raises(ValueError):
        chr(2 * (_TIETZE_MAX_GENS + 1))
    p = Presentation(tuple(f"x{i}" for i in range(_TIETZE_MAX_GENS + 1)))
    with pytest.raises(ValueError, match=f"at most {_TIETZE_MAX_GENS} generators"):
        tietze_simplify(p)


# ---------------------------------------------------------------------------
# The overlap phase against its rescanning form.  The reference below is
# tietze_simplify as it was before the miss memo and the str.find scan: after
# every hit it scans all (rule, target, variant, position) quadruples again
# from the start, comparing slices letter by letter.  It keeps relators as
# lists of signed letters +-(gen+1), through helpers of its own.


def _reduce_letters(letters: list[int]) -> list[int]:
    out: list[int] = []
    for c in letters:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return out


def _cyclic_reduce(letters: list[int]) -> list[int]:
    w = _reduce_letters(letters)
    while len(w) > 1 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


def _inv_letters(letters: Sequence[int]) -> list[int]:
    return [-c for c in reversed(letters)]


def _least_rotation(s: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically least rotation (Booth's algorithm, O(n))."""
    n = len(s)
    doubled = list(s) + list(s)
    f = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = doubled[j]
        i = f[j - k - 1]
        while i != -1 and sj != doubled[k + i + 1]:
            if sj < doubled[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != doubled[k + i + 1]:
            if sj < doubled[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return tuple(doubled[k : k + n])


def _canonical_cyclic(letters: Sequence[int]) -> tuple[int, ...]:
    if not letters:
        return ()
    return min(_least_rotation(letters), _least_rotation(_inv_letters(letters)))


def _substitute(letters: list[int], gen: int, image: list[int]) -> list[int]:
    """Replace letter +-(gen+1) by image / its inverse, then reduce."""
    out: list[int] = []
    target = gen + 1
    inv_image = _inv_letters(image)
    for c in letters:
        if c == target:
            out.extend(image)
        elif c == -target:
            out.extend(inv_image)
        else:
            out.append(c)
    return _reduce_letters(out)


def _reference_tietze(
    p: Presentation, budget: int = 10000, trace: Optional[list] = None
) -> TietzeResult:
    """``trace``, if given, gets one entry per step: the length of the
    defining relator of an elimination, None for an overlap substitution."""
    work = [_cyclic_reduce(signed_letters(r)) for r in p.relators]
    work = [w for w in work if w]
    names = list(p.gens)
    old_to_new = [[g + 1] for g in range(p.ngens)]
    steps = 0
    alive = [True] * p.ngens
    keys = [_canonical_cyclic(w) for w in work]

    def once_gen(letters: list[int]) -> Optional[int]:
        counts: dict[int, int] = {}
        for c in letters:
            a = abs(c) - 1
            counts[a] = counts.get(a, 0) + 1
        return min((g for g, k in counts.items() if k == 1), default=None)

    gsets = [{abs(c) - 1 for c in w} for w in work]
    onces = [once_gen(w) for w in work]

    def dedup() -> None:
        seen: set[tuple[int, ...]] = set()
        kept = []
        for i, key in enumerate(keys):
            if key and key not in seen:
                seen.add(key)
                kept.append(i)
        work[:] = [work[i] for i in kept]
        keys[:] = [keys[i] for i in kept]
        gsets[:] = [gsets[i] for i in kept]
        onces[:] = [onces[i] for i in kept]

    def refresh(i: int) -> None:
        keys[i] = _canonical_cyclic(work[i])
        gsets[i] = {abs(c) - 1 for c in work[i]}
        onces[i] = once_gen(work[i])

    dedup()
    changed = True
    while changed and steps < budget:
        changed = False
        best = None
        for ri, g in enumerate(onces):
            if g is not None:
                rank = (len(work[ri]), ri, g)
                if best is None or rank < best:
                    best = rank
        if best is not None:
            _, ri, gen = best
            rel = work[ri]
            pos = next(i for i, c in enumerate(rel) if abs(c) - 1 == gen)
            rest = rel[pos + 1 :] + rel[:pos]
            image = _inv_letters(rest) if rel[pos] > 0 else list(rest)
            if trace is not None:
                trace.append(len(rel))
            del work[ri], keys[ri], gsets[ri], onces[ri]
            for i in range(len(work)):
                if gen in gsets[i]:
                    work[i] = _cyclic_reduce(_substitute(work[i], gen, image))
                    refresh(i)
            target = gen + 1
            for i, w in enumerate(old_to_new):
                if any(c == target or c == -target for c in w):
                    old_to_new[i] = _substitute(w, gen, image)
            alive[gen] = False
            steps += 1
            changed = True
            dedup()
            continue
        if len(work) <= _OVERLAP_MAX_RELATORS:
            hit = False
            for i, rule in enumerate(work):
                ell = len(rule)
                if ell < 2 or ell > _OVERLAP_RULE_MAX:
                    continue
                half = ell // 2 + 1
                variants = []
                doubled = rule + rule
                inv = _inv_letters(rule)
                inv_doubled = inv + inv
                for s in range(ell):
                    variants.append(doubled[s : s + ell])
                    variants.append(inv_doubled[s : s + ell])
                for j, target_rel in enumerate(work):
                    if j == i or len(target_rel) > _OVERLAP_MAX_LEN or len(target_rel) < half:
                        continue
                    for var in variants:
                        head, tail = var[:half], var[half:]
                        for s in range(len(target_rel) - half + 1):
                            if target_rel[s : s + half] == head:
                                newrel = target_rel[:s] + _inv_letters(tail) + target_rel[s + half :]
                                newrel = _cyclic_reduce(newrel)
                                if len(newrel) < len(target_rel):
                                    if newrel:
                                        work[j] = newrel
                                        refresh(j)
                                    else:
                                        del work[j], keys[j], gsets[j], onces[j]
                                    steps += 1
                                    if trace is not None:
                                        trace.append(None)
                                    hit = True
                                    break
                        if hit:
                            break
                    if hit:
                        break
                if hit:
                    break
            if hit:
                dedup()
                changed = True
                continue

    rank = [0] * p.ngens
    kept_names = []
    for g, keep in enumerate(alive):
        rank[g] = len(kept_names)
        if keep:
            kept_names.append(names[g])

    def compact(letters: list[int]) -> list[int]:
        return [(rank[abs(c) - 1] + 1) * (1 if c > 0 else -1) for c in letters]

    work = [compact(w) for w in work]
    old_to_new = [compact(w) for w in old_to_new]
    work.sort(key=lambda w: (len(w), w))
    out = Presentation(tuple(kept_names), tuple(word_from_letters(w) for w in work))
    mapping = tuple(word_from_letters(w) for w in old_to_new)
    return TietzeResult(out, mapping, steps)


def _overlap_hits(p: Presentation, res: TietzeResult) -> int:
    """Steps that were overlap substitutions: each elimination drops a generator."""
    return res.steps_used - (p.ngens - res.presentation.ngens)


def _tietze_inputs(job) -> list[tuple[Presentation, int]]:
    """Every (presentation, budget) that build_pi1 simplifies for one job,
    the raw pi1 presentation last."""
    calls = []

    def record(p, budget=10000):
        calls.append((p, budget))
        return tietze_simplify(p, budget)

    original = product_quotient.tietze_simplify
    product_quotient.tietze_simplify = record
    try:
        res = product_quotient.build_pi1(
            job.actions, job.budgets.max_cosets, job.budgets.tietze_steps
        )
    finally:
        product_quotient.tietze_simplify = original
    assert calls[-1][0] == res.raw_presentation
    return calls


@pytest.mark.parametrize("name", bundled_job_names())
def test_overlap_phase_matches_rescanning_reference_on_bundled_jobs(name):
    for p, budget in _tietze_inputs(load_bundled_job(name)):
        assert tietze_simplify(p, budget) == _reference_tietze(p, budget)


def _random_presentation(rng: random.Random) -> Presentation:
    """Relators that are products of a few shared pieces, so that halves of
    short relators recur inside longer ones and the overlap phase hits."""
    ngens = rng.randint(2, 4)
    pieces = [
        [rng.choice((1, -1)) * rng.randint(1, ngens) for _ in range(rng.randint(2, 5))]
        for _ in range(rng.randint(2, 4))
    ]
    relators = []
    for _ in range(rng.randint(3, 8)):
        letters = []
        for _ in range(rng.randint(1, 4)):
            piece = rng.choice(pieces)
            letters += piece if rng.random() < 0.5 else _inv_letters(piece)
        relators.append(word_from_letters(letters))
    return Presentation(tuple(f"x{i}" for i in range(ngens)), tuple(relators))


def test_overlap_phase_matches_rescanning_reference_on_random_presentations():
    hit_cases = 0
    for seed in range(150):
        rng = random.Random(seed)
        p = _random_presentation(rng)
        budget = rng.choice((10000, rng.randint(1, 6)))
        res = tietze_simplify(p, budget)
        assert res == _reference_tietze(p, budget), seed
        hit_cases += _overlap_hits(p, res) > 0
    assert hit_cases >= 30


def _short_presentation(rng: random.Random) -> Presentation:
    """Mostly relators of length 1 and 2, a few longer ones, and repeats of
    short relators as themselves, their inverses and their rotations."""
    ngens = rng.randint(2, 7)
    relators = []
    for _ in range(rng.randint(2, 10)):
        n = rng.choice((1, 2, 2, 2, 3, 4, 6))
        letters = [rng.choice((1, -1)) * rng.randint(1, ngens) for _ in range(n)]
        relators.append(word_from_letters(letters))
        if n <= 2 and rng.random() < 0.4:
            copy = rng.choice((letters, _inv_letters(letters), letters[1:] + letters[:1]))
            relators.insert(rng.randint(0, len(relators)), word_from_letters(copy))
    return Presentation(tuple(f"x{i}" for i in range(ngens)), tuple(relators))


def test_short_eliminations_match_reference_on_random_presentations():
    cut_short = 0
    for seed in range(400):
        rng = random.Random(seed)
        p = _short_presentation(rng)
        trace: list[Optional[int]] = []
        _reference_tietze(p, 10000, trace)
        # the eliminations by relators of length 1 and 2 that come first
        short_steps = len(list(itertools.takewhile(lambda n: n is not None and n <= 2, trace)))
        for budget in (*range(9), 10000):
            assert tietze_simplify(p, budget) == _reference_tietze(p, budget), (seed, budget)
            cut_short += 0 < budget < short_steps
    assert cut_short >= 300


def test_short_eliminations_substitute_step_by_step():
    # x2 = x3^-1 comes first (position 1), then x0 = x3 (position 2).  Step by
    # step, the first substitution makes the long relator
    # x3^-1*x0*x1*x3^-1*x1^-1*x3 and its cyclic reduction drops the ends;
    # composing both substitutions and reducing once would give the rotation
    # x1*x3^-1*x1^-1*x3 instead.
    p = presentation(
        ["x0", "x1", "x2", "x3"], ["x3^-1*x0*x1*x3^-1*x1^-1*x2^-1", "x3*x2", "x3*x0^-1"]
    )
    res = tietze_simplify(p)
    assert res == _reference_tietze(p)
    assert res.presentation.relator_texts() == ["x3*x1*x3^-1*x1^-1"]
    assert [res.presentation.text(w) for w in res.old_to_new] == ["x3", "x1", "x3^-1", "x3"]


@pytest.mark.parametrize(
    "relators",
    [
        # x2 = x3 makes the second relator a copy of the first, and the first
        # then defines the elimination of x0
        ["x0*x1^2*x3^2", "x0*x1^2*x2^2", "x2*x3^-1", "x1^5", "x0*x3*x0^-1*x3^-2"],
        # ... a copy of a later relator
        ["x0*x1^2*x2^2", "x2*x3^-1", "x0*x1^2*x3^2", "x1^5", "x1*x3*x1^-1*x3^-2"],
        # ... a rotation of an earlier relator, and the inverse of a later one
        ["x1^2*x3^2*x0^2", "x0^2*x1^2*x2^2", "x2*x3^-1", "x3^-2*x1^-2*x0^-2", "x1*x0^3"],
    ],
    ids=["earlier", "later", "rotation"],
)
def test_a_substitution_that_makes_a_copy_matches_reference_at_every_budget(relators):
    p = presentation(["x0", "x1", "x2", "x3"], relators)
    full = _reference_tietze(p)
    for budget in range(full.steps_used + 2):
        assert tietze_simplify(p, budget) == _reference_tietze(p, budget), budget


def _classify_job(name, group, vectors):
    """A classify-pool document: two (1; 2,2) actions of the same group."""
    return {
        "schema": "prodquot-job/1",
        "name": name,
        "group": {"degree": len(group[0]), "generators": group},
        "actions": [
            {
                "projection": "identity",
                "signature": {"genus": 1, "periods": [2, 2]},
                "vector": {"a": [a], "b": [b], "c": list(c)},
            }
            for a, b, c in vectors
        ],
        "outputs": ["enumerate", "freeness", "pi1", "abelianization"],
    }


D4 = [[1, 2, 3, 0], [0, 3, 2, 1]]
Z2XZ4 = [[1, 0, 2, 3, 4, 5], [0, 1, 3, 4, 5, 2]]

# Free (1; 2,2)^2 pairs from the classify pool (pipebench/frozen/classify_pool.json).
D4_FREE_4 = _classify_job(
    "classify-D4-(1;2,2)x(1;2,2)-free-4",
    D4,
    [("g0*g1", "g1", ("g0^2*g1", "g1")), ("g0^2*g1", "g0^2", ("g1*g0", "g1*g0"))],
)
Z2XZ4_FREE_4 = _classify_job(
    "classify-Z2xZ4-(1;2,2)x(1;2,2)-free-4",
    Z2XZ4,
    [("g0*g1^2", "g1^3", ("g0*g1^2", "g0*g1^2")), ("g1^3", "g1^3", ("g0", "g0"))],
)
# pi1 presentation: 57 generators and 176 relators, simplified in 327 steps;
# the rescanning overlap phase took about 25 s on it.
D4_FREE_1 = _classify_job(
    "classify-D4-(1;2,2)x(1;2,2)-free-1",
    D4,
    [("1", "g0*g1", ("g1", "g1")), ("g0^3", "g1*g0", ("g1*g0", "g0*g1"))],
)
# sha256 of its run report, computed with the rescanning overlap phase
D4_FREE_1_DIGEST = "3a02c6fde834d237f5e0d195c400eba36e239d4930c55a7157194163b3dbaabd"


@pytest.mark.parametrize("doc", [D4_FREE_4, Z2XZ4_FREE_4], ids=lambda d: d["name"])
def test_overlap_phase_matches_rescanning_reference_on_classify_candidates(doc):
    for p, budget in _tietze_inputs(parse_job(json.dumps(doc))):
        res = tietze_simplify(p, budget)
        assert res == _reference_tietze(p, budget)
        # these two stop at the size gate, never reaching an overlap hit
        assert len(res.presentation.relators) > _OVERLAP_MAX_RELATORS


def test_overlap_phase_matches_rescanning_reference_on_a_cut_runaway():
    # D4 #1's pi1 presentation cut at 60 steps: 52 eliminations, 8 overlap hits
    (p, _), = _tietze_inputs(parse_job(json.dumps(D4_FREE_1)))
    res = tietze_simplify(p, 60)
    assert res == _reference_tietze(p, 60)
    assert _overlap_hits(p, res) == 8


def test_runaway_classify_candidate_report_is_unchanged_and_fast():
    start = time.perf_counter()
    text = render_report(run_job(parse_job(json.dumps(D4_FREE_1))))
    elapsed = time.perf_counter() - start
    assert hashlib.sha256(text.encode()).hexdigest() == D4_FREE_1_DIGEST
    assert elapsed < 10.0


# The twelve free (1; 2,2)^2 pairs of the classify pool, the inputs of
# benchmarks/bench_tietze.py: each raw pi1 presentation has 57 generators and
# 176 relators, and most of its simplification is overlap substitutions.
POOL_FILE = Path(__file__).resolve().parent.parent / "pipebench" / "frozen" / "classify_pool.json"
POOL_STRATA = ("D4 (1;2,2)x(1;2,2) free", "Z2xZ4 (1;2,2)x(1;2,2) free")


def _pool_pairs() -> dict[str, str]:
    """Job name -> document text, in pool order."""
    pool = json.loads(POOL_FILE.read_text(encoding="utf-8"))
    return {
        json.loads(text)["name"]: text
        for stratum in pool if stratum["stratum"] in POOL_STRATA
        for text in stratum["docs"]
    }


def _result_digest(res: TietzeResult) -> str:
    """sha256 of a result's generators, relators, generator images and steps."""
    p = res.presentation
    images = [p.text(w) for w in res.old_to_new]
    text = json.dumps([p.gens, p.relator_texts(), images, res.steps_used])
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of each pair's TietzeResult (_result_digest), frozen while the
# overlap scan still searched every head of every pair with str.find; the
# rescanning reference above takes about 25 s on D4 #1 alone, so these
# inputs are checked against frozen results instead
POOL_RESULT_DIGESTS = {
    "classify-D4-(1;2,2)x(1;2,2)-free-0": "5dbce3d5bbf567f0965557ba8b8219b72688fe9236ac014531f555e97f7cff16",
    "classify-D4-(1;2,2)x(1;2,2)-free-1": "b194082b6ae30f5d5dc5f3ff085f54f9eb8bd59e98e3e79417dcc38f0a8b84ea",
    "classify-D4-(1;2,2)x(1;2,2)-free-2": "6d9a2f87bf34791633087b04b7ce081a1f966fd88e3939e81c654cc37c056b2c",
    "classify-D4-(1;2,2)x(1;2,2)-free-3": "538ced5dbcfd8b5e9a42cafd74287f4f9361a5cdd9d259f93be7d61c7cf37c11",
    "classify-D4-(1;2,2)x(1;2,2)-free-4": "f1a6a230f63247a6b66f0b61b919dd292c6157f1193cee91183c199076a9e7a2",
    "classify-D4-(1;2,2)x(1;2,2)-free-5": "f0286db41e40f32526e1a7ad44c6745338eb3d29ae7c097dda3dbe4896a3401b",
    "classify-Z2xZ4-(1;2,2)x(1;2,2)-free-0": "cad8e79d9a484260e4405fb971f84c41b3832bf5bc7b053d9073c415edfbb8a4",
    "classify-Z2xZ4-(1;2,2)x(1;2,2)-free-1": "19ab2209a1814eb2dcc8041e41225a15e945292c4b4e2ac39783420eb04d22ab",
    "classify-Z2xZ4-(1;2,2)x(1;2,2)-free-2": "af43899b11fcde6be26da049fb7868682ce63e2291eab1f860ae42f6113e1d9b",
    "classify-Z2xZ4-(1;2,2)x(1;2,2)-free-3": "35c76f7493e3ddcdae66042361d17ed30a4ce5066e16dddf68cb13c0d597ff87",
    "classify-Z2xZ4-(1;2,2)x(1;2,2)-free-4": "df036715b5e89f86b0277d440757a0653663bcd14fe09c36df7873b71982c590",
    "classify-Z2xZ4-(1;2,2)x(1;2,2)-free-5": "84bcce93c010a6902d032c90d2c23d6a64285df4924805f11ba55f70d5c0fc8c",
}


@pytest.mark.parametrize("name", sorted(POOL_RESULT_DIGESTS))
def test_overlap_phase_keeps_frozen_results_on_pool_pairs(name):
    (p, budget), = _tietze_inputs(parse_job(_pool_pairs()[name]))
    assert _result_digest(tietze_simplify(p, budget)) == POOL_RESULT_DIGESTS[name]


def test_overlap_scan_memory_stays_bounded():
    # Z/2 x Z/4 #0: 230 steps, most of them overlap substitutions.  The scan
    # peaks near 0.3 MB here; caching each target's windows per head length
    # as sets reads about 0.9 MB here and took D4 #3 from 0.6 to 5.4 MB.
    doc = _pool_pairs()["classify-Z2xZ4-(1;2,2)x(1;2,2)-free-0"]
    (p, budget), = _tietze_inputs(parse_job(doc))
    gc.collect()
    tracemalloc.start()
    try:
        tietze_simplify(p, budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6
