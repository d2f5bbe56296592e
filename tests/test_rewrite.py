"""Tests for Reidemeister–Schreier rewriting and finite-group evaluation."""

import json
import random
from collections import Counter

import pytest

import prodquot.product_quotient as pq
from prodquot.cli import bundled_job_names, load_bundled_job, parse_job
from prodquot.corpus import build_corpus
from prodquot.coset import fiber_product_table, todd_coxeter
from prodquot.perm import (
    cyclic_group,
    dihedral_group,
    direct_product_group,
    identity_perm,
    symmetric_group,
)
from prodquot.presentation import Presentation, abelian_invariants, presentation, tietze_simplify
from prodquot.product_quotient import build_pi1
from prodquot.rewrite import (
    WordNotInSubgroup,
    _schreier_labels,
    _translated_rows,
    evaluate_word,
    kernel_subgroup_words,
    reidemeister_schreier,
    subgroup_abelian_invariants,
)
from prodquot.words import Word, free_reduce


def test_evaluate_word_basics():
    g = symmetric_group(3)
    flip = g.element_index(g.generators[0])
    cycle = g.element_index(g.generators[1])
    assert evaluate_word(Word(), [flip, cycle], g) == 0
    assert evaluate_word(Word(((0, 1),)), [flip, cycle], g) == flip
    assert evaluate_word(Word(((1, -1),)), [flip, cycle], g) == g.inv_idx(cycle)
    w = Word(((0, 1), (1, 2), (0, -1)))
    expected = g.mul_idx(g.mul_idx(flip, g.mul_idx(cycle, cycle)), g.inv_idx(flip))
    assert evaluate_word(w, [flip, cycle], g) == expected


def test_free_group_index_two_subgroup_is_free_of_rank_three():
    f2 = presentation(["a", "b"])
    # Kernel of F2 -> Z/2 killing b: generated by a^2, b, a*b*a^-1.
    sub_words = [f2.word("a^2"), f2.word("b"), f2.word("a*b*a^-1")]
    t = todd_coxeter(f2, sub_words)
    assert t.index == 2
    sub = reidemeister_schreier(f2, t)
    assert sub.presentation.ngens == 3  # Nielsen–Schreier: 1 + 2*(2-1)
    assert sub.presentation.relators == ()
    inv = abelian_invariants(sub.presentation)
    assert (inv.free_rank, inv.torsion) == (3, ())
    assert subgroup_abelian_invariants(f2, t) == inv
    assert _translated_rows(f2, t) == _reference_rows(f2, t)


def test_rewrite_expand_round_trip_in_free_group():
    f2 = presentation(["a", "b"])
    sub_words = [f2.word("a^2"), f2.word("b"), f2.word("a*b*a^-1")]
    sub = reidemeister_schreier(f2, todd_coxeter(f2, sub_words))
    for text in ("a^2", "b", "a*b*a^-1", "a^2*b^-1*a^2", "a*b^3*a", "b*a^-2*b"):
        w = f2.word(text)
        back = sub.expand(sub.rewrite(w))
        # In a free group, equality of elements is equality of reduced words.
        assert back == w, text


def test_rewrite_rejects_words_outside_the_subgroup():
    f2 = presentation(["a", "b"])
    sub_words = [f2.word("a^2"), f2.word("b"), f2.word("a*b*a^-1")]
    sub = reidemeister_schreier(f2, todd_coxeter(f2, sub_words))
    with pytest.raises(WordNotInSubgroup):
        sub.rewrite(f2.word("a"))
    with pytest.raises(WordNotInSubgroup):
        sub.rewrite(f2.word("a*b"))


def test_rewrite_expand_round_trip_in_finite_group():
    entry = next(e for e in build_corpus() if e.name == "sym4")
    p, g = entry.presentation, entry.group
    kw = kernel_subgroup_words(list(entry.gen_images), g)
    t = todd_coxeter(p, kw, max_cosets=10_000)
    assert t.index == g.order
    sub = reidemeister_schreier(p, t)
    # Every relator evaluates to the identity, so it lies in the kernel
    # subgroup; expanding its rewrite must evaluate to the identity too.
    for rel in p.relators:
        back = sub.expand(sub.rewrite(rel))
        assert evaluate_word(back, list(entry.gen_images), g) == 0


def test_genus_two_surface_double_cover_is_genus_three():
    surf = presentation(
        ["a1", "b1", "a2", "b2"],
        ["a1*b1*a1^-1*b1^-1*a2*b2*a2^-1*b2^-1"],
    )
    z2 = cyclic_group(2)
    kw = kernel_subgroup_words([1, 0, 0, 0], z2)
    t = todd_coxeter(surf, kw)
    assert t.index == 2
    sub = reidemeister_schreier(surf, t)
    simplified = tietze_simplify(sub.presentation).presentation
    inv = abelian_invariants(simplified)
    # An index-2 cover of a genus-2 surface is a genus-3 surface: the
    # abelianization is free of rank 6 with no torsion.
    assert (inv.free_rank, inv.torsion) == (6, ())
    assert subgroup_abelian_invariants(surf, t) == inv
    assert _translated_rows(surf, t) == _reference_rows(surf, t)
    assert simplified.ngens == 6
    assert len(simplified.relators) == 1


def test_rs_rejects_a_table_that_is_not_a_coset_action():
    # a -> 1 in Z/3 does not respect a^2 = 1, so the table read off Z/3 is
    # no coset action of <a | a^2>: the relator's walk does not close
    p = presentation(["a"], ["a^2"])
    table = _kernel_table(p, cyclic_group(3), [1], max_cosets=3)
    with pytest.raises(ValueError, match="walks from coset 0"):
        reidemeister_schreier(p, table)
    with pytest.raises(ValueError, match="walks from coset 0"):
        subgroup_abelian_invariants(p, table)


def test_kernel_subgroup_words_give_kernel_index():
    # Onto map from <a | a^6> to Z/3: the kernel has index 3.
    p6 = presentation(["a"], ["a^6"])
    z3 = cyclic_group(3)
    kw = kernel_subgroup_words([1], z3)
    t = todd_coxeter(p6, kw)
    assert t.index == 3
    assert _translated_rows(p6, t) == _reference_rows(p6, t)

    entry = next(e for e in build_corpus() if e.name == "sym3")
    kw = kernel_subgroup_words(list(entry.gen_images), entry.group)
    assert todd_coxeter(entry.presentation, kw).index == 6

    with pytest.raises(ValueError, match="do not generate"):
        kernel_subgroup_words([0], z3)


def test_translated_rows_with_one_or_no_schreier_generator():
    # the trivial subgroup of <a | a^6> (index 6) and the whole group have
    # one Schreier generator, so one key is gathered per row; a presentation
    # without generators has none, and its rows are empty
    p6 = presentation(["a"], ["a^6"])
    trivial, whole = todd_coxeter(p6, []), todd_coxeter(p6, [p6.word("a")])
    assert trivial.index == 6
    assert _translated_rows(p6, trivial) == _reference_rows(p6, trivial) == ([[1]] * 6, 1)
    assert _translated_rows(p6, whole) == _reference_rows(p6, whole) == ([[6]], 1)
    empty = Presentation((), (Word(),))
    table = todd_coxeter(empty, [])
    assert table.index == 1
    assert _translated_rows(empty, table) == _reference_rows(empty, table) == ([[]], 0)


def test_non_normal_subgroup_invariants_come_from_the_presentation():
    # <a> has index 3 in S3 = <a, b | a^2, b^3, (ab)^2> and is not normal:
    # no coset but 0 translates the table, so there are no translated rows
    s3 = presentation(["a", "b"], ["a^2", "b^3", "a*b*a*b"])
    t = todd_coxeter(s3, [s3.word("a")])
    assert t.index == 3
    assert _translated_rows(s3, t) is None
    inv = subgroup_abelian_invariants(s3, t)
    assert (inv.free_rank, inv.torsion) == (0, (2,))
    assert inv == abelian_invariants(reidemeister_schreier(s3, t).presentation)


@pytest.mark.parametrize(
    "group",
    [
        symmetric_group(4),
        dihedral_group(5),
        direct_product_group(cyclic_group(5), cyclic_group(5)),
    ],
    ids=["S4", "D5", "Z5xZ5"],
)
def test_evaluate_word_matches_permutation_products(group):
    rng = random.Random(f"evaluate-word-{group.order}")
    for _ in range(300):
        values = [rng.randrange(group.order) for _ in range(3)]
        word = free_reduce(
            (rng.randrange(3), rng.choice((-3, -2, -1, 1, 2, 3)))
            for _ in range(rng.randrange(10))
        )
        expected = identity_perm(group.degree)
        for g, e in word.letters:
            p = group.elements[values[g]]
            if e < 0:
                p = p.inverse()
            for _ in range(abs(e)):
                expected = expected * p
        assert group.elements[evaluate_word(word, values, group)] == expected


# ---------------------------------------------------------------------------
# The label-table rewriting against the construction it replaced: Schreier
# generators keyed by (coset, generator) and every relator rewritten as
# rep * relator * rep^-1.


def _reference_rs(ambient, table):
    rows = table.table
    reps = table.transversal()
    gen_of_edge = {}
    expansions = []
    for c in range(table.index):
        for g in range(ambient.ngens):
            word = reps[c] * Word(((g, 1),)) * reps[rows[c][2 * g]].inverse()
            if not word.is_identity():
                gen_of_edge[(c, g)] = len(expansions)
                expansions.append(word)

    def rewrite(word):
        out = []
        c = 0
        for g, s in ((g, 1 if e > 0 else -1) for g, e in word.letters for _ in range(abs(e))):
            if s > 0:
                gen = gen_of_edge.get((c, g))
                c = rows[c][2 * g]
            else:
                c = rows[c][2 * g + 1]
                gen = gen_of_edge.get((c, g))
            if gen is not None:
                out.append((gen, s))
        if c != 0:
            raise WordNotInSubgroup(f"word ends at coset {c}, not 0")
        return free_reduce(out)

    relators = []
    for c in range(table.index):
        for rel in ambient.relators:
            rewritten = rewrite(reps[c] * rel * reps[c].inverse())
            if not rewritten.is_identity():
                relators.append(rewritten)
    return tuple(expansions), tuple(relators), rewrite


def _reference_rows(ambient, table):
    """The abelianized relation rows as they were built before a normal
    subgroup's rows were translated from one walk per relator: every relator
    walked from every coset, each walk's labels counted into a row."""
    labels, edges = _schreier_labels(table)
    rows = []
    for c in range(table.index):
        for cols in ambient.relator_cols:
            letters = []
            d = c
            for col in cols:
                if labels[d][col]:
                    letters.append(labels[d][col])
                d = table.table[d][col]
            assert d == c
            row = [0] * len(edges)
            for label, count in Counter(letters).items():
                if label > 0:
                    row[label - 1] += count
                else:
                    row[-label - 1] -= count
            rows.append(row)
    return rows, len(edges)


def _check_against_reference(ambient, table, seed, normal=False):
    sub = reidemeister_schreier(ambient, table, prefix="z")
    expansions, relators, rewrite = _reference_rs(ambient, table)
    assert sub.expansions == expansions
    assert sub.presentation.gens == tuple(f"z{i}" for i in range(len(expansions)))
    assert sub.presentation.relators == relators
    # the abelianized walk gives the presentation's invariants
    assert subgroup_abelian_invariants(ambient, table) == abelian_invariants(
        sub.presentation
    )
    # row for row, in order: smith_diagonal's pivot path depends on it; a
    # table without translated rows (a non-normal subgroup, such as some
    # orbifold groups) has its invariants checked above
    rows = _translated_rows(ambient, table)
    assert rows is not None or not normal
    if rows is not None:
        assert rows == _reference_rows(ambient, table)
    # rewriting: the conjugated relators, the generators' expansions and
    # seeded products of expansions all lie in the subgroup
    reps = table.transversal()
    words = [
        reps[c] * rel * reps[c].inverse()
        for c in range(table.index)
        for rel in ambient.relators
    ]
    words += list(expansions)
    rng = random.Random(seed)
    for _ in range(20):
        w = Word()
        for _ in range(rng.randrange(1, 6)):
            if expansions:
                w = w * (rng.choice(expansions) ** rng.choice((-2, -1, 1, 2)))
        words.append(w)
    for w in words:
        assert sub.rewrite(w) == rewrite(w)
    # and the walk rejects the ambient generators that leave coset 0
    for g in range(ambient.ngens):
        w = Word(((g, 1),))
        if table.table[0][2 * g] != 0:
            with pytest.raises(WordNotInSubgroup):
                sub.rewrite(w)
            with pytest.raises(WordNotInSubgroup):
                rewrite(w)


def _kernel_table(p, group, values, max_cosets):
    """Coset table of the kernel of p onto group given by values: the
    preimage of the diagonal of group x group, with a generator-free second
    factor."""
    diagonal = [(q, q) for q in range(group.order)]
    return fiber_product_table(p, [group, group], diagonal, [values, ()], max_cosets)


def _canonical_candidate_table(res):
    """Coset table of the paper's canonical candidate: the kernel of
    pi1 -> G / <stabilizers>."""
    quo, values = pq._canonical_candidate(res)
    return _kernel_table(res.presentation, quo, values, res.max_cosets)


@pytest.mark.parametrize("name", bundled_job_names())
def test_rs_matches_conjugate_and_rewrite_on_bundled_tables(name):
    job = load_bundled_job(name)
    res = build_pi1(job.actions, job.budgets.max_cosets, job.budgets.tietze_steps)
    sub = res.subgroup
    _check_against_reference(sub.ambient, sub.table, f"{name}-orbifold")
    _check_against_reference(
        res.presentation, _canonical_candidate_table(res), f"{name}-canonical", normal=True
    )


# Beauville's (Z/5)^2 surface: two commuting 5-cycles acting freely on two
# genus-6 curves of signature (0; 5,5,5).
BEAUVILLE_JOB = {
    "schema": "prodquot-job/1",
    "name": "beauville",
    "group": {
        "degree": 10,
        "generators": [[1, 2, 3, 4, 0, 5, 6, 7, 8, 9], [0, 1, 2, 3, 4, 6, 7, 8, 9, 5]],
    },
    "actions": [
        {
            "projection": "identity",
            "signature": {"genus": 0, "periods": [5, 5, 5]},
            "vector": {"a": [], "b": [], "c": vector},
        }
        for vector in (["g0", "g1", "g0^4*g1^4"], ["g0*g1^2", "g0^3*g1^4", "g0*g1^4"])
    ],
    "outputs": ["verify"],
}


def test_rs_matches_conjugate_and_rewrite_on_beauville_canonical_candidate():
    job = parse_job(json.dumps(BEAUVILLE_JOB))
    res = build_pi1(job.actions)
    # the paper's canonical candidate: kernel of pi1 -> G / <stabilizers>
    quo, values = pq._canonical_candidate(res)
    pres = res.presentation
    table = todd_coxeter(pres, kernel_subgroup_words(values, quo))
    assert table.index == quo.order == 25
    _check_against_reference(pres, table, "beauville-canonical", normal=True)
