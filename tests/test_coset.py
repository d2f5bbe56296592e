"""Tests for coset enumeration over finite presentations."""

import hashlib
import json

import pytest

from prodquot.corpus import build_corpus
from prodquot.coset import CosetOverflow, fiber_product_table, todd_coxeter
from prodquot.perm import cyclic_group, symmetric_group
from prodquot.presentation import Presentation, presentation
from prodquot.rewrite import evaluate_word
from prodquot.words import Word


def test_cyclic_five_has_five_cosets():
    p = presentation(["a"], ["a^5"])
    t = todd_coxeter(p)
    assert t.index == 5
    # Powers of the generator hit every coset exactly once.
    cosets = {t.trace(0, p.word("a") ** k) for k in range(5)}
    assert cosets == set(range(5))


def test_order_six_presentation():
    p = presentation(["a", "b"], ["a^2", "b^3", "a*b*a*b"])
    t = todd_coxeter(p)
    assert t.index == 6
    # Independent lower bound: the relators hold for a transposition and a
    # 3-cycle, whose images generate all six permutations of three points.
    s3 = symmetric_group(3)
    images = [s3.element_index(s3.generators[0]), s3.element_index(s3.generators[1])]
    for rel in p.relators:
        assert evaluate_word(rel, images, s3) == 0
    assert s3.order == 6


def test_subgroup_of_all_generators_gives_one_coset():
    for p in (
        presentation(["a"], ["a^5"]),
        presentation(["a", "b"], ["a^2", "b^3", "a*b*a*b"]),
        presentation(["x", "y"], ["x^4", "y^4", "x*y*x^-1*y^-1"]),
    ):
        whole = [p.word(name) for name in p.gens]
        assert todd_coxeter(p, whole).index == 1


def test_trivial_subgroup_index_matches_group_order():
    for entry in build_corpus():
        if entry.group.order > 200:
            continue
        t = todd_coxeter(entry.presentation, (), max_cosets=20_000)
        assert t.index == entry.group.order, entry.name


def test_cyclic_subgroup_index_matches_brute_force():
    for entry in build_corpus()[:12]:
        p, g = entry.presentation, entry.group
        if p.ngens == 0 or g.order > 200:
            continue
        t = todd_coxeter(p, [p.word(p.gens[0])], max_cosets=20_000)
        # Brute force: count right cosets H\G of the cyclic subgroup
        # generated by the first generator's image, by direct partition.
        h0 = entry.gen_images[0]
        powers = {0}
        acc = h0
        while acc != 0:
            powers.add(acc)
            acc = g.mul_idx(acc, h0)
        seen: set[int] = set()
        count = 0
        for a in range(g.order):
            if a in seen:
                continue
            count += 1
            seen |= {g.mul_idx(h, a) for h in powers}
        assert t.index == count, entry.name


def test_table_is_closed_and_consistent():
    p = presentation(["a", "b"], ["a^4", "b^4", "a*b*a^-1*b^-1"])
    sub = [p.word("a*b")]
    t = todd_coxeter(p, sub)
    n = len(t.table)
    assert n == t.index
    assert all(len(row) == 2 * p.ngens for row in t.table)
    assert all(0 <= x < n for row in t.table for x in row)
    for g in range(p.ngens):
        for c in range(n):
            fwd = t.table[c][2 * g]
            assert t.table[fwd][2 * g + 1] == c
    for c in range(n):
        for rel in p.relators:
            assert t.trace(c, rel) == c
    for w in sub:
        assert t.trace(0, w) == 0


def test_transversal_reaches_every_coset():
    p = presentation(["a", "b"], ["a^2", "b^3", "a*b*a*b"])
    t = todd_coxeter(p)
    reps = t.transversal()
    assert len(reps) == t.index
    assert reps[0].is_identity()
    assert [t.trace(0, rep) for rep in reps] == list(range(t.index))


def test_overflow_reports_budget():
    free2 = presentation(["a", "b"])
    with pytest.raises(CosetOverflow) as exc:
        todd_coxeter(free2, (), max_cosets=50)
    assert exc.value.max_cosets == 50
    assert exc.value.defined >= 50
    # A finite group still overflows when the budget is below its index.
    small = presentation(["a", "b"], ["a^2", "b^3", "a*b*a*b"])
    with pytest.raises(CosetOverflow):
        todd_coxeter(small, (), max_cosets=2)
    with pytest.raises(ValueError):
        todd_coxeter(small, (), max_cosets=0)


def test_fiber_product_checks_its_budget_and_generators_up_front():
    # <a, b | [a, b]> onto Z/4 x trivial: the diagonal of Z/4 x Z/4, index 4
    p = presentation(["a", "b"], ["a*b*a^-1*b^-1"])
    z4 = cyclic_group(4)
    diagonal = [(q, q) for q in range(4)]
    assert fiber_product_table(p, [z4, z4], diagonal, [[1, 0], ()], max_cosets=4).index == 4

    class Unread:
        """A group of order 4 whose elements must not be read."""

        order = 4

        def cayley_table(self):
            raise AssertionError("a coset was built before the budget check")

    with pytest.raises(CosetOverflow) as exc:
        fiber_product_table(p, [Unread(), Unread()], diagonal, [[1, 0], ()], max_cosets=3)
    assert exc.value.defined == 4
    with pytest.raises(ValueError, match="one image per generator"):
        fiber_product_table(p, [z4, z4], diagonal, [[1], ()], max_cosets=4)
    with pytest.raises(ValueError, match="onto the first factor"):
        fiber_product_table(p, [z4, z4], [(0, 0), (2, 2)], [[1, 0], ()], max_cosets=8)


def test_fiber_product_keys_a_coset_by_its_least_member_over_one():
    # D = {(q, q mod 2)} in Z/4 x Z/2 meets 1 x Z/2 trivially, and its
    # preimage in the free group on a -> (1, 0), b -> (0, 1) is the words
    # of even length: index 8 / 4 = 2, as Todd-Coxeter finds
    p = presentation(["a", "b"])
    z4, z2 = cyclic_group(4), cyclic_group(2)
    d = [(q, q % 2) for q in range(4)]
    got = fiber_product_table(p, [z4, z2], d, [[1], [1]], max_cosets=8)
    want = todd_coxeter(p, [p.word("a^2"), p.word("a*b"), p.word("a*b^-1")])
    assert (got.table, got.tree) == (want.table, want.tree)
    # the same D seen from Z/2 x Z/4 has members over 1 that are not 1, so
    # each key is the least of two
    swapped = [(b, a) for a, b in d]
    got = fiber_product_table(p, [z2, z4], swapped, [[1], [1]], max_cosets=8)
    want = todd_coxeter(p, [p.word("b^2"), p.word("b*a"), p.word("b*a^-1")])
    assert (got.table, got.tree) == (want.table, want.tree)


def test_empty_presentation():
    t = todd_coxeter(Presentation(()))
    assert t.index == 1
    assert t.table == [[]]


_COX_RELATORS = [
    "a^6",
    "b^6",
    "a*b*a*b",
    "a^2*b^2*a^2*b^2",
    "a^3*b^3*a^3*b^3*a^3*b^3*a^3*b^3*a^3*b^3",
]


def test_enumeration_is_deterministic():
    p = presentation(["a", "b"], _COX_RELATORS)
    t1 = todd_coxeter(p, [p.word("a")])
    t2 = todd_coxeter(p, [p.word("a")])
    assert t1.index == 500
    assert t1.table == t2.table
    assert t1.tree == t2.tree


_FIXED_CASES = [
    (["a"], ["a^12"], []),
    (["a", "b"], ["a^2", "b^3", "a*b*a*b"], ["a"]),
    (["a", "b"], ["a^4", "b^4", "a*b*a^-1*b^-1"], ["a*b^2"]),
    (["a", "b"], _COX_RELATORS, ["a"]),
]


# (index, sha256 of the table rows as compact JSON) per _FIXED_CASES entry.
_FROZEN_DIGESTS = [
    (12, "9033c6e64265b034fd076a3f8185df3adc8021e0319203dc7404c477a3467403"),
    (3, "5c18036bffb2c749139def0e545fe61cebd54145682a5125a2de8965c10125d4"),
    (4, "a5fd57078d6d050f9fb7c96415030732dc3b9616702be5fe0529124bcfb6aeeb"),
    (500, "0bb83fae7e9ed7ff64f6534a5681862ccc3a8eb1dd0c766d232a3823ed48bb35"),
]


def test_tables_match_frozen_digests():
    """Standardized tables must stay identical to the frozen reference."""
    got = []
    for gens, rels, sub in _FIXED_CASES:
        p = presentation(gens, rels)
        t = todd_coxeter(p, [p.word(w) for w in sub], max_cosets=50_000)
        text = json.dumps(t.table, separators=(",", ":"))
        got.append((t.index, hashlib.sha256(text.encode()).hexdigest()))
    assert got == _FROZEN_DIGESTS
