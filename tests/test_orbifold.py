"""Tests for orbifold signatures, generating vectors, and quotient signatures."""

import gc
import itertools
import random
from fractions import Fraction
from typing import Sequence

import pytest

from prodquot.cli import bundled_job_names, load_bundled_job
from prodquot.coset import CosetOverflow, todd_coxeter
from prodquot.orbifold import (
    ENUMERATION_MAX_ORDER,
    GeneratingVector,
    NegativeGenus,
    NonIntegralGenus,
    Signature,
    enumerate_generating_vectors,
    orbifold_presentation,
    orbifold_relators,
    quotient_signature,
    riemann_hurwitz_genus,
    validate_generating_vector,
)
from prodquot.perm import (
    FiniteGroup,
    GroupTooLarge,
    cyclic_group,
    dihedral_group,
    direct_product_group,
    perm_from_cycles,
    symmetric_group,
    trivial_group,
)
from prodquot.presentation import abelian_invariants, quotient_presentation
from prodquot.words import Word


def test_signature_validation_and_sorting():
    assert Signature.of(0, [4, 2, 3]).periods == (2, 3, 4)
    assert Signature.of(2).periods == ()
    with pytest.raises(ValueError, match="negative"):
        Signature(-1, ())
    with pytest.raises(ValueError, match="at least 2"):
        Signature(0, (1,))
    with pytest.raises(ValueError, match="ascending"):
        Signature(0, (3, 2))


def test_orbifold_euler_and_hyperbolicity():
    assert Signature.of(0).orbifold_euler() == 2
    assert Signature.of(1).orbifold_euler() == 0
    assert Signature.of(2).orbifold_euler() == -2
    assert Signature.of(0, [2, 2, 2, 2]).orbifold_euler() == 0
    assert Signature.of(0, [2, 3, 7]).orbifold_euler() == Fraction(-1, 42)
    assert Signature.of(0, [2, 3, 7]).is_hyperbolic()
    assert not Signature.of(0, [2, 2, 2, 2]).is_hyperbolic()
    assert not Signature.of(0, [2, 3, 5]).is_hyperbolic()
    assert Signature.of(2).is_hyperbolic()


def test_orbifold_relators_shape():
    p = orbifold_relators(2, (3, 5))
    assert p.gens == ("a1", "b1", "a2", "b2", "c1", "c2")
    assert p.relator_texts() == [
        "c1^3",
        "c2^5",
        "a1*b1*a1^-1*b1^-1*a2*b2*a2^-1*b2^-1*c1*c2",
    ]
    # Unsorted period order is preserved.
    q = orbifold_relators(0, (4, 2, 4))
    assert q.relator_texts()[0] == "c1^4"
    assert q.relator_texts()[1] == "c2^2"
    assert orbifold_presentation(Signature.of(0, [4, 2, 4])).relator_texts()[0] == "c1^2"


def test_surface_presentation():
    assert orbifold_presentation(Signature.of(0)).ngens == 0
    g1 = orbifold_presentation(Signature.of(1))
    assert g1.gens == ("a1", "b1")
    assert g1.relator_texts() == ["a1*b1*a1^-1*b1^-1"]
    inv = abelian_invariants(orbifold_presentation(Signature.of(3)))
    assert (inv.free_rank, inv.torsion) == (6, ())


def test_riemann_hurwitz_genus_known_values():
    assert riemann_hurwitz_genus(2, Signature.of(0, [2, 2, 2, 2])) == 1
    assert riemann_hurwitz_genus(2, Signature.of(2)) == 3
    assert riemann_hurwitz_genus(6, Signature.of(0, [2, 2, 3, 3])) == 2
    assert riemann_hurwitz_genus(8, Signature.of(0, [2, 2, 4])) == 0
    assert riemann_hurwitz_genus(2, Signature.of(0, [2, 2, 2, 2, 2, 2])) == 2
    assert riemann_hurwitz_genus(1, Signature.of(5)) == 5
    with pytest.raises(NonIntegralGenus):
        riemann_hurwitz_genus(2, Signature.of(0, [3]))
    with pytest.raises(NegativeGenus):
        riemann_hurwitz_genus(2, Signature.of(0))
    with pytest.raises(ValueError):
        riemann_hurwitz_genus(0, Signature.of(1))


def test_generating_vector_accessors():
    z2 = cyclic_group(2)
    v = GeneratingVector(z2, 1, (2, 2), a_images=(1,), b_images=(0,), c_images=(1, 1))
    assert v.signature == Signature.of(1, [2, 2])
    assert v.gen_images() == (1, 0, 1, 1)
    assert v.presentation().gens == ("a1", "b1", "c1", "c2")


def test_validate_generating_vector_violations():
    z2 = cyclic_group(2)
    z4 = cyclic_group(4)

    bad_order = GeneratingVector(z2, 0, (2,), c_images=(0,))
    violation = validate_generating_vector(bad_order)
    assert violation is not None and violation.kind == "order"
    assert "c1 has order 1, period demands 2" in violation.message
    assert violation.index == 0

    mismatch = GeneratingVector(z2, 1, (), a_images=(1,), b_images=())
    violation = validate_generating_vector(mismatch)
    assert violation is not None and violation.kind == "relation"

    bad_product = GeneratingVector(z2, 0, (2, 2, 2), c_images=(1, 1, 1))
    violation = validate_generating_vector(bad_product)
    assert violation is not None and violation.kind == "relation"
    assert "long relation" in violation.message

    not_generating = GeneratingVector(z4, 0, (2, 2), c_images=(2, 2))
    violation = validate_generating_vector(not_generating)
    assert violation is not None and violation.kind == "generation"

    kummer = GeneratingVector(z2, 0, (2, 2, 2, 2), c_images=(1, 1, 1, 1))
    assert validate_generating_vector(kummer) is None

    torus_cover = GeneratingVector(z2, 1, (), a_images=(1,), b_images=(0,))
    assert validate_generating_vector(torus_cover) is None


def test_enumerate_vectors_all_validate():
    cases = [
        (cyclic_group(2), 0, (2, 2, 2, 2)),
        (cyclic_group(2), 1, ()),
        (symmetric_group(3), 0, (2, 2, 3, 3)),
        (cyclic_group(4), 0, (2, 4, 4)),
    ]
    for h, genus, periods in cases:
        vectors = enumerate_generating_vectors(h, genus, periods)
        for v in vectors:
            assert validate_generating_vector(v) is None
        assert len(set(map(repr, vectors))) == len(vectors)


def test_enumerate_vector_counts_match_brute_force():
    # Independent filter: loop over every tuple of elements with the exact
    # orders, keep those whose product is the identity and whose entries
    # generate the whole group.
    h = symmetric_group(3)
    periods = (2, 2, 3, 3)
    pools = [
        [e for e in range(h.order) if h.element_order(e) == m] for m in periods
    ]
    expected = 0
    for c1 in pools[0]:
        for c2 in pools[1]:
            for c3 in pools[2]:
                for c4 in pools[3]:
                    prod = 0
                    for c in (c1, c2, c3, c4):
                        prod = h.mul_idx(prod, c)
                    if prod != 0:
                        continue
                    gens = [h.elements[c] for c in (c1, c2, c3, c4)]
                    from prodquot.perm import FiniteGroup

                    if FiniteGroup(gens, degree=h.degree).order == h.order:
                        expected += 1
    got = enumerate_generating_vectors(h, 0, periods)
    assert len(got) == expected
    assert expected > 0

    z2 = cyclic_group(2)
    assert len(enumerate_generating_vectors(z2, 0, (2, 2, 2, 2))) == 1
    assert len(enumerate_generating_vectors(z2, 1, ())) == 3
    assert enumerate_generating_vectors(cyclic_group(3), 0, (2, 2)) == []


def _reference_enumerate(
    h: FiniteGroup, genus: int, periods: Sequence[int]
) -> list[GeneratingVector]:
    """The recursive enumerator ``enumerate_generating_vectors`` replaced,
    kept as its oracle: all generating vectors for the given data, in
    deterministic order.

    Depth-first over c images (filtered by exact element order, the last one
    solved from the long relation when genus is 0), then over a/b images with
    the last pair filtered by the required commutator value.
    """
    if h.order > ENUMERATION_MAX_ORDER:
        raise GroupTooLarge(f"vector enumeration capped at order {ENUMERATION_MAX_ORDER}")
    periods = tuple(periods)
    by_order: dict[int, list[int]] = {}
    for m in set(periods):
        by_order[m] = [e for e in range(h.order) if h.element_order(e) == m]
        if not by_order[m]:
            return []
    results: list[GeneratingVector] = []
    r = len(periods)

    def commutator(a: int, b: int) -> int:
        return h.mul_idx(h.mul_idx(h.mul_idx(a, b), h.inv_idx(a)), h.inv_idx(b))

    def finish(cs: tuple[int, ...], abs_: tuple[int, ...]) -> None:
        a_imgs = abs_[0::2]
        b_imgs = abs_[1::2]
        if len(h.generated((*a_imgs, *b_imgs, *cs))) != h.order:
            return
        results.append(
            GeneratingVector(h, genus, periods, a_imgs, b_imgs, cs)
        )

    def extend_ab(cs: tuple[int, ...]) -> None:
        # need prod of commutators == inverse of c product
        inv_cprod = 0
        for c in cs:
            inv_cprod = h.mul_idx(inv_cprod, c)
        needed = h.inv_idx(inv_cprod)
        if genus == 0:
            if needed == 0:
                finish(cs, ())
            return

        def rec(depth: int, acc: int, chosen: tuple[int, ...]) -> None:
            if depth == genus - 1:
                want = h.mul_idx(h.inv_idx(acc), needed)
                for a in range(h.order):
                    for b in range(h.order):
                        if commutator(a, b) == want:
                            finish(cs, chosen + (a, b))
                return
            for a in range(h.order):
                for b in range(h.order):
                    rec(depth + 1, h.mul_idx(acc, commutator(a, b)), chosen + (a, b))

        rec(0, 0, ())

    def rec_c(i: int, chosen: tuple[int, ...]) -> None:
        if genus == 0 and r and i == r - 1:
            # last c image is forced by the long relation
            prod = 0
            for c in chosen:
                prod = h.mul_idx(prod, c)
            last = h.inv_idx(prod)
            if h.element_order(last) == periods[-1]:
                extend_ab(chosen + (last,))
            return
        if i == r:
            extend_ab(chosen)
            return
        for c in by_order[periods[i]]:
            rec_c(i + 1, chosen + (c,))

    rec_c(0, ())
    return results


def _quaternion_group() -> FiniteGroup:
    # left multiplication of Q8 on its points 1, i, j, k, -1, -i, -j, -k
    i = perm_from_cycles(8, [(0, 1, 4, 5), (2, 7, 6, 3)])
    j = perm_from_cycles(8, [(0, 2, 4, 6), (1, 3, 5, 7)])
    return FiniteGroup([i, j])


def _reference_work(pool_sizes: dict[int, int], genus: int, periods: Sequence[int]) -> int:
    """c-tuples the reference tries, times its commutator evaluations per tuple."""
    n = sum(pool_sizes.values())
    free = periods[:-1] if genus == 0 and periods else periods
    tuples = 1
    for m in free:
        tuples *= pool_sizes[m]
    return tuples * n ** (2 * genus)


def test_enumeration_matches_reference_on_bundled_actions():
    checked = 0
    for name in bundled_job_names():
        for action in load_bundled_job(name).actions:
            h, v = action.acting_group, action.vector
            got = enumerate_generating_vectors(h, v.genus, v.periods)
            assert got == _reference_enumerate(h, v.genus, v.periods), name
            assert v in got, name
            checked += 1
    assert checked >= 20


def test_enumeration_matches_reference_on_group_sweep():
    # every sorted period tuple over each group's element orders, r = 0..4,
    # genus 0-2 with genus 2 on groups of order <= 8; a case is skipped when
    # the reference would take more than 5000 steps
    groups = [
        trivial_group(),
        cyclic_group(2),
        cyclic_group(4),
        cyclic_group(6),
        direct_product_group(cyclic_group(2), cyclic_group(4)),
        dihedral_group(4),
        _quaternion_group(),
        symmetric_group(3),
        symmetric_group(4),
        dihedral_group(64),
    ]
    assert max(h.order for h in groups) == ENUMERATION_MAX_ORDER
    checked = vectors = 0
    for h in groups:
        pool_sizes: dict[int, int] = {}
        for e in range(h.order):
            m = h.element_order(e)
            pool_sizes[m] = pool_sizes.get(m, 0) + 1
        orders = sorted(pool_sizes)[1:]
        for genus in range(3 if h.order <= 8 else 2):
            for r in range(5):
                for periods in itertools.combinations_with_replacement(orders, r):
                    if _reference_work(pool_sizes, genus, periods) > 5000:
                        continue
                    got = enumerate_generating_vectors(h, genus, periods)
                    assert got == _reference_enumerate(h, genus, periods), (
                        h.order, genus, periods,
                    )
                    checked += 1
                    vectors += len(got)
    assert checked >= 400 and vectors >= 25000
    # among them, cases whose c3 solved from the long relation never has the
    # period's order: two transpositions of S3 multiply to 1 or a 3-cycle,
    # two generators of Z/4 to 0 or 2
    assert enumerate_generating_vectors(symmetric_group(3), 0, (2, 2, 2)) == []
    assert enumerate_generating_vectors(cyclic_group(4), 0, (4, 4, 4)) == []


def test_enumeration_leaves_no_cyclic_garbage():
    h = dihedral_group(4)
    enumerate_generating_vectors(h, 1, (2, 2))  # build the group's caches
    gc.collect()
    gc.disable()
    try:
        vectors = enumerate_generating_vectors(h, 1, (2, 2))
        assert vectors
        del vectors
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumerate_vectors_group_size_guard():
    with pytest.raises(GroupTooLarge):
        enumerate_generating_vectors(symmetric_group(6), 0, (2, 3, 4))  # order 720


def test_quotient_signature_fixed_cases():
    s = Signature.of(0, [2, 2, 2, 2])
    assert quotient_signature(s, {i: {1} for i in range(4)}) == Signature.of(0)
    km = Signature.of(0, [2, 4, 4])
    assert quotient_signature(km, {1: {2}}) == Signature.of(0, [2, 2, 4])
    # Killing the m-th power changes nothing.
    assert quotient_signature(km, {0: {2}, 1: {4}, 2: {4}}) == km
    # Multiple exponents accumulate through the gcd.
    twelve = Signature.of(1, [12])
    assert quotient_signature(twelve, {0: {8, 6}}) == Signature.of(1, [2])
    assert quotient_signature(twelve, {0: {4, 3}}) == Signature.of(1)
    assert quotient_signature(twelve, {}) == twelve
    with pytest.raises(ValueError, match="out of range"):
        quotient_signature(km, {3: {1}})
    with pytest.raises(ValueError, match="positive"):
        quotient_signature(km, {0: {0}})


def test_quotient_signature_matches_presentation_quotient():
    # Adding the killed powers as relators directly must give a group with
    # the same abelianization as the canonical quotient signature.
    rng = random.Random(20260819)
    for _ in range(25):
        genus = rng.randrange(0, 3)
        periods = tuple(rng.choice([2, 3, 4, 6]) for _ in range(rng.randrange(1, 4)))
        sig = Signature(genus, tuple(sorted(periods)))
        kill = {}
        for i, m in enumerate(sig.periods):
            if rng.random() < 0.7:
                kill[i] = {rng.randrange(1, m + 1) for _ in range(rng.randrange(1, 3))}
        p = orbifold_presentation(sig)
        extra = []
        for i, exps in kill.items():
            c = 2 * sig.genus + i
            extra.extend(Word(((c, e),)) for e in sorted(exps))
        direct = abelian_invariants(quotient_presentation(p, extra))
        via = abelian_invariants(orbifold_presentation(quotient_signature(sig, kill)))
        assert direct == via, (sig, kill)


def test_group_order_matches_todd_coxeter():
    # Todd-Coxeter is the oracle for the closed form: every finite group here
    # has order at most 60, and an infinite one overflows any budget.
    checked = 0
    for genus in range(3):
        for r in range(5):
            for periods in itertools.combinations_with_replacement(range(2, 8), r):
                sig = Signature.of(genus, periods)
                try:
                    index = todd_coxeter(orbifold_presentation(sig), [], 2000).index
                except CosetOverflow:
                    index = None
                assert sig.group_order() == index, sig
                checked += 1
    assert checked == 630
