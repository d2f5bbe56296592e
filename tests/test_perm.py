"""Tests for the finite permutation-group layer."""

import pytest

from prodquot.perm import (
    MAX_ORDER,
    FiniteGroup,
    GroupHom,
    GroupTooLarge,
    NotAHomomorphism,
    Permutation,
    centralizer,
    conjugating_element,
    cyclic_group,
    dihedral_group,
    direct_product_group,
    identity_hom,
    identity_perm,
    normal_closure,
    perm_from_cycles,
    quotient,
    symmetric_group,
    trivial_group,
    trivial_hom,
)


def test_permutation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((1, 2, 3))


def test_composition_applies_right_factor_first():
    # p sends 0->1, q sends 1->2; (q*p) should send 0 -> p(0)=1 -> q(1)=2.
    p = perm_from_cycles(3, [(0, 1)])
    q = perm_from_cycles(3, [(1, 2)])
    assert (q * p)(0) == 2
    assert (p * q)(0) == 1


def test_permutation_inverse_and_order():
    c = perm_from_cycles(4, [(0, 1, 2, 3)])
    assert (c * c.inverse()).is_identity()
    assert c.order() == 4
    assert identity_perm(5).order() == 1
    assert perm_from_cycles(6, [(0, 1), (2, 3, 4)]).order() == 6


def test_standard_group_orders():
    assert trivial_group().order == 1
    assert cyclic_group(7).order == 7
    assert symmetric_group(3).order == 6
    assert symmetric_group(4).order == 24
    assert dihedral_group(4).order == 8
    assert dihedral_group(6).order == 12


def test_group_too_large_guard():
    # a group of order MAX_ORDER closes, one element more does not
    assert cyclic_group(1000).order == 1000
    with pytest.raises(GroupTooLarge):
        cyclic_group(1001)


def test_element_indexing_starts_at_identity():
    g = symmetric_group(3)
    assert g.elements[0].is_identity()
    assert g.element_index(identity_perm(3)) == 0
    for i, e in enumerate(g.elements):
        assert g.element_index(e) == i
    with pytest.raises(KeyError):
        g.element_index(identity_perm(4))


def test_index_arithmetic_matches_permutations():
    # Permutation arithmetic is the oracle for everything read off the table
    for g in (
        symmetric_group(3),
        symmetric_group(4),
        dihedral_group(4),
        direct_product_group(cyclic_group(2), cyclic_group(4)),
        _quaternion_group(),
    ):
        elements = g.elements
        assert tuple(elements[i] for i in g.gen_indices) == g.generators
        for a, x in enumerate(elements):
            assert elements[g.inv_idx(a)] == x.inverse()
            assert g.element_order(a) == x.order()
            power = identity_perm(g.degree)
            for p in g.powers(a):
                assert elements[p] == power
                power = power * x
            assert power.is_identity() and len(g.powers(a)) == x.order()
            for b, y in enumerate(elements):
                assert elements[g.mul_idx(a, b)] == x * y
                assert elements[g.commutator(a, b)] == x * y * x.inverse() * y.inverse()
        last = g.order - 1
        q, proj = quotient(g, normal_closure(g, {last}))
        conj = GroupHom(g, g, [g.conj_idx(last, i) for i in g.gen_indices])
        for hom in (proj, conj, identity_hom(g)):
            for a in range(g.order):
                image = identity_perm(hom.target.degree)
                for i in g.element_word(a):
                    image = image * hom.target.elements[hom.gen_images[i]]
                assert hom.target.elements[hom.apply_idx(a)] == image


def test_conj_idx_is_left_conjugation():
    g = symmetric_group(3)
    for h in range(g.order):
        for a in range(g.order):
            expected = g.elements[h] * g.elements[a] * g.elements[h].inverse()
            assert g.elements[g.conj_idx(h, a)] == expected


def test_element_word_reconstructs_elements():
    for g in (symmetric_group(4), dihedral_group(5)):
        for a in range(g.order):
            acc = 0
            for gi in g.element_word(a):
                acc = g.mul_idx(acc, g.element_index(g.generators[gi]))
            assert acc == a


def test_conjugacy_classes_partition_s3():
    g = symmetric_group(3)
    classes = {g.conjugacy_class(a) for a in range(g.order)}
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 2, 3]
    covered = sorted(i for c in classes for i in c)
    assert covered == list(range(g.order))
    assert g.conjugacy_class(0) == (0,)


def test_quotient_requires_a_closed_index_set():
    s3 = symmetric_group(3)
    three_cycle = s3.element_index(perm_from_cycles(3, [(0, 1, 2)]))
    rotations = {0, three_cycle, s3.inv_idx(three_cycle)}
    q, proj = quotient(s3, rotations)
    assert q.order == 2
    assert sorted(proj.kernel_indices()) == sorted(rotations)
    with pytest.raises(ValueError, match="not closed"):
        quotient(s3, {0, three_cycle})  # missing the inverse


def test_hom_validation_and_kernel():
    s3 = symmetric_group(3)
    c2 = cyclic_group(2)
    # Generators of S3 are a transposition (odd) and a 3-cycle (even), so the
    # sign map sends them to the nontrivial and trivial element of C2.
    assert s3.generators[0].order() == 2
    assert s3.generators[1].order() == 3
    sign = GroupHom(s3, c2, [1, 0])
    assert sign.is_surjective()
    ker = sign.kernel_indices()
    assert len(ker) == 3
    assert all(s3.elements[i].order() in (1, 3) for i in ker)
    with pytest.raises(NotAHomomorphism):
        GroupHom(s3, c2, [1, 1])  # 3-cycle cannot map to an involution


def test_trivial_and_identity_homs():
    g = dihedral_group(4)
    t = trivial_hom(g)
    assert len(t.kernel_indices()) == g.order
    ident = GroupHom(g, g, [g.element_index(gen) for gen in g.generators])
    assert ident.is_surjective()
    assert ident.kernel_indices() == [0]
    assert [ident.apply_idx(a) for a in range(g.order)] == list(range(g.order))


def test_quotient_by_normal_subgroup():
    s3 = symmetric_group(3)
    a3 = [a for a in range(s3.order) if s3.element_order(a) in (1, 3)]
    q, proj = quotient(s3, a3)
    assert q.order == 2
    assert proj.is_surjective()
    assert sorted(proj.kernel_indices()) == a3


def test_quotient_rejects_non_normal_subgroup():
    s3 = symmetric_group(3)
    flip = s3.element_index(perm_from_cycles(3, [(0, 1)]))
    reflection = {0, flip}
    with pytest.raises(ValueError, match="not normal"):
        quotient(s3, reflection)


def test_centralizer_orders_in_s3():
    g = symmetric_group(3)
    for a in range(g.order):
        cent = centralizer(g, a)
        assert cent == sorted(cent)
        members = set(cent)
        assert 0 in members and a in members
        for h in range(g.order):
            assert (g.conj_idx(h, a) == a) == (h in members)
    assert len(centralizer(g, 0)) == 6
    flip = g.element_index(perm_from_cycles(3, [(0, 1)]))
    cycle = g.element_index(perm_from_cycles(3, [(0, 1, 2)]))
    assert len(centralizer(g, flip)) == 2
    assert len(centralizer(g, cycle)) == 3


def _quaternion_group():
    # left multiplication of Q8 on itself; points 0..7 are
    # 1, i, j, k, -1, -i, -j, -k
    i = perm_from_cycles(8, [(0, 1, 4, 5), (2, 7, 6, 3)])
    j = perm_from_cycles(8, [(0, 2, 4, 6), (1, 3, 5, 7)])
    return FiniteGroup([i, j])


def _brute_force_normal_closure(g, seed):
    closed = {0, seed}
    while True:
        grown = closed | {g.mul_idx(a, b) for a in closed for b in closed}
        grown |= {g.conj_idx(h, a) for h in range(g.order) for a in closed}
        if grown == closed:
            return sorted(closed)
        closed = grown


@pytest.mark.parametrize(
    "group",
    [symmetric_group(3), symmetric_group(4), dihedral_group(4), _quaternion_group()],
    ids=["S3", "S4", "D4", "Q8"],
)
def test_normal_closure_matches_brute_force(group):
    for seed in range(group.order):
        closure = normal_closure(group, {seed})
        assert closure == _brute_force_normal_closure(group, seed)
        quotient(group, closure)  # a normal subgroup by quotient's own checks
    assert normal_closure(group, ()) == [0]


def test_conjugating_element_finds_least_witness():
    g = symmetric_group(3)
    flip_a = g.element_index(perm_from_cycles(3, [(0, 1)]))
    flip_b = g.element_index(perm_from_cycles(3, [(1, 2)]))
    cycle = g.element_index(perm_from_cycles(3, [(0, 1, 2)]))
    h = conjugating_element(g, flip_a, flip_b)
    assert h is not None
    assert g.conj_idx(h, flip_a) == flip_b
    assert all(g.conj_idx(k, flip_a) != flip_b for k in range(h))
    assert conjugating_element(g, flip_a, cycle) is None
    assert conjugating_element(g, cycle, cycle) == 0


@pytest.mark.parametrize(
    "group",
    [
        symmetric_group(4),
        dihedral_group(5),
        direct_product_group(cyclic_group(2), cyclic_group(3)),
    ],
    ids=["S4", "D5", "Z2xZ3"],
)
def test_cayley_table_matches_permutation_products(group):
    table = group.cayley_table()
    assert len(table) == group.order
    for a, row in enumerate(table):
        assert len(row) == group.order
        for b, ab in enumerate(row):
            assert group.elements[ab] == group.elements[a] * group.elements[b]


def test_generated_order_matches_closure():
    g = symmetric_group(4)
    for indices in ([], [0], [1], [1, 2], [3, 7, 11], list(range(g.order))):
        closure = FiniteGroup([g.elements[i] for i in indices], degree=g.degree)
        got = g.generated(indices)
        assert got[0] == 0
        assert sorted(got) == sorted(g.element_index(e) for e in closure.elements)


def test_closing_a_group_past_the_order_limit_raises():
    # S7 has order 5040: its closure stops at 1000 elements, so no group
    # that closes has a Cayley table past 10**6 entries
    assert MAX_ORDER == 1000
    with pytest.raises(GroupTooLarge, match="order exceeds 1000"):
        symmetric_group(7)
