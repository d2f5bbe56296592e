"""End-to-end tests for fundamental groups of diagonal curve-product quotients."""

import itertools
import json
import math
import time

import pytest
from test_abelian import _reference_smith
from test_rewrite import BEAUVILLE_JOB, _canonical_candidate_table, _kernel_table, _reference_rows

import prodquot.product_quotient as pq
from prodquot.abelian import AbelianInvariants, smith_diagonal
from prodquot.acceptance import _brute_force_torsion_count
from prodquot.cli import bundled_job_names, load_bundled_job, parse_job
from prodquot.coset import CosetOverflow, todd_coxeter
from prodquot.orbifold import (
    GeneratingVector,
    Signature,
    enumerate_generating_vectors,
)
from prodquot.perm import GroupHom, cyclic_group, normal_closure, quotient, symmetric_group
from prodquot.presentation import (
    abelian_invariants,
    direct_product_presentation,
    presentation,
    quotient_presentation,
)
from prodquot.product_quotient import (
    InvalidVector,
    build_curve_action,
    build_pi1,
    curve_group_image_words,
    freeness_check,
    lifted_orbifold_generators,
    structure_from_pi1,
    torsion_generators,
    verify_from_pi1,
)
from prodquot.rewrite import (
    SubgroupPresentation,
    _translated_rows,
    evaluate_word,
    kernel_subgroup_words,
    reidemeister_schreier,
    subgroup_abelian_invariants,
)
from prodquot.words import Word, word_product


def _actions(job_name: str):
    return load_bundled_job(job_name).actions


def _identity_action(group, vector):
    ident = GroupHom(group, group, [group.element_index(g) for g in group.generators])
    return build_curve_action(group, ident, vector)


# ---------------------------------------------------------------------------
# Two involutions on elliptic curves: the quotient is simply connected.


def test_kummer_surface_pipeline():
    actions = _actions("kummer")
    g = actions[0].group
    assert [a.genus for a in actions] == [1, 1]
    assert [a.acting_group.order for a in actions] == [2, 2]

    torsion = torsion_generators(actions)
    assert len(torsion) == 32
    assert _brute_force_torsion_count(actions) == 32

    res = build_pi1(actions, max_cosets=10_000)
    # both projections are faithful, so D(G) is the diagonal of Z/2 x Z/2
    assert res.subgroup.table.index == g.order ** (len(actions) - 1)
    assert todd_coxeter(res.presentation, (), max_cosets=10_000).index == 1

    inv = abelian_invariants(res.presentation)
    assert (inv.free_rank, inv.torsion) == (0, ())

    rep = structure_from_pi1(res)
    assert rep.quotient_signatures == (Signature.of(0), Signature.of(0))
    assert rep.t_index_bound == 1 and rep.t_index_exact
    assert rep.e_order_bound == 1 and rep.e_order_exact
    assert not rep.freeness
    assert rep.pi1_order == 1
    ver = verify_from_pi1(res, index_bound=25)
    assert ver.status == "FINITE"
    assert ver.order == 1


def test_kummer_freeness_witness():
    actions = _actions("kummer")
    free = freeness_check(actions)
    assert not free.is_free
    assert free.witness == 1  # the involution fixes points on both factors


# ---------------------------------------------------------------------------
# A free involution on two genus-3 curves.


def test_free_action_pipeline():
    actions = _actions("free-z2-genus3")
    assert [a.genus for a in actions] == [3, 3]
    assert freeness_check(actions).is_free
    assert torsion_generators(actions) == []

    res = build_pi1(actions, max_cosets=10_000)
    inv = abelian_invariants(res.presentation)
    # Independent derivation: rank of the invariant part of H_1 of the two
    # genus-3 curves under the involution is 2+2 per factor.
    assert (inv.free_rank, inv.torsion) == (8, ())
    assert abelian_invariants(res.raw_presentation) == inv

    # The product of the curve groups has index |G| = 2, and the quotient
    # is the acting group.
    image = curve_group_image_words(res)
    assert todd_coxeter(res.presentation, image, max_cosets=20_000).index == 2

    rep = structure_from_pi1(res)
    assert rep.quotient_signatures == (Signature.of(2), Signature.of(2))
    assert rep.t_index_bound == 2 and rep.t_index_exact
    assert rep.e_order_bound == 1 and rep.e_order_exact
    assert rep.freeness
    assert rep.pi1_order is None
    assert rep.intersection_kernel_order == 1

    ver = verify_from_pi1(res, index_bound=25)
    assert ver.status == "FOUND"
    assert ver.index == 2
    # The index-2 subgroup is the product of the two genus-3 surface groups:
    # free abelianization of rank 2*3 + 2*3.
    assert ver.free_rank == 12
    assert ver.invariants.torsion == ()


# ---------------------------------------------------------------------------
# Mixed projections of the Klein four-group.


def test_klein_mixed_projection_pipeline():
    actions = _actions("klein-mixed-projections")
    g = actions[0].group
    assert g.order == 4
    assert [a.acting_group.order for a in actions] == [2, 2]
    assert [len(a.kernel_indices) for a in actions] == [2, 2]

    torsion = torsion_generators(actions)
    assert len(torsion) == 40
    assert _brute_force_torsion_count(actions) == 40

    res = build_pi1(actions, max_cosets=20_000)
    # the two projections have different kernels, so D(G) is all of
    # Z/2 x Z/2 and the orbifold group is the whole product
    assert res.subgroup.table.index == 1
    # Each factor is an elliptic curve modulo a two-torsion translation plus
    # the hyperelliptic involution, so the quotient is a product of two
    # projective lines: simply connected.
    assert todd_coxeter(res.presentation, (), max_cosets=20_000).index == 1

    rep = structure_from_pi1(res)
    assert rep.pi1_order == 1
    assert rep.quotient_signatures == (Signature.of(0), Signature.of(0))
    assert not rep.freeness


# ---------------------------------------------------------------------------
# Degenerate shapes: trivial group, pure kernel, single factor.


def test_trivial_group_product_of_surfaces():
    actions = _actions("trivial-group-surfaces")
    res = build_pi1(actions)
    inv = abelian_invariants(res.presentation)
    assert (inv.free_rank, inv.torsion) == (8, ())
    assert torsion_generators(actions) == []
    ver = verify_from_pi1(res, index_bound=10)
    assert ver.status == "FOUND"
    assert ver.index == 1
    assert ver.free_rank == 8


def test_pure_kernel_pair():
    actions = _actions("z2-pure-kernel-pair")
    # Both projections are trivial, so the full group is the joint kernel:
    # it acts trivially, the orbifold group is the product of the two
    # surface groups and there is no torsion.
    assert torsion_generators(actions) == []
    assert _brute_force_torsion_count(actions) == 0

    res = build_pi1(actions)
    assert res.subgroup.table.index == 1
    assert res.torsion == ()
    inv = abelian_invariants(res.presentation)
    assert (inv.free_rank, inv.torsion) == (8, ())

    rep = structure_from_pi1(res)
    assert rep.intersection_kernel_order == 2
    assert rep.quotient_signatures == (Signature.of(2), Signature.of(2))
    assert not rep.e_order_exact
    assert rep.e_order_bound == 2
    # The group acts trivially on each factor, so every element fixes points.
    assert not rep.freeness
    # psi names G elements only up to the joint kernel, so the canonical
    # candidate divides it out: the acting group mod stabilizers is trivial
    ver = verify_from_pi1(res, index_bound=8)
    assert (ver.status, ver.index, ver.quotient) == (
        "FOUND",
        1,
        "acting group mod stabilizers (order 1)",
    )


def test_single_factor_s3_quotient_is_simply_connected():
    actions = _actions("one-factor-s3")
    assert len(actions) == 1
    res = build_pi1(actions)
    assert todd_coxeter(res.presentation, (), max_cosets=10_000).index == 1


# ---------------------------------------------------------------------------
# Cross-cutting properties.


def test_freeness_matches_empty_torsion():
    z2 = cyclic_group(2)
    shapes = [(0, (2, 2, 2, 2)), (1, (2, 2)), (2, ())]
    vectors = {
        shape: enumerate_generating_vectors(z2, *shape) for shape in shapes
    }
    for s1 in shapes:
        for v1 in vectors[s1]:
            for s2 in shapes:
                for v2 in vectors[s2]:
                    acts = [_identity_action(z2, v1), _identity_action(z2, v2)]
                    free = freeness_check(acts).is_free
                    torsion = torsion_generators(acts)
                    assert free == (not torsion), (s1, s2)


def test_abelianization_stable_under_simplification_budget():
    for name in ("kummer", "z3-triangle-pair", "s3-pair"):
        actions = _actions(name)
        light = build_pi1(actions, tietze_steps=1)
        heavy = build_pi1(actions, tietze_steps=10_000)
        assert abelian_invariants(light.presentation) == abelian_invariants(
            heavy.presentation
        ), name
        assert abelian_invariants(light.raw_presentation) == abelian_invariants(
            heavy.presentation
        ), name


def test_lifted_orbifold_generators_have_correct_group_images():
    # For a free action there is no torsion quotient, so the acting-group
    # image of every generator survives the simplification intact.
    actions = _actions("free-z2-genus3")
    res = build_pi1(actions)
    g = actions[0].group
    assert res.torsion == ()
    for factor, action in enumerate(actions):
        words = lifted_orbifold_generators(res, factor)
        images = action.vector.gen_images()
        assert len(words) == action.orbifold().ngens
        for x, w in enumerate(words):
            expected = next(
                e for e in range(g.order) if action.p_of(e) == images[x]
            )
            assert evaluate_word(w, res.psi, g) == expected


def test_torsion_words_die_in_pi1():
    actions = _actions("z3-triangle-pair")
    res = build_pi1(actions)
    table = todd_coxeter(res.presentation, (), max_cosets=20_000)
    for w in res.torsion_words:
        assert table.trace(0, res.transport(w)) == 0


# ---------------------------------------------------------------------------
# Torsion normal forms against the per-element loop.

# torsion-heavy classify strata: Z/3 x Z/3 (1;3,3)^2, Z/7 (0;7,7,7)^2 and the
# nonabelian Q8 (0;4,4,4)^2, whose twists change the coordinate images
TORSION_JOBS = {
    doc["name"]: doc
    for doc in (
        {
            "schema": "prodquot-job/1",
            "name": "classify-Z3xZ3-(1;3,3)x(1;3,3)-nonfree-0",
            "group": {"degree": 6, "generators": [[1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 5, 3]]},
            "actions": [
                {
                    "projection": "identity",
                    "signature": {"genus": 1, "periods": [3, 3]},
                    "vector": {"a": ["g0"], "b": ["g0^2"], "c": ["g0*g1^2", "g0^2*g1"]},
                },
                {
                    "projection": "identity",
                    "signature": {"genus": 1, "periods": [3, 3]},
                    "vector": {"a": ["g0^2"], "b": ["g0*g1^2"], "c": ["g0*g1^2", "g0^2*g1"]},
                },
            ],
            "outputs": ["pi1"],
        },
        {
            "schema": "prodquot-job/1",
            "name": "classify-Z7-(0;7,7,7)x(0;7,7,7)-nonfree-0",
            "group": {"degree": 7, "generators": [[1, 2, 3, 4, 5, 6, 0]]},
            "actions": [
                {
                    "projection": "identity",
                    "signature": {"genus": 0, "periods": [7, 7, 7]},
                    "vector": {"a": [], "b": [], "c": ["g0^2", "g0", "g0^4"]},
                },
                {
                    "projection": "identity",
                    "signature": {"genus": 0, "periods": [7, 7, 7]},
                    "vector": {"a": [], "b": [], "c": ["g0^2", "g0^6", "g0^6"]},
                },
            ],
            "outputs": ["pi1"],
        },
        {
            "schema": "prodquot-job/1",
            "name": "classify-Q8-(0;4,4,4)x(0;4,4,4)-nonfree-0",
            "group": {
                "degree": 8,
                "generators": [[1, 4, 3, 6, 5, 0, 7, 2], [2, 7, 4, 1, 6, 3, 0, 5]],
            },
            "actions": [
                {
                    "projection": "identity",
                    "signature": {"genus": 0, "periods": [4, 4, 4]},
                    "vector": {"a": [], "b": [], "c": ["g0", "g1", "g1*g0"]},
                },
                {
                    "projection": "identity",
                    "signature": {"genus": 0, "periods": [4, 4, 4]},
                    "vector": {"a": [], "b": [], "c": ["g0^3", "g1", "g0*g1"]},
                },
            ],
            "outputs": ["pi1"],
        },
        BEAUVILLE_JOB,
    )
}


def _reference_torsion(actions, res):
    """The per-element loop: options are built, every coordinate checked and
    every normal form rewritten once per normal form, as the product of its
    coordinates.  Returns the normal forms, their words over the orbifold
    group's generators and the raw presentation."""
    trivial = pq.TorsionFactor(None, 0, Word())

    def key(te):
        return (
            te.g,
            tuple((f.period_index, f.exponent, f.twist.letters) for f in te.factors),
        )

    def check_membership(acts, te):
        for j, a in enumerate(acts):
            w = te.factors[j].word(a.vector.genus)
            got = evaluate_word(w, a.vector.gen_images(), a.acting_group)
            if got != a.p_of(te.g):
                raise RuntimeError("torsion coordinate image does not match the fiber")

    def torsion_word(te):
        parts = [f.word(a.vector.genus) for a, f in zip(acts, te.factors)]
        return res.subgroup.rewrite(
            word_product(part.shift(off) for part, off in zip(parts, res.offsets))
        )

    acts = list(actions)
    g = acts[0].group
    n = len(acts)
    out = {}
    for i in range(n):
        ai = acts[i]
        for q, row in enumerate(ai.powers):
            for ell, target in enumerate(row[1:], 1):
                pivot = pq.TorsionFactor(q, ell, Word())
                for e in range(g.order):
                    if ai.p_of(e) != target:
                        continue
                    if any(acts[j].p_of(e) != 0 for j in range(i)):
                        continue
                    options = []
                    ok = True
                    for j in range(i + 1, n):
                        opts = pq._factor_options(acts[j], acts[j].p_of(e))
                        if not opts:
                            ok = False
                            break
                        options.append(opts)
                    if not ok:
                        continue
                    for combo in itertools.product(*options):
                        factors = (trivial,) * i + (pivot,) + combo
                        te = pq.TorsionElement(e, factors, i)
                        check_membership(acts, te)
                        out.setdefault(key(te), te)
    torsion = list(out.values())
    words = [torsion_word(te) for te in torsion]
    return torsion, words, quotient_presentation(res.subgroup.presentation, words)


@pytest.mark.parametrize("name", bundled_job_names() + list(TORSION_JOBS))
def test_torsion_matches_the_per_element_loop(name):
    if name in TORSION_JOBS:
        job = parse_job(json.dumps(TORSION_JOBS[name]))
    else:
        job = load_bundled_job(name)
    cosets, steps = job.budgets.max_cosets, job.budgets.tietze_steps
    res = build_pi1(job.actions, cosets, steps)
    torsion, words, raw = _reference_torsion(job.actions, res)
    assert torsion_generators(job.actions) == torsion
    assert res.torsion == tuple(torsion)
    assert res.torsion_words == tuple(words)
    assert res.raw_presentation == raw


def test_each_distinct_torsion_coordinate_is_evaluated_once(monkeypatch):
    actions = _actions("z2-three-kummer")
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return evaluate_word(*args, **kwargs)

    monkeypatch.setattr(pq, "evaluate_word", counting)
    torsion = torsion_generators(actions)
    coordinates = {
        (j, a.p_of(te.g), f)
        for te in torsion
        for j, (a, f) in enumerate(zip(actions, te.factors))
        if f.exponent
    }
    assert len(torsion) == 256
    assert len(calls) == len(coordinates) < len(torsion) * len(actions)


def test_a_corrupt_section_word_fails_the_torsion_check(monkeypatch):
    actions = _actions("s3-pair")
    a = actions[1]
    h = a.acting_group
    images = a.vector.gen_images()
    # a coordinate with a nontrivial twist x; pointing section[x] at an
    # element y that conjugates the core elsewhere breaks its image
    f = next(
        te.factors[1] for te in torsion_generators(actions) if te.factors[1].twist.letters
    )
    x = evaluate_word(f.twist, images, h)
    core = a.powers[f.period_index][f.exponent]
    y = next(y for y in range(h.order) if h.conj_idx(y, core) != h.conj_idx(x, core))
    section = list(a.section)
    section[x] = a.section[y]
    monkeypatch.setitem(a.__dict__, "section", tuple(section))
    with pytest.raises(RuntimeError, match="torsion coordinate image does not match the fiber"):
        torsion_generators(actions)


def test_build_curve_action_validation():
    z2 = cyclic_group(2)
    z3 = cyclic_group(3)
    z4 = cyclic_group(4)
    kummer_vec = GeneratingVector(z2, 0, (2, 2, 2, 2), c_images=(1, 1, 1, 1))
    ident = GroupHom(z2, z2, [1])

    with pytest.raises(ValueError, match="defined on the acting group"):
        build_curve_action(z3, ident, kummer_vec)
    z4_vec = GeneratingVector(z4, 0, (4, 4, 2), c_images=(1, 1, 2))
    into_z4 = GroupHom(z4, z4, [2])  # image has order 2
    with pytest.raises(ValueError, match="onto"):
        build_curve_action(z4, into_z4, z4_vec)

    bad_vec = GeneratingVector(z2, 0, (2, 2, 2, 2), c_images=(1, 1, 1, 0))
    with pytest.raises(InvalidVector, match="order"):
        build_curve_action(z2, ident, bad_vec)

    s3 = symmetric_group(3)
    onto_s3 = GroupHom(s3, s3, [s3.element_index(g) for g in s3.generators])
    with pytest.raises(ValueError, match="share their target"):
        build_curve_action(s3, onto_s3, kummer_vec)


def test_structure_and_verify_never_overflow_on_bundled_jobs(monkeypatch):
    # Finiteness comes from the quotient signatures, so no enumeration is
    # started on a group that turns out to be infinite.
    overflows = []

    def counting(*args, **kwargs):
        try:
            return todd_coxeter(*args, **kwargs)
        except CosetOverflow:
            overflows.append(args[0])
            raise

    for name in bundled_job_names():
        job = load_bundled_job(name)
        budgets = job.budgets
        res = build_pi1(job.actions, budgets.max_cosets, budgets.tietze_steps)
        monkeypatch.setattr(pq, "todd_coxeter", counting)
        structure_from_pi1(res)
        verify_from_pi1(res, budgets.verify_index_bound)
        monkeypatch.undo()
        assert not overflows, name


@pytest.mark.parametrize("name", bundled_job_names())
def test_first_betti_number_is_twice_the_quotient_genera(name):
    # b1(pi1) = 2 * sum of the genera of the quotient curves C_i / G
    job = load_bundled_job(name)
    res = build_pi1(job.actions, job.budgets.max_cosets, job.budgets.tietze_steps)
    expected = 2 * sum(s.genus for s in res.quotient_signatures)
    assert abelian_invariants(res.presentation).free_rank == expected


# job -> (|G|, 2 * sum of the curve genera) for the bundled jobs whose group
# acts freely, and for Beauville's reference pair
FREE_KERNELS = {
    "free-z2-genus3": (2, 12),
    "s3-free-pair": (6, 28),
    "trivial-group-surfaces": (1, 8),
    "z2-free-times-kummer": (2, 8),
    "beauville": (25, 24),
}


def test_a_free_action_makes_the_canonical_candidate_a_product_of_surface_groups():
    # When G acts freely, 1 -> pi1(C_1) x ... x pi1(C_n) -> pi1 -> G -> 1 is
    # exact: the kernel of pi1 onto G / <stabilizers, K> = G has index |G|
    # and abelianization Z^(2 * sum g(C_i)), whether or not the quotient
    # curves are hyperbolic.  Its table is built as the verify search builds
    # it, so this runs the translated rows and, at index 25, the SNF of a
    # rank-deficient matrix: 27 unit pivots and no modulus.
    jobs = {name: load_bundled_job(name) for name in bundled_job_names()}
    free = {name for name, job in jobs.items() if freeness_check(job.actions).is_free}
    assert free == set(FREE_KERNELS) - {"beauville"}
    jobs["beauville"] = parse_job(json.dumps(BEAUVILLE_JOB))
    for name, (order, rank) in FREE_KERNELS.items():
        job = jobs[name]
        res = build_pi1(job.actions, job.budgets.max_cosets, job.budgets.tietze_steps)
        table = _canonical_candidate_table(res)
        assert table.index == res.group.order == order, name
        assert rank == 2 * sum(a.genus for a in res.actions), name
        inv = subgroup_abelian_invariants(res.presentation, table)
        assert inv == AbelianInvariants(rank), name


def test_structure_with_verify_enumerates_a_finite_pi1_once(monkeypatch):
    job = load_bundled_job("kummer")
    budgets = job.budgets
    res = build_pi1(job.actions, budgets.max_cosets, budgets.tietze_steps)
    probes = []
    original = pq._order_probe

    def counting(*args, **kwargs):
        probes.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pq, "_order_probe", counting)
    rep = structure_from_pi1(res)
    ver = verify_from_pi1(res, budgets.verify_index_bound)
    assert rep.pi1_order is not None
    assert ver.status == "FINITE"
    assert ver.order == rep.pi1_order
    assert len(probes) == 1


def test_verify_rewrites_each_kernel_once(monkeypatch):
    # On Beauville's surface H1 = (Z/5)^3, so at index bound 5 only cyclic(5)
    # is a quotient: 124 surjections, one kernel per 4 of them (Aut(Z/5)).
    res = build_pi1(parse_job(json.dumps(BEAUVILLE_JOB)).actions)
    calls = []
    original = pq.subgroup_abelian_invariants

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pq, "subgroup_abelian_invariants", counting)
    ver = verify_from_pi1(res, index_bound=5)
    assert ver.status == "INCONCLUSIVE"
    assert len(calls) == 31


@pytest.mark.parametrize("bound", [8, 25])
def test_kernel_invariants_match_rs_on_every_beauville_verify_kernel(monkeypatch, bound):
    # bound 8: the 31 distinct kernels onto cyclic(5); bound 25: the canonical
    # candidate of index 25, which is FOUND
    res = build_pi1(parse_job(json.dumps(BEAUVILLE_JOB)).actions)
    met = []
    original = pq.subgroup_abelian_invariants

    def recording(ambient, table):
        inv = original(ambient, table)
        met.append((ambient, table, inv))
        return inv

    monkeypatch.setattr(pq, "subgroup_abelian_invariants", recording)
    # every kernel is normal, so its rows come from one walk per relator and
    # no presentation is built
    monkeypatch.setattr("prodquot.rewrite.reidemeister_schreier", None)
    ver = verify_from_pi1(res, bound)
    monkeypatch.undo()
    assert ver.status == ("INCONCLUSIVE" if bound == 8 else "FOUND")
    assert [table.index for _, table, _ in met] == ([5] * 31 if bound == 8 else [25])
    for ambient, table, inv in met:
        assert inv == abelian_invariants(reidemeister_schreier(ambient, table).presentation)
        rows = _translated_rows(ambient, table)
        assert rows == _reference_rows(ambient, table)
        assert smith_diagonal(rows[0]) == _reference_smith(rows[0])


# A free (Z/3)^2 action whose verify search, with the canonical candidate
# (index 9) set aside, finds the kernel onto cyclic(3), second in the catalogue.
Z3XZ3_FREE_JOB = {
    "schema": "prodquot-job/1",
    "name": "classify-Z3xZ3-(1;3,3)x(1;3,3)-free-1",
    "group": {"degree": 6, "generators": [[1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 5, 3]]},
    "actions": [
        {
            "projection": "identity",
            "signature": {"genus": 1, "periods": [3, 3]},
            "vector": {"a": ["1"], "b": ["g0*g1"], "c": ["g1", "g1^2"]},
        },
        {
            "projection": "identity",
            "signature": {"genus": 1, "periods": [3, 3]},
            "vector": {"a": ["g1"], "b": ["1"], "c": ["g0^2*g1^2", "g0*g1"]},
        },
    ],
    "outputs": ["verify"],
}


def test_quotient_catalogue_closes_each_group_only_when_tried(monkeypatch):
    # at bound 200 the catalogue holds 653 groups; closing them all before
    # the first try took over a second
    cases = [
        # H1 has free rank 4, so no group is ruled out: cyclic(2), which has
        # no surjection, and cyclic(3) are closed
        (Z3XZ3_FREE_JOB, 200, [2, 3], ("FOUND", "cyclic(3)", 3)),
        # H1 = (Z/5)^3 rules out every group of order at most 8 but cyclic(5)
        (BEAUVILLE_JOB, 8, [5], ("INCONCLUSIVE", None, None)),
    ]
    for doc, bound, closed_orders, expected in cases:
        res = build_pi1(parse_job(json.dumps(doc)).actions)
        with monkeypatch.context() as m:
            start = time.perf_counter()
            ver, closed, searched, tried = _closing_search(m, res, bound)
            assert time.perf_counter() - start < 1.0
        assert (ver.status, ver.quotient, ver.index) == expected
        assert closed[-1] is tried[-1]
        assert [g.order for g in closed] == closed_orders
        assert all(g is q for g, q in zip(closed, searched, strict=True))
        # a group the rule skips has no surjection, so the report is the same
        with monkeypatch.context() as m:
            m.setattr(pq, "_maps_onto", lambda h1, orders: True)
            assert _closing_search(m, res, bound)[0] == ver


def _closing_search(monkeypatch, res, bound):
    """verify_from_pi1(res, bound) with the canonical candidate set aside,
    and the catalogue groups it closed, searched for surjections and tried
    kernels of, in order."""
    closed, searched, tried = [], [], []
    for name in ("cyclic_group", "dihedral_group", "direct_product_group"):
        original = getattr(pq, name)

        def closing(*args, _original=original):
            group = _original(*args)
            closed.append(group)
            return group

        monkeypatch.setattr(pq, name, closing)
    surjections = pq._surjections

    def searching(p, quo):
        searched.append(quo)
        return surjections(p, quo)

    monkeypatch.setattr(pq, "_surjections", searching)
    try_subgroup = pq._try_subgroup

    def trying(res, desc, quo, values, seen):
        if desc.startswith("acting group"):
            return None
        tried.append(quo)
        return try_subgroup(res, desc, quo, values, seen)

    monkeypatch.setattr(pq, "_try_subgroup", trying)
    return verify_from_pi1(res, bound), closed, searched, tried


def _reference_surjections(p, quo):
    """The surjection search before abelian targets were tested through
    exponent sums: every relator evaluated letter by letter."""
    k = p.ngens
    if k == 0 or quo.order**k > pq._HOM_TUPLE_BOUND:
        return
    for tup in itertools.product(range(quo.order), repeat=k):
        if any(evaluate_word(r, tup, quo) != 0 for r in p.relators):
            continue
        if len(quo.generated(tup)) != quo.order:
            continue
        yield tup


def _beauville_job(name, vectors):
    return {
        **BEAUVILLE_JOB,
        "name": name,
        "actions": [
            {**action, "vector": {"a": [], "b": [], "c": vector}}
            for action, vector in zip(BEAUVILLE_JOB["actions"], vectors)
        ],
    }


# Two documents of the beauville pool (pipebench/frozen/beauville_pool.json).
BEAUVILLE_POOL_DOCS = [
    _beauville_job(
        "beauville-drawn-0",
        [["g0^2*g1^3", "g0^4", "g0^4*g1^2"], ["g0^4*g1^3", "g0*g1", "g1"]],
    ),
    _beauville_job(
        "beauville-drawn-1",
        [["g0^2*g1", "g0^2", "g0*g1^4"], ["g0*g1^2", "g1^4", "g0^4*g1^4"]],
    ),
]


def _catalogue_surjections(p):
    """Per catalogue group up to bound 8, the number of surjections p -> Q,
    checked against the letter-by-letter search, and the groups H1(p) does
    not rule out, each checked to be every group with a surjection."""
    h1 = abelian_invariants(p)
    found, admitted = {}, set()
    for desc, orders, build in pq._quotient_catalogue(8):
        cand = build()
        got = list(pq._surjections(p, cand))
        assert got == list(_reference_surjections(p, cand)), desc
        found[desc] = len(got)
        if pq._maps_onto(h1, orders):
            admitted.add(desc)
        else:
            assert not got, desc
    return found, admitted


@pytest.mark.parametrize(
    "doc", [BEAUVILLE_JOB, *BEAUVILLE_POOL_DOCS], ids=lambda d: d["name"]
)
def test_surjections_match_the_letter_by_letter_search(doc):
    pres = build_pi1(parse_job(json.dumps(doc)).actions).presentation
    found, admitted = _catalogue_surjections(pres)
    # H1 = (Z/5)^3: only cyclic(5) is a quotient, 5^3 - 1 surjections, and
    # H1 rules out every other group
    assert found == {desc: 124 if desc == "cyclic(5)" else 0 for desc in found}
    assert admitted == {"cyclic(5)"}


@pytest.mark.parametrize(
    "relators, counts, admitted",
    [
        # <a, b | a^2, b^2, (ab)^3> is S3: onto dihedral(3) through its 6
        # automorphisms, onto cyclic(2) only by a, b -> 1; H1 = Z/2 admits both
        (
            ["a^2", "b^2", "a*b*a*b*a*b"],
            {"dihedral(3)": 6, "cyclic(2)": 1},
            {"cyclic(2)", "dihedral(3)"},
        ),
        # exponents below 0 and at or above |Q|, which a non-abelian
        # quotient's rows read through the power table modulo |Q| too
        (
            ["a^-2", "b^8", "a*b*a*b"],
            {"dihedral(4)": 8, "cyclic(2)": 3, "abelian(2x2)": 6},
            {"cyclic(2)", "abelian(2x2)", "dihedral(3)", "dihedral(4)"},
        ),
        (
            ["a^-6", "b^-10", "a^3*b^-5*a^-3*b^5"],
            {
                "dihedral(3)": 6,
                "cyclic(2)": 3,
                "cyclic(3)": 2,
                "cyclic(5)": 4,
                "cyclic(6)": 6,
                "abelian(2x2)": 6,
                "abelian(2x3)": 6,
            },
            {
                "cyclic(2)", "cyclic(3)", "cyclic(5)", "cyclic(6)",
                "abelian(2x2)", "abelian(2x3)", "dihedral(3)", "dihedral(4)",
            },
        ),
    ],
    ids=["S3", "D8", "exponents-6-10"],
)
def test_surjections_match_the_letter_by_letter_search_on_a_dihedral_quotient(
    relators, counts, admitted
):
    found, got = _catalogue_surjections(presentation(["a", "b"], relators))
    assert {desc: n for desc, n in found.items() if n} == counts
    assert got == admitted


def _multiples(group, m):
    """{a^m : a in group} by element indices."""
    return {pw[m % len(pw)] for pw in map(group.powers, range(group.order))}


def test_catalogue_abelianizations_match_the_built_groups():
    # per prime power q = p^k, the closed form's cyclic factors of order
    # divisible by q against the built group's abelianization A, where there
    # are log_p |p^(k-1) A| / |p^k A| of them
    for desc, orders, build in pq._quotient_catalogue(24):
        q = build()
        commutators = [q.commutator(a, b) for a in range(q.order) for b in range(a)]
        ab, _ = quotient(q, normal_closure(q, commutators))
        assert math.prod(orders) == ab.order, desc
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            k = 1
            while p**k <= q.order:
                closed = sum(o % p**k == 0 for o in orders)
                ratio = len(_multiples(ab, p ** (k - 1))) // len(_multiples(ab, p**k))
                assert p**closed == ratio, (desc, p**k)
                k += 1


# Subgroup words that present the orbifold group, the preimage of D(G) under
# Phi, to Todd-Coxeter: per generator of G, the factors' section words over
# its images, then the Schreier generators of each factor's kernel of phi.


def _orbifold_group_words(res):
    g = res.group
    words = [
        word_product(
            a.section[a.p_of(x)].shift(off) for a, off in zip(res.actions, res.offsets)
        )
        for x in g.gen_indices
    ]
    for a, off in zip(res.actions, res.offsets):
        kws = kernel_subgroup_words(a.vector.gen_images(), a.acting_group)
        words += [w.shift(off) for w in kws]
    return words


def _assert_same_table(got, ambient, words, max_cosets):
    want = todd_coxeter(ambient, words, max_cosets)
    assert (got.table, got.tree) == (want.table, want.tree)


@pytest.mark.parametrize("name", bundled_job_names())
def test_fiber_product_tables_match_todd_coxeter_on_bundled_lifts(name):
    job = load_bundled_job(name)
    budget = job.budgets.max_cosets
    res = build_pi1(job.actions, budget, job.budgets.tietze_steps)
    sub = res.subgroup
    _assert_same_table(sub.table, sub.ambient, _orbifold_group_words(res), budget)


def test_build_pi1_runs_one_rs_and_one_tietze_per_job(monkeypatch):
    calls = []
    for name in ("reidemeister_schreier", "tietze_simplify"):
        original = getattr(pq, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(pq, name, counting)
    for name in bundled_job_names():
        job = load_bundled_job(name)
        calls.clear()
        build_pi1(job.actions, job.budgets.max_cosets, job.budgets.tietze_steps)
        assert calls == ["reidemeister_schreier", "tietze_simplify"], name


def test_each_torsion_walk_is_taken_once_per_start_coset(monkeypatch):
    job = load_bundled_job("z2-three-kummer")
    res = build_pi1(job.actions, job.budgets.max_cosets, job.budgets.tietze_steps)
    walks = []
    original = SubgroupPresentation.walk

    def counting(self, coset, word):
        walks.append((coset, word))
        return original(self, coset, word)

    monkeypatch.setattr(SubgroupPresentation, "walk", counting)
    walked = {}
    words = [
        pq.torsion_word(res.subgroup, res.offsets, res.actions, te, walked) for te in res.torsion
    ]
    assert tuple(words) == res.torsion_words
    distinct = set()
    for te in res.torsion:
        c = 0
        for j, (a, off, f) in enumerate(zip(res.actions, res.offsets, te.factors)):
            distinct.add((j, c, f))
            c = res.subgroup.table.trace(c, f.word(a.vector.genus).shift(off))
    assert len(walks) == len(distinct)
    assert len(walks) < len(res.torsion) * len(res.actions)


def test_kernel_tables_match_todd_coxeter_on_beauville():
    # the canonical candidate (the acting group mod stabilizers, order 25)
    # and every surjection onto cyclic(5)
    res = build_pi1(parse_job(json.dumps(BEAUVILLE_JOB)).actions)
    pres = res.presentation
    candidates = [pq._canonical_candidate(res)]
    z5 = cyclic_group(5)
    candidates += [(z5, tup) for tup in pq._surjections(pres, z5)]
    assert len(candidates) == 1 + 124
    for group, values in candidates:
        table = _kernel_table(pres, group, values, res.max_cosets)
        assert table.index == group.order
        _assert_same_table(table, pres, kernel_subgroup_words(values, group), res.max_cosets)


# The image index [prod T_i' : im pi1] by enumeration: each factor's orbifold
# group with the killed period powers added (T_i'), and the orbifold
# group's generators, which are words in the factors' generators already,
# as the subgroup words.


def _enumerated_image_index(res):
    killed = []
    for a, kill in zip(res.actions, res.kills):
        genus = a.vector.genus
        extra = [Word(((2 * genus + q, e),)) for q in sorted(kill) for e in sorted(kill[q])]
        killed.append(quotient_presentation(a.orbifold(), extra))
    theta = res.subgroup.expansions
    return todd_coxeter(direct_product_presentation(killed), theta, res.max_cosets).index


@pytest.mark.parametrize("name", [*bundled_job_names(), "beauville"])
def test_image_index_matches_todd_coxeter(name):
    if name == "beauville":
        job = parse_job(json.dumps(BEAUVILLE_JOB))
    else:
        job = load_bundled_job(name)
    res = build_pi1(job.actions, job.budgets.max_cosets, job.budgets.tietze_steps)
    rep = structure_from_pi1(res)
    assert rep.t_index_exact
    assert rep.t_index_bound == _enumerated_image_index(res)
    if name == "beauville":
        assert rep.t_index_bound == 25
