"""Fundamental groups of quotients of curve products by diagonal actions.

A finite group G acts on each factor curve through a quotient map
p_i : G -> H_i and a generating vector for H_i, which is the image of the
factor's orbifold group T_i under phi_i.  This module builds:

  * the orbifold fundamental group, the preimage of D(G) = {(p_1(g), ...,
    p_n(g))} under phi_1 x ... x phi_n in T_1 x ... x T_n, presented by
    Reidemeister-Schreier,
  * the finite set of torsion normal forms whose normal closure kills
    exactly the elements with fixed points,
  * a finite presentation of the fundamental group of the quotient,
  * a structure report for the extension of the orbifold-quotient image
    by a finite kernel, and a bounded search for a finite-index subgroup
    that looks like a product of surface groups.

The orbifold group and the search's kernels are preimages of subgroups of
products of finite groups, so their coset tables are read off those groups,
and the index of pi1's image in the orbifold quotients is counted in the
acting groups; Todd-Coxeter runs only for |pi1|.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterator, Optional, Sequence

from .abelian import AbelianInvariants
from .coset import DEFAULT_MAX_COSETS, CosetOverflow, fiber_product_table, todd_coxeter
from .orbifold import (
    GeneratingVector,
    Signature,
    quotient_signature,
    riemann_hurwitz_genus,
    validate_generating_vector,
)
from .perm import (
    FiniteGroup,
    GroupHom,
    centralizer,
    conjugating_element,
    cyclic_group,
    dihedral_group,
    direct_product_group,
    normal_closure,
    quotient,
)
from .presentation import (
    DEFAULT_TIETZE_STEPS,
    Presentation,
    abelian_invariants,
    direct_product_presentation,
    product_offsets,
    quotient_presentation,
    tietze_simplify,
    transport_word,
)
from .rewrite import (
    SubgroupPresentation,
    bfs_section,
    evaluate_word,
    kernel_subgroup_words,
    reidemeister_schreier,
    subgroup_abelian_invariants,
)
from .words import Word, word_from_letters, word_product

DEFAULT_INDEX_BOUND = 8
_HOM_TUPLE_BOUND = 200_000


class InvalidVector(ValueError):
    """A generating vector violated an order, relation, or generation check."""


# ---------------------------------------------------------------------------
# One factor: the acting group and the curve.


@dataclass(frozen=True)
class CurveAction:
    """One factor: G acts on a curve through p and a generating vector."""

    group: FiniteGroup
    projection: GroupHom
    vector: GeneratingVector
    genus: int
    kernel_indices: tuple[int, ...]
    section: tuple[Word, ...]  # H element -> orbifold word mapping onto it
    powers: tuple[tuple[int, ...], ...]  # powers[q][ell] = image of c_q^ell, ell < m_q

    @property
    def acting_group(self) -> FiniteGroup:
        return self.projection.target

    @property
    def signature(self) -> Signature:
        return self.vector.signature

    def orbifold(self) -> Presentation:
        return self.vector.presentation()

    def p_of(self, g_idx: int) -> int:
        return self.projection.apply_idx(g_idx)


def build_curve_action(
    group: FiniteGroup, projection: GroupHom, vector: GeneratingVector
) -> CurveAction:
    if projection.source is not group:
        raise ValueError("projection must be defined on the acting group")
    if not projection.is_surjective():
        raise ValueError("projection must map onto the curve's symmetry group")
    if vector.target is not projection.target:
        raise ValueError("vector and projection must share their target group")
    violation = validate_generating_vector(vector)
    if violation is not None:
        raise InvalidVector(violation.message)
    genus = riemann_hurwitz_genus(vector.target.order, vector.signature)
    h = vector.target
    section = bfs_section(h, vector.gen_images())
    return CurveAction(
        group, projection, vector, genus, tuple(projection.kernel_indices()), section,
        tuple(map(h.powers, vector.c_images)),
    )


# ---------------------------------------------------------------------------
# Torsion normal forms.


@dataclass(frozen=True)
class TorsionFactor:
    """One coordinate of a torsion normal form: twist * d^exponent * twist^-1."""

    period_index: Optional[int]  # index into the factor's period list
    exponent: int  # 0 encodes the trivial coordinate
    twist: Word  # conjugating word over the factor's orbifold generators

    def word(self, genus: int) -> Word:
        if self.exponent == 0:
            return Word()
        core = Word(((2 * genus + self.period_index, self.exponent),))
        return self.twist * core * self.twist.inverse()


_TRIVIAL_FACTOR = TorsionFactor(None, 0, Word())


@dataclass(frozen=True)
class TorsionElement:
    """Normal form of a finite-order element of the orbifold group."""

    g: int  # element index in G
    factors: tuple[TorsionFactor, ...]
    distinguished: Optional[int]  # factor whose twist is trivial by construction


def _common_kernel(actions: Sequence[CurveAction]) -> set[int]:
    return set(actions[0].kernel_indices).intersection(*(a.kernel_indices for a in actions[1:]))


def _check_coordinate(action: CurveAction, f: TorsionFactor, target: int) -> None:
    w = f.word(action.vector.genus)
    if evaluate_word(w, action.vector.gen_images(), action.acting_group) != target:
        raise RuntimeError("torsion coordinate image does not match the fiber")


def _factor_options(action: CurveAction, target: int) -> list[TorsionFactor]:
    """All normal-form coordinates whose image equals the given H element,
    each nontrivial one checked against it."""
    h = action.acting_group
    opts: list[TorsionFactor] = []
    if target == 0:
        opts.append(_TRIVIAL_FACTOR)
    for q, row in enumerate(action.powers):
        for ell, base in enumerate(row[1:], 1):
            c = conjugating_element(h, base, target)
            if c is None:
                continue
            for v in centralizer(h, base):
                f = TorsionFactor(q, ell, action.section[h.mul_idx(c, v)])
                _check_coordinate(action, f, target)
                opts.append(f)
    return opts


def torsion_generators(actions: Sequence[CurveAction]) -> list[TorsionElement]:
    """Finite set of normal forms whose normal closure is all of the torsion.

    One factor is distinguished and carries an untwisted nontrivial power;
    earlier factors are trivial, later ones run over every compatible
    conjugate-power coordinate with twists drawn from the stored sections.
    The joint kernel of the projections acts trivially, so it adds no form.

    A coordinate's image depends on its factor but not on the G element,
    so each factor's options are built once per H element and each
    nontrivial one is checked against that H element as it is built: a
    distinct coordinate is evaluated once, however many forms share it.  The
    forms are distinct by construction: they differ in the distinguished
    factor, its power, the G element or a twist, and distinct H elements
    have distinct section words.
    """
    acts = list(actions)
    if not acts:
        raise ValueError("at least one factor required")
    g = acts[0].group
    n = len(acts)
    out: list[TorsionElement] = []
    fibers = [tuple(a.p_of(e) for a in acts) for e in range(g.order)]
    options: dict[tuple[int, int], list[TorsionFactor]] = {}  # (factor, H element)
    for i, ai in enumerate(acts):
        for q, row in enumerate(ai.powers):
            for ell, target in enumerate(row[1:], 1):
                fiber = [
                    (e, images)
                    for e, images in enumerate(fibers)
                    if images[i] == target and not any(images[:i])
                ]
                if not fiber:
                    continue
                pivot = TorsionFactor(q, ell, Word())
                _check_coordinate(ai, pivot, target)
                for e, images in fiber:
                    columns = [[_TRIVIAL_FACTOR]] * i + [[pivot]]
                    for j in range(i + 1, n):
                        key = (j, images[j])
                        if key not in options:
                            options[key] = _factor_options(acts[j], images[j])
                        columns.append(options[key])
                    out.extend(
                        TorsionElement(e, combo, i) for combo in itertools.product(*columns)
                    )
    return out


# ---------------------------------------------------------------------------
# Freeness.


@dataclass(frozen=True)
class FreenessResult:
    is_free: bool
    witness: Optional[int]  # G element fixing a point on every factor


def freeness_check(actions: Sequence[CurveAction]) -> FreenessResult:
    """An element has a fixed point on a factor exactly when its image there
    is conjugate to a power (zeroth included) of a period image."""
    acts = list(actions)
    g = acts[0].group
    fixed_sets = []
    for a in acts:
        h = a.acting_group
        hits = {0}
        for row in a.powers:
            for x in row[1:]:
                hits.update(h.conjugacy_class(x))
        fixed_sets.append(hits)
    for e in range(1, g.order):
        if all(a.p_of(e) in hits for a, hits in zip(acts, fixed_sets)):
            return FreenessResult(False, e)
    return FreenessResult(True, None)


# ---------------------------------------------------------------------------
# The fundamental group.


@dataclass
class Pi1Result:
    """Presentation of the fundamental group plus its provenance."""

    presentation: Presentation
    raw_presentation: Presentation  # orbifold-group generators, pre-simplification
    actions: tuple[CurveAction, ...]
    subgroup: SubgroupPresentation  # the orbifold group inside T_1 x ... x T_n
    offsets: tuple[int, ...]  # first product generator of each factor
    torsion: tuple[TorsionElement, ...]
    torsion_words: tuple[Word, ...]  # torsion normal forms over subgroup generators
    old_to_new: tuple[Word, ...]
    psi: tuple[int, ...]  # least G element over each surviving generator's image
    max_cosets: int  # coset budget of every enumeration on this group

    @property
    def group(self) -> FiniteGroup:
        return self.actions[0].group

    def transport(self, word: Word) -> Word:
        """Carry a word over the subgroup generators into the simplified
        presentation."""
        return transport_word(word, self.old_to_new)

    def product_word(self, parts: Sequence[Word]) -> Word:
        """The element with the given orbifold word per factor, whose images
        must lie over one G element, in the simplified presentation."""
        word = word_product(part.shift(off) for part, off in zip(parts, self.offsets))
        return self.transport(self.subgroup.rewrite(word))

    @cached_property
    def abelianization(self) -> AbelianInvariants:
        return abelian_invariants(self.presentation)

    @cached_property
    def kills(self) -> list[dict[int, set[int]]]:
        return kill_maps(self.actions, self.torsion)

    @cached_property
    def quotient_signatures(self) -> tuple[Signature, ...]:
        return quotient_signatures(self.actions, self.kills)

    @cached_property
    def order(self) -> Optional[int]:
        """|pi1|, or None when it is infinite or overflows max_cosets.  pi1 is
        a finite extension of a finite-index subgroup of the product of the
        quotient orbifold groups, so only then is it finite and enumerated."""
        if any(s.group_order() is None for s in self.quotient_signatures):
            return None
        return _order_probe(self.presentation, self.max_cosets)


def torsion_word(
    subgroup: SubgroupPresentation,
    offsets: Sequence[int],
    actions: Sequence[CurveAction],
    te: TorsionElement,
    walks: dict[tuple[int, int, TorsionFactor], tuple[list[int], int]],
) -> Word:
    """A torsion normal form as a word over the subgroup's generators.

    The form is the product of its coordinates, so it is walked through the
    coset table one coordinate after another.  walks keeps each (factor,
    start coset, coordinate) walk: shared across one job's forms, each
    distinct walk is taken once."""
    letters: list[int] = []
    c = 0
    for j, (a, off, f) in enumerate(zip(actions, offsets, te.factors)):
        walk = walks.get((j, c, f))
        if walk is None:
            walk = walks[j, c, f] = subgroup.walk(c, f.word(a.vector.genus).shift(off))
        letters += walk[0]
        c = walk[1]
    if c:
        raise RuntimeError("torsion normal form is not in the orbifold group")
    return word_from_letters(letters)


def build_pi1(
    actions: Sequence[CurveAction],
    max_cosets: int = DEFAULT_MAX_COSETS,
    tietze_steps: int = DEFAULT_TIETZE_STEPS,
) -> Pi1Result:
    """pi1 of the quotient: the orbifold group, the preimage of D(G) in the
    product of the factors' orbifold groups, modulo its torsion."""
    acts = tuple(actions)
    if not acts:
        raise ValueError("at least one factor required")
    g = acts[0].group
    if any(a.group is not g for a in acts):
        raise ValueError("all factors must share the acting group")
    orbifolds = [a.orbifold() for a in acts]
    ambient = direct_product_presentation(orbifolds)
    offsets = tuple(product_offsets(orbifolds))
    over: dict[tuple[int, ...], int] = {}  # member of D(G) -> least G element over it
    for e in range(g.order):
        over.setdefault(tuple(a.p_of(e) for a in acts), e)
    images = [a.vector.gen_images() for a in acts]
    table = fiber_product_table(
        ambient, [a.acting_group for a in acts], over, images, max_cosets
    )
    sub = reidemeister_schreier(ambient, table, prefix="y")
    torsion = torsion_generators(acts)
    walks: dict[tuple[int, int, TorsionFactor], tuple[list[int], int]] = {}
    words = []
    for te in torsion:
        w = torsion_word(sub, offsets, acts, te, walks)
        if w.is_identity():
            raise RuntimeError("torsion element rewrote to the identity")
        words.append(w)
    raw = quotient_presentation(sub.presentation, words)
    tz = tietze_simplify(raw, tietze_steps)
    positions = {name: i for i, name in enumerate(raw.gens)}
    # Phi's factor j on product generators: the other factors' go to 1
    phis = [
        (0,) * off + vals + (0,) * (ambient.ngens - off - len(vals))
        for off, vals in zip(offsets, images)
    ]
    psi = []
    for name in tz.presentation.gens:
        w = sub.expansions[positions[name]]
        image = tuple(evaluate_word(w, phi, a.acting_group) for a, phi in zip(acts, phis))
        if image not in over:
            raise RuntimeError("a generator's image lies over no acting-group element")
        psi.append(over[image])
    return Pi1Result(
        tz.presentation, raw, acts, sub, offsets, tuple(torsion), tuple(words), tz.old_to_new,
        tuple(psi), max_cosets,
    )


def lifted_orbifold_generators(res: Pi1Result, factor: int) -> list[Word]:
    """Images of one factor's orbifold generators in the simplified group.

    Each generator is paired with the least G element over its image and
    completed by the other factors' section words over that element.
    """
    action = res.actions[factor]
    images = action.vector.gen_images()
    out = []
    for x in range(action.orbifold().ngens):
        g_idx = next(e for e in range(res.group.order) if action.p_of(e) == images[x])
        parts = [a.section[a.p_of(g_idx)] for a in res.actions]
        parts[factor] = Word(((x, 1),))
        out.append(res.product_word(parts))
    return out


def curve_group_image_words(res: Pi1Result) -> list[Word]:
    """Generators of the image of the product of the curve groups.

    Per factor, Schreier generators of the orbifold map's kernel are placed
    in an otherwise-trivial tuple and carried into the simplified group.
    """
    out = []
    for j, a in enumerate(res.actions):
        for kw in kernel_subgroup_words(a.vector.gen_images(), a.acting_group):
            parts = [Word()] * len(res.actions)
            parts[j] = kw
            out.append(res.product_word(parts))
    return out


# ---------------------------------------------------------------------------
# Structure of the extension by the orbifold-quotient image.


@dataclass(frozen=True)
class VerificationReport:
    status: str  # "FOUND" | "FINITE" | "INCONCLUSIVE"
    index: Optional[int] = None
    free_rank: Optional[int] = None
    order: Optional[int] = None
    quotient: Optional[str] = None
    invariants: Optional[AbelianInvariants] = None
    detail: str = ""


@dataclass(frozen=True)
class StructureReport:
    quotient_signatures: tuple[Signature, ...]
    t_index_bound: int
    t_index_exact: bool
    e_order_bound: Optional[int]  # None: some factor's kills generate an infinite kernel
    e_order_exact: bool
    freeness: bool
    abelianization: AbelianInvariants
    pi1_order: Optional[int]  # None: infinite, or finite beyond max_cosets
    orbifold_quotient_order: Optional[int]  # None: infinite
    intersection_kernel_order: int
    notes: tuple[str, ...]


def kill_maps(
    actions: Sequence[CurveAction], torsion: Sequence[TorsionElement]
) -> list[dict[int, set[int]]]:
    """Per factor, the exponents of each period generator hit by torsion."""
    kills: list[dict[int, set[int]]] = [{} for _ in actions]
    for te in torsion:
        for j, f in enumerate(te.factors):
            if f.exponent:
                kills[j].setdefault(f.period_index, set()).add(f.exponent)
    return kills


def quotient_signatures(
    actions: Sequence[CurveAction], kills: Sequence[dict[int, set[int]]]
) -> tuple[Signature, ...]:
    """Each factor's signature after its kills, which are keyed by the
    vector's period order: a stable argsort places them in the signature's."""
    out = []
    for a, kill in zip(actions, kills):
        periods = a.vector.periods
        order = sorted(range(len(periods)), key=periods.__getitem__)
        out.append(
            quotient_signature(a.signature, {i: kill[q] for i, q in enumerate(order) if q in kill})
        )
    return tuple(out)


def _order_probe(p: Presentation, max_cosets: int) -> Optional[int]:
    try:
        return todd_coxeter(p, [], max_cosets).index
    except CosetOverflow:
        return None


def structure_from_pi1(res: Pi1Result) -> StructureReport:
    acts = res.actions
    g = res.group
    n = len(acts)
    notes: list[str] = []
    free = freeness_check(acts)
    kills = res.kills
    sigs = res.quotient_signatures
    # [prod T_i' : im pi1] = [prod H_i : D * prod M_i], where D is G's
    # diagonal image and M_i the normal closure of the killed period powers
    t_index = 1
    in_closures = set(range(g.order))
    for a, kill in zip(acts, kills):
        h = a.acting_group
        seeds = {a.powers[q][e] for q in kill for e in kill[q]}
        m = set(normal_closure(h, seeds))
        t_index *= h.order // len(m)
        in_closures = {e for e in in_closures if a.p_of(e) in m}
    t_index = t_index * len(in_closures) // g.order
    if g.order ** (n - 1) % t_index:
        raise RuntimeError("image index does not divide the ambient index")
    pi1_order = res.order
    orders = [s.group_order() for s in sigs]
    orb_order = None if None in orders else math.prod(orders)
    if pi1_order is None:
        notes.append("fundamental group not finite within the probe budget")
    if orb_order is None:
        notes.append("orbifold quotient product not finite within the probe budget")
    inter = len(_common_kernel(acts))
    if not any(kills):
        e_bound: Optional[int] = inter
        e_exact = inter == 1
        if not e_exact:
            notes.append("joint-kernel count reported as the kernel bound")
    elif pi1_order is not None and orb_order is not None:
        if orb_order % t_index:
            raise RuntimeError("image order bookkeeping failed")
        t_order = orb_order // t_index
        if pi1_order % t_order:
            raise RuntimeError("kernel order bookkeeping failed")
        e_bound = pi1_order // t_order
        e_exact = True
    else:
        e_bound = inter
        e_exact = False
        for a, k, s in zip(acts, kills, sigs):
            if not k:
                continue
            # the kills normally generate a subgroup of order |T| / |T'|;
            # an infinite Fuchsian or crystallographic T has no nontrivial
            # finite normal subgroup, so there it is infinite
            full = a.signature.group_order()
            if full is None:
                e_bound = None
                notes.append("kernel order unbounded within budget")
                break
            e_bound *= full // s.group_order()
    return StructureReport(
        sigs, t_index, True, e_bound, e_exact, free.is_free, res.abelianization, pi1_order,
        orb_order, inter, tuple(notes),
    )


# ---------------------------------------------------------------------------
# Bounded search for a finite-index product-of-surface-groups subgroup.


def _quotient_catalogue(
    index_bound: int,
) -> list[tuple[str, tuple[int, ...], partial[FiniteGroup]]]:
    """Cyclic, dihedral and two-factor abelian groups of order at most
    index_bound, by (order, name), each with the orders of cyclic groups
    whose product is its abelianization, in closed form, and its builder.
    Orders are known without the groups, so the search closes a group only
    when it reaches it, and not at all when its abelianization rules it out."""
    entries = [
        (m, f"cyclic({m})", (m,), partial(cyclic_group, m)) for m in range(2, index_bound + 1)
    ]
    entries += [
        (2 * m, f"dihedral({m})", (2,) * (2 - m % 2), partial(dihedral_group, m))
        for m in range(3, index_bound // 2 + 1)
    ]
    entries += [
        (a * b, f"abelian({a}x{b})", (a, b), partial(_abelian_group, a, b))
        for a in range(2, index_bound + 1)
        for b in range(a, index_bound // a + 1)
    ]
    entries.sort(key=lambda entry: entry[:2])
    return [entry[1:] for entry in entries]


def _abelian_group(a: int, b: int) -> FiniteGroup:
    return direct_product_group(cyclic_group(a), cyclic_group(b))


def _maps_onto(h1: AbelianInvariants, orders: Sequence[int]) -> bool:
    """Whether h1 maps onto the product of cyclic groups of these orders: it
    does exactly when, for every prime power q, at least as many of h1's
    cyclic factors as of the target's have an order that q divides, a copy of
    Z counting for every q.  Other q add nothing: h1's torsion is a
    divisibility chain, so its count at q is the least of its counts at q's
    prime powers, and the target's is at most each of those."""
    return all(
        sum(o % q == 0 for o in orders) <= h1.free_rank + sum(t % q == 0 for t in h1.torsion)
        for q in range(2, max(orders) + 1)
    )


def _surjections(p: Presentation, quo: FiniteGroup) -> Iterator[tuple[int, ...]]:
    """Generator tuples of the surjections p -> quo, in product order.  Each
    relator is tested as a row of (generator, exponent mod |quo|) pairs read
    through a power table: its letters, or on an abelian quo, where its value
    depends only on its exponent sums, those sums: O(ngens), not O(length)."""
    k = p.ngens
    n = quo.order
    if k == 0 or n**k > _HOM_TUPLE_BOUND:
        return
    mul = quo.cayley_table()
    powers = [[0] * n for _ in range(n)]  # powers[v][e] = v^e
    for v in range(n):
        for e in range(1, n):
            powers[v][e] = mul[powers[v][e - 1]][v]
    abelian = all(mul[a][b] == mul[b][a] for a in range(n) for b in range(a))
    relators = [enumerate(r.exponent_sums(k)) if abelian else r.letters for r in p.relators]
    rows = dict.fromkeys(tuple((g, e % n) for g, e in r if e % n) for r in relators)
    rows.pop((), None)
    for tup in itertools.product(range(n), repeat=k):
        for row in rows:
            acc = 0
            for g, e in row:
                acc = mul[acc][powers[tup[g]][e]]
            if acc:
                break
        else:
            if len(quo.generated(tup)) == n:
                yield tup


def _try_subgroup(
    res: Pi1Result,
    desc: str,
    quo: FiniteGroup,
    values: Sequence[int],
    tried: set[tuple[tuple[int, ...], ...]],
) -> Optional[VerificationReport]:
    """Test the kernel of pi1 -> quo given by values.  tried holds the
    standardized coset tables this search has met; a standardized table
    determines its subgroup, so a kernel met again (surjections differing by
    an automorphism of quo share one) was already rejected."""
    pres = res.presentation
    try:
        table = fiber_product_table(
            pres, [quo, quo], ((q, q) for q in range(quo.order)), [values, ()], res.max_cosets
        )
    except CosetOverflow:
        return None
    key = tuple(map(tuple, table.table))
    if key in tried:
        return None
    tried.add(key)
    inv = subgroup_abelian_invariants(pres, table)
    if not inv.torsion and inv.free_rank % 2 == 0:
        return VerificationReport(
            "FOUND",
            index=table.index,
            free_rank=inv.free_rank,
            quotient=desc,
            invariants=inv,
            detail="torsion-free abelianization of even rank",
        )
    return None


def _canonical_candidate(res: Pi1Result) -> tuple[FiniteGroup, tuple[int, ...]]:
    """The acting group modulo the stabilizer images, and the image of each
    simplified generator in it.  psi names a generator's G element only up
    to the joint kernel, so the closure takes the kernel in too."""
    g = res.group
    stabilizers = {te.g for te in res.torsion} | _common_kernel(res.actions)
    quo, proj = quotient(g, normal_closure(g, stabilizers))
    return quo, tuple(proj.apply_idx(v) for v in res.psi)


def _verify(res: Pi1Result, index_bound: int) -> VerificationReport:
    if index_bound < 1:
        return VerificationReport("INCONCLUSIVE", detail="no search budget")
    pres = res.presentation
    if res.order is not None:
        return VerificationReport("FINITE", order=res.order, detail="fundamental group is finite")
    if not all(s.is_hyperbolic() for s in res.quotient_signatures):
        return VerificationReport(
            "INCONCLUSIVE", detail="quotient signatures are not all hyperbolic"
        )
    tried: set[tuple[tuple[int, ...], ...]] = set()
    quo, values = _canonical_candidate(res)
    if quo.order <= index_bound:
        for rel in pres.relators:
            if evaluate_word(rel, values, quo) != 0:
                raise RuntimeError("acting-group images are not a homomorphism")
        report = _try_subgroup(
            res, f"acting group mod stabilizers (order {quo.order})", quo, values, tried
        )
        if report is not None:
            return report
    for desc, orders, build in _quotient_catalogue(index_bound):
        if not _maps_onto(res.abelianization, orders):
            continue
        cand = build()
        for tup in _surjections(pres, cand):
            report = _try_subgroup(res, desc, cand, tup, tried)
            if report is not None:
                return report
    return VerificationReport(
        "INCONCLUSIVE", detail="no qualifying subgroup within budget"
    )


def verify_from_pi1(
    res: Pi1Result, index_bound: int = DEFAULT_INDEX_BOUND
) -> VerificationReport:
    """Search for a finite-index subgroup of pi1 whose abelianization is
    torsion-free of even rank, over quotients of order at most index_bound.
    Every surjection onto a quotient Q factors through H1 -> Q^ab, so a
    catalogue group whose abelianization H1 (``res.abelianization``, computed
    when the search reaches the catalogue) does not map onto is skipped
    unbuilt.  Each kernel's coset table is read off the quotient
    (``fiber_product_table`` on the diagonal of quo x quo, with a
    generator-free second factor); one larger than the coset budget res was
    built with is skipped."""
    return _verify(res, index_bound)
