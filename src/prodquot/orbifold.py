"""Orbifold surface groups, their signatures and generating vectors.

The group of signature (g; m_1, ..., m_r) has generators a_1, b_1, ..., a_g,
b_g, c_1, ..., c_r, the power relators c_i^{m_i}, and one long relator
[a_1,b_1]...[a_g,b_g] c_1 ... c_r.  A generating vector is a surjection onto
a finite group under which every c_i image has order exactly m_i; vectors
remember the period order they were written in, while Signature is canonical
(periods sorted ascending).  ``enumerate_generating_vectors`` lists them in
a fixed order, stated in its docstring, which reports print as it is.  One
private stream, ``_vector_images``, lists each vector's (a, b, c) image
tuples in that order: the public list wraps each in a ``GeneratingVector``,
and the ``enumerate`` report section reads the tuples themselves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from math import gcd

from .perm import FiniteGroup, GroupTooLarge
from .presentation import Presentation
from .words import Word


# enumeration walks element tuples of the target group; larger groups are refused
ENUMERATION_MAX_ORDER = 128


class NonIntegralGenus(ValueError):
    pass


class NegativeGenus(ValueError):
    pass


@dataclass(frozen=True)
class Signature:
    genus: int
    periods: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.genus < 0:
            raise ValueError("negative orbit genus")
        last = 2
        for m in self.periods:
            if m < 2:
                raise ValueError("periods must be at least 2")
            if m < last:
                raise ValueError("periods must be sorted ascending")
            last = m

    @staticmethod
    def of(genus: int, periods: Iterable[int] = ()) -> "Signature":
        return Signature(genus, tuple(sorted(periods)))

    @property
    def r(self) -> int:
        return len(self.periods)

    def orbifold_euler(self) -> Fraction:
        return Fraction(2 - 2 * self.genus) - sum(
            Fraction(m - 1, m) for m in self.periods
        )

    def is_hyperbolic(self) -> bool:
        return self.orbifold_euler() < 0

    def group_order(self) -> Optional[int]:
        """Order of the group, None when infinite (chi <= 0).  chi > 0 forces
        genus 0 and r <= 3: trivial, cyclic of order gcd(m_1, m_2), or a
        spherical triangle group of order 2 / chi."""
        chi = self.orbifold_euler()
        if chi <= 0:
            return None
        if self.r <= 1:
            return 1
        if self.r == 2:
            return gcd(*self.periods)
        return int(2 / chi)


def _gen_names(genus: int, r: int) -> tuple[str, ...]:
    names = []
    for i in range(genus):
        names.append(f"a{i + 1}")
        names.append(f"b{i + 1}")
    for i in range(r):
        names.append(f"c{i + 1}")
    return tuple(names)


def orbifold_relators(genus: int, periods: Sequence[int]) -> Presentation:
    """Presentation for an explicit (possibly unsorted) period order."""
    r = len(periods)
    names = _gen_names(genus, r)
    relators: list[Word] = []
    long_rel: list[tuple[int, int]] = []
    for i in range(genus):
        a, b = 2 * i, 2 * i + 1
        long_rel += [(a, 1), (b, 1), (a, -1), (b, -1)]
    for i, m in enumerate(periods):
        c = 2 * genus + i
        relators.append(Word(((c, m),)))
        long_rel.append((c, 1))
    if long_rel:
        relators.append(Word(tuple(long_rel)))
    return Presentation(names, tuple(relators))


def orbifold_presentation(s: Signature) -> Presentation:
    return orbifold_relators(s.genus, s.periods)


def riemann_hurwitz_genus(group_order: int, s: Signature) -> int:
    """Genus of the cover: 2g - 2 = |H| (2g' - 2 + sum(1 - 1/m))."""
    if group_order < 1:
        raise ValueError("group order must be positive")
    rhs = Fraction(group_order) * (
        Fraction(2 * s.genus - 2) + sum(Fraction(m - 1, m) for m in s.periods)
    )
    if rhs.denominator != 1 or (rhs.numerator % 2):
        raise NonIntegralGenus(f"2g-2 = {rhs} is not an even integer")
    g2 = int(rhs) + 2
    if g2 < 0:
        raise NegativeGenus(f"2g = {g2} < 0")
    return g2 // 2


@dataclass(frozen=True)
class GeneratingVector:
    """Images of the orbifold generators in a finite group.

    periods keeps the order the input used; c_images[i] must have order
    exactly periods[i].  Images are element indices of target.
    """

    target: FiniteGroup
    genus: int
    periods: tuple[int, ...]
    a_images: tuple[int, ...] = ()
    b_images: tuple[int, ...] = ()
    c_images: tuple[int, ...] = ()

    @property
    def signature(self) -> Signature:
        return Signature.of(self.genus, self.periods)

    def presentation(self) -> Presentation:
        return orbifold_relators(self.genus, self.periods)

    def gen_images(self) -> tuple[int, ...]:
        """Target element per presentation generator (a1, b1, ..., c1, ...)."""
        out = []
        for a, b in zip(self.a_images, self.b_images):
            out.append(a)
            out.append(b)
        out.extend(self.c_images)
        return tuple(out)


@dataclass(frozen=True)
class VectorViolation:
    kind: str  # "order" | "relation" | "generation"
    index: Optional[int]
    message: str


def validate_generating_vector(v: GeneratingVector) -> Optional[VectorViolation]:
    """First violated vector condition, or None when the vector is valid."""
    h = v.target
    if not (len(v.a_images) == len(v.b_images) == v.genus):
        return VectorViolation("relation", None, "a/b image counts must equal the genus")
    if len(v.c_images) != len(v.periods):
        return VectorViolation("relation", None, "one c image per period required")
    for i, (c, m) in enumerate(zip(v.c_images, v.periods)):
        got = h.element_order(c)
        if got != m:
            return VectorViolation(
                "order", i, f"c{i + 1} has order {got}, period demands {m}"
            )
    acc = 0
    for x in (*map(h.commutator, v.a_images, v.b_images), *v.c_images):
        acc = h.mul_idx(acc, x)
    if acc != 0:
        return VectorViolation(
            "relation", None, f"long relation evaluates to element {acc}, not identity"
        )
    size = len(h.generated((*v.a_images, *v.b_images, *v.c_images)))
    if size != h.order:
        return VectorViolation(
            "generation", None, f"images generate a subgroup of order {size} < {h.order}"
        )
    return None


def enumerate_generating_vectors(
    h: FiniteGroup, genus: int, periods: Sequence[int]
) -> list[GeneratingVector]:
    """All generating vectors for the given data, in a fixed order.

    The order is part of the contract (``enumerate`` reports print it): c
    images vary slowest, in ``itertools.product`` order over the elements of
    each exact order by ascending index, the last c solved from the long
    relation when the genus is 0; then a1, b1, ..., ag, bg, also in product
    order.  The last (a, b) pair is read from the commutator table, bucketed
    by value once per call; the earlier pairs' commutator products are also
    taken once per call.  The vectors kept are those that generate h, tested
    once per call for each set of elements they hold (a bitmask of indices).
    """
    periods = tuple(periods)
    return [GeneratingVector(h, genus, periods, *v) for v in _vector_images(h, genus, periods)]


def _vector_images(h: FiniteGroup, genus: int, periods: tuple[int, ...]) -> list[tuple]:
    """The (a_images, b_images, c_images) of each generating vector, in the
    order of ``enumerate_generating_vectors``."""
    if h.order > ENUMERATION_MAX_ORDER:
        raise GroupTooLarge(f"vector enumeration capped at order {ENUMERATION_MAX_ORDER}")
    n = h.order
    orders = [h.element_order(e) for e in range(n)]
    pools = [[e for e in range(n) if orders[e] == m] for m in periods]
    if not all(pools):
        return []
    mul = h.cayley_table()
    inv = [h.inv_idx(e) for e in range(n)]
    solve_last = genus == 0 and bool(periods)
    # last_pairs[v]: each pair (a, b) with [a, b] == v, in product order, and
    # its mask; at genus 0 the one empty "pair" is an empty product
    comm: list[list[int]] = []
    last_pairs: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(n)]
    if genus:
        comm = [[h.commutator(a, b) for b in range(n)] for a in range(n)]
        for a, b in itertools.product(range(n), repeat=2):
            last_pairs[comm[a][b]].append(((a, b), 1 << a | 1 << b))
    else:
        last_pairs[0].append(((), 0))
    # every (a1, b1, ..., a_{g-1}, b_{g-1}) with its mask and the inverse of
    # its commutator product
    leads = []
    for lead in itertools.product(range(n), repeat=max(2 * genus - 2, 0)):
        acc = 0
        for i in range(0, len(lead), 2):
            acc = mul[acc][comm[lead[i]][lead[i + 1]]]
        leads.append((lead, sum(1 << e for e in {*lead}), inv[acc]))
    results = []
    # whether a set of elements generates h, per set met in this call
    generating: dict[int, bool] = {}
    for cs in itertools.product(*(pools[:-1] if solve_last else pools)):
        prod = 0
        for c in cs:
            prod = mul[prod][c]
        needed = inv[prod]  # what the product of the commutators must equal
        if solve_last:
            if orders[needed] != periods[-1]:
                continue
            cs += (needed,)
            needed = 0
        cs_mask = sum(1 << c for c in {*cs})
        for lead, lead_mask, lead_inv in leads:
            for last, last_mask in last_pairs[mul[lead_inv][needed]]:
                mask = cs_mask | lead_mask | last_mask
                generates = generating.get(mask)
                if generates is None:
                    generates = generating[mask] = len(h.generated((*lead, *last, *cs))) == n
                if generates:
                    abs_ = lead + last
                    results.append((abs_[0::2], abs_[1::2], cs))
    return results


def quotient_signature(s: Signature, kill: Mapping[int, Iterable[int]]) -> Signature:
    """Signature after killing powers of period generators.

    kill maps a period index to the exponents whose powers die; the new
    period is gcd(m, exponents), dropped when it reaches 1.  The genus is
    unchanged.
    """
    norm: dict[int, tuple[int, ...]] = {i: tuple(exps) for i, exps in kill.items()}
    for idx, exps in norm.items():
        if not 0 <= idx < len(s.periods):
            raise ValueError(f"period index {idx} out of range")
        for e in exps:
            if e <= 0:
                raise ValueError("kill exponents must be positive")
    new_periods = []
    for i, m in enumerate(s.periods):
        d = m
        for e in norm.get(i, ()):
            d = gcd(d, e)
        if d > 1:
            new_periods.append(d)
    return Signature.of(s.genus, new_periods)
