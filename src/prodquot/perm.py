"""Finite permutation groups with deterministic element indexing.

Elements are stored in the order a breadth-first closure from the generators
discovers them (identity first, then right-multiplications in generator
order), and every "least element" tie-break in the package refers to this
index.  Closure raises GroupTooLarge past MAX_ORDER elements, so the Cayley
table (built on first use) has at most 10**6 entries, and every homomorphism
can be checked on all pairs.  All element arithmetic -- products, inverses,
commutators, powers and orders -- is read off that table; ``Permutation``
arithmetic runs only while closing the group and building the table.  A
subgroup is the sorted list of its element indices (``normal_closure``,
``centralizer``, a hom's ``kernel_indices``), and ``quotient`` takes one.
Groups are immutable once built (the table is a cache of fixed content) and
safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

MAX_ORDER = 1000


class GroupTooLarge(RuntimeError):
    pass


class NotAHomomorphism(ValueError):
    pass


@dataclass(frozen=True)
class Permutation:
    """Permutation of 0..degree-1; composition applies the right factor first."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation of 0..{len(self.images) - 1}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.degree)))

    def inverse(self) -> "Permutation":
        out = [0] * self.degree
        for i, v in enumerate(self.images):
            out[v] = i
        return Permutation(tuple(out))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def order(self) -> int:
        n = 1
        acc = self
        while not acc.is_identity():
            acc = acc * self
            n += 1
        return n

    def __call__(self, point: int) -> int:
        return self.images[point]


def identity_perm(degree: int) -> Permutation:
    return Permutation(tuple(range(degree)))


def perm_from_cycles(degree: int, cycles: Sequence[Sequence[int]]) -> Permutation:
    images = list(range(degree))
    for cyc in cycles:
        for i, pt in enumerate(cyc):
            images[pt] = cyc[(i + 1) % len(cyc)]
    return Permutation(tuple(images))


class FiniteGroup:
    """A finite permutation group closed from an explicit generator list."""

    def __init__(self, generators: Sequence[Permutation], degree: Optional[int] = None):
        if degree is None:
            if not generators:
                raise ValueError("degree required for an empty generator list")
            degree = generators[0].degree
        for g in generators:
            if g.degree != degree:
                raise ValueError("generator degrees disagree")
        self.degree = degree
        self.generators = tuple(g for g in generators)
        gen_images = [g.images for g in self.generators]
        images: list[tuple[int, ...]] = [tuple(range(degree))]
        index = {images[0]: 0}
        # word chain: elements[i] == elements[parent_of[i]] * generators[gen_of[i]]
        parent_of = [-1]
        gen_of = [-1]
        for e_idx, elem in enumerate(images):
            for g_idx, g in enumerate(gen_images):
                prod = tuple(map(elem.__getitem__, g))
                if prod not in index:
                    if len(images) >= MAX_ORDER:
                        raise GroupTooLarge(f"order exceeds {MAX_ORDER}")
                    index[prod] = len(images)
                    images.append(prod)
                    parent_of.append(e_idx)
                    gen_of.append(g_idx)
        self.elements = tuple(map(Permutation, images))
        self._index = index
        self.gen_indices = tuple(index[g] for g in gen_images)
        self._parent_of = parent_of
        self._gen_of = gen_of
        self._inverse: Optional[list[int]] = None
        self._table: Optional[list[tuple[int, ...]]] = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_index(self, perm: Permutation) -> int:
        try:
            return self._index[perm.images]
        except KeyError:
            raise KeyError("permutation is not an element of this group") from None

    def cayley_table(self) -> list[tuple[int, ...]]:
        """Rows of element indices: ``cayley_table()[a][b]`` is a * b.

        Built on first use, column by column along the word chain
        (a * e_i == (a * e_parent) * generator), so it costs one right
        multiplication per element and generator plus order**2 lookups.
        """
        if self._table is None:
            n = self.order
            index = self._index
            images = [e.images for e in self.elements]
            right = [
                [index[tuple(map(x.__getitem__, g.images))] for x in images]
                for g in self.generators
            ]
            cols: list[list[int]] = [list(range(n))]  # cols[b][a] == a * b
            for i in range(1, n):
                step = right[self._gen_of[i]]
                cols.append(list(map(step.__getitem__, cols[self._parent_of[i]])))
            self._table = list(zip(*cols))
        return self._table

    def mul_idx(self, a: int, b: int) -> int:
        return (self._table or self.cayley_table())[a][b]

    def generated(self, indices: Iterable[int]) -> list[int]:
        """Element indices of the subgroup generated by the given ones, in
        breadth-first order from the identity."""
        table = self.cayley_table()
        gens = sorted(set(indices) - {0})
        seen = bytearray(self.order)
        seen[0] = 1
        queue = [0]
        for x in queue:
            row = table[x]
            for g in gens:
                y = row[g]
                if not seen[y]:
                    seen[y] = 1
                    queue.append(y)
        return queue

    def inv_idx(self, a: int) -> int:
        if self._inverse is None:
            self._inverse = [row.index(0) for row in self.cayley_table()]
        return self._inverse[a]

    def conj_idx(self, h: int, a: int) -> int:
        """h a h^-1 by element indices."""
        return self.mul_idx(self.mul_idx(h, a), self.inv_idx(h))

    def commutator(self, a: int, b: int) -> int:
        """a b a^-1 b^-1 by element indices."""
        return self.mul_idx(self.conj_idx(a, b), self.inv_idx(b))

    def powers(self, a: int) -> tuple[int, ...]:
        """The cyclic subgroup of a in order: (1, a, a^2, ..., a^(k-1))."""
        table = self.cayley_table()
        out = [0]
        x = a
        while x:
            out.append(x)
            x = table[x][a]
        return tuple(out)

    def element_order(self, a: int) -> int:
        return len(self.powers(a))

    def element_word(self, a: int) -> list[int]:
        """Generator indices whose left-to-right product is element a."""
        out: list[int] = []
        while a != 0:
            out.append(self._gen_of[a])
            a = self._parent_of[a]
        out.reverse()
        return out

    def conjugacy_class(self, a: int) -> tuple[int, ...]:
        seen = {a}
        queue = [a]
        for x in queue:
            for gi in self.gen_indices:
                y = self.conj_idx(gi, x)
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return tuple(sorted(seen))


def trivial_group(degree: int = 1) -> FiniteGroup:
    return FiniteGroup([], degree=degree)


def cyclic_group(n: int) -> FiniteGroup:
    return FiniteGroup([perm_from_cycles(n, [tuple(range(n))])]) if n > 1 else trivial_group()


def symmetric_group(n: int) -> FiniteGroup:
    if n < 2:
        return trivial_group(max(n, 1))
    gens = [perm_from_cycles(n, [(0, 1)]), perm_from_cycles(n, [tuple(range(n))])]
    if n == 2:
        gens = gens[:1]
    return FiniteGroup(gens)


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the n-gon, order 2n (n >= 3)."""
    rot = perm_from_cycles(n, [tuple(range(n))])
    flip = Permutation(tuple((n - i) % n for i in range(n)))
    return FiniteGroup([rot, flip])


def direct_product_group(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Product acting on the disjoint union of the two point sets."""
    d = a.degree + b.degree
    gens = [
        Permutation(tuple(g.images[i] if i < a.degree else i for i in range(d)))
        for g in a.generators
    ]
    for g in b.generators:
        images = tuple(i if i < a.degree else g.images[i - a.degree] + a.degree for i in range(d))
        gens.append(Permutation(images))
    return FiniteGroup(gens, degree=d)


class GroupHom:
    """Homomorphism between finite groups, defined on generators.

    Validation is exhaustive: the induced map is computed on every element
    through its generator word and then checked on all pairs.
    """

    def __init__(self, source: FiniteGroup, target: FiniteGroup, gen_images: Sequence[int]):
        if len(gen_images) != len(source.generators):
            raise ValueError("one image per source generator required")
        for v in gen_images:
            if not 0 <= v < target.order:
                raise ValueError("generator image out of range")
        self.source = source
        self.target = target
        self.gen_images = tuple(gen_images)
        n = source.order
        src_mul = source.cayley_table()
        dst_mul = target.cayley_table()
        # one step along the closure's word chain per element
        parent_of, gen_of = source._parent_of, source._gen_of
        table = [0] * n
        for a in range(1, n):
            table[a] = dst_mul[table[parent_of[a]]][gen_images[gen_of[a]]]
        self._table = table
        for a in range(n):
            src_row = src_mul[a]
            dst_row = dst_mul[table[a]]
            for b in range(n):
                if table[src_row[b]] != dst_row[table[b]]:
                    raise NotAHomomorphism(
                        f"images violate multiplication at element pair ({a}, {b})"
                    )

    def apply_idx(self, a: int) -> int:
        return self._table[a]

    def is_surjective(self) -> bool:
        return len(set(self._table)) == self.target.order

    def kernel_indices(self) -> list[int]:
        return [a for a, v in enumerate(self._table) if v == 0]


def identity_hom(g: FiniteGroup) -> GroupHom:
    return GroupHom(g, g, g.gen_indices)


def trivial_hom(g: FiniteGroup) -> GroupHom:
    t = trivial_group()
    return GroupHom(g, t, [0] * len(g.generators))


def normal_closure(group: FiniteGroup, seeds: Iterable[int]) -> list[int]:
    """Sorted element indices of the smallest normal subgroup containing the
    seeds: the subgroup generated by all their conjugates."""
    conjugates: set[int] = set()
    for s in seeds:
        conjugates.update(group.conjugacy_class(s))
    return sorted(group.generated(conjugates))


def quotient(g: FiniteGroup, normal: Iterable[int]) -> tuple[FiniteGroup, GroupHom]:
    """Quotient by a normal subgroup, given by its element indices and
    realized on the left cosets.

    Returns (quotient group, projection hom).  Raises ValueError when the
    indices are not closed under products or not normal in g.
    """
    n_idx = sorted(set(normal))
    n_set = set(n_idx)
    if 0 not in n_set or any(g.mul_idx(a, b) not in n_set for a in n_idx for b in n_idx):
        raise ValueError("element set is not closed under the group operations")
    for gi in g.gen_indices:
        for a in n_idx:
            if g.conj_idx(gi, a) not in n_set:
                raise ValueError("subgroup is not normal")
    coset_of = [-1] * g.order
    reps: list[int] = []
    for e in range(g.order):
        if coset_of[e] < 0:
            cid = len(reps)
            reps.append(e)
            for a in n_idx:
                coset_of[g.mul_idx(e, a)] = cid
    k = len(reps)
    images = [
        Permutation(tuple(coset_of[g.mul_idx(gi, reps[c])] for c in range(k)))
        for gi in g.gen_indices
    ]
    q = FiniteGroup(images, degree=k) if images else trivial_group(max(k, 1))
    proj = GroupHom(g, q, q.gen_indices)
    if g.order != len(n_idx) * q.order:
        raise AssertionError("quotient order mismatch")
    return q, proj


def centralizer(g: FiniteGroup, a: int) -> list[int]:
    """Sorted element indices of the centralizer of a."""
    return [h for h in range(g.order) if g.mul_idx(h, a) == g.mul_idx(a, h)]


def conjugating_element(g: FiniteGroup, a: int, b: int) -> Optional[int]:
    """Least h with h a h^-1 == b, or None."""
    for h in range(g.order):
        if g.conj_idx(h, a) == b:
            return h
    return None
