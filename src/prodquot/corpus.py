"""Bundled finite groups given two ways: a presentation and permutations.

Each entry pairs a finite presentation with an independently written
permutation realization of the same group (images listed per generator).
Construction validates that the images satisfy every relator and generate
the permutation group, so coset enumerations over the presentation can be
cross-checked against orders computed by pure permutation arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .perm import (
    FiniteGroup,
    Permutation,
    cyclic_group,
    dihedral_group,
    direct_product_group,
    perm_from_cycles,
    symmetric_group,
    trivial_group,
)
from .presentation import Presentation, presentation
from .rewrite import evaluate_word


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    presentation: Presentation
    group: FiniteGroup
    gen_images: tuple[int, ...]  # group element index per presentation generator


def _entry(
    name: str,
    pres: Presentation,
    group: FiniteGroup,
    images: tuple[Permutation, ...],
) -> CorpusEntry:
    if len(images) != pres.ngens:
        raise ValueError(f"{name}: one image per generator required")
    idx = tuple(group.element_index(p) for p in images)
    for rel in pres.relators:
        if evaluate_word(rel, idx, group) != 0:
            raise ValueError(f"{name}: relator fails in the permutation model")
    if len(group.generated(idx)) != group.order:
        raise ValueError(f"{name}: images do not generate the permutation model")
    return CorpusEntry(name, pres, group, idx)


def _cyclic_entry(n: int) -> CorpusEntry:
    g = cyclic_group(n)
    return _entry(
        f"cyclic{n}",
        presentation(["a"], [f"a^{n}"]),
        g,
        (perm_from_cycles(n, [tuple(range(n))]),),
    )


def _dihedral_entry(m: int) -> CorpusEntry:
    g = dihedral_group(m)
    rot = perm_from_cycles(m, [tuple(range(m))])
    flip = Permutation(tuple((m - i) % m for i in range(m)))
    return _entry(
        f"dihedral{m}",
        presentation(["r", "f"], [f"r^{m}", "f^2", "r*f*r*f"]),
        g,
        (rot, flip),
    )


def _abelian_entry(a: int, b: int) -> CorpusEntry:
    g = direct_product_group(cyclic_group(a), cyclic_group(b))
    pa = Permutation(tuple(list((i + 1) % a for i in range(a)) + [a + i for i in range(b)]))
    pb = Permutation(tuple(list(range(a)) + [a + (i + 1) % b for i in range(b)]))
    return _entry(
        f"abelian{a}x{b}",
        presentation(["a", "b"], [f"a^{a}", f"b^{b}", "a*b*a^-1*b^-1"]),
        g,
        (pa, pb),
    )


def build_corpus() -> list[CorpusEntry]:
    entries: list[CorpusEntry] = []

    entries.append(
        _entry("trivial", presentation(["a"], ["a"]), trivial_group(1), (Permutation((0,)),))
    )
    for n in (2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 25, 60, 128, 200):
        entries.append(_cyclic_entry(n))
    for m in (3, 4, 5, 6, 7, 8, 10, 12, 24, 50, 100):
        entries.append(_dihedral_entry(m))
    for a, b in ((2, 2), (2, 4), (3, 3), (2, 6), (4, 4), (5, 5), (10, 10)):
        entries.append(_abelian_entry(a, b))

    # elementary abelian of rank 3
    e8 = direct_product_group(
        direct_product_group(cyclic_group(2), cyclic_group(2)), cyclic_group(2)
    )
    entries.append(
        _entry(
            "elementary8",
            presentation(
                ["a", "b", "c"],
                ["a^2", "b^2", "c^2", "a*b*a^-1*b^-1", "a*c*a^-1*c^-1", "b*c*b^-1*c^-1"],
            ),
            e8,
            (
                perm_from_cycles(6, [(0, 1)]),
                perm_from_cycles(6, [(2, 3)]),
                perm_from_cycles(6, [(4, 5)]),
            ),
        )
    )

    # symmetric and alternating flavors via rotation triangle presentations
    s3 = symmetric_group(3)
    entries.append(
        _entry(
            "sym3",
            presentation(["a", "b"], ["a^2", "b^3", "a*b*a*b"]),
            s3,
            (perm_from_cycles(3, [(0, 1)]), perm_from_cycles(3, [(0, 1, 2)])),
        )
    )
    a4 = FiniteGroup([perm_from_cycles(4, [(0, 1), (2, 3)]), perm_from_cycles(4, [(0, 1, 2)])])
    entries.append(
        _entry(
            "alt4",
            presentation(["a", "b"], ["a^2", "b^3", "a*b*a*b*a*b"]),
            a4,
            (perm_from_cycles(4, [(0, 1), (2, 3)]), perm_from_cycles(4, [(0, 1, 2)])),
        )
    )
    s4 = symmetric_group(4)
    entries.append(
        _entry(
            "sym4",
            presentation(["a", "b"], ["a^2", "b^3", "a*b*a*b*a*b*a*b"]),
            s4,
            (perm_from_cycles(4, [(0, 1)]), perm_from_cycles(4, [(1, 2, 3)])),
        )
    )
    a5 = FiniteGroup([perm_from_cycles(5, [(0, 1), (2, 3)]), perm_from_cycles(5, [(0, 2, 4)])])
    entries.append(
        _entry(
            "alt5",
            presentation(["a", "b"], ["a^2", "b^3", "a*b*a*b*a*b*a*b*a*b"]),
            a5,
            (perm_from_cycles(5, [(0, 1), (2, 3)]), perm_from_cycles(5, [(0, 2, 4)])),
        )
    )

    # quaternion group of order 8 on its regular points
    qx = perm_from_cycles(8, [(0, 1, 2, 3), (4, 5, 6, 7)])
    qy = perm_from_cycles(8, [(0, 4, 2, 6), (1, 7, 3, 5)])
    q8 = FiniteGroup([qx, qy])
    entries.append(
        _entry(
            "quaternion8",
            presentation(["a", "b"], ["a^4", "b^2*a^-2", "b^-1*a*b*a"]),
            q8,
            (qx, qy),
        )
    )

    # dicyclic group of order 12 on the points a^k (0..5) and a^k b (6..11):
    # right multiplication by a and by b, using b a = a^-1 b and b^2 = a^3
    dx = Permutation(tuple([(k + 1) % 6 for k in range(6)] + [6 + (k - 1) % 6 for k in range(6)]))
    dy = Permutation(tuple([6 + k for k in range(6)] + [(k + 3) % 6 for k in range(6)]))
    dic3 = FiniteGroup([dx, dy])
    entries.append(
        _entry(
            "dicyclic12",
            presentation(["a", "b"], ["a^6", "b^2*a^-3", "b^-1*a*b*a"]),
            dic3,
            (dx, dy),
        )
    )

    # semidihedral group of order 16: conjugation by b multiplies by 3
    sa = perm_from_cycles(8, [tuple(range(8))])
    sb = Permutation(tuple((3 * i) % 8 for i in range(8)))
    sd16 = FiniteGroup([sa, sb])
    entries.append(
        _entry(
            "semidihedral16",
            presentation(["a", "b"], ["a^8", "b^2", "b^-1*a*b*a^-3"]),
            sd16,
            (sa, sb),
        )
    )

    # Frobenius group of order 20: affine maps x -> 3x + c over Z/5
    fa = perm_from_cycles(5, [(0, 1, 2, 3, 4)])
    fb = Permutation(tuple((3 * i) % 5 for i in range(5)))
    f20 = FiniteGroup([fa, fb])
    entries.append(
        _entry(
            "frobenius20",
            presentation(["a", "b"], ["a^5", "b^4", "b^-1*a*b*a^-2"]),
            f20,
            (fa, fb),
        )
    )

    # exponent-3 group of order 27: upper unitriangular matrices over Z/3
    # acting on coordinate triples (x, y, z) encoded as x + 3y + 9z
    def _enc(x: int, y: int, z: int) -> int:
        return x % 3 + 3 * (y % 3) + 9 * (z % 3)

    hx = Permutation(
        tuple(_enc(i % 3 + 1, (i // 3) % 3, i // 9) for i in range(27))
    )
    hy = Permutation(
        tuple(_enc(i % 3, (i // 3) % 3 + 1, i // 9 + i % 3) for i in range(27))
    )
    h27 = FiniteGroup([hx, hy])
    entries.append(
        _entry(
            "burnside27",
            presentation(["a", "b"], ["a^3", "b^3", "a*b*a*b*a*b", "a*b^-1*a*b^-1*a*b^-1"]),
            h27,
            (hx, hy),
        )
    )

    # direct product S3 x Z/4 (order 24) with three generators
    s3z4 = direct_product_group(symmetric_group(3), cyclic_group(4))
    pa = Permutation((1, 0, 2, 3, 4, 5, 6))
    pb = Permutation((1, 2, 0, 3, 4, 5, 6))
    pc = Permutation((0, 1, 2, 4, 5, 6, 3))
    entries.append(
        _entry(
            "sym3xcyclic4",
            presentation(
                ["s", "t", "u"],
                [
                    "s^2",
                    "t^3",
                    "s*t*s*t",
                    "u^4",
                    "s*u*s^-1*u^-1",
                    "t*u*t^-1*u^-1",
                ],
            ),
            s3z4,
            (pa, pb, pc),
        )
    )

    for e in entries:
        if e.group.order > 200:
            raise ValueError(f"{e.name}: corpus is capped at order 200")
    return entries
