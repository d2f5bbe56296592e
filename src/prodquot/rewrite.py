"""Subgroup presentations from complete coset tables.

Given a finite-index subgroup's coset table, the subgroup is generated by the
Schreier elements rep(c) * g * rep(c.g)^-1; those that reduce to the empty
word (spanning-tree edges and accidental cancellations) are pruned.  Relators
come from rewriting every ambient relator at every coset, and arbitrary
subgroup elements can be rewritten into the new generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .coset import CosetTable
from .presentation import Presentation
from .words import Word, free_reduce


class WordNotInSubgroup(ValueError):
    """The word's coset walk did not return to the subgroup coset."""


@dataclass
class SubgroupPresentation:
    """Presentation of a subgroup plus the rewriting data that produced it."""

    presentation: Presentation
    ambient: Presentation
    table: CosetTable
    gen_of_edge: dict[tuple[int, int], int]  # (coset, ambient gen) -> subgroup gen
    expansions: tuple[Word, ...]  # subgroup gen -> ambient word

    def rewrite(self, word: Word) -> Word:
        """Rewrite an ambient word lying in the subgroup."""
        out: list[tuple[int, int]] = []
        c = 0
        table = self.table.table
        for g, s in word.single_letters():
            if s > 0:
                edge = (c, g)
                c = table[c][2 * g]
                gen = self.gen_of_edge.get(edge)
                if gen is not None:
                    out.append((gen, 1))
            else:
                c = table[c][2 * g + 1]
                gen = self.gen_of_edge.get((c, g))
                if gen is not None:
                    out.append((gen, -1))
        if c != 0:
            raise WordNotInSubgroup(f"word ends at coset {c}, not 0")
        return free_reduce(out)

    def expand(self, word: Word) -> Word:
        """Send a subgroup word back to ambient generators."""
        out = Word()
        for g, e in word.letters:
            out = out * (self.expansions[g] ** e)
        return out


def reidemeister_schreier(
    ambient: Presentation, table: CosetTable, prefix: str = "x"
) -> SubgroupPresentation:
    reps = table.transversal()
    gen_of_edge: dict[tuple[int, int], int] = {}
    expansions: list[Word] = []
    names: list[str] = []
    for c in range(table.index):
        for g in range(ambient.ngens):
            target = table.table[c][2 * g]
            word = reps[c] * Word(((g, 1),)) * reps[target].inverse()
            if word.is_identity():
                continue
            gen_of_edge[(c, g)] = len(names)
            names.append(f"{prefix}{len(names)}")
            expansions.append(word)
    sub = SubgroupPresentation(
        Presentation(tuple(names)),
        ambient,
        table,
        gen_of_edge,
        tuple(expansions),
    )
    relators: list[Word] = []
    for c in range(table.index):
        rep = reps[c]
        for rel in ambient.relators:
            shifted = rep * rel * rep.inverse()
            rewritten = sub.rewrite(shifted)
            if not rewritten.is_identity():
                relators.append(rewritten)
    sub.presentation = Presentation(tuple(names), tuple(relators))
    return sub


def evaluate_word(word: Word, gen_values: Sequence[int], group) -> int:
    """Evaluate a word in a finite group; gen_values are element indices."""
    acc = 0
    for g, e in word.letters:
        v = gen_values[g]
        if e < 0:
            v = group.inv_idx(v)
        for _ in range(abs(e)):
            acc = group.mul_idx(acc, v)
    return acc


def finite_group_presentation(group, names: Sequence[str] | None = None) -> Presentation:
    """Finite presentation of a permutation group on its own generators.

    Relators are the Schreier elements of the identity subgroup over the
    group's canonical element words (a prefix-closed transversal), then
    Tietze-simplified.  Cached on the group object.
    """
    if group._presentation_cache is not None and names is None:
        return group._presentation_cache
    from .presentation import tietze_simplify

    k = len(group.generators)
    if names is None:
        names = tuple(f"g{i}" for i in range(k))
    else:
        names = tuple(names)
    gen_idx = [group.element_index(g) for g in group.generators]
    reps = [free_reduce((g, 1) for g in group.element_word(a)) for a in range(group.order)]
    relators = []
    seen = set()
    for a in range(group.order):
        for g in range(k):
            t = group.mul_idx(a, gen_idx[g])
            w = reps[a] * Word(((g, 1),)) * reps[t].inverse()
            if not w.is_identity() and w.letters not in seen:
                seen.add(w.letters)
                relators.append(w)
    pres = Presentation(names, tuple(relators))
    simplified = tietze_simplify(pres).presentation
    if simplified.ngens != k:
        # generator elimination must not change the generating set here;
        # fall back to the raw Schreier presentation
        simplified = pres
    if names == tuple(f"g{i}" for i in range(k)):
        group._presentation_cache = simplified
    return simplified


def kernel_subgroup_words(p: Presentation, gen_values: Sequence[int], group) -> list[Word]:
    """Schreier generators of the kernel of the map sending gens to gen_values.

    The transversal is the canonical shortest-word section found by walking
    the finite group with the presentation's generators.
    """
    order = group.order
    reps: list[Word | None] = [None] * order
    reps[0] = Word()
    queue = [0]
    for h in queue:
        for g, v in enumerate(gen_values):
            t = group.mul_idx(h, v)
            if reps[t] is None:
                reps[t] = reps[h] * Word(((g, 1),))
                queue.append(t)
    if any(r is None for r in reps):
        raise ValueError("generator images do not generate the target group")
    out: list[Word] = []
    for h in range(order):
        for g, v in enumerate(gen_values):
            t = group.mul_idx(h, v)
            word = reps[h] * Word(((g, 1),)) * reps[t].inverse()
            if not word.is_identity():
                out.append(word)
    return out
