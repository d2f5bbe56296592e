"""Subgroup presentations from complete coset tables.

Given a finite-index subgroup's coset table, the subgroup is generated by the
Schreier elements rep(c) * g * rep(c.g)^-1; those that reduce to the empty
word (the spanning-tree edges) are pruned.  Each remaining edge of the table
is labelled with its generator, so rewriting a word is one walk through the
table collecting labels.  Relators come from walking every ambient relator
from every coset (each walk must close, else the table is no coset action),
and arbitrary subgroup elements rewrite the same way.
Finite groups are evaluated through their Cayley tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .coset import CosetTable, word_to_cols
from .presentation import Presentation
from .words import Word, word_from_letters


class WordNotInSubgroup(ValueError):
    """The word's coset walk did not return to the subgroup coset."""


def _walk(
    table: list[list[int]], labels: list[list[int]], coset: int, cols: Sequence[int]
) -> tuple[list[int], int]:
    """Follow columns from a coset; returns the edge labels met and the end."""
    out: list[int] = []
    c = coset
    for col in cols:
        label = labels[c][col]
        if label:
            out.append(label)
        c = table[c][col]
    return out, c


@dataclass
class SubgroupPresentation:
    """Presentation of a subgroup plus the rewriting data that produced it."""

    presentation: Presentation
    ambient: Presentation
    table: CosetTable
    # labels[c][col], laid out like table.table: +-(subgroup gen + 1) for the
    # Schreier generator the edge carries (negative walking it backwards),
    # 0 on transversal edges
    labels: list[list[int]]
    expansions: tuple[Word, ...]  # subgroup gen -> ambient word

    def rewrite(self, word: Word) -> Word:
        """Rewrite an ambient word lying in the subgroup."""
        letters, end = _walk(self.table.table, self.labels, 0, word_to_cols(word))
        if end != 0:
            raise WordNotInSubgroup(f"word ends at coset {end}, not 0")
        return word_from_letters(letters)

    def expand(self, word: Word) -> Word:
        """Send a subgroup word back to ambient generators."""
        out = Word()
        for g, e in word.letters:
            out = out * (self.expansions[g] ** e)
        return out


def reidemeister_schreier(
    ambient: Presentation, table: CosetTable, prefix: str = "x"
) -> SubgroupPresentation:
    """Schreier generators label the non-transversal edges; each relator at
    coset c rewrites, up to free reduction, to the labels its walk from c
    meets, which is the rewrite of rep(c) * relator * rep(c)^-1; a walk not
    ending at c raises ValueError, as the table is then no coset action."""
    reps = table.transversal()
    rows = table.table
    labels = [[0] * (2 * ambient.ngens) for _ in range(table.index)]
    expansions: list[Word] = []
    for c in range(table.index):
        for g in range(ambient.ngens):
            target = rows[c][2 * g]
            word = reps[c] * Word(((g, 1),)) * reps[target].inverse()
            if word.is_identity():
                continue
            expansions.append(word)
            labels[c][2 * g] = len(expansions)
            labels[target][2 * g + 1] = -len(expansions)
    relators: list[Word] = []
    rel_cols = [word_to_cols(rel) for rel in ambient.relators]
    for c in range(table.index):
        for i, cols in enumerate(rel_cols):
            letters, end = _walk(rows, labels, c, cols)
            if end != c:
                raise ValueError(f"relator {i} walks from coset {c} to {end}")
            rewritten = word_from_letters(letters)
            if not rewritten.is_identity():
                relators.append(rewritten)
    names = tuple(f"{prefix}{i}" for i in range(len(expansions)))
    return SubgroupPresentation(
        Presentation(names, tuple(relators)), ambient, table, labels, tuple(expansions)
    )


def evaluate_word(word: Word, gen_values: Sequence[int], group) -> int:
    """Evaluate a word in a finite group; gen_values are element indices."""
    mul = group.cayley_table()
    inverses = [group.inv_idx(v) for v in gen_values]
    acc = 0
    for g, e in word.letters:
        if e > 0:
            v = gen_values[g]
        else:
            v = inverses[g]
            e = -e
        for _ in range(e):
            acc = mul[acc][v]
    return acc


def finite_group_presentation(group) -> Presentation:
    """Finite presentation of a permutation group on its own generators.

    Relators are the distinct Schreier generators of the kernel of the free
    group on the generators (``kernel_subgroup_words``; its shortest-word
    section is the group's closure word chain), then Tietze-simplified.
    Cached on the group object.
    """
    if group._presentation_cache is not None:
        return group._presentation_cache
    from .presentation import tietze_simplify

    k = len(group.generators)
    gen_idx = [group.element_index(g) for g in group.generators]
    relators = tuple(dict.fromkeys(kernel_subgroup_words(gen_idx, group)))
    pres = Presentation(tuple(f"g{i}" for i in range(k)), relators)
    simplified = tietze_simplify(pres).presentation
    if simplified.ngens != k:
        # generator elimination must not change the generating set here;
        # fall back to the raw Schreier presentation
        simplified = pres
    group._presentation_cache = simplified
    return simplified


def bfs_section(group, gen_values: Sequence[int]) -> tuple[Word, ...]:
    """Shortest positive word per element, walking generators in order."""
    reps: list[Word | None] = [None] * group.order
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
    return tuple(reps)  # type: ignore[arg-type]


def kernel_subgroup_words(gen_values: Sequence[int], group) -> list[Word]:
    """Schreier generators of the kernel of the map sending gens to gen_values.

    The transversal is ``bfs_section(group, gen_values)``; generators that
    reduce to the empty word (its tree edges) are dropped.
    """
    reps = bfs_section(group, gen_values)
    out: list[Word] = []
    for h in range(group.order):
        for g, v in enumerate(gen_values):
            t = group.mul_idx(h, v)
            word = reps[h] * Word(((g, 1),)) * reps[t].inverse()
            if not word.is_identity():
                out.append(word)
    return out
