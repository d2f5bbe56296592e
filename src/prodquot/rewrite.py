"""Subgroup presentations from complete coset tables.

Given a finite-index subgroup's coset table, the subgroup is generated by the
Schreier elements rep(c) * g * rep(c.g)^-1; those that reduce to the empty
word (the spanning-tree edges) are pruned.  Each remaining edge of the table
is labelled with its generator, so rewriting a word is one walk through the
table collecting labels.  Relators come from walking every ambient relator
from every coset (each walk must close, else the table is no coset action),
and arbitrary subgroup elements rewrite the same way.

When only the subgroup's abelianization is wanted (the verify search's
kernels), ``subgroup_abelian_invariants`` runs the same labelling and walks
but keeps each walk as an integer row of label counts, the abelianized
Reidemeister-Schreier method (Holt-Eick-O'Brien, Handbook of Computational
Group Theory, 2005): no words, no free reduction, no presentation.  When
the subgroup is normal its coset table is the quotient's Cayley graph, so
left translation by a coset representative carries the walk from coset 0
onto the walk from that coset: each relator is walked once, and every
coset's row is gathered from that walk's edge counts.  Whether each
translation commutes with the table is checked exactly; a table that fails
the check (a non-normal subgroup) is rewritten in full, and its invariants
are read off the presentation.
Finite groups are evaluated through their Cayley tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .abelian import AbelianInvariants, invariants_from_matrix
from .coset import CosetTable
from .presentation import Presentation, abelian_invariants
from .words import Word, word_from_letters, word_product, word_to_cols


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

    def walk(self, coset: int, word: Word) -> tuple[list[int], int]:
        """Follow an ambient word from a coset: the signed labels it meets
        and the coset it ends at."""
        return _walk(self.table.table, self.labels, coset, word_to_cols(word))

    def rewrite(self, word: Word) -> Word:
        """Rewrite an ambient word lying in the subgroup."""
        letters, end = self.walk(0, word)
        if end != 0:
            raise WordNotInSubgroup(f"word ends at coset {end}, not 0")
        return word_from_letters(letters)

    def expand(self, word: Word) -> Word:
        """Send a subgroup word back to ambient generators."""
        return word_product(self.expansions[g] ** e for g, e in word.letters)


def _schreier_labels(table: CosetTable) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Label table (as ``SubgroupPresentation.labels``) and the edge (c, g)
    carrying each Schreier generator, in label order.  The transversal is a
    Schreier transversal, so an edge's generator rep(c) * g * rep(c.g)^-1
    freely reduces to 1 exactly when the edge is in the spanning tree."""
    rows = table.table
    ngens = len(rows[0]) // 2
    tree = {
        (parent, col // 2) if col % 2 == 0 else (c, col // 2)
        for c, (parent, col) in enumerate(table.tree, 1)
    }
    labels = [[0] * (2 * ngens) for _ in range(table.index)]
    edges: list[tuple[int, int]] = []
    for c in range(table.index):
        for g in range(ngens):
            if (c, g) in tree:
                continue
            edges.append((c, g))
            labels[c][2 * g] = len(edges)
            labels[rows[c][2 * g]][2 * g + 1] = -len(edges)
    return labels, edges


def reidemeister_schreier(
    ambient: Presentation, table: CosetTable, prefix: str = "x"
) -> SubgroupPresentation:
    """Schreier generators label the non-transversal edges; each relator at
    coset c (coset-major) rewrites to the labels its walk from c meets, which
    is rep(c) * relator * rep(c)^-1 up to free reduction.  A walk not ending
    at c raises ValueError: the table is no coset action."""
    rows = table.table
    reps = table.transversal()
    labels, edges = _schreier_labels(table)
    expansions = tuple(
        reps[c] * Word(((g, 1),)) * reps[rows[c][2 * g]].inverse() for c, g in edges
    )
    relators: list[Word] = []
    for c in range(table.index):
        for i, cols in enumerate(ambient.relator_cols):
            letters, end = _walk(rows, labels, c, cols)
            if end != c:
                raise ValueError(f"relator {i} walks from coset {c} to {end}")
            rewritten = word_from_letters(letters)
            if not rewritten.is_identity():
                relators.append(rewritten)
    names = tuple(f"{prefix}{i}" for i in range(len(expansions)))
    return SubgroupPresentation(
        Presentation(names, tuple(relators)), ambient, table, labels, expansions
    )


def _translation(table: CosetTable, coset: int) -> list[int] | None:
    """The map d -> coset(rep(c) * rep(d)) for c = coset, built along the
    table's spanning tree, or None when it does not commute with every column
    (rep(c) does not normalize the subgroup).  When it commutes, it carries
    each walk from coset 0 onto the same walk from c."""
    rows = table.table
    image = [coset]
    for parent, col in table.tree:
        image.append(rows[image[parent]][col])
    for d, row in enumerate(rows):
        if rows[image[d]] != [image[t] for t in row]:
            return None
    return image


def _translated_rows(
    ambient: Presentation, table: CosetTable
) -> tuple[list[list[int]], int] | None:
    """The abelianized relation rows of the subgroup with the given coset
    table and the number of Schreier generators.  Row (c, relator) counts,
    with sign, the labels that relator's walk from coset c meets, so the
    nonzero rows are those of the exponent sums of ``reidemeister_schreier``'s
    relators, in order.  Each relator is walked once, into the net number
    of times its walk from 0 crosses each forward edge: when every coset's
    ``_translation`` commutes with the table (the subgroup is normal, the
    table the quotient's Cayley graph), the walk from c crosses the
    translates of those edges, and the translation permutes the edges, so
    c's row reads, per Schreier generator, the count of the edge carried
    onto that generator's edge: one ``itemgetter`` per coset gathers every
    relator's row.  None when some translation does not commute."""
    _, edges = _schreier_labels(table)
    rows = table.table
    ncols = len(rows[0])
    m = ncols // 2
    # the table flattened: cell d * ncols + col holds its target times ncols
    step = [target * ncols for row in rows for target in row]
    # edge (d, g), at position d * m + g: its forward cell d * ncols + 2g
    # and the cell that crosses it backwards
    pairs = [(cell, step[cell] + cell % ncols + 1) for cell in range(0, len(step), 2)]
    # per relator, the net number of times its walk from 0 crosses each edge
    nets: list[list[int]] = []
    for i, cols in enumerate(ambient.relator_cols):
        counts = [0] * len(step)
        c = 0
        for col in cols:
            cell = c + col
            counts[cell] += 1
            c = step[cell]
        if c:
            raise ValueError(f"relator {i} walks from coset 0 to {c // ncols}")
        nets.append([counts[fwd] - counts[back] for fwd, back in pairs])
    matrix: list[list[int]] = []
    inverse = [0] * table.index
    for c in range(table.index):
        image = _translation(table, c)
        if image is None:
            return None
        for d, t in enumerate(image):
            inverse[t] = d
        # the edge that c's translation carries onto each Schreier edge
        keys = [inverse[e] * m + g for e, g in edges]
        if len(keys) > 1:
            get = itemgetter(*keys)
            matrix += [list(get(net)) for net in nets]
        else:  # itemgetter of one key returns no tuple
            matrix += [[net[k] for k in keys] for net in nets]
    return matrix, len(edges)


def subgroup_abelian_invariants(ambient: Presentation, table: CosetTable) -> AbelianInvariants:
    """Abelianization of the subgroup with the given coset table: the
    invariants of ``reidemeister_schreier(ambient, table).presentation``.
    Exponent sums survive free reduction, so a normal subgroup's come
    straight from ``_translated_rows``, with no presentation built; any
    other subgroup's from the presentation."""
    rows = _translated_rows(ambient, table)
    if rows is None:
        return abelian_invariants(reidemeister_schreier(ambient, table).presentation)
    return invariants_from_matrix(*rows)


def evaluate_word(word: Word, gen_values: Sequence[int], group) -> int:
    """Evaluate a word in a finite group; gen_values are element indices.
    An exponent is taken modulo |G|, which every element's order divides."""
    mul = group.cayley_table()
    inverses = [group.inv_idx(v) for v in gen_values]
    order = group.order
    acc = 0
    for g, e in word.letters:
        if e > 0:
            v = gen_values[g]
        else:
            v = inverses[g]
            e = -e
        for _ in range(e % order):
            acc = mul[acc][v]
    return acc


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
