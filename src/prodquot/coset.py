"""Coset enumeration over finite presentations.

The enumeration strategy is relator-scan driven (HLT): every live coset scans
every relator, gaps are filled by defining the first missing table entry.
Words are column-coded: generator g forward is column 2*g, backward is
2*g + 1, so the inverse of a column is column ^ 1.  Dead cosets are tracked
through a union-find list whose merges always keep the smaller label, and
coincidences are processed through a FIFO queue.  Completed tables are
compressed and standardized (cosets relabelled in first-visit row-major
order), so for a fixed presentation, subgroup words and budget the resulting
table is reproducible.  The preimage of a subgroup of a product of finite
groups needs no enumeration: ``fiber_product_table`` reads its table off the
cosets of that subgroup, numbering them in that same order as it meets them,
so its table comes out standardized as built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .presentation import Presentation
from .words import Word, word_to_cols

DEFAULT_MAX_COSETS = 100_000


class CosetOverflow(RuntimeError):
    """Coset allocation exceeded the budget; retry with a larger one."""

    def __init__(self, defined: int, max_cosets: int):
        super().__init__(f"coset enumeration exceeded {max_cosets} cosets")
        self.defined = defined
        self.max_cosets = max_cosets


@dataclass
class CosetTable:
    """Complete, standardized coset table of a subgroup.

    ``table[c][2g]`` is the target of coset c under generator g, ``2g + 1``
    under its inverse.  Coset 0 is the subgroup itself.  Immutable by
    convention once built; safe to share across threads.
    """

    presentation: Presentation
    table: list[list[int]]
    tree: tuple[tuple[int, int], ...]  # per coset > 0: (parent coset, column)

    @property
    def index(self) -> int:
        return len(self.table)

    def trace(self, coset: int, word: Word) -> int:
        c = coset
        for col in word_to_cols(word):
            c = self.table[c][col]
        return c

    def transversal(self) -> list[Word]:
        """Schreier representatives: words carrying coset 0 to each coset."""
        reps: list[Word] = [Word()] * self.index
        for c in range(1, self.index):
            parent, col = self.tree[c - 1]
            g, s = col // 2, (1 if col % 2 == 0 else -1)
            reps[c] = reps[parent] * Word(((g, s),))
        return reps


def todd_coxeter(
    p: Presentation,
    subgroup_words: Sequence[Word] = (),
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> CosetTable:
    """Enumerate cosets of the subgroup generated by the given words.

    Raises CosetOverflow when more than max_cosets cosets would be allocated
    (dead ones included).  Deterministic for fixed inputs.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be positive")
    if p.ngens == 0:
        return CosetTable(p, [[]], ())
    rel_cols = [w for w in (word_to_cols(r) for r in p.relators) if w]
    sub_cols = [w for w in (word_to_cols(s) for s in subgroup_words) if w]
    raw, parent = _hlt_enumerate(2 * p.ngens, rel_cols, sub_cols, max_cosets)
    table, tree = _compress_standardize(raw, parent)
    return CosetTable(p, table, tree)


def fiber_product_table(
    p: Presentation,
    groups: Sequence,
    subgroup: Iterable[tuple[int, ...]],
    images: Sequence[Sequence[int]],
    max_cosets: int,
) -> CosetTable:
    """Coset table of the preimage of a subgroup D of H_0 x ... x H_{n-1} in
    the direct product p, whose factor j's generators have images
    ``images[j]`` in ``groups[j]``.  D is given by its members, tuples of
    element indices, and must project onto H_0.

    A coset D.h is then D.(1, r_1, ..., r_{n-1}) for some r, so it is keyed
    by the least such r.  A factor-j generator (j > 0) multiplies r_j on the
    right; a factor-0 generator x is moved back to the first coordinate by
    a member of D over x^-1.  With D the diagonal of Q x Q and a
    generator-free second factor, this is the kernel of p onto Q.  Raises
    CosetOverflow up front when prod |H_j| / |D| exceeds max_cosets.
    """
    if sum(map(len, images)) != p.ngens:
        raise ValueError("one image per generator of the product required")
    members = set(subgroup)
    size = math.prod(h.order for h in groups) // len(members)
    if size > max_cosets:
        raise CosetOverflow(size, max_cosets)
    muls = [h.cayley_table() for h in groups[1:]]
    over: dict[int, tuple[int, ...]] = {}  # H_0 element -> r of a member of D over it
    for d in members:
        over.setdefault(d[0], d[1:])
    if len(over) != groups[0].order:
        raise ValueError("the subgroup must project onto the first factor")
    # D's members over 1 but 1: their left products with one r of a coset
    # give its others
    kernel = [d[1:] for d in members if d[0] == 0 and any(d)]

    columns = [  # (factor, element, the r of a member of D over its inverse)
        (j, x, over[groups[0].inv_idx(x)] if j == 0 else None)
        for j, (h, factor_images) in enumerate(zip(groups, images))
        for a in factor_images
        for x in (a, h.inv_idx(a))  # the generator's column, then its inverse's
    ]
    # numbered as first met, row by row: each new state's edge is a tree edge
    states = [(0,) * len(muls)]
    index = {states[0]: 0}
    table: list[list[int]] = []
    tree: list[tuple[int, int]] = []
    for coset, r in enumerate(states):  # grows as cosets are found
        row = []
        for col, (j, x, d) in enumerate(columns):
            if j:
                t = r[: j - 1] + (muls[j - 1][r[j - 1]][x],) + r[j:]
            else:
                t = tuple(mul[k][c] for mul, k, c in zip(muls, d, r))
            if kernel:
                t = min([t] + [tuple(mul[k][c] for mul, k, c in zip(muls, m, t)) for m in kernel])
            if t not in index:
                index[t] = len(states)
                states.append(t)
                tree.append((coset, col))
            row.append(index[t])
        table.append(row)
    return CosetTable(p, table, tuple(tree))


def _hlt_enumerate(ncols, rels, subs, max_cosets):
    """Relator-scan enumeration; returns the raw table and union-find parents.

    Every defined coset keeps its row, dead ones included; ``parent[c] <= c``.
    """
    table = [[-1] * ncols]
    parent = [0]

    def rep(k):
        r = k
        while parent[r] != r:
            r = parent[r]
        while k != r:
            nxt = parent[k]
            parent[k] = r
            k = nxt
        return r

    def merge(queue, a, b):
        ra = rep(a)
        rb = rep(b)
        if ra != rb:
            if ra > rb:
                ra, rb = rb, ra
            parent[rb] = ra
            queue.append(rb)

    def coincidence(a, b):
        queue: list[int] = []
        merge(queue, a, b)
        for gamma in queue:  # grows while it is processed
            row = table[gamma]
            for x in range(ncols):
                delta = row[x]
                if delta >= 0:
                    table[delta][x ^ 1] = -1
                    mu = rep(gamma)
                    nu = rep(delta)
                    if table[mu][x] >= 0:
                        merge(queue, nu, table[mu][x])
                    elif table[nu][x ^ 1] >= 0:
                        merge(queue, mu, table[nu][x ^ 1])
                    else:
                        table[mu][x] = nu
                        table[nu][x ^ 1] = mu

    def define(c, x):
        n = len(table)
        if n >= max_cosets:
            raise CosetOverflow(n, max_cosets)
        table.append([-1] * ncols)
        parent.append(n)
        table[c][x] = n
        table[n][x ^ 1] = c

    def scan_and_fill(alpha, w):
        """Scan one word at one coset, defining cosets to finish the scan."""
        f = alpha
        i = 0
        b = alpha
        j = len(w) - 1
        while True:
            while i <= j and table[f][w[i]] >= 0:
                f = table[f][w[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][w[j] ^ 1] >= 0:
                b = table[b][w[j] ^ 1]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][w[i]] = b
                table[b][w[i] ^ 1] = f
                return
            define(f, w[i])

    for w in subs:
        scan_and_fill(0, w)
    alpha = 0
    while alpha < len(table):
        if parent[alpha] == alpha:
            for w in rels:
                scan_and_fill(alpha, w)
                if parent[alpha] != alpha:
                    break
            else:
                row = table[alpha]
                for x in range(ncols):
                    if row[x] < 0:
                        define(alpha, x)
        alpha += 1
    return table, parent


def _compress_standardize(raw, parent):
    """Drop dead cosets and relabel the rest in first-visit row-major order."""
    root: list[int] = []
    for c, q in enumerate(parent):
        root.append(c if q == c else root[q])
    live = sum(1 for c, r in enumerate(root) if c == r)
    new = {0: 0}
    order = [0]
    tree: list[tuple[int, int]] = []
    for old in order:
        for x, tgt in enumerate(raw[old]):
            if tgt < 0:
                raise AssertionError("incomplete coset table after enumeration")
            tgt = root[tgt]
            if tgt not in new:
                new[tgt] = len(order)
                tree.append((new[old], x))
                order.append(tgt)
    if len(order) != live:
        raise AssertionError("coset table is not transitive")
    table = [[new[root[tgt]] for tgt in raw[old]] for old in order]
    return table, tuple(tree)
