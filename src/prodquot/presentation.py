"""Finite presentations: construction, products, quotients, simplification."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .abelian import AbelianInvariants, invariants_from_matrix
from .words import (
    Word,
    _NAME,
    format_word,
    parse_word,
    signed_letters,
    word_from_letters,
    word_to_cols,
)


@dataclass(frozen=True)
class Presentation:
    """Generators (by name) and freely reduced relator words."""

    gens: tuple[str, ...]
    relators: tuple[Word, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for name in self.gens:
            if not _NAME.fullmatch(name):
                raise ValueError(f"bad generator name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate generator name {name!r}")
            seen.add(name)
        for rel in self.relators:
            if rel.max_generator() >= len(self.gens):
                raise ValueError("relator uses an unknown generator")

    @property
    def ngens(self) -> int:
        return len(self.gens)

    @cached_property
    def relator_cols(self) -> tuple[list[int], ...]:
        """Column code of each relator (``word_to_cols``), computed once."""
        return tuple(word_to_cols(r) for r in self.relators)

    def name_to_id(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.gens)}

    def word(self, text: str) -> Word:
        return parse_word(text, self.name_to_id())

    def text(self, word: Word) -> str:
        return format_word(word, self.gens)

    def relator_texts(self) -> list[str]:
        return [self.text(r) for r in self.relators]


def presentation(gen_names: Sequence[str], relator_texts: Iterable[str] = ()) -> Presentation:
    p = Presentation(tuple(gen_names))
    rels = tuple(p.word(t) for t in relator_texts)
    return Presentation(p.gens, rels)


def abelian_invariants(p: Presentation) -> AbelianInvariants:
    return invariants_from_matrix([r.exponent_sums(p.ngens) for r in p.relators], p.ngens)


def direct_product_presentation(factors: Sequence[Presentation]) -> Presentation:
    """Presentation of the direct product: factor relators plus cross commutators.

    Generator names are kept when globally unique, otherwise every generator is
    prefixed with its factor index so the result is deterministic.
    """
    if not factors:
        return Presentation(())
    if len(factors) == 1:
        return factors[0]
    all_names = [n for f in factors for n in f.gens]
    if len(set(all_names)) == len(all_names):
        names = tuple(all_names)
    else:
        names = tuple(f"f{i}_{n}" for i, f in enumerate(factors) for n in f.gens)
    offsets = product_offsets(factors)
    relators: list[Word] = []
    for f, off in zip(factors, offsets):
        relators.extend(r.shift(off) for r in f.relators)
    for i, (fi, offi) in enumerate(zip(factors, offsets)):
        for fj, offj in list(zip(factors, offsets))[i + 1 :]:
            for a in range(fi.ngens):
                for b in range(fj.ngens):
                    x, y = a + offi, b + offj
                    relators.append(Word(((x, 1), (y, 1), (x, -1), (y, -1))))
    return Presentation(names, tuple(relators))


def product_offsets(factors: Sequence[Presentation]) -> list[int]:
    offsets = []
    total = 0
    for f in factors:
        offsets.append(total)
        total += f.ngens
    return offsets


def quotient_presentation(p: Presentation, extra: Iterable[Word]) -> Presentation:
    added = tuple(w for w in extra if not w.is_identity())
    for w in added:
        if w.max_generator() >= p.ngens:
            raise ValueError("extra relator uses an unknown generator")
    return Presentation(p.gens, p.relators + added)


# ---------------------------------------------------------------------------
# Tietze simplification.  Internally relators live as lists of signed single
# letters +-(gen+1), which makes substitution and overlap search direct.

_OVERLAP_MAX_RELATORS = 48
_OVERLAP_MAX_LEN = 512
_OVERLAP_RULE_MAX = 64


@dataclass(frozen=True)
class TietzeResult:
    presentation: Presentation
    old_to_new: tuple[Word, ...]  # original generator -> word in surviving gens
    steps_used: int


def _reduce_letters(letters: list[int]) -> list[int]:
    out: list[int] = []
    for c in letters:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return out


def _cyclic_reduce(letters: list[int]) -> list[int]:
    w = _reduce_letters(letters)
    while len(w) > 1 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


def _inv_letters(letters: Sequence[int]) -> list[int]:
    return [-c for c in reversed(letters)]


def _least_rotation(s: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically least rotation (Booth's algorithm, O(n))."""
    n = len(s)
    doubled = list(s) + list(s)
    f = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = doubled[j]
        i = f[j - k - 1]
        while i != -1 and sj != doubled[k + i + 1]:
            if sj < doubled[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != doubled[k + i + 1]:
            if sj < doubled[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return tuple(doubled[k : k + n])


def _canonical_cyclic(letters: Sequence[int]) -> tuple[int, ...]:
    if not letters:
        return ()
    return min(_least_rotation(letters), _least_rotation(_inv_letters(letters)))


def _substitute(letters: list[int], gen: int, image: list[int]) -> list[int]:
    """Replace letter +-(gen+1) by image / its inverse, then reduce."""
    out: list[int] = []
    target = gen + 1
    inv_image = _inv_letters(image)
    for c in letters:
        if c == target:
            out.extend(image)
        elif c == -target:
            out.extend(inv_image)
        else:
            out.append(c)
    return _reduce_letters(out)


def _letters_text(letters: Sequence[int]) -> str:
    """One character per signed letter (+g -> 2g-1, -g -> 2g), so that a
    window of letters is a substring that ``str.find`` can locate."""
    return "".join([chr(2 * c - 1) if c > 0 else chr(-2 * c) for c in letters])


def _overlap_heads(rule: list[int], text: str, half: int) -> list[str]:
    """Encoded length-``half`` heads of the rule's variants in scan order:
    rotation 0, inverse rotation 0, rotation 1, inverse rotation 1, ..."""
    doubles = (text * 2, _letters_text(_inv_letters(rule)) * 2)
    return [d[s : s + half] for s in range(len(rule)) for d in doubles]


def tietze_simplify(p: Presentation, budget: int = 10000) -> TietzeResult:
    """Simplify a presentation without ever adding generators.

    Moves: free/cyclic reduction, duplicate and trivial relator removal,
    elimination of a generator that occurs exactly once in some relator, and
    substitution of long relator overlaps.  Deterministic; the overlap phase
    is skipped for oversized presentations (fixed thresholds).

    The overlap phase takes the first hit in rule -> target -> variant ->
    position order, where a variant is a rotation of the rule or of its
    inverse and its first ``len // 2 + 1`` letters (the head) are replaced by
    the inverse of the rest.  Relators are encoded one character per letter,
    so a head's first position in a target is one ``str.find``.  Each relator
    slot carries an integer stamp, renewed whenever its letters change, and
    each target remembers the rule stamps that gave it no hit: a pair's
    outcome depends only on the two relators' letters, so it is searched
    again only after one of them changed, and the hits stay in order.
    """
    work = [_cyclic_reduce(signed_letters(r)) for r in p.relators]
    work = [w for w in work if w]
    names = list(p.gens)
    # original generator -> letters over current generators
    old_to_new: list[list[int]] = [[g + 1] for g in range(p.ngens)]
    steps = 0
    # dead generators keep their numbers until the final compaction so that
    # untouched relators keep their cached data verbatim
    alive = [True] * p.ngens
    keys = [_canonical_cyclic(w) for w in work]

    def once_gen(letters: list[int]) -> Optional[int]:
        """Least generator occurring exactly once, if any."""
        counts: dict[int, int] = {}
        for c in letters:
            a = abs(c) - 1
            counts[a] = counts.get(a, 0) + 1
        return min((g for g, k in counts.items() if k == 1), default=None)

    gsets = [{abs(c) - 1 for c in w} for w in work]
    onces = [once_gen(w) for w in work]
    # letters encoded for the overlap scan, on demand (None: not yet)
    texts: list[Optional[str]] = [None] * len(work)
    new_stamp = itertools.count().__next__
    stamps = [new_stamp() for _ in work]
    # target slot -> stamps of the rules known to give it no overlap hit
    # (None until the first one)
    misses: list[Optional[set[int]]] = [None] * len(work)
    slots = (work, keys, gsets, onces, texts, stamps, misses)

    def dedup() -> None:
        seen: set[tuple[int, ...]] = set()
        kept = []
        for i, key in enumerate(keys):
            if key and key not in seen:
                seen.add(key)
                kept.append(i)
        for column in slots:
            column[:] = [column[i] for i in kept]

    def drop(i: int) -> None:
        for column in slots:
            del column[i]

    def refresh(i: int) -> None:
        keys[i] = _canonical_cyclic(work[i])
        gsets[i] = {abs(c) - 1 for c in work[i]}
        onces[i] = once_gen(work[i])
        texts[i] = None
        stamps[i] = new_stamp()
        misses[i] = None

    def find_overlap() -> Optional[tuple[int, list[int]]]:
        """The first overlap hit, as its target slot and rewritten letters."""
        for j, text in enumerate(texts):
            if text is None:
                texts[j] = _letters_text(work[j])
        for i, rule in enumerate(work):
            ell = len(rule)
            if ell < 2 or ell > _OVERLAP_RULE_MAX:
                continue
            half = ell // 2 + 1
            stamp = stamps[i]
            heads = None
            for j, text in enumerate(texts):
                if j == i or not half <= len(text) <= _OVERLAP_MAX_LEN:
                    continue
                known = misses[j]
                if known is not None and stamp in known:
                    continue
                if heads is None:
                    heads = _overlap_heads(rule, texts[i], half)
                for v, head in enumerate(heads):
                    s = text.find(head)
                    if s >= 0:
                        base = _inv_letters(rule) if v % 2 else rule
                        tail = (base[v // 2 :] + base[: v // 2])[half:]
                        target = work[j]
                        newrel = target[:s] + _inv_letters(tail) + target[s + half :]
                        return j, _cyclic_reduce(newrel)
                if known is None:
                    known = misses[j] = set()
                known.add(stamp)
        return None

    dedup()
    changed = True
    while changed and steps < budget:
        changed = False
        # generator elimination: prefer the shortest defining relator
        best = None
        for ri, g in enumerate(onces):
            if g is not None:
                rank = (len(work[ri]), ri, g)
                if best is None or rank < best:
                    best = rank
        if best is not None:
            _, ri, gen = best
            rel = work[ri]
            pos = next(i for i, c in enumerate(rel) if abs(c) - 1 == gen)
            rest = rel[pos + 1 :] + rel[:pos]
            image = _inv_letters(rest) if rel[pos] > 0 else list(rest)
            drop(ri)
            for i in range(len(work)):
                if gen in gsets[i]:
                    work[i] = _cyclic_reduce(_substitute(work[i], gen, image))
                    refresh(i)
            target = gen + 1
            for i, w in enumerate(old_to_new):
                if any(c == target or c == -target for c in w):
                    old_to_new[i] = _substitute(w, gen, image)
            alive[gen] = False
            steps += 1
            changed = True
            dedup()
            continue
        # overlap substitution, gated by size
        if len(work) <= _OVERLAP_MAX_RELATORS:
            hit = find_overlap()
            if hit is not None:
                # The result is always shorter: a rule of length l trades
                # l // 2 + 1 letters for l - (l // 2 + 1) and reduction only cuts.
                j, newrel = hit
                if newrel:
                    work[j] = newrel
                    refresh(j)
                else:
                    drop(j)
                steps += 1
                dedup()
                changed = True

    # compact the numbering to the surviving generators
    rank = [0] * p.ngens
    kept_names = []
    for g, keep in enumerate(alive):
        rank[g] = len(kept_names)
        if keep:
            kept_names.append(names[g])

    def compact(letters: list[int]) -> list[int]:
        return [(rank[abs(c) - 1] + 1) * (1 if c > 0 else -1) for c in letters]

    work = [compact(w) for w in work]
    old_to_new = [compact(w) for w in old_to_new]
    work.sort(key=lambda w: (len(w), w))
    out = Presentation(tuple(kept_names), tuple(word_from_letters(w) for w in work))
    mapping = tuple(word_from_letters(w) for w in old_to_new)
    return TietzeResult(out, mapping, steps)


def transport_word(word: Word, mapping: Sequence[Word]) -> Word:
    """Rewrite a word over original generators through a Tietze mapping."""
    out = Word()
    for g, e in word.letters:
        out = out * (mapping[g] ** e)
    return out
