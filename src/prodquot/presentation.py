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
    word_product,
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


class _Relator:
    """One relator's letters and what the simplifier reads off them.  A
    record is never updated: a relator whose letters change becomes a new
    record, with a new stamp (unique within one simplification) and no
    misses."""

    __slots__ = ("letters", "key", "gens", "once", "text", "stamp", "misses")

    def __init__(self, letters: list[int], stamp: int) -> None:
        self.letters = letters
        self.key = _canonical_cyclic(letters)
        counts: dict[int, int] = {}  # generator -> occurrences
        for c in letters:
            g = abs(c) - 1
            counts[g] = counts.get(g, 0) + 1
        # kept as a set: keeping the dict raised bench_tietze's traced peaks ~1%
        self.gens = set(counts)
        # least generator occurring exactly once, if any
        self.once = min((g for g, k in counts.items() if k == 1), default=None)
        self.text: Optional[str] = None  # ``_letters_text``, made on demand
        self.stamp = stamp
        # stamps of the rules known to give this relator no overlap hit
        self.misses: Optional[set[int]] = None


def _dedup(rels: list[_Relator]) -> list[_Relator]:
    """The first record of each nonempty canonical key, in order."""
    seen: set[tuple[int, ...]] = set()
    return [r for r in rels if r.key and not (r.key in seen or seen.add(r.key))]


def _find_overlap(rels: list[_Relator]) -> Optional[tuple[int, list[int]]]:
    """The first overlap hit, as its target position and rewritten letters."""
    for r in rels:
        if r.text is None:
            r.text = _letters_text(r.letters)
    for i, rec in enumerate(rels):
        rule = rec.letters
        ell = len(rule)
        if ell < 2 or ell > _OVERLAP_RULE_MAX:
            continue
        half = ell // 2 + 1
        stamp = rec.stamp
        heads = None
        for j, target in enumerate(rels):
            text = target.text
            if j == i or not half <= len(text) <= _OVERLAP_MAX_LEN:
                continue
            known = target.misses
            if known is not None and stamp in known:
                continue
            if heads is None:
                heads = _overlap_heads(rule, rec.text, half)
            for v, head in enumerate(heads):
                s = text.find(head)
                if s >= 0:
                    base = _inv_letters(rule) if v % 2 else rule
                    tail = (base[v // 2 :] + base[: v // 2])[half:]
                    letters = target.letters
                    newrel = letters[:s] + _inv_letters(tail) + letters[s + half :]
                    return j, _cyclic_reduce(newrel)
            if known is None:
                known = target.misses = set()
            known.add(stamp)
    return None


def tietze_simplify(p: Presentation, budget: int = 10000) -> TietzeResult:
    """Simplify a presentation without ever adding generators.

    Moves: free/cyclic reduction, duplicate and trivial relator removal,
    elimination of a generator that occurs exactly once in some relator, and
    substitution of long relator overlaps.  Deterministic; the overlap phase
    is skipped for oversized presentations (fixed thresholds).

    Relators live in one list of ``_Relator`` records, each holding its
    canonical cyclic key (for duplicate removal, which keeps the first),
    its generator set and least once-occurring generator (for
    elimination, ranked by length, position, generator), and its overlap
    scan state.  A changed relator is a new record.

    The overlap phase takes the first hit in rule -> target -> variant ->
    position order, where a variant is a rotation of the rule or of its
    inverse and its first ``len // 2 + 1`` letters (the head) are replaced by
    the inverse of the rest.  Relators are encoded one character per letter,
    so a head's first position in a target is one ``str.find``.  Each record
    carries an integer stamp, and each target remembers the rule stamps that
    gave it no hit: a pair's outcome depends only on the two relators'
    letters, so it is searched again only after one of them changed, and the
    hits stay in order.
    """
    new_stamp = itertools.count().__next__
    rels = _dedup(
        [_Relator(_cyclic_reduce(signed_letters(r)), new_stamp()) for r in p.relators]
    )
    names = list(p.gens)
    # original generator -> letters over current generators
    old_to_new: list[list[int]] = [[g + 1] for g in range(p.ngens)]
    steps = 0
    # dead generators keep their numbers until the final compaction so that
    # untouched relators keep their records
    alive = [True] * p.ngens
    changed = True
    while changed and steps < budget:
        changed = False
        # generator elimination: prefer the shortest defining relator
        best = min(
            ((len(r.letters), ri, r.once) for ri, r in enumerate(rels) if r.once is not None),
            default=None,
        )
        if best is not None:
            _, ri, gen = best
            rel = rels.pop(ri).letters
            pos = next(i for i, c in enumerate(rel) if abs(c) - 1 == gen)
            rest = rel[pos + 1 :] + rel[:pos]
            image = _inv_letters(rest) if rel[pos] > 0 else list(rest)
            rels = _dedup(
                [
                    _Relator(_cyclic_reduce(_substitute(r.letters, gen, image)), new_stamp())
                    if gen in r.gens
                    else r
                    for r in rels
                ]
            )
            target = gen + 1
            for i, w in enumerate(old_to_new):
                if any(c == target or c == -target for c in w):
                    old_to_new[i] = _substitute(w, gen, image)
            alive[gen] = False
            steps += 1
            changed = True
            continue
        # overlap substitution, gated by size
        if len(rels) <= _OVERLAP_MAX_RELATORS:
            hit = _find_overlap(rels)
            if hit is not None:
                # The result is always shorter: a rule of length l trades
                # l // 2 + 1 letters for l - (l // 2 + 1) and reduction only cuts.
                # An empty result is dropped with the duplicates.
                j, newrel = hit
                rels[j] = _Relator(newrel, new_stamp())
                steps += 1
                rels = _dedup(rels)
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

    work = [compact(r.letters) for r in rels]
    old_to_new = [compact(w) for w in old_to_new]
    work.sort(key=lambda w: (len(w), w))
    out = Presentation(tuple(kept_names), tuple(word_from_letters(w) for w in work))
    mapping = tuple(word_from_letters(w) for w in old_to_new)
    return TietzeResult(out, mapping, steps)


def transport_word(word: Word, mapping: Sequence[Word]) -> Word:
    """Rewrite a word over original generators through a Tietze mapping."""
    return word_product(mapping[g] ** e for g, e in word.letters)
