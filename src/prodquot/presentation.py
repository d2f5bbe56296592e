"""Finite presentations: construction, products, quotients, simplification."""

from __future__ import annotations

import bisect
import heapq
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
    """p with the non-identity words of extra appended; only those words are
    checked, since p itself was validated when it was built."""
    added = tuple(w for w in extra if not w.is_identity())
    if any(w.max_generator() >= p.ngens for w in added):
        raise ValueError("relator uses an unknown generator")
    q = object.__new__(Presentation)  # skips __post_init__'s re-validation of p
    object.__setattr__(q, "gens", p.gens)
    object.__setattr__(q, "relators", p.relators + added)
    return q


# ---------------------------------------------------------------------------
# Tietze simplification.  Inside ``tietze_simplify`` every relator, every
# substitution image and every original generator's image is one ``str``, one
# character per single letter: the signed letter c = +-(gen+1) is
# chr(base + c), with base the generator count.  The code preserves order, so
# comparing two strings compares their signed-letter sequences, as the final
# (length, word) sort and the choice of the least generator need.  Inversion
# is a reversal and one ``translate``, substitution is ``replace`` then one
# free-reduction pass where letters can cancel, and a window of letters is a
# substring: an overlap pair is tested with ``in``, and no window is cached.

DEFAULT_TIETZE_STEPS = 10_000
_OVERLAP_MAX_RELATORS = 48
_OVERLAP_MAX_LEN = 512
_OVERLAP_RULE_MAX = 64
# the largest code, chr(2 * ngens), must be a code point (at most 0x10FFFF)
_TIETZE_MAX_GENS = 0x10FFFF // 2


@dataclass(frozen=True)
class TietzeResult:
    presentation: Presentation
    old_to_new: tuple[Word, ...]  # original generator -> word in surviving gens
    steps_used: int


class _Code:
    """The one-character code of the signed letters over ``ngens`` generators:
    c = +-(gen+1) is chr(ngens + c), so codes run from 0 to 2 * ngens in the
    order of the signed letters.  The tables cover every code, which keeps
    ``translate`` off its slow path for missing keys."""

    __slots__ = ("base", "inverse_char", "flip", "fold")

    def __init__(self, ngens: int) -> None:
        if ngens > _TIETZE_MAX_GENS:
            raise ValueError(
                f"Tietze simplification handles at most {_TIETZE_MAX_GENS} "
                f"generators (one code point per signed letter), got {ngens}"
            )
        base = self.base = ngens
        codes = range(2 * base + 1)
        self.inverse_char = {chr(x): chr(2 * base - x) for x in codes}
        self.flip = str.maketrans(self.inverse_char)  # each letter -> its inverse
        self.fold = {x: base + abs(x - base) for x in codes}  # g^-1 -> g

    def encode(self, word: Word) -> str:
        """A letter (gen, exp) is a run of |exp| copies of one code."""
        base = self.base
        return "".join(
            [chr(base + g + 1) * e if e > 0 else chr(base - g - 1) * -e for g, e in word.letters]
        )

    def decode(self, s: str) -> Word:
        """The word of a freely reduced code: each run of one character is
        one (gen, exp) letter."""
        letters = []
        for ch, run in itertools.groupby(s):
            c, e = ord(ch) - self.base, len(list(run))
            letters.append((c - 1, e) if c > 0 else (-c - 1, -e))
        return Word(tuple(letters))

    def inverse(self, s: str) -> str:
        return s[::-1].translate(self.flip)

    def reduce(self, s: str, cyclic: bool = True) -> str:
        """Free reduction, then (by default) cyclic reduction."""
        inverse_char = self.inverse_char
        out: list[str] = []
        for ch in s:
            if out and out[-1] == inverse_char[ch]:
                out.pop()
            else:
                out.append(ch)
        i, j = 0, len(out) - 1
        while cyclic and i < j and out[i] == inverse_char[out[j]]:
            i += 1
            j -= 1
        return "".join(out[i : j + 1])


class _Relator:
    """One relator's letters and its overlap scan state.  A record's letters
    never change: a relator whose letters change gets a new record, with a
    new stamp (unique within one simplification and increasing) and an empty
    scan state."""

    __slots__ = ("word", "key", "stamp", "misses", "clean", "heads")

    def __init__(self, word: str, stamp: int, code: _Code) -> None:
        self.word = word
        # canonical cyclic key: the least rotation of the word or of its
        # inverse, which starts with the least letter of the two, the inverse
        # of the largest generator
        key = word
        if word:
            n = len(word)
            least = code.inverse_char[max(word.translate(code.fold))]
            for w in (word, code.inverse(word)):
                doubled = w + w
                i = w.find(least)
                while i >= 0:
                    rotation = doubled[i : i + n]
                    if rotation < key:
                        key = rotation
                    i = w.find(least, i + 1)
        self.key = key
        self.stamp = stamp
        # stamps of the rules known to give this relator no overlap hit
        self.misses: Optional[set[int]] = None
        # the largest stamp present when this relator, as a rule, last gave no
        # overlap hit on any target
        self.clean: Optional[int] = None
        # as a rule: the heads of its variants, in scan order
        self.heads: Optional[list[str]] = None


def _find_overlap(rels: list[_Relator], code: _Code) -> Optional[tuple[int, str]]:
    """The first overlap hit, as its target position and rewritten word.

    A rule that gave no hit on any target is searched again only against the
    targets built since, in list order; a target skips the rules that
    already missed it.  The variants are searched in order only on a hit."""
    stamps = [rec.stamp for rec in rels]
    by_stamp = sorted(range(len(rels)), key=stamps.__getitem__)  # positions, oldest first
    stamps.sort()
    latest = stamps[-1] if rels else None
    for i, rec in enumerate(rels):
        rule = rec.word
        ell = len(rule)
        if ell < 2 or ell > _OVERLAP_RULE_MAX:
            continue
        clean = rec.clean
        if clean is None:
            targets: Iterable[int] = range(len(rels))
        elif clean >= latest:
            continue
        else:
            targets = sorted(by_stamp[bisect.bisect_right(stamps, clean) :])
        half = ell // 2 + 1
        heads = rec.heads
        if heads is None:
            # variants in scan order: rotation 0, inverse rotation 0,
            # rotation 1, inverse rotation 1, ...
            doubles = (rule * 2, code.inverse(rule) * 2)
            heads = rec.heads = [d[s : s + half] for s in range(ell) for d in doubles]
        stamp = rec.stamp
        for j in targets:
            target = rels[j]
            word = target.word
            if j == i or not half <= len(word) <= _OVERLAP_MAX_LEN:
                continue
            known = target.misses
            if known is not None and stamp in known:
                continue
            if any(map(word.__contains__, heads)):
                for v, head in enumerate(heads):
                    s = word.find(head)
                    if s >= 0:
                        variant = rule if v % 2 == 0 else code.inverse(rule)
                        tail = (variant * 2)[v // 2 + half : v // 2 + ell]
                        return j, code.reduce(word[:s] + code.inverse(tail) + word[s + half :])
            if known is None:
                known = target.misses = set()
            known.add(stamp)
        rec.clean = latest
    return None


def tietze_simplify(p: Presentation, budget: int = DEFAULT_TIETZE_STEPS) -> TietzeResult:
    """Simplify a presentation without ever adding generators.

    Moves: free/cyclic reduction, duplicate and trivial relator removal,
    elimination of a generator that occurs exactly once in some relator, and
    substitution of long relator overlaps.  Deterministic; the overlap phase
    is skipped for oversized presentations (fixed thresholds).  Raises
    ``ValueError``, before any work, above ``_TIETZE_MAX_GENS`` (557 055)
    generators, where the letter code runs out of code points.

    Every word is held as one string in the code of ``_Code``.  The code
    preserves order, so comparing two strings compares their signed letters
    +-(gen+1) as lists: the final (length, word) sort of the relators is
    that of the signed-letter form.  Each relator keeps its input position,
    its slot, for good; duplicate removal keeps the first of each canonical
    cyclic key, so slot order is list order.

    Elimination takes the relator of least (length, slot) that has a
    generator occurring exactly once, and eliminates the least such
    generator.  One heap holds (length, slot) for every relator that may
    have one; an entry goes stale when its word changes length, and a popped
    word with no such generator is dropped until a substitution changes its
    length (a one-letter image that keeps the length only merges generators,
    so it cannot create one).  Substitution touches the slots that may hold
    the generator, step by step, and reduces only where letters can cancel.
    Duplicates need not be removed between eliminations: two relators with
    one key keep one key under substitution and cyclic reduction, so a later
    copy never outranks its first copy and becomes empty when that copy
    defines an elimination.  An exact copy is still blanked as soon as it
    appears, to spare its substitutions; the full removal by key runs before
    each overlap scan and at the end, and blanks a later copy for good.
    Each original generator's image is resolved once, at the end, from the
    eliminated generators' images: substitution commutes with free
    reduction.

    The overlap phase takes the first hit in rule -> target -> variant ->
    position order, where a variant is a rotation of the rule or of its
    inverse and its first ``len // 2 + 1`` letters (the head) are replaced by
    the inverse of the rest.  It runs when no elimination is left, over one
    ``_Relator`` record per slot, kept while the slot's letters do not
    change.  A pair's outcome depends only on the two relators' letters, so
    it is searched again only after one of them changed, and the hits stay
    in order.  Records are stamped in build order; a rule that gave no hit
    on any target is searched again only against the targets built since,
    and each target remembers the stamps of the rules that missed it.  A
    rule's heads are cut once per record.  Whether a pair hits at all is one
    C-level pass, ``any(map(word.__contains__, heads))``; only then are the
    heads searched one by one with ``str.find``.  No window of a target is
    cached: sets of every target's windows per head length cost megabytes.
    """
    code = _Code(p.ngens)
    inverse_char = code.inverse_char
    fold = code.fold
    nslots = len(p.relators)
    words = [""] * nslots
    records: list[Optional[_Relator]] = [None] * nslots
    slot_of: dict[str, int] = {}  # nonempty word -> its slot; no two slots hold one word

    def put(slot: int, w: str) -> bool:
        """Store ``w`` at ``slot`` and blank the later of two exact copies;
        return whether ``slot`` now holds a nonempty word."""
        records[slot] = None
        if words[slot]:
            del slot_of[words[slot]]
        t = slot_of.get(w)
        if t is not None:
            if t < slot:
                words[slot] = ""
                return False
            words[t] = ""
            records[t] = None
        words[slot] = w
        if w:
            slot_of[w] = slot
        return bool(w)

    # positive letter -> slots of the words that may hold it
    holders: dict[str, set[int]] = {chr(code.base + g + 1): set() for g in range(p.ngens)}
    for slot, r in enumerate(p.relators):
        # a Word is freely reduced, so only a cyclic trim can apply
        w = code.encode(r)
        put(slot, code.reduce(w) if w and w[0] == inverse_char[w[-1]] else w)
        for g in set(w.translate(fold)):
            holders[g].add(slot)
    # (length, slot) entries, coded as length * nslots + slot; sorted is a heap
    heap = sorted(len(w) * nslots + slot for slot, w in enumerate(words) if w)
    new_stamp = itertools.count().__next__

    def live() -> tuple[list[_Relator], list[int]]:
        """The records of the nonempty words and their slots, in slot order,
        after blanking for good each later copy of a canonical key."""
        rels: list[_Relator] = []
        slots: list[int] = []
        keys: set[str] = set()
        for slot in sorted(slot_of.values()):
            rec = records[slot]
            if rec is None:
                rec = records[slot] = _Relator(words[slot], new_stamp(), code)
            if rec.key in keys:
                put(slot, "")
            else:
                keys.add(rec.key)
                rels.append(rec)
                slots.append(slot)
        return rels, slots

    images: dict[str, str] = {}  # eliminated generator -> its image, in elimination order
    heappop, heappush, reduce = heapq.heappop, heapq.heappush, code.reduce
    steps = 0
    while slot_of and steps < budget:
        if heap:
            n, slot = divmod(heappop(heap), nslots)
            rel = words[slot]
            if len(rel) != n:
                continue
            folded = rel.translate(fold)
            once = [g for g in set(folded) if folded.count(g) == 1]
            if not once:
                continue
            gen = min(once)
            gen_inv = inverse_char[gen]
            pos = rel.find(gen)
            if pos >= 0:
                image = code.inverse(rel[pos + 1 :] + rel[:pos])
            else:
                pos = rel.find(gen_inv)
                image = rel[pos + 1 :] + rel[:pos]
            image_inv = code.inverse(image)
            images[gen] = image
            put(slot, "")
            changed = []
            if image:  # the letter pairs that cancel where an image meets a neighbour
                head, tail = inverse_char[image[0]] + image[0], image[-1] + inverse_char[image[-1]]
            keeps_length = len(image) == 1
            for s in holders.pop(gen):
                w = words[s]
                if gen not in w and gen_inv not in w:
                    continue
                # w is cyclically reduced and the image freely reduced, so
                # letters can cancel only where an image meets a neighbour
                if image:
                    new = w.replace(gen, image).replace(gen_inv, image_inv)
                    cancels = head in new or tail in new
                else:
                    pieces = w.replace(gen_inv, gen).split(gen)
                    new = pieces[0]
                    cancels = False
                    for piece in pieces[1:]:
                        if piece:
                            if new and new[-1] == inverse_char[piece[0]]:
                                cancels = True
                            new += piece
                if cancels or (new and new[0] == inverse_char[new[-1]]):
                    new = reduce(new)
                # put(s, new), inline: w is nonempty, so slot_of holds it
                records[s] = None
                del slot_of[w]
                t = slot_of.get(new)
                if t is not None:
                    if t < s:
                        words[s] = ""
                        continue
                    words[t] = ""
                    records[t] = None
                words[s] = new
                if new:
                    slot_of[new] = s
                    changed.append(s)
                    if not keeps_length or len(new) != len(w):
                        heappush(heap, len(new) * nslots + s)
            for g in set(image.translate(fold)):
                holders[g].update(changed)
            steps += 1
            continue
        rels, slots = live()
        if len(rels) > _OVERLAP_MAX_RELATORS:
            break
        hit = _find_overlap(rels, code)
        if hit is None:
            break
        # The result is always shorter: a rule of length l trades l // 2 + 1
        # letters for l - (l // 2 + 1) and reduction only cuts.
        j, new = hit
        if put(slots[j], new):
            heappush(heap, len(new) * nslots + slots[j])
            for g in set(new.translate(fold)):
                holders[g].add(slots[j])
        steps += 1

    # each original generator's image over the survivors, last elimination first
    base = code.base
    resolved: dict[int, str] = {}
    for gen, image in reversed(images.items()):
        w = code.reduce(image.translate(resolved), cyclic=False)
        resolved[ord(gen)] = w
        resolved[ord(inverse_char[gen])] = code.inverse(w)
    # renumber the surviving generators 0, 1, ...; the map preserves order
    renumber: dict[int, int] = {}
    kept_names = []
    for g, name in enumerate(p.gens):
        if chr(base + g + 1) not in images:
            kept_names.append(name)
            renumber[base + g + 1] = base + len(kept_names)
            renumber[base - g - 1] = base - len(kept_names)
    work = sorted((r.word.translate(renumber) for r in live()[0]), key=lambda w: (len(w), w))
    out = Presentation(tuple(kept_names), tuple(code.decode(w) for w in work))
    mapping = tuple(
        code.decode(chr(base + g + 1).translate(resolved).translate(renumber))
        for g in range(p.ngens)
    )
    return TietzeResult(out, mapping, steps)


def transport_word(word: Word, mapping: Sequence[Word]) -> Word:
    """Rewrite a word over original generators through a Tietze mapping."""
    return word_product(mapping[g] ** e for g, e in word.letters)
