"""Freely reduced words over integer generator ids.

A word is a tuple of (generator, exponent) letters with nonzero exponents and
no two adjacent letters sharing a generator.  Generator ids index into the
name table of whatever presentation the word belongs to; the word itself is
presentation-agnostic.  Instances are immutable and safe to share.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterable, Sequence


def _reduce(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for gen, exp in pairs:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A freely reduced word; build through ``free_reduce`` or operators."""

    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for gen, exp in self.letters:
            if exp == 0:
                raise ValueError("zero exponent in word")
            if gen == prev:
                raise ValueError("word is not freely reduced")
            prev = gen

    def __mul__(self, other: "Word") -> "Word":
        return Word(_reduce(self.letters + other.letters))

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else self.inverse()
        return Word(_reduce(base.letters * abs(n)))

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return sum(abs(e) for _, e in self.letters)

    def generators(self) -> set[int]:
        return {g for g, _ in self.letters}

    def max_generator(self) -> int:
        return max(map(itemgetter(0), self.letters), default=-1)

    def shift(self, offset: int) -> "Word":
        """Reindex every generator by a fixed offset."""
        return Word(tuple((g + offset, e) for g, e in self.letters))

    def exponent_sums(self, ngens: int) -> list[int]:
        sums = [0] * ngens
        for g, e in self.letters:
            sums[g] += e
        return sums


def free_reduce(pairs: Iterable[tuple[int, int]]) -> Word:
    return Word(_reduce(pairs))


def word_product(words: Iterable[Word]) -> Word:
    """The product of the words in one reduction pass; free reduction is
    unique, so this equals multiplying them one at a time."""
    return Word(_reduce(chain.from_iterable(w.letters for w in words)))


def word_to_cols(word: Word) -> list[int]:
    """Column code, one entry per single letter: 2g for g, 2g + 1 for g^-1."""
    cols: list[int] = []
    for g, e in word.letters:
        cols += [2 * g] * e if e > 0 else [2 * g + 1] * -e
    return cols


def word_from_letters(letters: Sequence[int]) -> Word:
    """Build a word from signed single letters: +-(gen+1)."""
    return free_reduce(((abs(c) - 1, 1 if c > 0 else -1) for c in letters))


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def parse_word(text: str, name_to_id: dict[str, int]) -> Word:
    """Parse relator syntax like ``a*b^-1*a^2``; "1" or "" is the identity."""
    text = text.strip()
    if text in ("", "1"):
        return Word()
    pairs: list[tuple[int, int]] = []
    for chunk in text.split("*"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty factor in word {text!r}")
        if "^" in chunk:
            name, _, exp_text = chunk.partition("^")
            name = name.strip()
            try:
                exp = int(exp_text.strip())
            except ValueError:
                raise ValueError(f"bad exponent {exp_text!r} in word {text!r}") from None
        else:
            name, exp = chunk, 1
        if not _NAME.fullmatch(name):
            raise ValueError(f"bad generator name {name!r} in word {text!r}")
        if name not in name_to_id:
            raise ValueError(f"unknown generator {name!r} in word {text!r}")
        pairs.append((name_to_id[name], exp))
    return free_reduce(pairs)


def format_word(word: Word, names: Sequence[str]) -> str:
    if word.is_identity():
        return "1"
    parts = []
    for g, e in word.letters:
        parts.append(names[g] if e == 1 else f"{names[g]}^{e}")
    return "*".join(parts)
