import itertools
import random

import pytest

from prodquot.presentation import _Code
from prodquot.words import (
    Word,
    format_word,
    free_reduce,
    parse_word,
)

NAMES = ["a", "b", "c"]
IDS = {name: i for i, name in enumerate(NAMES)}


def test_free_reduce_cancels_adjacent_inverses():
    assert free_reduce([(0, 1), (0, -1)]).is_identity()
    assert free_reduce([(0, 2), (0, -1)]) == Word(((0, 1),))
    assert free_reduce([(0, 1), (1, 1), (1, -1), (0, -1)]).is_identity()
    assert free_reduce([(0, 1), (1, 0), (0, 1)]) == Word(((0, 2),))


def test_word_rejects_unreduced_letters():
    with pytest.raises(ValueError):
        Word(((0, 0),))
    with pytest.raises(ValueError):
        Word(((0, 1), (0, 1)))


def test_word_times_inverse_is_identity_exhaustive():
    alphabet = [(g, e) for g in (0, 1) for e in (-2, -1, 1, 2)]
    for n in range(4):
        for letters in itertools.product(alphabet, repeat=n):
            w = free_reduce(letters)
            assert (w * w.inverse()).is_identity()
            assert (w.inverse() * w).is_identity()
            assert w.inverse().inverse() == w


def test_parse_format_round_trip_exhaustive():
    alphabet = [(g, e) for g in (0, 1, 2) for e in (-2, -1, 1, 3)]
    for n in range(4):
        for letters in itertools.product(alphabet, repeat=n):
            w = free_reduce(letters)
            assert parse_word(format_word(w, NAMES), IDS) == w


def test_parse_word_fixed_cases():
    assert parse_word("1", IDS).is_identity()
    assert parse_word("", IDS).is_identity()
    assert parse_word("a*b^-1*a^2", IDS) == Word(((0, 1), (1, -1), (0, 2)))
    assert parse_word("a*a", IDS) == Word(((0, 2),))
    assert parse_word(" a * b ", IDS) == Word(((0, 1), (1, 1)))


def test_parse_word_rejects_bad_syntax():
    with pytest.raises(ValueError):
        parse_word("(a*b)^2", IDS)
    with pytest.raises(ValueError):
        parse_word("d", IDS)
    with pytest.raises(ValueError):
        parse_word("a**b", IDS)
    with pytest.raises(ValueError):
        parse_word("a^", IDS)


def test_power_matches_repeated_product():
    w = parse_word("a*b^-1", IDS)
    assert w**0 == Word()
    assert w**3 == w * w * w
    assert w**-2 == (w * w).inverse()


def test_exponent_sums_and_generators():
    w = parse_word("a*b^-1*a^2*c", IDS)
    assert w.exponent_sums(3) == [3, -1, 1]
    assert w.generators() == {0, 1, 2}
    assert w.max_generator() == 2


def test_shift_offsets_generator_ids():
    w = parse_word("a*b^-1", IDS)
    assert w.shift(5) == Word(((5, 1), (6, -1)))


def test_signed_letters_round_trip():
    """Tietze's one-character code writes a letter (gen, exp) as a run of
    |exp| signed-letter characters and reads the runs back."""
    rng = random.Random(7)
    code = _Code(len(NAMES))
    for _ in range(500):
        letters = [
            (rng.randrange(3), rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]))
            for _ in range(rng.randrange(9))
        ]
        w = free_reduce(letters)
        assert code.decode(code.encode(w)) == w
    assert code.encode(Word()) == "" and code.decode("") == Word()
    # a = +1 -> chr(4), b^-1 = -2 -> chr(1)
    assert code.encode(parse_word("a*b^-1", IDS)) == "\x04\x01"


def test_len_counts_single_letters():
    w = parse_word("a^3*b^-2", IDS)
    assert len(w) == 5
    assert _Code(len(NAMES)).encode(w) == "\x04\x04\x04\x01\x01"
    rng = random.Random(11)
    for _ in range(200):
        w = free_reduce(
            [(rng.randrange(3), rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(6)]
        )
        assert len(w) == len(_Code(len(NAMES)).encode(w)) == sum(abs(e) for _, e in w.letters)
