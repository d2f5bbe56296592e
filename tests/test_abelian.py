import json
import random
from importlib import resources

import pytest

from prodquot.abelian import AbelianInvariants, invariants_from_matrix, smith_diagonal


def frozen_cases():
    text = resources.files("prodquot").joinpath("data/snf_cases.json").read_text()
    return json.loads(text)


def test_invariants_validation():
    AbelianInvariants(0)
    AbelianInvariants(3, (2, 4, 12))
    with pytest.raises(ValueError):
        AbelianInvariants(-1)
    with pytest.raises(ValueError):
        AbelianInvariants(0, (1,))
    with pytest.raises(ValueError):
        AbelianInvariants(0, (4, 2))  # chain must divide forward
    with pytest.raises(ValueError):
        AbelianInvariants(0, (2, 3))


def test_fixed_small_matrices():
    assert invariants_from_matrix([], 3) == AbelianInvariants(3)
    assert invariants_from_matrix([[0, 0]], 2) == AbelianInvariants(2)
    assert invariants_from_matrix([[1]], 1) == AbelianInvariants(0)
    assert invariants_from_matrix([[2]], 1) == AbelianInvariants(0, (2,))
    assert invariants_from_matrix([[2, 0], [0, 4]], 2) == AbelianInvariants(0, (2, 4))
    # gcd/lcm redistribution across a non-chain diagonal
    assert invariants_from_matrix([[6, 0], [0, 10]], 2) == AbelianInvariants(0, (2, 30))
    assert invariants_from_matrix([[4, 6]], 2) == AbelianInvariants(1, (2,))
    assert invariants_from_matrix([[-3]], 1) == AbelianInvariants(0, (3,))


def test_fifty_frozen_oracles():
    cases = frozen_cases()
    assert len(cases) == 50
    for case in cases:
        inv = invariants_from_matrix(case["matrix"], case["ngens"])
        assert inv == AbelianInvariants(case["free_rank"], tuple(case["torsion"])), case


def test_frozen_oracles_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    for case in frozen_cases():
        rows = case["matrix"]
        if rows:
            s = smith_normal_form(sympy.Matrix(rows))
            diag = [abs(int(s[k, k])) for k in range(min(s.shape))]
        else:
            diag = []
        torsion = sorted(d for d in diag if d > 1)
        free = case["ngens"] - sum(1 for d in diag if d != 0)
        assert torsion == sorted(case["torsion"])
        assert free == case["free_rank"]


def test_invariance_under_row_operations():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        base = invariants_from_matrix([row[:] for row in m], cols)

        # Row swap.
        swapped = [row[:] for row in m]
        swapped[0], swapped[-1] = swapped[-1], swapped[0]
        assert invariants_from_matrix(swapped, cols) == base

        # Row negation.
        negated = [row[:] for row in m]
        negated[0] = [-x for x in negated[0]]
        assert invariants_from_matrix(negated, cols) == base

        # Row shear.
        if rows > 1:
            sheared = [row[:] for row in m]
            for c in range(cols):
                sheared[0][c] += 2 * sheared[1][c]
            assert invariants_from_matrix(sheared, cols) == base

        # Appending a redundant row (sum of existing rows) changes nothing.
        redundant = [row[:] for row in m]
        redundant.append([sum(row[c] for row in m) for c in range(cols)])
        assert invariants_from_matrix(redundant, cols) == base


def test_smith_diagonal_is_a_divisibility_chain():
    rng = random.Random(13)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        diag = smith_diagonal(m)
        diag = [abs(d) for d in diag]
        nonzero = [d for d in diag if d]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0, (m, diag)
        # Zeros, if any, only after every nonzero entry.
        seen_zero = False
        for d in diag:
            if d == 0:
                seen_zero = True
            else:
                assert not seen_zero, (m, diag)


def test_zero_and_duplicate_rows_change_nothing():
    rng = random.Random(17)
    cases = [(case["matrix"], case["ngens"]) for case in frozen_cases()]
    for _ in range(40):
        cols = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rng.randint(1, 5))]
        cases.append((rows, cols))
    for rows, cols in cases:
        base = invariants_from_matrix(rows, cols)
        padded = [list(r) for r in rows]
        for _ in range(rng.randint(1, 4)):
            extra = list(rng.choice(rows)) if rows and rng.random() < 0.7 else [0] * cols
            padded.insert(rng.randint(0, len(padded)), extra)
        assert invariants_from_matrix(padded, cols) == base, (rows, padded)


def test_smith_diagonal_sees_first_occurrences_in_order(monkeypatch):
    # the pivot path depends on the row order, so deduplication must keep it
    import prodquot.abelian as abelian

    seen = []

    def recording(matrix):
        seen.append([list(r) for r in matrix])
        return smith_diagonal(matrix)

    monkeypatch.setattr(abelian, "smith_diagonal", recording)
    m = [[0, 3, 1], [2, 0, 0], [0, 0, 0], [0, 3, 1], [1, 1, 1], [2, 0, 0]]
    assert invariants_from_matrix(m, 3) == AbelianInvariants(0, (4,))
    assert seen == [[[0, 3, 1], [2, 0, 0], [1, 1, 1]]]
