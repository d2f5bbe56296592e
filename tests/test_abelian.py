import itertools
import json
import random
import sys
import tracemalloc
from importlib import resources

import pytest
from test_rewrite import BEAUVILLE_JOB, _kernel_table

import prodquot.product_quotient as pq
from prodquot.abelian import AbelianInvariants, invariants_from_matrix, smith_diagonal
from prodquot.cli import parse_job
from prodquot.orbifold import Signature, orbifold_presentation
from prodquot.presentation import quotient_presentation
from prodquot.product_quotient import build_pi1
from prodquot.rewrite import _translated_rows
from prodquot.words import Word


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


def test_smith_diagonal_reads_the_rows_as_given(monkeypatch):
    # no deduplicated copy: the matrix itself, zero and repeated rows
    # included, and smith_diagonal leaves it as it was
    import prodquot.abelian as abelian

    seen = []

    def recording(matrix):
        seen.append(matrix)
        return smith_diagonal(matrix)

    monkeypatch.setattr(abelian, "smith_diagonal", recording)
    m = [[0, 3, 1], [2, 0, 0], [0, 0, 0], [0, 3, 1], [1, 1, 1], [2, 0, 0]]
    assert invariants_from_matrix(m, 3) == AbelianInvariants(0, (4,))
    assert len(seen) == 1 and seen[0] is m
    assert m == [[0, 3, 1], [2, 0, 0], [0, 0, 0], [0, 3, 1], [1, 1, 1], [2, 0, 0]]


def _reference_smith(matrix):
    """smith_diagonal before the unit-pivot and mod-determinant phases: the
    dense loop (least pivot in the trailing block, row and column clearing,
    divisibility fix) over a copy of every row."""
    a = [list(row) for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    diag = []
    t = 0
    while t < m and t < n:
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = a[i][j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    piv = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        if a[t][t] < 0:
            a[t] = [-v for v in a[t]]
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        if a[t][t] < 0:
                            a[t] = [-v for v in a[t]]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        if a[t][t] < 0:
                            a[t] = [-v for v in a[t]]
                        dirty = True
                        break
            if dirty:
                continue
            d = a[t][t]
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % d:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
        diag.append(a[t][t])
        t += 1
    return diag


def _check_against_reference(matrix):
    before = [list(row) for row in matrix]
    assert smith_diagonal(matrix) == _reference_smith(matrix), matrix
    assert matrix == before  # rows are read, never written


def test_smith_diagonal_matches_reference_on_frozen_cases():
    for case in frozen_cases():
        _check_against_reference(case["matrix"])


def test_a_pivot_above_the_modulus_is_kept():
    # The first five rows fill the echelon (modulus 216, then 108); the unit
    # row [0, 1] removes column 1 and sends both echelon rows back; [90] (the
    # reduced [-18, -6]) alone fills the one-column echelon, lowering the
    # modulus to gcd(108, 90) = 18 below that pivot; merging [18] against it
    # gives the gcd 18, a pivot that reduced modulo 18 would be 0.
    m = [[18, -6], [0, -12], [36, -6], [-36, 12], [36, 6], [-18, -6], [0, 1]]
    m += [[3, 0], [18, 0], [0, 0], [3, 0], [3, 0], [0, 1]]
    _check_against_reference(m)
    assert smith_diagonal(m) == [1, 3]


def test_the_rows_of_the_modulus_complete_the_lattice():
    # The first seven rows fill the echelon and bring the modulus down to 9;
    # the unit row [4, 0, -1] removes a column; the last merges leave an
    # echelon of index 2 while the modulus falls to gcd(3, 2) = 1.  Only the
    # rows 1 * e_i, given to the dense loop at the end, show that the
    # quotient is trivial.
    m = [[9, -6, 3], [-6, 3, 6], [-6, -3, -9], [-3, 0, 9], [9, -3, -9], [0, 0, -3]]
    m += [[12, 4, -8], [4, 0, -1], [4, 4, -2], [6, 6, 9]]
    _check_against_reference(m)
    assert smith_diagonal(m) == [1, 1, 1]


# Seven rows without a unit entry, more than twice the three columns: merged
# at once into the full-rank echelon [4, 2, 0], [0, 4, 2], [0, 0, 4] of
# determinant 64, the modulus.  Every later row without a unit entry is
# reduced against those rows as it comes.
FULL_RANK_START = [[4, 2, 0], [0, 4, 2], [0, 0, 4], [4, 6, 2], [8, 4, 4], [4, -2, -2], [0, 8, 0]]
FULL_RANK_LATER = {
    # rows of the echelon's lattice, a zero row and a repeat: all dropped
    "reduce to zero": [[8, 8, 2], [4, 6, 6], [0, -4, -6], [12, 6, 8], [0, 0, 0], [4, 2, 0]],
    # [2, 0, 0] stops at the first pivot, 4, and its merge lowers the
    # modulus to 8; the rows after it are reduced modulo 8
    "lower the modulus": [[2, 0, 0], [0, 2, 2], [6, 4, 4], [0, 0, 2], [2, 2, 2]],
    # [4, 4, 2] is reduced by the first row to [0, 2, 2] and stops at the
    # second pivot, 4, which does not divide 2; its merge lowers the modulus
    # to 16
    "stop at a pivot": [[4, 4, 2], [8, 4, 6], [4, 2, 2], [12, 10, 4]],
    # [1, 2, 2] is a unit pivot: column 0 goes and the echelon rows are
    # sent back; five rows later a two-column echelon has full rank again
    # (modulus 4), and [0, 3, 5] leaves the remainder [1, 3] there
    "unit pivot after full rank": [
        [8, 8, 2], [1, 2, 2], [0, 4, 6], [2, 4, 6], [0, 6, 4], [4, 8, 8], [2, 0, 4],
        [0, 2, 8], [0, 4, 4], [0, 3, 5],
    ],
}


@pytest.mark.parametrize("case", sorted(FULL_RANK_LATER))
def test_rows_after_a_full_rank_echelon(case):
    matrix = FULL_RANK_START + FULL_RANK_LATER[case]
    _check_against_reference(matrix)
    rng = random.Random(f"full rank:{case}")
    for _ in range(20):
        shuffled = [list(row) for row in matrix]
        rng.shuffle(shuffled)
        assert smith_diagonal(shuffled) == _reference_smith(matrix), shuffled


def test_a_row_in_a_full_rank_lattice_costs_no_merge(monkeypatch):
    # the seven rows that fill the echelon are merged; thirty rows of its
    # lattice after them are not.  A row leaving a remainder is merged as it
    # comes, and the rows after it are reduced against the echelon it left:
    # [0, 2, 2] and the rows after it lie in that lattice, not in the first
    import prodquot.abelian as abelian

    merged = []
    merge = abelian._merge

    def counting(echelon, v, mod):
        merged.append(list(v))
        return merge(echelon, v, mod)

    monkeypatch.setattr(abelian, "_merge", counting)
    rng = random.Random("lattice rows")
    lattice = _combinations(rng, FULL_RANK_START[:3], 30)
    matrix = FULL_RANK_START + lattice
    assert smith_diagonal(matrix) == _reference_smith(matrix) == [2, 2, 16]
    assert len(merged) == len(FULL_RANK_START)
    merged.clear()
    later = [[4, 4, 2], [0, 2, 2], [8, 6, 2], [0, 6, 2], [4, 0, 6]] + lattice
    assert smith_diagonal(matrix + later) == _reference_smith(matrix + later) == [2, 2, 4]
    assert merged[len(FULL_RANK_START):] == [[0, 2, 2]]


def _random_matrix(rng, rows, cols, entries, density=1.0):
    return [
        [rng.choice(entries) if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]


def _combinations(rng, basis, rows, density=1.0):
    """rows random integer combinations of the basis rows."""
    out = []
    for _ in range(rows):
        coeffs = [rng.randint(-2, 2) if rng.random() < density else 0 for _ in basis]
        out.append([sum(c * row[k] for c, row in zip(coeffs, basis)) for k in range(len(basis[0]))])
    return out


def _torsion_basis(rng, cols):
    """A random unimodular change of basis of diag(1, ..., 1, d1, d2, d3)."""
    diag = [1] * (cols - 3) + [rng.choice([2, 3]), 6, rng.choice([12, 30, 60])]
    basis = [[diag[i] if i == j else 0 for j in range(cols)] for i in range(cols)]
    for _ in range(4 * cols):
        i, j = rng.sample(range(cols), 2)
        c = rng.randint(-2, 2)
        for row in basis:
            row[i] += c * row[j]
    return basis


def _spanning(rng, basis, rows, density=1.0):
    """The basis and combinations of it, shuffled: the basis's lattice."""
    out = basis + _combinations(rng, basis, rows - len(basis), density)
    rng.shuffle(out)
    return out


def _late_units(rng, cols):
    """Rows of 2L first (all entries even: no unit, a full-rank echelon and a
    modulus), then a basis of L, whose unit entries remove columns the
    echelon already covers."""
    basis = _torsion_basis(rng, cols)
    doubled = [[2 * x for x in row] for row in _combinations(rng, basis, 3 * cols)]
    return doubled + _spanning(rng, basis, cols + 2)


RANDOM_KINDS = {
    "late units": lambda rng: _late_units(rng, rng.randint(2, 7)),
    "tall sparse": lambda rng: _spanning(rng, _torsion_basis(rng, 12), 80, 0.15),
    "tall dense": lambda rng: _spanning(rng, _torsion_basis(rng, 8), 60),
    "tall random": lambda rng: _random_matrix(rng, 40, 8, range(-4, 5)),
    "full rank with torsion": lambda rng: _spanning(rng, _torsion_basis(rng, 5), 8),
    "rank deficient": lambda rng: _combinations(
        rng, _random_matrix(rng, 4, 9, [-4, -2, 0, 2, 3, 6]), 20
    ),
    "no unit entry": lambda rng: _random_matrix(rng, 7, 5, [-6, -4, -2, 0, 2, 4, 6, 9]),
    "negative entries": lambda rng: _random_matrix(rng, 6, 5, range(-9, 0), 0.6),
    "large common factor": lambda rng: [
        [x * 2**40 * 3 for x in row] for row in _random_matrix(rng, 15, 5, range(-3, 4))
    ],
    "zero columns": lambda rng: [
        [0 if j in (1, 4) else x for j, x in enumerate(row)]
        for row in _spanning(rng, _torsion_basis(rng, 6), 20)
    ],
    "one row": lambda rng: _random_matrix(rng, 1, rng.randint(1, 8), range(-12, 13)),
    "one column": lambda rng: _random_matrix(rng, rng.randint(1, 12), 1, range(-12, 13)),
}


@pytest.mark.parametrize("kind", sorted(RANDOM_KINDS))
def test_smith_diagonal_matches_reference_on_random_matrices(kind):
    rng = random.Random(f"snf:{kind}")
    for _ in range(25):
        matrix = RANDOM_KINDS[kind](rng)
        _check_against_reference(matrix)
        # and on the same rows in another order, with repeats
        shuffled = matrix + rng.sample(matrix, len(matrix) // 2)
        rng.shuffle(shuffled)
        assert smith_diagonal(shuffled) == _reference_smith(matrix)


def test_smith_diagonal_matches_reference_on_criterion_5_matrices():
    # the exponent-sum matrices of acceptance criterion 5: small-signature
    # orbifold presentations with some powers of the elliptic generators
    # killed, a seeded sample of them
    rng = random.Random(5)
    cases = []
    for genus in (0, 1, 2):
        for r in range(5):
            for periods in itertools.combinations_with_replacement((2, 3, 4, 5, 6), r):
                cases.append(Signature.of(genus, periods))
    for sig in rng.sample(cases, 60):
        base = orbifold_presentation(sig)
        for _ in range(5):
            kill = {
                q: rng.sample(range(1, m + 1), rng.randint(0, 2))
                for q, m in enumerate(sig.periods)
            }
            extra = [
                Word(((2 * sig.genus + q, e),)) for q, exps in sorted(kill.items()) for e in exps
            ]
            p = quotient_presentation(base, extra)
            _check_against_reference([r.exponent_sums(p.ngens) for r in p.relators])


def test_smith_diagonal_matches_reference_on_tall_matrices_of_few_rows():
    # 84 rows over 5 columns drawn from 6 distinct rows, the shape of a
    # classify pi1 abelianization: every repeat is skipped.  From 30
    # distinct rows, more than the 2 * 5 that smith_diagonal keeps, the
    # repeats of the later ones are read like new rows.
    rng = random.Random(84)
    for distinct in (6, 30):
        for _ in range(10):
            rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(distinct // 2)]
            rows += [[2 * rng.randint(-3, 3) for _ in range(5)] for _ in range(distinct // 2)]
            matrix = [list(rng.choice(rows)) for _ in range(84)]
            _check_against_reference(matrix)
            assert smith_diagonal(matrix) == _reference_smith(rows)


def _canonical_candidate_matrix():
    """The relation rows of the Beauville job's index-25 canonical candidate
    (the kernel of pi1 onto the acting group), as the verify search makes
    them."""
    res = build_pi1(parse_job(json.dumps(BEAUVILLE_JOB)).actions)
    quo, values = pq._canonical_candidate(res)
    table = _kernel_table(res.presentation, quo, values, res.max_cosets)
    return _translated_rows(res.presentation, table)


def test_invariants_of_a_tall_matrix_hold_a_fraction_of_it():
    rows, ngens = _canonical_candidate_matrix()
    assert (len(rows), ngens) == (1725, 51)
    size = sys.getsizeof(rows) + sum(sys.getsizeof(row) for row in rows)
    tracemalloc.start()
    try:
        inv = invariants_from_matrix(rows, ngens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inv == AbelianInvariants(24)
    assert peak < size / 4, (peak, size)
