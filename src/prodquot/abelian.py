"""Integer Smith normal form and abelian invariants of presentations.

Everything here runs over Python's arbitrary-precision integers on purpose:
presentations met in practice produce small matrices whose elementary divisors
can still overflow fixed-width types, and exactness matters more than speed.

The relation matrices met in practice are tall: the verify search's kernels
give index x relators rows over 2 * index + 1 columns, most rows with an
entry +-1 (Havas-Holt-Rees, "Recognizing badly presented Z-modules", 1993).
``smith_diagonal`` reads the rows one at a time, never copies the matrix and
holds a few rows per column, in three phases.  A repeated row goes through
them like any other; a reduced row already held is not kept twice (phase 2).

1. Unit pivots.  Each row is reduced by the unit pivots found so far.  A
   reduced row w with an entry +-1 at column k becomes the next pivot: Z^n
   modulo w is Z^(n-1) on the other columns (x -> x - x_k * w), so w gives
   a diagonal 1, column k is removed, and every row held is mapped along.
2. Mod-determinant echelon.  Reduced rows without a unit entry are kept,
   once each, and when they number more than twice the remaining r columns
   they are merged by extended-gcd steps into a Hermite echelon of at most
   one row per column (Cohen, GTM 138, section 2.4).  Those steps are
   unimodular, so the lattice spanned never changes.  When the echelon has
   rank r, the product D of its pivots is the index of its lattice in Z^r,
   so D * Z^r lies in the lattice L of the rows.  Adding a multiple of D to
   an entry changes a row by an element of D * Z^r, so the rows held
   together with D * Z^r still span exactly L: from then on every entry is
   kept modulo D, and the rows D * e_i join the rows held at the end
   (Domich-Kannan-Trotter).  A later full-rank echelon lowers D to its gcd
   with that echelon's product, and removing a column keeps D * Z^(r-1)
   in L.  While the echelon has full rank, each later row is reduced
   against its r rows as it comes, not kept: a row that reduces to zero
   lies in L and is dropped, and one that stops at a pivot not dividing
   its entry is merged at once.  A new unit pivot ends this until the
   echelon fills again.
3. Dense loop.  What remains -- the echelon, the rows not yet merged and,
   when a modulus is in use, the rows D * e_i -- goes through the textbook
   loop: least pivot, row and column clearing, divisibility fix.

The Smith diagonal is unique, so none of this shows in the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from typing import Iterable, Sequence


@dataclass(frozen=True)
class AbelianInvariants:
    """free_rank copies of Z plus cyclic factors of the given orders.

    torsion is the divisibility chain d1 | d2 | ... with every entry >= 2.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        prev = 1
        for d in self.torsion:
            if d < 2 or d % prev:
                raise ValueError(f"torsion chain broken: {self.torsion}")
            prev = d


def smith_diagonal(matrix: Iterable[Sequence[int]]) -> list[int]:
    """Nonzero diagonal d1 | d2 | ... of the Smith normal form of matrix.
    Rows are read once, in order, and never modified; zero and repeated rows
    are allowed."""
    cols: list[int] = []  # the original columns not removed by a unit pivot
    pivot_cols: list[int] = []  # each unit pivot's original column
    pivot_rows: list[list[int]] = []  # ... and its row over cols
    echelon: dict[int, list[int]] = {}  # leading position -> row over cols
    pending: list[list[int]] = []  # distinct reduced rows not merged yet
    mod = 0  # D of the module docstring; 0 until the echelon has full rank
    full: list[list[int]] = []  # the echelon's rows in order while it has full rank
    for i, v in enumerate(matrix):
        if not i:
            cols = list(range(len(v)))
        w = [v[c] for c in cols]
        for c, p in zip(pivot_cols, pivot_rows):
            c = v[c]
            if c:
                w = [x - c * y for x, y in zip(w, p)]
        if 1 in w:
            k = w.index(1)
        elif -1 in w:
            k = w.index(-1)
            w = [-x for x in w]
        else:
            if mod:
                w = [x % mod for x in w]
            if full:
                for j, e in enumerate(full):
                    q = w[j] // e[j]
                    if q:
                        w = [(x - q * y) % mod for x, y in zip(w, e)]
                    if w[j]:  # e[j] does not divide it: merge the rest
                        mod = _merge(echelon, w, mod)
                        full = [echelon[j] for j in range(len(cols))]
                        break
            elif any(w) and w not in pending:
                pending.append(w)
                if len(pending) > 2 * len(cols):
                    for e in pending:
                        mod = _merge(echelon, e, mod)
                    pending = []
                    if mod and len(echelon) == len(cols):
                        full = [echelon[j] for j in range(len(cols))]
            continue
        # w is the next unit pivot: map every row held along x -> x - x_k * w
        full = []
        for held in (pivot_rows, pending):
            for e in held:
                c = e[k]
                if c:
                    e[:] = [x - c * y for x, y in zip(e, w)]
                del e[k]
        kept = {}
        for j, e in echelon.items():
            c = e[k]
            if c:  # no longer in echelon position
                e = [x - c * y for x, y in zip(e, w)]
                del e[k]
                pending.append(e)
            else:
                del e[k]
                kept[j - (j > k)] = e  # positions past k move down one
        echelon = kept
        del w[k]
        pivot_cols.append(cols.pop(k))
        pivot_rows.append(w)
    rest = [*echelon.values(), *pending]
    r = len(cols)
    if mod:
        rest += ([mod if i == j else 0 for j in range(r)] for i in range(r))
    return [1] * len(pivot_rows) + _dense_diagonal(rest)


def _merge(echelon: dict[int, list[int]], v: list[int], mod: int) -> int:
    """Merge the row v into the Hermite echelon (leading position -> row,
    leading entry positive) by unimodular steps, reducing entries modulo mod
    when it is nonzero; returns the modulus, lowered to a divisor of the
    pivots' product when the echelon has full rank."""
    r = len(v)
    changed = False
    j = 0
    while True:
        while j < r and not v[j]:
            j += 1
        if j == r:
            break
        p = echelon.get(j)
        if p is None:
            echelon[j] = v if v[j] > 0 else [-x for x in v]
            changed = True
            break
        h, c = p[j], v[j]
        q, rem = divmod(c, h)
        if rem:
            # (p, v) -> (s*p + t*v, (h/g)*v - (c/g)*p): determinant 1
            g, s, t = _xgcd(h, c)
            a, b = h // g, c // g
            p, v = [s * x + t * y for x, y in zip(p, v)], [a * y - b * x for x, y in zip(p, v)]
            if mod:
                p = [x % mod for x in p]
                p[j] = g  # g can reach mod when v was held unreduced
                v = [x % mod for x in v]
            echelon[j] = p
            changed = True
        elif mod:
            v = [(x - q * y) % mod for x, y in zip(v, p)]
        else:
            v = [x - q * y for x, y in zip(v, p)]
        j += 1
    if changed and len(echelon) == r:
        d = gcd(mod, prod(e[i] for i, e in echelon.items()))
        if d != mod:
            mod = d
            for i, e in echelon.items():
                e[i + 1:] = [x % mod for x in e[i + 1:]]
    return mod


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b >= 0."""
    s0, t0, s1, t1 = 1, 0, 0, 1
    while b:
        q, rem = divmod(a, b)
        a, b = b, rem
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _dense_diagonal(a: list[list[int]]) -> list[int]:
    """Nonzero Smith diagonal of the rows a, which are overwritten."""
    m = len(a)
    n = len(a[0]) if m else 0
    diag: list[int] = []
    t = 0
    while t < m and t < n:
        # locate a pivot of least magnitude in the trailing block
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
            # clear the pivot column
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
            # clear the pivot row
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
            # enforce divisibility against the trailing block
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


def invariants_from_matrix(matrix: Sequence[Sequence[int]], ngens: int) -> AbelianInvariants:
    """Invariants of Z^ngens modulo the rows; the rows go to smith_diagonal
    as given, without a copy."""
    diag = smith_diagonal(matrix)
    torsion = tuple(d for d in diag if d > 1)
    return AbelianInvariants(free_rank=ngens - len(diag), torsion=torsion)
