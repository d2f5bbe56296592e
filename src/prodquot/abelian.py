"""Integer Smith normal form and abelian invariants of presentations.

Everything here runs over Python's arbitrary-precision integers on purpose:
presentations met in practice produce small matrices whose elementary divisors
can still overflow fixed-width types, and exactness matters more than speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


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

    def is_free(self) -> bool:
        return not self.torsion


def smith_diagonal(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero diagonal d1 | d2 | ... of the Smith normal form of matrix."""
    a = [list(row) for row in matrix]
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
    """Invariants of Z^ngens modulo the rows.  Zero and repeated rows are
    dropped first, keeping first occurrences in order: smith_diagonal's pivot
    path, and so its cost, depends on the row order."""
    rows = [r for r in dict.fromkeys(map(tuple, matrix)) if any(r)]
    diag = smith_diagonal(rows) if rows else []
    torsion = tuple(d for d in diag if d > 1)
    return AbelianInvariants(free_rank=ngens - len(diag), torsion=torsion)
