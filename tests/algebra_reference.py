"""Literal constructions the tests use as oracles for four shortcuts.

``abelianization_relation_matrix`` writes down the abelianized
presentation row by row, one row per defining relator, and
``pivot_smith_form`` reduces any integer matrix by the classical pivot
loop; the package reads the invariant factors off one relator row for
each generator instead.  ``solve_rational`` solves a rational system by
Gauss-Jordan elimination; the package reads fixed points off coordinate
by coordinate, since its isometries have diagonal linear parts.
``wedge_character`` spells out the sign vector of a wedge monomial
entry by entry, and ``h0`` and ``cohomology_q.h1`` read its invariants;
the package's subset sum reads each term off one bitmask instead.
``h1_oracle`` recomputes h^1 of a character as two ranks over Q
(``rational_rank``), where ``cohomology_q.h1`` uses the case formula.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple, Union

from hwgroups.cohomology_q import Character


def abelianization_relation_matrix(n: int) -> Tuple[Tuple[int, ...], ...]:
    """Relation matrix of the abelianized presentation.

    Each defining relator with pair (i, j) maps to 4 e_j after killing
    commutators, so the matrix has one row 4 e_j per ordered pair.
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    rows = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                rows.append(tuple(4 if k == j - 1 else 0 for k in range(n)))
    return tuple(rows)


def pivot_smith_form(rows: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """Diagonal of the Smith normal form, nonnegative with d_k | d_{k+1},
    by the classical pivot/reduce with smallest-nonzero-pivot selection.

    Each pass picks the entry of least absolute value in the remaining
    submatrix, clears its row and column, and restarts whenever a
    division leaves a remainder or a non-divisible entry is folded in;
    the pivot's absolute value strictly decreases, so this terminates.
    Every pass rescans the remaining submatrix, so an n x n input costs
    O(n^3) even when it is diagonal.
    """
    mat = [[int(v) for v in row] for row in rows]
    n_rows = len(mat)
    n_cols = len(mat[0]) if mat else 0
    if any(len(row) != n_cols for row in mat):
        raise ValueError("matrix rows have unequal lengths")
    size = min(n_rows, n_cols)
    t = 0
    while t < size:
        pos = _min_nonzero(mat, t, n_rows, n_cols)
        if pos is None:
            break
        i, j = pos
        if i != t:
            mat[t], mat[i] = mat[i], mat[t]
        if j != t:
            for row in mat:
                row[t], row[j] = row[j], row[t]
        if mat[t][t] < 0:
            mat[t] = [-v for v in mat[t]]
        p = mat[t][t]
        dirty = False
        for i in range(t + 1, n_rows):
            q = mat[i][t] // p
            if q:
                for j2 in range(t, n_cols):
                    mat[i][j2] -= q * mat[t][j2]
            if mat[i][t]:
                dirty = True
        for j in range(t + 1, n_cols):
            q = mat[t][j] // p
            if q:
                for i2 in range(t, n_rows):
                    mat[i2][j] -= q * mat[i2][t]
            if mat[t][j]:
                dirty = True
        if dirty:
            continue
        bad = _non_divisible_row(mat, t, p, n_rows, n_cols)
        if bad is not None:
            for j2 in range(t, n_cols):
                mat[t][j2] += mat[bad][j2]
            continue
        t += 1
    return tuple(mat[k][k] for k in range(size))


def _min_nonzero(mat: List[List[int]], t: int, n_rows: int, n_cols: int):
    best = None
    for i in range(t, n_rows):
        for j in range(t, n_cols):
            v = mat[i][j]
            if v and (best is None or abs(v) < best[0]):
                best = (abs(v), i, j)
    if best is None:
        return None
    return best[1], best[2]


def _non_divisible_row(mat: List[List[int]], t: int, p: int, n_rows: int, n_cols: int):
    for i in range(t + 1, n_rows):
        for j in range(t + 1, n_cols):
            if mat[i][j] % p:
                return i
    return None


def _gauss_jordan(work: List[List[Fraction]], n_cols: int) -> List[int]:
    """Reduce the first n_cols columns of work in place; return the pivot columns."""
    pivot_cols: List[int] = []
    rank = 0
    for col in range(n_cols):
        pivot_row = None
        for i in range(rank, len(work)):
            if work[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot = work[rank][col]
        work[rank] = [v / pivot for v in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                factor = work[i][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[rank])]
        pivot_cols.append(col)
        rank += 1
    return pivot_cols


def rational_rank(rows: Sequence[Sequence[Union[int, Fraction]]]) -> int:
    """Rank of a matrix over Q by exact Gaussian elimination."""
    work = [[Fraction(v) for v in row] for row in rows]
    if not work:
        return 0
    return len(_gauss_jordan(work, len(work[0])))


def solve_rational(
    rows: Sequence[Sequence[Union[int, Fraction]]],
    rhs: Sequence[Union[int, Fraction]],
) -> List[Fraction] | None:
    """One exact solution of A v = b, or None when inconsistent.

    Underdetermined systems get free variables set to zero, so the
    returned witness is deterministic.
    """
    if len(rows) != len(rhs):
        raise ValueError("rhs length must match the row count")
    work = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    if not work:
        return []
    n_cols = len(rows[0])
    pivot_cols = _gauss_jordan(work, n_cols)
    if any(row[n_cols] for row in work[len(pivot_cols):]):
        return None
    solution = [Fraction(0)] * n_cols
    for k, col in enumerate(pivot_cols):
        solution[col] = work[k][n_cols]
    return solution


def wedge_character(n: int, subset: Iterable[int]) -> Character:
    """Character of the wedge monomial g_A: entry j is
    (-1)^(|A|+1) on A and (-1)^|A| off A."""
    members = set(subset)
    for i in members:
        if not 1 <= i <= n:
            raise ValueError(f"subset member {i} out of range for rank {n}")
    size = len(members)
    return Character(tuple((-1) ** (size + 1) if j in members else (-1) ** size
                           for j in range(1, n + 1)))


def h0(eps: Character) -> int:
    """Invariants: 1 for the trivial character, else 0."""
    return 1 if eps.is_trivial() else 0


def h1_oracle(n: int, eps: Character) -> int:
    """h^1 recomputed from first principles by rational linear algebra.

    A 1-cocycle on the free product of involutions is a tuple (c_i)
    subject to (1 + eps_i) c_i = 0; coboundaries are spanned by the
    single vector (eps_i - 1).  Both dimensions are honest matrix ranks,
    not case formulas.
    """
    if eps.n != n:
        raise ValueError("character rank mismatch")
    constraints = [
        [Fraction(1 + eps.eps[i]) if j == i else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    cocycle_dim = n - rational_rank(constraints)
    coboundary = [[Fraction(eps.eps[i] - 1)] for i in range(n)]
    coboundary_dim = rational_rank(coboundary)
    return cocycle_dim - coboundary_dim
