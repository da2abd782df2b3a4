"""Literal constructions the tests use as oracles for two shortcuts.

``abelianization_relation_matrix`` writes down the abelianized
presentation row by row, one row per defining relator; the package
takes the Smith form of its n distinct rows only.  ``solve_rational``
solves a rational system by Gauss-Jordan elimination; the package
reads fixed points off coordinate by coordinate, since its isometries
have diagonal linear parts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Union

from hwgroups.exact_algebra import IntMatrix, _gauss_jordan


def abelianization_relation_matrix(n: int) -> IntMatrix:
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
    return IntMatrix(tuple(rows)) if rows else IntMatrix(())


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
