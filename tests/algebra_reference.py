"""Literal constructions the tests use as oracles for three shortcuts.

``abelianization_relation_matrix`` writes down the abelianized
presentation row by row, one row per defining relator; the package
takes the Smith form of its n distinct rows only.  ``solve_rational``
solves a rational system by Gauss-Jordan elimination; the package
reads fixed points off coordinate by coordinate, since its isometries
have diagonal linear parts.  ``wedge_character`` spells out the sign
vector of a wedge monomial entry by entry, and ``h0`` and
``cohomology_q.h1`` read its invariants; the package's subset sum reads
each term off one bitmask instead.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Sequence, Union

from hwgroups.cohomology_q import Character
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
