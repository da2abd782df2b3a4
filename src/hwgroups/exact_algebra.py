"""Exact arithmetic substrate.

Integer polynomials with their binomial rows (1 +- x)^m, Smith normal
form over Z, and exact linear algebra over Q.  No GF(2) elimination is
needed anywhere: the spectral sequence has monomial d_2 blocks, ranked
by counting distinct columns, and the bigraded algebra has relations
with disjoint supports, both in ``cohomology_f2``.  Everything here is
pure and allocation-cheap; no floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

__all__ = [
    "IntPolynomial",
    "binomial_power",
    "IntMatrix",
    "smith_normal_form",
    "rational_rank",
    "solve_rational",
    "VerificationError",
]

class VerificationError(AssertionError):
    """A mathematical identity the package checks at run time failed.

    Raised explicitly rather than by ``assert`` so the check still runs
    under ``python -O``.
    """


@dataclass(frozen=True)
class IntPolynomial:
    """Univariate polynomial with integer coefficients, coeffs[k] at x^k.

    The coefficient tuple carries no trailing zeros, so equality of
    values is equality of tuples.  The zero polynomial has an empty
    tuple and degree -1 (the sentinel).
    """

    coeffs: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        coeffs = tuple(int(c) for c in self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def constant(cls, c: int) -> "IntPolynomial":
        return cls((c,))

    @classmethod
    def x(cls) -> "IntPolynomial":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def shifted(self, k: int) -> "IntPolynomial":
        """Multiply by x^k."""
        if not self.coeffs:
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def __add__(self, other: Union["IntPolynomial", int]) -> "IntPolynomial":
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for k, c in enumerate(b):
            summed[k] += c
        return IntPolynomial(tuple(summed))

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: Union["IntPolynomial", int]) -> "IntPolynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other: Union["IntPolynomial", int]) -> "IntPolynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other: Union["IntPolynomial", int]) -> "IntPolynomial":
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        prod = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    prod[i + j] += ca * cb
        return IntPolynomial(tuple(prod))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "IntPolynomial":
        if k < 0:
            raise ValueError("negative polynomial power")
        out = IntPolynomial((1,))
        for _ in range(k):
            out = out * self
        return out

    def __call__(self, value):
        """Evaluate by Horner's rule; exact for int and Fraction inputs."""
        out = 0
        for c in reversed(self.coeffs):
            out = out * value + c
        return out

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: List[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                xk = "x" if k == 1 else f"x^{k}"
                if c == 1:
                    parts.append(xk)
                elif c == -1:
                    parts.append(f"-{xk}")
                else:
                    parts.append(f"{c}*{xk}")
        return " + ".join(parts).replace("+ -", "- ")


def binomial_power(m: int, sign: int = 1) -> IntPolynomial:
    """(1 + sign x)^m for sign +1 or -1, read off row m of Pascal's
    triangle by C(m, k+1) = C(m, k) (m - k) / (k + 1): m exact steps
    instead of the m polynomial products of ``(1 + x) ** m``."""
    if m < 0:
        raise ValueError("negative polynomial power")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    coeffs = [1]
    for k in range(m):
        coeffs.append(coeffs[-1] * sign * (m - k) // (k + 1))
    return IntPolynomial(tuple(coeffs))


def _coerce(value: Union[IntPolynomial, int]) -> IntPolynomial:
    if isinstance(value, IntPolynomial):
        return value
    if isinstance(value, int):
        return IntPolynomial((value,))
    raise TypeError(f"cannot treat {type(value).__name__} as a polynomial")


@dataclass(frozen=True)
class IntMatrix:
    """Rectangular integer matrix, row-major."""

    entries: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(v) for v in row) for row in self.entries)
        if rows:
            width = len(rows[0])
            for row in rows:
                if len(row) != width:
                    raise ValueError("matrix rows have unequal lengths")
        object.__setattr__(self, "entries", rows)

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


def smith_normal_form(m: Union[IntMatrix, Sequence[Sequence[int]]]) -> Tuple[int, ...]:
    """Diagonal of the Smith normal form: nonnegative, d_k | d_{k+1}.

    Classical pivot/reduce with smallest-nonzero-pivot selection.  Each
    pass picks the entry of least absolute value in the remaining
    submatrix, clears its row and column, and restarts whenever a
    division leaves a remainder or a non-divisible entry is folded in;
    the pivot's absolute value strictly decreases, so this terminates.
    """
    if not isinstance(m, IntMatrix):
        m = IntMatrix(m)
    mat = [list(row) for row in m.entries]
    n_rows = m.n_rows
    n_cols = m.n_cols
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
