"""Exact arithmetic substrate.

Integer polynomials with their binomial rows (1 +- x)^m, Smith normal
form over Z, and the rank of a matrix over Q.  No GF(2) elimination is
needed anywhere: the spectral sequence has monomial d_2 blocks, ranked
by counting distinct columns, and the bigraded algebra has relations
with disjoint supports, both in ``cohomology_f2``.  Everything here is
pure and allocation-cheap; no floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple, Union

__all__ = [
    "IntPolynomial",
    "binomial_power",
    "IntMatrix",
    "smith_normal_form",
    "rational_rank",
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
        """self^k by repeated squaring (TAOCP 2, 4.6.3): about log2(k)
        squarings and as many products with the running result."""
        if k < 0:
            raise ValueError("negative polynomial power")
        out = IntPolynomial((1,))
        square = self
        while k:
            if k & 1:
                out = out * square
            k >>= 1
            if k:
                square = square * square
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

    A matrix with at most one nonzero entry in each row and each column
    is normalised by gcd and lcm (``_diagonal_smith_form``); any other
    goes through the pivot loop (``_pivot_smith_form``).
    """
    if not isinstance(m, IntMatrix):
        m = IntMatrix(m)
    size = min(m.n_rows, m.n_cols)
    entries = _monomial_entries(m.entries)
    if entries is not None:
        return _diagonal_smith_form(entries, size)
    return _pivot_smith_form(m)


def _pivot_smith_form(m: IntMatrix) -> Tuple[int, ...]:
    """Smith form by the classical pivot/reduce with
    smallest-nonzero-pivot selection.

    Each pass picks the entry of least absolute value in the remaining
    submatrix, clears its row and column, and restarts whenever a
    division leaves a remainder or a non-divisible entry is folded in;
    the pivot's absolute value strictly decreases, so this terminates.
    Every pass rescans the remaining submatrix, so an n x n input costs
    O(n^3) even when it is diagonal.
    """
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


def _monomial_entries(rows: Sequence[Sequence[int]]) -> Optional[List[int]]:
    """Absolute values of the nonzero entries, or None when some row or
    some column holds two of them."""
    entries: List[int] = []
    cols = set()
    for row in rows:
        nonzero = [j for j, v in enumerate(row) if v]
        if nonzero:
            j = nonzero[0]
            if len(nonzero) > 1 or j in cols:
                return None
            cols.add(j)
            entries.append(abs(row[j]))
    return entries


def _diagonal_smith_form(entries: List[int], size: int) -> Tuple[int, ...]:
    """Smith form of a size-wide matrix whose nonzero entries, at most
    one in each row and column, have the given absolute values.

    Permuting rows and columns makes the matrix diagonal, and diag(a, b)
    is equivalent to diag(gcd(a, b), lcm(a, b)).  Replacing d_i, d_j
    that way for each pair i < j where d_i does not divide d_j leaves
    d_i dividing every later entry once i is done, and later
    replacements keep it so.  For k entries that is k(k-1)/2 remainder
    tests, and a gcd and lcm only where one fails.
    """
    d = list(entries)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[j] % d[i]:
                d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return tuple(d) + (0,) * (size - len(d))


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
