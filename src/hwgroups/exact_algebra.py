"""Exact arithmetic substrate.

Integer polynomials with their binomial rows (1 +- x)^m, and the
package root's ``VerificationError``, re-exported.  No Smith normal
form is needed: the abelianization's relator rows are a diagonal
matrix up to permutation (``hw_group``).  No GF(2) elimination
is needed anywhere: the spectral sequence has monomial d_2 blocks,
ranked by counting distinct columns, and the bigraded algebra has
relations with disjoint supports, both in ``cohomology_f2``.
No rational elimination is needed either: ``cohomology_q`` reads h^1
off the weight of a sign character, and ``crystal`` solves its
diagonal isometries coordinate by coordinate.  Everything here is pure
and allocation-cheap; no floating point is used anywhere.
"""

from __future__ import annotations

from operator import index
from typing import List, Sequence, Union

from . import VerificationError, _Value

__all__ = [
    "IntPolynomial",
    "binomial_power",
]


class IntPolynomial(_Value):
    """Univariate polynomial with integer coefficients, coeffs[k] at x^k.

    The coefficient tuple carries no trailing zeros, so equality of
    values is equality of tuples.  The zero polynomial has an empty
    tuple and degree -1 (the sentinel).  Coefficients are read with
    ``operator.index``: a float, a ``Fraction`` or a str raises TypeError.
    """

    __slots__ = ()
    _fields = ("coeffs",)

    def __new__(cls, coeffs: Sequence[int] = ()) -> "IntPolynomial":
        coeffs = tuple(map(index, coeffs))
        end = len(coeffs)
        while end and coeffs[end - 1] == 0:
            end -= 1
        return tuple.__new__(cls, (coeffs[:end],))

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
