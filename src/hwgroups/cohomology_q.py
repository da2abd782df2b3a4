"""Rational cohomology of G_n via sign characters of the quotient.

Every wedge monomial g_A spans a one-dimensional module on which the
generator x_j acts by the sign (-1)^(|A| - [j in A]); the Poincare
polynomial is the subset sum of the h^0/h^1 contributions of these
characters.  The sum runs on subset bitmasks: the -1 positions of the
character of g_A are A itself for even |A| and its complement for odd
|A|, so each term is read off the weight of one int.  ``Character``
and ``h1`` give the same h^1 on the explicit sign vectors; the tests
recompute it by rational linear algebra.  The closed form of the same
sum has half-integer intermediates; it is expanded at twice its value
over the integers and must halve exactly.  Nothing here needs the F_2
series, so this module imports only ``exact_algebra``.
"""

from __future__ import annotations

from operator import index
from typing import Sequence

from . import VerificationError, _Value
from .exact_algebra import IntPolynomial, binomial_power

__all__ = [
    "Character",
    "h1",
    "poincare_q_spectral",
    "poincare_q_closed",
    "congruent_mod2",
]


class Character(_Value):
    """Sign vector in {+1,-1}^n encoding a one-dimensional module.

    Entries are read with ``operator.index``: a float, a ``Fraction`` or
    a str raises TypeError.
    """

    __slots__ = ()
    _fields = ("eps",)

    def __new__(cls, eps: Sequence[int]) -> "Character":
        eps = tuple(map(index, eps))
        if any(v not in (1, -1) for v in eps):
            raise ValueError("character entries must be +-1")
        return tuple.__new__(cls, (eps,))

    @property
    def n(self) -> int:
        return len(self.eps)

    @property
    def weight(self) -> int:
        """Number of -1 entries, written |eps|."""
        return sum(1 for v in self.eps if v == -1)

    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.eps)


def _minus_positions(full: int, mask: int) -> int:
    """The -1 entries of the character of g_mask as a bitmask (bit j-1
    for x_j): mask itself when |mask| is even, full ^ mask when odd,
    where full has the n low bits set."""
    return full ^ mask if mask.bit_count() & 1 else mask


def h1(eps: Character) -> int:
    """First cohomology dimension: |eps| - 1 off the trivial character."""
    if eps.is_trivial():
        return 0
    return eps.weight - 1


def poincare_q_spectral(n: int) -> IntPolynomial:
    """Poincare polynomial as the sum over all 2^n wedge characters.

    Column p contributes x^p * x^|A| * h^p of the character of g_A, and
    columns p > 1 vanish.  Each mask A is one term, read off the bitmask
    m of the character's -1 positions: h^0 = 1 when m = 0, and otherwise
    h^1 = |m| - 1, the value ``h1`` gives on the explicit character.
    The term count is exponential; ``cli`` refuses 2^n over its enumeration bound.
    """
    if n < 0:
        raise ValueError("rank must be nonnegative")
    full = (1 << n) - 1
    coeffs = [0] * (n + 2)
    for mask in range(1 << n):
        minus = _minus_positions(full, mask)
        if minus:
            coeffs[mask.bit_count() + 1] += minus.bit_count() - 1
        else:
            coeffs[mask.bit_count()] += 1
    return IntPolynomial(tuple(coeffs))


def poincare_q_closed(n: int) -> IntPolynomial:
    """Closed form of the rational Poincare polynomial.

    (1+x) * (1 + c_n x^n + x((n-2)/2 (1+x)^(n-1) - n/2 (1-x)^(n-1)))
    with c_n = 1 for odd n and 0 for even n.  Twice the polynomial is
    expanded over the integers and halved; every coefficient must be
    even, which is checked, never rounded.
    """
    if n < 0:
        raise ValueError("rank must be nonnegative")
    if n == 0:
        return IntPolynomial((1,))
    x = IntPolynomial.x()
    mix = (n - 2) * binomial_power(n - 1) - n * binomial_power(n - 1, -1)
    twice = (1 + x) * (2 + 2 * (n % 2) * x ** n + x * mix)
    odd = [c for c in twice.coeffs if c % 2]
    if odd:
        raise VerificationError(f"non-integral coefficient {odd[0]}/2 in closed form")
    return IntPolynomial(tuple(c // 2 for c in twice.coeffs))


def congruent_mod2(a: IntPolynomial, b: IntPolynomial) -> bool:
    """Whether a and b agree coefficientwise mod 2."""
    return all(c % 2 == 0 for c in (a - b).coeffs)
