"""Rational cohomology of G_n via sign characters of the quotient.

Every wedge monomial g_A spans a one-dimensional module on which the
generator x_j acts by the sign (-1)^(|A| - [j in A]); the Poincare
polynomial is the subset sum of the h^0/h^1 contributions of these
characters.  The sum runs on subset bitmasks: the -1 positions of the
character of g_A are A itself for even |A| and its complement for odd
|A|, so each term is read off the weight of one int.  ``Character``,
``h0``, ``h1`` and ``h1_oracle`` give the same values on the explicit
sign vectors.  The closed form of the same sum has half-integer
intermediates; it is expanded at twice its value over the integers and
must halve exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Tuple

from .exact_algebra import IntPolynomial, VerificationError, binomial_power, rational_rank
from .cohomology_f2 import poincare_f2_closed

__all__ = [
    "Character",
    "trivial_character",
    "wedge_character",
    "h0",
    "h1",
    "h1_oracle",
    "poincare_q_spectral",
    "poincare_q_closed",
    "mod2_compare",
    "congruent_mod2",
    "DEFAULT_SUBSET_LIMIT",
]

DEFAULT_SUBSET_LIMIT = 16


@dataclass(frozen=True)
class Character:
    """Sign vector in {+1,-1}^n encoding a one-dimensional module."""

    eps: Tuple[int, ...]

    def __post_init__(self) -> None:
        eps = tuple(int(v) for v in self.eps)
        if any(v not in (1, -1) for v in eps):
            raise ValueError("character entries must be +-1")
        object.__setattr__(self, "eps", eps)

    @property
    def n(self) -> int:
        return len(self.eps)

    @property
    def weight(self) -> int:
        """Number of -1 entries, written |eps|."""
        return sum(1 for v in self.eps if v == -1)

    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.eps)

    def __mul__(self, other: "Character") -> "Character":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return Character(tuple(a * b for a, b in zip(self.eps, other.eps)))

    def __neg__(self) -> "Character":
        return Character(tuple(-v for v in self.eps))


def trivial_character(n: int) -> Character:
    return Character((1,) * n)


def _minus_positions(full: int, mask: int) -> int:
    """The -1 entries of the character of g_mask as a bitmask (bit j-1
    for x_j): mask itself when |mask| is even, full ^ mask when odd,
    where full has the n low bits set."""
    return full ^ mask if mask.bit_count() & 1 else mask


def wedge_character(n: int, subset: Iterable[int]) -> Character:
    """Character of the wedge monomial g_A: entry j is
    (-1)^(|A|+1) on A and (-1)^|A| off A."""
    mask = 0
    for i in set(subset):
        if not 1 <= i <= n:
            raise ValueError(f"subset member {i} out of range for rank {n}")
        mask |= 1 << (i - 1)
    minus = _minus_positions((1 << n) - 1, mask)
    return Character(tuple(-1 if minus >> j & 1 else 1 for j in range(n)))


def h0(eps: Character) -> int:
    """Invariants: 1 for the trivial character, else 0."""
    return 1 if eps.is_trivial() else 0


def h1(eps: Character) -> int:
    """First cohomology dimension: |eps| - 1 off the trivial character."""
    if eps.is_trivial():
        return 0
    return eps.weight - 1


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


def poincare_q_spectral(n: int, subset_limit: int = DEFAULT_SUBSET_LIMIT) -> IntPolynomial:
    """Poincare polynomial as the sum over all 2^n wedge characters.

    Column p contributes x^p * x^|A| * h^p of the character of g_A, and
    columns p > 1 vanish.  Each mask A is one term, read off the bitmask
    m of the character's -1 positions: h^0 = 1 when m = 0, and otherwise
    h^1 = |m| - 1, the values ``h0`` and ``h1`` give on the explicit
    character.  Guarded by subset_limit since the term count is
    exponential.
    """
    if n < 0:
        raise ValueError("rank must be nonnegative")
    if n > subset_limit:
        raise ValueError(
            f"rank {n} exceeds the subset-sum guard {subset_limit}; "
            "raise subset_limit explicitly to force this")
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


def mod2_compare(n: int) -> bool:
    """Coefficientwise congruence mod 2 of the two closed forms (even n only)."""
    if n % 2:
        raise ValueError("the mod-2 congruence is claimed for even rank only")
    return congruent_mod2(poincare_q_closed(n), poincare_f2_closed(n))


def congruent_mod2(a: IntPolynomial, b: IntPolynomial) -> bool:
    """Whether a and b agree coefficientwise mod 2."""
    return all(c % 2 == 0 for c in (a - b).coeffs)
