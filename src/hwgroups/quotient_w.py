"""The quotient W_n, a free product of n copies of Z_2.

Reduced words, the torus action by sign-and-conjugate automorphisms,
the componentwise Klein-four invariant, and the Euler-characteristic
rank formulas for the distinguished free subgroups.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

from .exact_algebra import VerificationError

__all__ = [
    "reduce_w",
    "mul_w",
    "inv_w",
    "TorusAutomorphism",
    "letter_torus_action",
    "torus_action",
    "psi",
    "euler_wn",
    "commutator_rank",
    "kernel_rank_h",
    "HKernelReport",
    "kernel_rank_details",
]


def reduce_w(letters: Iterable[int], n: int | None = None) -> Tuple[int, ...]:
    """Reduced form of a word in W_n: adjacent equal letters cancel.

    Every generator is an involution, so iterated cancellation of equal
    neighbours reaches the unique normal form of the free product.
    """
    out: List[int] = []
    for letter in letters:
        if n is not None and not 1 <= letter <= n:
            raise ValueError(f"letter {letter} out of range for rank {n}")
        if out and out[-1] == letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def mul_w(u: Sequence[int], v: Sequence[int]) -> Tuple[int, ...]:
    return reduce_w(tuple(u) + tuple(v))


def inv_w(u: Sequence[int]) -> Tuple[int, ...]:
    """Inverse in W_n: reverse the word (letters are involutions)."""
    return tuple(reversed(u))


@dataclass(frozen=True)
class TorusAutomorphism:
    """Automorphism of the n-torus generated by coordinate sign flips and
    coordinatewise conjugation.

    signs[k] is the sign applied to coordinate k+1 and conj[k] is 1 when
    that coordinate is additionally conjugated.  Signs multiply and
    conjugation flags add mod 2 under composition, and the two commute,
    so the composition law is componentwise and abelian.
    """

    signs: Tuple[int, ...]
    conj: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.signs) != len(self.conj):
            raise ValueError("signs and conj must have equal length")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +-1")
        if any(c not in (0, 1) for c in self.conj):
            raise ValueError("conj flags must be 0/1")

    @classmethod
    def identity(cls, n: int) -> "TorusAutomorphism":
        return cls((1,) * n, (0,) * n)

    @property
    def n(self) -> int:
        return len(self.signs)

    def compose(self, other: "TorusAutomorphism") -> "TorusAutomorphism":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        signs = tuple(a * b for a, b in zip(self.signs, other.signs))
        conj = tuple((a + b) % 2 for a, b in zip(self.conj, other.conj))
        return TorusAutomorphism(signs, conj)

    def is_identity(self) -> bool:
        return all(s == 1 for s in self.signs) and not any(self.conj)


def letter_torus_action(n: int, i: int) -> TorusAutomorphism:
    """Action of generator i: negate coordinate i, conjugate the others."""
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range for rank {n}")
    signs = tuple(-1 if k == i - 1 else 1 for k in range(n))
    conj = tuple(0 if k == i - 1 else 1 for k in range(n))
    return TorusAutomorphism(signs, conj)


def torus_action(w: Sequence[int], n: int) -> TorusAutomorphism:
    """Composition of the letter actions of a word."""
    out = TorusAutomorphism.identity(n)
    for letter in w:
        out = out.compose(letter_torus_action(n, letter))
    return out


def psi(w: Sequence[int], n: int) -> Tuple[Tuple[int, int], ...]:
    """Componentwise Klein-four invariant of a word.

    Component i is the image of the i-th two-letter projection followed
    by abelianization of W_2 onto Z_2 + Z_2: every letter contributes
    (1,0) except letter i itself, which contributes (1,1).  Hence the
    value is ((len(w), occ_i(w)) mod 2) in each component.
    """
    length = len(w) % 2
    occ = [0] * n
    for letter in w:
        if not 1 <= letter <= n:
            raise ValueError(f"letter {letter} out of range for rank {n}")
        occ[letter - 1] ^= 1
    return tuple((length, occ[i]) for i in range(n))


def euler_wn(n: int) -> Fraction:
    """Euler characteristic of W_n, exactly 1 - n/2."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    return 1 - Fraction(n, 2)


def commutator_rank(n: int) -> int:
    """Rank of the commutator subgroup of W_n as a free group."""
    if n < 2:
        raise ValueError("rank formulas need n >= 2")
    return 1 + (n - 2) * 2 ** (n - 1)


@dataclass(frozen=True)
class HKernelReport:
    """Rank data for the kernel of the sign representation of W_n.

    s is the exponent of the image (a 2-group of order 2^s), so the
    kernel has index 2^s and fractional Euler characteristic
    e(K) = e(W_n) * 2^s; its rank as a free group is 1 - e(K).
    """

    rank: int
    s: int
    index: int
    euler: Fraction


def kernel_rank_details(n: int) -> HKernelReport:
    if n < 2:
        raise ValueError("rank formulas need n >= 2")
    s = 2 * (n // 2)
    index = 2**s
    euler = euler_wn(n) * index
    rank = 1 + (n - 2) * 2 ** (s - 1)
    if rank != 1 - euler:
        raise VerificationError(f"rank {rank} differs from 1 - e(K) = {1 - euler}")
    return HKernelReport(rank=rank, s=s, index=index, euler=euler)


def kernel_rank_h(n: int) -> int:
    """Rank of the kernel of the sign representation, 1 + (n-2)*2^(2*floor(n/2)-1)."""
    return kernel_rank_details(n).rank
