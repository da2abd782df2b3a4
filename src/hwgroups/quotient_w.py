"""The quotient W_n, a free product of n copies of Z_2.

Reduced words and the Euler-characteristic rank formulas for the
distinguished free subgroups.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, NamedTuple, Tuple

from . import VerificationError

__all__ = [
    "reduce_w",
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


class HKernelReport(NamedTuple):
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
