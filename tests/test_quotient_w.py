from __future__ import annotations

from fractions import Fraction

import pytest

from hwgroups.quotient_w import (
    commutator_rank,
    euler_wn,
    kernel_rank_details,
    kernel_rank_h,
    reduce_w,
)


def test_reduce_w_cancels_adjacent_involutions():
    assert reduce_w([1, 1]) == ()
    assert reduce_w([1, 2, 2, 1]) == ()
    assert reduce_w([1, 2, 1, 2]) == (1, 2, 1, 2)
    assert reduce_w([3, 1, 1, 3, 2]) == (2,)
    assert reduce_w([]) == ()
    with pytest.raises(ValueError):
        reduce_w([0], 2)
    with pytest.raises(ValueError):
        reduce_w([3], 2)


def test_euler_characteristic():
    assert euler_wn(2) == 0
    assert euler_wn(3) == Fraction(-1, 2)
    assert euler_wn(4) == -1
    assert euler_wn(5) == Fraction(-3, 2)


def test_commutator_rank_values():
    assert commutator_rank(2) == 1
    assert commutator_rank(3) == 5
    assert commutator_rank(4) == 17
    assert commutator_rank(5) == 49
    for n in range(2, 13):
        assert commutator_rank(n) == 1 - euler_wn(n) * 2**n


def test_kernel_rank_details():
    r3 = kernel_rank_details(3)
    assert (r3.rank, r3.s, r3.index, r3.euler) == (3, 2, 4, Fraction(-2))
    r4 = kernel_rank_details(4)
    assert (r4.rank, r4.s, r4.index, r4.euler) == (17, 4, 16, Fraction(-16))
    r5 = kernel_rank_details(5)
    assert (r5.rank, r5.s, r5.index, r5.euler) == (25, 4, 16, Fraction(-24))
    for n in range(2, 13):
        details = kernel_rank_details(n)
        assert kernel_rank_h(n) == details.rank
        assert details.rank == 1 - details.euler
    with pytest.raises(ValueError):
        kernel_rank_details(1)
