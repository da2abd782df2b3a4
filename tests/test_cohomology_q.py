from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hwgroups.exact_algebra import IntPolynomial
from hwgroups.cohomology_q import (
    _minus_positions,
    Character,
    congruent_mod2,
    h1,
    poincare_q_closed,
    poincare_q_spectral,
)
from hwgroups.cohomology_f2 import poincare_f2_closed
from algebra_reference import h0, h1_oracle, wedge_character


def test_character_basics():
    eps = Character((1, -1, -1))
    assert eps.n == 3
    assert eps.weight == 2
    assert not eps.is_trivial()
    assert Character((1, 1, 1)).is_trivial()
    with pytest.raises(ValueError):
        Character((1, 0))


def test_wedge_character_values():
    # singleton subset: +1 on the member, -1 off it
    assert wedge_character(3, {1}).eps == (1, -1, -1)
    # pair: -1 on members, +1 off
    assert wedge_character(3, {1, 2}).eps == (-1, -1, 1)
    assert wedge_character(2, set()).eps == (1, 1)
    assert wedge_character(3, {1, 2, 3}).eps == (1, 1, 1)
    with pytest.raises(ValueError):
        wedge_character(2, {3})


def test_wedge_character_factors_over_singletons():
    # on A every singleton except i itself contributes -1 at coordinate
    # i, and off A all |A| of them do, which is exactly the sign pattern
    # of the wedge character
    for n in (1, 2, 3, 5):
        for bits in itertools.product((0, 1), repeat=n):
            subset = {i + 1 for i, b in enumerate(bits) if b}
            product = (1,) * n
            for i in subset:
                product = tuple(a * b for a, b in
                                zip(product, wedge_character(n, {i}).eps))
            assert wedge_character(n, subset).eps == product


def test_h0_and_h1_case_values():
    assert h0(Character((1, 1, 1))) == 1
    assert h1(Character((1, 1, 1))) == 0
    eps = Character((-1, -1, 1))
    assert h0(eps) == 0
    assert h1(eps) == 1
    assert h1(Character((-1,))) == 0
    assert h1(Character((-1,) * 4)) == 3


def test_h1_oracle_matches_case_formula():
    for n in range(1, 6):
        for signs in itertools.product((1, -1), repeat=n):
            eps = Character(signs)
            assert h1_oracle(n, eps) == h1(eps)
    with pytest.raises(ValueError):
        h1_oracle(3, Character((1, -1)))


def _mask_members(mask):
    return {i + 1 for i in range(mask.bit_length()) if mask >> i & 1}


def _check_mask_term(n, mask, oracle=False):
    # the term poincare_q_spectral adds for g_A, read off the bitmask of
    # -1 positions, against the character spelled out from its definition
    minus = _minus_positions((1 << n) - 1, mask)
    term_h0 = 1 if minus == 0 else 0
    term_h1 = minus.bit_count() - 1 if minus else 0
    eps = wedge_character(n, _mask_members(mask))
    assert (term_h0, term_h1) == (h0(eps), h1(eps))
    if oracle:
        assert term_h1 == h1_oracle(n, eps)


@pytest.mark.parametrize("n", range(9))
def test_mask_terms_match_the_characters(n):
    for mask in range(1 << n):
        _check_mask_term(n, mask, oracle=n <= 6)


@settings(derandomize=True, database=None)
@given(st.integers(9, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
def test_mask_terms_match_the_characters_beyond_exhaustive_ranks(case):
    _check_mask_term(*case)


def test_poincare_q_values():
    assert poincare_q_spectral(2) == IntPolynomial((1, 0, 0, 1))
    assert poincare_q_closed(3) == IntPolynomial((1, 0, 3, 4))
    assert poincare_q_closed(0) == IntPolynomial((1,))
    assert poincare_q_closed(1) == IntPolynomial((1, 1))
    for n in range(17):
        assert poincare_q_spectral(n) == poincare_q_closed(n)


def test_poincare_q_guard():
    assert poincare_q_spectral(17) == poincare_q_closed(17)


def test_euler_characteristic_vanishes():
    for n in range(1, 15):
        assert poincare_q_closed(n)(-1) == 0


def test_mod2_congruence():
    for n in range(2, 13, 2):
        rational = poincare_q_closed(n)
        modular = poincare_f2_closed(n)
        degree = max(rational.degree, modular.degree)
        for k in range(degree + 1):
            assert (rational.coefficient(k) - modular.coefficient(k)) % 2 == 0
        assert congruent_mod2(rational, modular)
    assert congruent_mod2(IntPolynomial((1, 3)), IntPolynomial((3, 1, 2)))
    assert not congruent_mod2(IntPolynomial((1, 3)), IntPolynomial((1, 3, 1)))
