from __future__ import annotations

import random
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from hwgroups.group_ring import (
    RingElement,
    _element_lines,
    _ring_element,
    count_element_lines,
    parse_set_file,
    product_tally,
    ring_mul,
    ring_one,
    unique_product_witnesses,
)
from hwgroups.hw_group import (
    ElementSyntaxError,
    GroupElement,
    append_letter,
    generator,
    identity,
    inverse,
    multiply,
    parse_element,
    power,
)


def _random_element(rng, n, length=5):
    g = identity(n)
    for _ in range(rng.randrange(length + 1)):
        factor = generator(n, rng.randrange(1, n + 1))
        if rng.random() < 0.5:
            factor = inverse(factor)
        g = multiply(g, factor)
    return g


def _random_ring_element(rng, n, max_support=4):
    support = {_random_element(rng, n) for _ in range(rng.randrange(max_support + 1))}
    return RingElement(n, frozenset(support))


def test_ring_unit_and_zero():
    one = ring_one(2)
    zero = RingElement(2, frozenset())
    g = generator(2, 1)
    x1 = RingElement(2, frozenset({g}))
    assert ring_mul(one, x1) == x1
    assert ring_mul(x1, one) == x1
    assert ring_mul(zero, x1) == zero
    # characteristic two: the two products equal to the identity cancel
    a = RingElement(2, frozenset({identity(2), g}))
    b = RingElement(2, frozenset({identity(2), inverse(g)}))
    assert ring_mul(a, b) == RingElement(2, frozenset({g, inverse(g)}))


def test_ring_mul_inverse_pair():
    g = parse_element("x1 x2^2", 3)
    a = RingElement(3, frozenset({g}))
    b = RingElement(3, frozenset({inverse(g)}))
    assert ring_mul(a, b) == ring_one(3)


def test_frobenius_square_in_characteristic_two():
    g = parse_element("x1 x2", 2)
    e = identity(2)
    s = RingElement(2, frozenset({e, g}))
    squared = ring_mul(s, s)
    assert squared == RingElement(2, frozenset({e, multiply(g, g)}))


def test_ring_laws_on_random_elements():
    rng = random.Random(59)
    for _ in range(60):
        a = _random_ring_element(rng, 2)
        b = _random_ring_element(rng, 2)
        c = _random_ring_element(rng, 2)
        assert ring_mul(ring_mul(a, b), c) == ring_mul(a, ring_mul(b, c))
        # addition over F_2 is the symmetric difference of supports
        b_plus_c = RingElement(2, b.support ^ c.support)
        assert ring_mul(a, b_plus_c) == RingElement(
            2, ring_mul(a, b).support ^ ring_mul(a, c).support)


def test_ring_rank_mismatch():
    with pytest.raises(ValueError):
        ring_mul(ring_one(2), ring_one(3))
    # ring_mul builds its result unchecked; the public constructor checks
    with pytest.raises(ValueError, match="wrong rank"):
        RingElement(2, {identity(3)})


def test_product_tally_counts():
    e = identity(2)
    g = parse_element("x1 x2", 2)
    tally = product_tally({e, g}, {e, g})
    g2 = multiply(g, g)
    assert tally == {e: 1, g: 2, g2: 1}
    assert sum(tally.values()) == 4


def test_product_tally_total_is_the_pair_count():
    rng = random.Random(61)
    for _ in range(30):
        x = {_random_element(rng, 2) for _ in range(rng.randrange(1, 5))}
        y = {_random_element(rng, 2) for _ in range(rng.randrange(1, 5))}
        tally = product_tally(x, y)
        assert sum(tally.values()) == len(x) * len(y)


def _fold(x, y):
    """x * y as the append_letter fold of y's letters into x, then y's
    lattice part added: the oracle for the set products."""
    g = x
    for letter in y.w:
        g = append_letter(g, letter)
    return GroupElement(g.w, [a + b for a, b in zip(g.t, y.t)])


@st.composite
def _element_lists(draw):
    """A rank n in 1..5 and two nonempty element lists of that rank.
    The words come from a small pool that holds each word and its
    reverse, so words repeat and some word pairs cancel fully; small
    lattice entries make repeated products common."""
    n = draw(st.integers(1, 5))
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        word = []
        for letter in draw(st.lists(st.integers(1, n), max_size=6)):
            if not word or word[-1] != letter:
                word.append(letter)
        pool += [tuple(word), tuple(reversed(word))]
    sides = [[GroupElement(draw(st.sampled_from(pool)),
                           [draw(st.integers(-2, 2)) for _ in range(n)])
              for _ in range(draw(st.integers(1, 8)))]
             for _ in range(2)]
    return n, *sides


# x1 x2 x3 times x3 x2 x1 cancels to a lattice element
_CANCELLING = [GroupElement((1, 2, 3), (0, 1, 0)), GroupElement((1, 2, 3), (0, 0, 0))]


@settings(derandomize=True, database=None)
@given(_element_lists())
@example((3, _CANCELLING, [GroupElement((3, 2, 1), (1, 0, 0))] * 2 + _CANCELLING))
@example((2, [], [identity(2)]))
@example((4, [identity(4)], []))
def test_tally_and_ring_product_match_the_letter_fold(sets):
    n, xs, ys = sets
    folded = [_fold(x, y) for x in xs for y in ys]
    if xs and ys:
        tally = product_tally(xs, ys)
        assert tally == Counter(folded)
        # the products are listed in the order they first appear
        assert list(tally) == list(dict.fromkeys(folded))
    else:
        with pytest.raises(ValueError):
            product_tally(xs, ys)
    a, b = RingElement(n, xs), RingElement(n, ys)
    counts = Counter(_fold(x, y) for x in a.support for y in b.support)
    assert ring_mul(a, b) == RingElement(n, {g for g, k in counts.items() if k % 2})
    # the unchecked constructor ring_mul uses agrees with the checked one
    support = ring_mul(a, b).support
    trusted, checked = _ring_element((n, support)), RingElement(n, support)
    assert type(trusted) is type(checked) is RingElement and trusted == checked
    assert hash(trusted) == hash(checked) and repr(trusted) == repr(checked)


def test_ring_mul_keeps_the_products_hit_an_odd_number_of_times():
    # In G_1, x1^i * x1^j = x1^(i+j): over {1, x1, x1^2} squared, x1^2 is
    # hit three times, and x1 and x1^3 twice each.
    x = [power(generator(1, 1), k) for k in range(5)]
    tally = product_tally(x[:3], x[:3])
    assert list(tally.items()) == [(x[0], 1), (x[1], 2), (x[2], 3), (x[3], 2), (x[4], 1)]
    s = RingElement(1, x[:3])
    assert ring_mul(s, s) == RingElement(1, {x[0], x[2], x[4]})


def test_unique_product_witnesses():
    e = identity(2)
    g = parse_element("x1 x2", 2)
    witnesses = unique_product_witnesses({e, g}, {e, g})
    assert set(witnesses) == {e, multiply(g, g)}
    # against a singleton everything is unique
    y = {e, g, multiply(g, g)}
    assert set(unique_product_witnesses({e}, y)) == y
    with pytest.raises(ValueError):
        product_tally(set(), {e})


def test_a_full_cancel_is_linear_in_the_word():
    # g * g^-1 cancels all 20,000 letters in the word kernel.
    rng = random.Random(29)
    word = [1]
    while len(word) < 20000:
        word.append(rng.choice([i for i in (1, 2, 3) if i != word[-1]]))
    g = GroupElement(word, (5, -7, 2**70))
    h = inverse(g)
    start = time.perf_counter()
    witnesses = unique_product_witnesses([g], [h])
    assert time.perf_counter() - start < 1.0
    assert witnesses == [identity(3)]


def test_witness_translation_invariance():
    rng = random.Random(67)
    for _ in range(20):
        x = {_random_element(rng, 2) for _ in range(rng.randrange(1, 4))}
        y = {_random_element(rng, 2) for _ in range(rng.randrange(1, 4))}
        g = _random_element(rng, 2)
        h = _random_element(rng, 2)
        base = unique_product_witnesses(x, y)
        shifted = unique_product_witnesses(
            {multiply(g, u) for u in x}, {multiply(v, h) for v in y})
        assert set(shifted) == {
            multiply(multiply(g, w), h) for w in base}


def test_witnesses_are_sorted_deterministically():
    e = identity(2)
    g = parse_element("x1", 2)
    witnesses = unique_product_witnesses({e}, {e, g, multiply(g, g)})
    assert witnesses == sorted(
        witnesses, key=lambda el: (len(el.w), el.w, el.t))


def test_parse_set_file():
    text = """
    # two elements and a duplicate
    x1 x2

    x1 x2
    x2^-1
    """
    out = parse_set_file(text, 2)
    assert len(out) == 2
    assert parse_element("x2^-1", 2) in out
    assert parse_element("x1 x2", 2) in out


def test_parse_set_file_reports_line_numbers():
    with pytest.raises(ElementSyntaxError) as err:
        parse_set_file("x1\nx9\n", 2)
    assert "line 2" in str(err.value)
    with pytest.raises(ElementSyntaxError) as err:
        parse_set_file("x1\n\nx2^" + "1" * 5000 + "\n", 2)
    assert "line 3" in str(err.value) and err.value.position == 0


# Every line break of str.splitlines, other whitespace, "#" and atoms.
_SET_FILE_CHARS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                   "\u2028", "\u2029", " ", "\t", "\x1f", "\xa0", "\u3000", "#", "x1", "x2^-1"]


@settings(derandomize=True, database=None, max_examples=400)
@given(st.lists(st.sampled_from(_SET_FILE_CHARS), max_size=40).map("".join))
@example("x1\n\n  # c\n\tx2\r\nx1 x2\x85#x\n")
def test_count_element_lines_counts_the_lines_parse_set_file_parses(text):
    # the lines parse_set_file reads, duplicates included, numbered as splitlines
    expected = [(lineno, raw.strip()) for lineno, raw in enumerate(text.splitlines(), start=1)
                if raw.strip() and not raw.strip().startswith("#")]
    assert list(_element_lines(text)) == expected
    assert count_element_lines(text) == len(expected)
