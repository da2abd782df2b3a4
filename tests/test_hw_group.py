from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from hwgroups import hw_group
from hwgroups.hw_group import (
    DEFAULT_BALL_BUDGET,
    BallBudgetError,
    ElementSyntaxError,
    GroupElement,
    abelianization_invariants,
    abelianize,
    append_letter,
    ball,
    center_probe,
    commutator,
    element_sort_key,
    format_element,
    generator,
    identity,
    inverse,
    multiply,
    parse_element,
    power,
    products,
    project_w,
    sign_action,
    torsion_probe,
    word_sign_action,
)
from algebra_reference import abelianization_relation_matrix, pivot_smith_form


def _random_element(rng, n, length=6):
    g = identity(n)
    for _ in range(rng.randrange(length + 1)):
        g = append_letter(g, rng.randrange(1, n + 1), rng.choice((1, -1)))
    return g


def test_identity_and_generator_shapes():
    e = identity(3)
    assert e.w == () and e.t == (0, 0, 0)
    x2 = generator(3, 2)
    assert x2.w == (2,) and x2.t == (0, 0, 0)
    with pytest.raises(ValueError):
        generator(2, 3)


def test_sign_action_fixes_own_coordinate():
    assert sign_action(1, (3, 4, 5)) == (3, -4, -5)
    assert sign_action(2, (3, 4, 5)) == (-3, 4, -5)
    assert word_sign_action((1, 2), (3, 4, 5)) == (-3, -4, 5)
    assert word_sign_action((), (3, 4)) == (3, 4)


def test_generator_squares_to_lattice_vector():
    x1 = generator(2, 1)
    assert multiply(x1, x1) == GroupElement((), (1, 0))
    x2 = generator(2, 2)
    assert multiply(x2, x2) == GroupElement((), (0, 1))
    # fourth powers are the doubled lattice vectors, not the identity
    assert power(x1, 4) == GroupElement((), (2, 0))


def test_normal_form_examples():
    g = parse_element("x1 x2 x2 x1", 2)
    assert g.w == () and g.t == (1, -1)
    assert format_element(g) == "w =  | t = (1,-1)"
    h = parse_element("x1 x2^2", 2)
    assert h.w == (1,) and h.t == (0, 1)
    assert format_element(h) == "w = x1 | t = (0,1)"
    assert parse_element("", 3) == identity(3)


def test_relators_vanish():
    for n in range(2, 7):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                xi, xj = generator(n, i), generator(n, j)
                xj2 = multiply(xj, xj)
                relator = multiply(
                    multiply(multiply(inverse(xi), xj2), xi), xj2)
                assert relator == identity(n)


def test_group_laws_on_random_elements():
    rng = random.Random(7)
    for n in (1, 2, 4):
        e = identity(n)
        for _ in range(200):
            a = _random_element(rng, n)
            b = _random_element(rng, n)
            c = _random_element(rng, n)
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
            assert multiply(a, e) == a and multiply(e, a) == a
            assert multiply(a, inverse(a)) == e
            assert multiply(inverse(a), a) == e
            assert inverse(inverse(a)) == a


def test_append_letter_agrees_with_multiply():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randrange(1, 5)
        g = _random_element(rng, n)
        i = rng.randrange(1, n + 1)
        assert append_letter(g, i, 1) == multiply(g, generator(n, i))
        assert append_letter(g, i, -1) == multiply(g, inverse(generator(n, i)))


def test_power_and_commutator():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randrange(1, 4)
        a = _random_element(rng, n)
        b = _random_element(rng, n)
        assert power(a, 0) == identity(n)
        assert power(a, 3) == multiply(multiply(a, a), a)
        assert power(a, -2) == inverse(multiply(a, a))
        expected = multiply(multiply(inverse(a), inverse(b)), multiply(a, b))
        assert commutator(a, b) == expected


def test_parse_errors_carry_positions():
    with pytest.raises(ElementSyntaxError) as err:
        parse_element("x1 y2", 2)
    assert err.value.position == 3
    assert "(at position 3)" in str(err.value)
    with pytest.raises(ElementSyntaxError):
        parse_element("x3", 2)
    with pytest.raises(ElementSyntaxError):
        parse_element("x1^0", 2)
    with pytest.raises(ElementSyntaxError):
        parse_element("x", 2)


def _parse_by_letters(atoms, n):
    # Reference: one append_letter per unit of each exponent.
    out = identity(n)
    for i, e in atoms:
        for _ in range(abs(e)):
            out = append_letter(out, i, 1 if e > 0 else -1)
    return out


def test_parse_exponents_agree_with_the_letter_fold():
    rng = random.Random(20211)
    for _ in range(3000):
        n = rng.randint(1, 5)
        atoms = [(rng.randint(1, n), rng.choice((-1, 1)) * rng.randint(1, 9))
                 for _ in range(rng.randint(0, 8))]
        text = " ".join(f"x{i}" if e == 1 and rng.random() < 0.5 else f"x{i}^{e}"
                        for i, e in atoms)
        assert parse_element(text, n) == _parse_by_letters(atoms, n), text


def test_parse_huge_exponent_in_closed_form():
    assert parse_element(f"x1^{10**8}", 2) == GroupElement((), (50000000, 0))
    g = parse_element(f"x2^{-(10**8) - 1}", 2)
    assert g == GroupElement((2,), (0, -50000001))


def test_element_validation():
    with pytest.raises(ValueError):
        GroupElement((0,), (0, 0))
    with pytest.raises(ValueError):
        GroupElement((1, 1), (0, 0))
    with pytest.raises(ValueError):
        GroupElement((3,), (0, 0))


def test_project_w():
    g = parse_element("x1 x2 x1", 3)
    assert project_w(g) == (1, 2, 1)


def test_abelianize():
    assert abelianize(parse_element("x1", 2)) == (1, 0)
    assert abelianize(parse_element("x1 x1", 2)) == (2, 0)
    assert abelianize(power(generator(2, 1), 4)) == (0, 0)
    assert abelianize(parse_element("x1 x2 x2 x1", 2)) == (2, 2)
    # rank one: the group is infinite cyclic
    assert abelianize(parse_element("x1^5", 1)) == 5
    assert abelianize(parse_element("x1^-2", 1)) == -2
    rng = random.Random(17)
    for _ in range(100):
        a = _random_element(rng, 3)
        b = _random_element(rng, 3)
        ab = abelianize(multiply(a, b))
        assert ab == tuple(
            (x + y) % 4 for x, y in zip(abelianize(a), abelianize(b)))


def test_abelianization_presentation():
    assert abelianization_invariants(1) == ()
    for n in range(2, 7):
        assert abelianization_invariants(n) == (4,) * n
    m = abelianization_relation_matrix(3)
    assert len(m) == 6
    assert sorted(m)[0] == (0, 0, 4)


def test_abelianization_from_distinct_rows():
    # the Smith form of the full n(n-1)-row matrix is the oracle
    for n in range(1, 9):
        full = pivot_smith_form(abelianization_relation_matrix(n))
        assert abelianization_invariants(n) == tuple(d for d in full if d)
    # n(n-1) = 22350 rows would take seconds; the n distinct rows do not
    assert abelianization_invariants(150) == (4,) * 150
    with pytest.raises(ValueError):
        abelianization_invariants(0)


def test_ball_sizes():
    assert len(ball(2, 0)) == 1
    assert len(ball(2, 1)) == 5
    assert len(ball(1, 3)) == 7
    # frozen from enumeration; growth should never change silently
    assert len(ball(2, 4)) == 83
    assert len(ball(2, 5)) == 147


def test_ball_budget_guard():
    with pytest.raises(BallBudgetError):
        ball(3, 6, budget=50)
    # the budget counts the identity
    assert ball(2, 0, budget=1) == {identity(2)}
    with pytest.raises(BallBudgetError):
        ball(2, 1, budget=1)
    for budget in (0, -5):
        with pytest.raises(ValueError, match="at least 1"):
            ball(2, 0, budget=budget)


def reference_ball(n, r, budget=DEFAULT_BALL_BUDGET):
    """Oracle for ball: breadth first over append_letter, one validated
    element per move, with the same budget check."""
    seen = {identity(n)}
    frontier = [identity(n)]
    for _ in range(r):
        next_frontier = []
        for g in frontier:
            for i in range(1, n + 1):
                for exp in (1, -1):
                    h = append_letter(g, i, exp)
                    if h not in seen:
                        if len(seen) >= budget:
                            raise BallBudgetError(f"ball exceeds budget of {budget} elements")
                        seen.add(h)
                        next_frontier.append(h)
        frontier = next_frontier
    return seen


@pytest.mark.parametrize("n, r", [(0, 4), (1, 4), (2, 12), (3, 6), (4, 5), (5, 4)])
def test_ball_matches_the_append_letter_search(n, r):
    expected = reference_ball(n, r)
    got = ball(n, r)
    assert got == expected
    for g in got:
        # the unchecked elements are genuine normal forms with int entries
        assert GroupElement(g.w, g.t) == g and all(type(v) is int for v in g.t)
    # the budget counts every element, the identity included
    size = len(expected)
    assert ball(n, r, budget=size) == expected
    if size > 1:
        for search in (ball, reference_ball):
            with pytest.raises(BallBudgetError, match=f"budget of {size - 1} elements"):
                search(n, r, budget=size - 1)


def test_probes_find_nothing_small():
    assert torsion_probe(2, 3, 8) == []
    assert center_probe(2, 3) == []


def torsion_by_powers(n, r, kmax, budget=DEFAULT_BALL_BUDGET):
    """Oracle for torsion_probe: accumulate g^k for k = 2 .. kmax and
    report the first k with g^k = e, one multiply per (element, k)."""
    if r < 1 or kmax < 1:
        raise ValueError("radius and exponent bound must be at least 1")
    found = []
    e = identity(n)
    for g in sorted(ball(n, r, budget), key=element_sort_key):
        if g == e:
            continue
        acc = g
        for k in range(2, kmax + 1):
            acc = hw_group.multiply(acc, g)
            if acc == e:
                found.append((g, k))
                break
    return found


def _counting_multiply(monkeypatch, fake_square=None):
    """Count hw_group.multiply calls; optionally pretend fake_square^2 = e."""
    calls = []
    real = hw_group.multiply

    def counted(a, b):
        calls.append(1)
        if fake_square is not None and a == b == fake_square:
            return identity(a.n)
        return real(a, b)

    monkeypatch.setattr(hw_group, "multiply", counted)
    return calls


# largest radius checked per rank; the balls hold at most 385 elements
TORSION_RADII = {0: 4, 1: 4, 2: 4, 3: 3, 4: 3}


@pytest.mark.parametrize("n", sorted(TORSION_RADII))
def test_torsion_by_the_order_lemma_matches_the_power_search(n, monkeypatch):
    calls = _counting_multiply(monkeypatch)
    for r in range(1, TORSION_RADII[n] + 1):
        nontrivial = len(ball(n, r)) - 1
        for kmax in range(1, 13):
            expected = torsion_by_powers(n, r, kmax)
            calls.clear()
            assert torsion_probe(n, r, kmax) == expected == []
            # one square per nontrivial element, whatever kmax is
            assert len(calls) == (nontrivial if kmax >= 2 else 0)


def test_torsion_findings_have_order_two(monkeypatch):
    # with x1^2 = e planted, both searches report x1 with order 2
    x1 = generator(2, 1)
    _counting_multiply(monkeypatch, fake_square=x1)
    for kmax in range(1, 6):
        expected = [(x1, 2)] if kmax >= 2 else []
        assert torsion_by_powers(2, 2, kmax) == expected
        assert torsion_probe(2, 2, kmax) == expected


def test_torsion_probe_keeps_its_refusals(monkeypatch):
    for r, kmax in ((0, 2), (2, 0)):
        with pytest.raises(ValueError, match="at least 1"):
            torsion_probe(2, r, kmax)
    # the probe's ball is hw_group.ball, so its bound is the ball's
    monkeypatch.setattr(hw_group, "ball", functools.partial(ball, budget=3))
    for kmax in (1, 2):
        with pytest.raises(BallBudgetError, match="budget of 3 elements"):
            torsion_probe(2, 2, kmax)


def test_rank_one_center_probe_rejected():
    # rank one is infinite cyclic; the probe only makes sense from rank two
    with pytest.raises(ValueError):
        center_probe(1, 2)



@st.composite
def _word_pair(draw):
    """Reduced words u, v of one rank n in 1..6, up to about 40 letters;
    v often starts by cancelling a tail of u."""
    n = draw(st.integers(1, 6))

    def reduced(letters):
        out = []
        for letter in letters:
            if out and out[-1] == letter:
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

    u = reduced(draw(st.lists(st.integers(1, n), max_size=40)))
    k = draw(st.integers(0, len(u)))
    v = reduced(u[len(u) - k:][::-1] + tuple(draw(st.lists(st.integers(1, n), max_size=40))))
    return n, u, v


@settings(derandomize=True, database=None)
@given(_word_pair())
def test_word_kernel_matches_multiply(case):
    n, u, v = case
    zero = (0,) * n
    g = multiply(GroupElement(u, zero), GroupElement(v, zero))
    assert hw_group._mul_words(u, v, n) == (g.w, g.t)


# Lattice entries: small, past 2^70 on either side, and in between.
_ENTRIES = st.one_of(st.integers(-3, 3), st.sampled_from([2**70 + 1, -(2**71) - 5]),
                     st.integers(-(2**80), 2**80))


@st.composite
def _set_pair(draw):
    """Two element lists of one rank n in 1..5 whose words come from a
    small pool, so words repeat; either list may hold the identity."""
    n = draw(st.integers(1, 5))
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        word = []
        for letter in draw(st.lists(st.integers(1, n), max_size=6)):
            if not word or word[-1] != letter:
                word.append(letter)
        pool.append(tuple(word))
    sides = []
    for _ in range(2):
        side = [GroupElement(draw(st.sampled_from(pool)),
                             [draw(_ENTRIES) for _ in range(n)])
                for _ in range(draw(st.integers(0, 6)))]
        if draw(st.booleans()):
            side.insert(draw(st.integers(0, len(side))), identity(n))
        sides.append(side)
    return sides


@settings(derandomize=True, database=None)
@given(_set_pair())
def test_products_match_the_pairwise_multiply(sides):
    xs, ys = sides
    got = list(products(xs, ys))
    assert got == [multiply(x, y) for x in xs for y in ys]
    for g in got:
        # the unvalidated results are genuine normal forms with int entries
        assert GroupElement(g.w, g.t) == g and hash(GroupElement(g.w, g.t)) == hash(g)
        assert all(type(v) is int for v in g.t)


def test_products_of_an_empty_side_and_of_mixed_ranks():
    some = [identity(3), parse_element("x1 x2^-1", 3)]
    assert list(products([], some)) == []
    assert list(products(some, [])) == []
    with pytest.raises(ValueError, match="rank mismatch"):
        next(products(some, [identity(2)]))
    with pytest.raises(ValueError, match="rank mismatch"):
        next(products([identity(2), identity(3)], []))


def test_products_multiply_once_per_distinct_word_pair(monkeypatch):
    calls = []
    honest = hw_group._mul_words

    def counted(u, v, n):
        calls.append((u, v))
        return honest(u, v, n)

    monkeypatch.setattr(hw_group, "_mul_words", counted)
    # three elements with word x1 and two with x2 x1, interleaved, against x2 twice
    xs = [parse_element(text, 2) for text in ("x1", "x2 x1", "x1^3", "x2^3 x1", "x1^-1")]
    ys = [parse_element(text, 2) for text in ("x2", "x2^-1")]
    assert len(list(products(xs, ys))) == 10
    assert calls == [((1,), (2,)), ((2, 1), (2,))]
