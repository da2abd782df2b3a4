from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from hwgroups import hw_group
from hwgroups.hw_group import (
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
    assert word_sign_action((1,), (3, 4, 5)) == (3, -4, -5)
    assert word_sign_action((2,), (3, 4, 5)) == (-3, 4, -5)
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
    # Reference: one append_letter per unit of each exponent up to 9; a
    # larger one as x_i^(e mod 2) then tau(floor(e/2) e_i), the closed
    # form that the next two tests pin.
    out = identity(n)
    for i, e in atoms:
        if abs(e) <= 9:
            for _ in range(abs(e)):
                out = append_letter(out, i, 1 if e > 0 else -1)
            continue
        half, odd = divmod(e, 2)
        if odd:
            out = append_letter(out, i)
        t = list(out.t)
        t[i - 1] += half
        out = GroupElement(out.w, t)
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


def _inverse_by_fold(a):
    # Reference: fold the reversed word with negative exponents, then
    # absorb the conjugated lattice part.
    out = identity(a.n)
    for letter in reversed(a.w):
        out = append_letter(out, letter, -1)
    twisted = word_sign_action(a.w, a.t)
    return GroupElement(out.w, [u - v for u, v in zip(out.t, twisted)])


_RANKS = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 40])
_EXPONENTS = st.one_of(st.sampled_from([1, -1]),
                       st.integers(-9, 9).filter(bool),
                       st.sampled_from([10**30 + 1, -(10**30), 2**70, -(2**70) - 1]))


@st.composite
def _atom_text(draw):
    """(n, atoms, text): atoms as (index, exponent), with a tail that
    cancels them all, a mirror image, or neither."""
    n = draw(_RANKS)
    atoms = draw(st.lists(st.tuples(st.integers(1, n), _EXPONENTS), max_size=24))
    shape = draw(st.sampled_from(["plain", "cancel", "palindrome"]))
    if shape == "cancel":
        atoms += [(i, -e) for i, e in reversed(atoms)]
    elif shape == "palindrome":
        atoms += atoms[::-1]
    gap = draw(st.sampled_from([" ", "  ", "\t", " \n "]))
    text = gap.join(f"x{i}" if e == 1 and draw(st.booleans()) else f"x{i}^{e}"
                    for i, e in atoms)
    return n, atoms, shape, text


@settings(derandomize=True, database=None, max_examples=300)
@given(_atom_text())
def test_parse_matches_the_append_letter_fold(case):
    n, atoms, shape, text = case
    g = parse_element(text, n)
    assert g == _parse_by_letters(atoms, n)
    assert type(g) is GroupElement and all(type(v) is int for v in g.t)
    if shape == "cancel":
        assert g == identity(n)


@st.composite
def _elements(draw):
    """Elements of rank n in 1..8 or 40: random, palindromic or long
    reduced words, lattice entries small or past 2^70."""
    n = draw(_RANKS)
    word = []
    for letter in draw(st.lists(st.integers(1, n), max_size=40)):
        if word and word[-1] == letter:
            word.pop()
        else:
            word.append(letter)
    if draw(st.booleans()):
        word += word[-2::-1]
    return GroupElement(word, [draw(_ENTRIES) for _ in range(n)])


@settings(derandomize=True, database=None, max_examples=300)
@given(_elements())
def test_inverse_matches_the_append_letter_fold(g):
    h = inverse(g)
    assert h == _inverse_by_fold(g)
    assert multiply(g, h) == identity(g.n) == multiply(h, g)
    assert inverse(h) == g


def _long_atoms(n, count, seed):
    rng = random.Random(seed)
    return " ".join(f"x{rng.randint(1, n)}^{rng.choice((1, -1, 3, -3, 10**6 + 1))}"
                    for _ in range(count))


@pytest.mark.parametrize("n", [3, 2000])
def test_parse_and_inverse_are_linear_in_the_word(n):
    # 20,000 atoms of odd exponent: at n = 2000 an O(n) sign update per
    # letter makes 4 * 10^7 negations.
    text = _long_atoms(n, 20000, n)
    start = time.perf_counter()
    g = parse_element(text, n)
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    h = inverse(g)
    assert time.perf_counter() - start < 1.0
    assert len(g.w) > 1000 and h.w == g.w[::-1]


def test_negative_rank_is_refused():
    for call in (lambda: identity(-2), lambda: parse_element("", -3),
                 lambda: parse_element("x1", -1), lambda: ball(-1, 2)):
        with pytest.raises(ValueError, match="^rank must be nonnegative$"):
            call()
    assert identity(0) == parse_element("", 0) == GroupElement((), ())
    assert ball(0, 2) == {identity(0)}


def test_element_validation():
    with pytest.raises(ValueError):
        GroupElement((0,), (0, 0))
    with pytest.raises(ValueError):
        GroupElement((1, 1), (0, 0))
    with pytest.raises(ValueError):
        GroupElement((3,), (0, 0))


def test_an_element_is_not_a_sequence():
    # + and k * g refuse, as for every value (tests/test_package.py's
    # VALUES); g * h is the group product, not a repeat of the pair.
    g = generator(2, 1)
    assert g * g == power(g, 2)


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


def test_ball_budget_guard(monkeypatch):
    monkeypatch.setattr(hw_group, "DEFAULT_BALL_BUDGET", 50)
    with pytest.raises(BallBudgetError):
        ball(3, 6)
    # the budget counts the identity
    monkeypatch.setattr(hw_group, "DEFAULT_BALL_BUDGET", 1)
    assert ball(2, 0) == {identity(2)}
    with pytest.raises(BallBudgetError):
        ball(2, 1)


def reference_ball(n, r):
    """Oracle for ball: breadth first over append_letter, one validated
    element per move, with the same budget check."""
    budget = hw_group.DEFAULT_BALL_BUDGET
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
def test_ball_matches_the_append_letter_search(n, r, monkeypatch):
    expected = reference_ball(n, r)
    got = ball(n, r)
    assert got == expected
    for g in got:
        # the unchecked elements are genuine normal forms with int entries
        assert GroupElement(g.w, g.t) == g and all(type(v) is int for v in g.t)
    # the budget counts every element, the identity included
    size = len(expected)
    monkeypatch.setattr(hw_group, "DEFAULT_BALL_BUDGET", size)
    assert ball(n, r) == expected
    if size > 1:
        monkeypatch.setattr(hw_group, "DEFAULT_BALL_BUDGET", size - 1)
        for search in (ball, reference_ball):
            with pytest.raises(BallBudgetError, match=f"budget of {size - 1} elements"):
                search(n, r)


@pytest.mark.parametrize("n, r", [(1, 12), (2, 8), (3, 5), (4, 4)])
def test_unchecked_constructor_matches_the_checked_one(n, r):
    for g in ball(n, r):
        pair = (g.w, g.t)
        trusted, checked = hw_group._element(pair), GroupElement(*pair)
        assert type(trusted) is GroupElement and trusted == checked
        assert hash(trusted) == hash(checked) == hash(pair)
        assert trusted.w is pair[0] and trusted.t is pair[1]


def test_probes_find_nothing_small():
    assert torsion_probe(2, 3, 8) == []
    assert center_probe(2, 3) == []


def torsion_by_powers(n, r, kmax):
    """Oracle for torsion_probe: accumulate g^k for k = 2 .. kmax and
    report the first k with g^k = e, one multiply per (element, k)."""
    if r < 1 or kmax < 1:
        raise ValueError("radius and exponent bound must be at least 1")
    found = []
    e = identity(n)
    for g in sorted(ball(n, r), key=element_sort_key):
        if g == e:
            continue
        acc = g
        for k in range(2, kmax + 1):
            acc = hw_group.multiply(acc, g)
            if acc == e:
                found.append((g, k))
                break
    return found


def reference_torsion_probe(n, r, kmax):
    """Oracle for torsion_probe: square every ball element with multiply."""
    if r < 1 or kmax < 1:
        raise ValueError("radius and exponent bound must be at least 1")
    e = identity(n)
    return [(g, 2) for g in sorted(ball(n, r), key=element_sort_key)
            if kmax >= 2 and g != e and hw_group.multiply(g, g) == e]


def reference_center_probe(n, r):
    """Oracle for center_probe: compare g x and x g for every ball element
    g and generator x with multiply."""
    if n < 2:
        raise ValueError("center probe needs n >= 2")
    if r < 1:
        raise ValueError("radius must be at least 1")
    gens = [generator(n, i) for i in range(1, n + 1)]
    found = []
    e = identity(n)
    for g in sorted(ball(n, r), key=element_sort_key):
        if g == e:
            continue
        if all(hw_group.multiply(g, x) == hw_group.multiply(x, g) for x in gens):
            found.append(g)
    return found


def _plant_square_in_multiply(monkeypatch, fake_square):
    """Make hw_group.multiply pretend fake_square^2 = e."""
    real = hw_group.multiply

    def planted(a, b):
        if a == b == fake_square:
            return identity(a.n)
        return real(a, b)

    monkeypatch.setattr(hw_group, "multiply", planted)


def _counting_kernel(monkeypatch, planted=None):
    """Record hw_group._mul_words calls as (u, v) pairs; the dict planted
    maps a pair (u, v) to the result the kernel should give instead."""
    calls = []
    real = hw_group._mul_words

    def counted(u, v, n):
        calls.append((u, v))
        if planted and (u, v) in planted:
            return planted[(u, v)]
        return real(u, v, n)

    monkeypatch.setattr(hw_group, "_mul_words", counted)
    return calls


# largest radius checked per rank; the balls hold at most 385 elements
TORSION_RADII = {0: 4, 1: 4, 2: 4, 3: 3, 4: 3}


@pytest.mark.parametrize("n", sorted(TORSION_RADII))
def test_torsion_by_the_order_lemma_matches_the_power_search(n, monkeypatch):
    calls = _counting_kernel(monkeypatch)
    for r in range(1, TORSION_RADII[n] + 1):
        words = {g.w for g in ball(n, r) if g != identity(n)}
        for kmax in range(1, 13):
            expected = torsion_by_powers(n, r, kmax)
            assert reference_torsion_probe(n, r, kmax) == expected
            calls.clear()
            assert torsion_probe(n, r, kmax) == expected == []
            # one square per distinct word of a nontrivial element, whatever kmax is
            assert sorted(calls) == (sorted((w, w) for w in words) if kmax >= 2 else [])


def test_torsion_findings_have_order_two(monkeypatch):
    # with x1^2 = e planted, in multiply for the oracles and in the word
    # kernel for the probe, all three searches report x1 with order 2
    x1 = generator(2, 1)
    _plant_square_in_multiply(monkeypatch, x1)
    _counting_kernel(monkeypatch, planted={((1,), (1,)): ((), (0, 0))})
    for kmax in range(1, 6):
        expected = [(x1, 2)] if kmax >= 2 else []
        assert torsion_by_powers(2, 2, kmax) == expected
        assert reference_torsion_probe(2, 2, kmax) == expected
        assert torsion_probe(2, 2, kmax) == expected
    # sigma_1 negates t_2, so (x1 tau(s e2))^2 = x1^2 too: at radius 3 the
    # probe also finds x1 x2^2 and x1 x2^-2, whose squares multiply does
    # not plant
    assert torsion_probe(2, 3, 2) == [(parse_element(text, 2), 2)
                                      for text in ("x1 x2^-2", "x1", "x1 x2^2")]


@pytest.mark.parametrize("n, r", [(1, 4), (2, 5), (3, 4), (4, 3)])
def test_probes_match_their_per_element_oracles(n, r):
    assert torsion_probe(n, r, 2) == reference_torsion_probe(n, r, 2) == []
    if n >= 2:
        assert center_probe(n, r) == reference_center_probe(n, r) == []


def _predicates_agree(g):
    """Check the per-word square and commute tests on g against multiply;
    return (g^2 = e, the number of generators g commutes with)."""
    n = g.n
    test = hw_group._squares_to_identity(g.w, n)
    squares = hw_group.multiply(g, g) == identity(n)
    assert (test is not None and test(g.t)) == squares, g
    commuting = 0
    for i in range(1, n + 1):
        x = generator(n, i)
        test = hw_group._commutes_with(g.w, i, n)
        commutes = hw_group.multiply(g, x) == hw_group.multiply(x, g)
        assert (test is not None and test(g.t)) == commutes, (g, i)
        commuting += commutes
    return squares, commuting


def test_per_word_predicates_match_multiply_on_balls():
    pairs = commuting = squares = 0
    for n in (2, 3, 4):
        for g in ball(n, 4):
            square, gens = _predicates_agree(g)
            pairs += n
            commuting += gens
            squares += square
    # both answers occur: 81 commuting (element, generator) pairs, and
    # the three identities square to e
    assert (pairs, commuting, squares) == (10015, 81, 3)


@st.composite
def _element_case(draw):
    """An element of rank n in 1..6: a reduced word of up to about 30
    letters, often an odd palindrome u i u^-1, and a lattice vector with
    many zeros."""
    n = draw(st.integers(1, 6))
    word = []
    for letter in draw(st.lists(st.integers(1, n), max_size=15)):
        if not word or word[-1] != letter:
            word.append(letter)
    if draw(st.booleans()):
        middle = draw(st.integers(1, n))
        if not word or word[-1] != middle:
            word = word + [middle] + word[::-1]
    entries = st.one_of(st.just(0), st.integers(-2, 2), st.integers(-(2**70), 2**70))
    return GroupElement(word, [draw(entries) for _ in range(n)])


@settings(derandomize=True, database=None)
@given(_element_case())
def test_per_word_predicates_match_multiply(g):
    _predicates_agree(g)


def test_center_probe_finds_a_planted_central_element(monkeypatch):
    # plant x1 x_i = x_i x1 = lift(x1 x_i) in the word kernel for i != 1
    n = 3
    planted = {}
    for i in range(2, n + 1):
        planted[((1,), (i,))] = planted[((i,), (1,))] = ((1, i), (0,) * n)
    _counting_kernel(monkeypatch, planted=planted)
    # x1^-1 = x1 tau(-e1) and x1 tau(k e1) still fail at x2: sigma_2 negates t_1
    for r in (1, 2, 3):
        assert center_probe(n, r) == [generator(n, 1)]


def test_center_probe_stops_each_word_at_its_first_failing_generator(monkeypatch):
    calls = _counting_kernel(monkeypatch)
    n = 30
    assert center_probe(n, 1) == []
    # x1 commutes with itself and fails at x2; every other x_i fails at x1
    expected = [((1,), (1,)), ((1,), (1,)), ((1,), (2,)), ((2,), (1,))]
    for i in range(2, n + 1):
        expected += [((i,), (1,)), ((1,), (i,))]
    assert sorted(calls) == sorted(expected) and len(calls) == 2 * (n + 1)


def test_torsion_probe_keeps_its_refusals(monkeypatch):
    for r, kmax in ((0, 2), (2, 0)):
        with pytest.raises(ValueError, match="at least 1"):
            torsion_probe(2, r, kmax)
    # the probe reads its ball from hw_group._ball_words, which applies the bound
    monkeypatch.setattr(hw_group, "DEFAULT_BALL_BUDGET", 3)
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
    assert got == [(g.w, g.t) for g in (multiply(x, y) for x in xs for y in ys)]
    for w, t in got:
        # the raw pairs are the fields of genuine normal forms, with int entries
        g = GroupElement(w, t)
        assert (g.w, g.t) == (w, t) and type(w) is tuple and type(t) is tuple
        assert all(type(v) is int for v in t)


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
