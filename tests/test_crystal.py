from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hwgroups import VerificationError, crystal, hw_group
from hwgroups.crystal import (
    AffineIsometry,
    fixed_point_probe,
    fixed_points,
    g2_isometry,
    gamma3_generators,
    gamma_n_generator,
    holonomy_order,
    injectivity_probe,
    rn_action,
    rn_isometry,
    verify_hom_g2_gamma3,
)
from hwgroups.hw_group import (
    GroupElement,
    ball,
    element_sort_key,
    generator,
    identity,
    inverse,
    multiply,
    parse_element,
)
from algebra_reference import solve_rational


def _frac(v):
    return tuple(Fraction(x) for x in v)


def test_affine_isometry_validation():
    with pytest.raises(ValueError):
        AffineIsometry((1, 0), _frac((0, 0)))
    with pytest.raises(ValueError):
        AffineIsometry((2, 1), _frac((0, 0)))
    with pytest.raises(ValueError):
        AffineIsometry((1, Fraction(-1, 2)), _frac((0, 0)))
    with pytest.raises(ValueError):
        AffineIsometry((1,), _frac((0, 0)))
    assert AffineIsometry.identity(0).is_identity()


def test_affine_isometry_group_laws():
    rng = random.Random(71)

    def random_isometry(n):
        signs = tuple(rng.choice((1, -1)) for _ in range(n))
        trans = tuple(Fraction(rng.randrange(-4, 5), rng.randrange(1, 5))
                      for _ in range(n))
        return AffineIsometry(signs, trans)

    for n in (1, 2, 3, 5):
        e = AffineIsometry.identity(n)
        for _ in range(80):
            a, b, c = (random_isometry(n) for _ in range(3))
            assert (a @ b) @ c == a @ (b @ c)
            assert a @ e == a and e @ a == a
            assert a @ a.inv() == e and a.inv() @ a == e
            v = _frac([rng.randrange(-3, 4) for _ in range(n)])
            assert (a @ b).apply(v) == a.apply(b.apply(v))


def test_translation_and_apply():
    shift = AffineIsometry.translation_by(_frac((1, -2)))
    assert shift.apply(_frac((0, 0))) == _frac((1, -2))
    assert not shift.is_identity()
    assert AffineIsometry.identity(2).is_identity()
    with pytest.raises(ValueError):
        shift.apply(_frac((0, 0, 0)))


def test_gamma3_relators_and_squares():
    a, b = gamma3_generators()
    report = verify_hom_g2_gamma3()
    assert report.ok
    assert report.relator_xy.is_identity()
    assert report.relator_yx.is_identity()
    assert (a @ a).translation == _frac((1, 0, 0))
    assert (b @ b).translation == _frac((0, 1, 0))
    assert (a @ a).signs == (1, 1, 1)


def test_gamma_n_generator_squares_translate():
    for n in (3, 5):
        for i in range(1, n):
            gen = gamma_n_generator(n, i)
            square = gen @ gen
            assert square.signs == (1,) * n
            assert square.translation == _frac(
                [1 if k == i - 1 else 0 for k in range(n)])
    with pytest.raises(ValueError):
        gamma_n_generator(4, 1)
    with pytest.raises(ValueError):
        gamma_n_generator(3, 3)


def test_holonomy_orders():
    assert holonomy_order(3) == 4
    assert holonomy_order(5) == 16
    assert holonomy_order(7) == 64


def test_g2_isometry_is_a_homomorphism():
    rng = random.Random(73)

    def sample():
        g = identity(2)
        for _ in range(rng.randrange(6)):
            factor = generator(2, rng.randrange(1, 3))
            if rng.random() < 0.5:
                factor = inverse(factor)
            g = multiply(g, factor)
        return g

    for _ in range(120):
        x, y = sample(), sample()
        assert g2_isometry(multiply(x, y)) == g2_isometry(x) @ g2_isometry(y)
    with pytest.raises(ValueError):
        g2_isometry(identity(3))


def test_injectivity_probe_clean():
    assert injectivity_probe(4) == []


def test_rn_isometry_letter_action():
    iso = rn_isometry(generator(2, 1))
    assert iso.apply(_frac((0, 0))) == (Fraction(1, 2), Fraction(0))
    assert iso.signs == (1, -1)
    # lattice elements act by integer translations
    tau = rn_isometry(GroupElement((), (2, -1)))
    assert tau.signs == (1, 1)
    assert tau.translation == _frac((2, -1))


def test_rn_action_examples():
    x1 = generator(2, 1)
    assert rn_action(x1, _frac((0, 0))) == (Fraction(1, 2), Fraction(0))
    v = _frac((Fraction(1, 3), Fraction(2, 5), Fraction(-1)))
    squared = multiply(generator(3, 2), generator(3, 2))
    assert rn_action(squared, v) == (v[0], v[1] + 1, v[2])
    with pytest.raises(ValueError):
        rn_action(x1, _frac((0, 0, 0)))


def test_rn_relator_acts_trivially():
    rng = random.Random(79)
    relator = parse_element("x1^-1 x2 x2 x1 x2 x2", 3)
    assert relator == identity(3)
    for _ in range(30):
        v = _frac([Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
                   for _ in range(3)])
        assert rn_action(relator, v) == v


def test_fixed_points_solver():
    # the first generator shifts its own axis, so no fixed point exists
    assert fixed_points(rn_isometry(generator(2, 1))) is None
    # the rank-2 rotation-like product fixes a quarter-shifted center
    g = parse_element("x1 x2", 2)
    iso = rn_isometry(g)
    point = fixed_points(iso)
    assert point is not None
    assert iso.apply(point) == point
    # pure translations never fix a point, the identity fixes the origin
    assert fixed_points(AffineIsometry.translation_by(_frac((1, 0)))) is None
    origin = fixed_points(AffineIsometry.identity(2))
    assert origin == (Fraction(0), Fraction(0))


def test_fixed_points_match_the_rational_solver():
    # Reference: Gauss-Jordan on (S - I) v = -t, free variables set to 0.
    rng = random.Random(83)
    cases = [AffineIsometry.identity(n) for n in range(7)]
    cases += [AffineIsometry.translation_by(_frac(
        [rng.randrange(-3, 4) for _ in range(n)])) for n in range(7)]
    for _ in range(3000):
        n = rng.randrange(7)
        # Zero shifts are common, so +1 coordinates are often consistent.
        cases.append(AffineIsometry(
            tuple(rng.choice((1, -1)) for _ in range(n)),
            tuple(Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
                  if rng.random() < 0.7 else Fraction(0) for _ in range(n))))
    for iso in cases:
        n = iso.dim
        rows = [[iso.signs[i] - 1 if i == j else 0 for j in range(n)]
                for i in range(n)]
        expected = solve_rational(rows, [-t for t in iso.translation])
        point = fixed_points(iso)
        assert point == (None if expected is None else tuple(expected)), iso
        if point is not None:
            assert iso.apply(point) == point


def _rn_point_evaluation(g, v):
    # Reference: act on the point letter by letter, rightmost first, as the
    # normal form lift(w) tau(t) acts: translate by t, then apply each
    # letter i from the end of w (half-step on axis i, negate the rest).
    point = [Fraction(u) + t for u, t in zip(v, g.t)]
    for letter in reversed(g.w):
        point = [u + Fraction(1, 2) if k == letter - 1 else -u
                 for k, u in enumerate(point)]
    return tuple(point)


_ENTRIES = st.one_of(st.integers(-3, 3), st.sampled_from([2**70 + 1, -(2**71) - 5]),
                     st.integers(-(2**80), 2**80))


@st.composite
def _element_and_point(draw):
    """(g, v): g of rank n in 1..8 or 40 with a reduced word of up to a
    few hundred letters, lattice entries small or past 2^70, and v a
    rational point."""
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 40]))
    rng = draw(st.randoms(use_true_random=False))
    word = []
    for _ in range(draw(st.integers(0, 300))):
        letter = rng.randint(1, n)
        if word[-1:] != [letter]:
            word.append(letter)
    if draw(st.booleans()):
        word += word[-2::-1]
    g = GroupElement(word, [draw(_ENTRIES) for _ in range(n)])
    v = tuple(Fraction(draw(_ENTRIES), draw(st.integers(1, 2**40))) for _ in range(n))
    return g, v


@settings(derandomize=True, database=None, max_examples=200)
@given(_element_and_point())
def test_rn_isometry_matches_letterwise_point_evaluation(case):
    g, v = case
    iso = rn_isometry(g)
    assert iso.apply(v) == _rn_point_evaluation(g, v)
    assert iso.signs == tuple(1 if (len(g.w) - g.w.count(k)) % 2 == 0 else -1
                              for k in range(1, g.n + 1))


def test_rn_isometry_builds_one_isometry(monkeypatch):
    built = []

    class Counted(AffineIsometry):
        __slots__ = ()

        def __new__(cls, signs, translation):
            built.append(1)
            return AffineIsometry.__new__(cls, signs, translation)

    monkeypatch.setattr(crystal, "AffineIsometry", Counted)
    for g in (identity(3), generator(3, 2), parse_element("x1 x2 x3 x1 x3^-1 x2^5", 3)):
        built.clear()
        assert type(rn_isometry(g)) is Counted and len(built) == 1


def test_rn_action_is_linear_in_the_word_and_the_rank():
    # 5,000 letters at n = 200: one isometry per letter took about 6 s.
    rng = random.Random(31)
    word = [1]
    while len(word) < 5000:
        letter = rng.randint(1, 200)
        if letter != word[-1]:
            word.append(letter)
    g = GroupElement(word, [rng.randrange(-10**20, 10**20) for _ in range(200)])
    v = [Fraction(rng.randrange(-10**20, 10**20), rng.randrange(1, 50)) for _ in range(200)]
    start = time.perf_counter()
    image = rn_action(g, v)
    assert time.perf_counter() - start < 0.5
    assert rn_action(inverse(g), image) == tuple(v)


def test_fixed_point_probe_matrix_model():
    assert fixed_point_probe(2, 3) == []
    with pytest.raises(ValueError):
        fixed_point_probe(3, 2)
    with pytest.raises(ValueError):
        fixed_point_probe(2, 0)


def _g2_images(elements):
    """Each element with its g2_isometry, whose letter product is
    composed once per distinct word, in Fractions: the path the probes
    took before they decided on doubled integers."""
    words = {}
    for g in elements:
        head = words.get(g.w)
        if head is None:
            head = words[g.w] = g2_isometry(GroupElement(g.w, (0, 0)))
        yield g, head @ AffineIsometry.translation_by((g.t[0], g.t[1], 0))


def _ball_elements(r):
    """The rank-2 ball the crystal probes read, ``crystal._ball_words``,
    as elements in canonical order."""
    return sorted((GroupElement(w, t) for w, lattices in crystal._ball_words(2, r).items()
                   for t in lattices), key=element_sort_key)


def _g2_ball_of(elements, monkeypatch):
    """``crystal._g2_ball`` on a ball planted as exactly these elements:
    they come out in canonical order, each with the signs and the doubled
    translation the probes read."""
    words = {}
    for g in elements:
        words.setdefault(g.w, set()).add(g.t)
    with monkeypatch.context() as patch:
        patch.setattr(crystal, "_ball_words", lambda n, r: words)
        return [(GroupElement(*wt), signs, doubled)
                for wt, signs, doubled in crystal._g2_ball(1)]


def _fraction_fixed_point_probe(r):
    """The fixed-point probe on Fractions: the oracle for the integer test."""
    e = identity(2)
    found = []
    for g, iso in _g2_images(_ball_elements(r)):
        if g != e:
            point = crystal.fixed_points(iso)
            if point is not None:
                found.append((g, point))
    return found


def _fraction_injectivity_probe(r):
    """The injectivity probe keyed on Fraction isometries."""
    images, collisions = {}, []
    for g, iso in _g2_images(_ball_elements(r)):
        if iso in images:
            collisions.append((images[iso], g))
        else:
            images[iso] = g
    return collisions


def _doubled(iso):
    """The translation of an isometry with translation in (1/2)Z, doubled."""
    doubled = tuple(2 * v for v in iso.translation)
    assert all(v.denominator == 1 for v in doubled), iso
    return tuple(int(v) for v in doubled)


@pytest.mark.parametrize("r", range(1, 9))
def test_probes_match_the_per_element_isometry(r, monkeypatch):
    elements = sorted(ball(2, r), key=element_sort_key)
    images = list(_g2_images(elements))
    assert images == [(g, g2_isometry(g)) for g in elements]
    assert _ball_elements(r) == elements
    assert [(GroupElement(*wt), signs, doubled)
            for wt, signs, doubled in crystal._g2_ball(r)] == [
        (g, iso.signs, _doubled(iso)) for g, iso in images]
    assert fixed_point_probe(2, r) == _fraction_fixed_point_probe(r) == []
    assert injectivity_probe(r) == _fraction_injectivity_probe(r) == []
    # Planted findings: every element with a reflecting first coordinate
    # "fixes" its translation, by the integer test and by fixed_points
    # alike, and a ball that lists each lattice part twice collides with
    # itself.
    _plant_fixed_points(monkeypatch)
    honest = crystal._ball_words
    with monkeypatch.context() as patch:
        patch.setattr(crystal, "_ball_words", lambda n, radius: {
            w: 2 * sorted(lattices) for w, lattices in honest(n, radius).items()})
        found = fixed_point_probe(2, r)
        assert found and found == _fraction_fixed_point_probe(r)
        collisions = injectivity_probe(r)
        assert collisions == [(g, g) for g in elements]
        assert collisions == _fraction_injectivity_probe(r)
    # With B planted as A, x1 and x2 have one image, so distinct words
    # collide, in the order of the Fraction oracle.
    _plant_collisions(monkeypatch)
    collisions = injectivity_probe(r)
    assert (generator(2, 1), generator(2, 2)) in collisions
    assert collisions == _fraction_injectivity_probe(r)


def test_integer_decisions_match_the_rational_model(monkeypatch):
    # Every element of ball(2, 8), which holds the balls of smaller radius,
    # and each of its words again with translations far from the origin.
    rng = random.Random(97)
    elements = sorted(ball(2, 8), key=element_sort_key)
    elements += [GroupElement(w, (rng.randrange(-60, 61), rng.randrange(-60, 61)))
                 for w in sorted({g.w for g in elements}) for _ in range(3)]
    keys = set()
    for g, signs, doubled in _g2_ball_of(elements, monkeypatch):
        iso = g2_isometry(g)
        assert crystal._fixes_a_point(signs, doubled) == (fixed_points(iso) is not None)
        # the collision key is the isometry itself, doubled, so two keys
        # are equal exactly when the two isometries are
        assert (signs, doubled) == (iso.signs, _doubled(iso))
        keys.add((signs, doubled))
    assert len(keys) == len(set(elements))
    # Planted translations: every sign pattern, with many zero coordinates,
    # so that the +1 coordinates are often consistent.
    for _ in range(3000):
        signs = tuple(rng.choice((1, -1)) for _ in range(3))
        doubled = tuple(rng.randrange(-5, 6) if rng.random() < 0.4 else 0 for _ in range(3))
        iso = AffineIsometry(signs, tuple(Fraction(d, 2) for d in doubled))
        assert crystal._fixes_a_point(signs, doubled) == (fixed_points(iso) is not None)


def test_integer_probes_refuse_what_the_rational_model_contradicts(monkeypatch):
    # A letter product off (1/2)Z has no doubled-integer form.
    a, b = gamma3_generators()
    quarter = AffineIsometry(a.signs, (Fraction(1, 4), Fraction(1, 2), Fraction(0)))
    with monkeypatch.context() as patch:
        patch.setattr(crystal, "gamma3_generators", lambda: (quarter, b))
        with pytest.raises(VerificationError, match="off"):
            fixed_point_probe(2, 1)
        with pytest.raises(VerificationError, match="off"):
            injectivity_probe(1)
    # An integer finding that fixed_points does not confirm is refused.
    monkeypatch.setattr(crystal, "_fixes_a_point", lambda signs, doubled: True)
    with pytest.raises(VerificationError, match="fixed_points"):
        fixed_point_probe(2, 2)


def _counting_constructions(monkeypatch):
    """Record every GroupElement built through the names the probes'
    modules use: ``_element`` and ``GroupElement`` in hw_group and crystal."""
    built = []
    for module in (hw_group, crystal):
        for name in ("_element", "GroupElement"):
            def counted(*args, real=getattr(module, name)):
                built.append(args)
                return real(*args)

            monkeypatch.setattr(module, name, counted)
    return built


def _plant_torsion(patch):
    # x1^2 = e in the word kernel: x1 and x1 tau(k e2) square to e
    real = hw_group._mul_words
    patch.setattr(hw_group, "_mul_words", lambda u, v, n: (
        ((), (0,) * n) if u == v == (1,) else real(u, v, n)))


def _plant_center(patch):
    # x1 x_i = x_i x1 = lift(x1 x_i) in the word kernel: x1 is central
    real = hw_group._mul_words
    planted = {}
    for i in (2, 3):
        planted[(1,), (i,)] = planted[(i,), (1,)] = ((1, i), (0, 0, 0))
    patch.setattr(hw_group, "_mul_words", lambda u, v, n: planted.get((u, v)) or real(u, v, n))


def _plant_fixed_points(patch):
    # every element with a reflecting first coordinate "fixes" a point
    patch.setattr(crystal, "_fixes_a_point", lambda signs, doubled: signs[0] == -1)
    patch.setattr(crystal, "fixed_points",
                  lambda iso: iso.translation if iso.signs[0] == -1 else None)


def _plant_collisions(patch):
    # B planted as A: x1 and x2 have one image
    a, _ = gamma3_generators()
    patch.setattr(crystal, "gamma3_generators", lambda: (a, a))


PROBE_CASES = {
    # probe: (rank, radius, call, its plant, elements per finding,
    #         elements built per distinct word)
    "torsion": (3, 4, lambda r: hw_group.torsion_probe(3, r, 2), _plant_torsion, 1, 0),
    "center": (3, 4, lambda r: hw_group.center_probe(3, r), _plant_center, 1, 0),
    "fixed-point": (2, 6, lambda r: fixed_point_probe(2, r), _plant_fixed_points, 1, 1),
    "injectivity": (2, 6, injectivity_probe, _plant_collisions, 2, 1),
}


@pytest.mark.parametrize("kind", sorted(PROBE_CASES))
def test_probes_build_elements_per_word_and_finding_only(kind, monkeypatch):
    n, r, probe, plant, per_finding, per_word = PROBE_CASES[kind]
    words = hw_group._ball_words(n, r)
    size = sum(map(len, words.values()))
    built = _counting_constructions(monkeypatch)
    assert probe(r) == []
    # hw_group's probes build nothing, crystal's one letter product per word
    assert len(built) == per_word * len(words) < size
    with monkeypatch.context() as patch:
        plant(patch)
        built.clear()
        findings = probe(r)
    assert findings
    assert len(built) == per_word * len(words) + per_finding * len(findings)
