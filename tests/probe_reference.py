"""Oracles for the Cayley ball and the four probes, point by point.

``bfs_ball_words`` is the breadth-first search that ``hw_group._walk``
replaced, and ``ball_words`` is the walk as a map {word: lattice parts}.
The four ``per_point_*`` probes test every lattice part of every word
of the ball by the per-element tests (``hw_group._squares_to_identity``
and ``_commutes_with``, and in the rank-2 model the letter product
composed in Fractions by ``crystal.g2_isometry``).  They are the probes
the package ran before it solved each word's lattice test, so a probe
and its oracle must give the same findings in the same order.  Every
name is looked up through its module at call time, so a test that
plants a kernel result or a generator plants it in both.
"""

from __future__ import annotations

from hwgroups import BallBudgetError, VerificationError, crystal, hw_group
from hwgroups.hw_group import GroupElement, element_sort_key


def ball_words(n, r):
    """The ball of radius r as {word: set of its lattice parts}, read off
    the walk, the empty word's set holding the identity's zero vector."""
    return {w: set(hw_group._near(box, R)) for w, box, R in hw_group._walk(n, r)}


def bfs_ball_words(n, r):
    """Oracle for the walk: breadth first over append_letter moves on
    raw (w, t) pairs, as {word: {lattice part: layer}}, with the same
    budget check.

    x_i fixes t_i and negates every other coordinate, so t is negated
    once per element, and the word step is taken once for x_i and
    x_i^-1 = x_i tau(-e_i).
    """
    budget = hw_group.DEFAULT_BALL_BUDGET
    zero = (0,) * n
    seen = {(): {zero: 0}}
    size = 1
    frontier = [((), zero)]
    for layer in range(1, r + 1):
        next_frontier = []
        for w, t in frontier:
            twisted = [-v for v in t]
            last = w[-1] if w else 0
            for i in range(1, n + 1):
                if i == last:  # x_i cancels, leaving the unit e_i
                    word, plus = w[:-1], t[i - 1] + 1
                else:
                    word, plus = w + (i,), t[i - 1]
                lattices = seen.setdefault(word, {})
                for v in (plus, plus - 1):  # x_i, then x_i^-1
                    twisted[i - 1] = v
                    h = tuple(twisted)
                    if h not in lattices:
                        if size >= budget:
                            raise BallBudgetError(f"ball exceeds budget of {budget} elements")
                        size += 1
                        lattices[h] = layer
                        next_frontier.append((word, h))
                twisted[i - 1] = -t[i - 1]
        frontier = next_frontier
    return seen


def plant_torsion(patch):
    """x1^2 = e in the word kernel: x1 tau(t) squares to e wherever t_1 = 0."""
    real = hw_group._mul_words
    patch.setattr(hw_group, "_mul_words", lambda u, v, m: (
        ((), (0,) * m) if u == v == (1,) else real(u, v, m)))


def plant_center(patch, n):
    """x1 x_i = x_i x1 = lift(x1 x_i) in the rank-n word kernel: x1 is central."""
    real = hw_group._mul_words
    planted = {}
    for i in range(2, n + 1):
        planted[(1,), (i,)] = planted[(i,), (1,)] = ((1, i), (0,) * n)
    patch.setattr(hw_group, "_mul_words", lambda u, v, m: planted.get((u, v)) or real(u, v, m))


def _nontrivial_words(n, r):
    words = ball_words(n, r)
    words[()].remove((0,) * n)  # the identity is no finding
    return words


def per_point_torsion_probe(n, r, kmax):
    """torsion_probe by testing every lattice part of each word whose
    square is trivial in W_n."""
    if r < 1 or kmax < 1:
        raise ValueError("radius and exponent bound must be at least 1")
    if kmax < 2:
        hw_group._check_ball(n, r)
        return []
    found = [(hw_group._element((w, t)), 2)
             for w, lattices in _nontrivial_words(n, r).items()
             if lattices and (squares_to_e := hw_group._squares_to_identity(w, n))
             for t in lattices if squares_to_e(t)]
    found.sort(key=lambda pair: element_sort_key(pair[0]))
    return found


def per_point_center_probe(n, r):
    """center_probe by testing every lattice part of each word that
    passes every generator's word test."""
    if n < 2:
        raise ValueError("center probe needs n >= 2")
    if r < 1:
        raise ValueError("radius must be at least 1")
    found = []
    for w, lattices in _nontrivial_words(n, r).items():
        if not lattices:
            continue
        tests = []
        for i in range(1, n + 1):
            commutes = hw_group._commutes_with(w, i, n)
            if commutes is None:
                break
            tests.append(commutes)
        else:
            found.extend(hw_group._element((w, t)) for t in lattices
                         if all(test(t) for test in tests))
    found.sort(key=element_sort_key)
    return found


def g2_ball(r):
    """The rank-2 ball of radius r in canonical order: each raw (w, t) with
    the signs and the doubled translation of its g2_isometry, as integers.

    Each word's letter product (S, a) is composed once, in Fractions;
    lift(w) tau(t) then maps to (S, a + S (t_1, t_2, 0)).  Raises
    VerificationError if a letter product leaves the half-integers.
    """
    words = ball_words(2, r)
    for w in sorted(words, key=lambda w: (len(w), w)):
        iso = crystal.g2_isometry(GroupElement(w, (0, 0)))
        doubled = [2 * v for v in iso.translation]
        if any(v.denominator != 1 for v in doubled):
            raise VerificationError(f"the letter product of word {w} translates off (1/2)Z")
        (a1, a2, a3), (s1, s2, _) = map(int, doubled), iso.signs
        for t in sorted(words[w]):
            yield (w, t), iso.signs, (a1 + 2 * s1 * t[0], a2 + 2 * s2 * t[1], a3)


def fixes_a_point(signs, doubled):
    """Whether v -> S v + doubled / 2 has a fixed point: a sign -1 always
    solves its coordinate, and a sign +1 only when its translation is 0."""
    return not any(d for s, d in zip(signs, doubled) if s == 1)


def per_point_fixed_point_probe(r):
    """fixed_point_probe(2, r) by testing the image of every ball element."""
    if r < 1:
        raise ValueError("radius must be at least 1")
    found = []
    for wt, signs, doubled in g2_ball(r):
        if fixes_a_point(signs, doubled) and wt != ((), (0, 0)):
            g = hw_group._element(wt)
            point = crystal.fixed_points(crystal.g2_isometry(g))
            if point is None:
                raise VerificationError(
                    f"the integer test finds a fixed point of {g}, fixed_points none")
            found.append((g, point))
    return found


def per_point_injectivity_probe(r):
    """injectivity_probe(r) by keeping the image of every ball element."""
    if r < 1:
        raise ValueError("radius must be at least 1")
    images, collisions = {}, []
    for wt, signs, doubled in g2_ball(r):
        other = images.setdefault((signs, doubled), wt)
        if other is not wt:
            collisions.append((hw_group._element(other), hw_group._element(wt)))
    return collisions
