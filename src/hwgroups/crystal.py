"""Exact crystallographic models: signed-diagonal affine isometries
over the rationals, the three-dimensional group generated by the
printed matrices A and B, its odd-dimensional relatives, and
freeness/injectivity probes.

Every isometry built here has a diagonal linear part with entries +-1:
the holonomy of A and B is diagonal, and so are the gamma_n generators
and the coordinate action.  An isometry is therefore stored as a sign
vector and a translation, and composition, inversion, evaluation and
fixed-point solving are all coordinatewise.

G_2 maps onto the classical three-dimensional group via x1 -> A,
x2 -> B; the squares A^2, B^2 are the unit translations e_1, e_2, so
the normal form (w, t) evaluates to (product of letter matrices)
composed with the translation (t_1, t_2, 0).  That model is where the
fixed-point and injectivity probes run: the image group is Bieberbach,
hence acts freely; the separate coordinate action on R^n (half-step on
the own axis, negation elsewhere) is faithful only on the one-letter
subgroups and is exposed as rn_action.  It is read off the normal form
in one pass, from hw_group's word_sign_action and inverse, with no
isometry composed per letter.

The probes walk the ball word by word with hw_group's ``_walk``, in
canonical order, and read each word's letter product on integers: A and
B are doubled once per call (every translation of the model lies in
(1/2)Z), and a word's signs S and doubled translation a then take
O(|w|) steps.  lift(w) tau(t) maps to v -> S v + (a + 2 S t') / 2, with
t' = (t_1, t_2, 0), which is affine in t.  So the fixed-point probe
solves each word's condition and lists only its solutions near the
word's box, each confirmed by ``fixed_points`` of ``g2_isometry``; and
the injectivity probe compares points only between words that share
(S, a_3, a_1 mod 2, a_2 mod 2), since the map is injective on each
word.  Only a finding is built as an element and a rational point.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import VerificationError, _Value
from .hw_group import (GroupElement, _element, _near, _near_pinned, _walk, element_sort_key,
                       inverse, word_sign_action)

__all__ = [
    "AffineIsometry",
    "gamma3_generators",
    "gamma_n_generator",
    "holonomy_order",
    "Gamma3Report",
    "verify_hom_g2_gamma3",
    "g2_isometry",
    "rn_isometry",
    "rn_action",
    "fixed_points",
    "fixed_point_probe",
    "injectivity_probe",
]


class AffineIsometry(_Value):
    """Signed-diagonal affine isometry: v maps to S v + t, where S is
    the diagonal matrix with the entries of ``signs``, each +1 or -1.

    A +-1 diagonal is orthogonal, so every value in circulation is a
    genuine isometry; construction checks the signs and the lengths.
    """

    __slots__ = ()
    _fields = ("signs", "translation")

    def __new__(cls, signs: Sequence[int], translation: Sequence) -> "AffineIsometry":
        signs = tuple(signs)
        if any(s not in (1, -1) for s in signs):
            raise ValueError("signs must each be +1 or -1")
        signs = tuple(int(s) for s in signs)
        translation = tuple(Fraction(v) for v in translation)
        if len(signs) != len(translation):
            raise ValueError("signs and translation must have matching length")
        return tuple.__new__(cls, (signs, translation))

    @classmethod
    def identity(cls, n: int) -> "AffineIsometry":
        return cls.translation_by((0,) * n)

    @classmethod
    def translation_by(cls, vec: Sequence) -> "AffineIsometry":
        return cls((1,) * len(vec), vec)

    @property
    def dim(self) -> int:
        return len(self.translation)

    def is_identity(self) -> bool:
        return all(s == 1 for s in self.signs) and not any(self.translation)

    def apply(self, v: Sequence) -> Tuple[Fraction, ...]:
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        return tuple(s * Fraction(u) + t
                     for s, u, t in zip(self.signs, v, self.translation))

    def compose(self, other: "AffineIsometry") -> "AffineIsometry":
        """(S,a) after (T,b): v maps to S(Tv + b) + a = STv + (Sb + a)."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return AffineIsometry(
            tuple(s * u for s, u in zip(self.signs, other.signs)),
            tuple(s * b + a for s, b, a
                  in zip(self.signs, other.translation, self.translation)),
        )

    def inv(self) -> "AffineIsometry":
        """Inverse (S, -S t), since S is its own inverse."""
        return AffineIsometry(
            self.signs, tuple(-s * t for s, t in zip(self.signs, self.translation)))

    def __matmul__(self, other: "AffineIsometry") -> "AffineIsometry":
        return self.compose(other)


def gamma3_generators() -> Tuple[AffineIsometry, AffineIsometry]:
    """The printed three-dimensional generators A and B."""
    half = Fraction(1, 2)
    a = AffineIsometry((1, -1, -1), (half, half, Fraction(0)))
    b = AffineIsometry((-1, 1, -1), (Fraction(0), half, half))
    return a, b


def gamma_n_generator(n: int, i: int) -> AffineIsometry:
    """Generator i of the odd-dimensional model: +1 only at position i,
    translation 1/2 at positions i and i+1."""
    if n % 2 == 0:
        raise ValueError("the diagonal model needs odd rank")
    if not 1 <= i <= n - 1:
        raise ValueError(f"index {i} out of range; need 1 <= i <= {n - 1}")
    signs = tuple(1 if k == i - 1 else -1 for k in range(n))
    half = Fraction(1, 2)
    shift = tuple(
        half if k in (i - 1, i) else Fraction(0) for k in range(n)
    )
    return AffineIsometry(signs, shift)


def holonomy_order(n: int) -> int:
    """Order of the group generated by the linear parts of the gamma_i."""
    zero = (0,) * n
    gens = [AffineIsometry(gamma_n_generator(n, i).signs, zero) for i in range(1, n)]
    seen = {AffineIsometry.identity(n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for gen in gens:
                prod = g @ gen
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return len(seen)


class Gamma3Report(NamedTuple):
    """Evaluation record of the defining relators in the matrix model."""

    ok: bool
    relator_xy: AffineIsometry
    relator_yx: AffineIsometry
    a_squared: AffineIsometry
    b_squared: AffineIsometry


def verify_hom_g2_gamma3() -> Gamma3Report:
    """Check both defining relators under x1 -> A, x2 -> B, and record
    the squares (expected: the unit translations e_1, e_2)."""
    a, b = gamma3_generators()
    relator_xy = a.inv() @ b @ b @ a @ b @ b
    relator_yx = b.inv() @ a @ a @ b @ a @ a
    a2 = a @ a
    b2 = b @ b
    ok = (
        relator_xy.is_identity()
        and relator_yx.is_identity()
        and a2 == AffineIsometry.translation_by((1, 0, 0))
        and b2 == AffineIsometry.translation_by((0, 1, 0))
    )
    return Gamma3Report(ok, relator_xy, relator_yx, a2, b2)


def g2_isometry(g: GroupElement) -> AffineIsometry:
    """Image of a G_2 normal form in the three-dimensional model.

    Letters map to A and B; the lattice part tau(t) lands on the
    translation by (t_1, t_2, 0) since A^2 and B^2 are the unit
    translations e_1 and e_2.
    """
    if g.n != 2:
        raise ValueError("the matrix model is built for rank 2")
    a, b = gamma3_generators()
    letters = {1: a, 2: b}
    out = AffineIsometry.identity(3)
    for letter in g.w:
        out = out @ letters[letter]
    return out @ AffineIsometry.translation_by((g.t[0], g.t[1], 0))


def _doubled_generators() -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """A and B of ``gamma3_generators()`` as (signs, doubled translation)
    on integers; VerificationError if a translation leaves (1/2)Z."""
    letters = []
    for name, gen in zip("AB", gamma3_generators()):
        doubled = [2 * v for v in gen.translation]
        if any(v.denominator != 1 for v in doubled):
            raise VerificationError(f"generator {name} translates off (1/2)Z")
        letters.append((gen.signs, tuple(map(int, doubled))))
    return letters


def _g2_word(w: Sequence[int], letters) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The signs S and the doubled translation a of w's letter product in
    the model, in O(|w|) on integers: (S, a) then (T, b) is (ST, S b + a)."""
    signs, doubled = (1, 1, 1), (0, 0, 0)
    for letter in w:
        t, b = letters[letter - 1]
        doubled = tuple(a + s * v for a, s, v in zip(doubled, signs, b))
        signs = tuple(map(mul, signs, t))
    return signs, doubled


def _g2_words(r: int) -> Iterator[tuple]:
    """The words of the rank-2 ball of radius r in canonical order, each as
    (w, B(w), R, S, a): the walk's box and radius, then the signs and the
    doubled translation of w's letter product.  lift(w) tau(t) maps to
    v -> S v + (a + 2 S t') / 2, with t' = (t_1, t_2, 0)."""
    walk = sorted(_walk(2, r), key=lambda word: (len(word[0]), word[0]))
    letters = _doubled_generators()
    for w, box, R in walk:
        yield (w, box, R, *_g2_word(w, letters))


def _fixed_pins(signs: Sequence[int], doubled: Sequence[int]) -> Optional[List[Optional[int]]]:
    """The t = (t_1, t_2) for which S v + (a + 2 S t') / 2 fixes a point,
    solved: where s_k = +1, a_k + 2 t'_k = 0 pins t_k = -a_k / 2 (k <= 2)
    or needs a_3 = 0, and s_k = -1 leaves t_k free.  None if no t solves
    it."""
    if signs[2] == 1 and doubled[2]:
        return None
    pins: List[Optional[int]] = []
    for s, a in zip(signs, doubled[:2]):
        if s == 1 and a % 2:
            return None
        pins.append(-a // 2 if s == 1 else None)
    return pins


def rn_isometry(g: GroupElement) -> AffineIsometry:
    """The coordinate action on R^n: letter i shifts its own axis by 1/2
    and negates every other coordinate; the lattice translates by t.

    Read off the normal form in O(|w| + n): lift(w) tau(t) is (S, S t - c/2),
    with S the sign action of w and c the lattice part of lift(w)^-1.  The
    letters before the occurrence of i at position j (from 0) turn its
    half-step into (1/2)(-1)^(j - #earlier i's), which is -1/2 of what
    ``inverse`` adds to c_i.
    """
    signs = word_sign_action(g.w, (1,) * g.n)
    c = inverse(GroupElement(g.w, (0,) * g.n)).t
    return AffineIsometry(signs, [s * t - Fraction(h, 2)
                                  for s, t, h in zip(signs, g.t, c)])


def rn_action(g: GroupElement, v: Sequence) -> Tuple[Fraction, ...]:
    """Evaluate the coordinate action of g at an exact rational point."""
    if len(v) != g.n:
        raise ValueError(f"vector dimension {len(v)} does not match rank {g.n}")
    return rn_isometry(g).apply(v)


def fixed_points(iso: AffineIsometry) -> Optional[Tuple[Fraction, ...]]:
    """A fixed point of the isometry, or None when none exists.

    Solves (S - I) v = -t one coordinate at a time: a sign -1 gives
    v_k = t_k / 2, and a sign +1 is consistent only when t_k = 0, where
    the free coordinate is set to 0.
    """
    point = []
    for s, t in zip(iso.signs, iso.translation):
        if s == -1:
            point.append(t / 2)
        elif t:
            return None
        else:
            point.append(Fraction(0))
    return tuple(point)


def fixed_point_probe(n: int, r: int) -> List[Tuple[GroupElement, Tuple[Fraction, ...]]]:
    """Search the ball of radius r for elements fixing a point of the
    crystallographic model.

    Only n = 2 has a printed matrix model (the three-dimensional one);
    its image group is torsion-free crystallographic, so the expected
    report is empty.  The coordinate action on R^n itself is not free
    for words mixing two letters and would make this probe vacuous.
    """
    if n != 2:
        raise ValueError("fixed-point probe runs in the rank-2 matrix model")
    if r < 1:
        raise ValueError("radius must be at least 1")
    found = []
    for w, box, R, signs, doubled in _g2_words(r):
        pins = _fixed_pins(signs, doubled)
        for t in [] if pins is None else sorted(_near_pinned(box, R, pins)):
            if w or any(t):
                g = _element((w, t))
                point = fixed_points(g2_isometry(g))
                if point is None:
                    raise VerificationError(
                        f"the integer solve finds a fixed point of {g}, fixed_points none")
                found.append((g, point))
    return found


def injectivity_probe(r: int) -> List[Tuple[GroupElement, GroupElement]]:
    """Collisions of the normal-form evaluation map on the rank-2 ball.

    Returns pairs (the first ball element with an image, a later one with
    the same image) in canonical order; expected empty at every radius.
    The image of lift(w) tau(t) keeps S, a_3 and the parities of a_1 and
    a_2, and for a fixed w it is injective in t.  So only words that
    share that key can collide, and only their points are compared.
    """
    if r < 1:
        raise ValueError("radius must be at least 1")
    classes: Dict[tuple, list] = {}
    for word in _g2_words(r):
        signs, doubled = word[3:]
        classes.setdefault((signs, doubled[2], doubled[0] % 2, doubled[1] % 2), []).append(word)
    collisions: List[Tuple[GroupElement, GroupElement]] = []
    for members in classes.values():
        if len(members) < 2:
            continue  # one word's points have distinct images
        images: Dict[tuple, tuple] = {}
        for w, box, R, (s1, s2, _), (a1, a2, _) in members:
            for t in sorted(_near(box, R)):
                wt = (w, t)
                first = images.setdefault((a1 + 2 * s1 * t[0], a2 + 2 * s2 * t[1]), wt)
                if first is not wt:
                    collisions.append((_element(first), _element(wt)))
    collisions.sort(key=lambda pair: element_sort_key(pair[1]))
    return collisions
