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

The probes read the ball word by word from hw_group's ``_ball_words``,
in canonical order, and compose each word's letters once, in Fractions;
then they work on integers: every translation of the model lies in
(1/2)Z, so an image is a sign vector and a doubled translation.  The
injectivity probe keys on that pair, and the fixed-point probe tests it
directly; only a finding is built as an element and a rational point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import VerificationError, _Value
from .hw_group import GroupElement, _ball_words, _element, inverse, word_sign_action

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


def _g2_ball(r: int) -> Iterator[tuple]:
    """The rank-2 ball of radius r in canonical order: each raw (w, t) with
    the signs and the doubled translation of its g2_isometry, as integers.

    Each word's letter product (S, a) is composed once, in Fractions;
    lift(w) tau(t) then maps to (S, a + S (t_1, t_2, 0)).  Raises
    VerificationError if a letter product leaves the half-integers.
    """
    words = _ball_words(2, r)
    for w in sorted(words, key=lambda w: (len(w), w)):
        iso = g2_isometry(GroupElement(w, (0, 0)))
        doubled = [2 * v for v in iso.translation]
        if any(v.denominator != 1 for v in doubled):
            raise VerificationError(f"the letter product of word {w} translates off (1/2)Z")
        (a1, a2, a3), (s1, s2, _) = map(int, doubled), iso.signs
        for t in sorted(words[w]):
            yield (w, t), iso.signs, (a1 + 2 * s1 * t[0], a2 + 2 * s2 * t[1], a3)


def _fixes_a_point(signs: Sequence[int], doubled: Sequence[int]) -> bool:
    """Whether v -> S v + doubled / 2 has a fixed point: a sign -1 always
    solves its coordinate, and a sign +1 only when its translation is 0."""
    return not any(d for s, d in zip(signs, doubled) if s == 1)


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
    for wt, signs, doubled in _g2_ball(r):
        if _fixes_a_point(signs, doubled) and wt != ((), (0, 0)):
            g = _element(wt)
            point = fixed_points(g2_isometry(g))
            if point is None:
                raise VerificationError(
                    f"the integer test finds a fixed point of {g}, fixed_points none")
            found.append((g, point))
    return found


def injectivity_probe(r: int) -> List[Tuple[GroupElement, GroupElement]]:
    """Collisions of the normal-form evaluation map on the rank-2 ball.

    Returns pairs (the first ball element with an image, a later one with
    the same image) in canonical order; expected empty at every radius.
    """
    if r < 1:
        raise ValueError("radius must be at least 1")
    images: Dict[tuple, tuple] = {}
    collisions: List[Tuple[GroupElement, GroupElement]] = []
    for wt, signs, doubled in _g2_ball(r):
        other = images.setdefault((signs, doubled), wt)
        if other is not wt:
            collisions.append((_element(other), _element(wt)))
    return collisions
