"""Exact crystallographic models: affine isometries over the rationals,
the three-dimensional group generated by the printed matrices A and B,
its odd-dimensional relatives, and freeness/injectivity probes.

G_2 maps onto the classical three-dimensional group via x1 -> A,
x2 -> B; the squares A^2, B^2 are the unit translations e_1, e_2, so
the normal form (w, t) evaluates to (product of letter matrices)
composed with the translation (t_1, t_2, 0).  That model is where the
fixed-point probe runs: the image group is Bieberbach, hence acts
freely; the separate coordinate action on R^n (half-step on the own
axis, negation elsewhere) is faithful only on the one-letter subgroups
and is exposed as rn_action.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exact_algebra import solve_rational
from .hw_group import GroupElement, ball, element_sort_key, identity

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


@dataclass(frozen=True)
class AffineIsometry:
    """Pair (L, t): v maps to L v + t, with L orthogonal over {-1,0,1}.

    Orthogonality is asserted on construction, so every value in
    circulation is a genuine isometry.
    """

    linear: Tuple[Tuple[int, ...], ...]
    translation: Tuple[Fraction, ...]

    def __post_init__(self) -> None:
        linear = tuple(tuple(int(v) for v in row) for row in self.linear)
        translation = tuple(Fraction(v) for v in self.translation)
        n = len(translation)
        if len(linear) != n or any(len(row) != n for row in linear):
            raise ValueError("linear part must be square of matching size")
        for row in linear:
            for v in row:
                if v not in (-1, 0, 1):
                    raise ValueError("linear entries must be in {-1,0,1}")
        for i in range(n):
            for j in range(n):
                dot = sum(linear[i][k] * linear[j][k] for k in range(n))
                if dot != (1 if i == j else 0):
                    raise ValueError("linear part is not orthogonal")
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "translation", translation)

    @classmethod
    def identity(cls, n: int) -> "AffineIsometry":
        return cls.translation_by((0,) * n)

    @classmethod
    def translation_by(cls, vec: Sequence) -> "AffineIsometry":
        n = len(vec)
        return cls(
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)),
            tuple(Fraction(v) for v in vec),
        )

    @property
    def dim(self) -> int:
        return len(self.translation)

    def is_identity(self) -> bool:
        return self == AffineIsometry.identity(self.dim)

    def apply(self, v: Sequence) -> Tuple[Fraction, ...]:
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        vec = [Fraction(u) for u in v]
        return tuple(
            sum((row[k] * vec[k] for k in range(self.dim)), Fraction(0)) + t
            for row, t in zip(self.linear, self.translation)
        )

    def compose(self, other: "AffineIsometry") -> "AffineIsometry":
        """(A,a) after (B,b): v maps to A(Bv + b) + a = ABv + (Ab + a)."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        n = self.dim
        product = tuple(
            tuple(
                sum(self.linear[i][k] * other.linear[k][j] for k in range(n))
                for j in range(n)
            )
            for i in range(n)
        )
        shift = tuple(
            sum(
                (self.linear[i][k] * other.translation[k] for k in range(n)),
                Fraction(0),
            )
            + self.translation[i]
            for i in range(n)
        )
        return AffineIsometry(product, shift)

    def inv(self) -> "AffineIsometry":
        """Inverse (L^T, -L^T t) using orthogonality of the linear part."""
        n = self.dim
        transpose = tuple(
            tuple(self.linear[j][i] for j in range(n)) for i in range(n)
        )
        shift = tuple(
            -sum((transpose[i][k] * self.translation[k] for k in range(n)),
                 Fraction(0))
            for i in range(n)
        )
        return AffineIsometry(transpose, shift)

    def __matmul__(self, other: "AffineIsometry") -> "AffineIsometry":
        return self.compose(other)


def _diag(signs: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    n = len(signs)
    return tuple(
        tuple(signs[i] if i == j else 0 for j in range(n)) for i in range(n)
    )


def gamma3_generators() -> Tuple[AffineIsometry, AffineIsometry]:
    """The printed three-dimensional generators A and B."""
    half = Fraction(1, 2)
    a = AffineIsometry(_diag((1, -1, -1)), (half, half, Fraction(0)))
    b = AffineIsometry(_diag((-1, 1, -1)), (Fraction(0), half, half))
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
    return AffineIsometry(_diag(signs), shift)


def holonomy_order(n: int) -> int:
    """Order of the group generated by the linear parts of the gamma_i."""
    zero = (0,) * n
    gens = [AffineIsometry(gamma_n_generator(n, i).linear, zero) for i in range(1, n)]
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


@dataclass(frozen=True)
class Gamma3Report:
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


def rn_isometry(g: GroupElement) -> AffineIsometry:
    """The coordinate action on R^n: letter i shifts its own axis by 1/2
    and negates every other coordinate; the lattice translates by t."""
    n = g.n
    half = Fraction(1, 2)
    out = AffineIsometry.identity(n)
    for letter in g.w:
        signs = tuple(1 if k == letter - 1 else -1 for k in range(n))
        shift = tuple(half if k == letter - 1 else Fraction(0) for k in range(n))
        out = out @ AffineIsometry(_diag(signs), shift)
    return out @ AffineIsometry.translation_by(g.t)


def rn_action(g: GroupElement, v: Sequence) -> Tuple[Fraction, ...]:
    """Evaluate the coordinate action of g at an exact rational point."""
    if len(v) != g.n:
        raise ValueError(f"vector dimension {len(v)} does not match rank {g.n}")
    return rn_isometry(g).apply(v)


def fixed_points(iso: AffineIsometry) -> Optional[Tuple[Fraction, ...]]:
    """A fixed point of the isometry, or None when none exists.

    Solves (L - I) v = -t exactly; an inconsistent system means the
    isometry is fixed-point free.
    """
    n = iso.dim
    rows = [
        [Fraction(iso.linear[i][j] - (1 if i == j else 0)) for j in range(n)]
        for i in range(n)
    ]
    rhs = [-t for t in iso.translation]
    solution = solve_rational(rows, rhs)
    if solution is None:
        return None
    return tuple(solution)


def fixed_point_probe(
    n: int, r: int, budget: int = 10**6
) -> List[Tuple[GroupElement, Tuple[Fraction, ...]]]:
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
    e = identity(n)
    found = []
    for g in sorted(ball(n, r, budget), key=element_sort_key):
        if g == e:
            continue
        point = fixed_points(g2_isometry(g))
        if point is not None:
            found.append((g, point))
    return found


def injectivity_probe(
    r: int, budget: int = 10**6
) -> List[Tuple[GroupElement, GroupElement]]:
    """Collisions of the normal-form evaluation map on the rank-2 ball.

    Returns pairs of distinct ball elements with equal isometry images;
    expected empty at every radius.
    """
    if r < 1:
        raise ValueError("radius must be at least 1")
    images: Dict[AffineIsometry, GroupElement] = {}
    collisions: List[Tuple[GroupElement, GroupElement]] = []
    for g in sorted(ball(2, r, budget), key=element_sort_key):
        iso = g2_isometry(g)
        other = images.get(iso)
        if other is None:
            images[iso] = g
        else:
            collisions.append((other, g))
    return collisions
