"""F_2 cohomology of G_n through the spectral sequence of the lattice
extension, and the bigraded algebra that carries the limit page.

The second page has basis g_A (|A| = q) in column p = 0 and z_i^p g_A
in columns p >= 1; products z_i z_j with i != j vanish, so no mixed
z-monomials occur.  The differential is determined by d_2(g_i) = z_i^2
extended as a derivation in characteristic 2 with d_2(z_i) = 0:

    d_2(g_A)       = sum over i in A of z_i^2 g_{A minus i}
    d_2(z_i^p g_A) = z_i^(p+2) g_{A minus i}   (zero when i not in A)

All page dimensions are exact F_2 ranks of these block matrices.  The
third page is final and vanishes in columns p > 2; columns 3 and 4 are
materialized and checked to vanish (a VerificationError otherwise), with
the z-linearity of d_2 as the periodicity witness for higher columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Tuple, Union

from .exact_algebra import (
    F2Matrix,
    IntPolynomial,
    VerificationError,
    f2_reduce,
    f2_rref,
)

__all__ = [
    "E2Monomial",
    "e2_basis",
    "d2",
    "D2Block",
    "d2_block",
    "SpectralTables",
    "spectral_tables",
    "e3_dims",
    "poincare_f2_spectral",
    "poincare_f2_closed",
    "lemma_f_parts",
    "EnBasisElement",
    "EnAlgebra",
    "en_basis",
    "en_multiply",
    "EnComparison",
    "en_vs_e3",
]

P_MAX = 4


def _masks_of_size(n: int, q: int) -> List[int]:
    if q < 0 or q > n:
        return []
    return [m for m in range(1 << n) if m.bit_count() == q]


def _mask_to_set(mask: int) -> FrozenSet[int]:
    out = set()
    i = 1
    while mask:
        if mask & 1:
            out.add(i)
        mask >>= 1
        i += 1
    return frozenset(out)


def _g_str(mask: int) -> str:
    return "*".join(f"g{i}" for i in sorted(_mask_to_set(mask)))


@dataclass(frozen=True)
class E2Monomial:
    """Basis monomial z_(z_index)^z_power * g_A of the second page.

    z_index is 0 exactly when z_power is 0 (column p = 0 monomials g_A).
    The subset A is stored as a bitmask: bit i-1 set iff i is in A.
    """

    z_index: int
    z_power: int
    g_mask: int

    def __post_init__(self) -> None:
        if (self.z_index == 0) != (self.z_power == 0):
            raise ValueError("z_index must be present exactly when z_power > 0")
        if self.z_index < 0 or self.z_power < 0 or self.g_mask < 0:
            raise ValueError("negative monomial data")

    @property
    def bidegree(self) -> Tuple[int, int]:
        return (self.z_power, self.g_mask.bit_count())

    def sort_key(self) -> Tuple[int, int, int]:
        return (self.z_power, self.z_index, self.g_mask)

    def __str__(self) -> str:
        parts: List[str] = []
        if self.z_power:
            parts.append(
                f"z{self.z_index}" if self.z_power == 1
                else f"z{self.z_index}^{self.z_power}")
        if self.g_mask:
            parts.append(_g_str(self.g_mask))
        return "*".join(parts) if parts else "1"


def e2_basis(n: int, p: int, q: int) -> List[E2Monomial]:
    """Ordered basis of the (p, q) spot of the second page.

    Ordering is z_index ascending then A ascending as a bitmask; this
    fixes every matrix layout in the module.
    """
    if p < 0:
        raise ValueError("column index must be nonnegative")
    masks = _masks_of_size(n, q)
    if p == 0:
        return [E2Monomial(0, 0, m) for m in masks]
    return [E2Monomial(i, p, m) for i in range(1, n + 1) for m in masks]


def d2(m: E2Monomial) -> FrozenSet[E2Monomial]:
    """Value of the differential on a basis monomial, as a monomial set."""
    if m.z_power == 0:
        out = []
        mask = m.g_mask
        while mask:
            low = mask & -mask
            i = low.bit_length()
            out.append(E2Monomial(i, 2, m.g_mask ^ low))
            mask ^= low
        return frozenset(out)
    bit = 1 << (m.z_index - 1)
    if m.g_mask & bit:
        return frozenset({E2Monomial(m.z_index, m.z_power + 2, m.g_mask ^ bit)})
    return frozenset()


@dataclass(frozen=True)
class D2Block:
    """The differential leaving spot (p, q) as an explicit matrix.

    Rows are indexed by the codomain basis at (p+2, q-1) and columns by
    the domain basis at (p, q).
    """

    domain: Tuple[E2Monomial, ...]
    codomain: Tuple[E2Monomial, ...]
    matrix: F2Matrix


def d2_block(n: int, p: int, q: int) -> D2Block:
    domain = e2_basis(n, p, q)
    codomain = e2_basis(n, p + 2, q - 1)
    index = {mono: r for r, mono in enumerate(codomain)}
    rows = [0] * len(codomain)
    for c, mono in enumerate(domain):
        for target in d2(mono):
            rows[index[target]] |= 1 << c
    return D2Block(tuple(domain), tuple(codomain), F2Matrix(tuple(rows), len(domain)))


@dataclass(frozen=True)
class SpectralTables:
    """Dimension tables of the second and third pages, p <= 4, 0 <= q <= n."""

    n: int
    e2: Dict[Tuple[int, int], int]
    z2: Dict[Tuple[int, int], int]
    b2: Dict[Tuple[int, int], int]
    e3: Dict[Tuple[int, int], int]


@lru_cache(maxsize=None)
def spectral_tables(n: int) -> SpectralTables:
    """Compute dim E_2, ker d_2, im d_2 and dim E_3 blockwise.

    Ranks are taken for p <= 4 so that columns 3 and 4 of the third page
    are materialized; they must vanish, and that is checked here rather
    than assumed.
    """
    if n < 0:
        raise ValueError("rank must be nonnegative")
    rank: Dict[Tuple[int, int], int] = {}
    e2_dim: Dict[Tuple[int, int], int] = {}
    for p in range(P_MAX + 1):
        for q in range(n + 2):
            block = d2_block(n, p, q)
            e2_dim[(p, q)] = block.matrix.n_cols
            rank[(p, q)] = block.matrix.rank()
    z2: Dict[Tuple[int, int], int] = {}
    b2: Dict[Tuple[int, int], int] = {}
    e3: Dict[Tuple[int, int], int] = {}
    for p in range(P_MAX + 1):
        for q in range(n + 1):
            z = e2_dim[(p, q)] - rank[(p, q)]
            b = rank[(p - 2, q + 1)] if p >= 2 else 0
            z2[(p, q)] = z
            b2[(p, q)] = b
            e3[(p, q)] = z - b
            if z - b < 0:
                raise VerificationError(f"negative dimension at {(p, q)}")
            if p >= 3 and z - b != 0:
                raise VerificationError(f"third page fails to vanish at {(p, q)}")
    e2_table = {k: v for k, v in e2_dim.items() if k[1] <= n}
    return SpectralTables(n=n, e2=e2_table, z2=z2, b2=b2, e3=e3)


def e3_dims(n: int) -> Dict[Tuple[int, int], int]:
    """Third-page dimension table for p <= 4, 0 <= q <= n."""
    return dict(spectral_tables(n).e3)


def poincare_f2_spectral(n: int) -> IntPolynomial:
    """Poincare polynomial assembled from third-page dimensions."""
    tables = spectral_tables(n)
    coeffs = [0] * (n + 3)
    for p in range(3):
        for q in range(n + 1):
            coeffs[p + q] += tables.e3[(p, q)]
    return IntPolynomial(tuple(coeffs))


def poincare_f2_closed(n: int) -> IntPolynomial:
    """Closed form (1 + x)(1 + (n-1) x (1+x)^(n-1)); 1 for n = 0."""
    if n < 0:
        raise ValueError("rank must be nonnegative")
    if n == 0:
        return IntPolynomial((1,))
    x = IntPolynomial.x()
    one = IntPolynomial((1,))
    return (one + x) * (one + (n - 1) * x * (one + x) ** (n - 1))


def lemma_f_parts(n: int) -> Tuple[IntPolynomial, IntPolynomial, IntPolynomial]:
    """Closed-form column contributions f_0, f_1, f_2 of the final page."""
    if n < 1:
        raise ValueError("column parts need rank at least 1")
    x = IntPolynomial.x()
    one = IntPolynomial((1,))
    b = (one + x) ** (n - 1)
    f0 = one
    f1 = n * x * b
    f2 = n * x * x * b - x * ((one + x) ** n - one)
    return f0, f1, f2


@dataclass(frozen=True)
class EnBasisElement:
    """Basis element of the bigraded algebra: the unit (grade 0), a
    symbol z_i g_A (grade 1), or a class [z_i^2 g_A] (grade 2).

    In every symbol i is outside A; grade-2 entries are the canonical
    representatives surviving reduction modulo the relation span.
    """

    grade: int
    z_index: int
    g_mask: int

    def __post_init__(self) -> None:
        if self.grade not in (0, 1, 2):
            raise ValueError("grade must be 0, 1 or 2")
        if self.grade == 0 and (self.z_index or self.g_mask):
            raise ValueError("unit carries no symbol data")
        if self.grade > 0:
            if self.z_index < 1:
                raise ValueError("symbol needs a generator index")
            if self.g_mask >> (self.z_index - 1) & 1:
                raise ValueError("symbol index must avoid its subset")

    @property
    def bidegree(self) -> Tuple[int, int]:
        return (self.grade, self.g_mask.bit_count())

    def __str__(self) -> str:
        if self.grade == 0:
            return "1"
        power = "" if self.grade == 1 else "^2"
        body = f"z{self.z_index}{power}"
        if self.g_mask:
            body += "*" + _g_str(self.g_mask)
        return body if self.grade == 1 else f"[{body}]"


Combination = FrozenSet[EnBasisElement]


class EnAlgebra:
    """The bigraded algebra on symbols z_i g_A (i outside A).

    Grade 2 is the span of the z_i^2 g_A monomials modulo the relations
    r_A = sum over i in A of z_i^2 g_{A minus i}; representatives are
    fixed once by F_2 elimination, so products reduce canonically.  The
    only nonzero products besides the unit are
    (z_i g_A)(z_i g_B) = [z_i^2 g_{A union B}] for disjoint A, B.
    """

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("rank must be nonnegative")
        self.n = n
        self.unit = EnBasisElement(0, 0, 0)
        self._grade1: List[EnBasisElement] = []
        self._monos: Dict[int, List[Tuple[int, int]]] = {}
        self._mono_index: Dict[int, Dict[Tuple[int, int], int]] = {}
        self._pivots: Dict[int, Dict[int, int]] = {}
        self._reps: Dict[int, List[EnBasisElement]] = {}
        by_size = [_masks_of_size(n, q) for q in range(n + 2)]
        for q in range(n + 1):
            monos = [
                (i, mask)
                for i in range(1, n + 1)
                for mask in by_size[q]
                if not (mask >> (i - 1)) & 1
            ]
            index = {im: k for k, im in enumerate(monos)}
            relations = []
            for big in by_size[q + 1]:
                row = 0
                mask = big
                while mask:
                    low = mask & -mask
                    i = low.bit_length()
                    row |= 1 << index[(i, big ^ low)]
                    mask ^= low
                relations.append(row)
            pivots = f2_rref(relations)
            self._grade1.extend(EnBasisElement(1, i, mask) for i, mask in monos)
            self._monos[q] = monos
            self._mono_index[q] = index
            self._pivots[q] = pivots
            self._reps[q] = [
                EnBasisElement(2, i, mask)
                for k, (i, mask) in enumerate(monos)
                if k not in pivots
            ]

    def basis(self) -> List[EnBasisElement]:
        out = [self.unit]
        out.extend(self._grade1)
        for q in range(self.n + 1):
            out.extend(self._reps[q])
        return out

    def dims(self) -> Dict[Tuple[int, int], int]:
        table: Dict[Tuple[int, int], int] = {(0, 0): 1}
        for e in self._grade1:
            key = e.bidegree
            table[key] = table.get(key, 0) + 1
        for q in range(self.n + 1):
            if self._reps[q]:
                table[(2, q)] = len(self._reps[q])
        return table

    def reduce_grade2(self, i: int, mask: int) -> Combination:
        """Class of the monomial z_i^2 g_mask in the reduced basis."""
        q = mask.bit_count()
        vec = 1 << self._mono_index[q][(i, mask)]
        reduced = f2_reduce(vec, self._pivots[q])
        monos = self._monos[q]
        out = set()
        while reduced:
            low = reduced & -reduced
            gi, gmask = monos[low.bit_length() - 1]
            out.add(EnBasisElement(2, gi, gmask))
            reduced ^= low
        return frozenset(out)

    def _term_product(self, a: EnBasisElement, b: EnBasisElement) -> Combination:
        if a.grade == 0:
            return frozenset({b})
        if b.grade == 0:
            return frozenset({a})
        if a.grade == 1 and b.grade == 1:
            if a.z_index == b.z_index and not a.g_mask & b.g_mask:
                return self.reduce_grade2(a.z_index, a.g_mask | b.g_mask)
        return frozenset()

    def multiply(
        self,
        u: Union[EnBasisElement, Iterable[EnBasisElement]],
        v: Union[EnBasisElement, Iterable[EnBasisElement]],
    ) -> Combination:
        """Bilinear product of characteristic-2 combinations."""
        acc: set = set()
        right = self._terms(v)
        for a in self._terms(u):
            for b in right:
                acc ^= self._term_product(a, b)
        return frozenset(acc)

    def _terms(self, u: Union[EnBasisElement, Iterable[EnBasisElement]]) -> Combination:
        """u as a set of terms, each checked to use only symbols of rank n."""
        terms = frozenset({u}) if isinstance(u, EnBasisElement) else frozenset(u)
        for t in terms:
            if t.z_index > self.n or t.g_mask >> self.n:
                raise ValueError(f"{t} is not an element of the algebra for n={self.n}")
        return terms


@lru_cache(maxsize=None)
def _en_algebra(n: int) -> EnAlgebra:
    return EnAlgebra(n)


def en_basis(n: int) -> List[EnBasisElement]:
    return _en_algebra(n).basis()


def en_multiply(
    n: int,
    u: Union[EnBasisElement, Iterable[EnBasisElement]],
    v: Union[EnBasisElement, Iterable[EnBasisElement]],
) -> Combination:
    return _en_algebra(n).multiply(u, v)


@dataclass(frozen=True)
class EnComparison:
    """Per-bidegree dimension comparison of the algebra with the third page."""

    n: int
    ok: bool
    rows: Tuple[Tuple[int, int, int, int], ...]


def en_vs_e3(n: int) -> EnComparison:
    algebra_dims = _en_algebra(n).dims()
    page_dims = e3_dims(n)
    rows = []
    ok = True
    for p in range(3):
        for q in range(n + 1):
            a = algebra_dims.get((p, q), 0)
            b = page_dims.get((p, q), 0)
            rows.append((p, q, a, b))
            if a != b:
                ok = False
    return EnComparison(n=n, ok=ok, rows=tuple(rows))
