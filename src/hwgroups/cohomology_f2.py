"""F_2 cohomology of G_n through the spectral sequence of the lattice
extension, and the bigraded algebra that carries the limit page.

The second page has basis g_A (|A| = q) in column p = 0 and z_i^p g_A
in columns p >= 1; products z_i z_j with i != j vanish, so no mixed
z-monomials occur.  The differential is determined by d_2(g_i) = z_i^2
extended as a derivation in characteristic 2 with d_2(z_i) = 0:

    d_2(g_A)       = sum over i in A of z_i^2 g_{A minus i}
    d_2(z_i^p g_A) = z_i^(p+2) g_{A minus i}   (zero when i not in A)

Every codomain monomial is hit by at most one domain monomial, so each
nonzero row of a d_2 block is a unit vector: these are monomial d_2
blocks, ranked by counting distinct columns (``d2_rows`` yields each
row's single column).  d_2 is z-linear, so every block with p >= 1
has the same columns: each q scans its codomain once and yields two
blocks, the p = 0 block and the one p >= 1 block, and each is ranked
once.  All page dimensions are exact F_2 ranks of these blocks.  The
third page is final and vanishes in columns p > 2; columns 3 and 4
are materialized from the p >= 1 ranks and checked to vanish (a
VerificationError otherwise), with the z-linearity of d_2 as the
periodicity witness for higher columns.

The bigraded algebra (``en_basis``, ``en_multiply``) presents the final
page.  Its grade 2 is spanned by the z_i^2 g_B modulo the relations
r_A = sum over i in A of z_i^2 g_{A minus i}.  Each z_i^2 g_B lies in
the one relation r_{B union i}, so the relations have disjoint supports:
solving each r_A for its term with i = max A leaves the z_i^2 g_B with
i < max B as representatives, and no elimination runs.  Nothing is
cached: every function recomputes its result from n.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, FrozenSet, Iterable, Iterator, List, NamedTuple,
                    Tuple, Union)

from . import VerificationError, _Value
from .exact_algebra import IntPolynomial, binomial_power

__all__ = [
    "d2_rows",
    "SpectralTables",
    "spectral_tables",
    "e3_dims",
    "poincare_f2_spectral",
    "poincare_f2_closed",
    "lemma_f_parts",
    "EnBasisElement",
    "en_basis",
    "en_dims",
    "reduce_grade2",
    "en_multiply",
    "EnComparison",
    "en_vs_e3",
]

P_MAX = 4


def _positions(n: int) -> Tuple[List[List[int]], List[int]]:
    """by_size[q] lists the masks of weight q in ascending order, for
    q = 0 .. n + 1; pos[mask] is the index of mask in its list."""
    by_size: List[List[int]] = [[] for _ in range(n + 2)]
    pos = [0] * (1 << n)
    for mask in range(1 << n):
        same = by_size[mask.bit_count()]
        pos[mask] = len(same)
        same.append(mask)
    return by_size, pos


def _g_str(mask: int) -> str:
    return "*".join(f"g{i + 1}" for i in range(mask.bit_length()) if mask >> i & 1)


def d2_rows(n: int) -> Iterator[Tuple[int, int, int, List[int]]]:
    """Yield (p, q, n_cols, cols) for the d_2 block leaving each spot
    (p, q), p in (0, 1) and 0 <= q <= n + 1, one block at a time.

    Columns index the domain: g_A sits at pos[A] and z_i^p g_A at
    (i-1) C(n, q) + pos[A], with A in ascending mask order.  Each
    nonzero row is a codomain monomial z_i^(p+2) g_B (|B| = q - 1, i not
    in B), and by the formulas above exactly one column maps onto it:
    g_(B+i), or z_i^p g_(B+i).  cols lists that column for each nonzero
    row; the zero rows, i in B, are left out.  The rank of the block
    over F_2 is therefore len(set(cols)).

    d_2 is z-linear, so the (1, q) block is also the block leaving
    (p, q) for every p >= 1.  One codomain scan per q builds the (0, q)
    and (1, q) blocks, and nothing is kept from one q to the next.
    """
    if n < 0:
        raise ValueError("rank must be nonnegative")
    by_size, pos = _positions(n)
    for q in range(n + 2):
        width = len(by_size[q])
        cols: List[int] = []
        shifted: List[int] = []
        if q:
            for i in range(n):
                bit = 1 << i
                hit = [pos[b | bit] for b in by_size[q - 1] if not b & bit]
                cols += hit
                shifted += map((i * width).__add__, hit)
        yield 0, q, width, cols
        yield 1, q, width * n, shifted


class SpectralTables(NamedTuple):
    """Dimension tables of the second and third pages, p <= 4, 0 <= q <= n."""

    n: int
    e2: Dict[Tuple[int, int], int]
    z2: Dict[Tuple[int, int], int]
    b2: Dict[Tuple[int, int], int]
    e3: Dict[Tuple[int, int], int]


def spectral_tables(n: int) -> SpectralTables:
    """Compute dim E_2, ker d_2, im d_2 and dim E_3 blockwise.

    Each block of ``d2_rows`` is ranked once.  By z-linearity the (1, q)
    block gives the dimension and rank at (p, q) for every p >= 1, so
    columns 3 and 4 of the third page are materialized from it; they
    must vanish, and that is checked here rather than assumed.
    """
    dim: Dict[Tuple[int, int], int] = {}
    rank: Dict[Tuple[int, int], int] = {}
    for p, q, n_cols, cols in d2_rows(n):
        dim[(p, q)] = n_cols
        rank[(p, q)] = len(set(cols))
    tables = SpectralTables(n=n, e2={}, z2={}, b2={}, e3={})
    for p in range(P_MAX + 1):
        for q in range(n + 1):
            block = (min(p, 1), q)
            z = dim[block] - rank[block]
            b = rank[(min(p - 2, 1), q + 1)] if p >= 2 else 0
            tables.e2[(p, q)] = dim[block]
            tables.z2[(p, q)] = z
            tables.b2[(p, q)] = b
            tables.e3[(p, q)] = z - b
            if z - b < 0:
                raise VerificationError(f"negative dimension at {(p, q)}")
            if p >= 3 and z - b != 0:
                raise VerificationError(f"third page fails to vanish at {(p, q)}")
    return tables


def e3_dims(n: int) -> Dict[Tuple[int, int], int]:
    """Third-page dimension table for p <= 4, 0 <= q <= n."""
    return spectral_tables(n).e3


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
    return (one + x) * (one + (n - 1) * x * binomial_power(n - 1))


def lemma_f_parts(n: int) -> Tuple[IntPolynomial, IntPolynomial, IntPolynomial]:
    """Closed-form column contributions f_0, f_1, f_2 of the final page."""
    if n < 1:
        raise ValueError("column parts need rank at least 1")
    x = IntPolynomial.x()
    one = IntPolynomial((1,))
    b = binomial_power(n - 1)
    f0 = one
    f1 = n * x * b
    f2 = n * x * x * b - x * (binomial_power(n) - one)
    return f0, f1, f2


class EnBasisElement(_Value):
    """Basis element of the bigraded algebra: the unit (grade 0), a
    symbol z_i g_A (grade 1), or a class [z_i^2 g_A] (grade 2).

    In every symbol i is outside A; grade-2 entries are the canonical
    representatives surviving reduction modulo the relation span.
    """

    __slots__ = ()
    _fields = ("grade", "z_index", "g_mask")

    def __new__(cls, grade: int, z_index: int, g_mask: int) -> "EnBasisElement":
        if grade not in (0, 1, 2):
            raise ValueError("grade must be 0, 1 or 2")
        if grade == 0 and (z_index or g_mask):
            raise ValueError("unit carries no symbol data")
        if grade > 0:
            if z_index < 1:
                raise ValueError("symbol needs a generator index")
            if g_mask >> (z_index - 1) & 1:
                raise ValueError("symbol index must avoid its subset")
        return tuple.__new__(cls, (grade, z_index, g_mask))

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


if TYPE_CHECKING:  # typing's cache would keep the class and its module alive
    Combination = FrozenSet[EnBasisElement]


def _represents(i: int, mask: int) -> bool:
    """z_i^2 g_mask is a grade-2 representative: i < max(mask)."""
    return mask >> i != 0


def en_basis(n: int) -> List[EnBasisElement]:
    """The unit, every symbol z_i g_A, then the grade-2 representatives."""
    if n < 0:
        raise ValueError("rank must be nonnegative")
    by_size = _positions(n)[0]
    grade1: List[EnBasisElement] = []
    grade2: List[EnBasisElement] = []
    for q in range(n + 1):
        # i first, then masks ascending: the order of the basis
        pairs = [(i, mask) for i in range(1, n + 1)
                 for mask in by_size[q] if not mask >> (i - 1) & 1]
        grade1 += [EnBasisElement(1, i, mask) for i, mask in pairs]
        grade2 += [EnBasisElement(2, i, mask) for i, mask in pairs if _represents(i, mask)]
    return [EnBasisElement(0, 0, 0)] + grade1 + grade2


def en_dims(n: int) -> Dict[Tuple[int, int], int]:
    """Dimension of the algebra in each nonzero bidegree, counted mask
    by mask without building the basis.  A mask A with |A| = q carries
    the n - q symbols z_i g_A with i not in A, and A.bit_length() - q
    grade-2 representatives: the i not in A below max A, which are the
    i for which ``_represents(i, A)`` holds."""
    if n < 0:
        raise ValueError("rank must be nonnegative")
    grade1 = [0] * (n + 1)
    grade2 = [0] * (n + 1)
    for mask in range(1 << n):
        q = mask.bit_count()
        grade1[q] += n - q
        grade2[q] += mask.bit_length() - q
    counts = {(0, 0): 1}
    for q in range(n + 1):
        counts[(1, q)] = grade1[q]
        counts[(2, q)] = grade2[q]
    return {key: counts[key] for key in sorted(counts) if counts[key]}


def _terms(n: int, u: Union[EnBasisElement, Iterable[EnBasisElement]]) -> Combination:
    """u as a set of terms, each checked to use only symbols of rank n."""
    if n < 0:
        raise ValueError("rank must be nonnegative")
    terms = frozenset({u}) if isinstance(u, EnBasisElement) else frozenset(u)
    for t in terms:
        if t.z_index > n or t.g_mask >> n:
            raise ValueError(f"{t} is not an element of the algebra for n={n}")
    return terms


def reduce_grade2(n: int, i: int, mask: int) -> Combination:
    """Class of the monomial z_i^2 g_mask in the reduced basis: the
    monomial itself when i < max(mask), otherwise the other terms of
    the relation r_{mask union i} (none when mask is empty)."""
    own = _terms(n, EnBasisElement(2, i, mask))
    if _represents(i, mask):
        return own
    full = mask | 1 << (i - 1)
    return frozenset(EnBasisElement(2, j + 1, full ^ 1 << j)
                     for j in range(mask.bit_length()) if mask >> j & 1)


def en_multiply(
    n: int,
    u: Union[EnBasisElement, Iterable[EnBasisElement]],
    v: Union[EnBasisElement, Iterable[EnBasisElement]],
) -> Combination:
    """Bilinear product of characteristic-2 combinations.  The only
    nonzero products besides the unit are
    (z_i g_A)(z_i g_B) = [z_i^2 g_{A union B}] for disjoint A, B."""
    acc: set = set()
    right = _terms(n, v)
    for a in _terms(n, u):
        for b in right:
            if a.grade == 0 or b.grade == 0:
                acc ^= {b if a.grade == 0 else a}
            elif (a.grade == b.grade == 1 and a.z_index == b.z_index
                  and not a.g_mask & b.g_mask):
                acc ^= reduce_grade2(n, a.z_index, a.g_mask | b.g_mask)
    return frozenset(acc)


class EnComparison(NamedTuple):
    """Per-bidegree dimension comparison of the algebra with the third page."""

    n: int
    ok: bool
    rows: Tuple[Tuple[int, int, int, int], ...]


def en_vs_e3(n: int) -> EnComparison:
    algebra_dims = en_dims(n)
    page_dims = e3_dims(n)
    rows = tuple((p, q, algebra_dims.get((p, q), 0), page_dims.get((p, q), 0))
                 for p in range(3) for q in range(n + 1))
    return EnComparison(n=n, ok=all(a == b for _, _, a, b in rows), rows=rows)
