"""Symbolic reference for the second page of the spectral sequence,
and the GF(2) elimination the tests use as an oracle.

``hwgroups.cohomology_f2`` builds each d_2 block directly as the
column of each nonzero row.  This module keeps the slow, literal
construction as the oracle the tests check it against: one
``E2Monomial`` per basis element, d_2 as a set of monomials, and each
block as one bitset per codomain row, bit c set when domain column c
maps onto that row.  ``f2_rref`` and ``f2_reduce`` are a general echelon
basis and reduction over GF(2); the package needs neither, since its
d_2 blocks are monomial and its grade-2 relations have disjoint
supports, and the tests check both shortcuts against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Mapping, Tuple


def _masks_of_size(n: int, q: int) -> List[int]:
    if q < 0 or q > n:
        return []
    return [m for m in range(1 << n) if m.bit_count() == q]


def _g_str(mask: int) -> str:
    return "*".join(f"g{i + 1}" for i in range(mask.bit_length()) if mask >> i & 1)


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

    Ordering is z_index ascending then A ascending as a bitmask, the
    column order of ``cohomology_f2.d2_rows``.
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
    the domain basis at (p, q); row r is a bitset with bit c set when
    the entry (r, c) is 1.
    """

    domain: Tuple[E2Monomial, ...]
    codomain: Tuple[E2Monomial, ...]
    rows: Tuple[int, ...]


def d2_block(n: int, p: int, q: int) -> D2Block:
    domain = e2_basis(n, p, q)
    codomain = e2_basis(n, p + 2, q - 1)
    index = {mono: r for r, mono in enumerate(codomain)}
    rows = [0] * len(codomain)
    for c, mono in enumerate(domain):
        for target in d2(mono):
            rows[index[target]] |= 1 << c
    return D2Block(tuple(domain), tuple(codomain), tuple(rows))


def f2_rref(rows: Iterable[int]) -> dict:
    """Echelon basis of the span of rows: a map lead column -> pivot row.

    Pivots sit on the highest set bit and are not back-substituted.
    Reduction against the map is still canonical: the leads are distinct,
    so each nonzero vector of the row space has its lead among them, and
    ``f2_reduce`` returns the unique vector of its coset whose support
    avoids every lead.
    """
    pivots: dict = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            row ^= piv
    return pivots


def f2_reduce(vec: int, pivots: Mapping[int, int]) -> int:
    """Canonical representative of vec modulo the span of the pivot rows."""
    out = 0
    while vec:
        lead = vec.bit_length() - 1
        piv = pivots.get(lead)
        if piv is None:
            bit = 1 << lead
            out |= bit
            vec ^= bit
        else:
            vec ^= piv
    return out
