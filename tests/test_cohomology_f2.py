from __future__ import annotations

import hashlib
import math
import tracemalloc

import pytest

from hwgroups.exact_algebra import IntPolynomial
from hwgroups.cohomology_f2 import (
    P_MAX,
    EnBasisElement,
    d2_rows,
    e3_dims,
    en_basis,
    en_dims,
    en_multiply,
    en_vs_e3,
    lemma_f_parts,
    poincare_f2_closed,
    poincare_f2_spectral,
    reduce_grade2,
    spectral_tables,
)
from spectral_reference import E2Monomial, d2, d2_block, e2_basis, f2_reduce, f2_rref


def test_e2_basis_counts():
    for n in range(5):
        for q in range(n + 1):
            assert len(e2_basis(n, 0, q)) == math.comb(n, q)
            for p in (1, 2, 3):
                assert len(e2_basis(n, p, q)) == n * math.comb(n, q)


def test_e2_basis_is_sorted_and_str():
    basis = e2_basis(3, 1, 1)
    assert [str(m) for m in basis] == [
        "z1*g1", "z1*g2", "z1*g3",
        "z2*g1", "z2*g2", "z2*g3",
        "z3*g1", "z3*g2", "z3*g3",
    ]
    assert [m.sort_key() for m in basis] == sorted(m.sort_key() for m in basis)
    assert str(E2Monomial(0, 0, 0b101)) == "g1*g3"
    assert str(E2Monomial(2, 3, 0)) == "z2^3"
    assert str(E2Monomial(0, 0, 0)) == "1"


def test_e2_monomial_validation():
    with pytest.raises(ValueError):
        E2Monomial(1, 0, 0)  # power zero forces index zero
    with pytest.raises(ValueError):
        E2Monomial(0, 2, 0)  # positive power needs an index


def test_d2_on_bottom_row_is_the_koszul_sum():
    m = E2Monomial(0, 0, 0b011)
    assert d2(m) == frozenset({E2Monomial(1, 2, 0b010), E2Monomial(2, 2, 0b001)})
    assert d2(E2Monomial(0, 0, 0)) == frozenset()


def test_d2_on_z_monomials():
    # z_i^p g_A transgresses to z_i^(p+2) g_(A minus i) only when i is in A
    inside = E2Monomial(1, 1, 0b011)
    assert d2(inside) == frozenset({E2Monomial(1, 3, 0b010)})
    outside = E2Monomial(3, 2, 0b011)
    assert d2(outside) == frozenset()


def test_d2_squares_to_zero_symbolically():
    for n in range(1, 6):
        for p in range(3):
            for q in range(n + 1):
                for mono in e2_basis(n, p, q):
                    image = frozenset()
                    for term in d2(mono):
                        image = image ^ d2(term)
                    assert image == frozenset()


def test_d2_block_matches_symbolic_values():
    block = d2_block(3, 0, 2)
    codomain_index = {m: i for i, m in enumerate(block.codomain)}
    for j, mono in enumerate(block.domain):
        column = d2(mono)
        for i, target in enumerate(block.codomain):
            expected = 1 if target in column else 0
            assert block.rows[i] >> j & 1 == expected
        assert all(target in codomain_index for target in column)


def test_spectral_tables_consistency():
    for n in (2, 3, 4):
        tables = spectral_tables(n)
        for key, value in tables.e3.items():
            assert value >= 0
            assert value == tables.z2[key] - tables.b2[key]
            if key[0] >= 3:
                assert value == 0
        for (p, q), value in tables.e2.items():
            assert value == len(e2_basis(n, p, q))


def test_sparse_blocks_match_the_symbolic_reference():
    # the (1, q) block must equal the reference block leaving every
    # column p >= 1: spectral_tables relies on that z-linearity
    for n in range(11):
        blocks = list(d2_rows(n))
        assert [(p, q) for p, q, _, _ in blocks] == [
            (p, q) for q in range(n + 2) for p in (0, 1)]
        for p, q, n_cols, cols in blocks:
            for ref_p in (range(1, P_MAX + 1) if p else (0,)):
                block = d2_block(n, ref_p, q)
                assert n_cols == len(block.domain)
                # every nonzero reference row has weight 1, at the listed column
                assert all(0 <= c < n_cols for c in cols)
                assert sorted(1 << c for c in cols) == \
                    sorted(row for row in block.rows if row)
                assert len(set(cols)) == len(f2_rref(block.rows))


def test_editing_a_yielded_block_leaves_later_blocks_unchanged():
    # the (0, q) and (1, q) blocks come from one scan; each yield is its own list
    for n in range(8):
        expected = [(p, q, n_cols, list(cols)) for p, q, n_cols, cols in d2_rows(n)]
        for index, (p, q, n_cols, cols) in enumerate(d2_rows(n)):
            assert (p, q, n_cols, cols) == expected[index]
            cols.append(n_cols)


def test_spectral_tables_peak_memory_at_rank_16():
    # d2_rows keeps nothing across q, so the peak is the two blocks of
    # one q and their column sets
    tracemalloc.start()
    try:
        spectral_tables(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


@pytest.mark.parametrize("n", range(13, 17))
def test_spectral_series_beyond_the_digests(n):
    assert poincare_f2_spectral(n) == poincare_f2_closed(n)
    assert en_vs_e3(n).ok


# SHA-256 of the e2, z2, b2 and e3 tables of spectral_tables(n), one
# "name p q value" line per entry in key order; recorded from the
# symbolic block construction with bitset elimination.
TABLE_DIGESTS = {
    0: "46bfea45a720782d4863f60315f10408cdf9ba25b2981a3095325cf8c4a2d297",
    1: "ef15734f7cf36961bb26fec42c8d2f1636cbaae403170bd86b71e0739c4c1876",
    2: "0039c060fcfcd0dc5cc87fefd5f8539abc7e05df36c56cf0441f839a41110fff",
    3: "0c358c648bb08e4573ac85c82e7ca91514fe1fb3c873bee9033a96d8cb045663",
    4: "4f7f08daa963c97c56c923006fc4047b482c881687e0f3a4dd79672b4fbd4671",
    5: "8b1416c5a8a279609462607c53f5e999959e686fb6fe565759cf0ba6796820fa",
    6: "0d475cbc6f3d9c4871df1c9250315ef04116b3eb6f4e40f3417903c017857b11",
    7: "0e38f030072b4c59388f93d85134fa8e4b2ca023df98f019286bba401a567f9a",
    8: "906eda61a36f16b56f389e23f517a4e12dab3fa09e21efd12e895e79f82eb98b",
    9: "184e85266341c0eadf2df78c80396c246b45cf88b23a33fbebf5631f1080fd3c",
    10: "05e9686045c86483211026a3d40d6dc539e16ab1d2533bcae310b6464baccd40",
    11: "4cd2699dae5b712e73ded96a2bf360b017214c7a06ac133e3153893960ae403a",
    12: "12331fd1545460b019a62e8b945149407c41d88453f8616b52409afbe4b18b4e",
}


@pytest.mark.parametrize("n", sorted(TABLE_DIGESTS))
def test_spectral_tables_are_pinned(n):
    tables = spectral_tables(n)
    text = "".join(f"{name} {p} {q} {value}\n" for name in ("e2", "z2", "b2", "e3")
                   for (p, q), value in sorted(getattr(tables, name).items()))
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_DIGESTS[n]


def test_e3_dims_rank_two():
    dims = e3_dims(2)
    nonzero = {key: value for key, value in dims.items() if value}
    assert nonzero == {(0, 0): 1, (1, 0): 2, (1, 1): 2, (2, 1): 1}


def test_poincare_f2():
    assert poincare_f2_spectral(2) == IntPolynomial((1, 2, 2, 1))
    assert poincare_f2_closed(3) == IntPolynomial((1, 3, 6, 6, 2))
    for n in range(7):
        assert poincare_f2_spectral(n) == poincare_f2_closed(n)
    # rank zero and one collapse to the circle cases
    assert poincare_f2_closed(0) == IntPolynomial((1,))
    assert poincare_f2_closed(1) == IntPolynomial((1, 1))


def test_lemma_parts_sum_to_the_series():
    for n in range(1, 9):
        f0, f1, f2 = lemma_f_parts(n)
        assert f0 + f1 + f2 == poincare_f2_closed(n)
    f0, f1, f2 = lemma_f_parts(2)
    assert f0 == IntPolynomial((1,))
    assert f1 == IntPolynomial((0, 2, 2))
    assert f2 == IntPolynomial((0, 0, 0, 1))


def test_en_basis_rank_two_is_the_six_element_table():
    assert [str(e) for e in en_basis(2)] == [
        "1", "z1", "z2", "z1*g2", "z2*g1", "[z1^2*g2]"]


def test_en_basis_sizes():
    # grade 1 holds n * 2^(n-1) symbols z_i g_A with i outside A
    for n in range(1, 6):
        basis = en_basis(n)
        grade1 = [e for e in basis if e.grade == 1]
        assert len(grade1) == n * 2 ** (n - 1)
    with pytest.raises(ValueError, match="^rank must be nonnegative$"):
        en_basis(-1)


def test_en_relations_kill_squares_and_split_products():
    basis = {str(e): e for e in en_basis(2)}
    z1, z2 = basis["z1"], basis["z2"]
    w = basis["[z1^2*g2]"]
    # z_i^2 alone is a relation class, so self-products vanish
    assert en_multiply(2, z1, z1) == frozenset()
    assert en_multiply(2, z2, z2) == frozenset()
    # the two nonzero products land on the same surviving class
    assert en_multiply(2, z1, basis["z1*g2"]) == frozenset({w})
    assert en_multiply(2, z2, basis["z2*g1"]) == frozenset({w})
    assert en_multiply(2, z1, z2) == frozenset()
    # unit acts as identity and the product is bilinear over sets
    assert en_multiply(2, basis["1"], z1) == frozenset({z1})
    assert en_multiply(2, [z1, z2], [basis["z1*g2"], basis["z2*g1"]]) \
        == frozenset()


def test_en_product_is_commutative():
    for n in (2, 3):
        basis = en_basis(n)
        for a in basis:
            for b in basis:
                assert en_multiply(n, a, b) == en_multiply(n, b, a)


def test_en_multiply_rejects_symbols_outside_rank_n():
    cases = [
        (EnBasisElement(1, 3, 0), EnBasisElement(1, 3, 0b001)),
        (EnBasisElement(1, 1, 0b100), EnBasisElement(1, 1, 0b010)),
    ]
    for a, b in cases:
        for u, v in ((a, b), (b, a), ([a], EnBasisElement(0, 0, 0))):
            with pytest.raises(ValueError, match="n=2"):
                en_multiply(2, u, v)


# SHA-256 of the en_basis text followed by the class of every grade-2
# monomial z_i^2 g_mask (i outside mask), one line each; recorded from the
# fully back-substituted elimination, so any change of representatives shows.
EN_DIGESTS = {
    3: "14b4c70fa62a3a039b9f33a4da87bb5843830c7c485ab057adab6234f83875e1",
    4: "8772f3e96ec4b214213c8615c58096d931000f86600bad61d237c269430334ef",
    5: "0f3c0db3d3118d0bbd765c5a187f272da1a4ead3b0eb2a8aedf59f9774f2bb6c",
    6: "6f36bb5fd1612293589623d8b6134c64aa0176ffb472a661c7a345e4fe163023",
    7: "ddf90e5a80e9be448284919990844a68dfb93203bdabcd483e68e28928be6d90",
    8: "16b0c3a98aab1de8d9627ac0033db72ee1475e167811f89a6394590e6df39423",
}


@pytest.mark.parametrize("n", sorted(EN_DIGESTS))
def test_en_basis_and_grade2_classes_are_pinned(n):
    lines = [str(e) for e in en_basis(n)]
    for i in range(1, n + 1):
        for mask in range(1 << n):
            if not mask >> (i - 1) & 1:
                cls = reduce_grade2(n, i, mask)
                lines.append(f"z{i}^2 g{mask}: " + " + ".join(sorted(map(str, cls))))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == EN_DIGESTS[n]


def _grade2_echelon(n, q):
    """The monomials z_i^2 g_mask with |mask| = q (i first, then masks
    ascending), and f2_rref of the relations r_A, |A| = q + 1, packed as
    bitsets over them."""
    masks = [m for m in range(1 << n) if m.bit_count() == q]
    monos = [(i, m) for i in range(1, n + 1) for m in masks if not m >> (i - 1) & 1]
    index = {mono: k for k, mono in enumerate(monos)}
    relations = []
    for full in range(1 << n):
        if full.bit_count() == q + 1:
            row = 0
            for i in range(1, n + 1):
                if full >> (i - 1) & 1:
                    row |= 1 << index[(i, full ^ 1 << (i - 1))]
            relations.append(row)
    return monos, f2_rref(relations)


@pytest.mark.parametrize("n", range(11))
def test_grade2_read_off_matches_elimination(n):
    reps = []
    for q in range(n + 1):
        monos, pivots = _grade2_echelon(n, q)
        reps += [EnBasisElement(2, i, m) for k, (i, m) in enumerate(monos) if k not in pivots]
        for k, (i, mask) in enumerate(monos):
            reduced = f2_reduce(1 << k, pivots)
            expected = set()
            while reduced:
                low = reduced & -reduced
                expected.add(EnBasisElement(2, *monos[low.bit_length() - 1]))
                reduced ^= low
            assert reduce_grade2(n, i, mask) == expected, (i, mask)
    assert [e for e in en_basis(n) if e.grade == 2] == reps
    # symbols inside their subset or outside rank n are refused
    for i, mask in ((1, 0b1), (0, 0), (n + 1, 0), (1, 1 << n)):
        with pytest.raises(ValueError):
            reduce_grade2(n, i, mask)


@pytest.mark.parametrize("n", range(11))
def test_en_dims_counts_the_basis(n):
    tally = {}
    for e in en_basis(n):
        tally[e.bidegree] = tally.get(e.bidegree, 0) + 1
    assert en_dims(n) == tally


def test_results_do_not_depend_on_an_earlier_caller():
    # a caller that edits the tables it was handed must not change what
    # later calls compute
    spectral_tables(4).e3[(0, 0)] = 99
    e3_dims(4)[(1, 0)] = 99
    assert poincare_f2_spectral(4) == poincare_f2_closed(4)
    comparison = en_vs_e3(4)
    assert comparison.ok
    assert comparison.rows[0] == (0, 0, 1, 1)


def test_en_element_validation():
    with pytest.raises(ValueError):
        EnBasisElement(1, 1, 0b001)  # index may not sit inside its subset
    with pytest.raises(ValueError):
        EnBasisElement(0, 1, 0)
    with pytest.raises(ValueError):
        EnBasisElement(3, 1, 0)


def test_en_vs_e3_reports():
    for n in range(7):
        comparison = en_vs_e3(n)
        assert comparison.ok
        for p, q, algebra_dim, page_dim in comparison.rows:
            assert algebra_dim == page_dim
            assert 0 <= p <= 2 and 0 <= q <= n
