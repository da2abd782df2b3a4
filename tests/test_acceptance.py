"""Acceptance suite: one test per headline guarantee.

Each test prints a single [PASS]/[FAIL] line so a test run doubles as a
checklist.  All comparisons are exact; the only tolerances anywhere are
the wall-clock ceilings on the two series computations.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from hwgroups import cohomology_f2, cohomology_q, crystal, hw_group, quotient_w
from hwgroups.cohomology_f2 import (
    P_MAX,
    e3_dims,
    en_basis,
    en_multiply,
    en_vs_e3,
    lemma_f_parts,
    poincare_f2_closed,
    poincare_f2_spectral,
    spectral_tables,
)
from hwgroups.cohomology_q import (
    Character,
    congruent_mod2,
    h1,
    poincare_q_closed,
    poincare_q_spectral,
)
from hwgroups.exact_algebra import IntPolynomial
from algebra_reference import h1_oracle
from spectral_reference import d2, d2_block, e2_basis, f2_rref

TIME_LIMIT_SECONDS = 30.0


def _report(number: int, label: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {number}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_01_poincare_f2() -> None:
    start = time.perf_counter()
    ok = all(
        poincare_f2_spectral(n) == poincare_f2_closed(n) for n in range(11)
    )
    elapsed = time.perf_counter() - start
    ok = ok and poincare_f2_spectral(2) == IntPolynomial((1, 2, 2, 1))
    ok = ok and elapsed < TIME_LIMIT_SECONDS
    _report(1, "mod-2 series: spectral equals closed form for n <= 10", ok)


def test_criterion_02_poincare_q() -> None:
    start = time.perf_counter()
    ok = all(
        poincare_q_spectral(n) == poincare_q_closed(n)
        for n in range(15)
    )
    elapsed = time.perf_counter() - start
    ok = ok and poincare_q_spectral(2) == IntPolynomial((1, 0, 0, 1))
    ok = ok and elapsed < TIME_LIMIT_SECONDS
    _report(2, "rational series: subset sum equals closed form for n <= 14", ok)


def test_criterion_03_n4_block() -> None:
    tables = spectral_tables(4)
    ok = (
        tables.z2[(2, 2)] == 12
        and tables.b2[(2, 2)] == 4
        and tables.e3[(2, 2)] == 8
    )
    _report(3, "n=4 block (2,2) has cycles 12, boundaries 4, survivors 8", ok)


def test_criterion_04_column_parts_and_differential() -> None:
    ok = True
    for n in range(1, 11):
        dims = e3_dims(n)
        columns = []
        for p in range(3):
            coeffs = [0] * (p + n + 2)
            for q in range(n + 1):
                coeffs[p + q] = dims.get((p, q), 0)
            columns.append(IntPolynomial(tuple(coeffs)))
        ok = ok and tuple(columns) == lemma_f_parts(n)
    for n in range(1, 9):
        for p in range(P_MAX - 1):
            for q in range(n + 1):
                for mono in e2_basis(n, p, q):
                    image = frozenset()
                    for term in d2(mono):
                        image = image ^ d2(term)
                    ok = ok and not image
        for q in range(1, n + 1):
            block = d2_block(n, 0, q)
            ok = ok and len(f2_rref(block.rows)) == len(block.domain)
    _report(4, "column sums match f_0, f_1, f_2; d2 squares to zero and "
               "is injective on column 0", ok)


def test_criterion_05_ring_presentation() -> None:
    ok = all(en_vs_e3(n).ok for n in range(9))
    basis = en_basis(2)
    ok = ok and len(basis) == 6
    by_str = {str(e): e for e in basis}
    a, b = by_str["z1"], by_str["z2"]
    cap_a, cap_b = by_str["z1*g2"], by_str["z2*g1"]
    w = by_str["[z1^2*g2]"]
    positive = [e for e in basis if e.grade > 0]
    for u in positive:
        for v in positive:
            product = en_multiply(2, u, v)
            if {u, v} in ({a, cap_a}, {b, cap_b}):
                ok = ok and product == frozenset({w})
            else:
                ok = ok and product == frozenset()
    _report(5, "bigraded ring matches the third page; n=2 products are "
               "aA = bB = w and otherwise zero", ok)


def test_criterion_06_h1_oracle() -> None:
    ok = True
    for n in range(1, 7):
        for signs in itertools.product((1, -1), repeat=n):
            eps = Character(signs)
            expected = 0 if eps.is_trivial() else eps.weight - 1
            ok = ok and h1(eps) == expected
            ok = ok and h1_oracle(n, eps) == expected
    _report(6, "cocycle linear algebra reproduces h1 = |eps| - 1 for n <= 6", ok)


def test_criterion_07_abelianization() -> None:
    ok = all(
        hw_group.abelianization_invariants(n) == (4,) * n for n in range(2, 9)
    )
    _report(7, "relator rows give invariant factors (4, ..., 4) for n <= 8", ok)


def test_criterion_08_structural_probes() -> None:
    ok = hw_group.torsion_probe(2, 4, 12) == []
    ok = ok and hw_group.center_probe(2, 4) == []
    ok = ok and hw_group.center_probe(3, 4) == []
    for n in range(2, 7):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                xi = hw_group.generator(n, i)
                xj = hw_group.generator(n, j)
                word = [hw_group.inverse(xi), xj, xj, xi, xj, xj]
                g = hw_group.identity(n)
                for factor in word:
                    g = hw_group.multiply(g, factor)
                ok = ok and g == hw_group.identity(n)
    rng = random.Random(20240817)
    for n in (2, 3):
        gens = [hw_group.generator(n, i) for i in range(1, n + 1)]
        gens += [hw_group.inverse(g) for g in gens]
        def sample() -> hw_group.GroupElement:
            g = hw_group.identity(n)
            for _ in range(rng.randrange(7)):
                g = hw_group.multiply(g, rng.choice(gens))
            return g
        for _ in range(500):
            a, b, c = sample(), sample(), sample()
            left = hw_group.multiply(hw_group.multiply(a, b), c)
            right = hw_group.multiply(a, hw_group.multiply(b, c))
            ok = ok and left == right
    _report(8, "no torsion or central elements in small balls; relators "
               "vanish; associativity on 1000 random triples", ok)


def test_criterion_09_crystal_model() -> None:
    report = crystal.verify_hom_g2_gamma3()
    ok = report.ok
    a, b = crystal.gamma3_generators()
    a2, b2 = a.compose(a), b.compose(b)
    e1 = (Fraction(1), Fraction(0), Fraction(0))
    e2 = (Fraction(0), Fraction(1), Fraction(0))
    ok = ok and a2.signs == (1, 1, 1) and a2.translation == e1
    ok = ok and b2.signs == (1, 1, 1) and b2.translation == e2
    ok = ok and crystal.injectivity_probe(5) == []
    ok = ok and crystal.fixed_point_probe(2, 4) == []
    ok = ok and crystal.holonomy_order(3) == 4
    ok = ok and crystal.holonomy_order(5) == 16
    _report(9, "matrix model: relators vanish, squares translate, the map "
               "is injective and fixed-point free on small balls, holonomy "
               "orders 4 and 16", ok)


def test_criterion_10_rank_formulas() -> None:
    ok = (
        quotient_w.commutator_rank(2) == 1
        and quotient_w.commutator_rank(3) == 5
        and quotient_w.kernel_rank_h(3) == 3
    )
    for n in range(2, 13):
        euler = quotient_w.euler_wn(n)
        ok = ok and quotient_w.commutator_rank(n) == 1 - euler * 2**n
        details = quotient_w.kernel_rank_details(n)
        ok = ok and details.rank == 1 - euler * details.index
        ok = ok and details.index == 2**details.s
    _report(10, "free subgroup ranks match the multiplicative Euler "
                "characteristic for n <= 12", ok)


def test_criterion_11_global_identities() -> None:
    ok = True
    for n in range(2, 21):
        rational = poincare_q_closed(n)
        ok = ok and rational.coefficient(1) == 0
        modular = poincare_f2_closed(n)
        ok = ok and modular.degree == n + 1
        ok = ok and modular.coefficient(n + 1) == n - 1
    for n in range(1, 21):
        ok = ok and poincare_q_closed(n)(-1) == 0
    for n in range(2, 13, 2):
        ok = ok and congruent_mod2(poincare_q_closed(n), poincare_f2_closed(n))
    _report(11, "first Betti number zero, Euler characteristic zero, "
                "top degree n+1 with leading coefficient n-1, mod-2 "
                "congruence for even n", ok)
