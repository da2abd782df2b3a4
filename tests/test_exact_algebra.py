from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hwgroups
from hwgroups.exact_algebra import IntPolynomial, binomial_power
from algebra_reference import pivot_smith_form, rational_rank, solve_rational
from spectral_reference import f2_reduce, f2_rref


def test_polynomial_canonical_form():
    assert IntPolynomial((1, 0, 0)).coeffs == (1,)
    assert IntPolynomial(()).degree == -1
    assert IntPolynomial((0,)).degree == -1
    assert IntPolynomial((0, 0, 3)).degree == 2
    assert IntPolynomial.x().coeffs == (0, 1)


def test_trailing_zeros_are_stripped_in_linear_time():
    # one slice per trailing zero would copy 5 * 10^9 coefficients here
    start = time.perf_counter()
    p = IntPolynomial((1,) + (0,) * 10**5)
    assert time.perf_counter() - start < 0.5
    assert p == IntPolynomial((1,)) and p.coeffs == (1,)
    assert IntPolynomial([0] * 10**5).coeffs == ()


def test_polynomial_arithmetic():
    x = IntPolynomial.x()
    one = IntPolynomial((1,))
    p = (one + x) ** 3
    assert p.coeffs == (1, 3, 3, 1)
    assert (p - p).degree == -1
    assert (x * x - x * x).coeffs == ()
    q = p * (one - x)
    # (1+x)^3 (1-x) = 1 + 2x - 2x^3 - x^4, checked by hand
    assert q.coeffs == (1, 2, 0, -2, -1)
    assert p(2) == 27
    assert q(-1) == 0
    assert 3 * x == x + x + x


def test_polynomial_eval_against_direct_sum():
    rng = random.Random(11)
    for _ in range(50):
        coeffs = tuple(rng.randrange(-9, 10) for _ in range(rng.randrange(8)))
        p = IntPolynomial(coeffs)
        for v in (-3, -1, 0, 1, 2, 7):
            assert p(v) == sum(c * v**k for k, c in enumerate(coeffs))


def test_polynomial_coefficient():
    p = IntPolynomial((2, 5))
    assert p.coefficient(0) == 2
    assert p.coefficient(1) == 5
    assert p.coefficient(9) == 0


def test_polynomial_str():
    x = IntPolynomial.x()
    one = IntPolynomial((1,))
    assert str(IntPolynomial(())) == "0"
    assert str(one) == "1"
    assert str((one + x) ** 3) == "1 + 3*x + 3*x^2 + x^3"
    assert str(x * x - one) == "-1 + x^2"


def test_poly_helpers_agree_with_class():
    a, b = IntPolynomial((1, 2, 3)), IntPolynomial((0, -1))
    assert (a + b).coeffs == (1, 1, 3)
    assert (a * b).coeffs == (0, -1, -2, -3)
    assert a(5) == 86
    for v in (-2, 0, 3):
        assert (a * b)(v) == a(v) * b(v)


@pytest.mark.parametrize("coeffs", [(), (1,), (-1,), (0, 1), (1, 1), (1, -1),
                                    (3,), (2, 0, -3), (-1, 4, 0, 5)])
def test_power_equals_the_k_fold_product(coeffs):
    # __pow__ squares repeatedly; the oracle multiplies k times
    p = IntPolynomial(coeffs)
    product = IntPolynomial((1,))
    for k in range(41):
        assert p ** k == product
        product = product * p
    with pytest.raises(ValueError, match="negative"):
        p ** -1


def test_binomial_power_equals_repeated_products():
    x = IntPolynomial.x()
    for sign in (1, -1):
        product = IntPolynomial((1,))
        for m in range(61):
            assert binomial_power(m, sign) == product
            product = product * (1 + sign * x)
    with pytest.raises(ValueError):
        binomial_power(-1)
    with pytest.raises(ValueError):
        binomial_power(3, 2)


@settings(derandomize=True, database=None)
@given(m=st.integers(0, 400), sign=st.sampled_from((1, -1)),
       v=st.integers(-5, 5))
def test_binomial_power_evaluates_to_the_integer_power(m, sign, v):
    row = binomial_power(m, sign)
    assert row.degree == m
    assert row(v) == (1 + sign * v) ** m


def _reference_rank(rows, n_cols):
    """Textbook row reduction over GF(2) on lists of bits."""
    grid = [[(r >> j) & 1 for j in range(n_cols)] for r in rows]
    rank = 0
    for col in range(n_cols):
        pivot = next((i for i in range(rank, len(grid)) if grid[i][col]), None)
        if pivot is None:
            continue
        grid[rank], grid[pivot] = grid[pivot], grid[rank]
        for i in range(len(grid)):
            if i != rank and grid[i][col]:
                grid[i] = [(a + b) % 2 for a, b in zip(grid[i], grid[rank])]
        rank += 1
    return rank


def test_f2_rank_small_cases():
    # the rank is the number of pivots of the echelon basis
    assert len(f2_rref([1 << j for j in range(5)])) == 5
    assert len(f2_rref([0, 0, 0])) == 0
    # third row is the sum of the first two
    assert len(f2_rref([0b011, 0b110, 0b101])) == 2


def test_f2_rank_against_reference():
    rng = random.Random(23)
    for _ in range(60):
        n_rows = rng.randrange(1, 12)
        n_cols = rng.randrange(1, 12)
        rows = tuple(rng.getrandbits(n_cols) for _ in range(n_rows))
        assert len(f2_rref(rows)) == _reference_rank(rows, n_cols)


def test_f2_module_level_wrappers():
    rows = [0b101, 0b110, 0b011]
    pivots = f2_rref(rows)
    assert len(pivots) == 2
    assert all(f2_reduce(row, pivots) == 0 for row in rows)


def test_f2_backend_knob_is_gone():
    env = dict(os.environ, HWGROUPS_F2_BACKEND="bogus")
    src = os.path.dirname(os.path.dirname(hwgroups.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import hwgroups; print(hwgroups.F2_BACKEND)"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "pure"


def test_f2_rref_reduction():
    pivots = f2_rref([0b011, 0b110, 0b101])
    # row space has dimension 2; reduction is linear and idempotent
    assert len(pivots) == 2
    for vec in range(8):
        r = f2_reduce(vec, pivots)
        assert f2_reduce(r, pivots) == r
    for row in (0b011, 0b110, 0b101):
        assert f2_reduce(row, pivots) == 0
    a, b = 0b001, 0b010
    assert f2_reduce(a ^ b, pivots) == f2_reduce(
        f2_reduce(a, pivots) ^ f2_reduce(b, pivots), pivots)


def _reference_reduced_basis(rows, n_cols):
    """Gauss-Jordan over GF(2), columns from the highest down: lead -> row,
    every pivot row zero in all other pivot columns."""
    grid = list(rows)
    basis = {}
    for col in reversed(range(n_cols)):
        bit = 1 << col
        pivot = next((r for r in grid if r & bit), None)
        if pivot is None:
            continue
        grid.remove(pivot)
        grid = [r ^ pivot if r & bit else r for r in grid]
        basis = {lead: r ^ pivot if r & bit else r for lead, r in basis.items()}
        basis[col] = pivot
    return basis


def test_f2_echelon_basis_against_fully_reduced_reference():
    rng = random.Random(41)
    for trial in range(1200):
        n_cols = rng.randrange(1, 41)
        if trial % 2:
            rows = [rng.getrandbits(n_cols) for _ in range(rng.randrange(0, 16))]
        else:
            # rank-deficient: sums of a few random generators
            gens = [rng.getrandbits(n_cols) for _ in range(rng.randrange(1, 6))]
            rows = [0] * rng.randrange(0, 16)
            for k in range(len(rows)):
                for g in gens:
                    if rng.getrandbits(1):
                        rows[k] ^= g
        reference = _reference_reduced_basis(rows, n_cols)
        for lead, row in reference.items():
            assert row.bit_length() - 1 == lead
            assert all(not (row >> other) & 1 for other in reference if other != lead)
        echelon = f2_rref(rows)
        assert set(echelon) == set(reference)
        assert len(echelon) == _reference_rank(rows, n_cols)
        for row in rows:
            assert f2_reduce(row, echelon) == 0
        for _ in range(4):
            vec = rng.getrandbits(n_cols)
            assert f2_reduce(vec, echelon) == f2_reduce(vec, reference)


def test_smith_normal_form_hand_cases():
    # gcd of entries is 2 and the determinant is 4, so the invariant
    # factors are (2, 2)
    assert pivot_smith_form(((2, 4), (0, 2))) == (2, 2)
    assert pivot_smith_form(((1, 0), (0, 1))) == (1, 1)
    assert pivot_smith_form(((0, 0), (0, 0))) == (0, 0)
    # diag(6, 10, 15): d1 = gcd = 1, d1*d2 = gcd of 2x2 minors = 30,
    # d1*d2*d3 = det = 900
    assert pivot_smith_form(((6, 0, 0), (0, 10, 0), (0, 0, 15))) \
        == (1, 30, 30)
    assert pivot_smith_form(((4, 0), (0, 4), (0, 0))) == (4, 4)


def test_smith_normal_form_divisibility_and_invariance():
    rng = random.Random(31)

    def unimodular_mix(rows):
        rows = [list(r) for r in rows]
        for _ in range(12):
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
            if i != j:
                c = rng.randrange(-3, 4)
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        cols = list(map(list, zip(*rows)))
        for _ in range(12):
            i, j = rng.randrange(len(cols)), rng.randrange(len(cols))
            if i != j:
                c = rng.randrange(-3, 4)
                cols[i] = [a + c * b for a, b in zip(cols[i], cols[j])]
        return tuple(map(tuple, zip(*cols)))

    for _ in range(40):
        n_rows = rng.randrange(1, 5)
        n_cols = rng.randrange(1, 5)
        rows = tuple(tuple(rng.randrange(-6, 7) for _ in range(n_cols))
                     for _ in range(n_rows))
        diag = pivot_smith_form(rows)
        for a, b in zip(diag, diag[1:]):
            if a and b:
                assert b % a == 0
            if a == 0:
                assert b == 0
        mixed = pivot_smith_form(unimodular_mix(rows))
        assert mixed == diag


def test_rational_rank_and_solve():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert rational_rank(rows) == 1
    assert rational_rank([[Fraction(0)]]) == 0
    assert rational_rank([[1, 0], [0, 1]]) == 2

    a = [[Fraction(2), Fraction(0)], [Fraction(1), Fraction(1)]]
    x = solve_rational(a, [Fraction(3), Fraction(4)])
    assert x == [Fraction(3, 2), Fraction(5, 2)]

    inconsistent = solve_rational(
        [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]],
        [Fraction(0), Fraction(1)])
    assert inconsistent is None


def test_solve_rational_random_consistent_systems():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randrange(1, 5)
        m = rng.randrange(1, 5)
        a = [[Fraction(rng.randrange(-4, 5)) for _ in range(n)] for _ in range(m)]
        x0 = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(n)]
        b = [sum(r[j] * x0[j] for j in range(n)) for r in a]
        x = solve_rational(a, b)
        assert x is not None
        for r, rhs in zip(a, b):
            assert sum(c * v for c, v in zip(r, x)) == rhs


def test_solve_rational_is_none_exactly_when_rhs_raises_the_rank():
    rng = random.Random(43)
    for _ in range(300):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        r = rng.randrange(0, min(m, n))
        # A = B C with inner dimension r < min(m, n), so A is rank-deficient
        b_mat = [[rng.randrange(-3, 4) for _ in range(r)] for _ in range(m)]
        c_mat = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(r)]
        a = [[sum(b_mat[i][k] * c_mat[k][j] for k in range(r)) for j in range(n)]
             for i in range(m)]
        if rng.getrandbits(1):
            x0 = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(n)]
            rhs = [sum(row[j] * x0[j] for j in range(n)) for row in a]
        else:
            rhs = [Fraction(rng.randrange(-4, 5)) for _ in range(m)]
        assert rational_rank(a) < min(m, n)
        augmented = [row + [v] for row, v in zip(a, rhs)]
        x = solve_rational(a, rhs)
        assert (x is None) == (rational_rank(a) < rational_rank(augmented))
        if x is not None:
            for row, v in zip(a, rhs):
                assert sum(c * xv for c, xv in zip(row, x)) == v


def test_int_matrix_validation():
    with pytest.raises(ValueError, match="unequal lengths"):
        pivot_smith_form(((1, 2), (3,)))
    with pytest.raises(ValueError, match="unequal lengths"):
        pivot_smith_form([[1, 2], [3]])
    assert pivot_smith_form([[2, 4], [0, 2]]) == pivot_smith_form(((2, 4), (0, 2)))
