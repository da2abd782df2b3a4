"""The paper checks raise VerificationError even under ``python -O``.

Each case runs in a fresh ``python -O`` process, tampers one input of a
check, and expects the check to fire.  pytest rewrites asserts in test
files, so an in-process test could not show that ``-O`` leaves the
checks in place.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import hwgroups

_PRELUDE = """
import sys
from fractions import Fraction
from hwgroups import cli, cohomology_f2, cohomology_q, crystal, hw_group, quotient_w
from hwgroups.exact_algebra import IntPolynomial, VerificationError
if sys.flags.optimize < 1:
    sys.exit("not running under -O")
"""

_CASES = {
    # a spurious row in every block, on a column no real row uses,
    # overcounts each rank by one; ker d_2 turns negative where d_2 is
    # injective
    "negative_e3": ("_d2 = cohomology_f2.d2_rows\n"
                    "cohomology_f2.d2_rows = lambda n: ((p, q, w, cols + [w])\n"
                    "    for p, q, w, cols in _d2(n))",
                    "cohomology_f2.spectral_tables(3)", "negative dimension"),
    # blocks with no nonzero rows have rank 0 and leave columns p >= 3 nonzero
    "e3_vanishing": ("_d2 = cohomology_f2.d2_rows\n"
                     "cohomology_f2.d2_rows = lambda n: ((p, q, w, [])\n"
                     "    for p, q, w, _ in _d2(n))",
                     "cohomology_f2.spectral_tables(3)", "fails to vanish"),
    # integer scaling dropped: c * P returns P, so 2 * x^n turns odd
    "q_integrality": ("IntPolynomial.__rmul__ = lambda self, c: self",
                      "cohomology_q.poincare_q_closed(3)", "non-integral"),
    # x_i^-1 x_j^2 x_i^2 x_j^2 leaves x_i in its exponent-sum row
    "abelianization_rows": ("hw_group._relator_letters = lambda i, j: "
                            "((i, -1), (j, 2), (i, 2), (j, 2))",
                            "hw_group.abelianization_invariants(3)",
                            "not one nonzero entry"),
    # rows (j + 1) e_j are monomial, but 2 does not divide 3
    "abelianization_chain": ("hw_group._relator_letters = lambda i, j: ((j, j + 1),)",
                             "hw_group.abelianization_invariants(3)",
                             "does not divide"),
    "kernel_rank_euler": ("quotient_w.euler_wn = lambda n: Fraction(0)",
                          "quotient_w.kernel_rank_details(4)", "differs from"),
    # A translates by 1/4 along e_1, so the letter product of x1 has no
    # doubled-integer form
    "g2_half_integers": ("_a, _b = crystal.gamma3_generators()\n"
                         "_quarter = crystal.AffineIsometry(_a.signs, (Fraction(1, 4),\n"
                         "    Fraction(1, 2), Fraction(0)))\n"
                         "crystal.gamma3_generators = lambda: (_quarter, _b)",
                         "crystal.injectivity_probe(1)", "translates off (1/2)Z"),
    # the integer test claims a fixed point for every element, which the
    # rational solve refutes
    "g2_fixed_point": ("crystal._fixes_a_point = lambda signs, doubled: True",
                       "crystal.fixed_point_probe(2, 2)", "fixed_points none"),
}


def _run_optimized(body: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(hwgroups.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-O", "-c", _PRELUDE + body],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("case", sorted(_CASES))
def test_tampered_check_raises_under_O(case):
    tamper, call, message = _CASES[case]
    proc = _run_optimized(
        f"{tamper}\ntry:\n    {call}\nexcept VerificationError as exc:\n"
        f"    print('raised:', exc)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised:"), proc.stdout
    assert message in proc.stdout


def test_cli_exits_1_on_verification_error_under_O():
    proc = _run_optimized(
        f"{_CASES['kernel_rank_euler'][0]}\n"
        "sys.exit(cli.main(['ranks', '--n', '4']))\n")
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("verification failed: ")
