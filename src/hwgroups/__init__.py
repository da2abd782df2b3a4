"""Exact arithmetic for the combinatorial Hantzsche-Wendt groups.

The family G_n is presented on generators x_1 .. x_n with relators
x_i^-1 x_j^2 x_i x_j^2 for i != j.  Everything in this package works
over exact types: normal forms with integer lattice vectors, monomial
d_2 blocks, ranked by counting distinct columns, a bigraded algebra
read off its disjoint relations, rational matrices, and integer
polynomials.
Floating point is never used.

Headline entry points are re-exported here; the modules hold the rest:

- ``hw_group``: normal forms, multiplication, parsing, Cayley balls.
- ``quotient_w``: the point-group quotient and free-subgroup ranks.
- ``cohomology_f2``: mod-2 cohomology via the spectral sequence, its
  closed form, and the bigraded ring presentation.
- ``cohomology_q``: rational cohomology by character subset sums.
- ``group_ring``: F_2[G_n] convolution and unique-product tallies.
- ``crystal``: signed-diagonal affine isometries and geometric probes.
- ``exact_algebra``: polynomials, Smith normal form, rational solve.
- ``cli``: the ``hwgroups`` command-line tool.
"""

from __future__ import annotations

from .cohomology_f2 import (
    e3_dims,
    en_basis,
    en_multiply,
    en_vs_e3,
    poincare_f2_closed,
    poincare_f2_spectral,
)
from .cohomology_q import (
    h1,
    h1_oracle,
    mod2_compare,
    poincare_q_closed,
    poincare_q_spectral,
    wedge_character,
)
from .crystal import (
    AffineIsometry,
    fixed_points,
    gamma3_generators,
    rn_action,
    rn_isometry,
    verify_hom_g2_gamma3,
)
from .exact_algebra import IntMatrix, IntPolynomial, smith_normal_form
from .group_ring import (
    RingElement,
    parse_set_file,
    product_tally,
    ring_mul,
    unique_product_witnesses,
)
from .hw_group import (
    GroupElement,
    abelianization_invariants,
    abelianize,
    ball,
    format_element,
    generator,
    identity,
    inverse,
    multiply,
    parse_element,
    power,
)
from .quotient_w import commutator_rank, euler_wn, kernel_rank_h, psi, reduce_w

__version__ = "0.1.0"

# The package runs no F_2 elimination; the name is kept, with its one
# value, for callers that record which backend produced a result.
F2_BACKEND = "pure"

__all__ = [
    "F2_BACKEND",
    "__version__",
    "AffineIsometry",
    "GroupElement",
    "IntMatrix",
    "IntPolynomial",
    "RingElement",
    "abelianization_invariants",
    "abelianize",
    "ball",
    "commutator_rank",
    "e3_dims",
    "en_basis",
    "en_multiply",
    "en_vs_e3",
    "euler_wn",
    "fixed_points",
    "format_element",
    "gamma3_generators",
    "generator",
    "h1",
    "h1_oracle",
    "identity",
    "inverse",
    "kernel_rank_h",
    "mod2_compare",
    "multiply",
    "parse_element",
    "parse_set_file",
    "poincare_f2_closed",
    "poincare_f2_spectral",
    "poincare_q_closed",
    "poincare_q_spectral",
    "power",
    "product_tally",
    "psi",
    "reduce_w",
    "ring_mul",
    "rn_action",
    "rn_isometry",
    "smith_normal_form",
    "unique_product_witnesses",
    "verify_hom_g2_gamma3",
    "wedge_character",
]
