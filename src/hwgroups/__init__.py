"""Exact arithmetic for the combinatorial Hantzsche-Wendt groups.

The family G_n is presented on generators x_1 .. x_n with relators
x_i^-1 x_j^2 x_i x_j^2 for i != j.  Everything in this package works
over exact types: normal forms with integer lattice vectors, monomial
d_2 blocks, ranked by counting distinct columns, a bigraded algebra
read off its disjoint relations, signed-diagonal isometries with
rational translations, and integer polynomials.  Floating point is
never used.  The package's errors and limits are defined here, in the
one module every process loads.

Headline entry points are re-exported here; the modules hold the rest:

- ``hw_group``: normal forms, multiplication, parsing, Cayley balls.
- ``quotient_w``: the point-group quotient and free-subgroup ranks.
- ``cohomology_f2``: mod-2 cohomology via the spectral sequence, its
  closed form, and the bigraded ring presentation.
- ``cohomology_q``: rational cohomology by character subset sums.
- ``group_ring``: F_2[G_n] convolution and unique-product tallies.
- ``crystal``: signed-diagonal affine isometries and geometric probes.
- ``exact_algebra``: integer polynomials and binomial rows.
- ``cli``: the ``hwgroups`` command-line tool.
"""

from __future__ import annotations

import importlib
import operator
import sys

# Elements a ball may hold; ``cli`` also refuses any larger enumeration.
DEFAULT_BALL_BUDGET = 10**6


class VerificationError(AssertionError):
    """A mathematical identity the package checks at run time failed.

    Raised explicitly rather than by ``assert`` so the check still runs
    under ``python -O``.
    """


class ElementSyntaxError(ValueError):
    """Raised when element text cannot be parsed; carries the offset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class BallBudgetError(RuntimeError):
    """Raised when a ball enumeration would exceed its element budget."""


def _too_many_digits(name: str) -> ValueError:
    return ValueError(f"{name} has more than {sys.get_int_max_str_digits()} "
                      "digits, the limit of sys.get_int_max_str_digits()")


def decimal_text(value, name: str) -> str:
    """str(value), or a ValueError naming the value and the limit when it
    has more digits than ``str`` converts."""
    try:
        return str(value)
    except ValueError:
        raise _too_many_digits(name) from None


def check_digits(bits: int, name: str) -> None:
    """``decimal_text``'s ValueError, raised before a value of at least
    2^bits is computed when 2^bits > 10^limit (a limit of 0 is none)."""
    limit = sys.get_int_max_str_digits()
    if limit and bits >= (10**limit).bit_length():
        raise _too_many_digits(name)


class _Value:
    """Base of the package's immutable values, which load no
    ``dataclasses``: a subclass names its fields in ``__slots__`` and
    sets each once in ``__init__``.  Equality (same class only), hash,
    repr and pickling go by the tuple of fields, as a frozen dataclass's
    do.

    ``hw_group.GroupElement`` keeps the same contract but is not a
    ``_Value``: it is a tuple subclass, since a ball, a tally or a ring
    product builds and hashes up to about 10^4 of them per call, and a
    tuple is built and hashed without a Python frame."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # A C attrgetter, so that hashing a value runs no Python frame.
        get = operator.attrgetter(*cls.__slots__)
        cls._astuple = staticmethod(get if len(cls.__slots__) > 1 else lambda v: (get(v),))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        pairs = zip(self.__slots__, self._astuple(self))
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"

    def __reduce__(self):
        return type(self), self._astuple(self)


# Each exported name and the module that defines it.  A name is imported
# on first access (PEP 562), so a process loads only the modules it uses.
_EXPORTS = {
    name: module
    for module, names in (
        ("cohomology_f2", ("e3_dims", "en_basis", "en_multiply", "en_vs_e3",
                           "poincare_f2_closed", "poincare_f2_spectral")),
        ("cohomology_q", ("h1", "poincare_q_closed", "poincare_q_spectral")),
        ("crystal", ("AffineIsometry", "fixed_points", "gamma3_generators",
                     "rn_action", "rn_isometry", "verify_hom_g2_gamma3")),
        ("exact_algebra", ("IntPolynomial",)),
        ("group_ring", ("RingElement", "parse_set_file", "product_tally", "ring_mul",
                        "unique_product_witnesses")),
        ("hw_group", ("GroupElement", "abelianization_invariants", "abelianize", "ball",
                      "format_element", "generator", "identity", "inverse", "multiply",
                      "parse_element", "power")),
        ("quotient_w", ("commutator_rank", "euler_wn", "kernel_rank_h", "reduce_w")),
    )
    for name in names
}

__version__ = "0.1.0"

# The package runs no F_2 elimination; the name is kept, with its one
# value, for callers that record which backend produced a result.
F2_BACKEND = "pure"

__all__ = ["BallBudgetError", "DEFAULT_BALL_BUDGET", "ElementSyntaxError", "F2_BACKEND",
           "VerificationError", "__version__", "check_digits", "decimal_text",
           *sorted(_EXPORTS)]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        # An AttributeError lets ``from hwgroups import cli`` fall back to
        # importing the submodule.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
