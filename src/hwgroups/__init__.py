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


class _Value(tuple):
    """Base of the package's immutable values, which load no
    ``dataclasses``.  A value is a tuple of its fields, so it is built
    and hashed in C: hash(v) == hash(fields).  A subclass names its
    fields in ``_fields``, declares ``__slots__ = ()`` so that it has no
    ``__dict__``, and returns ``tuple.__new__(cls, fields)`` from a
    ``__new__`` that checks them; each field is read through a property
    over ``operator.itemgetter``.

    It is still a value of its own, as a frozen dataclass is: it equals
    only a value of its class, never the plain tuple, from either side;
    its repr names the fields, and pickling goes through the checked
    constructor.  It has no order, and ``+`` and ``k * v`` raise
    TypeError rather than act on the tuple, unless the subclass
    defines them."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(operator.itemgetter(i)))

    # tuple's == and != would see the fields; Python tries a subclass's
    # reflected method first, so fields == v also comes here.
    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    def _unordered(self, other):
        raise TypeError(f"{type(self).__qualname__} has no order")

    def _not_a_sequence(self, other):
        raise TypeError(f"{type(self).__qualname__} is not a sequence to "
                        "concatenate or repeat")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered
    __add__ = __radd__ = __mul__ = __rmul__ = _not_a_sequence
    del _unordered, _not_a_sequence

    def __repr__(self):
        pairs = zip(self._fields, self)
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"

    def __reduce__(self):
        return type(self), tuple(self)


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
