"""Finite-support elements of the group ring over F_2 and the
unique-product tally for finite subsets.

Supports are sets of canonical normal forms.  The tally and the
convolution both count the products of X x Y: ``hw_group.products``
multiplies once per distinct pair of words and yields raw (w, t) pairs,
which are counted as plain tuples and wrapped as a ``GroupElement``
once per distinct product, by mapping ``hw_group._element`` over them.
The tally keeps every count, and the convolution the products counted
an odd number of times (coefficients live in F_2).  The convolution's
support comes from two checked elements of one rank, so its result is
built by ``_ring_element``, a partial of ``tuple.__new__`` as
``_element`` is, without the per-member rank check of ``RingElement``.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import partial
from typing import Dict, Iterable, Iterator, List, Tuple

from . import ElementSyntaxError, _Value
from .hw_group import (GroupElement, _element, element_sort_key, identity, parse_element,
                       products)

__all__ = [
    "RingElement",
    "ring_one",
    "ring_mul",
    "product_tally",
    "unique_products",
    "unique_product_witnesses",
    "parse_set_file",
    "count_element_lines",
]


class RingElement(_Value):
    """Element of F_2[G_n]: the set of group elements with coefficient 1."""

    __slots__ = ()
    _fields = ("n", "support")

    def __new__(cls, n: int, support: Iterable[GroupElement]) -> "RingElement":
        support = frozenset(support)
        for g in support:
            if g.n != n:
                raise ValueError("support member of wrong rank")
        return tuple.__new__(cls, (n, support))

    def __bool__(self) -> bool:
        return bool(self.support)

    def __mul__(self, other: "RingElement") -> "RingElement":
        return ring_mul(self, other)


# RingElement(n, support) without the checks, from the pair (n, support)
# of a rank and a frozenset of elements of that rank.
_ring_element = partial(tuple.__new__, RingElement)


def ring_one(n: int) -> RingElement:
    return RingElement(n, frozenset({identity(n)}))


def ring_mul(a: RingElement, b: RingElement) -> RingElement:
    """Convolution over F_2: the products represented an odd number of times."""
    if a.n != b.n:
        raise ValueError(f"rank mismatch: {a.n} vs {b.n}")
    counts = Counter(products(a.support, b.support))
    return _ring_element((a.n, frozenset(
        map(_element, [pair for pair, count in counts.items() if count & 1]))))


def product_tally(
    x_set: Iterable[GroupElement], y_set: Iterable[GroupElement]
) -> Dict[GroupElement, int]:
    """Exact representation counts of products over X x Y, in the order
    the products first appear."""
    xs, ys = list(x_set), list(y_set)
    if not xs or not ys:
        raise ValueError("tally needs nonempty sets")
    counts = Counter(products(xs, ys))
    return dict(zip(map(_element, counts), counts.values()))


def unique_product_witnesses(
    x_set: Iterable[GroupElement], y_set: Iterable[GroupElement]
) -> List[GroupElement]:
    """Products with exactly one representation, in canonical order.

    An empty result certifies (X, Y) as a nonunique-product pair.
    """
    return unique_products(product_tally(x_set, y_set))


def unique_products(tally: Dict[GroupElement, int]) -> List[GroupElement]:
    """The products a tally counts exactly once, in canonical order."""
    return sorted((g for g, count in tally.items() if count == 1), key=element_sort_key)


def parse_set_file(text: str, n: int) -> List[GroupElement]:
    """Parse a set file: one element per line in the element grammar.

    Blank lines and lines starting with # are ignored; duplicate normal
    forms collapse.  Returns the set in canonical order.
    """
    seen: set = set()
    for lineno, line in _element_lines(text):
        try:
            seen.add(parse_element(line, n))
        except ElementSyntaxError as exc:
            raise ElementSyntaxError(f"line {lineno}: {exc.message}", exc.position) from None
    return sorted(seen, key=element_sort_key)


# A line of str.splitlines and its break, matched without backtracking.
_BREAK = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_LINE = re.compile(f"[^{_BREAK}]*(?:\r\n|[{_BREAK}]|\\Z)")


def _element_lines(text: str) -> Iterator[Tuple[int, str]]:
    """(number, stripped text) of each line neither blank nor a # comment."""
    for lineno, match in enumerate(_LINE.finditer(text), start=1):
        line = match.group().strip()
        if line and not line.startswith("#"):
            yield lineno, line


def count_element_lines(text: str) -> int:
    """The number of lines ``parse_set_file`` parses, in one linear scan."""
    return sum(1 for _ in _element_lines(text))
