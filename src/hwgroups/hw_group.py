"""Elements of G_n in canonical normal form and the group operations.

An element is written uniquely as lift(w) * tau(t): w a reduced word in
the quotient W_n, lifted letterwise, and tau(t) the lattice element
prod x_i^(2 t_i) on the RIGHT.  x_i fixes t_i and negates every other
coordinate, as the relators x_i^-1 x_j^2 x_i x_j^2 say; appending x_i
applies that sign rule and either extends the word or cancels its last
letter while emitting a lattice unit.  multiply and power are folds of
append_letter, the reference for everything else.  parse_element and
inverse each take one pass: a letter costs O(1), whatever n is, and the
result is built once, unchecked.  word_sign_action is the one sign
action of a word, and crystal reads its coordinate action off it and
inverse.

Pushing tau(s) through lift(v) twists s by sigma_v (word_sign_action), so
lift(u) tau(s) * lift(v) tau(t) = [lift(u) * lift(v)] tau(sigma_v(s) + t)
(the free-product normal form of W_n; Lyndon and Schupp, ch. IV).  The
word kernel ``_mul_words`` computes lift(u) * lift(v) = lift(w) tau(c)
on raw tuples, returning u + v and c = 0 at once when the pair does not
cancel (u[-1] != v[0]).  ``products`` of two sets calls it once per
distinct word pair (u, v).  It groups the distinct words of ys into sign
classes (equal sigma_v), twists each x's s once per class, adds c to
that twist only where c != 0, and so builds each pair with one vector
add; it yields raw (w, t) pairs, which ``group_ring`` counts as tuples
and wraps once per distinct product.
``_walk`` goes over the Cayley ball word by word by the exact word
metric, yielding each word with its box and radius, once ``_check_ball``
has counted the ball (``_ball_size``) within ``DEFAULT_BALL_BUDGET``: the
one ball bound, which ``ball``, the probes and the CLI share.  ``ball``
wraps the points near each box.  The probes build no point of a word
that cannot pass: for a fixed word, a probe's condition on t is affine
and splits by coordinate, so each word that passes its word test has
its lattice test solved (``_square_roots``, ``_central_roots``), and only
the solutions near its box are listed, each confirmed by the
per-element test.  A ``GroupElement`` is the pair (w, t) as a
``_Value``, built and hashed in C; the unchecked constructor
``_element`` maps over raw pairs with no Python frame per element.

Importing this module loads no other module of the package: its errors,
``DEFAULT_BALL_BUDGET``, ``decimal_text`` and ``_Value`` come from the
package root, and all but ``_Value`` are re-exported here.  Of the
standard library it imports only ``functools``, ``itertools``, ``math``,
``operator``, ``re``, ``sys`` and ``typing``, which ``cli`` has loaded
before any command runs (``re`` loads the first three); no
``dataclasses`` and no ``fractions``.
"""

from __future__ import annotations

import re
import sys
from functools import partial
from itertools import chain, product, repeat
from math import prod
from operator import add, index, mul
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from . import (DEFAULT_BALL_BUDGET, BallBudgetError, ElementSyntaxError,
               VerificationError, _Value, decimal_text)

__all__ = [
    "GroupElement",
    "identity",
    "generator",
    "word_sign_action",
    "append_letter",
    "multiply",
    "inverse",
    "power",
    "commutator",
    "products",
    "parse_element",
    "format_element",
    "project_w",
    "abelianize",
    "abelianization_invariants",
    "ball",
    "torsion_probe",
    "center_probe",
    "element_sort_key",
]


class GroupElement(_Value):
    """Normal form (w, t): reduced word part and lattice exponent vector.

    A ``_Value`` with the fields (w, t): w is the reduced word, a tuple
    of letters 1..n, and t the lattice exponent vector, a tuple of n
    ints.  Entries are read with ``operator.index``, so a float, a
    ``Fraction`` or a str raises TypeError rather than being truncated.
    It has no order; sort with ``element_sort_key``.
    """

    __slots__ = ()
    _fields = ("w", "t")

    def __new__(cls, w: Sequence[int], t: Sequence[int]) -> "GroupElement":
        w = tuple(map(index, w))
        t = tuple(map(index, t))
        n = len(t)
        prev = 0
        for letter in w:
            if not 1 <= letter <= n:
                raise ValueError(f"letter {letter} out of range for rank {n}")
            if letter == prev:
                raise ValueError("word part is not reduced")
            prev = letter
        return tuple.__new__(cls, (w, t))

    @property
    def n(self) -> int:
        return len(self.t)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return multiply(self, other)

    def __pow__(self, k: int) -> "GroupElement":
        return power(self, k)

    def __str__(self) -> str:
        return format_element(self)


def identity(n: int) -> GroupElement:
    if n < 0:
        raise ValueError("rank must be nonnegative")
    return GroupElement((), (0,) * n)


def generator(n: int, i: int) -> GroupElement:
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range for rank {n}")
    return GroupElement((i,), (0,) * n)


def word_sign_action(w: Sequence[int], t: Sequence[int]) -> Tuple[int, ...]:
    """Composite sign action of a word; coordinate j flips once per letter != j."""
    length = len(w)
    occ = [0] * len(t)
    for letter in w:
        occ[letter - 1] += 1
    return tuple(v if (length - occ[k]) % 2 == 0 else -v for k, v in enumerate(t))


def append_letter(g: GroupElement, i: int, exp: int = 1) -> GroupElement:
    """Canonical form of g * x_i^exp for exp in {+1, -1}.

    Pushing x_i through the lattice factor fixes t_i and negates every
    other coordinate.  If the word then ends in i the two letters merge
    into the lattice unit e_i; otherwise the word grows.  x_i^-1 =
    x_i * tau(-e_i), so the inverse case just subtracts e_i afterwards.
    """
    n = g.n
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range for rank {n}")
    if exp not in (1, -1):
        raise ValueError("exp must be +1 or -1")
    t = [-v for v in g.t]
    t[i - 1] = -t[i - 1]
    w = g.w
    if w and w[-1] == i:
        w = w[:-1]
        t[i - 1] += 1
    else:
        w = w + (i,)
    if exp == -1:
        t[i - 1] -= 1
    return GroupElement(w, tuple(t))


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """Product in G_n: fold b's letters into a, then add b's lattice part."""
    if a.n != b.n:
        raise ValueError(f"rank mismatch: {a.n} vs {b.n}")
    out = a
    for letter in b.w:
        out = append_letter(out, letter)
    t = tuple(u + v for u, v in zip(out.t, b.t))
    return GroupElement(out.w, t)


def inverse(a: GroupElement) -> GroupElement:
    """Inverse in one pass over the word, O(|w| + n).

    (lift(w) tau(t))^-1 = lift(w)^-1 tau(-sigma_w(t)), and lift(w)^-1 is
    x_i^-1 over the reversed word, which is reduced.  Each x_i^-1 =
    x_i tau(-e_i) leaves -e_i, twisted by the letters after it, the j
    earlier letters of w: the occurrence of i at position j of w (from 0)
    adds -(-1)^(j - #earlier i's) to c_i, and the lattice part is
    c - sigma_w(t).  This is the fold of append_letter(., i, -1) over
    the reversed word, which the tests keep as its oracle.
    """
    w, t = a.w, a.t
    occ = [0] * len(t)
    c = [0] * len(t)
    for j, letter in enumerate(w):
        k = letter - 1
        c[k] += 1 if (j - occ[k]) % 2 else -1
        occ[k] += 1
    m = len(w)
    return _element((w[::-1], tuple(h - v if (m - o) % 2 == 0 else h + v
                                    for h, o, v in zip(c, occ, t))))


def power(g: GroupElement, k: int) -> GroupElement:
    if k < 0:
        return power(inverse(g), -k)
    out = identity(g.n)
    for _ in range(k):
        out = multiply(out, g)
    return out


def commutator(a: GroupElement, b: GroupElement) -> GroupElement:
    return multiply(multiply(inverse(a), inverse(b)), multiply(a, b))


# GroupElement(w, t) without the checks, from the pair (w, t) of a
# reduced word of letters in 1..len(t) and a tuple of ints.
_element = partial(tuple.__new__, GroupElement)


def _mul_words(u: Tuple[int, ...], v: Tuple[int, ...],
               n: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """lift(u) * lift(v) = lift(w) tau(c) for reduced words u, v of rank n,
    as (w, c): the append_letter fold of v's letters into lift(u), on raw
    tuples.

    The first k letters of v cancel the last k of u, letter by letter;
    then the word only grows, since v is reduced.  When k = 0 (u or v
    empty, or u[-1] != v[0]) the pair is u + v and the zero vector at
    once.  Otherwise the j-th cancelling letter i leaves the unit e_i,
    and each later letter l of v negates it unless l = i, by the sign
    rule of x_l.  The parity of i's count among the later letters is
    walked back from the end of v once, so the cancel loop costs
    O(m + n) whatever k is.
    """
    if not u or not v or u[-1] != v[0]:
        return u + v, (0,) * n
    top, m = len(u), len(v)
    k = 0
    while k < top and k < m and u[top - 1 - k] == v[k]:
        k += 1
    c = [0] * n
    odd = [0] * (n + 1)  # odd[i]: parity of i's count in v[j + 1:]
    for i in v[k:]:
        odd[i] ^= 1
    for j in range(k - 1, -1, -1):
        i = v[j]
        c[i - 1] += -1 if (m - 1 - j - odd[i]) % 2 else 1
        odd[i] ^= 1
    return u[:top - k] + v[k:], tuple(c)


def products(xs: Iterable[GroupElement], ys: Iterable[GroupElement]
             ) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """x * y for x in xs and y in ys as raw (w, t) pairs, row by row;
    ValueError on a rank mismatch.

    With x = lift(u) tau(s), y = lift(v) tau(t) and lift(u) * lift(v) =
    lift(w) tau(c), x * y = lift(w) tau(c + sigma_v(s) + t).  Each distinct
    word pair goes through the word kernel once, and the row of u's
    products is kept only until the last x with word u.  sigma_v is a
    sign vector, so the distinct words of ys fall into sign classes
    (equal sigma_v), and each x twists s once per class.  The base of
    (x, v) is that twist, plus c only where c != 0, which takes a word
    pair that cancels; each pair then costs one vector add, base + t.
    The pairs are the fields of each product's normal form, unwrapped,
    so a caller can count them as plain tuples and wrap each distinct
    product once.
    """
    xs, ys = list(xs), list(ys)
    ranks = {g.n for g in xs + ys}
    if len(ranks) > 1:
        raise ValueError(f"rank mismatch: {min(ranks)} vs {max(ranks)}")
    n = ranks.pop() if ranks else 0
    ones = (1,) * n
    column: dict = {}
    cols = [(column.setdefault(y.w, len(column)), y.t) for y in ys]
    sign_class: dict = {}
    # Each distinct word of ys as the index of its sign class sigma_v.
    classes = [sign_class.setdefault(word_sign_action(v, ones), len(sign_class))
               for v in column]
    last = {x.w: i for i, x in enumerate(xs)}
    rows = {}
    for i, x in enumerate(xs):
        row = rows.get(x.w)
        if row is None:
            pairs = [_mul_words(x.w, v, n) for v in column]
            # The words w per column, and c, None where it is zero.
            row = rows[x.w] = ([w for w, _ in pairs],
                               [c if any(c) else None for _, c in pairs])
        if last[x.w] == i:
            del rows[x.w]
        words, cs = row
        s = x.t
        twists = [tuple(map(mul, signs, s)) for signs in sign_class]
        bases = [twists[k] if c is None else tuple(map(add, c, twists[k]))
                 for c, k in zip(cs, classes)]
        yield from [(words[j], tuple(map(add, bases[j], t))) for j, t in cols]


_ATOM = re.compile(r"x(\d+)(?:\^(-?\d+))?$")


def parse_element(s: str, n: int) -> GroupElement:
    """Parse whitespace-separated atoms x<k> or x<k>^<e> into an element.

    The empty string is the identity.  Malformed atoms, zero exponents
    and out-of-range generator indices raise ElementSyntaxError carrying
    the character offset of the offending atom.  An atom costs the same
    whatever its exponent: x_i^e = x_i^(e mod 2) tau(floor(e/2) e_i),
    because x_i fixes its own lattice coordinate.

    One pass, O(|s| + n): the word grows or cancels on a list, and the
    lattice part is kept as t = sign * u.  Appending x_i fixes t_i and
    negates every other coordinate, which is sign = -sign and u_i = -u_i,
    and a lattice step d on t_i adds sign * d to u_i.  This is the fold
    of append_letter over the letters, which the tests keep as its oracle.
    """
    if n < 0:
        raise ValueError("rank must be nonnegative")
    w: List[int] = []
    u = [0] * n
    sign = 1
    for match in re.finditer(r"\S+", s):
        atom = match.group(0)
        pos = match.start()
        parsed = _ATOM.match(atom)
        if parsed is None:
            raise ElementSyntaxError(f"bad atom {atom!r}", pos)
        try:
            index = int(parsed.group(1))
            exp = int(parsed.group(2)) if parsed.group(2) is not None else 1
        except ValueError:  # more digits than int() will convert
            raise ElementSyntaxError(
                f"number in atom longer than {sys.get_int_max_str_digits()} digits",
                pos) from None
        if not 1 <= index <= n:
            raise ElementSyntaxError(
                f"generator index {index} out of range for rank {n}", pos)
        if exp == 0:
            raise ElementSyntaxError("exponent must be nonzero", pos)
        half, odd = divmod(exp, 2)
        k = index - 1
        if odd:
            sign = -sign
            u[k] = -u[k]
            if w and w[-1] == index:  # x_i x_i = tau(e_i)
                w.pop()
                half += 1
            else:
                w.append(index)
        if half:
            u[k] += half if sign > 0 else -half
    return _element((tuple(w), tuple(u) if sign > 0 else tuple(-v for v in u)))


def format_element(g: GroupElement) -> str:
    """Canonical text form: 'w = x1 x2 | t = (1,-1)'.

    A lattice coordinate with more digits than ``str`` converts raises
    ValueError naming the coordinate and the limit.
    """
    word = " ".join(f"x{i}" for i in g.w)
    coords = [decimal_text(v, f"lattice coordinate t_{k}") for k, v in enumerate(g.t, 1)]
    return f"w = {word} | t = ({','.join(coords)})"


def project_w(a: GroupElement) -> Tuple[int, ...]:
    """Image in the quotient W_n; the kernel is the lattice."""
    return a.w


def abelianize(a: GroupElement):
    """Image in the abelianization.

    For n >= 2 this is the vector ((2 t_j + occ_j(w)) mod 4) in (Z_4)^n;
    for n = 1 the group is Z and the integer exponent is returned.
    """
    n = a.n
    if n < 1:
        raise ValueError("abelianization needs rank at least 1")
    occ = [0] * n
    for letter in a.w:
        occ[letter - 1] += 1
    if n == 1:
        return 2 * a.t[0] + occ[0]
    return tuple((2 * a.t[j] + occ[j]) % 4 for j in range(n))


def _relator_letters(i: int, j: int) -> Tuple[Tuple[int, int], ...]:
    """The defining relator x_i^-1 x_j^2 x_i x_j^2 as (generator, exponent) pairs."""
    return ((i, -1), (j, 2), (i, 1), (j, 2))


def abelianization_invariants(n: int) -> Tuple[int, ...]:
    """Invariant factors of the abelianization, read off its relator rows.

    Abelianizing turns a relator into its exponent-sum row.  The row of
    x_i^-1 x_j^2 x_i x_j^2 does not depend on i, since x_i occurs once
    with each sign, so one relator for each j, with i the next
    generator, gives every distinct row; the copies reduce to zero rows
    and add no factor.  Each row is kept as its nonzero (column, entry)
    pairs.  Rows with one nonzero entry each, in distinct columns, are a
    diagonal matrix up to permutation, and its sorted entries are its
    Smith form once each divides the next.  Both conditions are checked,
    and VerificationError names the one that fails.
    n = 1 has no relators and gives the empty tuple (the group is Z,
    free of rank 1).
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    factors: List[int] = []
    columns = set()
    for j in range(1, n + 1) if n > 1 else ():
        sums = {}
        for letter, exp in _relator_letters(j % n + 1, j):
            sums[letter] = sums.get(letter, 0) + exp
        row = [(col, v) for col, v in sums.items() if v]
        if len(row) != 1 or row[0][0] in columns:
            raise VerificationError(f"relator row {row} for x_{j} is not one nonzero "
                                    "entry in a column of its own")
        columns.add(row[0][0])
        factors.append(abs(row[0][1]))
    factors.sort()
    for a, b in zip(factors, factors[1:]):
        if b % a:
            raise VerificationError(f"invariant factor {a} does not divide {b}")
    return tuple(factors)


def element_sort_key(g: GroupElement):
    return (len(g.w), g.w, g.t)


def _near(box: Tuple[range, ...], R: int) -> Iterator[Tuple[int, ...]]:
    """The points within L1 distance R of a box of ranges, each once: one
    product per excess vector d, of side k or, if d_k > 0, its ends +- d_k."""
    if not R:
        return product(*box)
    parts = [((), R)]
    for side in box:
        parts = [(cols + (side,), b) for cols, b in parts] + [
            (cols + ((side[0] - d, side[-1] + d),), b - d) for cols, b in parts
            for d in range(1, b + 1)]
    return chain.from_iterable(product(*cols) for cols, _ in parts)


def _near_size(sides: Iterable[int], R: int) -> int:
    """How many points ``_near`` lists for a box of these side lengths m:
    sum_s 2^s C(R, s) e_(n-s)(m), s coordinates outside the box, each past
    either end by 1 or more, by R at most in all; e_(n-s)(m) is the
    coefficient of y^s in prod_k (m_k + y)."""
    if not R:
        return prod(sides)
    poly = [1]  # prod (m + y) over the sides, to the y^R term
    for m in sides:
        poly = [m * a + b for a, b in zip(poly + [0], [0] + poly)][:R + 1]
    total, weight = 0, 1
    for s, p in enumerate(poly):  # weight = 2^s C(R, s)
        total += weight * p
        weight = weight * 2 * (R - s) // (s + 1)
    return total


def _ball_size(n: int, r: int) -> int:
    """The number of elements of ``ball(n, r)``, or a partial sum once it
    passes ``DEFAULT_BALL_BUDGET``.

    A word's box has sides occ_k(w) + 1 (``_walk``), so words count
    through their letter counts alone, and a layer of words is a map
    {(the sorted counts of all letters but the last, the last letter's
    count): number of words}.  R is capped at C = budget // (2n) + 1, so
    a ``_near_size`` call costs O(nC) = O(budget + n) steps, whatever r
    is.  The decision stays exact: a box's neighbourhood holds at least
    1 + 2nR points on the axes alone, so R >= C passes the bound alone.
    """
    cap = DEFAULT_BALL_BUDGET // (2 * n) + 1 if n else 0
    size, layer = 0, {((), 0): 1}
    for length in range(r + 1):
        R = min((r - length) // 2, cap)
        following: "dict[Tuple[Tuple[int, ...], int], int]" = {}
        for (rest, last), words in layer.items():
            counts = rest + (last,) if last else rest
            free = n - len(counts)
            size += words * _near_size([c + 1 for c in counts] + [1] * free, R)
            # w x_l for l a letter not in w (free ways), or in w but not last
            steps = [(rest[:i] + rest[i + 1:], rest[i], 1) for i in range(len(rest))]
            for others, c, ways in steps + [(rest, 0, free)]:
                if ways:
                    key = (tuple(sorted(others + (last,) if last else others)), c + 1)
                    following[key] = following.get(key, 0) + words * ways
        if size > DEFAULT_BALL_BUDGET or not following:
            break
        layer = following
    return size


def _check_ball(n: int, r: int) -> None:
    """The one ball bound: ValueError for a negative rank or radius, and
    BallBudgetError when ``_ball_size(n, r)`` exceeds the budget."""
    if n < 0 or r < 0:
        raise ValueError(f"{'rank' if n < 0 else 'radius'} must be nonnegative")
    if _ball_size(n, r) > DEFAULT_BALL_BUDGET:
        raise BallBudgetError(f"ball exceeds budget of {DEFAULT_BALL_BUDGET} elements")


def _walk(n: int, r: int) -> Iterator[Tuple[Tuple[int, ...], Tuple[range, ...], int]]:
    """The ball of radius r word by word, once ``_check_ball`` admits it:
    (w, B(w), R) for every reduced word w of length at most r, with its
    box B(w) as ranges and R = floor((r - |w|) / 2), so that w's elements
    are lift(w) tau(t) for the points t of ``_near(B(w), R)``.

    For w reduced, |lift(w) tau(t)| = |w| + 2 d_1(t, B(w)), d_1 the L1
    distance to the box B(()) = {0}, B(w l) = sigma_l B(w) + [-1, 0] e_l.
    Upper bound: x_l and x_l^-1 = x_l tau(-e_l) take lift(w) tau(b) to
    lift(w l) tau(sigma_l b) and tau(sigma_l b - e_l), so w's letters, each
    with either sign, spell exactly the points of B(w); then each x_j^(+-2)
    = tau(+-e_j) appended moves t by a unit step.  Lower bound: free
    reduction takes L letters spelling g to w by cancelling L - |w| of
    them in non-crossing pairs of equal letters (Lyndon and Schupp, ch.
    IV), so if L > |w| a pair is adjacent.  Its product tau(d e_i), |d| <=
    1, moves past the later letters as tau(f), ||f||_1 <= 1, since sign
    actions keep the norm, and the other L - 2 letters spell g tau(-f).
    At L = |w| the letters spell w, one sign each, so t is in B(w); by
    induction d_1(t, B(w)) <= (L - |w|) / 2.
    The walk goes depth first with the box as ranges: appending l maps
    [lo, hi] to [-hi, -lo] off coordinate l and widens coordinate l to
    [lo - 1, hi].  Each element is one (w, t), so no visited set and no
    frontier is kept.  The bound is checked at the first step, before
    anything is yielded.
    """
    _check_ball(n, r)
    stack = [((), (range(1),) * n)]
    while stack:
        w, box = stack.pop()
        yield w, box, (r - len(w)) // 2
        if len(w) < r:
            twisted = [range(1 - s.stop, 1 - s.start) for s in box]
            last = w[-1] - 1 if w else -1
            for k, s in enumerate(box):
                if k != last:  # w x_(k+1): widen side k of the twisted box, copy, restore
                    keep, twisted[k] = twisted[k], range(s.start - 1, s.stop)
                    stack.append((w + (k + 1,), tuple(twisted)))
                    twisted[k] = keep


def ball(n: int, r: int) -> "set[GroupElement]":
    """All products of at most r generators x_i^{+-1}: each word of the
    walk wrapped with the points near its box, each element once."""
    out = set()
    for w, box, R in _walk(n, r):
        out.update(map(_element, zip(repeat(w), _near(box, R))))
    return out


def _near_pinned(box: Tuple[range, ...], R: int,
                 pins: Sequence[Optional[int]]) -> List[Tuple[int, ...]]:
    """The points of ``_near(box, R)`` with t_k = pins[k] wherever pins[k]
    is not None: the pinned coordinates spend their distance to the box,
    and the free ones range over ``_near`` of their sides with the rest.
    With every coordinate pinned this is one membership test."""
    spent = sum(max(side[0] - v, 0, v - side[-1])
                for side, v in zip(box, pins) if v is not None)
    if spent > R:
        return []
    free = [side for side, v in zip(box, pins) if v is None]
    out = []
    for point in _near(free, R - spent):
        values = iter(point)
        out.append(tuple(next(values) if v is None else v for v in pins))
    return out


def _squares_to_identity(w: Tuple[int, ...], n: int):
    """The test t -> [(lift(w) tau(t))^2 = e], or None if it fails for every t.

    With lift(w) * lift(w) = lift(w') tau(c), (lift(w) tau(t))^2 =
    lift(w') tau(c + sigma_w(t) + t): a nonempty w' rules out every t,
    and otherwise the test is one signed vector sum.
    """
    square, c = _mul_words(w, w, n)
    if square:
        return None
    signs = word_sign_action(w, (1,) * n)
    return lambda t: not any(h + e * v + v for h, e, v in zip(c, signs, t))


def _square_roots(w: Tuple[int, ...], n: int) -> Optional[List[Optional[int]]]:
    """The t with (lift(w) tau(t))^2 = e, solved: t_k pinned or None where
    free, per coordinate; None if no t solves it.

    With lift(w) * lift(w) = lift(w') tau(c), w' must be empty, and then
    c + sigma_w(t) + t = 0 splits by coordinate: where sigma_k = -1 it
    needs c_k = 0 and leaves t_k free, and where sigma_k = +1 it needs
    c_k even and pins t_k = -c_k / 2.
    """
    square, c = _mul_words(w, w, n)
    if square:
        return None
    pins: List[Optional[int]] = []
    for h, e in zip(c, word_sign_action(w, (1,) * n)):
        if e < 0 and h or e > 0 and h % 2:
            return None
        pins.append(None if e < 0 else -h // 2)
    return pins


def _commutes_with(w: Tuple[int, ...], i: int, n: int):
    """The test t -> [lift(w) tau(t) commutes with x_i], or None if it
    fails for every t.

    With lift(w) x_i = lift(w1) tau(c1) and x_i lift(w) = lift(w2) tau(c2),
    lift(w) tau(t) x_i = lift(w1) tau(c1 + sigma_i(t)) and x_i lift(w) tau(t)
    = lift(w2) tau(c2 + t): the words differ for every t or for none.
    """
    (w1, c1), (w2, c2) = _mul_words(w, (i,), n), _mul_words((i,), w, n)
    if w1 != w2:
        return None
    signs = word_sign_action((i,), (1,) * n)
    return lambda t: all(a + e * v == b + v for a, e, b, v in zip(c1, signs, c2, t))


def _central_roots(w: Tuple[int, ...], n: int) -> Optional[List[Optional[int]]]:
    """The t with lift(w) tau(t) central, solved as in ``_square_roots``.

    For each generator x_i the words of lift(w) x_i and x_i lift(w) must
    agree, and then c1 + sigma_i(t) = c2 + t (``_commutes_with``) needs
    c1_i = c2_i and pins t_k = (c1_k - c2_k) / 2, an integer, for k != i.
    For n >= 2 each coordinate is pinned by some generator, and the
    generators must pin it alike.
    """
    pins: List[Optional[int]] = [None] * n
    for i in range(1, n + 1):
        (w1, c1), (w2, c2) = _mul_words(w, (i,), n), _mul_words((i,), w, n)
        if w1 != w2:
            return None
        for k, (a, b) in enumerate(zip(c1, c2)):
            if k == i - 1:
                if a != b:
                    return None
            elif (a - b) % 2 or pins[k] not in (None, (a - b) // 2):
                return None
            else:
                pins[k] = (a - b) // 2
    return pins


def _refuted(g: GroupElement, claim: str) -> VerificationError:
    return VerificationError(f"the word solve finds {format_element(g)} {claim}, "
                             "which its per-element test refutes")


def torsion_probe(n: int, r: int, kmax: int) -> List[Tuple[GroupElement, int]]:
    """Nontrivial ball elements with g^k = identity for some k <= kmax,
    each paired with its order.

    Expected empty: the groups are torsion free.  A nontrivial g = tau(t) w
    has finite order exactly when g^2 = e.  In the free product of copies
    of Z_2 an element of finite order is trivial or conjugate to a
    generator (Lyndon and Schupp, ch. IV), so g^k = e forces w^2 = e and
    g^2 = tau(v) in the lattice.  If v != 0 no power of g is e: the even
    powers are tau(m v), and the odd powers keep the word w, or are
    tau(k t) when w is empty.  So the order of a torsion element is 2,
    whatever kmax is.  Each word of the walk is squared once by the word
    kernel, and the lattice parts with square e are solved for
    (``_square_roots``), not searched: only the solutions near the word's
    box are listed, and each goes through the per-element test, which
    must confirm it.  Below kmax = 2 the answer is empty, so the ball is
    only counted against the bound.
    """
    if r < 1 or kmax < 1:
        raise ValueError("radius and exponent bound must be at least 1")
    if kmax < 2:
        _check_ball(n, r)
        return []
    found = []
    for w, box, R in _walk(n, r):
        if not (w or n and R):
            continue  # the identity is the word's only element, and no finding
        pins = _square_roots(w, n)
        if pins is None:
            continue
        points = [t for t in _near_pinned(box, R, pins) if w or any(t)]
        if points:
            squares_to_e = _squares_to_identity(w, n)
            for t in points:
                g = _element((w, t))
                if squares_to_e is None or not squares_to_e(t):
                    raise _refuted(g, "of order 2")
                found.append((g, 2))
    found.sort(key=lambda pair: element_sort_key(pair[0]))
    return found


def center_probe(n: int, r: int) -> List[GroupElement]:
    """Nontrivial ball elements commuting with every generator.

    Expected empty: the center is trivial for n >= 2.  Each word of the
    walk goes through the generators in order by the word kernel and
    stops at the first x_i whose two products with lift(w) have different
    words: no element with that word is central.  For a word that passes
    every generator, the lattice parts are solved for (``_central_roots``),
    which pins all of t, and a solution near the word's box goes through
    the per-generator tests, which must confirm it.
    """
    if n < 2:
        raise ValueError("center probe needs n >= 2")
    if r < 1:
        raise ValueError("radius must be at least 1")
    found: List[GroupElement] = []
    for w, box, R in _walk(n, r):
        if not (w or n and R):
            continue  # the identity is the word's only element, and no finding
        tests = []
        for i in range(1, n + 1):
            commutes = _commutes_with(w, i, n)
            if commutes is None:
                break
            tests.append(commutes)
        else:
            pins = _central_roots(w, n)
            for t in [] if pins is None else _near_pinned(box, R, pins):
                if w or any(t):
                    g = _element((w, t))
                    if not all(test(t) for test in tests):
                        raise _refuted(g, "central")
                    found.append(g)
    found.sort(key=element_sort_key)
    return found
