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
word kernel ``_mul_words`` computes lift(u) * lift(v) on raw tuples, and
``products`` of two sets calls it once per distinct word pair (u, v) and
yields raw (w, t) pairs, which ``group_ring`` counts as tuples and wraps
once per distinct product.
``_ball_words`` searches the Cayley ball into {word: lattice parts},
which ``ball`` wraps and the probes read by word: ``torsion_probe``
squares each word once, and ``center_probe`` multiplies it by x_1, x_2,
... on both sides until the two products differ in word.  Only a passing
word's lattice parts are tested, and only a finding is built.

A ``GroupElement`` is a ``_Value`` with the fields (w, t): the pair as
a tuple, built and hashed in C, whose ``w`` and ``t`` properties,
equality and repr come from the package root.  The unchecked
constructor ``_element`` takes such a pair, and ``ball``,
``group_ring.product_tally`` and ``ring_mul`` map it over their raw
results, with no Python frame per element.

Importing this module loads no other module of the package: its errors,
``DEFAULT_BALL_BUDGET``, ``decimal_text`` and ``_Value`` come from the
package root, and all but ``_Value`` are re-exported here.  Of the
standard library it imports only ``functools``, ``itertools``,
``operator``, ``re``, ``sys`` and ``typing``, which ``cli`` has loaded
before any command runs (``re`` loads the first three); no
``dataclasses`` and no ``fractions``.
"""

from __future__ import annotations

import re
import sys
from functools import partial
from itertools import repeat
from operator import add, mul
from typing import Iterable, Iterator, List, Sequence, Tuple

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
    ints.  It has no order; sort with ``element_sort_key``.
    """

    __slots__ = ()
    _fields = ("w", "t")

    def __new__(cls, w: Sequence[int], t: Sequence[int]) -> "GroupElement":
        w = tuple(int(i) for i in w)
        t = tuple(int(v) for v in t)
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
    then the word only grows, since v is reduced.  The j-th cancelling
    letter i leaves the unit e_i, and each later letter l of v negates
    it unless l = i, by the sign rule of x_l.  The parity of i's
    count among the later letters is walked back from the end of v once,
    so the cancel loop costs O(m + n) whatever k is, and nothing when
    k = 0.
    """
    top, m = len(u), len(v)
    k = 0
    while k < top and k < m and u[top - 1 - k] == v[k]:
        k += 1
    c = [0] * n
    if k:
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
    products is kept only until the last x with word u.  The pairs are
    the fields of each product's normal form, unwrapped, so a caller can
    count them as plain tuples and wrap each distinct product once.
    """
    xs, ys = list(xs), list(ys)
    ranks = {g.n for g in xs + ys}
    if len(ranks) > 1:
        raise ValueError(f"rank mismatch: {min(ranks)} vs {max(ranks)}")
    n = ranks.pop() if ranks else 0
    ones = (1,) * n
    column: dict = {}
    # Each y as (its word's column, sigma_v as a sign vector, t).
    cols = [(column.setdefault(y.w, len(column)), word_sign_action(y.w, ones), y.t)
            for y in ys]
    last = {x.w: i for i, x in enumerate(xs)}
    rows = {}
    for i, x in enumerate(xs):
        row = rows.get(x.w)
        if row is None:
            row = rows[x.w] = [_mul_words(x.w, v, n) for v in column]
        if last[x.w] == i:
            del rows[x.w]
        s = x.t
        for j, signs, t in cols:
            w, c = row[j]
            yield w, tuple(map(add, map(add, c, map(mul, signs, s)), t))


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


def _ball_words(n: int, r: int) -> "dict[Tuple[int, ...], set]":
    """The ball of radius r as {word: set of its lattice parts}, the
    empty word's set holding the identity's zero vector.

    Breadth-first over append_letter moves, run on raw (w, t) pairs:
    x_i fixes t_i and negates every other coordinate, so t is negated
    once per element, and the word step is taken once for x_i and
    x_i^-1 = x_i tau(-e_i).  Raises BallBudgetError as soon as the
    visited set would exceed ``DEFAULT_BALL_BUDGET`` elements, the
    identity included; the bound is read once per call.  This is the one
    place the run-time bound is applied: ``ball`` and the probes read it.
    """
    if n < 0:
        raise ValueError("rank must be nonnegative")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    budget = DEFAULT_BALL_BUDGET
    zero = (0,) * n
    seen = {(): {zero}}
    size = 1
    frontier = [((), zero)]
    for _ in range(r):
        next_frontier = []
        for w, t in frontier:
            twisted = [-v for v in t]
            last = w[-1] if w else 0
            for i in range(1, n + 1):
                if i == last:  # x_i cancels, leaving the unit e_i
                    word, plus = w[:-1], t[i - 1] + 1
                else:
                    word, plus = w + (i,), t[i - 1]
                lattices = seen.get(word)
                if lattices is None:
                    lattices = seen[word] = set()
                for v in (plus, plus - 1):  # x_i, then x_i^-1
                    twisted[i - 1] = v
                    h = tuple(twisted)
                    if h not in lattices:
                        if size >= budget:
                            raise BallBudgetError(
                                f"ball exceeds budget of {budget} elements")
                        size += 1
                        lattices.add(h)
                        next_frontier.append((word, h))
                twisted[i - 1] = -t[i - 1]
        frontier = next_frontier
    return seen


def ball(n: int, r: int) -> "set[GroupElement]":
    """All products of at most r generators x_i^{+-1}: ``_ball_words(n, r)``
    with each element wrapped once, freeing each word's lattices as it goes."""
    seen = _ball_words(n, r)
    out = set()
    while seen:
        w, lattices = seen.popitem()
        out.update(map(_element, zip(repeat(w), lattices)))
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
    whatever kmax is.  Each distinct word is squared once by the word
    kernel; only the lattice parts of a word with w^2 = 1 in W_n are
    then tested, by one signed vector sum each.
    """
    if r < 1 or kmax < 1:
        raise ValueError("radius and exponent bound must be at least 1")
    words = _ball_words(n, r)
    if kmax < 2:
        return []
    words[()].remove((0,) * n)  # the identity is no finding
    found = [(_element((w, t)), 2) for w, lattices in words.items()
             if lattices and (squares_to_e := _squares_to_identity(w, n))
             for t in lattices if squares_to_e(t)]
    found.sort(key=lambda pair: element_sort_key(pair[0]))
    return found


def center_probe(n: int, r: int) -> List[GroupElement]:
    """Nontrivial ball elements commuting with every generator.

    Expected empty: the center is trivial for n >= 2.  Each distinct
    word walks the generators in order through the word kernel and stops
    at the first x_i whose two products with lift(w) have different
    words: no element with that word is central.  Only the lattice parts
    of a word that passes every generator are tested, by one vector
    comparison per generator.
    """
    if n < 2:
        raise ValueError("center probe needs n >= 2")
    if r < 1:
        raise ValueError("radius must be at least 1")
    words = _ball_words(n, r)
    words[()].remove((0,) * n)  # the identity is no finding
    found: List[GroupElement] = []
    for w, lattices in words.items():
        if not lattices:
            continue
        tests = []
        for i in range(1, n + 1):
            commutes = _commutes_with(w, i, n)
            if commutes is None:
                break
            tests.append(commutes)
        else:
            found.extend(_element((w, t)) for t in lattices if all(test(t) for test in tests))
    found.sort(key=element_sort_key)
    return found
