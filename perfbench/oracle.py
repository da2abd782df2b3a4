"""Reference computations the benchmark checks answers against.

Nothing here calls the normal-form code of ``hwgroups``: elements are
plain ``(w, t)`` tuples folded letter by letter on mutable lists, and
the coordinate action on R^n is evaluated point by point.  Both follow
the rules stated in the package docstrings:

- appending x_i twists t by negating every coordinate but i, then
  either cancels a trailing i (emitting the lattice unit e_i) or
  extends the word; x_i^-1 = x_i tau(-e_i);
- letter i acts on R^n by v -> S_i v + e_i / 2, where S_i keeps
  coordinate i and negates the rest, and tau(t) translates by t.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

Elem = Tuple[Tuple[int, ...], Tuple[int, ...]]


def _append(w: List[int], t: List[int], i: int, exp: int) -> None:
    for k in range(len(t)):
        if k != i - 1:
            t[k] = -t[k]
    if w and w[-1] == i:
        w.pop()
        t[i - 1] += 1
    else:
        w.append(i)
    if exp < 0:
        t[i - 1] -= 1


def ref_mul(a: Elem, b: Elem) -> Elem:
    w, t = list(a[0]), list(a[1])
    for letter in b[0]:
        _append(w, t, letter, 1)
    return tuple(w), tuple(u + v for u, v in zip(t, b[1]))


def ref_power(a: Elem, k: int) -> Elem:
    """a^k for k >= 0 by repeated reference multiplication."""
    out: Elem = ((), (0,) * len(a[1]))
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_atoms(atoms: Sequence[Tuple[int, int]], n: int) -> Elem:
    """Product of the atoms x_i^e, expanded into |e| letter steps."""
    w: List[int] = []
    t = [0] * n
    for i, e in atoms:
        for _ in range(abs(e)):
            _append(w, t, i, 1 if e > 0 else -1)
    return tuple(w), tuple(t)


def is_identity(a: Elem) -> bool:
    return not a[0] and not any(a[1])


def ref_ball(n: int, r: int) -> FrozenSet[Elem]:
    """All products of at most r letters x_i^(+-1), breadth first."""
    start: Elem = ((), (0,) * n)
    seen = {start}
    frontier = [start]
    for _ in range(r):
        nxt = []
        for w, t in frontier:
            for i in range(1, n + 1):
                for exp in (1, -1):
                    w2, t2 = list(w), list(t)
                    _append(w2, t2, i, exp)
                    g = (tuple(w2), tuple(t2))
                    if g not in seen:
                        seen.add(g)
                        nxt.append(g)
        frontier = nxt
    return frozenset(seen)


def ref_tally(xs: Iterable[Elem], ys: Sequence[Elem]) -> Dict[Elem, int]:
    return Counter(ref_mul(x, y) for x in xs for y in ys)


def _scaled(v: Sequence[Fraction]) -> Tuple[List[int], int]:
    """v as integers over a common even denominator d."""
    d = 2 * math.lcm(*(Fraction(u).denominator for u in v))
    return [int(u * d) for u in v], d


def _apply(x: List[int], d: int, letters: Iterable[Tuple[int, int]]) -> None:
    """Apply x_i^(+-1) for each (i, sign) in turn, in place."""
    half = d // 2
    for i, sign in letters:
        for k in range(len(x)):
            if k != i - 1:
                x[k] = -x[k]
        x[i - 1] += half if sign > 0 else -half


def act(g: Elem, v: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """Coordinate action of the normal form g = lift(w) tau(t) at v."""
    x, d = _scaled(v)
    x = [u + s * d for u, s in zip(x, g[1])]
    _apply(x, d, ((letter, 1) for letter in reversed(g[0])))
    return tuple(Fraction(u, d) for u in x)


def act_inverse(g: Elem, v: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """Action of g^-1 at v: undo the letters left to right, then tau(t)."""
    x, d = _scaled(v)
    _apply(x, d, ((letter, -1) for letter in g[0]))
    return tuple(Fraction(u - s * d, d) for u, s in zip(x, g[1]))


def act_atoms(atoms: Sequence[Tuple[int, int]], v: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """Action of the product of atoms x_i^e, rightmost atom first."""
    x, d = _scaled(v)
    _apply(x, d, ((i, e) for i, e in reversed(atoms) for _ in range(abs(e))))
    return tuple(Fraction(u, d) for u in x)
