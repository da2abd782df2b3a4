"""The in-process workloads: spectral, words and probes.

Every workload is generated in rounds.  A round is a fixed stratified
mix of operation kinds and sizes; the seed draws the concrete inputs
inside each stratum and shuffles the order.  Fixing the mix keeps the
latency percentiles of one seed comparable with those of another.

A workload exposes ``round(r)``, ``prepare(op)`` (untimed, runs right
before the op), ``run(op)`` (the timed call into hwgroups) and
``check(op, result)`` (the untimed oracle).  ``run`` looks functions
up on the module at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import oracle

# (kind, n) pairs of one spectral round; n = 11 and 12 form the tail.
SPECTRAL_ROUND = (
    [("f2", n) for n in list(range(4, 11)) * 2 + [11, 12]]
    + [("en", n) for n in list(range(4, 11)) * 2 + [11, 12]]
    + [("q", n) for n in list(range(4, 13)) * 2]
)
SPECTRAL_TOY = [(kind, n) for kind in ("f2", "en", "q") for n in (4, 5, 6)]

WORD_KINDS = ("parse", "multiply", "inverse", "power", "commutator")
WORD_STRATA = 20
WORD_MIN, WORD_MAX = 8, 2048
BIG_EXPONENT_SHARE = 0.005
RN_ACTION_MAX = 64  # crystal.rn_action composes matrices per letter

# Ball sizes in the probe round stay at or below about 10^4 elements.
PROBE_ROUND = [
    ("ball", 2, 8), ("ball", 2, 12), ("ball", 3, 5), ("ball", 3, 6),
    ("ball", 4, 4), ("ball", 4, 5),
    ("torsion", 2, 8, 4), ("torsion", 3, 4, 4), ("torsion", 3, 5, 3),
    ("torsion", 4, 4, 3),
    ("center", 2, 10), ("center", 3, 5), ("center", 4, 4),
    ("fixed_point", 6), ("fixed_point", 8),
    ("injectivity", 7), ("injectivity", 9),
]
PROBE_TOY = [("ball", 2, 4), ("torsion", 2, 3, 3), ("center", 2, 3),
             ("fixed_point", 3), ("injectivity", 3)]
SUBSET_SIZES = (20, 40, 60, 80, 100, 120)
SUBSET_RADIUS = {2: 10, 3: 6, 4: 5}


def _rng(seed: int, name: str, r: int) -> random.Random:
    return random.Random(f"{seed}:{name}:{r}")


def _point(rng: random.Random, n: int) -> Tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n))


class Spectral:
    """Cold mod-2 and rational Poincare series, one n per op."""

    name = "spectral"

    def __init__(self, mods, seed: int, toy: bool) -> None:
        self.m = mods
        self.seed = seed
        self.mix = SPECTRAL_TOY if toy else SPECTRAL_ROUND
        # Every CLI process starts cold, so each op clears the caches.
        self._clears = [
            obj.cache_clear
            for module in (mods.cohomology_f2, mods.cohomology_q, mods.exact_algebra)
            for obj in vars(module).values()
            if hasattr(obj, "cache_clear")
        ]

    def round(self, r: int) -> List[tuple]:
        ops = list(self.mix)
        _rng(self.seed, self.name, r).shuffle(ops)
        return ops

    def prepare(self, op) -> None:
        for clear in self._clears:
            clear()

    def run(self, op):
        kind, n = op
        if kind == "f2":
            return self.m.cohomology_f2.poincare_f2_spectral(n)
        if kind == "en":
            return self.m.cohomology_f2.en_vs_e3(n)
        return self.m.cohomology_q.poincare_q_spectral(n)

    def check(self, op, result) -> bool:
        kind, n = op
        if kind == "f2":
            return result == self.m.cohomology_f2.poincare_f2_closed(n)
        if kind == "en":
            return result.ok is True
        return result == self.m.cohomology_q.poincare_q_closed(n)


class Words:
    """Normal-form arithmetic on seeded words of 8..2048 letters."""

    name = "words"

    def __init__(self, mods, seed: int, toy: bool) -> None:
        self.m = mods
        self.seed = seed
        self.max_len = 64 if toy else WORD_MAX
        self.strata = 2 if toy else WORD_STRATA

    def round(self, r: int) -> List[tuple]:
        """Sizes are a fixed log-spaced grid; contents and order are seeded."""
        rng = _rng(self.seed, self.name, r)
        span = math.log(self.max_len / WORD_MIN)
        ops = []
        for kind_index, kind in enumerate(WORD_KINDS):
            for j in range(self.strata):
                length = round(WORD_MIN * math.exp(span * (j + 0.5) / self.strata))
                n = 2 + (3 * j + kind_index) % 7
                k = (2 + j % 7) * (1 if j % 2 else -1)
                ops.append(self._make(rng, kind, n, length, k))
        rng.shuffle(ops)
        return ops

    def _exponent(self, rng: random.Random, big: bool) -> int:
        size = round(math.exp(rng.uniform(math.log(4), math.log(1000)))) if big \
            else rng.randint(1, 3)
        return size if rng.random() < 0.5 else -size

    def _word(self, rng: random.Random, n: int, length: int,
              first_not=(), last_not=()) -> Tuple[int, ...]:
        """Random reduced word avoiding the given first and last letters."""
        word: List[int] = []
        for pos in range(length):
            banned = set(word[-1:])
            banned.update(first_not if pos == 0 else ())
            banned.update(last_not if pos == length - 1 else ())
            word.append(rng.choice([i for i in range(1, n + 1) if i not in banned]))
        return tuple(word)

    def _element(self, rng: random.Random, n: int, word: Sequence[int]):
        t = tuple(self._exponent(rng, True) if rng.random() < BIG_EXPONENT_SHARE
                  else rng.randint(-3, 3) for _ in range(n))
        return self.m.hw_group.GroupElement(tuple(word), t)

    def _make(self, rng: random.Random, kind: str, n: int, length: int, k: int) -> tuple:
        """Products join words whose end letters differ (n >= 3), so no
        letters cancel and an op's cost depends only on its lengths."""
        if kind == "parse":
            # The big exponents cost |e| appends each, so their sizes form a
            # fixed log-spaced set and their positions are stratified.
            count = round(BIG_EXPONENT_SHARE * length)
            big = {int((i + rng.random()) * length / count):
                   round(4 * 250 ** ((i + 0.5) / count)) for i in range(count)}
            atoms = tuple(
                (rng.randint(1, n), big[pos] * rng.choice((1, -1)) if pos in big
                 else self._exponent(rng, False))
                for pos in range(length))
            text = " ".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in atoms)
            return (kind, n, (text, atoms), _point(rng, n))
        if kind == "inverse":
            return (kind, n, (self._element(rng, n, self._word(rng, n, length)),),
                    _point(rng, n))
        n = max(n, 3)
        if kind == "power":
            first = rng.randint(1, n)
            rest = self._word(rng, n, max(2, length // abs(k)) - 1, (first,), (first,))
            return (kind, n, (self._element(rng, n, (first,) + rest), k), _point(rng, n))
        a = self._word(rng, n, length // 2)
        if kind == "multiply":
            b = self._word(rng, n, length - length // 2, (a[-1],))
        else:  # a^-1 b^-1 a b joins a0|b_last, b0|a0 and a_last|b0
            b = self._word(rng, n, length - length // 2, (a[0], a[-1]), (a[0],))
        return (kind, n, (self._element(rng, n, a), self._element(rng, n, b)), _point(rng, n))

    def prepare(self, op) -> None:
        pass

    def run(self, op):
        kind, n, args, _ = op
        hw = self.m.hw_group
        if kind == "parse":
            return hw.parse_element(args[0], n)
        return getattr(hw, kind)(*args)

    def check(self, op, g) -> bool:
        """Reference normal form, image in W_n, abelianization additive
        mod 4 and the composite action at a rational point."""
        kind, n, args, v = op
        hw = self.m.hw_group
        got = (g.w, g.t)
        inputs = [x for x in args if isinstance(x, hw.GroupElement)]
        elems = [(x.w, x.t) for x in inputs]
        ab = [hw.abelianize(x) for x in inputs]
        if kind == "parse":
            atoms = args[1]
            nf_ok = got == oracle.ref_atoms(atoms, n)
            word = [i for i, e in atoms for _ in range(abs(e))]
            z4 = [0] * n
            for i, e in atoms:
                z4[i - 1] += e
            action = oracle.act_atoms(atoms, v)
        elif kind == "multiply":
            (a, b), (za, zb) = elems, ab
            nf_ok = got == oracle.ref_mul(a, b)
            word = a[0] + b[0]
            z4 = [x + y for x, y in zip(za, zb)]
            action = oracle.act(a, oracle.act(b, v))
        elif kind == "inverse":
            (a,), (za,) = elems, ab
            nf_ok = oracle.is_identity(oracle.ref_mul(a, got))
            word = a[0][::-1]
            z4 = [-x for x in za]
            action = oracle.act_inverse(a, v)
        elif kind == "power":
            (a,), (za,), k = elems, ab, args[1]
            if k > 0:
                nf_ok = got == oracle.ref_power(a, k)
            else:
                nf_ok = oracle.is_identity(oracle.ref_mul(got, oracle.ref_power(a, -k)))
            word = (a[0] if k > 0 else a[0][::-1]) * abs(k)
            z4 = [k * x for x in za]
            action = v
            for _ in range(abs(k)):
                action = oracle.act(a, action) if k > 0 else oracle.act_inverse(a, action)
        else:  # commutator a^-1 b^-1 a b
            (a, b) = elems
            nf_ok = oracle.ref_mul(oracle.ref_mul(b, a), got) == oracle.ref_mul(a, b)
            word = a[0][::-1] + b[0][::-1] + a[0] + b[0]
            z4 = [0] * n
            action = oracle.act_inverse(a, oracle.act_inverse(
                b, oracle.act(a, oracle.act(b, v))))
        if len(g.w) <= RN_ACTION_MAX:
            image = self.m.crystal.rn_action(g, v)
        else:
            image = oracle.act(got, v)
        return (nf_ok
                and hw.project_w(g) == self.m.quotient_w.reduce_w(word, n)
                and hw.abelianize(g) == tuple(x % 4 for x in z4)
                and image == tuple(action))


class Probes:
    """Cayley balls, the four probes, tallies and F_2[G_n] products."""

    name = "probes"

    def __init__(self, mods, seed: int, toy: bool) -> None:
        self.m = mods
        self.seed = seed
        self.toy = toy
        self._balls: Dict[tuple, frozenset] = {}

    def round(self, r: int) -> List[tuple]:
        rng = _rng(self.seed, self.name, r)
        ops = list(PROBE_TOY if self.toy else PROBE_ROUND)
        sizes = (5, 10) if self.toy else SUBSET_SIZES
        for kind in ("tally", "ring_mul"):
            for j, size in enumerate(sizes):
                n = 2 + j % 3
                ops.append((kind, n, self._subset(rng, n, size), self._subset(rng, n, size)))
        rng.shuffle(ops)
        return ops

    def _subset(self, rng: random.Random, n: int, size: int) -> tuple:
        """Distinct elements of ball(n, radius), found by random walks."""
        radius = SUBSET_RADIUS[n]
        found = set()
        while len(found) < size:
            steps = [(rng.randint(1, n), rng.choice((1, -1)))
                     for _ in range(rng.randint(0, radius))]
            found.add(oracle.ref_atoms(steps, n))
        make = self.m.hw_group.GroupElement
        return tuple(make(w, t) for w, t in sorted(found))

    def prepare(self, op) -> None:
        pass

    def run(self, op):
        kind = op[0]
        hw, crystal, ring = self.m.hw_group, self.m.crystal, self.m.group_ring
        if kind == "ball":
            return hw.ball(op[1], op[2])
        if kind == "torsion":
            return hw.torsion_probe(op[1], op[2], op[3])
        if kind == "center":
            return hw.center_probe(op[1], op[2])
        if kind == "fixed_point":
            return crystal.fixed_point_probe(2, op[1])
        if kind == "injectivity":
            return crystal.injectivity_probe(op[1])
        if kind == "tally":
            return ring.product_tally(list(op[2]), list(op[3]))
        n = op[1]
        return ring.ring_mul(ring.RingElement(n, frozenset(op[2])),
                             ring.RingElement(n, frozenset(op[3])))

    def check(self, op, result) -> bool:
        kind = op[0]
        if kind == "ball":
            key = op[1:]
            if key not in self._balls:
                self._balls[key] = oracle.ref_ball(*key)
            return {(g.w, g.t) for g in result} == self._balls[key]
        if kind in ("torsion", "center", "fixed_point", "injectivity"):
            return result == []  # the groups are torsion free, etc.
        n, xs, ys = op[1], op[2], op[3]
        expected = oracle.ref_tally([(g.w, g.t) for g in xs], [(g.w, g.t) for g in ys])
        if kind == "tally":
            return (sum(result.values()) == len(xs) * len(ys)
                    and {(g.w, g.t): c for g, c in result.items()} == expected)
        ring = self.m.group_ring
        odd = {g for g, c in expected.items() if c % 2}
        a = ring.RingElement(n, frozenset(xs))
        return ({(g.w, g.t) for g in result.support} == odd
                and ring.ring_mul(a, ring.ring_one(n)) == a)
