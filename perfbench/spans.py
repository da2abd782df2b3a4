"""Outside-in spans around the public boundaries of each hwgroups module.

The tracer rebinds a module attribute (or a class attribute) to a
wrapper that times the call, and puts the original back on removal.
A call that re-enters a layer already open on the stack passes
straight through, so ``power`` calling ``multiply`` is one normal-form
span.  A span's self time is its duration minus the spans opened
inside it.  Spans are folded into per-layer totals as they close: the
probes open about 10^5 normal-form spans per operation, too many to
keep one record each.

With ``memory=True`` the tracer also records the tracemalloc peak of
each span above the memory in use when it opened; tracemalloc must be
running.  Per-letter helpers such as ``append_letter`` are never
wrapped.
"""

from __future__ import annotations

import re
import time
import tracemalloc
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_ATOM_EXP = re.compile(r"x\d+(?:\^(-?\d+))?")


def _parse_counts(st, args, kwargs, result) -> None:
    st["letters"] += sum(abs(int(e)) if e else 1 for e in _ATOM_EXP.findall(args[0]))


def _letters(*elements) -> int:
    return sum(len(g.w) for g in elements)


def _mul_counts(st, args, kwargs, result) -> None:
    st["letters_in"] += _letters(*args[:2])


def _inv_counts(st, args, kwargs, result) -> None:
    st["letters_in"] += _letters(args[0])


def _pow_counts(st, args, kwargs, result) -> None:
    st["letters_in"] += abs(args[1]) * _letters(args[0])


def _ball_counts(st, args, kwargs, result) -> None:
    budget = args[2] if len(args) > 2 else kwargs.get("budget", 10**6)
    st["elements"] += len(result)
    st["budget"] += budget


def _tally_counts(st, args, kwargs, result) -> None:
    st["products"] += len(args[0]) * len(args[1])


def _ring_counts(st, args, kwargs, result) -> None:
    st["products"] += len(args[0].support) * len(args[1].support)


def _block_counts(st, args, kwargs, result) -> None:
    matrix = result.matrix
    st["cells"] += matrix.n_rows * matrix.n_cols
    st["nnz"] += sum(row.bit_count() for row in matrix.rows)


def _rank_counts(st, args, kwargs, result) -> None:
    st["rank_sum"] += result


def _rref_counts(st, args, kwargs, result) -> None:
    st["rows"] += len(args[0])


def _subset_counts(st, args, kwargs, result) -> None:
    st["terms"] += 1 << args[0]


# (owner, attribute, layer, counter).  An owner is a module name in the
# namespace the benchmark imported, optionally followed by a class name.
BOUNDARIES = [
    ("hw_group", "parse_element", "hw_group.parse", _parse_counts),
    ("group_ring", "parse_element", "hw_group.parse", _parse_counts),
    ("hw_group", "multiply", "hw_group.normal_form", _mul_counts),
    ("group_ring", "multiply", "hw_group.normal_form", _mul_counts),
    ("hw_group", "inverse", "hw_group.normal_form", _inv_counts),
    ("hw_group", "power", "hw_group.normal_form", _pow_counts),
    ("hw_group", "commutator", "hw_group.normal_form", _mul_counts),
    ("hw_group", "ball", "hw_group.ball", _ball_counts),
    ("crystal", "ball", "hw_group.ball", _ball_counts),
    ("hw_group", "torsion_probe", "crystal.probe", None),
    ("hw_group", "center_probe", "crystal.probe", None),
    ("crystal", "fixed_point_probe", "crystal.probe", None),
    ("crystal", "injectivity_probe", "crystal.probe", None),
    ("group_ring", "product_tally", "group_ring.tally", _tally_counts),
    ("group_ring", "ring_mul", "group_ring.tally", _ring_counts),
    ("cohomology_f2", "d2_block", "cohomology_f2.block_build", _block_counts),
    ("exact_algebra.F2Matrix", "rank", "exact_algebra.f2_rank", _rank_counts),
    ("cohomology_f2", "f2_rref", "exact_algebra.f2_rref", _rref_counts),
    ("exact_algebra", "f2_rref", "exact_algebra.f2_rref", _rref_counts),
    ("cohomology_f2.EnAlgebra", "__init__", "cohomology_f2.en_relations", None),
    ("cohomology_f2", "spectral_tables", "cohomology_f2.assembly", None),
    ("cohomology_q", "poincare_q_spectral", "cohomology_q.subset_sum", _subset_counts),
]

LAYERS = list(dict.fromkeys(layer for _, _, layer, _ in BOUNDARIES))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# Metrics derived from a layer's totals, beyond calls and self_s.  The
# second argument is the total time of the spectral_tables spans.
DERIVED = {
    "hw_group.parse": [("letters", "count", lambda st, asm: st["letters"])],
    "hw_group.normal_form": [
        ("letters_in", "count", lambda st, asm: st["letters_in"]),
        ("us_per_letter", "us", lambda st, asm: _ratio(st["self_s"] * 1e6, st["letters_in"])),
    ],
    "hw_group.ball": [
        ("elements", "count", lambda st, asm: st["elements"]),
        ("elements_per_s", "1/s", lambda st, asm: _ratio(st["elements"], st["total_s"])),
        ("budget_share", "ratio", lambda st, asm: _ratio(st["elements"], st["budget"])),
    ],
    "group_ring.tally": [
        ("products", "count", lambda st, asm: st["products"]),
        ("products_per_s", "1/s", lambda st, asm: _ratio(st["products"], st["total_s"])),
    ],
    "cohomology_f2.block_build": [
        ("cells", "count", lambda st, asm: st["cells"]),
        ("nnz", "count", lambda st, asm: st["nnz"]),
        ("density", "ratio", lambda st, asm: _ratio(st["nnz"], st["cells"])),
        ("share", "ratio", lambda st, asm: _ratio(st["self_s"], asm)),
    ],
    "exact_algebra.f2_rank": [
        ("rank_sum", "count", lambda st, asm: st["rank_sum"]),
        ("share", "ratio", lambda st, asm: _ratio(st["self_s"], asm)),
    ],
    "exact_algebra.f2_rref": [("rows", "count", lambda st, asm: st["rows"])],
    "cohomology_q.subset_sum": [("terms", "count", lambda st, asm: st["terms"])],
}
# Layers whose call count says nothing the parent layer's does not.
NO_CALLS = {"cohomology_f2.en_relations", "cohomology_f2.assembly"}


def layer_metrics(spans: "Tracer", memory: "Tracer") -> Dict[str, tuple]:
    """name -> (value, unit) for every layer, in layer order."""
    assembly_s = spans.stats["cohomology_f2.assembly"]["total_s"]
    out: Dict[str, tuple] = {}
    for layer in LAYERS:
        st = spans.stats[layer]
        if layer not in NO_CALLS:
            out[f"{layer}.calls"] = (st["calls"], "count")
        out[f"{layer}.self_s"] = (st["self_s"], "s")
        for key, unit, derive in DERIVED.get(layer, ()):
            out[f"{layer}.{key}"] = (derive(st, assembly_s), unit)
        out[f"{layer}.tracemalloc_peak_kb"] = (memory.stats[layer]["peak_b"] / 1024, "KiB")
    return out


class Tracer:
    """Per-layer span totals: calls, total_s, self_s, counters, peak_b.

    total_s leaves out the time the tracer spent counting inside a span.
    """

    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.stats: Dict[str, Dict[str, float]] = {
            layer: defaultdict(float) for layer in LAYERS}
        self._stack: List[list] = []
        self._open: set = set()
        self._restore: list = []

    def install(self, mods) -> None:
        for owner_path, name, layer, count in BOUNDARIES:
            module, _, cls = owner_path.partition(".")
            owner = getattr(mods, module)
            if cls:
                owner = getattr(owner, cls, None)
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                continue
            setattr(owner, name, self._wrap(original, layer, count))
            self._restore.append((owner, name, original))

    def remove(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _wrap(self, fn: Callable, layer: str, count: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            if layer in self._open:
                return fn(*args, **kwargs)
            frame = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if count is not None:
                start = time.perf_counter()
                count(self.stats[layer], args, kwargs, result)
                if self._stack:  # counting is tracer overhead, not the parent's work
                    spent = time.perf_counter() - start
                    self._stack[-1][1] += spent
                    self._stack[-1][5] += spent
            return result

        return traced

    def _enter(self, layer: str) -> list:
        # frame: layer, child seconds, memory at entry, peak seen, start,
        # seconds of counting done inside the span
        frame = [layer, 0.0, 0, 0, 0.0, 0.0]
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent[3] = max(parent[3], peak)
            tracemalloc.reset_peak()
            frame[2] = frame[3] = current
        self._stack.append(frame)
        self._open.add(layer)
        frame[4] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        duration = time.perf_counter() - frame[4]
        self._stack.pop()
        self._open.discard(frame[0])
        st = self.stats[frame[0]]
        st["calls"] += 1
        st["total_s"] += duration - frame[5]
        st["self_s"] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
            self._stack[-1][5] += frame[5]
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            st["peak_b"] = max(st["peak_b"], max(frame[3], peak) - frame[2])
            if self._stack:
                parent = self._stack[-1]
                parent[3] = max(parent[3], peak)
