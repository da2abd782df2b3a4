"""The cli workload: one fresh ``python -m hwgroups.cli`` process per op.

Each op is a command line with its expected exit code.  The oracle
renders the expected stdout from the in-process API, independently of
``hwgroups.cli``'s own rendering.  Children run one after another in a
scratch directory that holds the generated set files; a child still
running at its deadline is killed and counts as failed.

In a traced run the children start through ``child.py``, which times
interpreter start-up, ``import hwgroups.cli`` and ``main`` and reports
them on the last line of stderr.  The traced run also sends the guard
requests: inputs far over a resource bound, each of which should be
refused with exit code 2 and a message naming the bound.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

DEADLINE_S = 30.0
GUARD_DEADLINE_S = 2.0
TIMING_MARK = "perfbench-timing "
CHILD = Path(__file__).resolve().parent / "child.py"

# Commands of one round and how many of each; parameters are seeded.
CLI_ROUND = [
    ("nf", 3), ("mul", 3), ("inv", 3), ("ranks", 2), ("abelianization", 2),
    ("gamma3-verify", 1), ("mod2-check", 2), ("poincare", 4), ("e3-table", 3),
    ("en-basis", 2), ("torsion", 1), ("center", 1), ("fixed-point", 1),
    ("injectivity", 1), ("up-check", 3),
]
CLI_TOY = [("nf", 1), ("poincare", 1), ("up-check", 1), ("center", 1)]


@dataclass
class Child:
    """Outcome of one child process."""

    code: Optional[int]
    out: str
    err: str
    timed_out: bool
    timing: Optional[Dict[str, float]] = None


def run_child(cmd: List[str], cwd: Path, env: Dict[str, str], deadline: float) -> Child:
    """Run cmd to completion or kill it at the deadline; always reaped."""
    start = time.monotonic()
    with subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=deadline)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            return Child(None, out, err, True)
    timing = None
    head, _, last = err.rstrip("\n").rpartition("\n")
    if last.startswith(TIMING_MARK):
        timing = json.loads(last[len(TIMING_MARK):])
        timing["spawn_s"] = timing.pop("start") - start
        err = head + "\n" if head else ""
    return Child(proc.returncode, out, err, False, timing)


def _atoms(rng: random.Random, n: int, count: int) -> str:
    atoms = []
    for _ in range(count):
        i, e = rng.randint(1, n), rng.choice((-3, -2, -1, 1, 2, 3))
        atoms.append(f"x{i}" if e == 1 else f"x{i}^{e}")
    return " ".join(atoms)


def _vector(values) -> str:
    return "(" + ",".join(str(v) for v in values) + ")"


class Cli:
    name = "cli"

    def __init__(self, mods, seed: int, toy: bool, workdir: Path, root: Path) -> None:
        self.m = mods
        self.seed = seed
        self.mix = CLI_TOY if toy else CLI_ROUND
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.traced = False
        self.timings: List[Dict[str, float]] = []
        self._expected: Dict[Tuple[str, ...], Tuple[int, str]] = {}

    def round(self, r: int) -> List[tuple]:
        rng = random.Random(f"{self.seed}:{self.name}:{r}")
        ops = []
        for kind, count in self.mix:
            for j in range(count):
                ops.append(self._make(rng, kind, j, f"{r}-{j}"))
        rng.shuffle(ops)
        return ops

    def _make(self, rng: random.Random, kind: str, j: int, tag: str) -> tuple:
        """An op is (argv, {set file name: text}).

        Sizes that set a command's cost come from a fixed grid indexed by
        j, the op's place among those of its kind; the seed draws the rest.
        """
        n = rng.randint(2, 6)
        files: Dict[str, str] = {}
        if kind in ("nf", "inv"):
            argv = [kind, "--n", str(n), _atoms(rng, n, rng.randint(4, 40))]
        elif kind == "mul":
            argv = [kind, "--n", str(n), _atoms(rng, n, rng.randint(4, 40)),
                    _atoms(rng, n, rng.randint(4, 40))]
        elif kind == "ranks":
            argv = [kind, "--n", str((4, 10)[j % 2])]
        elif kind == "abelianization":
            argv = [kind, "--n", str((3, 8)[j % 2])]
        elif kind == "gamma3-verify":
            argv = [kind]
        elif kind == "mod2-check":
            argv = [kind, "--n", str((6, 14)[j % 2])]
        elif kind == "poincare":
            argv = [kind, "--n", str((2, 4, 6, 8)[j % 4]), "--field", rng.choice(("f2", "q")),
                    "--method", rng.choice(("spectral", "closed", "both"))]
        elif kind == "e3-table":
            argv = [kind, "--n", str((3, 6, 8)[j % 3])]
        elif kind == "en-basis":
            argv = [kind, "--n", str((3, 6)[j % 2])]
        elif kind == "torsion":
            argv = ["probe", kind, "--n", "3", "--radius", "3", "--kmax", "4"]
        elif kind == "center":
            argv = ["probe", kind, "--n", "3", "--radius", "3"]
        elif kind == "fixed-point":
            argv = ["probe", kind, "--n", "2", "--radius", "4"]
        elif kind == "injectivity":
            argv = ["probe", kind, "--radius", "5"]
        else:  # up-check
            n = rng.randint(2, 4)
            for side in ("x", "y"):
                name = f"{side}-{tag}.txt"
                lines = [_atoms(rng, n, rng.randint(1, 6)) for _ in range(rng.randint(5, 20))]
                files[name] = "# seeded set file\n" + "\n".join(lines) + "\n"
            argv = [kind, "--n", str(n), f"x-{tag}.txt", f"y-{tag}.txt"]
        for name, text in files.items():
            (self.workdir / name).write_text(text, encoding="utf-8")
        return (tuple(argv), files)

    def _command(self, argv) -> List[str]:
        if self.traced:
            return [sys.executable, str(CHILD), *argv]
        return [sys.executable, "-m", "hwgroups.cli", *argv]

    def prepare(self, op) -> None:
        pass

    def run(self, op) -> Child:
        child = run_child(self._command(op[0]), self.workdir, self.env, DEADLINE_S)
        if child.timing is not None:
            self.timings.append(child.timing)
        return child

    def check(self, op, child: Child) -> bool:
        argv = op[0]
        if argv not in self._expected:
            self._expected[argv] = self._render(list(argv))
        code, out = self._expected[argv]
        return not child.timed_out and child.code == code and child.out == out

    def _render(self, argv: List[str]) -> Tuple[int, str]:
        """Expected exit code and stdout, from the in-process API."""
        m = self.m
        hw = m.hw_group
        kind = argv[1] if argv[0] == "probe" else argv[0]
        n = int(argv[argv.index("--n") + 1]) if "--n" in argv else 2
        lines: List[str] = []
        code = 0
        if kind in ("nf", "mul", "inv"):
            g = hw.parse_element(argv[3], n)
            if kind == "mul":
                g = hw.multiply(g, hw.parse_element(argv[4], n))
            elif kind == "inv":
                g = hw.inverse(g)
            lines.append(hw.format_element(g))
        elif kind == "ranks":
            q = m.quotient_w
            details = q.kernel_rank_details(n)
            lines += [f"euler_wn: {q.euler_wn(n)}", f"commutator_rank: {q.commutator_rank(n)}",
                      f"commutator_index: {2 ** n}", f"kernel_rank_h: {details.rank}",
                      f"s: {details.s}", f"kernel_index: {details.index}",
                      f"euler_kernel: {details.euler}"]
        elif kind == "abelianization":
            factors = hw.abelianization_invariants(n)
            lines.append("invariant factors: (" + ",".join(map(str, factors)) + ")")
            if n - len(factors):
                lines.append(f"free rank: {n - len(factors)}")
        elif kind == "gamma3-verify":
            report = m.crystal.verify_hom_g2_gamma3()
            lines += ["A^-1 B^2 A B^2 identity: yes", "B^-1 A^2 B A^2 identity: yes",
                      f"A^2 translation: {_vector(report.a_squared.translation)}",
                      f"B^2 translation: {_vector(report.b_squared.translation)}", "pass"]
        elif kind == "mod2-check":
            lines += [f"rational: {m.cohomology_q.poincare_q_closed(n)}",
                      f"f2: {m.cohomology_f2.poincare_f2_closed(n)}", "congruent mod 2: yes"]
        elif kind == "poincare":
            field, method = argv[argv.index("--field") + 1], argv[argv.index("--method") + 1]
            if field == "f2":
                spectral = m.cohomology_f2.poincare_f2_spectral(n)
                closed = m.cohomology_f2.poincare_f2_closed(n)
            else:
                spectral = m.cohomology_q.poincare_q_spectral(n)
                closed = m.cohomology_q.poincare_q_closed(n)
            if method == "both":
                lines += [f"spectral: {spectral}", f"closed: {closed}",
                          "match: " + ("yes" if spectral == closed else "no")]
            else:
                lines.append(str(spectral if method == "spectral" else closed))
        elif kind == "e3-table":
            dims = m.cohomology_f2.e3_dims(n)
            lines += ["p,q,dim"] + [f"{p},{q},{dims[(p, q)]}" for p, q in sorted(dims)]
        elif kind == "en-basis":
            lines += [f"({e.bidegree[0]},{e.bidegree[1]}) {e}"
                      for e in m.cohomology_f2.en_basis(n)]
        elif kind == "up-check":
            ring = m.group_ring
            xs, ys = (ring.parse_set_file((self.workdir / name).read_text(), n)
                      for name in argv[3:5])
            tally = ring.product_tally(xs, ys)
            witnesses = ring.unique_product_witnesses(xs, ys)
            lines += [f"|X| = {len(xs)}, |Y| = {len(ys)}, products = {len(tally)}",
                      f"unique products: {len(witnesses)}"]
            lines += [hw.format_element(g) for g in witnesses]
            code = 1 if witnesses else 0
        else:
            lines.append(self._probe_line(kind, argv, n))
        return code, "".join(line + "\n" for line in lines)

    def _probe_line(self, kind: str, argv: List[str], n: int) -> str:
        """Probes are expected to find nothing, as the paper claims."""
        radius = int(argv[argv.index("--radius") + 1])
        hw, crystal = self.m.hw_group, self.m.crystal
        if kind == "torsion":
            kmax = int(argv[argv.index("--kmax") + 1])
            found = hw.torsion_probe(n, radius, kmax)
            label = f"probe=torsion n={n} radius={radius} kmax={kmax}"
        elif kind == "center":
            found = hw.center_probe(n, radius)
            label = f"probe=center n={n} radius={radius}"
        elif kind == "fixed-point":
            found = crystal.fixed_point_probe(n, radius)
            label = f"probe=fixed-point n={n} radius={radius}"
        else:
            found = crystal.injectivity_probe(radius)
            label = f"probe=injectivity n=2 radius={radius}"
        return f"{label} findings: {len(found)}"

    def guard_requests(self) -> List[List[str]]:
        """Over-bound requests; the parameters vary with the seed."""
        rng = random.Random(f"{self.seed}:{self.name}:guard")
        big = 10**8 + rng.randrange(10**6)
        return [
            ["poincare", "--n", str(rng.randint(13, 16)), "--field", "f2",
             "--method", "spectral"],
            ["e3-table", "--n", str(rng.randint(26, 30))],
            ["en-basis", "--n", str(rng.randint(24, 28))],
            ["nf", "--n", "2", f"x1^{big}"],
            ["probe", "torsion", "--n", "2", "--radius", "2", "--kmax", str(big)],
        ]

    def run_guards(self) -> Tuple[int, int]:
        """Counts of guard requests refused properly and killed at the deadline."""
        refused = exceeded = 0
        for argv in self.guard_requests():
            child = run_child(self._command(argv), self.workdir, self.env, GUARD_DEADLINE_S)
            exceeded += child.timed_out
            refused += child.code == 2 and "bound" in child.err
        return refused, exceeded

    def layer_medians(self) -> Dict[str, float]:
        keys = ("spawn_s", "import_s", "process_s")
        return {key: statistics.median(t[key] for t in self.timings) if self.timings else 0.0
                for key in keys}
