"""Self-test of the benchmark at toy size.

Usage (from the root of a checkout): python3 perfbench/selftest.py

1. Every workload, untraced and traced, prints every metric that
   BENCHMARK.json names, with its unit, and no failed op.
2. A planted wrong answer (a ``multiply`` that shifts the lattice part)
   counts as failed ops, and so in the fail ratio.
3. A planted deadline overrun (a child that sleeps past its deadline)
   is killed, reaped and counted as a failed op.

Exits 0 when all checks pass and 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_metrics(spec) -> list:
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", "0.2", "--trace", str(trace), "--toy"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = done.stdout.strip().splitlines()
            where = f"{workload} --trace {trace}"
            if done.returncode != 0 or not lines:
                problems.append(f"{where}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if got != expected:
                problems.append(f"{where}: metrics differ: {set(got) ^ set(expected)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {lines[-1][:200]}")
            for name, unit in expected.items():
                if not any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                           for line in lines):
                    problems.append(f"{where}: no readable line for {name}")
    return problems


def check_planted_wrong_answer() -> list:
    import run
    from workloads import Words

    mods = run.fresh_import()
    wl = Words(mods, 7, toy=True)
    ops = wl.round(0)
    hw = mods.hw_group
    honest = hw.multiply

    def wrong(a, b):
        g = honest(a, b)
        return hw.GroupElement(g.w, (g.t[0] + 1,) + g.t[1:])

    honest_results = [wl.run(op) for op in ops]
    hw.multiply = wrong
    try:
        # A shifted lattice part can cancel inside power or commutator,
        # so the planted answers are those that differ from the honest ones.
        planted = sum(wl.run(op) != good for op, good in zip(ops, honest_results))
        runner = run.Runner(wl, run.Speed())
        for op in ops:
            runner.op(op)
    finally:
        hw.multiply = honest
    if runner.failed != planted or planted == 0:
        return [f"planted wrong answers: {runner.failed} failed, {planted} planted"]
    return []


def check_planted_overrun(workdir: Path) -> list:
    import cli_load
    import run

    mods = run.fresh_import()
    wl = cli_load.Cli(mods, 7, True, workdir, ROOT)
    op = wl.round(0)[0]
    wl._command = lambda argv: [sys.executable, "-c", "import time; time.sleep(30)"]
    saved, cli_load.DEADLINE_S = cli_load.DEADLINE_S, 0.5
    start = time.perf_counter()
    try:
        runner = run.Runner(wl, run.Speed())
        runner.op(op)
    finally:
        cli_load.DEADLINE_S = saved
    elapsed = time.perf_counter() - start
    if runner.failed != 1 or elapsed > 10:
        return [f"planted overrun: {runner.failed} failed after {elapsed:.1f} s"]
    return []


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_metrics(spec) + check_planted_wrong_answer()
    with tempfile.TemporaryDirectory(prefix="_work-", dir=HERE) as workdir:
        problems += check_planted_overrun(Path(workdir))
    for problem in problems:
        print("FAIL " + problem)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
