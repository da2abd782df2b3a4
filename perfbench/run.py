"""Benchmark of hwgroups: seeded workloads, oracle-checked answers.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {spectral,words,probes,cli} \\
        --seed N --seconds S --trace {0,1} [--toy]

Runs the workload single-process, in whole rounds, until S seconds
have been spent inside operations and at least 100 operations have
run.  Each operation is timed alone and checked afterwards, outside
its timed span, by an oracle that does not go through the timed code.
Times are reported at a reference machine speed; see ``Speed``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give
the run record and every metric with its unit and sample count.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same operations three times (untraced, with spans, with spans and
tracemalloc) and reports the per-layer metrics instead.  ``--toy``
shrinks every input, for the self-test.  See RATIONALE.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_OPS = 100  # at least 10 samples beyond p90
TOY_MIN_OPS = 10
SETUP_REPEATS = 9
OP_DEADLINE_S = 60.0
WALL_CAP_S = 120.0
REFERENCE_S = 0.0055  # nominal time of one reference loop
SAMPLE_EVERY_S = 0.25
SAMPLE_WINDOW = 5
MODULES = ("hw_group", "crystal", "group_ring", "cohomology_f2", "cohomology_q",
           "exact_algebra", "quotient_w")


def fresh_import() -> SimpleNamespace:
    """Import hwgroups from scratch, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "hwgroups" or m.startswith("hwgroups.")]:
        del sys.modules[name]
    pkg = importlib.import_module("hwgroups")
    mods = {name: importlib.import_module(f"hwgroups.{name}") for name in MODULES}
    return SimpleNamespace(pkg=pkg, **mods)


def make_workload(name: str, mods, seed: int, toy: bool, workdir: Path):
    import workloads

    if name == "cli":
        from cli_load import Cli

        return Cli(mods, seed, toy, workdir, ROOT)
    return {"spectral": workloads.Spectral, "words": workloads.Words,
            "probes": workloads.Probes}[name](mods, seed, toy)


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop that never calls hwgroups.

    Tuple building, hashing, dict and set traffic, and a tuple grown by
    copying: the interpreter work the workloads do.  Its time tracks how
    fast the machine runs such work at the moment.  Changing this loop
    changes every reported time.
    """
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(10000):
        key = (i, i ^ 5, i * 3)
        table[key] = i
        acc += hash(key) & 7
    acc += len(set(table))
    grown: tuple = ()
    for i in range(700):
        grown = grown + (i,)
    return time.perf_counter() - start


class Speed:
    """Reference-loop samples over a run, for reporting times at a fixed
    machine speed.

    The machine the benchmark was tuned on runs the same computation up
    to 1.6x slower for seconds to minutes at a time.  A time measured at
    instant t is scaled by REFERENCE_S over the median of the
    SAMPLE_WINDOW reference samples nearest to t.  The benchmark's own
    loop absorbs the drift; a change in hwgroups does not.
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self.samples: List[float] = []

    def sample(self) -> None:
        self.times.append(time.perf_counter())
        self.samples.append(reference_loop())

    def sample_if_due(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, at: float) -> float:
        i = bisect.bisect(self.times, at)
        lo = max(0, min(i - SAMPLE_WINDOW // 2, len(self.samples) - SAMPLE_WINDOW))
        return REFERENCE_S / statistics.median(self.samples[lo:lo + SAMPLE_WINDOW])


def setup(name: str, seed: int, toy: bool, workdir: Path, speed: Speed):
    """Import plus generation of the first round, repeated; median time
    at reference speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        start = time.perf_counter()
        mods = fresh_import()
        wl = make_workload(name, mods, seed, toy, workdir)
        first = wl.round(0)
        times.append((time.perf_counter() - start) * speed.factor(start))
    return statistics.median(times), mods, wl, first


class Runner:
    """Runs ops one by one: prepare, timed run, untimed oracle."""

    def __init__(self, wl, speed: Speed) -> None:
        self.wl = wl
        self.speed = speed
        self.starts: List[float] = []
        self.durations: List[float] = []
        self.failed = 0
        self.failures: List[str] = []

    def op(self, op) -> None:
        wl = self.wl
        self.speed.sample_if_due()
        wl.prepare(op)
        gc.collect()  # every op starts from the same collector state
        start = time.perf_counter()
        try:
            result = wl.run(op)
            error = None
        except Exception as exc:  # an op that raises is a failed op
            result, error = None, exc
        duration = time.perf_counter() - start
        self.starts.append(start)
        self.durations.append(duration)
        if error is None and duration <= OP_DEADLINE_S:
            try:
                if wl.check(op, result):
                    return
                error = "wrong answer"
            except Exception as exc:  # a check that cannot run fails the op
                error = exc
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{_describe(op)}: {error!r}")

    @property
    def busy(self) -> float:
        return sum(self.durations)

    def scaled(self) -> List[float]:
        """Op durations at reference speed."""
        factor = self.speed.factor
        return [d * factor(t) for d, t in zip(self.durations, self.starts)]


def _describe(op) -> str:
    text = repr(op)
    return text if len(text) <= 160 else text[:157] + "..."


def run_rounds(wl, first, runner: Runner, seconds: float, min_ops: int,
               ops_log: List) -> None:
    """Whole rounds until `seconds` of op time and `min_ops` ops."""
    wall = time.perf_counter()
    r = 0
    ops = first
    while True:
        for op in ops:
            runner.op(op)
        ops_log.extend(ops)
        enough = runner.busy >= seconds and len(runner.durations) >= min_ops
        if enough or time.perf_counter() - wall > WALL_CAP_S:
            return
        r += 1
        ops = wl.round(r)


def record(args, mods, ops_log, speed: Speed) -> Dict:
    digest = hashlib.sha256()
    for op in ops_log:
        digest.update(repr(op).encode())
    source = hashlib.sha256()
    for path in sorted((SRC / "hwgroups").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "inputs_sha256": digest.hexdigest(),
        "inputs_ops": len(ops_log),
        "f2_backend": mods.pkg.F2_BACKEND,
        "reference_loop_s": {"nominal": REFERENCE_S,
                             "median": statistics.median(speed.samples),
                             "samples": len(speed.samples)},
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def hd_quantile(values: List[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics,
    so the estimate does not hang on the one or two ops that happen to
    sit at rank p*n.  The Beta weights come from a midpoint-rule
    integral of the density, 64 points per order statistic.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64
    total = 0.0
    for i, x in enumerate(xs):
        mass = 0.0
        for k in range(steps):
            u = (i + (k + 0.5) / steps) / n
            mass += math.exp(log_norm + (a - 1) * math.log(u) + (b - 1) * math.log1p(-u))
        total += x * mass / (steps * n)
    return total


def end_to_end(runner: Runner, setup_s: float, children: bool) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics; times are at reference speed."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    verified = len(runner.durations) - runner.failed
    scaled = runner.scaled()
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (hd_quantile(scaled, 0.5) * 1e3, "ms"),
        "op_p90_ms": (hd_quantile(scaled, 0.9) * 1e3, "ms"),
        "ops_per_s": (verified / sum(scaled), "1/s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def per_layer(spans, memory, overhead: float, cli_stats: Dict[str, float],
              guards: Tuple[int, int]) -> Dict[str, Tuple[float, str]]:
    from spans import layer_metrics

    out = layer_metrics(spans, memory)
    for key in ("spawn_s", "import_s", "process_s"):
        out[f"cli.{key}"] = (cli_stats.get(key, 0.0), "s")
    out["cli.guard.refused"] = (guards[0], "count")
    out["cli.guard.deadline_exceeded"] = (guards[1], "count")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def traced_run(wl, mods, first, seconds: float, speed: Speed):
    """Untraced, spanned and tracemalloc passes over the same ops."""
    from spans import Tracer

    plain = Runner(wl, speed)
    ops: List = []
    run_rounds(wl, first, plain, seconds / 3, 1, ops)
    spans, memory = Tracer(), Tracer(memory=True)
    runners = [plain]
    if wl.name == "cli":
        wl.traced = True
        runner = Runner(wl, speed)
        for op in ops:
            runner.op(op)
        runners.append(runner)
        guards = wl.run_guards()
    else:
        guards = (0, 0)
        for tracer in (spans, memory):
            runner = Runner(wl, speed)
            if tracer.memory:
                tracemalloc.start()
            tracer.install(mods)
            try:
                for op in ops:
                    runner.op(op)
            finally:
                tracer.remove()
                if tracer.memory:
                    tracemalloc.stop()
            runners.append(runner)
    overhead = sum(runners[1].scaled()) / sum(plain.scaled())
    cli_stats = wl.layer_medians() if wl.name == "cli" else {}
    metrics = per_layer(spans, memory, overhead, cli_stats, guards)
    return runners, ops, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("spectral", "words", "probes", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "hwgroups" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no hwgroups sources under {SRC}\n")
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    min_ops = TOY_MIN_OPS if args.toy else MIN_OPS
    workdir = Path(tempfile.mkdtemp(prefix="_work-", dir=HERE))
    try:
        speed = Speed()
        setup_s, mods, wl, first = setup(args.workload, args.seed, args.toy, workdir, speed)
        if args.trace:
            runners, ops, metrics = traced_run(wl, mods, first, args.seconds, speed)
        else:
            runner, ops = Runner(wl, speed), []
            run_rounds(wl, first, runner, args.seconds, min_ops, ops)
            runners = [runner]
            metrics = end_to_end(runner, setup_s, children=args.workload == "cli")
        speed.sample()
        info = record(args, mods, ops, speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(r.durations) for r in runners)
    failed = sum(r.failed for r in runners)
    print("record " + json.dumps(info, sort_keys=True))
    for r in runners:
        for line in r.failures:
            print("failure " + line)
    print(f"samples {attempted} ops, {failed} failed, "
          f"fail_ratio {failed / attempted:.6g} (failed / attempted)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
