from __future__ import annotations

import argparse
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from hwgroups import cli, cohomology_f2, crystal, group_ring, hw_group
from hwgroups.cli import _check_size, build_parser, main
from hwgroups.exact_algebra import VerificationError


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_nf_text_is_byte_exact():
    code, out, err = run_cli("nf", "--n", "2", "x1 x2 x2 x1")
    assert code == 0
    assert out == "w =  | t = (1,-1)\n"
    assert err == ""


def test_nf_json_schema():
    code, out, _ = run_cli("nf", "--n", "2", "x1 x2^2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "n": 2,
        "w": [1],
        "t": [0, 1],
        "text": "w = x1 | t = (0,1)",
    }


def test_nf_parse_error_exits_2():
    code, out, err = run_cli("nf", "--n", "2", "x1 zz")
    assert code == 2
    assert out == ""
    assert "parse error" in err and "position" in err


def test_mul_and_inv():
    code, out, _ = run_cli("mul", "--n", "3", "x1 x2", "x2^-1 x1^-1")
    assert code == 0
    assert out == "w =  | t = (0,0,0)\n"
    code, out, _ = run_cli("inv", "--n", "2", "x1")
    assert code == 0
    assert out == "w = x1 | t = (-1,0)\n"


def test_identical_invocations_are_identical():
    first = run_cli("poincare", "--n", "5", "--field", "f2", "--format", "json")
    second = run_cli("poincare", "--n", "5", "--field", "f2", "--format", "json")
    assert first == second


def test_poincare_both_text():
    code, out, _ = run_cli("poincare", "--n", "2", "--field", "f2")
    assert code == 0
    assert out.splitlines() == [
        "spectral: 1 + 2*x + 2*x^2 + x^3",
        "closed: 1 + 2*x + 2*x^2 + x^3",
        "match: yes",
    ]


def test_poincare_q_json_coefficients_low_degree_first():
    code, out, _ = run_cli("poincare", "--n", "2", "--field", "q",
                           "--method", "closed", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == [1, 0, 0, 1]
    assert payload["field"] == "q"


def test_poincare_bounds():
    code, _, err = run_cli("poincare", "--n", "20", "--field", "f2",
                           "--method", "spectral")
    assert code == 2 and "--unsafe-large" in err
    code, _, _ = run_cli("poincare", "--n", "20", "--field", "f2",
                         "--method", "closed")
    assert code == 0
    code, _, err = run_cli("poincare", "--n", "14287", "--field", "f2",
                           "--method", "closed")
    assert code == 2
    code, _, _ = run_cli("poincare", "--n", "20", "--field", "q",
                         "--method", "spectral", "--unsafe-large")
    assert code == 0
    # a closed form costs milliseconds, and 2^16 subsets are under the budget
    for argv in (("poincare", "--field", "q", "--method", "closed", "--n", "21"),
                 ("poincare", "--field", "f2", "--method", "spectral", "--n", "16")):
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, "") and out


def _size_refused(*argv):
    try:
        _check_size(build_parser().parse_args(argv))
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("argv, count", [
    (("e3-table", "--n", "26"), "2^26 subsets"),
    (("en-basis", "--n", "24"), "24*2^24 pairs (i, A)"),
    (("poincare", "--field", "f2", "--method", "spectral", "--n", "20"), "2^20 subsets"),
    (("nf", "--n", "10000000", "x1"), "10000000 coordinates"),
    (("abelianization", "--n", "10000000"), "10000000 coordinates"),
    (("probe", "torsion", "--n", "4000", "--radius", "1", "--kmax", "2"),
     "at least 32004000 coordinates"),
    # the estimate must not build 2^n
    (("e3-table", "--n", "1000000000"), "2^1000000000 subsets"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_oversized_requests_are_refused_at_once(argv, count):
    n = argv[argv.index("--n") + 1]
    assert _size_refused(*argv)  # else running it would take minutes and GBs
    start = time.perf_counter()
    code, out, err = run_cli(*argv)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err.startswith(f"error: n={n}: ") and err.count("\n") == 1
    assert f" enumerates {count}, " in err and "bound 1000000" in err


@pytest.mark.parametrize("argv, first_refused", [
    (("e3-table",), 20),
    (("poincare", "--field", "q", "--method", "spectral"), 20),
    (("poincare", "--field", "f2", "--method", "both"), 20),
    (("en-basis",), 16),
    (("nf", "x1"), 1000001),
    (("abelianization",), 1000001),
    (("up-check", "x.txt", "y.txt"), 1000001),
    (("probe", "torsion", "--radius", "1", "--kmax", "2"), 707),
    (("probe", "center", "--radius", "1"), 707),
    (("probe", "fixed-point", "--radius", "1"), 707),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_size_check_refuses_from_the_first_n_over_the_budget(argv, first_refused):
    # The check runs on the parsed arguments alone; no work is done.
    assert not _size_refused(*argv, "--n", str(first_refused - 1))
    assert _size_refused(*argv, "--n", str(first_refused))
    if argv[0] == "poincare":
        assert not _size_refused(*argv, "--n", str(first_refused), "--unsafe-large")


def _perfbench_cli_load(monkeypatch):
    """perfbench/cli_load.py, imported without writing into perfbench/."""
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "perfbench" / "cli_load.py"
    spec = importlib.util.spec_from_file_location("cli_load", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, "cli_load", module)
    spec.loader.exec_module(module)
    return module


def test_size_check_admits_the_benchmarks_requests(tmp_path, monkeypatch):
    # A count that refused an op of the cli workload would make it report
    # wrong outputs; its two exponential guard requests must be refused.
    cli_load = _perfbench_cli_load(monkeypatch)
    for seed in (1, 2, 3):
        load = cli_load.Cli(None, seed, False, tmp_path, tmp_path)
        for r in range(3):
            for argv, _ in load.round(r):
                if "--n" in argv:
                    assert not _size_refused(*argv), argv
        guards = {argv[0]: argv for argv in load.guard_requests()}
        assert _size_refused(*guards["e3-table"]) and _size_refused(*guards["en-basis"])


def test_e3_table_csv():
    code, out, _ = run_cli("e3-table", "--n", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,q,dim"
    assert "0,0,1" in lines
    assert "1,1,2" in lines
    assert "2,1,1" in lines
    # five p values, q from 0 to n
    assert len(lines) == 1 + 5 * 3


def test_en_basis_output():
    code, out, _ = run_cli("en-basis", "--n", "2")
    assert code == 0
    assert out.splitlines() == [
        "(0,0) 1",
        "(1,0) z1",
        "(1,0) z2",
        "(1,1) z1*g2",
        "(1,1) z2*g1",
        "(2,1) [z1^2*g2]",
    ]


class _CountingSink(io.TextIOBase):
    """A stdout that keeps only the number of characters written."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)


def test_json_output_is_streamed_not_built_whole(monkeypatch):
    # In either format, rendering adds far less to the tracemalloc peak the
    # command reached than the output's length, so the output is never
    # held as one string.
    from hwgroups import cli

    command = cli.cmd_en_basis
    for fmt in ("text", "json"):
        at_return = []

        def traced(args):
            result = command(args)
            at_return.append(tracemalloc.get_traced_memory()[1])
            return result

        monkeypatch.setattr(cli, "cmd_en_basis", traced)
        sink = _CountingSink()
        with redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(["en-basis", "--n", "12", "--format", fmt]) == 0
                rendering = tracemalloc.get_traced_memory()[1] - at_return[0]
            finally:
                tracemalloc.stop()
        assert rendering < sink.size / 4, (fmt, rendering, sink.size)


def test_abelianization_output():
    code, out, _ = run_cli("abelianization", "--n", "3")
    assert code == 0
    assert out == "invariant factors: (4,4,4)\n"
    code, out, _ = run_cli("abelianization", "--n", "1", "--format", "json")
    payload = json.loads(out)
    assert payload == {"n": 1, "invariant_factors": [], "free_rank": 1}


def test_ranks_output():
    code, out, _ = run_cli("ranks", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "n": 3,
        "euler_wn": "-1/2",
        "commutator_rank": 5,
        "commutator_index": 8,
        "kernel_rank_h": 3,
        "s": 2,
        "kernel_index": 4,
        "euler_kernel": "-2",
    }
    code, _, _ = run_cli("ranks", "--n", "1")
    assert code == 2


def test_gamma3_verify():
    code, out, _ = run_cli("gamma3-verify")
    assert code == 0
    assert out.splitlines()[-1] == "pass"
    code, out, _ = run_cli("gamma3-verify", "--format", "json")
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["a_squared_translation"] == ["1", "0", "0"]


def test_action_command():
    code, out, _ = run_cli("action", "--n", "2", "x1", "--vector", "1/2,0")
    assert code == 0
    assert out == "(1,0)\n"
    code, _, err = run_cli("action", "--n", "2", "x1", "--vector", "1/2")
    assert code == 2 and "entries" in err
    code, _, err = run_cli("action", "--n", "2", "x1", "--vector", "a,b")
    assert code == 2


def test_action_refuses_exponent_notation_at_once():
    # Fraction("1e50000000") would build a 50-million-digit integer.
    for entry in ("1e50000000", "1E5"):
        start = time.perf_counter()
        code, out, err = run_cli("action", "--n", "1", "x1", "--vector", entry)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err.startswith(f"error: bad vector entry '{entry}'")


def test_over_long_numbers_are_parse_errors():
    digits = "9" * 5000
    for word in (f"x1 x1^{digits}", f"x1 x{digits}"):
        start = time.perf_counter()
        code, out, err = run_cli("nf", "--n", "2", word)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("parse error: ") and "(at position 3)" in err


def test_oversized_coordinate_names_the_limit():
    # each atom parses, but the summed coordinate has 4301 digits
    eights = "8" * 4300
    word = f"x1^{eights} x1^{eights} x1^{eights}"
    message = ("error: lattice coordinate t_1 has more than 4300 digits, "
               "the limit of sys.get_int_max_str_digits()\n")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for argv in (("nf", "--n", "2", word), ("inv", "--n", "2", word),
                     ("mul", "--n", "2", word, "x2")):
            for fmt in ("text", "json"):
                assert run_cli(*argv, "--format", fmt) == (2, "", message)
    finally:
        sys.set_int_max_str_digits(limit)


def test_action_names_the_digit_limit():
    # a 5000-digit denominator cannot be read; a 4300-digit entry can, but
    # x1 maps it to (2 * 9...9 + 1)/2, whose numerator has 4301 digits
    cases = (("1/" + "1" * 5000 + ",0",
              "error: bad vector entry '1/111111111111111111': a number has more "
              "than 4300 digits, the limit of sys.get_int_max_str_digits()\n"),
             ("9" * 4300 + ",0",
              "error: output coordinate 1 has more than 4300 digits, "
              "the limit of sys.get_int_max_str_digits()\n"))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for vector, message in cases:
            for fmt in ("text", "json"):
                assert run_cli("action", "--n", "2", "x1", "--vector", vector,
                               "--format", fmt) == (2, "", message)
    finally:
        sys.set_int_max_str_digits(limit)


def test_ranks_refuses_oversized_fields_by_the_limit():
    # at the default limit of 4300 digits, commutator_rank of n = 14272 is
    # the first field with more digits than str converts
    limit = sys.get_int_max_str_digits()
    try:
        for digits, n, ok in ((4300, 14271, True), (4300, 14272, False),
                              (640, 14271, False)):
            sys.set_int_max_str_digits(digits)
            for fmt in ("text", "json"):
                code, out, err = run_cli("ranks", "--n", str(n), "--format", fmt)
                if ok:
                    assert (code, err) == (0, "")
                    assert "kernel_rank_h" in out
                else:
                    assert (code, out) == (2, "")
                    assert err == (f"error: n={n}: commutator_rank has more than "
                                   f"{digits} digits, the limit of "
                                   "sys.get_int_max_str_digits()\n")
    finally:
        sys.set_int_max_str_digits(limit)


def test_ranks_refuses_a_huge_n_before_computing():
    # commutator_rank >= 2^(n-1), which alone has more digits than the limit
    limit = sys.get_int_max_str_digits()
    for fmt in ("text", "json"):
        start = time.perf_counter()
        code, out, err = run_cli("ranks", "--n", "1000000000", "--format", fmt)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (f"error: n=1000000000: commutator_rank has more than {limit} "
                       "digits, the limit of sys.get_int_max_str_digits()\n")
    # a limit of 0 means no limit
    try:
        sys.set_int_max_str_digits(0)
        code, out, err = run_cli("ranks", "--n", "14300")
        assert (code, err) == (0, "")
        assert "kernel_rank_h" in out
    finally:
        sys.set_int_max_str_digits(limit)


def _series_refusal(n, digits):
    return (f"error: n={n}: a coefficient has more than {digits} digits, "
            "the limit of sys.get_int_max_str_digits()\n")


def test_closed_forms_refuse_a_huge_n_before_computing():
    # the largest coefficient is at least 2^(n-2), which alone has more
    # digits than the limit once n - 2 >= 14285, the bit length of 10^4300
    limit = sys.get_int_max_str_digits()
    for argv in (("poincare", "--field", "f2", "--method", "closed", "--n", "14300",
                  "--unsafe-large"),
                 ("poincare", "--field", "q", "--n", "14300", "--unsafe-large"),
                 ("mod2-check", "--n", "14400")):
        for fmt in ("text", "json"):
            start = time.perf_counter()
            result = run_cli(*argv, "--format", fmt)
            assert time.perf_counter() - start < 0.5, argv
            assert result == (2, "", _series_refusal(argv[argv.index("--n") + 1], limit))


def test_closed_forms_name_the_limit_below_the_refusal():
    # at 640 digits the up-front refusal starts at n = 2129, and the F_2
    # and Q series first exceed the limit at n = 2121 and 2122
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for field, last_ok in (("f2", 2120), ("q", 2121)):
            for n, method in ((last_ok, "closed"), (last_ok + 1, "closed"),
                              (2129, "both")):
                argv = ("poincare", "--field", field, "--method", method,
                        "--n", str(n), "--unsafe-large")
                code, out, err = run_cli(*argv)
                if n == last_ok:
                    assert (code, err) == (0, "") and out
                else:
                    assert (code, out, err) == (2, "", _series_refusal(n, 640))
        assert run_cli("mod2-check", "--n", "2120")[0] == 0
        assert run_cli("mod2-check", "--n", "2122") == (2, "", _series_refusal(2122, 640))
    finally:
        sys.set_int_max_str_digits(limit)


def test_probe_commands_find_nothing():
    code, out, _ = run_cli("probe", "torsion", "--n", "2",
                           "--radius", "3", "--kmax", "6")
    assert code == 0
    assert out.endswith("findings: 0\n")
    code, out, _ = run_cli("probe", "center", "--n", "2", "--radius", "3")
    assert code == 0
    code, out, _ = run_cli("probe", "fixed-point", "--n", "2", "--radius", "3")
    assert code == 0
    code, out, _ = run_cli("probe", "injectivity", "--radius", "3",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["findings"] == []


def test_torsion_probe_answers_a_huge_kmax_at_once():
    start = time.perf_counter()
    code, out, err = run_cli("probe", "torsion", "--n", "2", "--radius", "2",
                             "--kmax", "100000000")
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert out == "probe=torsion n=2 radius=2 kmax=100000000 findings: 0\n"


def test_the_largest_admitted_center_probe_answers_within_a_second():
    # n = 706 is the largest rank the size check admits for a probe
    start = time.perf_counter()
    proc = _run_process("probe", "center", "--n", "706", "--radius", "1")
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "probe=center n=706 radius=1 findings: 0\n"


PROBE_ARGV = {
    "torsion": ("probe", "torsion", "--n", "3", "--radius", "6", "--kmax", "2"),
    "center": ("probe", "center", "--n", "3", "--radius", "6"),
    "fixed-point": ("probe", "fixed-point", "--n", "2", "--radius", "6"),
    "injectivity": ("probe", "injectivity", "--radius", "6"),
}


def test_probe_budget_guard_exits_2(monkeypatch):
    # Each probe's ball is ``hw_group._ball_words``; shrink its bound to 10.
    monkeypatch.setattr(hw_group, "DEFAULT_BALL_BUDGET", 10)
    for argv in PROBE_ARGV.values():
        assert run_cli(*argv) == (2, "", "resource guard: ball exceeds budget "
                                         "of 10 elements\n"), argv


def test_probes_take_their_bound_from_ball_alone(monkeypatch):
    # Each probe reads its ball once from hw_group._ball_words, which
    # applies the bound, and none wraps the whole ball through ball.
    calls = []
    honest = hw_group._ball_words

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return honest(*args, **kwargs)

    def wrapped(*args, **kwargs):
        raise AssertionError("a probe called ball")

    monkeypatch.setattr(hw_group, "_ball_words", recorded)
    monkeypatch.setattr(crystal, "_ball_words", recorded)
    monkeypatch.setattr(hw_group, "ball", wrapped)
    for kind, argv in PROBE_ARGV.items():
        calls.clear()
        assert run_cli(*argv)[0] == 0, kind
        n = 2 if kind == "injectivity" else int(argv[3])
        assert calls == [((n, 6), {})], kind
    # No option lifts the ball's bound, so argparse refuses this at once.
    start = time.perf_counter()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exit_:
        main(["probe", "center", "--n", "4", "--radius", "9", "--budget", "100000000"])
    assert time.perf_counter() - start < 1.0
    assert (exit_.value.code, out.getvalue()) == (2, "")
    assert "unrecognized arguments: --budget 100000000" in err.getvalue()


def test_up_check(tmp_path):
    x_file = tmp_path / "x.txt"
    y_file = tmp_path / "y.txt"
    x_file.write_text("# singleton\nx1\n")
    y_file.write_text("x1\nx1^-1\n")
    code, out, _ = run_cli("up-check", "--n", "2", str(x_file), str(y_file))
    # both products of a singleton set are unique, so verification fails
    assert code == 1
    assert "unique products: 2" in out

    code, out, _ = run_cli("up-check", "--n", "2", str(x_file), str(y_file),
                           "--format", "json")
    payload = json.loads(out)
    assert payload["x_size"] == 1 and payload["y_size"] == 2
    assert len(payload["unique_products"]) == 2

    missing = tmp_path / "nope.txt"
    code, _, err = run_cli("up-check", "--n", "2", str(x_file), str(missing))
    assert code == 2 and "cannot read" in err

    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    code, _, err = run_cli("up-check", "--n", "2", str(x_file), str(empty))
    assert code == 2 and "at least one" in err

    bad = tmp_path / "bad.txt"
    bad.write_text("x1\nx7\n")
    code, _, err = run_cli("up-check", "--n", "2", str(x_file), str(bad))
    assert code == 2 and "line 2" in err


def test_up_check_multiplies_each_pair_once(tmp_path, monkeypatch):
    # The witnesses are read off the same tally that counts the products,
    # and that tally multiplies each distinct pair of words once.
    tallies, pairs = [], []
    honest_products, honest_kernel = hw_group.products, hw_group._mul_words

    def counted_products(xs, ys):
        tallies.append((xs, ys))
        return honest_products(xs, ys)

    def counted_kernel(u, v, n):
        pairs.append((u, v))
        return honest_kernel(u, v, n)

    monkeypatch.setattr(group_ring, "products", counted_products)
    monkeypatch.setattr(hw_group, "_mul_words", counted_kernel)
    files = _set_files(tmp_path)
    code, out, _ = run_cli("up-check", "--n", "2", files["x"], files["y"])
    assert code == 1
    assert out.startswith("|X| = 2, |Y| = 3, ")
    assert len(tallies) == 1
    # X has the words x1 and x2 x1; Y = {x1, x1^-1, x2} has x1 and x2.
    assert sorted(pairs) == [((1,), (1,)), ((1,), (2,)), ((2, 1), (1,)), ((2, 1), (2,))]


def test_up_check_refuses_more_products_than_the_budget(tmp_path):
    # x1^(2k) = tau(k e_1), so each file holds distinct elements.
    x_file, y_file = tmp_path / "x.txt", tmp_path / "y.txt"
    x_file.write_text("".join(f"x1^{2 * k}\n" for k in range(1, 1002)))
    y_file.write_text("".join(f"x1^{2 * k}\n" for k in range(1, 1001)))
    start = time.perf_counter()
    code, out, err = run_cli("up-check", "--n", "1", str(x_file), str(y_file))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == ("error: n=1: up-check enumerates 1001*1000 = 1001000 pairs (x, y), "
                   "more than the enumeration bound 1000000\n")


def test_up_check_refuses_a_set_file_over_the_budget_before_parsing(tmp_path, monkeypatch):
    # 1,000,001 duplicate lines would collapse to one element, but the
    # lines are counted, and refused, before either file is parsed.
    big, one = tmp_path / "big.txt", tmp_path / "one.txt"
    big.write_text("# comments and blank lines are not counted\n\n" + "x1\n" * 1_000_001)
    one.write_text("x1\n")
    for files in ((big, one), (one, big)):
        start = time.perf_counter()
        code, out, err = run_cli("up-check", "--n", "1", *map(str, files))
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (2, "")
        assert err == (f"error: n=1: up-check enumerates 1000001 element lines in {big}, "
                       "more than the enumeration bound 1000000\n")
    # at the bound the file is parsed, and its duplicates collapse
    monkeypatch.setattr(cli, "DEFAULT_BALL_BUDGET", 3)
    big.write_text("x1\n" * 3)
    code, out, _ = run_cli("up-check", "--n", "1", str(big), str(one))
    assert code == 1 and out.startswith("|X| = 1, |Y| = 1, products = 1\n")
    big.write_text("x1\n" * 4)
    assert run_cli("up-check", "--n", "1", str(big), str(one))[0] == 2


@pytest.mark.parametrize("blank", ["\n", "\r\n", "  \n", "\x85"])
@pytest.mark.parametrize("tail", ["", "# a comment\n"])
def test_up_check_counts_a_million_blank_lines_in_linear_time(tmp_path, blank, tail):
    # a run of blank lines holds no element line: it is scanned once and
    # then refused as an empty set file
    empty, one = tmp_path / "empty.txt", tmp_path / "one.txt"
    empty.write_bytes((blank * 10**6 + tail).encode("utf-8"))
    one.write_text("x1\n")
    start = time.perf_counter()
    code, out, err = run_cli("up-check", "--n", "1", str(empty), str(one))
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert err == "error: set files must contain at least one element each\n"


def test_mod2_check():
    code, out, _ = run_cli("mod2-check", "--n", "4")
    assert code == 0
    assert out.splitlines()[-1] == "congruent mod 2: yes"
    code, _, err = run_cli("mod2-check", "--n", "3")
    assert code == 2 and "even" in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        run_cli("poincare", "--n", "2")
    assert err.value.code == 2


GOLDEN = Path(__file__).with_name("cli_golden.txt")
_GOLDEN_HEADER = re.compile(r"=== exit (\d+)( with fake findings)?: (.*)")


def _golden_cases():
    cases = []
    for line in GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True):
        header = _GOLDEN_HEADER.fullmatch(line.rstrip("\n"))
        if header:
            code, fake, command = header.groups()
            cases.append([shlex.split(command), int(code), bool(fake), ""])
        elif cases:
            cases[-1][3] += line
    return [pytest.param(*case, id=" ".join(case[0]) + (" fake" if case[2] else ""))
            for case in cases]


def _set_files(tmp_path):
    (tmp_path / "x.txt").write_text("# x\nx1\nx2 x1\n")
    (tmp_path / "y.txt").write_text("x1\nx1^-1\n\nx2\n")
    (tmp_path / "empty.txt").write_text("# nothing\n")
    return {name: str(tmp_path / f"{name}.txt")
            for name in ("x", "y", "missing", "empty")}


def _fake_findings(monkeypatch):
    g = hw_group.parse_element("x1 x2", 2)
    h = hw_group.parse_element("x2^3", 2)
    monkeypatch.setattr(hw_group, "torsion_probe", lambda *args: [(g, 4)])
    monkeypatch.setattr(hw_group, "center_probe", lambda *args: [g])
    monkeypatch.setattr(crystal, "fixed_point_probe",
                        lambda *args: [(g, (Fraction(1, 2), Fraction(-3)))])
    monkeypatch.setattr(crystal, "injectivity_probe", lambda *args: [(g, h)])


@pytest.mark.parametrize("argv, code, fake, stdout", _golden_cases())
def test_pinned_output(argv, code, fake, stdout, tmp_path, monkeypatch):
    # Stdout and exit code of every subcommand in every format, byte for byte.
    files = _set_files(tmp_path)
    if fake:
        _fake_findings(monkeypatch)
    got_code, got_out, _ = run_cli(*(arg.format(**files) for arg in argv))
    assert (got_code, got_out) == (code, stdout)


@pytest.mark.parametrize("argv, message", [
    (("poincare", "--n", "20", "--field", "f2", "--method", "spectral"),
     "n=20: poincare enumerates 2^20 subsets, more than the enumeration bound 1000000 "
     "(pass --unsafe-large to force)"),
    (("poincare", "--n", "14287", "--field", "q", "--method", "closed"),
     f"n=14287: a coefficient has more than {sys.get_int_max_str_digits()} digits, "
     "the limit of sys.get_int_max_str_digits()"),
    (("mod2-check", "--n", "3"), "mod-2 congruence is only claimed for even n"),
    (("up-check", "--n", "2", "{x}", "{empty}"),
     "set files must contain at least one element each"),
    (("probe", "torsion", "--n", "2", "--radius", "1", "--kmax", "0"),
     "radius and exponent bound must be at least 1"),
    (("probe", "injectivity", "--radius", "0"), "radius must be at least 1"),
    (("probe", "center", "--n", "2", "--radius", "0"), "radius must be at least 1"),
])
def test_refusals_name_their_bound(argv, message, tmp_path):
    files = _set_files(tmp_path)
    code, out, err = run_cli(*(arg.format(**files) for arg in argv))
    assert (code, out) == (2, "")
    assert err.removeprefix("error: ") == message + "\n"


def _raise(exc):
    def planted(*args):
        raise exc
    return planted


@pytest.mark.parametrize("argv, planted, code, message", [
    (("nf", "--n", "2", "x1 zz"), None, 2, "parse error: bad atom 'zz' (at position 3)"),
    (("probe", "center", "--n", "3", "--radius", "6"),
     (hw_group, "DEFAULT_BALL_BUDGET", 10), 2,
     "resource guard: ball exceeds budget of 10 elements"),
    (("e3-table", "--n", "3"),
     (cohomology_f2, "e3_dims", _raise(VerificationError("planted"))), 1,
     "verification failed: planted"),
    (("poincare", "--n", "20", "--field", "f2", "--method", "spectral"), None, 2,
     "error: n=20: poincare enumerates 2^20 subsets, more than the enumeration bound "
     "1000000 (pass --unsafe-large to force)"),
], ids=["parse", "guard", "verification", "value"])
def test_main_maps_each_library_error(argv, planted, code, message, monkeypatch):
    if planted is not None:
        monkeypatch.setattr(*planted)
    assert run_cli(*argv) == (code, "", message + "\n")


def test_main_lets_other_errors_through(monkeypatch):
    monkeypatch.setattr(cohomology_f2, "e3_dims", _raise(RuntimeError("planted")))
    with pytest.raises(RuntimeError, match="planted"):
        run_cli("e3-table", "--n", "3")


def _run_process(*argv, importtime=False):
    """``python -m hwgroups.cli argv`` in a fresh interpreter."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(hw_group.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    flags = ["-X", "importtime"] if importtime else []
    return subprocess.run([sys.executable, *flags, "-m", "hwgroups.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+\d+ \| +(\S+)")
HW = {"hw_group"}
F2 = {"cohomology_f2", "exact_algebra"}
Q = {"cohomology_q", "exact_algebra"}
CRYSTAL = {"crystal", "hw_group"}


# Per command line: its exit code and the package modules it imports in
# a fresh process besides hwgroups itself (``python -m`` runs cli as
# __main__), so that a later top-level import cannot add one unseen.
IMPORT_SETS = [
    (("nf", "--n", "2", "x1 x2"), 0, HW),
    (("nf", "--n", "2", "x1 zz"), 2, HW),
    (("mul", "--n", "2", "x1", "x2", "--format", "json"), 0, HW),
    (("inv", "--n", "2", "x1 x2"), 0, HW),
    (("poincare", "--n", "3", "--field", "f2"), 0, F2),
    (("poincare", "--n", "3", "--field", "q"), 0, Q),
    (("e3-table", "--n", "3"), 0, F2),
    (("en-basis", "--n", "3"), 0, F2),
    (("mod2-check", "--n", "4"), 0, F2 | Q),
    (("abelianization", "--n", "3"), 0, HW),
    (("ranks", "--n", "4"), 0, {"quotient_w"}),
    (("gamma3-verify",), 0, CRYSTAL),
    (("action", "--n", "2", "x1", "--vector", "1/2,0"), 0, CRYSTAL),
    (("probe", "torsion", "--n", "2", "--radius", "2", "--kmax", "3"), 0, HW),
    (("probe", "center", "--n", "2", "--radius", "2"), 0, HW),
    (("probe", "center", "--n", "2", "--radius", "0"), 2, HW),
    (("probe", "fixed-point", "--n", "2", "--radius", "2"), 0, CRYSTAL),
    (("probe", "injectivity", "--radius", "2"), 0, CRYSTAL),
    (("up-check", "--n", "2", "{x}", "{y}"), 1, {"group_ring", "hw_group"}),
]


# The commands whose results hold a Fraction, and so the only ones that
# load ``fractions``.  No command loads ``dataclasses`` or ``inspect``.
FRACTION_COMMANDS = {"ranks", "gamma3-verify", "action", "probe fixed-point",
                     "probe injectivity"}


@pytest.mark.parametrize("argv, code, modules",
                         [pytest.param(*case, id=" ".join(case[0])) for case in IMPORT_SETS])
def test_commands_load_only_their_modules(argv, code, modules, tmp_path):
    files = _set_files(tmp_path)
    proc = _run_process(*(arg.format(**files) for arg in argv), importtime=True)
    loaded = {m for m in _IMPORT_LINE.findall(proc.stderr) if m.split(".")[0] == "hwgroups"}
    assert proc.returncode == code, proc.stderr
    assert loaded == {"hwgroups"} | {f"hwgroups.{m}" for m in modules}
    # What the process imports once interpreter start-up (site) is done.
    after_site = set(_IMPORT_LINE.findall(proc.stderr.split("| site\n", 1)[-1]))
    command = " ".join(argv[:2]) if argv[0] == "probe" else argv[0]
    assert after_site & {"dataclasses", "inspect", "fractions"} == (
        {"fractions"} if command in FRACTION_COMMANDS else set())


def test_abelianization_of_rank_800_answers_at_once():
    # n = 20000 once built 4 * 10^8 dense matrix entries
    for n in (800, 20000):
        start = time.perf_counter()
        proc = _run_process("abelianization", "--n", str(n))
        assert time.perf_counter() - start < 1.0, n
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "invariant factors: (" + ",".join(["4"] * n) + ")\n"


N = ("--n", None, None, True)
FORMAT = ("--format", ("text", "json"), "text", False)
RADIUS = ("--radius", None, None, True)
WORD = ("word", None, None, True)

# Per subcommand: the --n minimum, then each argument in order as
# (option string or positional name, choices, default, required).
PARSER_PINS = {
    "nf": (0, [N, WORD, FORMAT]),
    "mul": (0, [N, ("left", None, None, True), ("right", None, None, True), FORMAT]),
    "inv": (0, [N, WORD, FORMAT]),
    "poincare": (0, [N, ("--field", ("f2", "q"), None, True),
                     ("--method", ("spectral", "closed", "both"), "both", False),
                     ("--unsafe-large", None, False, False), FORMAT]),
    "e3-table": (0, [N, ("--format", ("csv", "json"), "csv", False)]),
    "en-basis": (0, [N, FORMAT]),
    "abelianization": (1, [N, FORMAT]),
    "ranks": (2, [N, FORMAT]),
    "gamma3-verify": (None, [FORMAT]),
    "action": (0, [N, WORD, ("--vector", None, None, True), FORMAT]),
    "probe torsion": (1, [N, RADIUS, ("--kmax", None, None, True), FORMAT]),
    "probe center": (2, [N, RADIUS, FORMAT]),
    "probe fixed-point": (2, [N, RADIUS, FORMAT]),
    "probe injectivity": (None, [RADIUS, FORMAT]),
    "up-check": (1, [N, ("x_file", None, None, True), ("y_file", None, None, True),
                     FORMAT]),
    "mod2-check": (0, [N, FORMAT]),
}


def _subparsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _commands():
    out = {}
    for name, parser in _subparsers(build_parser()).items():
        kinds = _subparsers(parser)
        for kind, sub in kinds.items():
            out[f"{name} {kind}"] = sub
        if not kinds:
            out[name] = parser
    return out


def test_parser_has_exactly_the_pinned_commands():
    assert sorted(_commands()) == sorted(PARSER_PINS)


@pytest.mark.parametrize("command", sorted(PARSER_PINS))
def test_help_and_options(command):
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as exit_:
        main([*command.split(), "--help"])
    assert exit_.value.code == 0
    assert out.getvalue().startswith(f"usage: hwgroups {command} [-h]")
    parser = _commands()[command]
    arguments = [
        (action.option_strings[0] if action.option_strings else action.dest,
         tuple(action.choices) if action.choices else None,
         action.default, action.required)
        for action in parser._actions if action.dest != "help"
    ]
    assert (parser.get_default("n_min"), arguments) == PARSER_PINS[command]
