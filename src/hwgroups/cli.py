"""Command-line surface.

Every subcommand is a function ``cmd_*(args) -> (exit_code, record,
lines)`` that prints nothing: ``record`` is the result as a JSON object
and ``lines`` is its text form (CSV for ``e3-table``).  ``main`` renders
exactly one of the two, chosen by ``--format``, so identical invocations
are byte-identical; ``en-basis``, whose output grows as n 2^n, builds
only that one and leaves the other empty.  A command refuses an input
by raising ``ValueError``, which ``main`` reports on stderr as
``error: ...``; it catches the package root's errors by class and
reports them as ``verification failed``, ``parse error`` or
``resource guard``.
Before a command with ``--n`` runs, ``main`` refuses a request whose
output is too long or whose enumeration exceeds ``DEFAULT_BALL_BUDGET``
(``--unsafe-large`` lifts this on ``poincare`` only); ``up-check`` also
refuses a set file of more element lines, before it parses either, and
two sets with more products.  A probe's ball is refused by the library's
one ball check, an exact count made before any element is built.
Exit codes: 0 success or verification pass, 1 verification failure
(mismatch, probe findings, unique products found, a failed run-time
check), 2 usage or input errors, an oversized request among them.

Each command imports the library modules it uses when it runs, so a
process loads only those: ``nf`` needs ``hw_group`` alone, and
``e3-table`` only ``cohomology_f2`` and ``exact_algebra``.
"""

from __future__ import annotations

import argparse
import itertools
import re
import sys
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from . import (DEFAULT_BALL_BUDGET, BallBudgetError, ElementSyntaxError,
               VerificationError, check_digits, decimal_text)

if TYPE_CHECKING:
    from fractions import Fraction

    from .hw_group import GroupElement

__all__ = ["main", "build_parser"]

Result = Tuple[int, Dict, List[str]]


def _vector_str(vec: Sequence[Fraction]) -> str:
    return "(" + ",".join(str(v) for v in vec) + ")"


def _element_result(g: GroupElement) -> Result:
    from .hw_group import format_element

    text = format_element(g)
    return 0, {"n": g.n, "w": list(g.w), "t": list(g.t), "text": text}, [text]


def cmd_nf(args: argparse.Namespace) -> Result:
    from . import hw_group

    return _element_result(hw_group.parse_element(args.word, args.n))


def cmd_mul(args: argparse.Namespace) -> Result:
    from . import hw_group

    a = hw_group.parse_element(args.left, args.n)
    b = hw_group.parse_element(args.right, args.n)
    return _element_result(hw_group.multiply(a, b))


def cmd_inv(args: argparse.Namespace) -> Result:
    from . import hw_group

    return _element_result(hw_group.inverse(hw_group.parse_element(args.word, args.n)))


def cmd_poincare(args: argparse.Namespace) -> Result:
    name = f"n={args.n}: a coefficient"
    if args.field == "f2":
        from . import cohomology_f2

        spectral_fn = cohomology_f2.poincare_f2_spectral
        closed_fn = cohomology_f2.poincare_f2_closed
    else:
        from . import cohomology_q

        spectral_fn = cohomology_q.poincare_q_spectral
        closed_fn = cohomology_q.poincare_q_closed
    head = {"n": args.n, "field": args.field, "method": args.method}
    if args.method == "both":
        spectral = spectral_fn(args.n)
        closed = closed_fn(args.n)
        match = spectral == closed
        record = {**head, "spectral": list(spectral.coeffs),
                  "closed": list(closed.coeffs), "match": match}
        lines = [f"spectral: {decimal_text(spectral, name)}",
                 f"closed: {decimal_text(closed, name)}",
                 f"match: {'yes' if match else 'no'}"]
        return (0 if match else 1), record, lines
    poly = spectral_fn(args.n) if args.method == "spectral" else closed_fn(args.n)
    text = decimal_text(poly, name)
    return 0, {**head, "coeffs": list(poly.coeffs), "text": text}, [text]


def cmd_e3_table(args: argparse.Namespace) -> Result:
    from . import cohomology_f2

    dims = cohomology_f2.e3_dims(args.n)
    keys = sorted(dims)
    record = {"n": args.n,
              "dims": [{"p": p, "q": q, "dim": dims[(p, q)]} for p, q in keys]}
    return 0, record, ["p,q,dim"] + [f"{p},{q},{dims[(p, q)]}" for p, q in keys]


def cmd_en_basis(args: argparse.Namespace) -> Result:
    from . import cohomology_f2

    basis = cohomology_f2.en_basis(args.n)
    if args.format == "json":
        return 0, {"n": args.n, "basis": [
            {"grade": e.grade, "p": e.bidegree[0], "q": e.bidegree[1], "symbol": str(e)}
            for e in basis
        ]}, []
    return 0, {}, [f"({e.bidegree[0]},{e.bidegree[1]}) {e}" for e in basis]


def cmd_abelianization(args: argparse.Namespace) -> Result:
    from . import hw_group

    factors = hw_group.abelianization_invariants(args.n)
    free_rank = args.n - len(factors)
    record = {"n": args.n, "invariant_factors": list(factors), "free_rank": free_rank}
    lines = ["invariant factors: (" + ",".join(str(d) for d in factors) + ")"]
    if free_rank:
        lines.append(f"free rank: {free_rank}")
    return 0, record, lines


def cmd_ranks(args: argparse.Namespace) -> Result:
    from . import quotient_w

    details = quotient_w.kernel_rank_details(args.n)
    # The text form is these fields as "key: value" lines, in this order;
    # JSON keeps the integers as numbers and the fractions as strings.
    fields = {
        "euler_wn": quotient_w.euler_wn(args.n),
        "commutator_rank": quotient_w.commutator_rank(args.n),
        "commutator_index": 2**args.n,
        "kernel_rank_h": details.rank,
        "s": details.s,
        "kernel_index": details.index,
        "euler_kernel": details.euler,
    }
    text = {k: decimal_text(v, f"n={args.n}: {k}") for k, v in fields.items()}
    record = {k: v if isinstance(v, int) else text[k] for k, v in fields.items()}
    return 0, {"n": args.n, **record}, [f"{k}: {v}" for k, v in text.items()]


def cmd_gamma3_verify(args: argparse.Namespace) -> Result:
    from . import crystal

    report = crystal.verify_hom_g2_gamma3()
    ab_identity = report.relator_xy.is_identity()
    ba_identity = report.relator_yx.is_identity()
    a_squared = report.a_squared.translation
    b_squared = report.b_squared.translation
    record = {
        "ok": report.ok,
        "relator_ab_identity": ab_identity,
        "relator_ba_identity": ba_identity,
        "a_squared_translation": [str(v) for v in a_squared],
        "b_squared_translation": [str(v) for v in b_squared],
    }
    lines = [
        "A^-1 B^2 A B^2 identity: " + ("yes" if ab_identity else "no"),
        "B^-1 A^2 B A^2 identity: " + ("yes" if ba_identity else "no"),
        f"A^2 translation: {_vector_str(a_squared)}",
        f"B^2 translation: {_vector_str(b_squared)}",
        "pass" if report.ok else "fail",
    ]
    return (0 if report.ok else 1), record, lines


def _parse_vector(text: str, n: int) -> List[Fraction]:
    from fractions import Fraction

    parts = [p.strip() for p in text.split(",")] if text.strip() else []
    if len(parts) != n:
        raise ValueError(f"vector needs {n} comma-separated entries")
    limit = sys.get_int_max_str_digits()
    for p in parts:
        # Fraction("1e50000000") would expand 10**50000000 digit by digit.
        if "e" in p.lower():
            raise ValueError(f"bad vector entry {p[:20]!r}: exponent notation "
                             "is not accepted; write p/q")
        # int() refuses a run of more digits than the limit; 0 means no limit.
        if limit and any(len(run.replace("_", "")) > limit
                         for run in re.findall(r"\d+(?:_\d+)*", p)):
            raise ValueError(f"bad vector entry {p[:20]!r}: a number has more than "
                             f"{limit} digits, the limit of sys.get_int_max_str_digits()")
    try:
        return [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad vector entry: {exc}") from None


def cmd_action(args: argparse.Namespace) -> Result:
    from . import crystal, hw_group

    g = hw_group.parse_element(args.word, args.n)
    vec = _parse_vector(args.vector, args.n)
    out = [decimal_text(v, f"output coordinate {k}")
           for k, v in enumerate(crystal.rn_action(g, vec), 1)]
    record = {
        "n": args.n,
        "element": hw_group.format_element(g),
        "input": [str(v) for v in vec],
        "output": out,
    }
    return 0, record, ["(" + ",".join(out) + ")"]


def cmd_probe(args: argparse.Namespace) -> Result:
    from . import hw_group

    fmt = hw_group.format_element
    # Each finding is a pair (text line, JSON row).
    if args.kind == "torsion":
        findings = [(f"{fmt(g)} has order {k}", {"element": fmt(g), "order": k})
                    for g, k in hw_group.torsion_probe(args.n, args.radius, args.kmax)]
        meta = {"probe": "torsion", "n": args.n, "radius": args.radius,
                "kmax": args.kmax}
    elif args.kind == "center":
        findings = [(f"{fmt(g)} is central", {"element": fmt(g)})
                    for g in hw_group.center_probe(args.n, args.radius)]
        meta = {"probe": "center", "n": args.n, "radius": args.radius}
    elif args.kind == "fixed-point":
        from . import crystal

        findings = [(f"{fmt(g)} fixes {_vector_str(point)}",
                     {"element": fmt(g), "point": [str(v) for v in point]})
                    for g, point in crystal.fixed_point_probe(args.n, args.radius)]
        meta = {"probe": "fixed-point", "n": args.n, "radius": args.radius}
    else:
        from . import crystal

        findings = [(f"{fmt(a)} collides with {fmt(b)}",
                     {"first": fmt(a), "second": fmt(b)})
                    for a, b in crystal.injectivity_probe(args.radius)]
        meta = {"probe": "injectivity", "n": 2, "radius": args.radius}
    label = " ".join(f"{k}={v}" for k, v in meta.items())
    record = {**meta, "findings": [row for _, row in findings]}
    lines = [f"{label} findings: {len(findings)}"] + [line for line, _ in findings]
    return (1 if findings else 0), record, lines


def cmd_up_check(args: argparse.Namespace) -> Result:
    from pathlib import Path

    from . import group_ring, hw_group

    names = (args.x_file, args.y_file)
    try:
        texts = [Path(name).read_text(encoding="utf-8") for name in names]
    except OSError as exc:
        raise ValueError(f"cannot read set file: {exc}") from None
    for name, text in zip(names, texts):
        if (count := group_ring.count_element_lines(text)) > DEFAULT_BALL_BUDGET:
            raise _over_bound(args.n, "up-check", f"{count} element lines in {name}")
    x_set, y_set = (group_ring.parse_set_file(text, args.n) for text in texts)
    if not x_set or not y_set:
        raise ValueError("set files must contain at least one element each")
    count = len(x_set) * len(y_set)
    if count > DEFAULT_BALL_BUDGET:
        raise _over_bound(args.n, "up-check",
                          f"{len(x_set)}*{len(y_set)} = {count} pairs (x, y)")
    tally = group_ring.product_tally(x_set, y_set)
    witnesses = [hw_group.format_element(g) for g in group_ring.unique_products(tally)]
    record = {
        "n": args.n,
        "x_size": len(x_set),
        "y_size": len(y_set),
        "products": len(tally),
        "unique_products": witnesses,
    }
    lines = [f"|X| = {len(x_set)}, |Y| = {len(y_set)}, products = {len(tally)}",
             f"unique products: {len(witnesses)}", *witnesses]
    return (1 if witnesses else 0), record, lines


def cmd_mod2_check(args: argparse.Namespace) -> Result:
    from . import cohomology_f2, cohomology_q

    if args.n % 2:
        raise ValueError("mod-2 congruence is only claimed for even n")
    name = f"n={args.n}: a coefficient"
    rational = cohomology_q.poincare_q_closed(args.n)
    modular = cohomology_f2.poincare_f2_closed(args.n)
    congruent = cohomology_q.congruent_mod2(rational, modular)
    record = {
        "n": args.n,
        "rational": list(rational.coeffs),
        "f2": list(modular.coeffs),
        "congruent_mod_2": congruent,
    }
    lines = [f"rational: {decimal_text(rational, name)}",
             f"f2: {decimal_text(modular, name)}",
             f"congruent mod 2: {'yes' if congruent else 'no'}"]
    return (0 if congruent else 1), record, lines


def _check_size(args: argparse.Namespace) -> None:
    """Refuse a request before any work when its largest output number is
    proved to fail ``check_digits``, or when it enumerates more items than
    ``DEFAULT_BALL_BUDGET`` (``--unsafe-large`` lifts this on ``poincare``).
    A probe's ball is left to the library's ball check, which raises
    ``BallBudgetError`` after the probe has checked its arguments."""
    n, command = args.n, args.command
    if command in ("poincare", "mod2-check"):
        # Both series have n + 2 coefficients and at x = 1 sum to 2 + (n-1) 2^n
        # (F_2) or 2 + 2 c_n + (n-2) 2^(n-1) (Q), so the largest coefficient is
        # at least (n-2) 2^(n-1) / (n+2) >= 2^(n-2) for n >= 6.  The check fires
        # only at n - 2 >= 2127, the bit length of 10^640, the least nonzero limit.
        check_digits(n - 2, f"n={n}: a coefficient")
    elif command == "ranks":
        # commutator_rank = 1 + (n-2) 2^(n-1) >= 2^(n-1) for n >= 3
        check_digits(n - 1, f"n={n}: commutator_rank")
    # By default the coordinates of one rank-n element; 2^n is compared
    # with its exponent capped, so a huge n builds no huge int.
    count, items = n, f"{n} coordinates"
    if command == "e3-table" or command == "poincare" and args.method != "closed":
        count, items = 1 << min(n, 64), f"2^{n} subsets"
    elif command == "en-basis":
        count, items = n << min(n, 64), f"{n}*2^{n} pairs (i, A)"
    elif command == "probe":
        # a ball of radius >= 1 holds 2n+1 elements of n coordinates each
        count, command = n * (2 * n + 1), f"probe {args.kind}"
        items = f"at least {count} coordinates"
    lift = getattr(args, "unsafe_large", None)
    if count > DEFAULT_BALL_BUDGET and not lift:
        hint = "" if lift is None else " (pass --unsafe-large to force)"
        raise _over_bound(n, command, items, hint)


def _over_bound(n: int, command: str, items: str, hint: str = "") -> ValueError:
    return ValueError(f"n={n}: {command} enumerates {items}, more than the "
                      f"enumeration bound {DEFAULT_BALL_BUDGET}{hint}")


def _command(sub, name: str, summary: str, func, n_min: Optional[int], *arguments,
             formats: Tuple[str, str] = ("text", "json")) -> None:
    """Add subcommand ``name``: ``--n`` unless n_min is None, then each
    ``(name or flag, add_argument keywords)`` pair, then ``--format``,
    whose first choice is the default."""
    parser = sub.add_parser(name, help=summary)
    if n_min is not None:
        parser.add_argument("--n", type=int, required=True,
                            help=f"ambient rank (>= {n_min})")
    for flag, options in arguments:
        parser.add_argument(flag, **options)
    parser.add_argument("--format", choices=formats, default=formats[0])
    parser.set_defaults(func=func, n_min=n_min)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwgroups",
        description="Exact computations in the combinatorial Hantzsche-Wendt groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    word = ("word", {})
    _command(sub, "nf", "normal form of a word", cmd_nf, 0, word)
    _command(sub, "mul", "product of two elements", cmd_mul, 0,
             ("left", {}), ("right", {}))
    _command(sub, "inv", "inverse of an element", cmd_inv, 0, word)
    _command(sub, "poincare", "Poincare polynomial", cmd_poincare, 0,
             ("--field", {"choices": ("f2", "q"), "required": True}),
             ("--method", {"choices": ("spectral", "closed", "both"),
                           "default": "both"}),
             ("--unsafe-large", {"action": "store_true",
                                 "help": "lift the enumeration bound"}))
    _command(sub, "e3-table", "final-page dimension table", cmd_e3_table, 0,
             formats=("csv", "json"))
    _command(sub, "en-basis", "bigraded algebra basis", cmd_en_basis, 0)
    _command(sub, "abelianization", "invariant factors", cmd_abelianization, 1)
    _command(sub, "ranks", "free subgroup rank formulas", cmd_ranks, 2)
    _command(sub, "gamma3-verify", "matrix model relator check", cmd_gamma3_verify,
             None)
    _command(sub, "action", "coordinate action on a rational vector", cmd_action, 0,
             word, ("--vector", {"required": True,
                                 "help": "comma-separated rationals, e.g. 1/2,0"}))

    kind = sub.add_parser("probe", help="structural probes").add_subparsers(
        dest="kind", required=True)
    radius = ("--radius", {"type": int, "required": True})
    for name, summary, n_min, extra in (
        ("torsion", "torsion search in a ball", 1,
         [("--kmax", {"type": int, "required": True})]),
        ("center", "central element search in a ball", 2, []),
        ("fixed-point", "fixed points in the matrix model", 2, []),
        ("injectivity", "matrix model collision search", None, []),
    ):
        _command(kind, name, summary, cmd_probe, n_min, radius, *extra)
    kind.choices["injectivity"].set_defaults(n=2)  # the matrix model's rank

    _command(sub, "up-check", "unique-product tally of two set files", cmd_up_check, 1,
             ("x_file", {}), ("y_file", {}))
    _command(sub, "mod2-check", "mod-2 congruence of the two series", cmd_mod2_check, 0)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.n_min is not None and args.n < args.n_min:
        sys.stderr.write(f"--n must be at least {args.n_min} for this command\n")
        return 2
    try:
        if args.n_min is not None:
            _check_size(args)
        code, record, lines = args.func(args)
    except VerificationError as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return 1
    except ElementSyntaxError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except BallBudgetError as exc:
        sys.stderr.write(f"resource guard: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if args.format == "json":
        import json

        # every number already passed decimal_text
        chunks = json.JSONEncoder(indent=2).iterencode(record)
        end = "\n"
    else:
        chunks, end = (line + "\n" for line in lines), ""
    # Written in batches, so no output is held as one string; on an
    # unbuffered stdout each write is a system call.
    while batch := list(itertools.islice(chunks, 4096)):
        sys.stdout.write("".join(batch))
    sys.stdout.write(end)
    return code


if __name__ == "__main__":
    sys.exit(main())
