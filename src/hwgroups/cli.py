"""Command-line surface.

Every subcommand prints deterministic text (or JSON/CSV where noted) so
identical invocations are byte-identical.  Exit codes: 0 success or
verification pass, 1 verification failure (mismatch, probe findings,
unique products found), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from . import cohomology_f2, cohomology_q, crystal, group_ring, hw_group, quotient_w
from .exact_algebra import IntPolynomial, VerificationError
from .hw_group import BallBudgetError, ElementSyntaxError

__all__ = ["main", "build_parser"]

CLOSED_N_BOUND = 20
SPECTRAL_N_BOUND = 12


def _print(line: str = "") -> None:
    sys.stdout.write(line + "\n")


def _emit_json(obj) -> None:
    _print(json.dumps(obj, indent=2))


def _poly_coeffs(p: IntPolynomial) -> List[int]:
    return list(p.coeffs)


def _frac_str(v: Fraction) -> str:
    return str(v)


def _vector_str(vec: Sequence[Fraction]) -> str:
    return "(" + ",".join(str(v) for v in vec) + ")"


def _element_json(g: hw_group.GroupElement) -> Dict:
    return {
        "n": g.n,
        "w": list(g.w),
        "t": list(g.t),
        "text": hw_group.format_element(g),
    }


def cmd_nf(args: argparse.Namespace) -> int:
    g = hw_group.parse_element(args.word, args.n)
    if args.format == "json":
        _emit_json(_element_json(g))
    else:
        _print(hw_group.format_element(g))
    return 0


def cmd_mul(args: argparse.Namespace) -> int:
    a = hw_group.parse_element(args.left, args.n)
    b = hw_group.parse_element(args.right, args.n)
    g = hw_group.multiply(a, b)
    if args.format == "json":
        _emit_json(_element_json(g))
    else:
        _print(hw_group.format_element(g))
    return 0


def cmd_inv(args: argparse.Namespace) -> int:
    g = hw_group.inverse(hw_group.parse_element(args.word, args.n))
    if args.format == "json":
        _emit_json(_element_json(g))
    else:
        _print(hw_group.format_element(g))
    return 0


def _poincare_bounds_ok(n: int, field: str, method: str, unsafe: bool) -> Optional[str]:
    if unsafe:
        return None
    if method in ("spectral", "both") and n > SPECTRAL_N_BOUND:
        return (f"n={n} exceeds the spectral/subset-sum bound {SPECTRAL_N_BOUND} "
                "(pass --unsafe-large to force)")
    if n > CLOSED_N_BOUND:
        return (f"n={n} exceeds the closed-form bound {CLOSED_N_BOUND} "
                "(pass --unsafe-large to force)")
    return None


def cmd_poincare(args: argparse.Namespace) -> int:
    message = _poincare_bounds_ok(args.n, args.field, args.method, args.unsafe_large)
    if message is not None:
        sys.stderr.write(message + "\n")
        return 2
    if args.field == "f2":
        spectral_fn = cohomology_f2.poincare_f2_spectral
        closed_fn = cohomology_f2.poincare_f2_closed
    else:
        def spectral_fn(n: int) -> IntPolynomial:
            return cohomology_q.poincare_q_spectral(n, subset_limit=max(n, 16))

        closed_fn = cohomology_q.poincare_q_closed
    if args.method == "both":
        spectral = spectral_fn(args.n)
        closed = closed_fn(args.n)
        match = spectral == closed
        if args.format == "json":
            _emit_json({
                "n": args.n,
                "field": args.field,
                "method": "both",
                "spectral": _poly_coeffs(spectral),
                "closed": _poly_coeffs(closed),
                "match": match,
            })
        else:
            _print(f"spectral: {spectral}")
            _print(f"closed: {closed}")
            _print(f"match: {'yes' if match else 'no'}")
        return 0 if match else 1
    poly = spectral_fn(args.n) if args.method == "spectral" else closed_fn(args.n)
    if args.format == "json":
        _emit_json({
            "n": args.n,
            "field": args.field,
            "method": args.method,
            "coeffs": _poly_coeffs(poly),
            "text": str(poly),
        })
    else:
        _print(str(poly))
    return 0


def cmd_e3_table(args: argparse.Namespace) -> int:
    dims = cohomology_f2.e3_dims(args.n)
    keys = sorted(dims)
    if args.format == "json":
        _emit_json({
            "n": args.n,
            "dims": [{"p": p, "q": q, "dim": dims[(p, q)]} for p, q in keys],
        })
    else:
        _print("p,q,dim")
        for p, q in keys:
            _print(f"{p},{q},{dims[(p, q)]}")
    return 0


def cmd_en_basis(args: argparse.Namespace) -> int:
    basis = cohomology_f2.en_basis(args.n)
    if args.format == "json":
        _emit_json({
            "n": args.n,
            "basis": [
                {
                    "grade": e.grade,
                    "p": e.bidegree[0],
                    "q": e.bidegree[1],
                    "symbol": str(e),
                }
                for e in basis
            ],
        })
    else:
        for e in basis:
            p, q = e.bidegree
            _print(f"({p},{q}) {e}")
    return 0


def cmd_abelianization(args: argparse.Namespace) -> int:
    factors = hw_group.abelianization_invariants(args.n)
    free_rank = args.n - len(factors)
    if args.format == "json":
        _emit_json({
            "n": args.n,
            "invariant_factors": list(factors),
            "free_rank": free_rank,
        })
    else:
        _print("invariant factors: (" + ",".join(str(d) for d in factors) + ")")
        if free_rank:
            _print(f"free rank: {free_rank}")
    return 0


def cmd_ranks(args: argparse.Namespace) -> int:
    details = quotient_w.kernel_rank_details(args.n)
    euler = quotient_w.euler_wn(args.n)
    commutator = quotient_w.commutator_rank(args.n)
    if args.format == "json":
        _emit_json({
            "n": args.n,
            "euler_wn": _frac_str(euler),
            "commutator_rank": commutator,
            "commutator_index": 2**args.n,
            "kernel_rank_h": details.rank,
            "s": details.s,
            "kernel_index": details.index,
            "euler_kernel": _frac_str(details.euler),
        })
    else:
        _print(f"euler_wn: {euler}")
        _print(f"commutator_rank: {commutator}")
        _print(f"commutator_index: {2 ** args.n}")
        _print(f"kernel_rank_h: {details.rank}")
        _print(f"s: {details.s}")
        _print(f"kernel_index: {details.index}")
        _print(f"euler_kernel: {details.euler}")
    return 0


def cmd_gamma3_verify(args: argparse.Namespace) -> int:
    report = crystal.verify_hom_g2_gamma3()
    if args.format == "json":
        _emit_json({
            "ok": report.ok,
            "relator_ab_identity": report.relator_xy.is_identity(),
            "relator_ba_identity": report.relator_yx.is_identity(),
            "a_squared_translation": [str(v) for v in report.a_squared.translation],
            "b_squared_translation": [str(v) for v in report.b_squared.translation],
        })
    else:
        _print("A^-1 B^2 A B^2 identity: "
               + ("yes" if report.relator_xy.is_identity() else "no"))
        _print("B^-1 A^2 B A^2 identity: "
               + ("yes" if report.relator_yx.is_identity() else "no"))
        _print(f"A^2 translation: {_vector_str(report.a_squared.translation)}")
        _print(f"B^2 translation: {_vector_str(report.b_squared.translation)}")
        _print("pass" if report.ok else "fail")
    return 0 if report.ok else 1


def _parse_vector(text: str, n: int) -> List[Fraction]:
    parts = [p.strip() for p in text.split(",")] if text.strip() else []
    if len(parts) != n:
        raise ValueError(f"vector needs {n} comma-separated entries")
    try:
        return [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad vector entry: {exc}") from None


def cmd_action(args: argparse.Namespace) -> int:
    g = hw_group.parse_element(args.word, args.n)
    vec = _parse_vector(args.vector, args.n)
    out = crystal.rn_action(g, vec)
    if args.format == "json":
        _emit_json({
            "n": args.n,
            "element": hw_group.format_element(g),
            "input": [str(v) for v in vec],
            "output": [str(v) for v in out],
        })
    else:
        _print(_vector_str(out))
    return 0


def cmd_probe(args: argparse.Namespace) -> int:
    if args.kind == "torsion":
        findings = hw_group.torsion_probe(args.n, args.radius, args.kmax, args.budget)
        rows = [f"{hw_group.format_element(g)} has order {k}" for g, k in findings]
        meta = {"probe": "torsion", "n": args.n, "radius": args.radius,
                "kmax": args.kmax}
        json_rows = [
            {"element": hw_group.format_element(g), "order": k}
            for g, k in findings
        ]
    elif args.kind == "center":
        central = hw_group.center_probe(args.n, args.radius, args.budget)
        rows = [f"{hw_group.format_element(g)} is central" for g in central]
        meta = {"probe": "center", "n": args.n, "radius": args.radius}
        json_rows = [{"element": hw_group.format_element(g)} for g in central]
    elif args.kind == "fixed-point":
        fixed = crystal.fixed_point_probe(args.n, args.radius, args.budget)
        rows = [
            f"{hw_group.format_element(g)} fixes {_vector_str(point)}"
            for g, point in fixed
        ]
        meta = {"probe": "fixed-point", "n": args.n, "radius": args.radius}
        json_rows = [
            {"element": hw_group.format_element(g),
             "point": [str(v) for v in point]}
            for g, point in fixed
        ]
    else:
        collisions = crystal.injectivity_probe(args.radius, args.budget)
        rows = [
            f"{hw_group.format_element(a)} collides with {hw_group.format_element(b)}"
            for a, b in collisions
        ]
        meta = {"probe": "injectivity", "n": 2, "radius": args.radius}
        json_rows = [
            {"first": hw_group.format_element(a),
             "second": hw_group.format_element(b)}
            for a, b in collisions
        ]
    if args.format == "json":
        meta["findings"] = json_rows
        _emit_json(meta)
    else:
        label = " ".join(f"{k}={v}" for k, v in meta.items())
        _print(f"{label} findings: {len(rows)}")
        for row in rows:
            _print(row)
    return 0 if not rows else 1


def cmd_up_check(args: argparse.Namespace) -> int:
    try:
        with open(args.x_file, "r", encoding="utf-8") as handle:
            x_text = handle.read()
        with open(args.y_file, "r", encoding="utf-8") as handle:
            y_text = handle.read()
    except OSError as exc:
        sys.stderr.write(f"cannot read set file: {exc}\n")
        return 2
    x_set = group_ring.parse_set_file(x_text, args.n)
    y_set = group_ring.parse_set_file(y_text, args.n)
    if not x_set or not y_set:
        sys.stderr.write("set files must contain at least one element each\n")
        return 2
    tally = group_ring.product_tally(x_set, y_set)
    witnesses = group_ring.unique_product_witnesses(x_set, y_set)
    if args.format == "json":
        _emit_json({
            "n": args.n,
            "x_size": len(x_set),
            "y_size": len(y_set),
            "products": len(tally),
            "unique_products": [hw_group.format_element(g) for g in witnesses],
        })
    else:
        _print(f"|X| = {len(x_set)}, |Y| = {len(y_set)}, products = {len(tally)}")
        _print(f"unique products: {len(witnesses)}")
        for g in witnesses:
            _print(hw_group.format_element(g))
    return 0 if not witnesses else 1


def cmd_mod2_check(args: argparse.Namespace) -> int:
    if args.n % 2:
        sys.stderr.write("mod-2 congruence is only claimed for even n\n")
        return 2
    rational = cohomology_q.poincare_q_closed(args.n)
    modular = cohomology_f2.poincare_f2_closed(args.n)
    congruent = cohomology_q.mod2_compare(args.n)
    if args.format == "json":
        _emit_json({
            "n": args.n,
            "rational": _poly_coeffs(rational),
            "f2": _poly_coeffs(modular),
            "congruent_mod_2": congruent,
        })
    else:
        _print(f"rational: {rational}")
        _print(f"f2: {modular}")
        _print(f"congruent mod 2: {'yes' if congruent else 'no'}")
    return 0 if congruent else 1


def _add_format(parser: argparse.ArgumentParser, choices=("text", "json"),
                default: str = "text") -> None:
    parser.add_argument("--format", choices=choices, default=default)


def _add_n(parser: argparse.ArgumentParser, minimum: int = 0) -> None:
    parser.add_argument("--n", type=int, required=True,
                        help=f"ambient rank (>= {minimum})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwgroups",
        description="Exact computations in the combinatorial Hantzsche-Wendt groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", help="normal form of a word")
    _add_n(p)
    p.add_argument("word")
    _add_format(p)
    p.set_defaults(func=cmd_nf, n_min=0)

    p = sub.add_parser("mul", help="product of two elements")
    _add_n(p)
    p.add_argument("left")
    p.add_argument("right")
    _add_format(p)
    p.set_defaults(func=cmd_mul, n_min=0)

    p = sub.add_parser("inv", help="inverse of an element")
    _add_n(p)
    p.add_argument("word")
    _add_format(p)
    p.set_defaults(func=cmd_inv, n_min=0)

    p = sub.add_parser("poincare", help="Poincare polynomial")
    _add_n(p)
    p.add_argument("--field", choices=("f2", "q"), required=True)
    p.add_argument("--method", choices=("spectral", "closed", "both"),
                   default="both")
    p.add_argument("--unsafe-large", action="store_true",
                   help="lift the rank bounds")
    _add_format(p)
    p.set_defaults(func=cmd_poincare, n_min=0)

    p = sub.add_parser("e3-table", help="final-page dimension table")
    _add_n(p)
    _add_format(p, choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_e3_table, n_min=0)

    p = sub.add_parser("en-basis", help="bigraded algebra basis")
    _add_n(p)
    _add_format(p)
    p.set_defaults(func=cmd_en_basis, n_min=0)

    p = sub.add_parser("abelianization", help="invariant factors")
    _add_n(p)
    _add_format(p)
    p.set_defaults(func=cmd_abelianization, n_min=1)

    p = sub.add_parser("ranks", help="free subgroup rank formulas")
    _add_n(p)
    _add_format(p)
    p.set_defaults(func=cmd_ranks, n_min=2)

    p = sub.add_parser("gamma3-verify", help="matrix model relator check")
    _add_format(p)
    p.set_defaults(func=cmd_gamma3_verify, n_min=None)

    p = sub.add_parser("action", help="coordinate action on a rational vector")
    _add_n(p)
    p.add_argument("word")
    p.add_argument("--vector", required=True,
                   help="comma-separated rationals, e.g. 1/2,0")
    _add_format(p)
    p.set_defaults(func=cmd_action, n_min=0)

    p = sub.add_parser("probe", help="structural probes")
    kind = p.add_subparsers(dest="kind", required=True)

    q = kind.add_parser("torsion", help="torsion search in a ball")
    _add_n(q)
    q.add_argument("--radius", type=int, required=True)
    q.add_argument("--kmax", type=int, required=True)
    q.add_argument("--budget", type=int, default=hw_group.DEFAULT_BALL_BUDGET)
    _add_format(q)
    q.set_defaults(func=cmd_probe, kind="torsion", n_min=1)

    q = kind.add_parser("center", help="central element search in a ball")
    _add_n(q)
    q.add_argument("--radius", type=int, required=True)
    q.add_argument("--budget", type=int, default=hw_group.DEFAULT_BALL_BUDGET)
    _add_format(q)
    q.set_defaults(func=cmd_probe, kind="center", n_min=2)

    q = kind.add_parser("fixed-point", help="fixed points in the matrix model")
    _add_n(q)
    q.add_argument("--radius", type=int, required=True)
    q.add_argument("--budget", type=int, default=hw_group.DEFAULT_BALL_BUDGET)
    _add_format(q)
    q.set_defaults(func=cmd_probe, kind="fixed-point", n_min=2)

    q = kind.add_parser("injectivity", help="matrix model collision search")
    q.add_argument("--radius", type=int, required=True)
    q.add_argument("--budget", type=int, default=hw_group.DEFAULT_BALL_BUDGET)
    _add_format(q)
    q.set_defaults(func=cmd_probe, kind="injectivity", n_min=None)

    p = sub.add_parser("up-check", help="unique-product tally of two set files")
    _add_n(p)
    p.add_argument("x_file")
    p.add_argument("y_file")
    _add_format(p)
    p.set_defaults(func=cmd_up_check, n_min=1)

    p = sub.add_parser("mod2-check", help="mod-2 congruence of the two series")
    _add_n(p)
    _add_format(p)
    p.set_defaults(func=cmd_mod2_check, n_min=0)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    n_min = getattr(args, "n_min", None)
    if n_min is not None and getattr(args, "n", None) is not None and args.n < n_min:
        sys.stderr.write(f"--n must be at least {n_min} for this command\n")
        return 2
    try:
        return args.func(args)
    except ElementSyntaxError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except BallBudgetError as exc:
        sys.stderr.write(f"resource guard: {exc}\n")
        return 2
    except VerificationError as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
