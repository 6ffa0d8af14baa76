"""Command-line front end.

One subcommand per operation family, JSON on stdout, exact rationals
rendered as strings.  Exit status: 0 on success, 1 on a domain error
(bad mathematical input), 2 on a usage error (argparse).  verify-all
exits 0 only if the whole desk-scale battery passes.
"""

import argparse
import json
import sys
from functools import cache

from .acceptance import run_all
from .alphamap import alpha_rank
from .arith import rat_str
from .closedform import (
    dixon_rhs,
    f32_term,
    j_closed,
    j_sum,
    n1_closed,
    n2,
    n3,
    w_closed,
    w_sum,
)
from .covariant import membership, u_cov
from .enumeration import g_closed_form, g_direct, n1_brute, tau, tau_transvectant_check
from .plethysm import decompose_plethysm, ideal_character, m0, m0_excluded
from .poly import NAME_RE, ParseError, Poly, VarRegistry, parse
from .transvect import BinaryForm, pi_p, transvectant


def _parse_poly(text: str, registry: VarRegistry) -> Poly:
    """Parse after registering every identifier in order of appearance."""
    for name in NAME_RE.findall(text):
        registry.ensure(name)
    return parse(text, registry)


def _form(text: str, registry: VarRegistry, degree=None) -> BinaryForm:
    poly = _parse_poly(text, registry)
    if degree is None and poly.is_zero():
        degree = 0  # (0, B)_k is 0 whatever degree the zero form is given
    return BinaryForm(poly, degree)


def _emit(obj) -> int:
    print(json.dumps(obj, separators=(",", ":")))
    return 0


def _weights_json(char: dict) -> list:
    return [[m, char[m]] for m in sorted(char, reverse=True)]


def cmd_transvect(args) -> int:
    reg = VarRegistry(["x0", "x1"])
    A = _form(args.a, reg)
    B = _form(args.b, reg)
    return _emit({"result": str(transvectant(A, B, args.k))})


def cmd_pi_p(args) -> int:
    reg = VarRegistry(["x0", "x1", "y0", "y1"])
    G = _parse_poly(args.g, reg)
    result = pi_p(G, args.p)
    return _emit({"result": str(result), "degree": result.degree})


def cmd_alpha_rank(args) -> int:
    return _emit(alpha_rank(args.n, args.d, args.r))


def cmd_n1(args) -> int:
    value = n1_brute(args.e, args.p) if args.brute else n1_closed(args.e, args.p)
    return _emit({"value": rat_str(value)})


def cmd_n2(args) -> int:
    return _emit({"value": rat_str(n2(args.p, args.q, args.m))})


def cmd_n3(args) -> int:
    return _emit({"value": rat_str(n3(args.r, args.e, args.pprime, args.p))})


def cmd_w(args) -> int:
    if (args.k is None) == (args.m is None):
        raise ValueError("pass exactly one of --k (alternating sum) or --m (closed form)")
    if args.k is not None:
        return _emit({"value": rat_str(w_sum(args.p, args.q, args.k))})
    return _emit({"value": rat_str(w_closed(args.p, args.q, args.m))})


def cmd_f32(args) -> int:
    return _emit({"value": rat_str(f32_term(args.a, args.b, args.c, args.d, args.e))})


def cmd_dixon(args) -> int:
    return _emit({"value": rat_str(dixon_rhs(args.a, args.b, args.c))})


def cmd_j(args) -> int:
    total = j_sum(args.s, args.p)
    closed = j_closed(args.s, args.p)
    return _emit(
        {"sum": rat_str(total), "closed": rat_str(closed), "equal": total == closed}
    )


def cmd_tau(args) -> int:
    return _emit({"result": str(tau(args.r, args.e, args.p))})


def cmd_tau_check(args) -> int:
    return _emit({"ok": tau_transvectant_check(args.r, args.e, args.p)})


def cmd_g_check(args) -> int:
    direct = g_direct(args.r, args.e, args.p, args.pprime)
    closed = g_closed_form(args.r, args.e, args.p, args.pprime, registry=direct.registry)
    value = n3(args.r, args.e, args.pprime, args.p)
    return _emit({"ok": direct == closed, "n3": rat_str(value)})


def cmd_covariant(args) -> int:
    reg = VarRegistry(["x0", "x1"])
    F = _form(args.f, reg, degree=args.d)
    return _emit({"result": str(u_cov(args.d, args.i, args.j, F))})


def cmd_membership(args) -> int:
    reg = VarRegistry(["x0", "x1"])
    F = _form(args.f, reg, degree=args.d)
    member, witness = membership(F)
    return _emit({"member": member, "witness": witness})


def cmd_plethysm(args) -> int:
    return _emit({"weights": _weights_json(decompose_plethysm(args.r, args.d))})


def cmd_ideal_char(args) -> int:
    return _emit({"weights": _weights_json(ideal_character(args.r, args.d))})


def cmd_m0(args) -> int:
    return _emit({"value": m0(args.n, args.e), "excluded": m0_excluded(args.n, args.e)})


def cmd_verify_all(args) -> int:
    results = run_all()
    ok = all(r["passed"] for r in results)
    _emit({"level": args.level, "results": results, "all_passed": ok})
    return 0 if ok else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    parsing leaves no state in it, and one build costs about a hundred
    parses."""
    parser = argparse.ArgumentParser(
        prog="invforge",
        description="Exact transvectant calculus for binary forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        for flag, opts in flags.items():
            p.add_argument(f"--{flag.replace('_', '-')}", **opts)
        p.set_defaults(fn=fn.__name__)
        return p

    intreq = {"type": int, "required": True}
    intopt = {"type": int, "default": None}
    streq = {"type": str, "required": True}

    add("transvect", cmd_transvect, a=streq, b=streq, k=intreq)
    add("pi-p", cmd_pi_p, g=streq, p=intreq)
    add("alpha-rank", cmd_alpha_rank, n=intreq, d=intreq, r=intreq)
    p = add("n1", cmd_n1, e=intreq, p=intreq)
    style = p.add_mutually_exclusive_group()
    style.add_argument("--brute", action="store_true")
    style.add_argument("--closed", action="store_true")
    add("n2", cmd_n2, p=intreq, q=intreq, m=intreq)
    add("n3", cmd_n3, r=intreq, e=intreq, pprime=intreq, p=intreq)
    add("w", cmd_w, p=intreq, q=intreq, k=intopt, m=intopt)
    add("f32", cmd_f32, a=intreq, b=intreq, c=intreq, d=intreq, e=intreq)
    add("dixon", cmd_dixon, a=intreq, b=intreq, c=intreq)
    add("j", cmd_j, s=intreq, p=intreq)
    add("tau", cmd_tau, r=intreq, e=intreq, p=intreq)
    add("tau-check", cmd_tau_check, r=intreq, e=intreq, p=intreq)
    add("g-check", cmd_g_check, r=intreq, e=intreq, p=intreq, pprime=intreq)
    add("covariant", cmd_covariant, d=intreq, i=intreq, j=intreq, f=streq)
    add("membership", cmd_membership, d=intreq, f=streq)
    add("plethysm", cmd_plethysm, r=intreq, d=intreq)
    add("ideal-char", cmd_ideal_char, r=intreq, d=intreq)
    p = sub.add_parser("verify-all")
    p.add_argument("--level", choices=["desk"], default="desk")
    p.set_defaults(fn=cmd_verify_all.__name__)
    add("m0", cmd_m0, n=intreq, e=intreq)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        if isinstance(value, list):  # "--k=--": argparse drops the "--"
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    try:
        # by name, so a handler replaced after the build (as the benchmark's
        # tracer does) is the one that runs
        return globals()[args.fn](args)
    except (ValueError, ParseError, ZeroDivisionError, OverflowError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
