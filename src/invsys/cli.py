"""Command-line interface.

Every subcommand is a thin adapter over one library call with canonical,
byte-stable output.  Exit codes: 0 success, 2 parse/usage error, 3 violated
mathematical precondition, 4 admissibility violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .admissible import (
    check_family,
    cone_family,
    diagonal_decompose,
    dump_family,
    lift_space,
    load_family,
)
from .duality import (
    Ideal,
    ann_cyclic,
    hilbert_function,
    module_span,
    perp_ideal,
    span_dim,
)
from .gorenstein import (
    family_from_ideal,
    finite_lift,
    gorenstein_check,
    local_verify,
)
from .groebner import hilbert_data
from .parsing import ParseError, parse_ideal_gens, parse_polynomial, parse_ring_decl
from .ring import ContextMismatchError, PreconditionError, RingContext, contract, pairing

EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_ADMISSIBILITY = 4


def _ring(args):
    if not args.ring:
        raise ParseError("a --ring declaration is required", "", 0)
    ctx = parse_ring_decl(args.ring)
    if getattr(args, "mode", None):
        ctx = RingContext(ctx.var_names, ctx.dual_names, ctx.char, args.mode)
    return ctx


def _load_family(args):
    with open(args.family, encoding="utf-8") as fh:
        return load_family(fh.read())


def _emit(args, text, payload):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _slices_payload(slices):
    return [
        {"degree": s.degree, "basis": [str(v) for v in s.basis.vectors]} for s in slices
    ]


def _slices_text(slices):
    return "\n".join(
        f"degree {s.degree}: " + (", ".join(str(v) for v in s.basis.vectors) or "0")
        for s in slices
    )


def cmd_contract(args):
    ctx = _ring(args)
    h = parse_polynomial(args.h, ctx, "r")
    F = parse_polynomial(args.F, ctx, "dual")
    out = contract(h, F)
    _emit(args, str(out), {"result": str(out)})


def cmd_pair(args):
    ctx = _ring(args)
    f = parse_polynomial(args.f, ctx, "r")
    F = parse_polynomial(args.F, ctx, "dual")
    out = pairing(f, F)
    _emit(args, str(out), {"result": str(out)})


def cmd_span(args):
    ctx = _ring(args)
    gens = [parse_polynomial(s.strip(), ctx, "dual") for s in args.F.split(";") if s.strip()]
    slices = module_span(gens, args.bound)
    text = "\n".join(filter(None, [_slices_text(slices), f"total dimension {span_dim(slices)}"]))
    _emit(args, text, {"slices": _slices_payload(slices), "dimension": span_dim(slices)})


def cmd_ann(args):
    ctx = _ring(args)
    F = parse_polynomial(args.poly, ctx, "dual")
    ideal = ann_cyclic(F, args.bound)
    _emit(args, str(ideal), {"generators": [str(g) for g in ideal.gens]})


def cmd_perp(args):
    ctx = _ring(args)
    ideal = Ideal(parse_ideal_gens(args.ideal, ctx), ctx)
    slices = perp_ideal(ideal, args.bound)
    _emit(args, _slices_text(slices) or "0", {"slices": _slices_payload(slices)})


def cmd_hilbert(args):
    ctx = _ring(args)
    ideal = Ideal(parse_ideal_gens(args.ideal, ctx), ctx)
    if ctx.mode == "local":
        hf = hilbert_function(perp_ideal(ideal, args.bound))
        _emit(args, " ".join(str(v) for v in hf) or "0", {"hilbert_function": hf})
        return
    data = hilbert_data(ideal)
    text = (
        "numerator " + " ".join(str(c) for c in data.numerator)
        + f"\ndimension {data.dimension}"
        + f"\nmultiplicity {data.multiplicity}"
        + f"\nregularity {data.regularity}"
    )
    _emit(
        args,
        text,
        {
            "numerator": data.numerator,
            "dimension": data.dimension,
            "multiplicity": data.multiplicity,
            "regularity": data.regularity,
        },
    )


def _emit_report(args, report, verdict):
    """Print a check report under its verdict word; a failed report exits 4."""
    violations = [
        {"index": list(v.index), "condition": v.condition, "detail": v.detail}
        for v in report.violations
    ]
    text = verdict if report.passed else str(report)
    _emit(args, text, {verdict: report.passed, "violations": violations})
    return 0 if report.passed else EXIT_ADMISSIBILITY


def cmd_check_admissible(args):
    return _emit_report(args, check_family(_load_family(args), args.check_mode), "admissible")


def cmd_lift(args):
    fam = _load_family(args)
    target = tuple(int(tok) for tok in args.target.split(","))
    out = lift_space(fam, target, args.bound)
    if out is None:
        _emit(args, "infeasible", {"feasible": False})
        return EXIT_PRECONDITION
    particular, kernel = out
    text = f"particular: {particular}\n" + "\n".join(
        f"kernel: {v}" for v in kernel.vectors
    )
    _emit(
        args,
        text,
        {"feasible": True, "particular": str(particular), "kernel": [str(v) for v in kernel.vectors]},
    )
    return 0


def cmd_cone(args):
    ctx = _ring(args)
    H = parse_polynomial(args.H, ctx, "dual")
    fam = cone_family(H, args.d, args.t0)
    _emit(args, dump_family(fam).rstrip("\n"), {"family": dump_family(fam)})


def cmd_finite_lift(args):
    fam = _load_family(args)
    ideal = finite_lift(fam, args.max_gen_degree)
    text = ", ".join(str(g) for g in ideal.gens)
    _emit(args, text, {"generators": [str(g) for g in ideal.gens]})


def cmd_family_from_ideal(args):
    ctx = _ring(args)
    ideal = Ideal(parse_ideal_gens(args.ideal, ctx), ctx)
    z_indices = tuple(ctx.var_index(nm.strip()) for nm in args.z.split(",") if nm.strip())
    fam = family_from_ideal(ideal, z_indices, args.t0, args.trunc)
    _emit(args, dump_family(fam).rstrip("\n"), {"family": dump_family(fam)})


def cmd_gorenstein_check(args):
    ctx = _ring(args)
    ideal = Ideal(parse_ideal_gens(args.ideal, ctx), ctx)
    zs = [
        parse_polynomial(nm.strip(), ctx, "r") for nm in args.z.split(",") if nm.strip()
    ]
    report = gorenstein_check(ideal, args.d, zs)
    if args.json:
        print(report.to_json())
    else:
        print(report)


def cmd_local_verify(args):
    fam = _load_family(args)
    ideal = Ideal(parse_ideal_gens(args.ideal, fam.context), fam.context)
    return _emit_report(args, local_verify(fam, ideal, args.trunc), "verified")


def cmd_decompose(args):
    fam = _load_family(args)
    pieces = diagonal_decompose(fam)
    text = "\n".join(f"C[{i + 1}] = {c}" for i, c in enumerate(pieces))
    _emit(args, text, {"pieces": [str(c) for c in pieces]})


def build_parser():
    top = argparse.ArgumentParser(
        prog="invsys",
        description="Exact inverse-system computations for Gorenstein quotients.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, ring=True):
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        if ring:
            p.add_argument("--ring", help='ring declaration, e.g. "Q[x,y] dual [X,Y] mode local"')
            p.add_argument("--mode", choices=["graded", "local"], help="override the declared mode")

    p = sub.add_parser("contract", help="contract a dual element by a ring element")
    common(p)
    p.add_argument("--h", required=True)
    p.add_argument("--F", required=True)
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("pair", help="the exact pairing of a ring and a dual element")
    common(p)
    p.add_argument("--f", required=True)
    p.add_argument("--F", required=True)
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("span", help="degree slices of a cyclic/finitely generated span")
    common(p)
    p.add_argument("--F", required=True, help="semicolon-separated dual elements")
    p.add_argument("--bound", type=int)
    p.set_defaults(func=cmd_span)

    p = sub.add_parser("ann", help="annihilator of a dual element")
    common(p)
    p.add_argument("--poly", required=True)
    p.add_argument("--bound", type=int)
    p.set_defaults(func=cmd_ann)

    p = sub.add_parser("perp", help="per-degree inverse system of an ideal")
    common(p)
    p.add_argument("--ideal", required=True)
    p.add_argument("--bound", type=int)
    p.set_defaults(func=cmd_perp)

    p = sub.add_parser("hilbert", help="Hilbert data (graded) or function (local)")
    common(p)
    p.add_argument("--ideal", required=True)
    p.add_argument("--bound", type=int)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("check-admissible", help="verify a family file")
    common(p, ring=False)
    p.add_argument("--family", required=True)
    p.add_argument("--check-mode", choices=["annihilator", "intersection"], default="annihilator")
    p.set_defaults(func=cmd_check_admissible)

    p = sub.add_parser("lift", help="affine space of next entries at a target index")
    common(p, ring=False)
    p.add_argument("--family", required=True)
    p.add_argument("--target", required=True, help="comma-separated multi-index")
    p.add_argument("--bound", type=int)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("cone", help="family of pure shifts of one dual element")
    common(p)
    p.add_argument("--H", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t0", type=int, required=True)
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("finite-lift", help="reconstruct the ideal from a family file")
    common(p, ring=False)
    p.add_argument("--family", required=True)
    p.add_argument("--max-gen-degree", type=int)
    p.set_defaults(func=cmd_finite_lift)

    p = sub.add_parser("family-from-ideal", help="derive the compatible family of an ideal")
    common(p)
    p.add_argument("--ideal", required=True)
    p.add_argument("--z", required=True, help="comma-separated distinguished variables")
    p.add_argument("--t0", type=int, required=True)
    p.add_argument("--trunc", type=int)
    p.set_defaults(func=cmd_family_from_ideal)

    p = sub.add_parser("gorenstein-check", help="certify dimension/regularity/socle")
    common(p)
    p.add_argument("--ideal", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--z", default="", help="comma-separated regular sequence (default: none, for d 0)")
    p.set_defaults(func=cmd_gorenstein_check)

    p = sub.add_parser("local-verify", help="truncated family-vs-ideal verification")
    common(p, ring=False)
    p.add_argument("--family", required=True)
    p.add_argument("--ideal", required=True)
    p.add_argument("--trunc", type=int)
    p.set_defaults(func=cmd_local_verify)

    p = sub.add_parser("decompose", help="diagonal decomposition of a family file")
    common(p, ring=False)
    p.add_argument("--family", required=True)
    p.set_defaults(func=cmd_decompose)

    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (KeyError, ValueError) as exc:
        if isinstance(exc, (PreconditionError, ContextMismatchError)):
            print(f"precondition violated: {exc}", file=sys.stderr)
            return EXIT_PRECONDITION
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return 0 if code is None else code


if __name__ == "__main__":
    sys.exit(main())
