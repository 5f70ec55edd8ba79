"""Command line interface.

Shapes are comma-separated integers (negatives allowed), e.g. `3,1,3` or
`-1,3,2`; `--shape -1,3,2` and `--shape=-1,3,2` are the same. Skew inner
shapes go through `--skew`. Output format comes from `--format` or the
IMMACULATE_FORMAT environment variable (text, json, or latex, as far as
the command can print it; default text).

Exit codes: 0 success, 1 usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Optional

from .coverings import (
    DEFAULT_MAX_K,
    covering_from_permutation,
    enumerate_coverings,
)
from .diagram import build_diagram, render
from .expansions import (
    inner_is_partition,
    monomial_to_dual_immaculate,
    skew_immaculate_to_H,
    skew_prefix_decomposition,
    straighten_skew,
)
from .expr import BasisExpr

USAGE_ERROR = 1
VERIFY_FAILURE = 2
_MAX_VERIFY_N = 8
#: What each kind of output can be printed as: an expression, a list of
#: records (straighten, decompose, thc list) and a drawing (thc render).
FORMATS = ("text", "json", "latex")
RECORD_FORMATS = ("text", "json")
DRAWING_FORMATS = ("text", "latex")
SHAPE_OPTIONS = ("--shape", "--skew", "--times", "--sigma")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _parse_shape(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shape must be comma-separated integers, got {text!r}"
        )


def _attach_negative_shapes(argv: list[str]) -> list[str]:
    """`--shape -3,1` -> `--shape=-3,1`; argparse reads -3,1 as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in SHAPE_OPTIONS and re.match(r"-\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _default_format(formats: tuple[str, ...]) -> str:
    fmt = os.environ.get("IMMACULATE_FORMAT", "text")
    return fmt if fmt in formats else "text"


def _dumps(obj) -> str:
    """json.dumps, with json imported only by the calls that print JSON."""
    import json

    return json.dumps(obj)


def _emit(expr: BasisExpr, fmt: str, tag: Optional[str] = None) -> None:
    if fmt == "json":
        payload = expr.to_json_dict()
        if tag:
            payload["tag"] = tag
        print(_dumps(payload))
        return
    if tag:
        print(f"[{tag}]")
    print(expr.to_latex() if fmt == "latex" else expr.to_text())


def build_parser() -> _Parser:
    parser = _Parser(prog="immaculate", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, formats=FORMATS):
        p.add_argument("--format", choices=formats,
                       default=_default_format(formats))

    def add_common(p, skew=True, formats=FORMATS):
        p.add_argument("--shape", type=_parse_shape, required=True)
        if skew:
            p.add_argument("--skew", type=_parse_shape, default=None)
        add_format(p, formats)
        p.add_argument("--max-k", type=int, default=DEFAULT_MAX_K)

    expand = sub.add_parser("expand", help="expand a basis element")
    expand_sub = expand.add_subparsers(dest="what", required=True)

    p = expand_sub.add_parser("immaculate", help="immaculate element into H or R")
    add_common(p)
    p.add_argument("--basis", choices=("H", "R"), default="H")
    p.add_argument("--force", action="store_true",
                   help="evaluate the direct ribbon formula outside its "
                        "proven class (output tagged UNPROVEN-CLASS)")

    p = expand_sub.add_parser("monomial",
                              help="monomial element into the dual basis")
    add_common(p, skew=False)

    p = expand_sub.add_parser("ribbon-product",
                              help="product of two ribbon elements")
    p.add_argument("--shape", type=_parse_shape, required=True)
    p.add_argument("--times", type=_parse_shape, required=True)
    add_format(p)

    p = sub.add_parser("convert", help="convert a single H or R element")
    p.add_argument("--from", dest="src", choices=("H", "R"), required=True)
    p.add_argument("--to", dest="dst", choices=("H", "R"), required=True)
    p.add_argument("--shape", type=_parse_shape, required=True)
    add_format(p)

    p = sub.add_parser("straighten",
                       help="normalize a skew inner shape to a partition")
    p.add_argument("--shape", type=_parse_shape, required=True)
    p.add_argument("--skew", type=_parse_shape, required=True)
    add_format(p, RECORD_FORMATS)

    p = sub.add_parser("decompose",
                       help="split off the bottom rows as H-prefixes")
    add_common(p, skew=False, formats=RECORD_FORMATS)
    p.add_argument("--prefix", type=int, required=True, metavar="M")

    thc = sub.add_parser("thc", help="tunnel hook coverings and diagrams")
    thc_sub = thc.add_subparsers(dest="what", required=True)
    p = thc_sub.add_parser("list", help="list all coverings of a shape")
    add_common(p, formats=RECORD_FORMATS)
    p = thc_sub.add_parser("render", help="draw a diagram, optionally with "
                                          "one covering overlaid")
    add_common(p, formats=DRAWING_FORMATS)
    p.add_argument("--sigma", type=_parse_shape, default=None,
                   help="overlay the covering of this permutation (nu = 0 only)")

    p = sub.add_parser("verify", help="run self-check sweeps")
    p.add_argument("--suite", default="all",
                   help="'all' or a comma-separated subset of the checks; "
                        "an unknown name lists them")
    p.add_argument("--n", type=int, default=None,
                   help=f"size cap, 1 to {_MAX_VERIFY_N}, for the sweeps that "
                        "take one (duality folds every composition of n "
                        "once per composition of n)")
    p.add_argument("--seed", type=int, default=0,
                   help="one seed passed to every seeded check (default "
                        "0); the test suite runs each check with its own "
                        "default seed instead")

    return parser


def _cmd_expand_immaculate(args) -> int:
    if args.basis == "H":
        expr = skew_immaculate_to_H(args.shape, args.skew, max_k=args.max_k)
        _emit(expr, args.format)
        return 0
    from .ribbon import im2rib_class, immaculate_to_ribbon_direct

    if args.skew and any(args.skew):
        print("error: ribbon expansion is only available for straight shapes",
              file=sys.stderr)
        return USAGE_ERROR
    outside = im2rib_class(args.shape) is None
    if outside and not args.force:
        print(f"error: {args.shape} is outside the proven class for the "
              f"direct ribbon formula; pass --force to evaluate it anyway",
              file=sys.stderr)
        return USAGE_ERROR
    expr = immaculate_to_ribbon_direct(args.shape, force=args.force,
                                       max_k=args.max_k)
    _emit(expr, args.format, tag="UNPROVEN-CLASS" if outside else None)
    return 0


def _cmd_expand_monomial(args) -> int:
    expr = monomial_to_dual_immaculate(args.shape, max_k=args.max_k)
    _emit(expr, args.format)
    return 0


def _cmd_expand_ribbon_product(args) -> int:
    from .ribbon import ribbon_product

    _emit(ribbon_product(args.shape, args.times), args.format)
    return 0


def _cmd_convert(args) -> int:
    from .ribbon import H_to_ribbon, ribbon_to_H

    if args.src == args.dst:
        print("error: --from and --to must differ", file=sys.stderr)
        return USAGE_ERROR
    term = BasisExpr.term(args.src, args.shape)
    expr = H_to_ribbon(term) if args.src == "H" else ribbon_to_H(term)
    _emit(expr, args.format)
    return 0


def _cmd_straighten(args) -> int:
    sign, mu, nu = straighten_skew(args.shape, args.skew)
    if args.format == "json":
        print(_dumps({"sign": sign, "mu": list(mu), "nu": list(nu)}))
    else:
        shape = f"{','.join(map(str, mu))} / {','.join(map(str, nu))}"
        print(f"sign {sign:+d}" if sign else "sign 0 (element vanishes)")
        print(f"shape {shape}")
    return 0


def _cmd_decompose(args) -> int:
    entries = skew_prefix_decomposition(args.shape, args.prefix,
                                        max_k=args.max_k)
    if args.format == "json":
        print(_dumps([
            {"sign": sign, "prefix": list(prefix),
             "tail_mu": list(tail_mu), "tail_nu": list(tail_nu)}
            for sign, prefix, (tail_mu, tail_nu) in entries
        ]))
        return 0
    for sign, prefix, (tail_mu, tail_nu) in entries:
        token = "+" if sign > 0 else "-"
        prefix_str = ",".join(map(str, prefix))
        mu_str = ",".join(map(str, tail_mu))
        nu_str = ",".join(map(str, tail_nu))
        print(f"{token} H({prefix_str}) * I[({mu_str})/({nu_str})]")
    return 0


def _check_inner_shape(args) -> None:
    """thc draws the diagram itself, so its inner shape must be a partition."""
    if args.skew is not None and not inner_is_partition(args.skew):
        shape, skew = (",".join(map(str, s)) for s in (args.shape, args.skew))
        raise ValueError(
            f"inner shape {skew} is not a partition (nonnegative, weakly "
            f"decreasing); run `immaculate straighten --shape {shape} --skew "
            f"{skew}` for an equal shape whose inner shape is one")


def _cmd_thc_list(args) -> int:
    _check_inner_shape(args)
    for covering in enumerate_coverings(args.shape, args.skew,
                                        max_k=args.max_k):
        if args.format == "json":
            print(_dumps(covering.to_json_dict()))
        else:
            cells = " ".join(f"({p},{q})" for p, q in covering.terminal_cells)
            sign = "+" if covering.total_sign > 0 else "-"
            delta = ",".join(map(str, covering.delta_seq))
            print(f"{sign} delta=({delta}) terminals: {cells}")
    return 0


def _cmd_thc_render(args) -> int:
    _check_inner_shape(args)
    diagram = build_diagram(args.shape, args.skew)
    overlay = None
    if args.sigma is not None:
        if args.skew and any(args.skew):
            print("error: --sigma requires an empty inner shape",
                  file=sys.stderr)
            return USAGE_ERROR
        overlay = list(covering_from_permutation(args.shape, args.sigma,
                                                 max_k=args.max_k).hooks)
    fmt = "latex" if args.format == "latex" else "ascii"
    print(render(diagram, overlay, fmt))
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_suite

    names = None if args.suite == "all" else args.suite.split(",")
    overrides = {"seed": args.seed}
    if args.n is not None:
        if not 1 <= args.n <= _MAX_VERIFY_N:
            print(f"error: --n must be between 1 and {_MAX_VERIFY_N}, "
                  f"got {args.n}", file=sys.stderr)
            return USAGE_ERROR
        overrides.update(max_n=args.n, comp_n=args.n)
    try:
        reports = run_suite(names, **overrides)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    ok = True
    for report in reports:
        status = "pass" if report["pass"] else "FAIL"
        print(f"{report['check']:<20} {status}  {report['detail']}")
        ok = ok and report["pass"]
    return 0 if ok else VERIFY_FAILURE


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_attach_negative_shapes(argv))
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        if args.command == "expand":
            if args.what == "immaculate":
                return _cmd_expand_immaculate(args)
            if args.what == "monomial":
                return _cmd_expand_monomial(args)
            return _cmd_expand_ribbon_product(args)
        if args.command == "convert":
            return _cmd_convert(args)
        if args.command == "straighten":
            return _cmd_straighten(args)
        if args.command == "decompose":
            return _cmd_decompose(args)
        if args.command == "thc":
            if args.what == "list":
                return _cmd_thc_list(args)
            return _cmd_thc_render(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
