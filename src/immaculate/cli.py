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
from functools import partial
from typing import Optional

from .compositions import brief, is_partition
from .coverings import _check_rows, covering_from_permutation, enumerate_coverings
from .diagram import build_diagram, render
from .expansions import (
    monomial_to_dual_immaculate,
    skew_immaculate_to_H,
    skew_prefix_decomposition,
    straighten_skew,
)
from .expr import BasisExpr

USAGE_ERROR = 1
VERIFY_FAILURE = 2
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


def _clip(part: str) -> str:
    """part, or past 20 characters its first 20 and its length."""
    return part if len(part) <= 20 else f"{part[:20]}... {len(part)} characters"


def _parse_shape(text: str) -> tuple[int, ...]:
    """The integers of a comma-separated shape; a refusal names the first
    part that is not one and its position, however long the input."""
    if not text.strip():
        return ()
    parts = text.split(",")
    shape = []
    for position, part in enumerate(parts, start=1):
        try:
            shape.append(int(part))
        except ValueError:
            shown = ",".join(brief(tuple(map(_clip, parts))))
            raise argparse.ArgumentTypeError(
                f"shape must be comma-separated integers, got {shown!r}; "
                f"part {position} is {_clip(part)!r}"
            )
    return tuple(shape)


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


def _add_format(p, formats=FORMATS):
    p.add_argument("--format", choices=formats,
                   default=_default_format(formats))


def _add_common(p, skew=True, formats=FORMATS):
    p.add_argument("--shape", type=_parse_shape, required=True)
    if skew:
        p.add_argument("--skew", type=_parse_shape, default=None)
    _add_format(p, formats)


def _build_expand_immaculate(p):
    _add_common(p)
    p.add_argument("--basis", choices=("H", "R"), default="H")
    p.add_argument("--force", action="store_true",
                   help="evaluate the direct ribbon formula outside its "
                        "proven class (output tagged UNPROVEN-CLASS)")


def _build_expand_ribbon_product(p):
    p.add_argument("--shape", type=_parse_shape, required=True)
    p.add_argument("--times", type=_parse_shape, required=True)
    _add_format(p)


def _build_convert(p):
    p.add_argument("--from", dest="src", choices=("H", "R"), required=True)
    p.add_argument("--to", dest="dst", choices=("H", "R"), required=True)
    p.add_argument("--shape", type=_parse_shape, required=True)
    _add_format(p)


def _build_straighten(p):
    p.add_argument("--shape", type=_parse_shape, required=True)
    p.add_argument("--skew", type=_parse_shape, required=True)
    _add_format(p, RECORD_FORMATS)


def _build_decompose(p):
    _add_common(p, skew=False, formats=RECORD_FORMATS)
    p.add_argument("--prefix", type=int, required=True, metavar="M")


def _build_thc_render(p):
    _add_common(p, formats=DRAWING_FORMATS)
    p.add_argument("--sigma", type=_parse_shape, default=None,
                   help="overlay the covering of this permutation (nu = 0 only)")


def _build_verify(p):
    p.add_argument("--suite", default="all",
                   help="'all' or a comma-separated subset of the checks; "
                        "an unknown name lists them")
    p.add_argument("--n", type=int, default=None,
                   help="size cap, 1 to 8, for the sweeps that "
                        "take one (duality folds every composition of n "
                        "once per composition of n)")
    p.add_argument("--seed", type=int, default=0,
                   help="one seed passed to every seeded check (default "
                        "0); the test suite runs each check with its own "
                        "default seed instead")


def _add_branches(parser, dest, table, argv) -> None:
    """Add the subcommands of table, or only the one argv[0] names.

    A table maps each name to its help and either a function that adds
    its arguments and the function that runs it, or a table of its own
    subcommands. With one branch built, the choices metavar still names
    them all, so usage lines read as with the whole table.
    """
    names = list(table)
    if argv and argv[0] in table:
        metavar, built, rest = "{" + ",".join(names) + "}", argv[:1], argv[1:]
    else:
        metavar, built, rest = None, names, []
    sub = parser.add_subparsers(dest=dest, required=True, metavar=metavar)
    for name in built:
        text, build, *run = table[name]
        p = sub.add_parser(name, help=text)
        if isinstance(build, dict):
            _add_branches(p, "what", build, rest)
        else:
            build(p)
            p.set_defaults(run=run[0])


def _cmd_expand_immaculate(args) -> int:
    if args.basis == "H":
        expr = skew_immaculate_to_H(args.shape, args.skew)
        _emit(expr, args.format)
        return 0
    from .ribbon import im2rib_class, immaculate_to_ribbon_direct

    if args.skew and any(args.skew):
        print("error: ribbon expansion is only available for straight shapes",
              file=sys.stderr)
        return USAGE_ERROR
    expr = immaculate_to_ribbon_direct(args.shape, force=args.force)
    outside = im2rib_class(args.shape) is None
    _emit(expr, args.format, tag="UNPROVEN-CLASS" if outside else None)
    return 0


def _cmd_expand_monomial(args) -> int:
    expr = monomial_to_dual_immaculate(args.shape)
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
    entries = skew_prefix_decomposition(args.shape, args.prefix)
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
    if args.skew is not None and not is_partition(p + 1 for p in args.skew):
        shape, skew = (",".join(map(str, brief(s)))
                       for s in (args.shape, args.skew))
        raise ValueError(
            f"inner shape {skew} is not a partition (nonnegative, weakly "
            f"decreasing); run `immaculate straighten --shape {shape} --skew "
            f"{skew}` for an equal shape whose inner shape is one")


def _cmd_thc_list(args) -> int:
    _check_inner_shape(args)
    for covering in enumerate_coverings(args.shape, args.skew):
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
        overlay = list(covering_from_permutation(args.shape, args.sigma).hooks)
    else:
        _check_rows(diagram.k)
    fmt = "latex" if args.format == "latex" else "ascii"
    print(render(diagram, overlay, fmt))
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_suite

    names = None if args.suite == "all" else args.suite.split(",")
    reports = run_suite(names, seed=args.seed, max_n=args.n)
    ok = True
    for report in reports:
        status = "pass" if report["pass"] else "FAIL"
        print(f"{report['check']:<20} {status}  {report['detail']}")
        ok = ok and report["pass"]
    return 0 if ok else VERIFY_FAILURE


_EXPAND = {
    "immaculate": ("immaculate element into H or R", _build_expand_immaculate,
                   _cmd_expand_immaculate),
    "monomial": ("monomial element into the dual basis",
                 partial(_add_common, skew=False), _cmd_expand_monomial),
    "ribbon-product": ("product of two ribbon elements",
                       _build_expand_ribbon_product, _cmd_expand_ribbon_product),
}
_THC = {
    "list": ("list all coverings of a shape",
             partial(_add_common, formats=RECORD_FORMATS), _cmd_thc_list),
    "render": ("draw a diagram, optionally with one covering overlaid",
               _build_thc_render, _cmd_thc_render),
}
_COMMANDS = {
    "expand": ("expand a basis element", _EXPAND),
    "convert": ("convert a single H or R element", _build_convert, _cmd_convert),
    "straighten": ("normalize a skew inner shape to a partition",
                   _build_straighten, _cmd_straighten),
    "decompose": ("split off the bottom rows as H-prefixes", _build_decompose,
                  _cmd_decompose),
    "thc": ("tunnel hook coverings and diagrams", _THC),
    "verify": ("run self-check sweeps", _build_verify, _cmd_verify),
}


def build_parser(argv: Optional[list[str]] = None) -> _Parser:
    """The whole parser, or only the branch that argv names.

    A call needs only its own command's subparser (and for expand and thc
    its subcommand's), which saves building the other ten. When argv names
    no branch (help, an unknown name) every branch is built, so help and
    error texts are the same either way.
    """
    parser = _Parser(prog="immaculate", description=__doc__)
    _add_branches(parser, "command", _COMMANDS, argv or [])
    return parser


def main(argv=None) -> int:
    argv = _attach_negative_shapes(sys.argv[1:] if argv is None else list(argv))
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
