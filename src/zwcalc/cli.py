"""The ``zw`` command line: evaluate, normalize, verify, fuzz, render.

Exit codes: 0 success, 1 verification or fuzz failure, 2 usage or parse
error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .diagram import Diagram
from .errors import DiagramError, LegCapError, TermSyntaxError, TermTypeError
from .fuzz import MAX_ARITY, MAX_LEGS, MAX_VERTICES, run_fuzz
from .jsonio import diagram_from_json, diagram_to_json, nf_to_json
from .normalform import DEFAULT_LEG_CAP, nf_of_tensor, normalize, reduce_mod
from .render import render_dot
from .rules import DEFAULT_MAX_ARITY, catalog, verify_soundness
from .tensor import INTEGERS, IntegersMod, Ring, eval_diagram, tensor_from_text, tensor_to_text
from .term import from_term, parse_term


def parse_diagram(source: str, format_: str) -> Diagram:
    """Parse a diagram from term syntax or the JSON graph format."""
    if format_ == "term":
        return from_term(parse_term(source))
    return diagram_from_json(source)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _ring(args: argparse.Namespace) -> Ring:
    if args.mod is not None:
        if args.mod < 2:
            raise DiagramError(f"--mod must be at least 2, got {args.mod}")
        return IntegersMod(args.mod)
    return INTEGERS


def _cmd_eval(args: argparse.Namespace) -> int:
    g = parse_diagram(_read(args.input), args.format)
    psi = eval_diagram(g, _ring(args), leg_cap=args.leg_cap)
    text = tensor_to_text(psi)
    if text:
        print(text)
    return 0


def _cmd_normalize(args: argparse.Namespace) -> int:
    g = parse_diagram(_read(args.input), args.format)
    out, trace = normalize(
        g, _ring(args), want_trace=args.trace is not None, leg_cap=args.leg_cap
    )
    if args.trace is not None:
        from .jsonio import trace_to_lines

        assert trace is not None
        Path(args.trace).write_text("\n".join(trace_to_lines(trace)) + "\n")
    print(diagram_to_json(out), end="")
    return 0


def _cmd_verify_rules(args: argparse.Namespace) -> int:
    ring = _ring(args)
    rules = catalog(args.max_arity, extensions=args.mod)
    failed = 0
    for rule in rules:
        ok = verify_soundness(rule, ring)
        print(f"{'PASS' if ok else 'FAIL'} {rule.name}")
        if not ok:
            failed += 1
    print(f"{len(rules) - failed}/{len(rules)} rules sound")
    return 1 if failed else 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    report = run_fuzz(
        args.count,
        args.seed,
        max_vertices=MAX_VERTICES,
        max_arity=MAX_ARITY,
        max_legs=MAX_LEGS,
        ring=_ring(args),
        leg_cap=args.leg_cap,
    )
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_render(args: argparse.Namespace) -> int:
    g = parse_diagram(_read(args.input), args.format)
    print(render_dot(g), end="")
    return 0


def _cmd_nf_of_tensor(args: argparse.Namespace) -> int:
    ring = _ring(args)
    try:
        psi = tensor_from_text(_read(args.input))
    except ValueError as err:
        raise DiagramError(f"bad tensor file: {err}") from err
    nf = nf_of_tensor(psi)
    if isinstance(ring, IntegersMod):
        nf = reduce_mod(nf, ring.n)
    print(nf_to_json(nf), end="")
    return 0


def _add_input(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", help="input file, or - for stdin")
    sub.add_argument(
        "--format", choices=("term", "json"), default="term", help="input syntax"
    )


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mod", type=int, default=None, metavar="N",
                     help="work in the integers modulo N")
    sub.add_argument("--leg-cap", type=int, default=DEFAULT_LEG_CAP, metavar="L",
                     help="refuse evaluations beyond L open legs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zw",
        description="Evaluate, normalize and verify GHZ/W string diagrams.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("eval", help="evaluate a diagram to its tensor")
    _add_input(sub)
    _add_common(sub)
    sub.set_defaults(run=_cmd_eval)

    sub = commands.add_parser("normalize", help="rewrite a diagram to normal form")
    _add_input(sub)
    _add_common(sub)
    sub.add_argument("--trace", metavar="PATH", default=None,
                     help="write the rewrite trace to PATH as JSON lines")
    sub.set_defaults(run=_cmd_normalize)

    sub = commands.add_parser("verify-rules", help="check every catalog rule")
    sub.add_argument("--max-arity", type=int, default=DEFAULT_MAX_ARITY, metavar="K")
    _add_common(sub)
    sub.set_defaults(run=_cmd_verify_rules)

    sub = commands.add_parser("fuzz", help="random diagrams against the tensor oracle")
    sub.add_argument("--count", type=int, default=100, metavar="N")
    sub.add_argument("--seed", type=int, required=True, metavar="S")
    _add_common(sub)
    sub.set_defaults(run=_cmd_fuzz)

    sub = commands.add_parser("render", help="export a diagram as DOT")
    _add_input(sub)
    sub.set_defaults(run=_cmd_render)

    sub = commands.add_parser("nf-of-tensor", help="normal form of a tensor file")
    sub.add_argument("input", help="tensor text file, or - for stdin")
    sub.add_argument("--mod", type=int, default=None, metavar="N")
    sub.set_defaults(run=_cmd_nf_of_tensor)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (TermSyntaxError, TermTypeError, DiagramError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except LegCapError as err:
        print(f"resource cap: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
