"""Command line for the toolkit.

Every subcommand's payload goes out through render, with a status and
diagnostic lines; --format picks between a plain key/value rendering and
a JSON envelope validated by the shipped schema (disckit/cli_result_v1).
Both renderings are pure functions of those fields, so output is
byte-identical across runs and worker counts.

Exit codes: 0 success, 2 input syntax, 3 ring or parameter problems,
4 enumeration budget exceeded, 5 internal errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from .dims import DimReport, complex_table, h_ext_jet
from .errors import DisckitError, InputSyntaxError, ParameterError, Record
from .jets import ChartId, discriminant_ideal, homogeneous_classical_discriminant
from .oracle import DEFAULT_BUDGET, dimension_growth_check, verify_discriminant_locus
from .parser import parse_poly, parse_ring
from .resultants import SylvesterSpec, classify_discriminant, declared_degree, resultant
from .strata import etale_verdict, main1_strata

SCHEMA_ID = "disckit/cli_result_v1"


def _render_plain(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key in sorted(value):
            item = value[key]
            if isinstance(item, dict):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_plain(item, indent + 1))
            elif isinstance(item, list) and any(isinstance(x, (dict, list)) for x in item):
                lines.append(f"{pad}{key}:")
                for x in item:
                    sub = _render_plain(x, indent + 2)
                    if sub:
                        first = sub[0].lstrip()
                        lines.append(f"{pad}  - {first}")
                        lines.extend(sub[1:])
            elif isinstance(item, list):
                body = ", ".join(_plain_scalar(x) for x in item)
                lines.append(f"{pad}{key}: [{body}]")
            else:
                lines.append(f"{pad}{key}: {_plain_scalar(item)}")
    else:
        lines.append(f"{pad}{_plain_scalar(value)}")
    return lines


def _plain_scalar(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def render(command: str, fmt: str, status: str, payload: dict | None,
           diagnostics=()) -> str:
    """The envelope of one run: status, payload (None on error) and diagnostic lines."""
    if fmt == "json":
        import json  # only here: a plain rendering never loads it

        envelope = {
            "schema": SCHEMA_ID,
            "command": command,
            "status": status,
            "payload": payload,
            "diagnostics": diagnostics,  # a tuple prints as a list
        }
        return json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    lines = [] if payload is None else _render_plain(payload)
    lines.extend(diagnostics)
    return "\n".join(lines) + "\n" if lines else ""


# ----- subcommand handlers ---------------------------------------------------
# Each returns the payload of a successful run; _run renders the envelope.

def _payload(value):
    """A report as payload: Record -> dict of its fields, tuple -> list, Fraction -> str."""
    if isinstance(value, Record):
        return {name: _payload(getattr(value, name)) for name in value._fields}
    if isinstance(value, (tuple, list)):
        return [_payload(x) for x in value]
    return str(value) if isinstance(value, Fraction) else value


def cmd_resultant(args) -> dict:
    ring = parse_ring(args.ring)
    f = parse_poly(args.f, ring, args.var)
    g = parse_poly(args.g, ring, args.var)
    m = declared_degree(f, args.deg_f, "f")
    n = declared_degree(g, args.deg_g, "g")
    value = resultant(f, g, SylvesterSpec(m, n))
    return {
        "ring": str(ring),
        "var": args.var,
        "f": str(f),
        "g": str(g),
        "deg_f": m,
        "deg_g": n,
        "resultant": str(value),
    }


def _family(args) -> tuple:
    """(polynomial, declared degree, shared payload) of a discriminant or etale request."""
    ring = parse_ring(args.ring)
    p = parse_poly(args.poly, ring, args.var)
    degree = declared_degree(p, args.degree, "the polynomial")
    return p, degree, {"ring": str(ring), "var": args.var, "poly": str(p), "degree": degree}


def cmd_discriminant(args) -> dict:
    p, degree, payload = _family(args)
    verdict, value = classify_discriminant(p, degree)
    payload["discriminant"] = str(value)
    payload["classification"] = verdict
    return payload


def cmd_disc_ideal(args) -> dict:
    if args.homogeneous:
        if args.l != 1:
            raise ParameterError("--homogeneous is only defined at level l = 1")
        gen = homogeneous_classical_discriminant(args.d)
        return {
            "d": args.d,
            "l": 1,
            "homogeneous": True,
            "ring": str(gen.ring),
            "gens": [str(gen)],
        }
    i = args.i if args.i is not None else args.d
    chart = ChartId(i, args.chart)
    ideal = discriminant_ideal(args.d, args.l, chart)
    return {
        "d": args.d,
        "l": args.l,
        "homogeneous": False,
        "chart": _payload(chart),
        "ring": str(ideal.ring),
        "gens": [str(g) for g in ideal.gens],
    }


def cmd_etale(args) -> dict:
    p, degree, payload = _family(args)
    verdict, b = etale_verdict(p, degree)
    payload["discriminant"] = str(b)
    payload["verdict"] = verdict
    if args.strata:
        payload["strata"] = _payload(main1_strata(p, degree, b))
    return payload


def cmd_dims(args) -> dict:
    if args.table:
        if args.j is not None or args.i is not None:
            raise ParameterError("--table does not combine with --j/--i")
        table = complex_table(args.N, args.d, args.k)
        return {
            "N": args.N,
            "d": args.d,
            "k": args.k,
            "object": "complex_table",
            "twists": [term.twist for term in table],
            "module_dims": [term.module_dim for term in table],
        }
    if args.j is None:
        raise ParameterError("pass --j (and optionally --i), or --table")
    i = args.i if args.i is not None else 0
    value = h_ext_jet(args.N, args.d, args.k, args.j, i)
    return _payload(DimReport(args.N, args.d, args.k, args.j, i, value, "ext_jet"))


def cmd_verify(args) -> dict:
    if args.q2 is not None:
        report = dimension_growth_check(args.d, args.l, args.q, args.q2, budget=args.budget)
    else:
        report = verify_discriminant_locus(args.d, args.l, args.q, budget=args.budget)
    return _payload(report)


# ----- argument wiring --------------------------------------------------------

class _UsageError(Exception):
    """An argparse usage error, raised instead of exiting so main can render it."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _ArgumentParser(argparse.ArgumentParser):
    commands: tuple[str, ...] = ()  # the subcommand names, set on the top parser

    def error(self, message):
        raise _UsageError(self, message)


@functools.lru_cache(maxsize=None)
def _format_parser() -> argparse.ArgumentParser:
    common = _ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("plain", "json"), default="plain",
        help="output rendering (default: plain)",
    )
    return common


def _requested_format(tokens: list[str]) -> str:
    """The --format among a subcommand's arguments; plain if it is absent or bad."""
    try:
        return _format_parser().parse_known_args(tokens)[0].format
    except _UsageError:
        return "plain"


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared.

    Parsing does not mutate an argparse parser, so every call of main
    reuses the same one; callers must not add to it.
    """
    common = _format_parser()
    family = _ArgumentParser(add_help=False)  # the polynomial of discriminant and etale
    family.add_argument("poly")
    family.add_argument("--ring", required=True)
    family.add_argument("--var", default="t")
    family.add_argument("--degree", type=int, default=None, help="declared degree")

    top = _ArgumentParser(
        prog="disckit",
        description="Exact resultants, discriminants, strata, and jet dimension tables.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("resultant", parents=[common],
                       help="Sylvester resultant of two polynomials")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--ring", required=True, help="coefficient ring, e.g. ZZ, QQ, Fp(7), ZZ[b,c]")
    p.add_argument("--var", default="t", help="main variable (default: t)")
    p.add_argument("--deg-f", type=int, default=None, help="declared degree of f")
    p.add_argument("--deg-g", type=int, default=None, help="declared degree of g")
    p.set_defaults(handler=cmd_resultant)

    p = sub.add_parser("discriminant", parents=[common, family],
                       help="discriminant and separability classification")
    p.set_defaults(handler=cmd_discriminant)

    p = sub.add_parser("disc-ideal", parents=[common],
                       help="resultant generators of the level-l discriminant ideal")
    p.add_argument("--d", type=int, required=True, help="degree of the form")
    p.add_argument("--l", type=int, required=True, help="level (number of generators)")
    p.add_argument("--i", type=int, default=None,
                   help="pinned coefficient index (default: d, the monic chart)")
    p.add_argument("--chart", type=int, choices=(0, 1), default=0,
                   help="affine patch (default: 0)")
    p.add_argument("--homogeneous", action="store_true",
                   help="classical discriminant of the generic form (needs l = 1)")
    p.set_defaults(handler=cmd_disc_ideal)

    p = sub.add_parser("etale", parents=[common, family],
                       help="etale/ramified verdict, optionally the full stratification")
    p.add_argument("--strata", action="store_true", help="compute the full stratification")
    p.set_defaults(handler=cmd_etale)

    p = sub.add_parser("dims", parents=[common],
                       help="jet-bundle dimension values and complex rank tables")
    p.add_argument("--N", type=int, required=True, help="ambient projective dimension")
    p.add_argument("--d", type=int, required=True, help="twist degree")
    p.add_argument("--k", type=int, required=True, help="jet order")
    p.add_argument("--j", type=int, default=None, help="exterior power")
    p.add_argument("--i", type=int, default=None, help="cohomological degree (default: 0)")
    p.add_argument("--table", action="store_true", help="rank table of the dual complex")
    p.set_defaults(handler=cmd_dims)

    p = sub.add_parser("verify", parents=[common],
                       help="check the discriminant locus over F_q",
                       description="Compare the zeros of the level-l discriminant "
                       "ideal with the monic forms that have a root of multiplicity "
                       ">= l+1 over F_q.  The zeros are solved fiber by fiber, the "
                       "multiple-root forms are enumerated as h^(l+1)*g, and every "
                       "point in one set but not the other is re-tested on its own.")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--q", type=int, required=True, help="prime field size")
    p.add_argument("--q2", type=int, default=None,
                   help="second prime: run the dimension growth check instead")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help=f"enumeration budget (default: {DEFAULT_BUDGET})")
    p.set_defaults(handler=cmd_verify)

    top.commands = tuple(sub.choices)
    return top


def main(argv: list[str] | None = None) -> int:
    # Parsed literals are bounded by parser.MAX_DIGITS, but a value built
    # from them, such as 3^9999, may print to more digits than the
    # interpreter's int-string limit allows; lift it while the command runs.
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return _run(argv)
    saved = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return _run(argv)
    finally:
        set_limit(saved)


def _run(argv: list[str] | None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        # The envelope needs a command from the schema's enum, so a usage
        # error before a known subcommand keeps argparse's plain text.
        command = argv[0] if argv and argv[0] in parser.commands else None
        if command is None or _requested_format(argv[1:]) != "json":
            argparse.ArgumentParser.error(exc.parser, str(exc))
        sys.stderr.write(render(command, "json", "error", None, [f"error: {exc}"]))
        return 2
    command = args.command
    fmt = args.format
    try:
        payload = args.handler(args)
    except Exception as exc:
        if isinstance(exc, InputSyntaxError):
            diagnostics = exc.caret_diagnostic().splitlines()
        elif isinstance(exc, DisckitError):
            diagnostics = [f"error: {exc}"]
        else:  # an internal bug
            diagnostics = [f"internal error: {exc!r}"]
        sys.stderr.write(render(command, fmt, "error", None, diagnostics))
        return exc.exit_code if isinstance(exc, DisckitError) else 5
    sys.stdout.write(render(command, fmt, "ok", payload))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
