"""Command line driver.

Subcommands: validate, fedosov, atiyah, verify.  Each one is a body that
returns its checks; _run does the loading, the structure gate, the
timing and the output for all of them.  Exit status: 0 when all reported
checks pass, 1 when a reported check fails (a structure axiom or an
identity), 2 for usage, file, or schema problems, 3 when an internal
consistency guard trips (always a bug, never bad input data).
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import cache

from .atiyah import atiyah_dg, atiyah_lie_pair
from .errors import InternalInvariantError, LoadError
from .expressions import Printer, parse_rational
from .fedosov import build_fedosov, flatness_defects
from .homotopy import iota_star
from .loader import load_chart
from .report import _Check, _results, build_payload, render_json, render_text
from .suites import SUITE_NAMES, axiom_checks, run_suites


def _rational(text: str):
    try:
        return parse_rational(text)
    except (LoadError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


# The fiber window grows the work steeply: on tangent_only the fedosov
# suite takes about 0.2 s at 6, 0.6 s at 8 and 12 s at 14 (2 vCPU).
MAX_FIBER_DEGREE = 8
# The suites' random Hom-sections have rank_B^3 components: run_suites on
# an empty chart takes about 2 s at rank_B 10 (gl_5's) and 11 s at 16.
MAX_VERIFY_RANK_B = 10


def _fiber_bound(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 2:
        raise argparse.ArgumentTypeError("the fiber degree bound must be at least 2")
    if value > MAX_FIBER_DEGREE:
        raise argparse.ArgumentTypeError(f"the fiber degree bound is at most {MAX_FIBER_DEGREE}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liepair",
        description=(
            "Construct and machine-check the flat fiberwise differential and "
            "the two Atiyah cocycles of a Lie pair presented in coordinates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_bound=True):
        p.add_argument("--input", required=True, help="chart description file (JSON)")
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument(
            "--format", choices=("json", "text"), default="text", help="report format"
        )
        p.add_argument(
            "--gamma-param",
            type=_rational,
            default=None,
            metavar="RATIONAL",
            help="value bound to the parameter gamma (overrides the file)",
        )
        if with_bound:
            p.add_argument(
                "--max-b-degree",
                type=_fiber_bound,
                default=4,
                help="fiber degree at which power series data is truncated",
            )

    common(sub.add_parser("validate", help="check the structure axioms"), with_bound=False)
    common(sub.add_parser("fedosov", help="build the flat differential and check it"))
    common(sub.add_parser("atiyah", help="compute both cocycles and compare them"))
    verify = sub.add_parser("verify", help="run identity check suites")
    common(verify)
    verify.add_argument(
        "--suite",
        choices=SUITE_NAMES + ("all",),
        default="all",
        help="which suite to run",
    )
    return parser


_parser = cache(build_parser)  # built on the first main call, then reused


def _load(args):
    overrides = {}
    if args.gamma_param is not None:
        overrides["gamma"] = args.gamma_param
    return load_chart(args.input, param_overrides=overrides)


def _base_extra(chart, args):
    extra = {
        "matched": chart.alg.matched,
        "params": {k: str(v) for k, v in sorted(chart.params.items())},
    }
    if getattr(args, "max_b_degree", None) is not None:
        extra["max_b_degree"] = args.max_b_degree
    return extra


def _emit(args, payload) -> int:
    text = render_json(payload) if args.format == "json" else render_text(payload)
    if not text.endswith("\n"):
        text += "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise LoadError(f"cannot write {args.output}: {exc}")
    else:
        sys.stdout.write(text)
    return 0 if payload["passed"] else 1


def _run(args, body, gated) -> int:
    """The part every command shares: load, gate, time and emit.

    body(args, chart, extra, axioms) returns the report's checks and may
    add fields to extra.  A gated command validates the structure axioms
    first: when one fails, the report holds only those checks and body
    does not run; otherwise body gets them as axioms.  An ungated body
    gets an empty list.
    """
    started = time.monotonic()
    chart = _load(args)
    extra = _base_extra(chart, args)
    checks = axiom_checks(chart.alg, chart.variables) if gated else []
    if all(c.passed for c in checks):
        checks = body(args, chart, extra, checks)
    extra["elapsed_seconds"] = round(time.monotonic() - started, 3)
    return _emit(args, build_payload(args.command, args.input, checks, extra))


def cmd_validate(args, chart, extra, axioms) -> list:
    return axioms


def cmd_fedosov(args, chart, extra, axioms) -> list:
    fd = build_fedosov(chart.alg, args.max_b_degree)
    out = Printer(chart.variables)
    extra["window"] = fd.window
    extra["correction_field"] = {
        f"b{l + 1}": out.element(v) for l, v in sorted(fd.x_field.comps.items())
    }
    checks = []
    c_flat = _Check(checks, "differential_squares_to_zero")
    for g, v in sorted(flatness_defects(fd).items()):
        c_flat.expect(f"D^2 on {g}: {out.element(v)}", False)
    return axioms + _results(checks)


def cmd_atiyah(args, chart, extra, axioms) -> list:
    alg = chart.alg
    out = Printer(chart.variables)
    fd = build_fedosov(alg, args.max_b_degree)
    dg = iota_star(atiyah_dg(fd, upto=0))
    extra["dg_cocycle_restricted"] = {
        f"({i + 1},{j + 1})->{k + 1}": out.element(v)
        for (i, j, k), v in sorted(dg.comps.items())
    }
    if not alg.matched:
        return []
    pair = atiyah_lie_pair(alg)
    extra["pair_cocycle"] = {
        f"alpha{a + 1}; ({j + 1},{k + 1})->{l + 1}": out.coeff(v.num, v.den)
        for (a, j, k, l), v in sorted(pair.comps.items())
    }
    checks = []
    c_sym = _Check(checks, "pair_cocycle_symmetric")
    c_sym.expect("At[a; j,k] = At[a; k,j]", pair.is_symmetric())
    c_cmp = _Check(checks, "cocycle_comparison")
    for (i, j, k), v in sorted((dg - pair.as_hom()).comps.items()):
        c_cmp.expect(f"({i + 1},{j + 1})->{k + 1}: {out.element(v)}", False)
    return _results(checks)


def cmd_verify(args, chart, extra, axioms) -> list:
    if chart.alg.s > MAX_VERIFY_RANK_B:
        raise LoadError(f"verify takes rank_B up to {MAX_VERIFY_RANK_B}, got {chart.alg.s}")
    extra["suite"] = args.suite
    return run_suites(chart.alg, args.suite, max_b=args.max_b_degree, names=chart.variables)


# command -> (body, gated on the structure axioms)
_COMMANDS = {
    "validate": (cmd_validate, True),
    "fedosov": (cmd_fedosov, True),
    "atiyah": (cmd_atiyah, True),
    "verify": (cmd_verify, False),
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run(args, *_COMMANDS[args.command])
    except LoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
