"""Command-line surface.

Subcommands: analyze, residue-check, scan, ideal, schiffer, d0, qz24.
Exit codes: 0 success; a library error prints ``label: message`` on stderr
and exits with the code its class carries (see trigonal4.errors).

All scalar I/O uses the canonical literal syntax (``p/q`` or
``p/q+r/s*w``, ``inf`` for the point at infinity).  Output is JSON (or CSV
for scans) and byte-identical across runs for identical inputs and seed;
timing is only emitted under --timing, which intentionally breaks that.

COMMANDS holds each command's function, help line and option table.  main
reads a well-formed argv (canonical_args) straight from the table and any
other with one parse_args of the parser build_parser builds from it, so
argparse alone writes usage, help and error text, a well-formed request
never imports it, and main returns every exit code.  At module level this
imports only the standard library and trigonal4.errors, which main needs
to map an error to its exit code.  Each command imports the library names
it reads when main dispatches to it, so building the parser loads no
library module and a one-command process compiles only the modules its
command runs.  --timing's elapsed_ms starts after those imports.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from types import SimpleNamespace

from .errors import DegenerateInput, InvalidParameters, OracleMismatch, Trigonal4Error

NUMERIC_TOLERANCE = 1e-8

# The default and the largest accepted --series-order.  The option is kept
# so that existing command lines still run: it is range-checked and analyze
# echoes it, but no computed value depends on it, since every series
# consumer derives its truncation from the coefficients it reads.
DEFAULT_SERIES_ORDER = 12
MAX_SERIES_ORDER = 64


def _series_order(args) -> int:
    order = args.series_order
    if not 1 <= order <= MAX_SERIES_ORDER:
        raise DegenerateInput(f"--series-order must lie in 1..{MAX_SERIES_ORDER}")
    return order


def _numeric_settings(args) -> tuple:
    from .deformation import DEFAULT_NODES, MAX_QUAD_NODES

    nodes = DEFAULT_NODES if args.quad_nodes is None else args.quad_nodes
    tolerance = args.numeric_tolerance
    if not 1 <= nodes <= MAX_QUAD_NODES:
        raise DegenerateInput(f"--quad-nodes must lie in 1..{MAX_QUAD_NODES}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise DegenerateInput("--numeric-tolerance must be finite and positive")
    return nodes, tolerance


_COUNT_WORDS = {3: "three", 4: "four"}


def _parse_literals(text: str, option: str, count: int, error=DegenerateInput) -> tuple:
    """The ``count`` comma-separated scalar literals of an option value."""
    from .scalars import Scalar

    parts = text.split(",")
    if len(parts) != count:
        raise error(f"expected {_COUNT_WORDS[count]} comma-separated scalar literals for {option}")
    return tuple(map(Scalar.parse, parts))


@functools.lru_cache(maxsize=32)
def parse_u(text: str):
    """The parameter point of a --u value.  The points of the last 32
    texts are kept, so requests at one U parse and validate it once; a text
    that fails raises on every call."""
    from .curve import validate_params

    return validate_params(*_parse_literals(text, "--u", 3, InvalidParameters))


def _parse_grid(text: str) -> int:
    kind, _, count_text = text.partition(":")
    if kind == "cone" and count_text.isascii() and count_text.isdigit():
        try:
            return int(count_text)
        except ValueError:  # more digits than int() converts
            pass
    raise DegenerateInput("--grid takes the form cone:N")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(args, out) -> int:
    from .deformation import TangentVector, delta_nu_c_test
    from .report import analyze_text

    started = time.perf_counter()
    order = _series_order(args)
    params = parse_u(args.u)
    # a zero xi is refused by the certificate (ZeroTangent)
    xi = TangentVector(_parse_literals(args.xi, "--xi", 3))
    cert = delta_nu_c_test(params, xi)
    out.write(analyze_text(params.u, xi.a, cert, order, started if args.timing else None))
    return 0


def cmd_residue_check(args, out) -> int:
    from . import report
    from .deformation import TangentVector, bordered, pairing_covector, residue_matrix
    from .scalars import Scalar

    if args.numeric:
        from .numeric import numeric_residue_matrix, residue_relative_error

    started = time.perf_counter()
    _series_order(args)
    nodes, tolerance = _numeric_settings(args)
    params = parse_u(args.u)
    j = args.j
    if j not in (1, 2, 3):
        raise InvalidParameters("--j must be 1, 2 or 3")
    direction = [Scalar.zero()] * 3
    direction[j - 1] = Scalar.one()
    covector = pairing_covector(params, TangentVector(tuple(direction)))
    numeric = numeric_residue_matrix(params, j, nodes) if args.numeric else None
    # each value printed once, before the oracle runs: equal values print alike
    texts = bordered(report.scalars_json(covector), "0")
    matrix = bordered(covector, Scalar.zero())
    oracles = residue_matrix(params, j)
    entries = []
    all_match = True
    worst = 0.0
    for l in range(4):
        for k in range(4):
            closed, oracle, text = matrix[l][k], oracles[l][k], texts[l][k]
            match = closed == oracle
            all_match = all_match and match
            entry = (l, k, text, text if match else str(oracle), match)
            if numeric is not None:
                value = numeric[l][k]
                err = residue_relative_error(closed, value)
                # max() would drop a NaN; once worst is NaN it stays NaN
                worst = err if math.isnan(err) else max(worst, err)
                entry += (f"{value.real:.12e}{value.imag:+.12e}j", f"{err:.3e}")
            entries.append(entry)
    summary = (tolerance, f"{worst:.3e}") if args.numeric else None
    timed = started if args.timing else None
    out.write(report.residue_check_text(params.u, j, entries, all_match, summary, timed))
    if not all_match or (args.numeric and not worst <= tolerance):
        raise OracleMismatch("pairing oracles disagree")
    return 0


def _scan_rows(args):
    """The (index, params, xi) rows; options are checked before any output,
    and an option the chosen mode would ignore is an error."""
    if args.grid is not None:
        if args.random is not None or args.seed is not None:
            raise DegenerateInput("--random and --seed do not apply to --grid cone:N")
        count = _parse_grid(args.grid)
        if not args.u:
            raise InvalidParameters("--grid cone:N needs --u")
        from .deformation import cone_directions
        from .scalars import Scalar

        params = parse_u(args.u)
        return ((i, params, cone_directions(params, Scalar.of(i))) for i in range(count))
    if args.random is None:
        raise DegenerateInput("scan needs --random N or --grid cone:N")
    if args.random < 0:
        raise DegenerateInput("--random takes a count N >= 0")
    if args.u is not None:
        raise DegenerateInput("--u applies only to --grid cone:N")
    from .prng import SplitMix64, sample_params, sample_tangent

    rng = SplitMix64(0 if args.seed is None else args.seed)
    return ((i, sample_params(rng), sample_tangent(rng)) for i in range(args.random))


def cmd_scan(args, out) -> int:
    from . import report
    from .deformation import delta_nu_c_test

    counts: dict = {}
    csv = args.format == "csv"
    rows = _scan_rows(args)
    if csv:
        out.write("index,u1,u2,u3,xi1,xi2,xi3,conic_value,variant\n")
    for i, params, xi in rows:
        cert = delta_nu_c_test(params, xi)
        variant = cert.variant
        counts[variant] = counts.get(variant, 0) + 1
        if csv:
            out.write(",".join([str(i), *map(str, params.u), *map(str, xi.a), str(cert.conic_value), variant]) + "\n")
        else:
            out.write(report.scan_row_line(i, params.u, xi.a, cert.conic_value, variant))
    summary = {k: counts[k] for k in sorted(counts)}
    out.write(f"# summary: {summary}\n" if csv else report.scan_summary_line(summary))
    return 0


def cmd_ideal(args, out) -> int:
    from . import report
    from .canonical_ideal import canonical_cubic, sym2_relation

    params = parse_u(args.u)
    quadric = sym2_relation(params)
    cubic = canonical_cubic(params)
    document = {
        "u": report.scalars_json(params.u),
        "quadric": report.form_json(quadric),
        "cubic": report.form_json(cubic),
        "monomial_order": report.MONOMIAL_ORDER,
        "tags": {"quadric": "quadric-cone", "cubic": "canonical-cubic"},
    }
    out.write(report.dumps(document))
    return 0


def cmd_schiffer(args, out) -> int:
    from . import report
    from .canonical_ideal import schiffer_values

    params = parse_u(args.u)
    point = _parse_literals(args.point, "--point", 4)
    quadric_value, cubic_value = schiffer_values(params, point)
    document = {
        "u": report.scalars_json(params.u),
        "point": report.scalars_json(point),
        "quadric_value": str(quadric_value),
        "cubic_value": str(cubic_value),
        "is_schiffer": not quadric_value and not cubic_value,
        "tags": {
            "is_schiffer": "schiffer-ideal-membership",
            "quadric_value": "quadric-cone",
            "cubic_value": "canonical-cubic",
        },
    }
    out.write(report.dumps(document))
    return 0


def cmd_d0(args, out) -> int:
    from . import report
    from .rulings import d0_cycle
    from .scalars import parse_projective

    params = parse_u(args.u)
    t1 = parse_projective(args.t1)
    t2 = parse_projective(args.t2) if args.t2 is not None else None
    cycle = d0_cycle(params, t1, t2)
    document = {
        "u": report.scalars_json(params.u),
        "t1": str(cycle.t1),
        "t2": str(cycle.t2),
        "plus": report.divisor_json(cycle.plus),
        "minus": report.divisor_json(cycle.minus),
        "witness": cycle.witness,
        "tags": {
            "t2": "parameter-relation",
            "plus": "ruling-lines",
            "minus": "ruling-lines",
            "witness": "rational-triviality-witness",
        },
    }
    out.write(report.dumps(document))
    return 0


def cmd_qz24(args, out) -> int:
    from . import report
    from .qz24 import ANNOTATION, CONIC_VALUE, COVECTOR, probe_at
    from .scalars import Scalar

    a_value = Scalar.parse(args.a) if args.a is not None else None
    document = {
        "a": str(a_value) if a_value is not None else None,
        "covector": [{"num": num, "den": den} for num, den in COVECTOR],
        "conic_value": {"num": CONIC_VALUE[0], "den": CONIC_VALUE[1]},
        "variant": "NotOnConic",  # the conic value -1/(9 a**2 (a - 1)**2) never vanishes
        "open_question": ANNOTATION,
        "tags": {"covector": "cube-family-probe", "conic_value": "conic-criterion"},
    }
    if a_value is not None:
        covector, value = probe_at(a_value)
        document["covector_at_a"] = report.scalars_json(covector)
        document["value_at_a"] = str(value)
    out.write(report.dumps(document))
    return 0


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------

# Each command's function, help line and options.  An option maps to its
# (type, default, required, choices): a type of None keeps the text, and
# bool makes a store_true flag.  build_parser builds argparse from the
# table, and canonical_args reads a canonical argv with it directly.
_REQUIRED, _OPTIONAL, _INT = (None, None, True, None), (None, None, False, None), (int, None, False, None)
_FLAG = (bool, False, False, None)
_COMMON = {"--series-order": (int, DEFAULT_SERIES_ORDER, False, None), "--timing": _FLAG}
COMMANDS = {
    "analyze": (cmd_analyze, "full per-direction report", {"--u": _REQUIRED, "--xi": _REQUIRED, **_COMMON}),
    "residue-check": (
        cmd_residue_check,
        "closed form vs residue oracle, all 16 entries",
        # --quad-nodes is deformation.DEFAULT_NODES when absent
        {"--u": _REQUIRED, "--j": (int, None, True, None), "--numeric": _FLAG, "--quad-nodes": _INT,
         "--numeric-tolerance": (float, NUMERIC_TOLERANCE, False, None), **_COMMON},
    ),
    "scan": (
        cmd_scan,
        "stratify sampled directions by certificate variant",
        # --seed is 0 when absent, and an error with --grid
        {"--random": _INT, "--seed": _INT, "--grid": _OPTIONAL, "--u": _OPTIONAL,
         "--format": (None, "json", False, ("json", "csv"))},
    ),
    "ideal": (cmd_ideal, "quadric and cubic of the canonical ideal", {"--u": _REQUIRED}),
    "schiffer": (
        cmd_schiffer, "ideal-membership test of a projective point", {"--u": _REQUIRED, "--point": _REQUIRED}
    ),
    "d0": (
        cmd_d0,
        "ruling-section difference and triviality witness",
        {"--u": _REQUIRED, "--t1": _REQUIRED, "--t2": _OPTIONAL},
    ),
    "qz24": (cmd_qz24, "exact probe of the cube-root one-parameter family", {"--a": _OPTIONAL}),
}


@functools.cache
def build_parser():
    """The argument parser, built on first use and shared by every later
    call: parse_args keeps no state between calls.  Help and usage text
    wraps at the width argparse derives from an 80-column terminal, whatever
    COLUMNS or the terminal says, so the bytes are fixed."""
    import argparse

    formatter = functools.partial(argparse.HelpFormatter, width=78)
    parser = argparse.ArgumentParser(
        prog="trigonal4",
        description="Exact deformation invariants of a family of trigonal genus-4 curves.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, formatter_class=formatter)
        for option, (kind, default, required, choices) in options.items():
            if kind is bool:
                p.add_argument(option, action="store_true")
            else:
                p.add_argument(option, type=kind, default=default, required=required, choices=choices)
        p.set_defaults(func=func)
    return parser


def canonical_args(argv):
    """The namespace parse_args reads from a well-formed argv, else None.
    After the command come exact flags and exact option names, each with a
    nonempty value other than --, attached (--name=value) or in the next
    token if that does not start with - (argparse reads it as an option, a
    negative number or --).  No option repeats, every required one is given,
    each value converts with the call argparse makes and every choice is valid."""
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    func, _, options = command
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, equals, text = token.partition("=")
        option = options.get(name)
        if option is None or name in given or equals and option[0] is bool:
            return None
        kind, _, _, choices = option
        if kind is bool:
            given[name] = True
            continue
        text = text if equals else next(tokens, "-")
        if not text or text == "--" or not equals and text[0] == "-":
            return None
        if kind is not None:
            try:
                text = kind(text)
            except ValueError:
                return None
        if choices is not None and text not in choices:
            return None
        given[name] = text
    args = {"command": argv[0], "func": func}
    for name, (_, default, required, _) in options.items():
        if required and name not in given:
            return None
        args[name[2:].replace("-", "_")] = given.get(name, default)
    return SimpleNamespace(**args)


def main(argv=None, out=None) -> int:
    """Answer one request on out and return its exit code, never raising
    SystemExit: argparse's is 0 after help on out and 2 after usage on stderr."""
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)
    args = canonical_args(argv)
    if args is None:
        import contextlib

        parser = build_parser()
        with contextlib.redirect_stdout(out):
            try:
                # an attached "--" (--u=--) is refused here: argparse versions
                # differ on it, dropping it (an empty value) or keeping it
                if any(token[:1] == "-" and token.partition("=")[2] == "--" for token in argv):
                    parser.error("-- is not an option value")
                args = parser.parse_args(argv)
            except SystemExit as exc:
                return exc.code
    try:
        return args.func(args, out)
    except Trigonal4Error as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
