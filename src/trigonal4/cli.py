"""Command-line surface.

Subcommands: analyze, residue-check, scan, ideal, schiffer, d0, qz24.
Exit codes: 0 success; a library error prints ``label: message`` on stderr
and exits with the code its class carries (see trigonal4.errors).

All scalar I/O uses the canonical literal syntax (``p/q`` or
``p/q+r/s*w``, ``inf`` for the point at infinity).  Output is JSON (or CSV
for scans) and byte-identical across runs for identical inputs and seed;
timing is only emitted under --timing, which intentionally breaks that.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

from . import report
from .canonical_ideal import canonical_cubic, schiffer_test, sym2_relation
from .curve import validate_params
from .deformation import (
    TangentVector,
    cone_directions,
    delta_nu_c_test,
    pairing_matrix,
    residue_matrix,
)
from .errors import DegenerateInput, InvalidParameters, OracleMismatch, Trigonal4Error
from .numeric import DEFAULT_NODES, MAX_QUAD_NODES, numeric_residue_matrix, residue_relative_error
from .prng import SplitMix64, sample_params, sample_tangent
from .qz24 import ANNOTATION, cube_family_report, evaluate_at
from .rulings import d0_cycle
from .scalars import Scalar, parse_projective

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
    nodes, tolerance = args.quad_nodes, args.numeric_tolerance
    if not 1 <= nodes <= MAX_QUAD_NODES:
        raise DegenerateInput(f"--quad-nodes must lie in 1..{MAX_QUAD_NODES}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise DegenerateInput("--numeric-tolerance must be finite and positive")
    return nodes, tolerance


_COUNT_WORDS = {3: "three", 4: "four"}


def _parse_literals(text: str, option: str, count: int, error=DegenerateInput) -> tuple:
    """The ``count`` comma-separated scalar literals of an option value."""
    parts = text.split(",")
    if len(parts) != count:
        raise error(f"expected {_COUNT_WORDS[count]} comma-separated scalar literals for {option}")
    return tuple(Scalar.parse(p) for p in parts)


def parse_u(text: str):
    """The parameter point of a --u value; residue_table.py reads it too."""
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
    started = time.perf_counter()
    order = _series_order(args)
    params = parse_u(args.u)
    # a zero xi is refused by the certificate (ZeroTangent)
    xi = TangentVector(_parse_literals(args.xi, "--xi", 3))
    cert = delta_nu_c_test(params, xi)
    encoded = report.certificate_json(cert)
    document = {
        "input": {"u": report.scalars_json(params.u), "xi": report.scalars_json(xi.a)},
        "ks_rank": cert.rank,
        "pairing_matrix": [report.scalars_json(row) for row in cert.pairing],
        **{key: encoded[key] for key in ("kernel_basis", "conic", "base_locus", "supported")},
        "certificate": encoded,
        "series_order": order,
        "tags": {
            "input": "base-membership",
            "ks_rank": "ks-rank-two",
            "pairing_matrix": "pairing-closed-form",
            "kernel_basis": "kernel-covector",
            "conic": "conic-criterion",
            "base_locus": "base-locus-fibers",
            "supported": "support-annihilation",
            "certificate": "certificate-three-way",
        },
    }
    if args.timing:
        document["elapsed_ms"] = round(1000 * (time.perf_counter() - started), 3)
    out.write(report.dumps(document))
    return 0


def cmd_residue_check(args, out) -> int:
    started = time.perf_counter()
    _series_order(args)
    nodes, tolerance = _numeric_settings(args)
    params = parse_u(args.u)
    j = args.j
    if j not in (1, 2, 3):
        raise InvalidParameters("--j must be 1, 2 or 3")
    direction = [Scalar.zero()] * 3
    direction[j - 1] = Scalar.one()
    matrix = pairing_matrix(params, TangentVector(tuple(direction)))
    numeric = numeric_residue_matrix(params, j, nodes) if args.numeric else None
    oracles = residue_matrix(params, j)
    entries = []
    all_match = True
    worst = 0.0
    for l in range(4):
        for k in range(4):
            closed = matrix[l][k]
            oracle = oracles[l][k]
            match = closed == oracle
            all_match = all_match and match
            row = {
                "l": l,
                "k": k,
                "closed": str(closed),
                "oracle": str(oracle),
                "match": match,
            }
            if numeric is not None:
                value = numeric[l][k]
                err = residue_relative_error(closed, value)
                # max() would drop a NaN; once worst is NaN it stays NaN
                worst = err if math.isnan(err) else max(worst, err)
                row["numeric"] = f"{value.real:.12e}{value.imag:+.12e}j"
                row["rel_err"] = f"{err:.3e}"
            entries.append(row)
    document = {
        "u": report.scalars_json(params.u),
        "j": j,
        "entries": entries,
        "all_match": all_match,
        "tags": {
            "closed": "pairing-closed-form",
            "oracle": "pairing-residue-oracle",
            "numeric": "numeric-contour-quadrature",
        },
    }
    if args.numeric:
        document["numeric_tolerance"] = tolerance
        document["worst_rel_err"] = f"{worst:.3e}"
    if args.timing:
        document["elapsed_ms"] = round(1000 * (time.perf_counter() - started), 3)
    out.write(report.dumps(document))
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
        params = parse_u(args.u)
        return ((i, params, cone_directions(params, Scalar.of(i))) for i in range(count))
    if args.random is None:
        raise DegenerateInput("scan needs --random N or --grid cone:N")
    if args.random < 0:
        raise DegenerateInput("--random takes a count N >= 0")
    if args.u is not None:
        raise DegenerateInput("--u applies only to --grid cone:N")
    rng = SplitMix64(0 if args.seed is None else args.seed)
    return ((i, sample_params(rng), sample_tangent(rng)) for i in range(args.random))


def cmd_scan(args, out) -> int:
    counts: dict = {}
    csv = args.format == "csv"
    rows = _scan_rows(args)
    if csv:
        out.write("index,u1,u2,u3,xi1,xi2,xi3,conic_value,variant\n")
    for i, params, xi in rows:
        cert = delta_nu_c_test(params, xi)
        variant = cert.variant.value
        counts[variant] = counts.get(variant, 0) + 1
        if csv:
            cells = (
                [str(i)]
                + [str(c) for c in params.u]
                + [str(c) for c in xi.a]
                + [str(cert.conic_value), variant]
            )
            out.write(",".join(cells) + "\n")
        else:
            out.write(
                report.dumps_line(
                    {
                        "index": i,
                        "u": report.scalars_json(params.u),
                        "xi": report.scalars_json(xi.a),
                        "conic_value": str(cert.conic_value),
                        "variant": variant,
                    }
                )
            )
    summary = {"summary": {k: counts[k] for k in sorted(counts)}, "tag": "certificate-three-way"}
    if csv:
        out.write(f"# summary: {summary['summary']}\n")
    else:
        out.write(report.dumps_line(summary))
    return 0


def cmd_ideal(args, out) -> int:
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
    params = parse_u(args.u)
    point = _parse_literals(args.point, "--point", 4)
    is_schiffer = schiffer_test(params, point)
    document = {
        "u": report.scalars_json(params.u),
        "point": report.scalars_json(point),
        "quadric_value": str(sym2_relation(params).evaluate(point)),
        "cubic_value": str(canonical_cubic(params).evaluate(point)),
        "is_schiffer": is_schiffer,
        "tags": {
            "is_schiffer": "schiffer-ideal-membership",
            "quadric_value": "quadric-cone",
            "cubic_value": "canonical-cubic",
        },
    }
    out.write(report.dumps(document))
    return 0


def cmd_d0(args, out) -> int:
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
    a_value = Scalar.parse(args.a) if args.a is not None else None
    probe = cube_family_report(a_value)
    document = {
        "a": str(a_value) if a_value is not None else None,
        "covector": [report.rational_function_json(c) for c in probe.covector],
        "conic_value": report.rational_function_json(probe.conic_value),
        "variant": "NotOnConic" if probe.conic_value[0] else "OnConic",
        "open_question": ANNOTATION,
        "tags": {"covector": "cube-family-probe", "conic_value": "conic-criterion"},
    }
    if a_value is not None:
        document["covector_at_a"] = [str(evaluate_at(c, a_value)) for c in probe.covector]
        document["value_at_a"] = str(evaluate_at(probe.conic_value, a_value))
    out.write(report.dumps(document))
    return 0


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    call: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="trigonal4",
        description="Exact deformation invariants of a family of trigonal genus-4 curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--series-order", type=int, default=DEFAULT_SERIES_ORDER)
        p.add_argument("--timing", action="store_true")

    p = sub.add_parser("analyze", help="full per-direction report")
    p.add_argument("--u", required=True)
    p.add_argument("--xi", required=True)
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("residue-check", help="closed form vs residue oracle, all 16 entries")
    p.add_argument("--u", required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--numeric", action="store_true")
    p.add_argument("--quad-nodes", type=int, default=DEFAULT_NODES)
    p.add_argument("--numeric-tolerance", type=float, default=NUMERIC_TOLERANCE)
    add_common(p)
    p.set_defaults(func=cmd_residue_check)

    p = sub.add_parser("scan", help="stratify sampled directions by certificate variant")
    p.add_argument("--random", type=int)
    p.add_argument("--seed", type=int)  # 0 when absent; an error with --grid
    p.add_argument("--grid")
    p.add_argument("--u")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("ideal", help="quadric and cubic of the canonical ideal")
    p.add_argument("--u", required=True)
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("schiffer", help="ideal-membership test of a projective point")
    p.add_argument("--u", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(func=cmd_schiffer)

    p = sub.add_parser("d0", help="ruling-section difference and triviality witness")
    p.add_argument("--u", required=True)
    p.add_argument("--t1", required=True)
    p.add_argument("--t2")
    p.set_defaults(func=cmd_d0)

    p = sub.add_parser("qz24", help="exact probe of the cube-root one-parameter family")
    p.add_argument("--a")
    p.set_defaults(func=cmd_qz24)

    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse drops "--" from an attached value (--u=--) and stores []
    if [] in vars(args).values():
        parser.error("-- is not an option value")
    try:
        return args.func(args, out)
    except Trigonal4Error as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
