import contextlib
import io
import json
import math
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from trigonal4 import canonical_ideal, cli, deformation, numeric, report
from trigonal4.cli import main
from trigonal4.errors import (
    DegenerateInput,
    InvalidParameters,
    OracleMismatch,
    StructuralError,
    Trigonal4Error,
    ZeroTangent,
)
from trigonal4.linalg import Matrix
from trigonal4.polynomials import UniPoly


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out)
    return code, out.getvalue()


def test_analyze_supported_case():
    code, text = run_cli(["analyze", "--u", "0,2,3", "--xi", "1,0,0"])
    assert code == 0
    doc = json.loads(text)
    assert doc["certificate"]["variant"] == "OnConicSupported"
    assert doc["ks_rank"] == 2
    assert doc["base_locus"] == [[{"kind": "branch", "x": "0"}, 3]]
    assert doc["conic"]["on_conic"] is True
    assert doc["certificate"]["subspace_dim"] == 6
    assert "elapsed_ms" not in doc


# The documented error table: each class's exit code and stderr label.
ERROR_TABLE = [
    (InvalidParameters, 2, "invalid parameters"),
    (DegenerateInput, 2, "invalid input"),
    (ZeroTangent, 3, "invalid tangent"),
    (OracleMismatch, 4, "oracle disagreement"),
    (StructuralError, 5, "structural error"),
    (Trigonal4Error, 5, "error"),
]
LABELS_BY_CODE = {code: tuple(f"{l}: " for _, c, l in ERROR_TABLE if c == code) for _, code, _ in ERROR_TABLE}


@pytest.mark.parametrize("error, code, label", ERROR_TABLE, ids=[e.__name__ for e, _, _ in ERROR_TABLE])
def test_library_error_exits_with_its_code_and_label(monkeypatch, error, code, label):
    # main reports any library error as "label: message" and returns its
    # code; a command imports the library names it reads when it runs, so
    # the name is patched where it is defined
    def raising(params):
        raise error("planted message")

    monkeypatch.setattr(canonical_ideal, "sym2_relation", raising)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        result, text = run_cli(["ideal", "--u=0,2,3"])
    assert (result, text) == (code, "")
    assert err.getvalue() == f"{label}: planted message\n"


def test_readme_exit_codes_name_the_error_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    paragraph = readme[readme.index("Exit codes:"):].split("\n\n", 1)[0]
    for _, code, label in ERROR_TABLE:
        assert f"`{code}`" in paragraph, code
        assert f"`{label}:`" in paragraph, label


def test_analyze_exit_codes():
    code, _ = run_cli(["analyze", "--u", "1,2,3", "--xi", "1,0,0"])
    assert code == 2
    code, _ = run_cli(["analyze", "--u", "2,2,3", "--xi", "1,0,0"])
    assert code == 2
    code, _ = run_cli(["analyze", "--u", "0,2,3", "--xi", "0,0,0"])
    assert code == 3
    code, _ = run_cli(["analyze", "--u", "0,2,3", "--xi", "not-a-literal,0,0"])
    assert code == 2
    code, _ = run_cli(["analyze", "--u", "1/0,2,3", "--xi", "1,0,0"])
    assert code == 2
    code, _ = run_cli(["analyze", "--u", "0,2,3", "--xi", "1,0,2/0*w"])
    assert code == 2


@pytest.mark.parametrize("order", ["0", "-5", "65"])
@pytest.mark.parametrize(
    "command",
    [
        ["analyze", "--u", "0,2,3", "--xi", "1,0,0"],
        ["residue-check", "--u", "0,2,3", "--j", "1"],
    ],
    ids=["analyze", "residue-check"],
)
def test_series_order_out_of_range(command, order):
    code, text = run_cli(command + [f"--series-order={order}"])
    assert code == 2 and text == ""


@pytest.mark.parametrize("order", ["1", "64"])
def test_series_order_bounds_accepted(order):
    code, text = run_cli(["analyze", "--u", "0,2,3", "--xi", "1,2,3", f"--series-order={order}"])
    assert code == 0
    assert json.loads(text)["series_order"] == int(order)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--u=0,2,3", "--xi=-1,7,26"],
        ["analyze", "--u=0,2,3", "--xi=0,-14,0"],
        ["residue-check", "--u=0,2,3", "--j=2"],
        ["residue-check", "--u=2,4,8", "--j=3", "--numeric", "--quad-nodes=128"],
    ],
    ids=["infinity", "branch-t2", "residue-check", "residue-check-numeric"],
)
def test_series_order_changes_only_its_echo(argv):
    # every series consumer derives its own truncation, so the order reaches
    # no computed field: analyze differs only in its echo, residue-check not
    # in a byte
    outputs = []
    for order in (1, 64):
        code, text = run_cli(argv + [f"--series-order={order}"])
        assert code == 0
        if argv[0] == "analyze":
            doc = json.loads(text)
            assert doc.pop("series_order") == order
            assert doc["certificate"]["variant"] == "OnConicSupported"
            text = json.dumps(doc)
        outputs.append(text)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("extra", [[], ["--numeric", "--quad-nodes=64"]], ids=["exact", "numeric"])
def test_residue_check_builds_no_branch_inversion(monkeypatch, extra):
    # The exact oracle reads its Laurent data off the leading terms at the
    # branch point, so no residue-check expands a series there.
    def refuse(*args, **kwargs):
        raise AssertionError("residue-check built a branch inversion")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "trigonal4" and hasattr(module, "branch_inversion"):
            monkeypatch.setattr(module, "branch_inversion", refuse)
    for j in (1, 2, 3):
        code, text = run_cli(["residue-check", "--u=0,2,3", f"--j={j}", *extra])
        assert code == 0
        assert json.loads(text)["all_match"] is True


@pytest.mark.parametrize("xi", ["1,2,3", "1,0,0"], ids=["off-conic", "on-conic"])
def test_analyze_builds_one_covector(monkeypatch, xi):
    # The report reads the pairing matrix and its rank off the certificate's
    # covector, so one request builds the covector once.
    builds = []
    real_pairing_covector = deformation.pairing_covector

    def counted(params, direction):
        builds.append(params)
        return real_pairing_covector(params, direction)

    monkeypatch.setattr(deformation, "pairing_covector", counted)
    code, _ = run_cli(["analyze", "--u=0,2,3", f"--xi={xi}"])
    assert code == 0
    assert len(builds) == 1


def test_off_conic_requests_read_the_base_off_closed_forms(monkeypatch):
    # Q, Q'(u_j), the covector, its kernel and the pairing rank have closed
    # forms: an off-conic scan row or analyze multiplies out no polynomial
    # from its roots, evaluates none, and takes no determinant, inverse,
    # matrix-vector product, kernel or rank by elimination.
    def refuse(*args, **kwargs):
        raise AssertionError("an off-conic request left the closed forms")

    for owner, names in ((UniPoly, ("evaluate",)), (Matrix, ("det", "inverse", "apply", "kernel_basis", "rank"))):
        for name in names:
            monkeypatch.setattr(owner, name, refuse, raising=False)
    code, text = run_cli(["scan", "--random", "20", "--seed", "7"])
    assert code == 0
    assert json.loads(text.splitlines()[-1])["summary"] == {"NotOnConic": 20}
    code, text = run_cli(["analyze", "--u=0,2,3", "--xi=1,2,3"])
    assert code == 0
    assert json.loads(text)["certificate"]["variant"] == "NotOnConic"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--u=0,2," + "1" * 5000, "--xi=1,0,0"],
        ["analyze", "--u=0,2,3", "--xi=" + "1" * 4400 + ",0,0"],
        ["analyze", "--u=0,2,3", "--xi=1/" + "7" * 4400 + ",0,0"],
        ["schiffer", "--u=0,2,3", "--point=0,1,0," + "1" * 4400],
        ["d0", "--u=0,2,3", "--t1=" + "1" * 4400],
        ["qz24", "--a=" + "1" * 4400],
    ],
    ids=["u", "xi", "xi-denominator", "point", "t1", "a"],
)
def test_literal_beyond_int_digit_limit_exits_2(argv):
    code, text = run_cli(argv)
    assert code == 2 and text == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--u=0,\u0662,3", "--xi=1,0,0"],
        ["analyze", "--u=0,2,3", "--xi=\u0663,0,0"],
        ["qz24", "--a=\u0662"],
    ],
    ids=["u", "xi", "a"],
)
def test_literal_digits_must_be_ascii(argv):
    code, text = run_cli(argv)
    assert code == 2 and text == ""


def test_output_beyond_int_digit_limit_exits_2():
    # The inputs parse, but the ~6000-digit conic value cannot be printed.
    x = "1" * 3000
    code, text = run_cli(["analyze", "--u=0,2,3", f"--xi={x},{x},1"])
    assert code == 2 and text == ""


@pytest.mark.parametrize(
    "grid",
    ["cone:\u00b2", "cone:\u0663", "cone:" + "1" * 5000],
    ids=["superscript-two", "arabic-indic-three", "5000-digits"],
)
def test_scan_grid_count_must_be_ascii_digits(grid):
    code, text = run_cli(["scan", "--grid", grid, "--u=0,2,3"])
    assert code == 2 and text == ""


def test_analyze_deterministic_bytes():
    _, first = run_cli(["analyze", "--u", "0,2,3", "--xi", "1,2,3"])
    _, second = run_cli(["analyze", "--u", "0,2,3", "--xi", "1,2,3"])
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--u", "0,2,3", "--xi", "1,2,3"],
        ["residue-check", "--u", "0,2,3", "--j", "1"],
        ["residue-check", "--u", "0,2,3", "--j", "2", "--numeric", "--quad-nodes", "128"],
    ],
    ids=["analyze", "residue-check", "residue-check-numeric"],
)
def test_timing_adds_only_elapsed_ms(argv):
    _, plain = run_cli(argv)
    _, timed = run_cli(argv + ["--timing"])
    assert "elapsed_ms" not in json.loads(plain)
    document = json.loads(timed)
    assert document.pop("elapsed_ms") >= 0
    assert report.dumps(document) == plain


def test_parser_is_built_once():
    cli.build_parser.cache_clear()
    run_cli(["ideal", "--u", "0,2,3"])
    run_cli(["schiffer", "--u", "0,2,3", "--point", "0,1,0,0"])
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_reused_parser_rejects_invalid_argv():
    cli.build_parser.cache_clear()
    for argv in (["analyze", "--u", "0,2,3"], ["analyze", "--u", "0,2,3"], ["no-such-command"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
    code, text = run_cli(["analyze", "--u", "0,2,3", "--xi", "1,0,0"])
    assert code == 0 and json.loads(text)["ks_rank"] == 2
    assert cli.build_parser.cache_info().misses == 1


# argv tokens that parse, and that argparse refuses or reads its own way:
# separate and attached values, an abbreviation, repeats, "--", help,
# unknown options and commands, and a stray positional.
_COMMAND_TOKENS = ["analyze", "residue-check", "scan", "ideal", "qz24", "bogus", "-h", "--u=0,2,3", "--"]
_ARGUMENT_TOKENS = _COMMAND_TOKENS + [
    "--u", "0,2,3", "--xi=1,2,3", "--xi=--", "--j=1", "--j", "2", "--ser=3", "--series-order=2",
    "--numeric", "--quad-nodes=8", "--a=2", "--random=1", "--seed=3", "--format=csv", "--bogus", "x",
]


def _main_outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv, out)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


@given(
    st.tuples(st.sampled_from(_COMMAND_TOKENS), st.lists(st.sampled_from(_ARGUMENT_TOKENS), max_size=5)).map(
        lambda t: [t[0], *t[1]]
    )
)
@settings(max_examples=150)
@example(["analyze", "--u", "0,2,3", "--xi=1,2,3"])
@example(["analyze", "--u=0,2,3", "--xi=1,2,3", "x"])
@example(["--", "ideal", "--u=0,2,3"])
@example(["qz24", "-h"])
def test_command_parser_reads_argv_as_parse_args_does(argv):
    # main hands what follows a command name to that command's parser, and
    # runs parse_args only to refuse leftovers; with no command parser to
    # read (an empty map) every argv goes through parse_args.  Codes, output
    # and messages must agree either way.
    parser = cli.build_parser()
    direct = _main_outcome(argv)
    command_parsers = parser.command_parsers
    try:
        parser.command_parsers = {}
        assert _main_outcome(argv) == direct
    finally:
        parser.command_parsers = command_parsers


def test_residue_check_agreement():
    code, text = run_cli(["residue-check", "--u", "0,2,3", "--j", "1"])
    assert code == 0
    doc = json.loads(text)
    assert doc["all_match"] is True
    assert len(doc["entries"]) == 16
    entry01 = next(e for e in doc["entries"] if e["l"] == 0 and e["k"] == 1)
    assert entry01["closed"] == "-1/6" and entry01["oracle"] == "-1/6"
    zeros = [e for e in doc["entries"] if e["l"] >= 1 and e["k"] >= 1]
    assert all(e["closed"] == "0" and e["oracle"] == "0" for e in zeros)


def test_residue_check_numeric_mode():
    code, text = run_cli(
        ["residue-check", "--u", "0,2,3", "--j", "2", "--numeric", "--quad-nodes", "128"]
    )
    assert code == 0
    doc = json.loads(text)
    assert float(doc["worst_rel_err"]) < 1e-8


def test_residue_check_tolerance_exceeded_trips_exit_4():
    # an unattainable tolerance makes the true quadrature error count as a
    # disagreement, exercising the oracle-mismatch exit path honestly
    code, _ = run_cli(
        [
            "residue-check",
            "--u", "0,2,3",
            "--j", "1",
            "--numeric",
            "--quad-nodes", "64",
            "--numeric-tolerance", "1e-30",
        ]
    )
    assert code == 4


@pytest.mark.parametrize("nodes", ["1", "2"])
def test_residue_check_too_few_nodes_is_a_disagreement(nodes):
    # One or two nodes cannot separate the y**-1 moment from the principal
    # part; that is a numeric disagreement (exit 4), not a structural error.
    code, text = run_cli(
        ["residue-check", "--u=0,2,3", "--j=1", "--numeric", f"--quad-nodes={nodes}"]
    )
    assert code == 4 and text == ""


NODE_RANGE_ERROR = "invalid input: --quad-nodes must lie in 1..4096\n"


# the exact path range-checks --quad-nodes too, though it runs no quadrature
@pytest.mark.parametrize(
    "nodes, extra", [("0", ["--numeric"]), ("-3", ["--numeric"]), ("0", [])], ids=["0", "-3", "0-exact"]
)
def test_residue_check_rejects_nodeless_quadrature(nodes, extra):
    code, text, err = _main_outcome(
        ["residue-check", "--u", "0,2,3", "--j", "1", *extra, "--quad-nodes", nodes]
    )
    assert code == 2 and text == ""
    assert err == NODE_RANGE_ERROR


def test_residue_check_rejects_too_many_nodes():
    assert numeric.MAX_QUAD_NODES == 4096
    for extra in (["--numeric"], []):
        code, text, err = _main_outcome(
            ["residue-check", "--u", "0,2,3", "--j", "1", *extra, "--quad-nodes", "4097"]
        )
        assert code == 2 and text == ""
        assert err == NODE_RANGE_ERROR


def test_residue_check_accepts_the_node_bound():
    # both the CLI and numeric_residue_matrix accept exactly MAX_QUAD_NODES
    code, text = run_cli(["residue-check", "--u=0,2,3", "--j=1", "--numeric", "--quad-nodes=4096"])
    assert code == 0 and json.loads(text)["all_match"] is True


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1", "0"])
def test_residue_check_rejects_meaningless_tolerance(tolerance):
    code, text = run_cli(
        [
            "residue-check", "--u=0,2,3", "--j=2", "--numeric", "--quad-nodes=64",
            f"--numeric-tolerance={tolerance}",
        ]
    )
    assert code == 2 and text == ""


def test_residue_check_nan_error_is_a_disagreement(monkeypatch):
    monkeypatch.setattr(
        numeric, "numeric_residue_matrix", lambda params, j, nodes: [[complex(math.nan, 0)] * 4] * 4
    )
    code, text = run_cli(["residue-check", "--u=0,2,3", "--j=2", "--numeric", "--quad-nodes=64"])
    assert code == 4
    assert json.loads(text)["worst_rel_err"] == "nan"


@pytest.mark.parametrize("j", ["1", "2", "3"])
def test_residue_check_numeric_where_horner_rounding_exceeds_old_bound(j):
    # Newton converges on this contour, but Q's terms reach ~1e5 there, so
    # the residual of a converged root is ~1e-12 and used to be rejected
    # (exit 5); the backward-error acceptance takes it.
    code, text = run_cli(
        [
            "residue-check", "--numeric", f"--j={j}", "--quad-nodes=128",
            "--u=3+-3*w,3+-8/3*w,5+5/2*w",
        ]
    )
    assert code == 0
    assert float(json.loads(text)["worst_rel_err"]) < 1e-8


def test_scan_deterministic():
    args = ["scan", "--random", "12", "--seed", "7"]
    _, first = run_cli(args)
    _, second = run_cli(args)
    assert first == second
    rows = [json.loads(line) for line in first.strip().splitlines()]
    assert len(rows) == 13  # 12 rows + summary
    assert "summary" in rows[-1]


def test_scan_grid_cone_all_on_conic():
    code, text = run_cli(["scan", "--grid", "cone:8", "--u", "0,2,3"])
    assert code == 0
    rows = [json.loads(line) for line in text.strip().splitlines()]
    body, summary = rows[:-1], rows[-1]
    assert len(body) == 8
    assert all(row["variant"].startswith("OnConic") for row in body)
    assert sum(summary["summary"].values()) == 8


@pytest.mark.parametrize(
    "argv",
    [
        ["--random=-5"],
        ["--random=-1", "--format=csv"],
        ["--random=2", "--seed=-1"],
        ["--random=2", f"--seed={2 ** 64}"],
        ["--random=2", f"--seed={2 ** 64 + 5}"],
    ],
)
def test_scan_random_count_and_seed_ranges(argv):
    code, text = run_cli(["scan"] + argv)
    assert code == 2 and text == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["--random=2", "--grid=cone:2", "--u=0,2,3"],
        ["--random=2", "--u=0,2,3"],
        ["--grid=cone:2", "--u=0,2,3", "--seed=5"],
    ],
    ids=["random-with-grid", "random-with-u", "seed-with-grid"],
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_scan_rejects_options_its_mode_ignores(argv, fmt):
    code, text = run_cli(["scan"] + argv + [f"--format={fmt}"])
    assert code == 2 and text == ""


@pytest.mark.parametrize(
    "fmt, expected",
    [
        ("json", '{"summary":{},"tag":"certificate-three-way"}\n'),
        ("csv", "index,u1,u2,u3,xi1,xi2,xi3,conic_value,variant\n# summary: {}\n"),
    ],
    ids=["json", "csv"],
)
def test_scan_random_zero_writes_no_rows(fmt, expected):
    code, text = run_cli(["scan", "--random=0", f"--format={fmt}"])
    assert code == 0 and text == expected


def test_scan_largest_seed_accepted():
    code, text = run_cli(["scan", "--random=1", f"--seed={2 ** 64 - 1}"])
    assert code == 0
    assert len(text.strip().splitlines()) == 2


def test_scan_csv_format():
    code, text = run_cli(["scan", "--random", "3", "--seed", "1", "--format", "csv"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0].startswith("index,u1,u2,u3")
    assert lines[-1].startswith("# summary:")
    assert len(lines) == 5


def test_ideal_document():
    code, text = run_cli(["ideal", "--u", "0,2,3"])
    assert code == 0
    doc = json.loads(text)
    assert doc["quadric"] == {"z1*z3": "-1", "z2^2": "1"}
    assert doc["cubic"]["z0^3"] == "1"
    assert doc["monomial_order"] == "grlex z0>z1>z2>z3"


def test_schiffer_document():
    code, text = run_cli(["schiffer", "--u", "0,2,3", "--point", "0,1,0,0"])
    assert code == 0
    doc = json.loads(text)
    assert doc["is_schiffer"] is True
    code, text = run_cli(["schiffer", "--u", "0,2,3", "--point", "1,0,0,0"])
    doc = json.loads(text)
    assert doc["is_schiffer"] is False and doc["cubic_value"] == "1"
    code, text = run_cli(["schiffer", "--u", "0,2,3", "--point", "0,0,0,0"])
    assert code == 2 and text == ""


def test_d0_document():
    code, text = run_cli(["d0", "--u", "0,2,3", "--t1", "1/4"])
    assert code == 0
    doc = json.loads(text)
    assert doc["t2"] == "6"
    assert doc["witness"] == "trivially equal"
    assert doc["plus"] == doc["minus"]
    code, text = run_cli(["d0", "--u", "0,2,3", "--t1", "1/4", "--t2", "7"])
    doc = json.loads(text)
    assert doc["witness"] == "(x-5)/(x-6)"
    code, text = run_cli(["d0", "--u", "0,2,3", "--t1", "0"])
    doc = json.loads(text)
    assert doc["t2"] == "inf"


def test_qz24_document():
    code, text = run_cli(["qz24", "--a", "2"])
    assert code == 0
    doc = json.loads(text)
    assert doc["covector"] == [
        {"num": "0", "den": "1"},
        {"num": "1/3", "den": "a^2-a"},
        {"num": "0", "den": "1"},
    ]
    assert doc["conic_value"] == {"num": "-1/9", "den": "a^4-2*a^3+a^2"}
    assert doc["covector_at_a"] == ["0", "1/6", "0"]
    assert doc["value_at_a"] == "-1/36"
    assert doc["variant"] == "NotOnConic"
    assert "open_question" in doc and doc["open_question"]
    # no assertion beyond the computed value: the document carries no claim fields
    assert "expected_containment" not in doc


def test_qz24_checks_a_before_any_work():
    code, text = run_cli(["qz24", "--a=1"])
    assert code == 2 and text == ""


# -- argv fuzz -------------------------------------------------------------------

_LITERAL = st.sampled_from(
    ["0", "1", "-1", "2", "3", "5", "1/2", "-4/3", "2+1*w", "-1*w", "1/3*w", "w", "inf", "",
     " ", "x", "1/0", "0/0", "nan", "1e3", "0x10", "٣", "--", "9" * 40]
)


def _literals(count, *valid):
    # a valid value, or one too few, the right number or one too many
    # comma-separated literals
    return st.sampled_from(valid) | st.lists(_LITERAL, min_size=count - 1, max_size=count + 1).map(",".join)


_U = _literals(3, "0,2,3", "2,4,8", "-1,-1*w,1+1*w", "1/2,-4/3,2+1*w")


def _optional(values):
    return st.none() | values


_SERIES_ORDER = _optional(st.sampled_from(["0", "1", "12", "64", "65", "-5", "x"]))
# required options are always given; counts stay small, so that every case
# runs in bounded time
_FUZZ_OPTIONS = {
    "analyze": {
        "--u": _U,
        "--xi": _literals(3, "1,0,0", "1,2,3", "-1,7,26", "0,-14,0"),
        "--series-order": _SERIES_ORDER,
    },
    "residue-check": {
        "--u": _U,
        "--j": st.sampled_from(["1", "2", "3", "0", "4", "-1", "x", "inf"]),
        "--quad-nodes": _optional(st.sampled_from(["-3", "0", "1", "2", "16", "64", "x", "4097"])),
        "--numeric-tolerance": _optional(st.sampled_from(["1e-8", "1", "0", "-1", "inf", "nan", "x"])),
        "--series-order": _SERIES_ORDER,
    },
    "scan": {
        "--random": _optional(st.sampled_from(["0", "1", "3", "-1", "x", "inf"])),
        "--seed": _optional(st.sampled_from(["0", "7", "-1", str(2**64), "x"])),
        "--grid": _optional(
            st.sampled_from(["cone:0", "cone:3", "cone:", "cone:x", "cone:-1", "cone:٣", "line:2", "inf"])
        ),
        "--u": _optional(_U),
        "--format": _optional(st.sampled_from(["json", "csv", "xml"])),
    },
    "ideal": {"--u": _U},
    "schiffer": {"--u": _U, "--point": _literals(4, "0,1,0,0", "1,0,0,0", "4,1,0,0")},
    "d0": {"--u": _U, "--t1": _LITERAL, "--t2": _optional(_LITERAL)},
    "qz24": {"--a": _optional(_LITERAL)},
}
_FUZZ_FLAGS = {"analyze": ("--timing",), "residue-check": ("--numeric", "--timing")}


@pytest.mark.parametrize(
    "argv",
    [["qz24", "--a=--"], ["ideal", "--u=--"], ["scan", "--random=--"], ["analyze", "--u=0,2,3", "--xi=--"]],
    ids=["qz24", "ideal", "scan", "analyze"],
)
def test_attached_double_dash_value_exits_2(argv):
    # argparse stores [] for --opt=--; it is a missing value, not a crash
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2


def _assert_documented_exit(argv, code, stderr):
    """0 with nothing on stderr, or a table code with a label the table pairs
    with it."""
    if code == 0:
        assert stderr == "", argv
    else:
        assert code in LABELS_BY_CODE, (argv, code)
        assert stderr.startswith(LABELS_BY_CODE[code]), (argv, code, stderr)
    assert "Traceback" not in stderr, argv


@pytest.mark.parametrize("command", sorted(_FUZZ_OPTIONS))
@given(data=st.data())
@settings(max_examples=40)
def test_argv_fuzz_exits_with_a_documented_code(command, data):
    argv = [command]
    for option, values in _FUZZ_OPTIONS[command].items():
        value = data.draw(values, label=option)
        if value is not None:
            argv.append(f"{option}={value}")
    argv += [flag for flag in _FUZZ_FLAGS.get(command, ()) if data.draw(st.booleans(), label=flag)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv, io.StringIO())
        except SystemExit as exc:  # argparse rejects the argv with usage
            assert exc.code == 2 and "Traceback" not in err.getvalue(), argv
            return
    _assert_documented_exit(argv, code, err.getvalue())


# -- argv fuzz over literal sizes ---------------------------------------------------

# Numerators and denominators of 1 to 4400 digits (the int() limit is 4300),
# signed, over an optional denominator, with and without a zeta part
_SIZED_DIGITS = st.builds(str.__mul__, st.sampled_from("123456789"), st.integers(min_value=1, max_value=4400))
_SIZED_PART = st.builds(
    lambda sign, num, den: sign + num + ("" if den is None else "/" + den),
    st.sampled_from(("", "-")),
    _SIZED_DIGITS,
    st.none() | _SIZED_DIGITS,
)
_SIZED_LITERAL = _SIZED_PART | _SIZED_PART.map("{}*w".format) | st.builds("{}+{}*w".format, _SIZED_PART, _SIZED_PART)


def _sized(valid):
    # the valid comma-separated literals with one of them replaced by a sized one
    parts = valid.split(",")
    return st.builds(
        lambda i, literal: ",".join(parts[:i] + [literal] + parts[i + 1:]),
        st.integers(min_value=0, max_value=len(parts) - 1),
        _SIZED_LITERAL,
    )


_SIZED_U = _sized("0,2,3")
_SIZED_OPTIONS = {
    "analyze": {"--u": _SIZED_U, "--xi": _sized("1,2,3")},
    "residue-check": {"--u": _SIZED_U, "--j": st.sampled_from(["1", "2", "3"]), "--quad-nodes": st.just("16")},
    "scan": {"--grid": st.just("cone:2"), "--u": _SIZED_U},
    "ideal": {"--u": _SIZED_U},
    "schiffer": {"--u": _SIZED_U, "--point": _sized("0,1,0,0")},
    "d0": {"--u": _SIZED_U, "--t1": _SIZED_LITERAL, "--t2": _optional(_SIZED_LITERAL)},
    "qz24": {"--a": _SIZED_LITERAL},
}


@pytest.mark.parametrize("command", sorted(_SIZED_OPTIONS))
@given(data=st.data())
@settings(max_examples=8)
def test_argv_fuzz_over_literal_sizes_exits_with_a_documented_code(command, data):
    argv = [command]
    for option, values in _SIZED_OPTIONS[command].items():
        value = data.draw(values, label=option)
        if value is not None:
            argv.append(f"{option}={value}")
    if command == "residue-check" and data.draw(st.booleans(), label="--numeric"):
        argv.append("--numeric")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, io.StringIO())
    _assert_documented_exit(argv, code, err.getvalue())


@pytest.mark.parametrize("text", ["1,1,2", "1,2,3", "0,2", "0,2,x"])
def test_parse_u_raises_on_every_call(text):
    # an error is never memoized: the same text fails again, with the same
    # message, however often it is asked for
    messages = []
    for _ in range(3):
        with pytest.raises((InvalidParameters, DegenerateInput)) as caught:
            cli.parse_u(text)
        messages.append(str(caught.value))
    assert len(set(messages)) == 1
    assert cli.parse_u.cache_info().maxsize == 32


def test_parse_u_validates_a_point_once():
    cli.parse_u.cache_clear()
    first = cli.parse_u("0,2,3")
    assert cli.parse_u("0,2,3") is first and cli.parse_u("0,2,4") is not first
    assert cli.parse_u.cache_info()[:2] == (1, 2)  # hits, misses
