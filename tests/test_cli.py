import io
import json
import math

import pytest

from trigonal4 import cli, deformation, qz24
from trigonal4.cli import main
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
    "u, xi",
    [("0,2,3", "-1,7,26"), ("0,2,3", "0,-14,0")],
    ids=["infinity", "branch-t2"],
)
def test_series_order_changes_only_its_echo(u, xi):
    # the certificate reads the support off a closed form, so the order
    # reaches no computed field of analyze
    documents = []
    for order in (1, 64):
        code, text = run_cli(["analyze", f"--u={u}", f"--xi={xi}", f"--series-order={order}"])
        assert code == 0
        doc = json.loads(text)
        assert doc.pop("series_order") == order
        assert doc["certificate"]["variant"] == "OnConicSupported"
        documents.append(doc)
    assert documents[0] == documents[1]


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

    for owner, names in ((UniPoly, ("from_roots", "evaluate")), (Matrix, ("det", "inverse", "apply", "kernel_basis", "rank"))):
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


@pytest.mark.parametrize("nodes", ["0", "-3"])
def test_residue_check_rejects_nodeless_quadrature(nodes):
    code, text = run_cli(
        ["residue-check", "--u", "0,2,3", "--j", "1", "--numeric", "--quad-nodes", nodes]
    )
    assert code == 2 and text == ""


def test_residue_check_rejects_too_many_nodes():
    assert cli.MAX_QUAD_NODES == 4096
    code, text = run_cli(
        ["residue-check", "--u", "0,2,3", "--j", "1", "--numeric", "--quad-nodes", "4097"]
    )
    assert code == 2 and text == ""


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
        cli, "numeric_residue_matrix", lambda params, j, nodes: [[complex(math.nan, 0)] * 4] * 4
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


def test_qz24_checks_a_before_any_work(monkeypatch):
    def no_work():
        raise AssertionError("the covector was computed for a rejected --a")

    monkeypatch.setattr(qz24, "cube_family_covector", no_work)
    code, text = run_cli(["qz24", "--a=1"])
    assert code == 2 and text == ""
