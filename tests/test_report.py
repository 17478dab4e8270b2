"""The exact JSON of every divisor entry kind.  No command prints a finite
point, a fiber locus or a place locus, so the golden corpus cannot pin their
JSON; here every kind is built directly.  The fixed-shape writers print
the reference documents of tests/oracles/report.py.  The formula tags
the commands write are the README's tag table."""

import hashlib
import io
import json
import re
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import assume, example, given, settings

from trigonal4 import cli
from trigonal4.curve import BranchPoint, FiberLocus, FiberPoint, FinitePoint, InfinityPoint, PlaceLocus, validate_params
from trigonal4.deformation import NOT_ON_CONIC, ON_CONIC_SUPPORTED, TangentVector, cone_directions, delta_nu_c_test
from trigonal4.prng import SplitMix64, sample_params, sample_scalar, sample_tangent
from trigonal4.report import dumps, point_json, scan_row_line, scan_summary_line
from trigonal4.scalars import INFINITY, Scalar, ratio_scalar

from golden.record import CORPUS
from oracles.report import analyze_document, residue_check_document
from test_base_kernel import sampled, wide_literals

S = Scalar.parse

ENTRIES = (
    BranchPoint(S("2")),
    FinitePoint(S("1/2"), S("-1+1*w")),
    FiberPoint(S("5")),
    FiberLocus((S("-7"), S("0"), S("1"))),
    PlaceLocus((S("-7"), S("0"), S("1")), (S("1/3*w"), S("2"))),
    InfinityPoint(1),
)

EXPECTED = (
    '[{"kind":"branch","x":"2"},'
    '{"kind":"finite","x":"1/2","y":"-1+1*w"},'
    '{"kind":"fiber","x":"5"},'
    '{"kind":"fiber_locus","poly":["-7","0","1"]},'
    '{"kind":"place_locus","poly":["-7","0","1"],"y":["1/3*w","2"]},'
    '{"kind":"infinity","sheet":1}]\n'
)


def compact_line(document) -> str:
    """The compact JSON line a scan prints for document."""
    return json.dumps(document, separators=(",", ":")) + "\n"


def test_point_json_pins_every_entry_kind():
    documents = [point_json(entry) for entry in ENTRIES]
    assert compact_line(documents) == EXPECTED
    assert [d["kind"] for d in documents] == [entry.kind for entry in ENTRIES]


# JSON trees: str-keyed dicts (now and then an int key), lists, tuples and
# lists of str over non-ASCII and control-character strings, ints, bools,
# None, finite floats, nan and the infinities, empty containers included.
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text())
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(st.text()),
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(st.text(), children),
        st.dictionaries(st.one_of(st.text(), st.integers()), children, max_size=3),
    ),
    max_leaves=25,
)


@given(_TREES)
@settings(max_examples=80)
@example({"a": [], "b": {}, "c": ["\u00e9", "\x00\n"], "d": (1, True, None, 0.5, float("nan"), -float("inf"))})
def test_dumps_is_json_indent_2(document):
    assert dumps(document) == json.dumps(document, indent=2) + "\n"


class _Key(str):
    pass


@given(_TREES, _TREES)
@settings(max_examples=60)
def test_dumps_writes_a_shared_subtree_at_each_depth(shared, other):
    # analyze holds four certificate subtrees twice, at depths 1 and 2;
    # the same object here sits at depths 1, 3 and 4, beside empty
    # containers, a float, an int key and a str-subclass key.
    document = {
        "top": shared,
        "nested": {"deeper": [shared, other, {"deepest": shared}]},
        "empty": [{}, [], ()],
        "float": 0.5,
        "keys": {1: shared, _Key("sub"): other},
        _Key("sub"): [shared],
    }
    assert dumps(document) == json.dumps(document, indent=2) + "\n"


def row_document(index, u, xi, value, variant) -> dict:
    """A scan row as cmd_scan once built it for json's compact encoder."""
    return {
        "index": index,
        "u": [str(c) for c in u],
        "xi": [str(c) for c in xi],
        "conic_value": str(value),
        "variant": variant,
    }


_LITERALS = st.one_of(sampled, wide_literals(), st.sampled_from((Scalar.zero(), Scalar.parse("-1+-1*w"))))


@given(
    st.integers(min_value=0, max_value=10**30),
    st.lists(_LITERALS, min_size=7, max_size=7),
    st.sampled_from((NOT_ON_CONIC, ON_CONIC_SUPPORTED)),
)
@settings(max_examples=80)
def test_scan_row_line_is_compact_json(index, values, variant):
    u, xi, value = values[:3], values[3:6], values[6]
    expected = compact_line(row_document(index, u, xi, value, variant))
    assert scan_row_line(index, tuple(u), tuple(xi), value, variant) == expected


def test_scan_row_line_on_a_cone_grid():
    # every row of scan --grid=cone:20 --u=0,2,3, rebuilt and printed both ways
    params = validate_params(0, 2, 3)
    expected = []
    for i in range(20):
        xi = cone_directions(params, Scalar.of(i))
        cert = delta_nu_c_test(params, xi)
        line = compact_line(row_document(i, params.u, xi.a, cert.conic_value, cert.variant))
        assert scan_row_line(i, params.u, xi.a, cert.conic_value, cert.variant) == line
        expected.append(line)
    out = io.StringIO()
    assert cli.main(["scan", "--grid=cone:20", "--u=0,2,3"], out) == 0
    assert out.getvalue().splitlines(keepends=True)[:-1] == expected


@given(st.dictionaries(st.sampled_from((NOT_ON_CONIC, ON_CONIC_SUPPORTED)), st.integers(min_value=1, max_value=10**30)))
@example({})
def test_scan_summary_line_is_compact_json(counts):
    counts = {variant: counts[variant] for variant in sorted(counts)}
    expected = compact_line({"summary": counts, "tag": "certificate-three-way"})
    assert scan_summary_line(counts) == expected


_SEEDS = st.integers(min_value=0, max_value=2**64 - 1)


def _literal_argument(name: str, values) -> str:
    return f"--{name}=" + ",".join(map(str, values))


def _timed(argv: list, timing: bool) -> tuple:
    """The output of a run of argv, with --timing when timing is set, and
    the elapsed_ms it printed (None without --timing)."""
    out = io.StringIO()
    code = cli.main(argv + ["--timing"] * timing, out)
    text = out.getvalue()
    return code, text, json.loads(text)["elapsed_ms"] if timing and text else None


@st.composite
def _analyze_cases(draw):
    """A sampled point and a direction off the conic (sampled) or on it: the
    cone direction at a sampled t, at infinity, or at a branch x (one of
    the u_j or a cube root of unity), whose base locus is a branch point."""
    rng = SplitMix64(draw(_SEEDS))
    params = sample_params(rng)
    kind = draw(st.sampled_from(("sampled", "cone", "infinity", "branch")))
    if kind == "sampled":
        xi = sample_tangent(rng)
    else:
        branch = params.u + (Scalar.one(), Scalar.zeta(), Scalar.zeta_power(2))
        t = {"cone": sample_scalar(rng, 9, 3), "infinity": INFINITY, "branch": draw(st.sampled_from(branch))}[kind]
        xi = cone_directions(params, t)
    return params, xi, draw(st.sampled_from((None, 1, 64))), None


_U023 = validate_params(0, 2, 3)


@given(_analyze_cases(), st.booleans())
@settings(max_examples=60)
# the cone direction at infinity: c0 = c1 = 0, so the kernel pivots on c2
@example((_U023, cone_directions(_U023, INFINITY), None, None), True)
# a = (Q'(0), -Q'(2), 0) = (-6, 14, 0): c0 = 1 - 1 = 0 != c1 = -2, a pivot on c1
@example((_U023, TangentVector((-6, 14, 0)), None, None), False)
# --xi spelled off the canonical form prints the canonical texts 1/2, 7, 1*w
@example((_U023, TangentVector((ratio_scalar(1, 2, 0, 1), 7, Scalar.zeta())), None, "2/4,007,-0+1*w"), False)
def test_analyze_text_is_the_reference_document(case, timing):
    # spelling, when given, is the --xi text of xi as the argv writes it
    params, xi, order, spelling = case
    xi_argument = _literal_argument("xi", xi.a) if spelling is None else f"--xi={spelling}"
    argv = ["analyze", _literal_argument("u", params.u), xi_argument]
    argv += [] if order is None else [f"--series-order={order}"]
    code, text, elapsed_ms = _timed(argv, timing)
    assert code == 0
    cert = delta_nu_c_test(params, xi)
    reference = analyze_document(params, xi, cert, 12 if order is None else order, elapsed_ms)
    assert text == json.dumps(reference, indent=2) + "\n"


@given(_SEEDS, st.sampled_from((1, 2, 3)), st.sampled_from((None, 64, 128)), st.booleans(), st.booleans())
@settings(max_examples=40)
def test_residue_check_text_is_the_reference_document(seed, j, nodes, strict, timing):
    # under --numeric an unattainable tolerance (strict) prints the
    # document and exits 4; a contour on which Newton's iteration fails
    # exits 5 before any output, and is skipped
    params = sample_params(SplitMix64(seed))
    argv = ["residue-check", _literal_argument("u", params.u), f"--j={j}"]
    tolerance = 1e-30 if strict else cli.NUMERIC_TOLERANCE
    if nodes is not None:
        argv += ["--numeric", f"--quad-nodes={nodes}", f"--numeric-tolerance={tolerance!r}"]
    code, text, elapsed_ms = _timed(argv, timing)
    if nodes is None:
        assert code == 0
    assume(text)
    reference = residue_check_document(params, j, nodes, tolerance, elapsed_ms)
    assert text == json.dumps(reference, indent=2) + "\n"


def test_commands_emit_exactly_the_readme_tags():
    """One successful corpus command line per subcommand, help aside: every
    ``tags`` value, and the scan summary's ``tag``, together form the README
    table."""
    ok = hashlib.sha256(b"0").hexdigest()
    argvs = {}
    for entry in json.loads(CORPUS.read_text()):
        if entry["exit"] == ok and "-h" not in entry["argv"]:
            argvs.setdefault(entry["argv"][0], entry["argv"])
    assert set(argvs) == {"analyze", "residue-check", "scan", "ideal", "schiffer", "d0", "qz24"}
    emitted = set()
    for command, argv in argvs.items():
        out = io.StringIO()
        assert cli.main(argv, out) == 0
        text = out.getvalue()
        documents = [json.loads(line) for line in text.splitlines()] if command == "scan" else [json.loads(text)]
        for document in documents:
            emitted.update(document.get("tags", {}).values())
            if "tag" in document:
                emitted.add(document["tag"])
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("\n| tag | names the fact |\n", 1)[1].split("\n\n", 1)[0]
    assert emitted == set(re.findall(r"^\| `([a-z-]+)` \|", table, re.M))
