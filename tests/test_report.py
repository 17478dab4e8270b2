"""The exact JSON of every divisor entry kind.  No command prints a finite
point, a fiber locus or a place locus, so the golden corpus cannot pin those
branches of point_json; here every kind is built directly."""

import json

import hypothesis.strategies as st
from hypothesis import example, given, settings

from trigonal4.curve import BranchPoint, FiberLocus, FiberPoint, FinitePoint, InfinityPoint, PlaceLocus
from trigonal4.report import dumps, dumps_line, point_json
from trigonal4.scalars import Scalar

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


def test_point_json_pins_every_entry_kind():
    documents = [point_json(entry) for entry in ENTRIES]
    assert dumps_line(documents) == EXPECTED
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
