"""The exact JSON of every divisor entry kind.  No command prints a finite
point, a fiber locus or a place locus, so the golden corpus cannot pin those
branches of point_json; here every kind is built directly."""

from trigonal4.curve import BranchPoint, FiberLocus, FiberPoint, FinitePoint, InfinityPoint, PlaceLocus
from trigonal4.report import dumps_line, point_json
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
