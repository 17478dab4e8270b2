"""JSON encoding of every value type; none is a polynomial (qz24's closed
forms are constant texts).

Each report field carries a tag naming the mathematical fact it computes;
the commands write the tags, and the README's tag table is the complete
set.  Encoders are deterministic: entries are emitted in canonical sorted
order and scalars in the canonical literal syntax, so identical inputs
produce identical bytes.  A divisor entry's JSON is its kind and then its
slots, the same fields that give its equality, hash and order, so this
module knows no entry class.  The certificate and form annotations are
strings and form_json imports monomial_label when it runs, so importing
this module loads no other package module.

dumps writes json.dumps(document, indent=2) + "\n" byte for byte in one
recursive pass over _json's C string escaper, the one json.encoder binds,
where json's indent path runs its pure-Python encoder.  json itself loads
only for values no command prints (floats, non-str keys, empty dicts, an
escaped top-level text), so no command imports it.  The two documents a
point query prints, analyze's and residue-check's, have a fixed shape, and
analyze_text and residue_check_text write them as dumps would without
building them: analyze_text fills one %-template, the document that dumps
writes at import from a skeleton naming the slots, and residue_check_text
a constant skeleton.  Only analyze's base locus, a divisor of varying
shape, goes through dumps' encoder per request.  scan_row_line and
scan_summary_line write a scan's compact lines directly.  The texts these
writers place between quotes are scalar literals (alphabet -0-9/+*w),
variant names and formatted floats, none of which JSON escapes.
tests/oracles/report.py keeps the documents they write, as dicts, and
the tests compare the two.
"""

from __future__ import annotations

import time
from _json import encode_basestring_ascii as _quote

MONOMIAL_ORDER = "grlex z0>z1>z2>z3"


def scalars_json(values) -> list:
    return [str(c) for c in values]


def point_json(point) -> dict:
    """The entry's kind, then each slot under its own name."""
    fields = {"kind": point.kind}
    for name in point.__slots__:
        value = getattr(point, name)
        fields[name] = scalars_json(value) if type(value) is tuple else value if type(value) is int else str(value)
    return fields


def divisor_json(divisor) -> list:
    return [[point_json(p), m] for p, m in divisor.items_sorted()]


def form_json(form: MonomialForm) -> dict:
    from .canonical_ideal import monomial_label

    return {monomial_label(m): str(c) for m, c in form.terms}


def dumps(document: dict) -> str:
    """``json.dumps(document, indent=2) + "\n"``, byte for byte."""
    return _indented(document, "\n") + "\n"


def _indented(value, newline: str) -> str:
    """The indent-2 JSON of value, each line after its first starting with
    newline; json writes floats, subclasses and dicts with non-str keys."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return repr(value)
    if kind is bool or value is None:
        return "true" if value is True else "false" if value is False else "null"
    inner = newline + "  "
    # a list joins faster than a generator, and a str item needs no call
    if kind is dict and all(map(str.__instancecheck__, value)):
        if not value:
            return "{}"
        items = [f"{_quote(k)}: {_quote(v) if type(v) is str else _indented(v, inner)}" for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        items = [_quote(v) if type(v) is str else _indented(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    import json

    return json.dumps(value, indent=2).replace("\n", newline)


def scan_row_line(index: int, u: tuple, xi: tuple, conic_value, variant: str) -> str:
    """The compact JSON line of the row {"index", "u", "xi", "conic_value", "variant"}."""
    return (
        f'{{"index":{index},"u":["{u[0]}","{u[1]}","{u[2]}"],"xi":["{xi[0]}","{xi[1]}","{xi[2]}"],'
        f'"conic_value":"{conic_value}","variant":"{variant}"}}\n'
    )


def scan_summary_line(counts: dict) -> str:
    """The compact JSON line of {"summary": counts, "tag": "certificate-three-way"}."""
    members = ",".join(f'"{variant}":{count}' for variant, count in counts.items())
    return f'{{"summary":{{{members}}},"tag":"certificate-three-way"}}\n'


# A member of the fixed skeletons below starts its lines with these, by depth.
_D1, _D2, _D3 = "\n  ", "\n    ", "\n      "
_JSON = {True: "true", False: "false", None: "null"}
_RESIDUE_TAGS = (
    f'{{{_D2}"closed": "pairing-closed-form",{_D2}"oracle": "pairing-residue-oracle",'
    f'{_D2}"numeric": "numeric-contour-quadrature"{_D1}}}'
)

# The analyze document as one %-template, written by dumps from a skeleton
# whose leaves name its slots, analyze_text's locals: those in _RAW hold a
# JSON value, the others a literal's text between quotes.
_C = ["%(c0)s", "%(c1)s", "%(c2)s"]
_CONIC = {"covector": _C, "value": "%(value)s", "on_conic": "%(on_conic)s"}
_KERNEL = [[f"%(k{i})s" for i in range(j, j + 4)] for j in (0, 4)]
_RAW = ("rank", "on_conic", "locus1", "locus2", "supported", "omega2_dim", "subspace_dim", "order")
_SKELETON = {
    "input": {"u": ["%(u0)s", "%(u1)s", "%(u2)s"], "xi": ["%(xi0)s", "%(xi1)s", "%(xi2)s"]},
    "ks_rank": "%(rank)s",
    "pairing_matrix": [["0", *_C]] + [[c, "0", "0", "0"] for c in _C],
    "kernel_basis": _KERNEL, "conic": _CONIC, "base_locus": "%(locus1)s", "supported": "%(supported)s",
    "certificate": {
        "variant": "%(variant)s", "conic": _CONIC, "base_locus": "%(locus2)s", "kernel_basis": _KERNEL,
        "supported": "%(supported)s", "omega2_dim": "%(omega2_dim)s", "subspace_dim": "%(subspace_dim)s",
    },
    "series_order": "%(order)s",
    "tags": {
        "input": "base-membership", "ks_rank": "ks-rank-two", "pairing_matrix": "pairing-closed-form",
        "kernel_basis": "kernel-covector", "conic": "conic-criterion", "base_locus": "base-locus-fibers",
        "supported": "support-annihilation", "certificate": "certificate-three-way",
    },
}
_ANALYZE = dumps(_SKELETON)[:-3] + "%(elapsed)s\n}\n"
for _name in _RAW:
    _ANALYZE = _ANALYZE.replace(f'"%({_name})s"', f"%({_name})s")


def _elapsed(started) -> str:
    """The elapsed_ms member since started, or nothing when it is None."""
    if started is None:
        return ""
    return f',{_D1}"elapsed_ms": {round(1000 * (time.perf_counter() - started), 3)!r}'


def analyze_text(u: tuple, xi: tuple, cert: CeresaCertificate, order: int, started) -> str:
    """dumps of the analyze document, _ANALYZE filled; elapsed_ms, since
    started unless it is None, is read once every fact is formed.  Each
    value is printed as it is formed, so that the first one past the digit
    limit raises before a later fact is formed."""
    c0, c1, c2 = map(str, cert.covector)
    value = str(cert.conic_value)
    (k0, k1, k2, k3), (k4, k5, k6, k7) = (map(str, row) for row in cert.kernel_basis)
    locus = divisor_json(cert.base_locus)
    locus1, locus2 = _indented(locus, _D1), _indented(locus, _D2)
    (u0, u1, u2), (xi0, xi1, xi2) = map(str, u), map(str, xi)
    rank, variant, omega2_dim = cert.rank, cert.variant, cert.omega2_dim
    on_conic, supported = _JSON[cert.on_conic], _JSON[cert.supported]
    subspace_dim = cert.subspace_dim
    subspace_dim = "null" if subspace_dim is None else subspace_dim
    elapsed = _elapsed(started)
    return _ANALYZE % locals()


def residue_check_text(u: tuple, j: int, entries: list, all_match: bool, numeric, started) -> str:
    """dumps of the residue-check document.  entries holds (l, k, closed,
    oracle, match), followed under --numeric by the numeric value and
    rel_err texts; numeric is None, or the tolerance and the worst rel_err
    text; elapsed_ms is as analyze_text writes it."""
    rows = []
    for l, k, closed, oracle, match, *measured in entries:
        row = (
            f'{{{_D3}"l": {l},{_D3}"k": {k},{_D3}"closed": "{closed}",{_D3}"oracle": "{oracle}",'
            f'{_D3}"match": {_JSON[match]}'
        )
        if measured:
            row += f',{_D3}"numeric": "{measured[0]}",{_D3}"rel_err": "{measured[1]}"'
        rows.append(row + _D2 + "}")
    tail = ""
    if numeric is not None:
        tail = f',{_D1}"numeric_tolerance": {numeric[0]!r},{_D1}"worst_rel_err": "{numeric[1]}"'
    return (
        f'{{{_D1}"u": {_indented(scalars_json(u), _D1)},{_D1}"j": {j},{_D1}"entries": [{_D2}'
        + f",{_D2}".join(rows)
        + f'{_D1}],{_D1}"all_match": {_JSON[all_match]},{_D1}"tags": {_RESIDUE_TAGS}{tail}{_elapsed(started)}\n}}\n'
    )
