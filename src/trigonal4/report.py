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
recursive pass over json's C string escaper, where json's indent path runs
its pure-Python encoder; dumps_line keeps json's C encoder.  The two
documents a point query prints, analyze's and residue-check's, have a
fixed shape, and analyze_text and residue_check_text write them as dumps
would without building them: they fill the printed texts into the
constant indent-2 skeleton, and only analyze's base locus, a divisor of
varying shape, goes through dumps' encoder.  scan_row_line writes a scan
row's compact line directly.  The texts these writers place between
quotes are scalar literals (alphabet -0-9/+*w), variant names and
formatted floats, none of which JSON escapes.
tests/oracles/report.py keeps the documents they write, as dicts, and
the tests compare the two.
"""

from __future__ import annotations

import json
import time
from json.encoder import encode_basestring_ascii as _quote

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
    return json.dumps(value, indent=2).replace("\n", newline)


# json.dumps builds a new encoder per call once an option is given.
_encode_line = json.JSONEncoder(separators=(",", ":")).encode


def dumps_line(document: dict) -> str:
    return _encode_line(document) + "\n"


def scan_row_line(index: int, u: tuple, xi: tuple, conic_value, variant: str) -> str:
    """dumps_line of the row {"index", "u", "xi", "conic_value", "variant"}."""
    return (
        f'{{"index":{index},"u":["{u[0]}","{u[1]}","{u[2]}"],"xi":["{xi[0]}","{xi[1]}","{xi[2]}"],'
        f'"conic_value":"{conic_value}","variant":"{variant}"}}\n'
    )


# A member of the fixed skeletons below starts its lines with these, by depth.
_D1, _D2, _D3 = "\n  ", "\n    ", "\n      "
_JSON = {True: "true", False: "false", None: "null"}
_ANALYZE_TAGS = (
    f'{{{_D2}"input": "base-membership",{_D2}"ks_rank": "ks-rank-two",'
    f'{_D2}"pairing_matrix": "pairing-closed-form",{_D2}"kernel_basis": "kernel-covector",'
    f'{_D2}"conic": "conic-criterion",{_D2}"base_locus": "base-locus-fibers",'
    f'{_D2}"supported": "support-annihilation",{_D2}"certificate": "certificate-three-way"{_D1}}}'
)
_RESIDUE_TAGS = (
    f'{{{_D2}"closed": "pairing-closed-form",{_D2}"oracle": "pairing-residue-oracle",'
    f'{_D2}"numeric": "numeric-contour-quadrature"{_D1}}}'
)


def _literals(texts, newline: str) -> str:
    """The indent-2 JSON list of texts that JSON does not escape (scalar
    literals, alphabet -0-9/+*w), its lines after the first starting with
    newline."""
    return f'[{newline}  "' + f'",{newline}  "'.join(texts) + f'"{newline}]'


def _lists(lists: list, newline: str) -> str:
    """The indent-2 JSON list of _literals lists."""
    inner = newline + "  "
    return f"[{inner}" + f",{inner}".join(_literals(texts, inner) for texts in lists) + f"{newline}]"


def _deeper(text: str) -> str:
    """A member's JSON one level deeper: none of its strings holds a newline."""
    return text.replace("\n", _D1)


def _elapsed(started) -> str:
    """The elapsed_ms member since started, or nothing when it is None."""
    if started is None:
        return ""
    return f',{_D1}"elapsed_ms": {round(1000 * (time.perf_counter() - started), 3)!r}'


def analyze_text(u: tuple, xi: tuple, cert: CeresaCertificate, order: int, started) -> str:
    """dumps of the analyze document: the input, the pairing rank and
    matrix (the covector bordered by zeros), the certificate's facts at the
    top level and again under "certificate", the series order, the tags,
    and elapsed_ms since started unless it is None, read once every fact is
    formed."""
    c = [str(v) for v in cert.covector]
    conic = (
        f'{{{_D2}"covector": {_literals(c, _D2)},{_D2}"value": "{cert.conic_value}",'
        f'{_D2}"on_conic": {_JSON[cert.on_conic]}{_D1}}}'
    )
    matrix = _lists([["0", *c]] + [(ck, "0", "0", "0") for ck in c], _D1)
    kernel_basis = _lists([[str(v) for v in d.coefficients()] for d in cert.kernel_basis], _D1)
    base_locus = _indented(divisor_json(cert.base_locus), _D1)
    supported = _JSON[cert.supported]
    subspace_dim = cert.subspace_dim
    certificate = (
        f'{{{_D2}"variant": "{cert.variant.value}",{_D2}"conic": {_deeper(conic)},'
        f'{_D2}"base_locus": {_deeper(base_locus)},{_D2}"kernel_basis": {_deeper(kernel_basis)},'
        f'{_D2}"supported": {supported},{_D2}"omega2_dim": {cert.omega2_dim},'
        f'{_D2}"subspace_dim": {"null" if subspace_dim is None else subspace_dim}{_D1}}}'
    )
    elapsed = _elapsed(started)
    return (
        f'{{{_D1}"input": {{{_D2}"u": {_literals(map(str, u), _D2)},{_D2}"xi": {_literals(map(str, xi), _D2)}{_D1}}},'
        f'{_D1}"ks_rank": {cert.rank},{_D1}"pairing_matrix": {matrix},{_D1}"kernel_basis": {kernel_basis},'
        f'{_D1}"conic": {conic},{_D1}"base_locus": {base_locus},{_D1}"supported": {supported},'
        f'{_D1}"certificate": {certificate},{_D1}"series_order": {order},{_D1}"tags": {_ANALYZE_TAGS}{elapsed}\n}}\n'
    )


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
        f'{{{_D1}"u": {_literals(map(str, u), _D1)},{_D1}"j": {j},{_D1}"entries": [{_D2}'
        + f",{_D2}".join(rows)
        + f'{_D1}],{_D1}"all_match": {_JSON[all_match]},{_D1}"tags": {_RESIDUE_TAGS}{tail}{_elapsed(started)}\n}}\n'
    )
