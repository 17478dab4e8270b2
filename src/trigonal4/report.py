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
its pure-Python encoder; dumps_line keeps json's C encoder.  scan_row_line
writes a scan row's compact line directly: its strings are scalar literals
(alphabet -0-9/+*w) and a variant name, none of which JSON escapes.
"""

from __future__ import annotations

import json
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


def certificate_json(cert: CeresaCertificate) -> dict:
    return {
        "variant": cert.variant.value,
        "conic": {
            "covector": scalars_json(cert.covector),
            "value": str(cert.conic_value),
            "on_conic": cert.on_conic,
        },
        "base_locus": divisor_json(cert.base_locus),
        "kernel_basis": [scalars_json(d.coefficients()) for d in cert.kernel_basis],
        "supported": cert.supported,
        "omega2_dim": cert.omega2_dim,
        "subspace_dim": cert.subspace_dim,
    }


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
