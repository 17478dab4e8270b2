"""JSON encoding of every value type.

Each report field carries a tag naming the mathematical fact it computes;
the commands write the tags, and the README's tag table is the complete
set.  Encoders are deterministic: entries are emitted in canonical sorted
order and scalars in the canonical literal syntax, so identical inputs
produce identical bytes.

dumps writes json.dumps(document, indent=2) + "\n" byte for byte in one
recursive pass over json's C string escaper, where json's indent path runs
its pure-Python encoder; dumps_line keeps json's C encoder.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .canonical_ideal import MonomialForm, monomial_label
from .curve import BranchPoint, Divisor, FiberLocus, FiberPoint, FinitePoint, InfinityPoint, PlaceLocus
from .deformation import CeresaCertificate

MONOMIAL_ORDER = "grlex z0>z1>z2>z3"
PROBE_VARIABLE = "a"  # the parameter of the cube-root family (qz24)


def scalars_json(values) -> list:
    return [str(c) for c in values]


def point_json(point) -> dict:
    """The entry's kind, then its own fields."""
    if isinstance(point, (BranchPoint, FiberPoint)):
        fields = {"x": str(point.x)}
    elif isinstance(point, FinitePoint):
        fields = {"x": str(point.x), "y": str(point.y)}
    elif isinstance(point, FiberLocus):
        fields = {"poly": scalars_json(point.poly)}
    elif isinstance(point, PlaceLocus):
        fields = {"poly": scalars_json(point.poly), "y": scalars_json(point.y_res)}
    elif isinstance(point, InfinityPoint):
        fields = {"sheet": point.sheet}
    else:
        raise TypeError(f"not a divisor entry: {point!r}")
    return {"kind": point.kind, **fields}


def divisor_json(divisor: Divisor) -> list:
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
    return {monomial_label(m): str(c) for m, c in zip(form.monomials, form.coefficients) if c}


def rational_function_json(f: tuple) -> dict:
    """A (numerator, denominator) pair of UniPolys in the probe parameter."""
    num, den = f
    return {"num": num.format(PROBE_VARIABLE), "den": den.format(PROBE_VARIABLE)}


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
    if kind is dict and all(type(k) is str for k in value):
        if not value:
            return "{}"
        items = (f"{_quote(k)}: {_indented(v, inner)}" for k, v in value.items())
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        items = (_indented(v, inner) for v in value)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(value, indent=2).replace("\n", newline)


# json.dumps builds a new encoder per call once an option is given.
_encode_line = json.JSONEncoder(separators=(",", ":")).encode


def dumps_line(document: dict) -> str:
    return _encode_line(document) + "\n"
