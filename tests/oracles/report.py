"""The analyze and residue-check documents as dicts, built the way the
commands built them for report.dumps before report.analyze_text and
report.residue_check_text wrote them directly.  Each writer must print
json.dumps(document, indent=2) + "\\n" of its document byte for byte."""

import math

from trigonal4.cli import NUMERIC_TOLERANCE
from trigonal4.deformation import TangentVector, bordered, pairing_covector, residue_matrix
from trigonal4.report import divisor_json, scalars_json
from trigonal4.scalars import Scalar

_ANALYZE_TAGS = {
    "input": "base-membership",
    "ks_rank": "ks-rank-two",
    "pairing_matrix": "pairing-closed-form",
    "kernel_basis": "kernel-covector",
    "conic": "conic-criterion",
    "base_locus": "base-locus-fibers",
    "supported": "support-annihilation",
    "certificate": "certificate-three-way",
}


def certificate_json(cert) -> dict:
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


def analyze_document(params, xi, cert, order: int, elapsed_ms=None) -> dict:
    """The analyze document; elapsed_ms is added when it is not None."""
    encoded = certificate_json(cert)
    document = {
        "input": {"u": scalars_json(params.u), "xi": scalars_json(xi.a)},
        "ks_rank": cert.rank,
        "pairing_matrix": bordered(encoded["conic"]["covector"], "0"),
        **{key: encoded[key] for key in ("kernel_basis", "conic", "base_locus", "supported")},
        "certificate": encoded,
        "series_order": order,
        "tags": _ANALYZE_TAGS,
    }
    if elapsed_ms is not None:
        document["elapsed_ms"] = elapsed_ms
    return document


def residue_check_document(params, j: int, nodes=None, tolerance=NUMERIC_TOLERANCE, elapsed_ms=None) -> dict:
    """The residue-check document of the j-th coordinate direction, with
    the numeric contour check at nodes nodes unless nodes is None."""
    from trigonal4.numeric import numeric_residue_matrix, residue_relative_error

    direction = [Scalar.zero()] * 3
    direction[j - 1] = Scalar.one()
    covector = pairing_covector(params, TangentVector(tuple(direction)))
    matrix = bordered(covector, Scalar.zero())
    oracles = residue_matrix(params, j)
    numeric = None if nodes is None else numeric_residue_matrix(params, j, nodes)
    entries = []
    worst = 0.0
    for l in range(4):
        for k in range(4):
            closed, oracle = matrix[l][k], oracles[l][k]
            row = {"l": l, "k": k, "closed": str(closed), "oracle": str(oracle), "match": closed == oracle}
            if numeric is not None:
                value = numeric[l][k]
                err = residue_relative_error(closed, value)
                worst = err if math.isnan(err) else max(worst, err)
                row["numeric"] = f"{value.real:.12e}{value.imag:+.12e}j"
                row["rel_err"] = f"{err:.3e}"
            entries.append(row)
    document = {
        "u": scalars_json(params.u),
        "j": j,
        "entries": entries,
        "all_match": all(row["match"] for row in entries),
        "tags": {
            "closed": "pairing-closed-form",
            "oracle": "pairing-residue-oracle",
            "numeric": "numeric-contour-quadrature",
        },
    }
    if numeric is not None:
        document["numeric_tolerance"] = tolerance
        document["worst_rel_err"] = f"{worst:.3e}"
    if elapsed_ms is not None:
        document["elapsed_ms"] = elapsed_ms
    return document
