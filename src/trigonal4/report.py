"""JSON encoding of every value type, plus the closed formula-tag registry.

Each report field carries a tag naming the mathematical fact it computes;
the registry below is the complete tag set and is documented in the README.
Encoders are deterministic: entries are emitted in canonical sorted order
and scalars in the canonical literal syntax, so identical inputs produce
identical bytes.
"""

from __future__ import annotations

import json

from .canonical_ideal import MonomialForm, monomial_label
from .curve import (
    BranchPoint,
    CurveParams,
    Differential,
    Divisor,
    FiberLocus,
    FiberPoint,
    FinitePoint,
    InfinityPoint,
    PlaceLocus,
)
from .deformation import CeresaCertificate, ConicReport, PairingMatrix, TangentVector
from .polynomials import RationalFunction
from .scalars import format_projective

MONOMIAL_ORDER = "grlex z0>z1>z2>z3"

# The complete set of formula tags; report fields reference only these.
FORMULA_TAGS = {
    "base-membership": "parameters distinct with cubes != 1 (branch sextic squarefree)",
    "graded-differential-basis": "ordered basis dx/y; dx/y^2, x dx/y^2, x^2 dx/y^2",
    "trigonal-fiber": "degree-3 fiber of the x-projection",
    "pairing-closed-form": "mixed entries sum_j a_j u_j^(k-1)/Q'(u_j) in 6*pi*i units",
    "pairing-residue-oracle": "residue of the antidifferentiated principal part at the branch point",
    "ks-rank-two": "every nonzero direction deforms with rank exactly 2",
    "kernel-covector": "annihilated forms b with sum_l b_l c_l = 0",
    "conic-criterion": "base locus nonempty iff the covector lies on X*Z - Y^2 = 0",
    "base-locus-fibers": "common zeros of the annihilated pencil form a trigonal fiber",
    "support-annihilation": "direction kills all quadratic differentials vanishing on the divisor",
    "certificate-three-way": "off-conic / on-conic-unsupported certify nonvanishing; supported means all tested components vanish",
    "quadric-cone": "unique quadric z2^2 - z1*z3 through the canonical curve",
    "canonical-cubic": "new cubic of the canonical ideal, reduced modulo quadric multiples",
    "veronese-rank-one": "square embedding of projective points as rank-1 tensors",
    "schiffer-ideal-membership": "rank-1 direction comes from a curve point iff quadric and cubic vanish",
    "ruling-lines": "two line families on the quadric cone cutting trigonal fibers",
    "parameter-relation": "tied ruling parameters 1/t1 + 1 = t2 - 1",
    "rational-triviality-witness": "explicit function with divisor plus - minus",
    "cube-family-probe": "exact covector of the cube-root one-parameter locus",
    "numeric-contour-quadrature": "floating trapezoidal contour integral cross-check",
}


def projective_json(value) -> str:
    return format_projective(value)


def params_json(params: CurveParams) -> dict:
    return {"u": [str(c) for c in params.u]}


def tangent_json(xi: TangentVector) -> list:
    return [str(c) for c in xi.a]


def point_json(point) -> dict:
    if isinstance(point, BranchPoint):
        return {"kind": "branch", "x": str(point.x)}
    if isinstance(point, FinitePoint):
        return {"kind": "finite", "x": str(point.x), "y": str(point.y)}
    if isinstance(point, FiberPoint):
        return {"kind": "fiber", "x": str(point.x)}
    if isinstance(point, FiberLocus):
        return {"kind": "fiber_locus", "poly": [str(c) for c in point.poly]}
    if isinstance(point, PlaceLocus):
        return {
            "kind": "place_locus",
            "poly": [str(c) for c in point.poly],
            "y": [str(c) for c in point.y_res],
        }
    if isinstance(point, InfinityPoint):
        return {"kind": "infinity", "sheet": point.sheet}
    raise TypeError(f"not a divisor entry: {point!r}")


def divisor_json(divisor: Divisor) -> list:
    return [[point_json(p), m] for p, m in divisor.items_sorted()]


def differential_json(d: Differential) -> list:
    return [str(c) for c in d.coefficients()]


def pairing_matrix_json(m: PairingMatrix) -> list:
    return [[str(e) for e in row] for row in m.entries]


def conic_json(report: ConicReport) -> dict:
    return {
        "covector": [str(c) for c in report.covector],
        "value": str(report.value),
        "on_conic": report.on_conic,
    }


def certificate_json(cert: CeresaCertificate) -> dict:
    return {
        "variant": cert.variant.value,
        "conic": conic_json(cert.conic),
        "base_locus": divisor_json(cert.base_locus),
        "kernel_basis": [differential_json(d) for d in cert.kernel_basis],
        "supported": cert.supported,
        "omega2_dim": cert.omega2_dim,
        "subspace_dim": cert.subspace_dim,
    }


def form_json(form: MonomialForm) -> dict:
    return {monomial_label(m): str(c) for m, c in zip(form.monomials, form.coefficients) if c}


def rational_function_json(f: RationalFunction, variable: str = "a") -> dict:
    return {
        "num": f.numerator.format(variable),
        "den": f.denominator.format(variable),
    }


def dumps(document: dict) -> str:
    return json.dumps(document, indent=2) + "\n"


def dumps_line(document: dict) -> str:
    return json.dumps(document, separators=(",", ":")) + "\n"
