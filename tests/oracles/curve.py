"""Curve oracles: k-differentials in the function-field model, charts at any
curve point, fiber frames, exact divisors of functions of x, the divisor
minimum over a pencil of 1-forms, and the canonical map."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from trigonal4.curve import (
    BranchPoint,
    Chart,
    CurveParams,
    Differential,
    Divisor,
    FinitePoint,
    InfinityPoint,
    _locus_entry,
    _poly_zero_divisor,
    basis_factors,
    branch_chart,
    divisor_of,
    infinity_chart,
    refine_pair,
)
from trigonal4.errors import DegenerateInput, StructuralError
from trigonal4.scalars import Scalar
from trigonal4.series import LocalSeries, series_of_poly

from oracles.polynomials import RationalFunction
from oracles.series import series_of_rational

# The ordered graded basis (w0, w1, w2, w3) of holomorphic 1-forms.
OMEGA = tuple(
    Differential(int(i == 0), tuple(int(i == j) for j in (1, 2, 3)))
    for i in range(4)
)


@dataclass(frozen=True)
class KDifferential:
    """A k-differential (f + g*y + h*y**2) * (dx)**k with f, g, h rational in
    x, reduced modulo y**3 = Q(x); the reduction keeps denominators as powers
    of Q."""

    params: CurveParams
    k: int
    f: RationalFunction
    g: RationalFunction
    h: RationalFunction

    def is_zero(self) -> bool:
        return not (self.f or self.g or self.h)

    @staticmethod
    def of_differential(params: CurveParams, d: Differential) -> "KDifferential":
        # dx/y = y**2 dx / Q and dx/y**2 = y dx / Q.
        q = RationalFunction.of(params.q_poly)
        g, h = RationalFunction.of(d.poly()) / q, RationalFunction.of(d.b0) / q
        return KDifferential(params, 1, RationalFunction.zero(), g, h)

    def __add__(self, other: "KDifferential") -> "KDifferential":
        if self.params != other.params or self.k != other.k:
            raise DegenerateInput("can only add k-differentials of equal weight on one curve")
        return KDifferential(self.params, self.k, self.f + other.f, self.g + other.g, self.h + other.h)

    def scale(self, factor) -> "KDifferential":
        factor = RationalFunction.of(Scalar.of(factor))
        return KDifferential(self.params, self.k, self.f * factor, self.g * factor, self.h * factor)

    def __mul__(self, other: "KDifferential") -> "KDifferential":
        if self.params != other.params:
            raise DegenerateInput("k-differentials live on different curves")
        q = RationalFunction.of(self.params.q_poly)
        f1, g1, h1 = self.f, self.g, self.h
        f2, g2, h2 = other.f, other.g, other.h
        return KDifferential(
            self.params,
            self.k + other.k,
            f1 * f2 + q * (g1 * h2 + g2 * h1),
            f1 * g2 + f2 * g1 + q * (h1 * h2),
            f1 * h2 + f2 * h1 + g1 * g2,
        )


def finite_chart(params: CurveParams, point: FinitePoint, truncation: int) -> Chart:
    """Chart at an unramified point: the fiber frame over its x with the
    abstract cube root specialized to the point's y."""
    frame = fiber_frame(params, point.x, truncation)
    return Chart(
        x_series=frame.x_series,
        y_series=frame.w_series.scale(point.y),
        dx_series=LocalSeries.constant(Scalar.one(), truncation),
        dx_valuation=0,
    )


def chart_at(params: CurveParams, point, truncation: int) -> Chart:
    if isinstance(point, BranchPoint):
        return branch_chart(params, point.x, truncation)
    if isinstance(point, InfinityPoint):
        return infinity_chart(params, point.sheet, truncation)
    if isinstance(point, FinitePoint):
        return finite_chart(params, point, truncation)
    raise DegenerateInput(f"no local chart at a collective divisor entry ({point.kind})")


@dataclass(frozen=True)
class FiberFrame:
    """Exact expansion data over a non-branch x0 for all three fiber points
    at once: y = Y * w_series with Y an abstract cube root of Q(x0), so a
    k-differential expands as F0 + F1*Y + F2*Y**2 with scalar series F_i."""

    x_series: LocalSeries
    w_series: LocalSeries


def fiber_frame(params: CurveParams, x0: Scalar, truncation: int) -> FiberFrame:
    x0 = Scalar.of(x0)
    q0 = params.q_poly.evaluate(x0)
    if not q0:
        raise DegenerateInput("fiber frame needs a non-branch x")
    shifted = params.q_poly.taylor_shift(x0)
    s = LocalSeries.monomial(1, Scalar.one(), truncation)
    unit = series_of_poly(shifted, s).scale(q0.inverse())
    x_series = LocalSeries.constant(x0, truncation) + s
    return FiberFrame(x_series=x_series, w_series=unit.cube_root_unit())


def kdiff_series(q: KDifferential, chart: Chart) -> LocalSeries:
    """The function-part series f(x) + g(x)*y + h(x)*y**2 on the chart; the
    oracle the tests check the fixed-basis expansions (basis_factors) against."""
    fx = series_of_rational(q.f, chart.x_series)
    gx = series_of_rational(q.g, chart.x_series)
    hx = series_of_rational(q.h, chart.x_series)
    return fx + gx * chart.y_series + hx * chart.y_series * chart.y_series


def divisor_of_function(params: CurveParams, func) -> Divisor:
    """Exact divisor (zeros minus poles) of a rational function of x."""
    func = RationalFunction.of(func) if not isinstance(func, RationalFunction) else func
    if not func:
        raise DegenerateInput("the zero function has no divisor")
    infinity_fiber = Divisor.of(*((InfinityPoint(s), 1) for s in range(3)))
    out = Divisor.zero()
    if func.numerator.degree > 0:
        out += _poly_zero_divisor(params, func.numerator, 3, _locus_entry)
    if func.denominator.degree > 0:
        out -= _poly_zero_divisor(params, func.denominator, 3, _locus_entry)
    out -= (func.numerator.degree - func.denominator.degree) * infinity_fiber
    return out


def divisor_min(a: Divisor, b: Divisor) -> Divisor:
    """Pointwise minimum of two effective divisors (gcd of ideals)."""
    a, b = refine_pair(a, b)
    out: dict = {}
    for key in set(a.entries) & set(b.entries):
        out[key] = min(a.entries[key], b.entries[key])
    return Divisor(out)


def common_zeros_by_divisors(params: CurveParams, d1: Differential, d2: Differential) -> Divisor:
    """The common zeros of the pencil of two independent 1-forms: the minimum
    of their divisors, verified basis-independent by recomputation from
    d1 + d2 and d1 - d2."""
    locus = divisor_min(divisor_of(params, d1), divisor_of(params, d2))
    alt = divisor_min(divisor_of(params, d1 + d2), divisor_of(params, d1 - d2))
    if locus != alt:
        raise StructuralError("common zeros depend on the basis of the pencil; bug")
    return locus


# canonical_map reads the forms over dx at their least valuation: y**-2 at a
# branch point (w1/dx = y/Q), where 1/Q starts at y**-3 and is known below
# y**(truncation - 6), so y/Q below y**(truncation - 5): truncation 4.  At
# infinity (valuation 2) and at finite points (0) truncation 1 would do.
_CANONICAL_MAP_TRUNCATION = 4


def canonical_map(params: CurveParams, point) -> tuple:
    """Homogeneous coordinates [z0:z1:z2:z3] of a point under the canonical
    embedding by (w0, w1, w2, w3), normalized so the first nonzero coordinate
    is 1; computed by trivializing all four forms against the chart's dx,
    from one 1/Q expansion: w0 = y**2/Q and w_l = x**(l-1) y/Q."""
    chart = chart_at(params, point, _CANONICAL_MAP_TRUNCATION)
    q_inv, x_powers = basis_factors(params, chart.x_series, 2)
    y_q_inv = chart.y_series * q_inv
    basis_series = [y_q_inv * chart.y_series] + [x_powers[l] * y_q_inv for l in range(3)]
    valuations = [s.valuation() for s in basis_series]
    if all(v is None for v in valuations):
        raise StructuralError("all canonical coordinates vanished; impossible for a base-point-free system")
    vmin = min(v for v in valuations if v is not None)
    return normalize_projective(s.coefficient(vmin) for s in basis_series)


def normalize_projective(coords: Iterable[Scalar]) -> tuple:
    coords = tuple(Scalar.of(c) for c in coords)
    for c in coords:
        if c:
            inv = c.inverse()
            return tuple(x * inv for x in coords)
    raise DegenerateInput("zero vector is not a projective point")
