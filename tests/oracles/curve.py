"""Curve oracles: k-differentials in the function-field model, charts at any
curve point, fiber frames, exact divisors of functions of x, the divisor
minimum over a pencil of 1-forms, and the canonical map; and the divisor
and 1-form arithmetic, text and geometric comparison the tests use.

Two divisors are equal as records (curve.Divisor.__eq__) when their
entries are.  Geometrically, a fiber stored as one entry is the sum of its
three points once a y over its x is known, and a locus is the sum of the
entries over its factors.  So the geometric comparison (same_divisor,
divisor_ge, divisor_min) first refines both divisors over a common
refinement of their x-loci (refine_pair): loci are split by gcd, against
each other and against x - r for every point entry, and a fiber entry
splits into three exact points as soon as one y-coordinate over its x is
known on either side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from trigonal4.curve import (
    BranchPoint,
    Chart,
    CurveParams,
    Differential,
    Divisor,
    FiberLocus,
    FiberPoint,
    FinitePoint,
    InfinityPoint,
    PlaceLocus,
    _locus_entry,
    _place_entry,
    _poly_zero_divisor,
    branch_inversion,
    divisor_of,
    infinity_chart,
)
from trigonal4.errors import DegenerateInput, StructuralError
from trigonal4.polynomials import UniPoly, poly_gcd
from trigonal4.scalars import Scalar
from trigonal4.series import LocalSeries, series_of_poly

from oracles.polynomials import RationalFunction, format_poly, q_poly
from oracles.series import derivative, inverse, series_of_rational

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
        q = RationalFunction.of(q_poly(params))
        g, h = RationalFunction.of(UniPoly(d.b)) / q, RationalFunction.of(d.b0) / q
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
        q = RationalFunction.of(q_poly(self.params))
        f1, g1, h1 = self.f, self.g, self.h
        f2, g2, h2 = other.f, other.g, other.h
        return KDifferential(
            self.params,
            self.k + other.k,
            f1 * f2 + q * (g1 * h2 + g2 * h1),
            f1 * g2 + f2 * g1 + q * (h1 * h2),
            f1 * h2 + f2 * h1 + g1 * g2,
        )


def branch_chart(params: CurveParams, x0: Scalar, truncation: int) -> Chart:
    """Chart at the branch point over x0, in the local coordinate y:
    x = x0 + D(y) from curve.branch_inversion and dx = D'(y) dy."""
    d = branch_inversion(params, x0, truncation)
    x_series = LocalSeries.constant(x0, truncation) + d
    y_series = LocalSeries.monomial(1, Scalar.one(), truncation)
    return Chart(x_series=x_series, y_series=y_series, dx_series=derivative(d), dx_valuation=2)


def basis_factors(params: CurveParams, x_series: LocalSeries, top: int) -> tuple[LocalSeries, tuple]:
    """(1/Q(x(s)), (x(s)**0, ..., x(s)**top)) on a chart.  The
    fixed basis forms are these times powers of y: w0 = y**2 dx/Q and
    w_l = x**(l-1) y dx/Q (top = 2), and the quadratic differentials x**k/Q,
    y/Q, x**k y**2/Q**2 times (dx)**2 (top = 4).  The high powers carry the
    largest coefficients, so callers ask only for what they read."""
    q_inv = inverse(series_of_poly(q_poly(params), x_series))
    powers = [LocalSeries.constant(Scalar.one(), x_series.truncation)]
    for _ in range(top):
        powers.append(powers[-1] * x_series)
    return q_inv, tuple(powers)


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
    q0 = q_poly(params).evaluate(x0)
    if not q0:
        raise DegenerateInput("fiber frame needs a non-branch x")
    shifted = q_poly(params).taylor_shift(x0)
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
        out = subtract(out, _poly_zero_divisor(params, func.denominator, 3, _locus_entry))
    return subtract(out, multiple(infinity_fiber, func.numerator.degree - func.denominator.degree))


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
    alt = divisor_min(divisor_of(params, add_forms(d1, d2)), divisor_of(params, subtract_forms(d1, d2)))
    if not same_divisor(locus, alt):
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


# ---------------------------------------------------------------------------
# Divisor and 1-form arithmetic and text
# ---------------------------------------------------------------------------


def subtract(a: Divisor, b: Divisor) -> Divisor:
    return a + multiple(b, -1)


def multiple(d: Divisor, n: int) -> Divisor:
    return Divisor({p: m * n for p, m in d.entries.items()})


def as_poly(entry) -> UniPoly:
    """The x-locus of a FiberLocus or PlaceLocus entry."""
    return UniPoly(entry.poly)


def y_poly(entry: PlaceLocus) -> UniPoly:
    """The y-coordinate of a PlaceLocus entry, as a residue modulo its locus."""
    return UniPoly(entry.y)


def entry_str(p) -> str:
    if isinstance(p, BranchPoint):
        return f"Branch({p.x})"
    if isinstance(p, FinitePoint):
        return f"Point({p.x},{p.y})"
    if isinstance(p, FiberPoint):
        return f"Fiber({p.x})"
    if isinstance(p, FiberLocus):
        return f"Fiber[{format_poly(as_poly(p))}]"
    if isinstance(p, PlaceLocus):
        return f"Place[{format_poly(as_poly(p))}; y={format_poly(y_poly(p))}]"
    return f"Inf({p.sheet})"


def divisor_str(d: Divisor) -> str:
    if not d.entries:
        return "0"
    return " + ".join(f"{m}*{entry_str(p)}" for p, m in d.items_sorted())


def add_forms(a: Differential, b: Differential) -> Differential:
    return Differential(a.b0 + b.b0, tuple(x + y for x, y in zip(a.b, b.b)))


def scale_form(d: Differential, factor) -> Differential:
    factor = Scalar.of(factor)
    return Differential(d.b0 * factor, tuple(c * factor for c in d.b))


def subtract_forms(a: Differential, b: Differential) -> Differential:
    return add_forms(a, scale_form(b, -1))


# ---------------------------------------------------------------------------
# Geometric comparison of divisors
# ---------------------------------------------------------------------------


def refine_pair(a: Divisor, b: Divisor) -> tuple[Divisor, Divisor]:
    """Rewrite both divisors over a common refinement of their x-loci so that
    entries match key-by-key whenever they overlap geometrically."""
    entries = [p for d in (a, b) for p in d.entries]
    loci = [as_poly(p) for p in entries if isinstance(p, (FiberLocus, PlaceLocus))]
    if loci:
        # The x of every point joins the refinement, so that a locus with a
        # root in Q(w) splits that root off as the same point entry.
        one = Scalar.one()
        loci += [UniPoly((-p.x, one)) for p in entries if isinstance(p, (FiberPoint, FinitePoint))]
    parts = _coprime_refinement(loci) if loci else []
    a, b = _refine_divisor(a, parts), _refine_divisor(b, parts)
    # A collective fiber entry splits into three exact points as soon as one
    # y-coordinate over the same x is known, from either divisor once its
    # loci are split.
    known_y = {p.x: p.y for d in (a, b) for p in d.entries if isinstance(p, FinitePoint)}
    return _split_fibers(a, known_y), _split_fibers(b, known_y)


def _coprime_refinement(polys: list[UniPoly]) -> list[UniPoly]:
    parts = []
    queue = [p.monic() for p in polys if p.degree > 0]
    while queue:
        p = queue.pop()
        for i, q in enumerate(parts):
            g = poly_gcd(p, q)
            if g.degree > 0:
                if g.degree < q.degree:
                    parts[i] = g
                    queue.append(q // g)
                rest = p // g
                if rest.degree > 0:
                    queue.append(rest)
                break
        else:
            parts.append(p)
    return parts


def _refine_divisor(d: Divisor, parts: list[UniPoly]) -> Divisor:
    out = Divisor.zero()
    for p, m in d.entries.items():
        if isinstance(p, (FiberLocus, PlaceLocus)):
            poly = as_poly(p)
            for part in parts:
                if poly_gcd(poly, part).degree == part.degree:
                    if isinstance(p, FiberLocus):
                        out += Divisor.of((_locus_entry(part), m))
                    else:
                        out += Divisor.of((_place_entry(part, y_poly(p)), m))
                    poly = poly // part
            if poly.degree > 0:
                raise StructuralError("locus refinement failed to cover an entry")
        else:
            out += Divisor.of((p, m))
    return out


def _split_fibers(d: Divisor, known_y: dict) -> Divisor:
    zeta = Scalar.zeta()
    out = Divisor.zero()
    for p, m in d.entries.items():
        if isinstance(p, FiberPoint) and p.x in known_y:
            y0 = known_y[p.x]
            out += Divisor.of(*((FinitePoint(p.x, y0 * zeta ** s), m) for s in range(3)))
        else:
            out += Divisor.of((p, m))
    return out


def same_divisor(a: Divisor, b: Divisor) -> bool:
    """Whether a and b are the same divisor on the curve: their refined
    entries agree."""
    a, b = refine_pair(a, b)
    return a == b


def divisor_ge(a: Divisor, b: Divisor) -> bool:
    """Whether a - b is effective, on the refined entries."""
    a, b = refine_pair(a, b)
    keys = set(a.entries) | set(b.entries)
    return all(a.entries.get(k, 0) >= b.entries.get(k, 0) for k in keys)
