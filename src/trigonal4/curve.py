"""The trigonal genus-4 family y**3 = (x**3 - 1)(x - u1)(x - u2)(x - u3).

This module owns the geometry of a single member curve: parameter
validation, curve points (finite, branch, infinite), holomorphic
k-differentials in the function-field model ``(f + g*y + h*y**2) (dx)**k``,
local charts, and divisors.

Divisors are fiber-aware.  Points whose coordinates live in Q(w) are stored
individually; a full degree-3 fiber of the x-projection is stored as one
collective entry, and a Galois orbit of points over an irreducible x-locus
is stored as the locus polynomial (plus the y-coordinate as a polynomial
residue when the entry is a single point per root rather than a full
fiber).  Every divisor produced here is canonical: linear loci are always
resolved into explicit points, loci are monic, squarefree and pairwise
coprime, and comparisons refine loci by gcd before comparing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

from .errors import DegenerateInput, InvalidParameters, StructuralError
from .polynomials import (
    RationalFunction,
    UniPoly,
    poly_gcd,
    root_multiplicity,
    scalar_roots,
)
from .scalars import INFINITY, Scalar
from .series import DEFAULT_ORDER, LocalSeries, series_of_poly, series_of_rational

# Headroom added to every requested expansion order so that compositions and
# quotients cannot starve the needed coefficient window.
_CHART_PAD = 10


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveParams:
    """A point of the family base: the parameters u, and curve data derived
    from u in closed form (Q and Q' low to high, the six branch x, and
    Q'(u_j) for j = 1..3).  Equality and hash read u alone, so the
    derived fields cost nothing where params key a cache."""

    u: tuple
    q_poly: UniPoly = field(compare=False)
    qprime: UniPoly = field(compare=False)
    branch_x: tuple = field(compare=False)
    qprime_u: tuple = field(compare=False)

    def q_at(self, x0: Scalar) -> Scalar:
        return self.q_poly.evaluate(x0)

    def qprime_at(self, x0: Scalar) -> Scalar:
        return self.qprime.evaluate(x0)

    def is_branch_x(self, x0: Scalar) -> bool:
        return not self.q_at(x0)

    def __str__(self):
        return "u=(" + ",".join(str(c) for c in self.u) + ")"


def validate_params(u1, u2, u3) -> CurveParams:
    """Check membership in the base (parameters distinct, cubes != 1) and
    build the curve data from the elementary symmetric functions e1, e2, e3
    of u: Q = (x**3 - 1)(x**3 - e1 x**2 + e2 x - e3), and
    Q'(u_j) = (u_j**3 - 1) prod_{k != j} (u_j - u_k).  On the base the six
    branch x are pairwise distinct, so Q is squarefree."""
    u = tuple(Scalar.of(v) for v in (u1, u2, u3))
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if u[i] == u[j]:
            raise InvalidParameters(f"u{i + 1} = u{j + 1}")
    one = Scalar.one()
    c1, c2, c3 = (ui * ui * ui - one for ui in u)  # u_j**3 - 1
    for i, c in enumerate((c1, c2, c3)):
        if not c:
            raise InvalidParameters(f"u{i + 1}^3 = 1")
    u1, u2, u3 = u
    p12, s12 = u1 * u2, u1 + u2
    e1, e2, e3 = s12 + u3, p12 + s12 * u3, p12 * u3
    q_poly = UniPoly((e3, -e2, e1, -e3 - one, e2, -e1, one))
    d12, d13, d23 = u1 - u2, u1 - u3, u2 - u3
    qprime_u = (c1 * d12 * d13, -(c2 * d12 * d23), c3 * d13 * d23)
    return CurveParams(
        u=u,
        q_poly=q_poly,
        qprime=q_poly.derivative(),
        branch_x=(one, Scalar.zeta(), Scalar.zeta_power(2)) + u,
        qprime_u=qprime_u,
    )


# ---------------------------------------------------------------------------
# Points and divisor entries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchPoint:
    """The unique curve point over a root of Q (total ramification, y = 0)."""

    x: Scalar

    degree = 1
    kind = "branch"

    def sort_key(self):
        return (0, self.x.sort_key())


@dataclass(frozen=True)
class FinitePoint:
    """An unramified point with both coordinates in Q(w); y**3 = Q(x) != 0."""

    x: Scalar
    y: Scalar

    degree = 1
    kind = "finite"

    def sort_key(self):
        return (1, self.x.sort_key(), self.y.sort_key())


@dataclass(frozen=True)
class FiberPoint:
    """The full degree-3 fiber of the x-projection over x (Q(x) != 0),
    kept collective because the three y-coordinates need not lie in Q(w)."""

    x: Scalar

    degree = 3
    kind = "fiber"

    def sort_key(self):
        return (2, self.x.sort_key())


@dataclass(frozen=True)
class FiberLocus:
    """Full fibers over the roots of a monic squarefree polynomial with no
    roots in Q(w) and no common root with Q; degree 3 per root."""

    poly: tuple  # UniPoly coefficients, low to high

    kind = "fiber_locus"

    @property
    def degree(self):
        return 3 * (len(self.poly) - 1)

    def as_poly(self) -> UniPoly:
        return UniPoly(self.poly)

    def sort_key(self):
        return (3, tuple(c.sort_key() for c in self.poly))


@dataclass(frozen=True)
class PlaceLocus:
    """One curve point per root r of a monic squarefree polynomial (no roots
    in Q(w), coprime to Q), the point over r having y = y_res(r)."""

    poly: tuple
    y_res: tuple  # coefficients of the y-coordinate as a residue polynomial

    kind = "place_locus"

    @property
    def degree(self):
        return len(self.poly) - 1

    def as_poly(self) -> UniPoly:
        return UniPoly(self.poly)

    def y_poly(self) -> UniPoly:
        return UniPoly(self.y_res)

    def sort_key(self):
        return (
            4,
            tuple(c.sort_key() for c in self.poly),
            tuple(c.sort_key() for c in self.y_res),
        )


@dataclass(frozen=True)
class InfinityPoint:
    """One of the three points over x = infinity (deg Q = 6 makes the
    covering unramified there), indexed by the sheet of the cube root."""

    sheet: int

    degree = 1
    kind = "infinity"

    def __post_init__(self):
        if self.sheet not in (0, 1, 2):
            raise DegenerateInput("sheet must be 0, 1 or 2")

    def sort_key(self):
        return (5, self.sheet)


CurvePoint = Union[BranchPoint, FinitePoint, InfinityPoint]
DivisorEntry = Union[BranchPoint, FinitePoint, FiberPoint, FiberLocus, PlaceLocus, InfinityPoint]


def _fiber_entry(x0: Scalar) -> FiberPoint:
    return FiberPoint(x0)


def _locus_entry(poly: UniPoly):
    poly = poly.monic()
    if poly.degree == 1:
        return FiberPoint(-poly.coefficient(0))
    return FiberLocus(poly.coefficients)


def _place_entry(poly: UniPoly, y_res: UniPoly):
    poly = poly.monic()
    if poly.degree == 1:
        root = -poly.coefficient(0)
        return FinitePoint(root, y_res.evaluate(root))
    return PlaceLocus(poly.coefficients, (y_res % poly).coefficients)


# ---------------------------------------------------------------------------
# Divisors
# ---------------------------------------------------------------------------


class Divisor:
    """Formal integer combination of divisor entries."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict | None = None):
        self.entries = {p: m for p, m in (entries or {}).items() if m}

    @staticmethod
    def of(*pairs) -> "Divisor":
        d: dict = {}
        for point, mult in pairs:
            d[point] = d.get(point, 0) + mult
        return Divisor(d)

    @staticmethod
    def zero() -> "Divisor":
        return Divisor({})

    @property
    def degree(self) -> int:
        return sum(p.degree * m for p, m in self.entries.items())

    def is_zero(self) -> bool:
        return not self.entries

    def is_effective(self) -> bool:
        return all(m >= 0 for m in self.entries.values())

    def items_sorted(self):
        return sorted(self.entries.items(), key=lambda pm: pm[0].sort_key())

    def __add__(self, other: "Divisor") -> "Divisor":
        merged = dict(self.entries)
        for p, m in other.entries.items():
            merged[p] = merged.get(p, 0) + m
        return Divisor(merged)

    def __neg__(self) -> "Divisor":
        return Divisor({p: -m for p, m in self.entries.items()})

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-other)

    def __mul__(self, n: int) -> "Divisor":
        return Divisor({p: m * n for p, m in self.entries.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        a, b = refine_pair(self, other)
        return a.entries == b.entries

    def __hash__(self):
        # __eq__ compares refined entries (a fiber split into its points, a
        # locus into its factors); refinement never changes the degree.
        return hash(self.degree)

    def __ge__(self, other: "Divisor") -> bool:
        a, b = refine_pair(self, other)
        keys = set(a.entries) | set(b.entries)
        return all(a.entries.get(k, 0) >= b.entries.get(k, 0) for k in keys)

    def __le__(self, other: "Divisor") -> bool:
        return other >= self

    def __str__(self):
        if not self.entries:
            return "0"
        return " + ".join(f"{m}*{_entry_str(p)}" for p, m in self.items_sorted())

    __repr__ = __str__


def _entry_str(p) -> str:
    if isinstance(p, BranchPoint):
        return f"Branch({p.x})"
    if isinstance(p, FinitePoint):
        return f"Point({p.x},{p.y})"
    if isinstance(p, FiberPoint):
        return f"Fiber({p.x})"
    if isinstance(p, FiberLocus):
        return f"Fiber[{p.as_poly()}]"
    if isinstance(p, PlaceLocus):
        return f"Place[{p.as_poly()}; y={p.y_poly()}]"
    return f"Inf({p.sheet})"


def divisor_min(a: Divisor, b: Divisor) -> Divisor:
    """Pointwise minimum of two effective divisors (gcd of ideals)."""
    a, b = refine_pair(a, b)
    out: dict = {}
    for key in set(a.entries) & set(b.entries):
        out[key] = min(a.entries[key], b.entries[key])
    return Divisor(out)


def refine_pair(a: Divisor, b: Divisor) -> tuple[Divisor, Divisor]:
    """Rewrite both divisors over a common refinement of their x-loci so that
    entries match key-by-key whenever they overlap geometrically."""
    loci = [
        p.as_poly()
        for d in (a, b)
        for p in d.entries
        if isinstance(p, (FiberLocus, PlaceLocus))
    ]
    parts = _coprime_refinement(loci) if loci else []
    # A collective fiber entry splits into three exact points as soon as one
    # y-coordinate over the same x is known from the other divisor.
    known_y: dict = {}
    for d in (a, b):
        for p in d.entries:
            if isinstance(p, FinitePoint):
                known_y[p.x] = p.y
    refined_a = _refine_divisor(a, parts, known_y)
    refined_b = _refine_divisor(b, parts, known_y)
    return refined_a, refined_b


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
            continue
    return parts


def _refine_divisor(d: Divisor, parts: list[UniPoly], known_y: dict | None = None) -> Divisor:
    zeta = Scalar.zeta()
    out = Divisor.zero()
    for p, m in d.entries.items():
        if isinstance(p, (FiberLocus, PlaceLocus)):
            poly = p.as_poly()
            for part in parts:
                if poly_gcd(poly, part).degree == part.degree:
                    if isinstance(p, FiberLocus):
                        out += Divisor.of((_locus_entry(part), m))
                    else:
                        out += Divisor.of((_place_entry(part, p.y_poly()), m))
                    poly = poly // part
            if poly.degree > 0:
                raise StructuralError("locus refinement failed to cover an entry")
        elif isinstance(p, FiberPoint) and known_y and p.x in known_y:
            y0 = known_y[p.x]
            for s in range(3):
                out += Divisor.of((FinitePoint(p.x, y0 * zeta ** s), m))
        else:
            out += Divisor.of((p, m))
    return out


# ---------------------------------------------------------------------------
# Differentials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Differential:
    """A holomorphic 1-form b0 * dx/y + (b1 + b2*x + b3*x**2) * dx/y**2.

    The two summands span the eigenspaces of the order-3 automorphism
    y -> w*y, so the grading (b0 | b1, b2, b3) is intrinsic."""

    b0: Scalar
    b: tuple

    def __post_init__(self):
        object.__setattr__(self, "b0", Scalar.of(self.b0))
        object.__setattr__(self, "b", tuple(Scalar.of(c) for c in self.b))
        if len(self.b) != 3:
            raise DegenerateInput("a differential has exactly three graded coefficients")

    @staticmethod
    def from_coefficients(coeffs) -> "Differential":
        coeffs = tuple(coeffs)
        if len(coeffs) != 4:
            raise DegenerateInput("need four coefficients (b0, b1, b2, b3)")
        return Differential(coeffs[0], coeffs[1:])

    def coefficients(self) -> tuple:
        return (self.b0,) + self.b

    def is_zero(self) -> bool:
        return not (self.b0 or any(self.b))

    def poly(self) -> UniPoly:
        """The coefficient polynomial b1 + b2*x + b3*x**2 of the dx/y**2 part."""
        return UniPoly(self.b)

    def __add__(self, other: "Differential") -> "Differential":
        return Differential(self.b0 + other.b0, tuple(a + b for a, b in zip(self.b, other.b)))

    def __sub__(self, other: "Differential") -> "Differential":
        return self + other.scale(Scalar.of(-1))

    def scale(self, factor) -> "Differential":
        factor = Scalar.of(factor)
        return Differential(self.b0 * factor, tuple(c * factor for c in self.b))

    def __str__(self):
        names = ("w0", "w1", "w2", "w3")
        parts = [f"({c})*{n}" for c, n in zip(self.coefficients(), names) if c]
        return " + ".join(parts) if parts else "0"


OMEGA = tuple(
    Differential.from_coefficients(tuple(Scalar.one() if i == j else Scalar.zero() for j in range(4)))
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
        zero = RationalFunction.zero()
        return KDifferential(
            params,
            1,
            zero,
            RationalFunction.of(d.poly()) / q,
            RationalFunction.of(d.b0) / q,
        )

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


# ---------------------------------------------------------------------------
# Local charts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Chart:
    """Local data at a point: the series of x and y in the local parameter,
    the series of dx/ds, and the valuation of dx."""

    x_series: LocalSeries
    y_series: LocalSeries
    dx_series: LocalSeries
    dx_order: int


@lru_cache(maxsize=256)
def branch_inversion(params: CurveParams, x0: Scalar, order: int) -> LocalSeries:
    """The series D(y) with x = x0 + D(y) solving y**3 = Q(x) at a branch
    point, by Lagrange inversion: with Q(x0 + X) = X * Q'(x0) * U(X), U(0) = 1,
    the coefficient of y**(3n) is [X**(n-1)] U**(-n) / (n * Q'(x0)**n).  The
    first term is y**3/Q'(x0), and Q(x0 + D(y)) = y**3 is checked exactly."""
    if not params.is_branch_x(x0):
        raise DegenerateInput("branch expansion requested at a non-branch x")
    qp0 = params.qprime_at(x0)
    if not qp0:
        raise InvalidParameters("multiple branch root; configuration excluded from the base")
    trunc = order + _CHART_PAD
    shifted = params.q_poly.taylor_shift(x0)
    qp0_inv = qp0.inverse()
    u = {k - 1: c * qp0_inv for k, c in enumerate(shifted.coefficients) if k}
    terms = {}
    for n in range(1, (trunc + 2) // 3):  # 3n < trunc
        u_power = LocalSeries(u, n)._unit_power(Fraction(-n))
        terms[3 * n] = u_power.coefficient(n - 1) * qp0_inv ** n * Fraction(1, n)
    d = LocalSeries(terms, trunc)
    residual = series_of_poly(shifted, d) - LocalSeries.monomial(3, Scalar.one(), trunc)
    if residual.valuation() is not None:
        raise StructuralError("branch inversion does not solve y**3 = Q(x)")
    return d


def branch_chart(params: CurveParams, x0: Scalar, order: int = DEFAULT_ORDER) -> Chart:
    d = branch_inversion(params, x0, order)
    trunc = d.truncation
    x_series = LocalSeries.constant(x0, trunc) + d
    y_series = LocalSeries.monomial(1, Scalar.one(), trunc)
    return Chart(x_series=x_series, y_series=y_series, dx_series=d.derivative(), dx_order=2)


@lru_cache(maxsize=64)
def _infinity_root_series(params: CurveParams, trunc: int) -> LocalSeries:
    reversed_q = params.q_poly.reversed_coefficients()
    return series_of_poly(reversed_q, LocalSeries.monomial(1, Scalar.one(), trunc)).cube_root_unit()


def infinity_chart(params: CurveParams, sheet: int, order: int = DEFAULT_ORDER) -> Chart:
    trunc = order + _CHART_PAD
    t_inv = LocalSeries.monomial(-1, Scalar.one(), trunc)
    s = _infinity_root_series(params, trunc)
    y_series = LocalSeries.monomial(-2, Scalar.zeta_power(sheet), trunc - 2) * s
    dx_series = LocalSeries.monomial(-2, Scalar.of(-1), trunc)
    return Chart(x_series=t_inv, y_series=y_series, dx_series=dx_series, dx_order=-2)


def finite_chart(params: CurveParams, point: FinitePoint, order: int = DEFAULT_ORDER) -> Chart:
    """Chart at an unramified point: the fiber frame over its x with the
    abstract cube root specialized to the point's y."""
    frame = fiber_frame(params, point.x, order)
    return Chart(
        x_series=frame.x_series,
        y_series=frame.w_series.scale(point.y),
        dx_series=LocalSeries.constant(Scalar.one(), frame.x_series.truncation),
        dx_order=0,
    )


def chart_at(params: CurveParams, point: CurvePoint, order: int = DEFAULT_ORDER) -> Chart:
    if isinstance(point, BranchPoint):
        return branch_chart(params, point.x, order)
    if isinstance(point, InfinityPoint):
        return infinity_chart(params, point.sheet, order)
    if isinstance(point, FinitePoint):
        return finite_chart(params, point, order)
    raise DegenerateInput(f"no local chart at a collective divisor entry ({point.kind})")


@dataclass(frozen=True)
class FiberFrame:
    """Exact expansion data over a non-branch x0 for all three fiber points
    at once: y = Y * w_series with Y an abstract cube root of Q(x0), so a
    k-differential expands as F0 + F1*Y + F2*Y**2 with scalar series F_i."""

    x_series: LocalSeries
    w_series: LocalSeries


def fiber_frame(params: CurveParams, x0: Scalar, order: int = DEFAULT_ORDER) -> FiberFrame:
    x0 = Scalar.of(x0)
    q0 = params.q_at(x0)
    if not q0:
        raise DegenerateInput("fiber frame needs a non-branch x")
    trunc = order + _CHART_PAD
    shifted = params.q_poly.taylor_shift(x0)
    unit = series_of_poly(shifted, LocalSeries.monomial(1, Scalar.one(), trunc)).scale(q0.inverse())
    w = unit.cube_root_unit()
    x_series = LocalSeries.constant(x0, trunc) + LocalSeries.monomial(1, Scalar.one(), trunc)
    return FiberFrame(x_series=x_series, w_series=w)


def kdiff_series(q: KDifferential, chart: Chart) -> LocalSeries:
    """The function-part series f(x) + g(x)*y + h(x)*y**2 on the chart; the
    oracle the tests check the fixed-basis expansions (basis_factors) against."""
    fx = series_of_rational(q.f, chart.x_series)
    gx = series_of_rational(q.g, chart.x_series)
    hx = series_of_rational(q.h, chart.x_series)
    return fx + gx * chart.y_series + hx * chart.y_series * chart.y_series


def basis_factors(params: CurveParams, x_series: LocalSeries, top: int) -> tuple[LocalSeries, tuple]:
    """(1/Q(x(s)), (x(s)**0, ..., x(s)**top)) on a chart or fiber frame.  The
    fixed basis forms are these times powers of y: w0 = y**2 dx/Q and
    w_l = x**(l-1) y dx/Q (top = 2), and the quadratic differentials x**k/Q,
    y/Q, x**k y**2/Q**2 times (dx)**2 (top = 4).  The high powers carry the
    largest coefficients, so callers ask only for what they read."""
    q_inv = series_of_poly(params.q_poly, x_series).inverse()
    powers = [LocalSeries.constant(Scalar.one(), x_series.truncation)]
    for _ in range(top):
        powers.append(powers[-1] * x_series)
    return q_inv, tuple(powers)


# ---------------------------------------------------------------------------
# Divisors of differentials and functions
# ---------------------------------------------------------------------------


def trigonal_fiber(params: CurveParams, x0) -> Divisor:
    """The degree-3 fiber of the x-projection as a divisor."""
    if x0 is INFINITY:
        return Divisor.of(*((InfinityPoint(s), 1) for s in range(3)))
    x0 = Scalar.of(x0)
    if params.is_branch_x(x0):
        return Divisor.of((BranchPoint(x0), 3))
    return Divisor.of((_fiber_entry(x0), 1))


def _poly_zero_divisor(params: CurveParams, poly: UniPoly) -> Divisor:
    """Affine zero divisor of a polynomial in x pulled back to the curve."""
    out = Divisor.zero()
    remaining = poly
    for beta in params.branch_x:
        m = root_multiplicity(remaining, beta)
        if m:
            out += Divisor.of((BranchPoint(beta), 3 * m))
            for _ in range(m):
                remaining = remaining // UniPoly((-beta, Scalar.one()))
    roots, loci = scalar_roots(remaining)
    for r, m in roots:
        out += Divisor.of((_fiber_entry(r), m))
    for locus, m in loci:
        out += Divisor.of((_locus_entry(locus), m))
    return out


def divisor_of_function(params: CurveParams, func) -> Divisor:
    """Exact divisor (zeros minus poles) of a rational function of x."""
    func = RationalFunction.of(func) if not isinstance(func, RationalFunction) else func
    if not func:
        raise DegenerateInput("the zero function has no divisor")
    infinity_fiber = Divisor.of(*((InfinityPoint(s), 1) for s in range(3)))
    out = Divisor.zero()
    if func.numerator.degree > 0:
        out += _poly_zero_divisor(params, func.numerator)
    if func.denominator.degree > 0:
        out -= _poly_zero_divisor(params, func.denominator)
    out -= (func.numerator.degree - func.denominator.degree) * infinity_fiber
    return out


def divisor_of(params: CurveParams, d: Differential, order: int = DEFAULT_ORDER) -> Divisor:
    """Zero divisor of a nonzero holomorphic 1-form; always effective of
    degree 6 (the canonical degree 2g - 2 for genus 4)."""
    if d.is_zero():
        raise DegenerateInput("the zero differential has no divisor")
    p = d.poly()
    out = Divisor.zero()
    if not d.b0:
        # d = P(x) dx/y**2: div = div(P) + 2 * (infinity fiber)
        out += _poly_zero_divisor(params, p)
        inf_mult = 2 - p.degree
        for s in range(3):
            out += Divisor.of((InfinityPoint(s), inf_mult))
    else:
        # d = (b0*y + P(x)) dx/y**2; the norm of f = b0*y + P to the x-line
        # is R = P**3 + b0**3 * Q, which carries the affine zeros of f.
        b0 = d.b0
        resolvent = p ** 3 + params.q_poly.scale(b0 ** 3)
        remaining = resolvent
        for beta in params.branch_x:
            m = root_multiplicity(remaining, beta)
            if m:
                out += Divisor.of((BranchPoint(beta), m))
                for _ in range(m):
                    remaining = remaining // UniPoly((-beta, Scalar.one()))
        roots, loci = scalar_roots(remaining)
        for r, m in roots:
            y_r = -p.evaluate(r) / b0
            out += Divisor.of((FinitePoint(r, y_r), m))
        for locus, m in loci:
            y_res = (-p).scale(b0.inverse())
            out += Divisor.of((_place_entry(locus, y_res), m))
        # infinity: expand f on each sheet and add the frame contribution 2
        for s in range(3):
            working = order
            val = None
            for _ in range(5):
                chart = infinity_chart(params, s, working)
                f_series = chart.y_series.scale(b0) + series_of_poly(p, chart.x_series)
                val = f_series.valuation()
                if val is not None:
                    break
                working *= 2
            if val is None:
                raise StructuralError("cannot determine the infinity order of a section")
            out += Divisor.of((InfinityPoint(s), val + 2))
    if out.degree != 6 or not out.is_effective():
        raise StructuralError(f"divisor of a 1-form must be effective of degree 6, got {out}")
    return out


def common_zeros_by_divisors(params: CurveParams, d1: Differential, d2: Differential) -> Divisor:
    """Test oracle for the common zeros of the pencil of two independent
    1-forms: the minimum of their divisors, verified basis-independent by
    recomputation from d1 + d2 and d1 - d2."""
    locus = divisor_min(divisor_of(params, d1), divisor_of(params, d2))
    alt = divisor_min(divisor_of(params, d1 + d2), divisor_of(params, d1 - d2))
    if locus != alt:
        raise StructuralError("common zeros depend on the basis of the pencil; bug")
    return locus


# ---------------------------------------------------------------------------
# Canonical map
# ---------------------------------------------------------------------------


def canonical_map(params: CurveParams, point: CurvePoint, order: int = DEFAULT_ORDER) -> tuple:
    """Homogeneous coordinates [z0:z1:z2:z3] of a point under the canonical
    embedding by (w0, w1, w2, w3), normalized so the first nonzero coordinate
    is 1; computed by trivializing all four forms against the chart's dx,
    from one 1/Q expansion: w0 = y**2/Q and w_l = x**(l-1) y/Q."""
    chart = chart_at(params, point, order)
    q_inv, x_powers = basis_factors(params, chart.x_series, 2)
    y_q_inv = chart.y_series * q_inv
    basis_series = [y_q_inv * chart.y_series] + [x_powers[l] * y_q_inv for l in range(3)]
    valuations = [s.valuation() for s in basis_series]
    if all(v is None for v in valuations):
        raise StructuralError("all canonical coordinates vanished; impossible for a base-point-free system")
    vmin = min(v for v in valuations if v is not None)
    coords = tuple(
        s.coefficient(vmin) if s.truncation > vmin else Scalar.zero() for s in basis_series
    )
    return normalize_projective(coords)


def normalize_projective(coords: Iterable[Scalar]) -> tuple:
    coords = tuple(Scalar.of(c) for c in coords)
    for c in coords:
        if c:
            inv = c.inverse()
            return tuple(x * inv for x in coords)
    raise DegenerateInput("zero vector is not a projective point")
