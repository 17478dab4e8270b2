"""The trigonal genus-4 family y**3 = (x**3 - 1)(x - u1)(x - u2)(x - u3).

This module owns the geometry of a single member curve: parameter
validation, curve points (finite, branch, infinite), the graded 1-forms,
the branch inversion and the infinity chart, and divisors.  The commands
read fibers in closed form (trigonal_fiber) and expand no series: the
residue oracle (deformation.residue_matrix) writes down the leading terms
at a branch point.  No command reaches divisor_of, branch_inversion or
the gcd refinement behind Divisor comparisons: they stay because
perfbench/layertrace.py counts divisor_of calls and reads the cache of
branch_inversion, and the oracles in tests/oracles/curve.py (branch
charts, charts at any point, divisors of functions, divisor minima, the
canonical map) build on them.

Validation computes only u and Q'(u_j), what an off-conic request reads;
Q, Q' and the branch x are built from u on first read.

Divisors are fiber-aware.  Points whose coordinates live in Q(w) are stored
individually; a full degree-3 fiber of the x-projection is stored as one
collective entry, and the points over the roots of a squarefree x-locus
of degree >= 2 are stored as the locus polynomial (plus the y-coordinate
as a polynomial residue when the entry is a single point per root rather
than a full fiber).  A divisor reads its entries off one squarefree
decomposition (_poly_zero_divisor): the branch x are divided out, a
linear rest becomes a point, and any other rest stays one locus, even when
it has roots in Q(w).  So loci are monic, squarefree and pairwise coprime
but need not be irreducible, and comparisons refine loci by gcd, against
each other and against x - r for every point entry, before comparing.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .errors import DegenerateInput, InvalidParameters, StructuralError
from .polynomials import UniPoly, poly_gcd, squarefree_decomposition
from .scalars import INFINITY, Scalar, _make, _mul3, _sub3, _triple
from .series import LocalSeries, series_of_poly


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


class CurveParams:
    """A point of the family base: the parameters u and Q'(u_j) for
    j = 1..3.  Q and Q' (low to high) and the six branch x are built from u
    in closed form on first read: only the residue oracle, numeric,
    canonical_ideal and the charts read them.  Equality and hash read u
    alone, so the derived data costs nothing where params key a cache."""

    def __init__(self, u: tuple, qprime_u: tuple):
        self.u = u
        self.qprime_u = qprime_u

    def __eq__(self, other):
        if other.__class__ is not CurveParams:
            return NotImplemented
        return self.u == other.u

    def __hash__(self):
        return hash((self.u,))

    @cached_property
    def q_poly(self) -> UniPoly:
        """Q = (x**3 - 1)(x**3 - e1 x**2 + e2 x - e3), e1, e2, e3 the
        elementary symmetric functions of u."""
        u1, u2, u3 = self.u
        p12, s12 = u1 * u2, u1 + u2
        e1, e2, e3 = s12 + u3, p12 + s12 * u3, p12 * u3
        one = Scalar.one()
        return UniPoly((e3, -e2, e1, -e3 - one, e2, -e1, one))

    @cached_property
    def qprime(self) -> UniPoly:
        return self.q_poly.derivative()

    @cached_property
    def branch_x(self) -> tuple:
        return (Scalar.one(), Scalar.zeta(), Scalar.zeta_power(2)) + self.u

    def qprime_at(self, x0: Scalar) -> Scalar:
        return self.qprime.evaluate(x0)

    def is_branch_x(self, x0: Scalar) -> bool:
        # Q is the product of x - b over the six branch x, all in Q(w)
        return x0 in self.branch_x

    def __str__(self):
        return "u=(" + ",".join(str(c) for c in self.u) + ")"


def validate_params(u1, u2, u3) -> CurveParams:
    """Check membership in the base (parameters distinct, cubes != 1) and
    compute Q'(u_j) = (u_j**3 - 1) prod_{k != j} (u_j - u_k).  On the base
    the six branch x are pairwise distinct, so Q is squarefree."""
    u = tuple(Scalar.of(v) for v in (u1, u2, u3))
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if u[i] == u[j]:
            raise InvalidParameters(f"u{i + 1} = u{j + 1}")
    t = list(map(_triple, u))
    qprime_u = []
    for j, tj in enumerate(t):  # on unreduced triples, one _make per Q'(u_j)
        a, b, d = _mul3(_mul3(tj, tj), tj)  # u_j**3 = (a + b*w)/d
        if a == d and not b:
            raise InvalidParameters(f"u{j + 1}^3 = 1")
        value = (a - d, b, d)
        for tk in t[:j] + t[j + 1:]:
            value = _mul3(value, _sub3(tj, tk))
        qprime_u.append(_make(*value))
    return CurveParams(u=u, qprime_u=tuple(qprime_u))


# ---------------------------------------------------------------------------
# Points and divisor entries
# ---------------------------------------------------------------------------


class BranchPoint:
    """The unique curve point over a root of Q (total ramification, y = 0)."""

    __slots__ = ("x",)
    degree = 1
    kind = "branch"

    def __init__(self, x: Scalar):
        self.x = x

    def __eq__(self, other):
        if other.__class__ is not BranchPoint:
            return NotImplemented
        return self.x == other.x

    def __hash__(self):
        return hash((self.x,))

    def sort_key(self):
        return (0, self.x.sort_key())


class FinitePoint:
    """An unramified point with both coordinates in Q(w); y**3 = Q(x) != 0."""

    __slots__ = ("x", "y")
    degree = 1
    kind = "finite"

    def __init__(self, x: Scalar, y: Scalar):
        self.x, self.y = x, y

    def __eq__(self, other):
        if other.__class__ is not FinitePoint:
            return NotImplemented
        return (self.x, self.y) == (other.x, other.y)

    def __hash__(self):
        return hash((self.x, self.y))

    def sort_key(self):
        return (1, self.x.sort_key(), self.y.sort_key())


class FiberPoint:
    """The full degree-3 fiber of the x-projection over x (Q(x) != 0),
    kept collective because the three y-coordinates need not lie in Q(w)."""

    __slots__ = ("x",)
    degree = 3
    kind = "fiber"

    def __init__(self, x: Scalar):
        self.x = x

    def __eq__(self, other):
        if other.__class__ is not FiberPoint:
            return NotImplemented
        return self.x == other.x

    def __hash__(self):
        return hash((self.x,))

    def sort_key(self):
        return (2, self.x.sort_key())


class FiberLocus:
    """Full fibers over the roots of a monic squarefree polynomial of degree
    >= 2 with no common root with Q; degree 3 per root."""

    __slots__ = ("poly",)
    kind = "fiber_locus"

    def __init__(self, poly: tuple):
        self.poly = poly  # UniPoly coefficients, low to high

    def __eq__(self, other):
        if other.__class__ is not FiberLocus:
            return NotImplemented
        return self.poly == other.poly

    def __hash__(self):
        return hash((self.poly,))

    @property
    def degree(self):
        return 3 * (len(self.poly) - 1)

    def as_poly(self) -> UniPoly:
        return UniPoly(self.poly)

    def sort_key(self):
        return (3, tuple(c.sort_key() for c in self.poly))


class PlaceLocus:
    """One curve point per root r of a monic squarefree polynomial (degree
    >= 2, coprime to Q), the point over r having y = y_res(r)."""

    __slots__ = ("poly", "y_res")
    kind = "place_locus"

    def __init__(self, poly: tuple, y_res: tuple):
        self.poly = poly
        self.y_res = y_res  # coefficients of the y-coordinate as a residue polynomial

    def __eq__(self, other):
        if other.__class__ is not PlaceLocus:
            return NotImplemented
        return (self.poly, self.y_res) == (other.poly, other.y_res)

    def __hash__(self):
        return hash((self.poly, self.y_res))

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


class InfinityPoint:
    """One of the three points over x = infinity (deg Q = 6 makes the
    covering unramified there), indexed by the sheet of the cube root."""

    __slots__ = ("sheet",)
    degree = 1
    kind = "infinity"

    def __init__(self, sheet: int):
        if sheet not in (0, 1, 2):
            raise DegenerateInput("sheet must be 0, 1 or 2")
        self.sheet = sheet

    def __eq__(self, other):
        if other.__class__ is not InfinityPoint:
            return NotImplemented
        return self.sheet == other.sheet

    def __hash__(self):
        return hash((self.sheet,))

    def sort_key(self):
        return (5, self.sheet)


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


def refine_pair(a: Divisor, b: Divisor) -> tuple[Divisor, Divisor]:
    """Rewrite both divisors over a common refinement of their x-loci so that
    entries match key-by-key whenever they overlap geometrically."""
    entries = [p for d in (a, b) for p in d.entries]
    loci = [p.as_poly() for p in entries if isinstance(p, (FiberLocus, PlaceLocus))]
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


# ---------------------------------------------------------------------------
# Differentials
# ---------------------------------------------------------------------------


class Differential:
    """A holomorphic 1-form b0 * dx/y + (b1 + b2*x + b3*x**2) * dx/y**2.

    The two summands span the eigenspaces of the order-3 automorphism
    y -> w*y, so the grading (b0 | b1, b2, b3) is intrinsic."""

    __slots__ = ("b0", "b")

    def __init__(self, b0, b):
        self.b0 = Scalar.of(b0)
        self.b = tuple(Scalar.of(c) for c in b)
        if len(self.b) != 3:
            raise DegenerateInput("a differential has exactly three graded coefficients")

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


# ---------------------------------------------------------------------------
# Local charts
# ---------------------------------------------------------------------------


class Chart:
    """Local data at a point: the series of x and y in the local parameter,
    the series of dx/ds, and the valuation of dx.  Charts know x and the
    local parameter s below s**truncation, which the caller
    derives from the highest coefficient it reads; a read past a
    truncation raises StructuralError (LocalSeries.coefficient)."""

    __slots__ = ("x_series", "y_series", "dx_series", "dx_valuation")

    def __init__(self, x_series: LocalSeries, y_series: LocalSeries, dx_series: LocalSeries, dx_valuation: int):
        self.x_series, self.y_series = x_series, y_series
        self.dx_series, self.dx_valuation = dx_series, dx_valuation


@lru_cache(maxsize=256)
def branch_inversion(params: CurveParams, x0: Scalar, truncation: int) -> LocalSeries:
    """The series D(y) with x = x0 + D(y) solving y**3 = Q(x) at a branch
    point, by Lagrange inversion: with Q(x0 + X) = X * Q'(x0) * U(X), U(0) = 1,
    the coefficient of y**(3n) is [X**(n-1)] U**(-n) / (n * Q'(x0)**n).  The
    first term is y**3/Q'(x0), and Q(x0 + D(y)) = y**3 is checked exactly.
    The branch charts of tests/oracles/curve.py are built on it."""
    if not params.is_branch_x(x0):
        raise DegenerateInput("branch expansion requested at a non-branch x")
    qp0 = params.qprime_at(x0)
    if not qp0:
        raise InvalidParameters("multiple branch root; configuration excluded from the base")
    shifted = params.q_poly.taylor_shift(x0)
    qp0_inv = qp0.inverse()
    u = {k - 1: c * qp0_inv for k, c in enumerate(shifted.coefficients) if k}
    terms = {}
    for n in range(1, (truncation + 2) // 3):  # 3n < truncation
        u_power = LocalSeries(u, n)._unit_power(-n, 1)
        terms[3 * n] = u_power.coefficient(n - 1) * qp0_inv ** n / n
    d = LocalSeries(terms, truncation)
    residual = series_of_poly(shifted, d) - LocalSeries.monomial(3, Scalar.one(), truncation)
    if residual.valuation() is not None:
        raise StructuralError("branch inversion does not solve y**3 = Q(x)")
    return d


def _infinity_root_series(params: CurveParams, truncation: int) -> LocalSeries:
    reversed_q = params.q_poly.reversed_coefficients()
    return series_of_poly(reversed_q, LocalSeries.monomial(1, Scalar.one(), truncation)).cube_root_unit()


def infinity_chart(params: CurveParams, sheet: int, truncation: int) -> Chart:
    """Chart in t = 1/x; y = w**sheet * t**-2 * (t**6 Q(1/t))**(1/3) is known
    below t**(truncation - 2)."""
    t_inv = LocalSeries.monomial(-1, Scalar.one(), truncation)
    s = _infinity_root_series(params, truncation)
    y_series = LocalSeries.monomial(-2, Scalar.zeta_power(sheet), truncation - 2) * s
    dx_series = LocalSeries.monomial(-2, Scalar.of(-1), truncation)
    return Chart(x_series=t_inv, y_series=y_series, dx_series=dx_series, dx_valuation=-2)


# ---------------------------------------------------------------------------
# Divisors of differentials
# ---------------------------------------------------------------------------


def trigonal_fiber(params: CurveParams, x0) -> Divisor:
    """The degree-3 fiber of the x-projection as a divisor."""
    if x0 is INFINITY:
        return Divisor.of(*((InfinityPoint(s), 1) for s in range(3)))
    x0 = Scalar.of(x0)
    if params.is_branch_x(x0):
        return Divisor.of((BranchPoint(x0), 3))
    return Divisor.of((FiberPoint(x0), 1))


def _poly_zero_divisor(params: CurveParams, poly: UniPoly, weight: int, entry) -> Divisor:
    """Affine zeros of a polynomial in x read off its squarefree
    decomposition: a branch x that is a root of multiplicity m becomes a
    BranchPoint of multiplicity weight*m, and the rest of each factor is one
    entry(rest), a point when linear and a locus otherwise."""
    out = Divisor.zero()
    one = Scalar.one()
    for factor, m in squarefree_decomposition(poly):
        for b in params.branch_x:
            if not factor.evaluate(b):
                out += Divisor.of((BranchPoint(b), weight * m))
                factor = factor // UniPoly((-b, one))
        if factor.degree > 0:
            out += Divisor.of((entry(factor), m))
    return out


# divisor_of reads f = b0*y + P(x) at an infinity point through t**4: the
# form's order there, val(f) + 2, is at most the canonical degree 6.  The
# infinity chart knows y below t**(truncation - 2), so the truncation is 7.
_INFINITY_ORDER_TRUNCATION = 7


def divisor_of(params: CurveParams, d: Differential) -> Divisor:
    """Zero divisor of a nonzero holomorphic 1-form; always effective of
    degree 6 (the canonical degree 2g - 2 for genus 4)."""
    if d.is_zero():
        raise DegenerateInput("the zero differential has no divisor")
    p = d.poly()
    if not d.b0:
        # d = P(x) dx/y**2: div = div(P) + 2 * (infinity fiber)
        out = _poly_zero_divisor(params, p, 3, _locus_entry)
        inf_mult = 2 - p.degree
        for s in range(3):
            out += Divisor.of((InfinityPoint(s), inf_mult))
    else:
        # d = (b0*y + P(x)) dx/y**2; the norm of f = b0*y + P to the x-line
        # is R = P**3 + b0**3 * Q, which carries the affine zeros of f.
        b0 = d.b0
        y_res = (-p).scale(b0.inverse())
        norm = p ** 3 + params.q_poly.scale(b0 ** 3)
        out = _poly_zero_divisor(params, norm, 1, lambda locus: _place_entry(locus, y_res))
        # infinity: expand f on each sheet and add the frame contribution 2
        for s in range(3):
            chart = infinity_chart(params, s, _INFINITY_ORDER_TRUNCATION)
            val = (chart.y_series.scale(b0) + series_of_poly(p, chart.x_series)).valuation()
            if val is None:
                raise StructuralError("cannot determine the infinity order of a section")
            out += Divisor.of((InfinityPoint(s), val + 2))
    if out.degree != 6 or not out.is_effective():
        raise StructuralError(f"divisor of a 1-form must be effective of degree 6, got {out}")
    return out
