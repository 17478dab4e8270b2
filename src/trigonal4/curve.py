"""The trigonal genus-4 family y**3 = (x**3 - 1)(x - u1)(x - u2)(x - u3).

This module owns the geometry of a single member curve: parameter
validation, curve points (finite, branch, infinite), the graded 1-forms,
the branch inversion and the infinity chart, and divisors.  The commands
read fibers in closed form (trigonal_fiber) and expand no series: the
residue oracle (deformation.residue_matrix) writes down the leading terms
at a branch point.  No command reaches divisor_of or branch_inversion:
they stay because perfbench/layertrace.py counts divisor_of calls and
reads the cache of branch_inversion, and the oracles in
tests/oracles/curve.py (branch charts, charts at any point, divisors of
functions, divisor minima, the canonical map) build on them.  Only they,
_poly_zero_divisor and infinity_chart build a UniPoly or a LocalSeries,
importing polynomials and series when they run; importing curve does not.

Validation computes only u, the differences u_i - u_k and the u_j**3 - 1,
which is what an off-conic scan row reads; Q'(u_j) is built from those, and
Q's coefficients and the branch x from u, on first read.  The first conic
value at a point keeps the products it needs of those on the point.

Divisors are fiber-aware.  Points whose coordinates live in Q(w) are stored
individually; a full degree-3 fiber of the x-projection is stored as one
collective entry, and the points over the roots of a squarefree x-locus
of degree >= 2 are stored as the locus polynomial (plus the y-coordinate
as a polynomial residue when the entry is a single point per root rather
than a full fiber).  A divisor reads its entries off one squarefree
decomposition (_poly_zero_divisor): the branch x are divided out, a
linear rest becomes a point, and any other rest stays one locus, even when
it has roots in Q(w).  So loci are monic, squarefree and pairwise coprime
but need not be irreducible.  Two divisors are equal when their entries
are, so == and hash agree; the geometric comparison, which refines loci
against each other first, is a test oracle (tests/oracles/curve.py).

An entry's slots give its equality, hash, print order and JSON fields
(report.point_json); an entry class adds only its kind, degree and rank.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .errors import DegenerateInput, InvalidParameters, StructuralError
from .scalars import INFINITY, Scalar, _add3, _inv3, _make, _mul3, _sub3, _triple


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


class CurveParams:
    """A point of the family base: the parameters u, and as the unreduced
    triples that validation forms, the differences u1 - u2, u1 - u3,
    u2 - u3 and the three u_j**3 - 1.  Q'(u_j) and the triples of their
    inverses, Q's coefficients (low to high) and the six branch x are built
    on first read: only the covector, the residue oracle, numeric,
    canonical_ideal and the charts read them; deformation.conic_value sets
    conic_terms and conic_inverse.  Equality and hash read u alone, so the
    derived data costs nothing where params key a cache."""

    def __init__(self, u: tuple, differences: tuple, cubes_minus_one: tuple):
        self.u = u
        self.differences = differences
        self.cubes_minus_one = cubes_minus_one
        self.conic_terms = self.conic_inverse = None

    def __eq__(self, other):
        if other.__class__ is not CurveParams:
            return NotImplemented
        return self.u == other.u

    def __hash__(self):
        return hash((self.u,))

    @cached_property
    def qprime_u(self) -> tuple:
        """Q'(u_j) = (u_j**3 - 1) prod_{k != j} (u_j - u_k), each taking two of
        the differences, up to sign, and one _make."""
        d12, d13, d23 = self.differences
        # (u1 - u2)(u1 - u3), (u2 - u1)(u2 - u3) and (u3 - u1)(u3 - u2)
        a, b, d = _mul3(d12, d23)
        others = (_mul3(d12, d13), (-a, -b, d), _mul3(d13, d23))
        return tuple(_make(*_mul3(e, o)) for e, o in zip(self.cubes_minus_one, others))

    @cached_property
    def qprime_inverses(self) -> tuple:
        """The unreduced triples of 1/Q'(u_j), which every covector at this
        point reads."""
        return tuple(_inv3(_triple(q)) for q in self.qprime_u)

    @cached_property
    def _q_triples(self) -> tuple:
        """Q = (x**3 - 1)(x**3 - e1 x**2 + e2 x - e3) low to high, as unreduced
        triples; e1, e2, e3 the elementary symmetric functions of u."""
        u1, u2, u3 = map(_triple, self.u)
        p12, s12 = _mul3(u1, u2), _add3(u1, u2)
        e1, e2, e3 = _add3(s12, u3), _add3(p12, _mul3(s12, u3)), _mul3(p12, u3)
        minus = (-1, 0, 1)
        return (e3, _mul3(minus, e2), e1, _sub3(_mul3(minus, e3), (1, 0, 1)), e2, _mul3(minus, e1), (1, 0, 1))

    @cached_property
    def q_coefficients(self) -> tuple:
        """The seven coefficients of Q, low to high."""
        return tuple(_make(*c) for c in self._q_triples)

    @cached_property
    def branch_x(self) -> tuple:
        return (Scalar.one(), Scalar.zeta(), Scalar.zeta_power(2)) + self.u

    def qprime_at(self, x0: Scalar) -> Scalar:
        """Q'(x0) off the expanded Q, by Horner's rule on triples: one gcd."""
        t, q = _triple(x0), self._q_triples
        value = (6, 0, 1)  # 6 times the leading 1 of Q
        for i in range(5, 0, -1):
            value = _add3(_mul3(value, t), _mul3((i, 0, 1), q[i]))
        return _make(*value)

    def is_branch_x(self, x0: Scalar) -> bool:
        # Q is the product of x - b over the six branch x, all in Q(w)
        return x0 in self.branch_x


def validate_params(u1, u2, u3) -> CurveParams:
    """Check membership in the base (parameters distinct, cubes != 1),
    forming the three differences u_1 - u_2, u_1 - u_3, u_2 - u_3 and the
    three u_j**3 - 1 on the way, unreduced.  On the base the six branch x
    are pairwise distinct, so Q is squarefree."""
    u = tuple(map(Scalar.of, (u1, u2, u3)))
    t = tuple(map(_triple, u))
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if t[i] == t[j]:  # canonical triples: equal exactly when the values are
            raise InvalidParameters(f"u{i + 1} = u{j + 1}")
    cubes_minus_one = []
    for j, (p, q, r) in enumerate(t):
        # u_j**3 = (a + b*w)/d in closed form from u_j = (p + q*w)/r
        pq = p * q
        a, b, d = p * p * p + q * q * q - 3 * pq * q, 3 * pq * (p - q), r * r * r
        if a == d and not b:
            raise InvalidParameters(f"u{j + 1}^3 = 1")
        cubes_minus_one.append((a - d, b, d))
    differences = (_sub3(t[0], t[1]), _sub3(t[0], t[2]), _sub3(t[1], t[2]))
    return CurveParams(u, differences, tuple(cubes_minus_one))


# ---------------------------------------------------------------------------
# Points and divisor entries
# ---------------------------------------------------------------------------


class _Entry:
    """Equality compares the exact class and the slot values, the hash the
    values; the order is the rank, then each slot's key in turn."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def sort_key(self):
        return (self.rank,) + tuple(
            v if type(v) is int else tuple(c.sort_key() for c in v) if type(v) is tuple else v.sort_key()
            for v in self._fields()
        )


class BranchPoint(_Entry):
    """The unique curve point over a root of Q (total ramification, y = 0)."""

    __slots__ = ("x",)
    degree = 1
    kind = "branch"
    rank = 0

    def __init__(self, x: Scalar):
        self.x = x


class FinitePoint(_Entry):
    """An unramified point with both coordinates in Q(w); y**3 = Q(x) != 0."""

    __slots__ = ("x", "y")
    degree = 1
    kind = "finite"
    rank = 1

    def __init__(self, x: Scalar, y: Scalar):
        self.x, self.y = x, y


class FiberPoint(_Entry):
    """The full degree-3 fiber of the x-projection over x (Q(x) != 0),
    kept collective because the three y-coordinates need not lie in Q(w)."""

    __slots__ = ("x",)
    degree = 3
    kind = "fiber"
    rank = 2

    def __init__(self, x: Scalar):
        self.x = x


class FiberLocus(_Entry):
    """Full fibers over the roots of a monic squarefree polynomial of degree
    >= 2 with no common root with Q; degree 3 per root."""

    __slots__ = ("poly",)
    kind = "fiber_locus"
    rank = 3

    def __init__(self, poly: tuple):
        self.poly = poly  # coefficients, low to high

    @property
    def degree(self):
        return 3 * (len(self.poly) - 1)


class PlaceLocus(_Entry):
    """One curve point per root r of a monic squarefree polynomial (degree
    >= 2, coprime to Q), the point over r having y = y(r)."""

    __slots__ = ("poly", "y")
    kind = "place_locus"
    rank = 4

    def __init__(self, poly: tuple, y: tuple):
        self.poly = poly
        self.y = y  # coefficients of the y-coordinate as a residue polynomial

    @property
    def degree(self):
        return len(self.poly) - 1


class InfinityPoint(_Entry):
    """One of the three points over x = infinity (deg Q = 6 makes the
    covering unramified there), indexed by the sheet of the cube root."""

    __slots__ = ("sheet",)
    degree = 1
    kind = "infinity"
    rank = 5

    def __init__(self, sheet: int):
        if sheet not in (0, 1, 2):
            raise DegenerateInput("sheet must be 0, 1 or 2")
        self.sheet = sheet


def _locus_entry(poly):
    poly = poly.monic()
    if poly.degree == 1:
        return FiberPoint(-poly.coefficient(0))
    return FiberLocus(poly.coefficients)


def _place_entry(poly, y_res):
    poly = poly.monic()
    if poly.degree == 1:
        root = -poly.coefficient(0)
        return FinitePoint(root, y_res.evaluate(root))
    return PlaceLocus(poly.coefficients, (y_res % poly).coefficients)


# ---------------------------------------------------------------------------
# Divisors
# ---------------------------------------------------------------------------


class Divisor:
    """Formal integer combination of divisor entries.  Equality and hash
    read the entries, so a fiber kept as one entry differs from its three
    points listed apart."""

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

    def is_effective(self) -> bool:
        return all(m >= 0 for m in self.entries.values())

    def items_sorted(self):
        return sorted(self.entries.items(), key=lambda pm: pm[0].sort_key())

    def __add__(self, other: "Divisor") -> "Divisor":
        merged = dict(self.entries)
        for p, m in other.entries.items():
            merged[p] = merged.get(p, 0) + m
        return Divisor(merged)

    def __eq__(self, other):
        if other.__class__ is not Divisor:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(frozenset(self.entries.items()))


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

    def is_zero(self) -> bool:
        return not (self.b0 or any(self.b))


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

    def __init__(self, x_series, y_series, dx_series, dx_valuation: int):
        self.x_series, self.y_series = x_series, y_series
        self.dx_series, self.dx_valuation = dx_series, dx_valuation


@lru_cache(maxsize=256)
def branch_inversion(params: CurveParams, x0: Scalar, truncation: int):
    """The series D(y) with x = x0 + D(y) solving y**3 = Q(x) at a branch
    point, by Lagrange inversion: with Q(x0 + X) = X * Q'(x0) * U(X), U(0) = 1,
    the coefficient of y**(3n) is [X**(n-1)] U**(-n) / (n * Q'(x0)**n).  The
    first term is y**3/Q'(x0), and Q(x0 + D(y)) = y**3 is checked exactly.
    The branch charts of tests/oracles/curve.py are built on it."""
    from .polynomials import UniPoly
    from .series import LocalSeries, series_of_poly

    if not params.is_branch_x(x0):
        raise DegenerateInput("branch expansion requested at a non-branch x")
    qp0 = params.qprime_at(x0)
    if not qp0:
        raise InvalidParameters("multiple branch root; configuration excluded from the base")
    shifted = UniPoly(params.q_coefficients).taylor_shift(x0)
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


def infinity_chart(params: CurveParams, sheet: int, truncation: int) -> Chart:
    """Chart in t = 1/x; y = w**sheet * t**-2 * (t**6 Q(1/t))**(1/3) is known
    below t**(truncation - 2)."""
    from .polynomials import UniPoly
    from .series import LocalSeries, series_of_poly

    t_inv = LocalSeries.monomial(-1, Scalar.one(), truncation)
    # t**6 Q(1/t) has the coefficients of Q reversed
    t6_q = series_of_poly(UniPoly(params.q_coefficients[::-1]), LocalSeries.monomial(1, Scalar.one(), truncation))
    s = t6_q.cube_root_unit()
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


def _poly_zero_divisor(params: CurveParams, poly, weight: int, entry) -> Divisor:
    """Affine zeros of a polynomial in x read off its squarefree
    decomposition: a branch x that is a root of multiplicity m becomes a
    BranchPoint of multiplicity weight*m, and the rest of each factor is one
    entry(rest), a point when linear and a locus otherwise."""
    from .polynomials import UniPoly, squarefree_decomposition

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
    from .polynomials import UniPoly
    from .series import series_of_poly

    if d.is_zero():
        raise DegenerateInput("the zero differential has no divisor")
    p = UniPoly(d.b)  # b1 + b2*x + b3*x**2
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
        norm = p ** 3 + UniPoly(params.q_coefficients).scale(b0 ** 3)
        out = _poly_zero_divisor(params, norm, 1, lambda locus: _place_entry(locus, y_res))
        # infinity: expand f on each sheet and add the frame contribution 2
        for s in range(3):
            chart = infinity_chart(params, s, _INFINITY_ORDER_TRUNCATION)
            val = (chart.y_series.scale(b0) + series_of_poly(p, chart.x_series)).valuation()
            if val is None:
                raise StructuralError("cannot determine the infinity order of a section")
            out += Divisor.of((InfinityPoint(s), val + 2))
    if out.degree != 6 or not out.is_effective():
        raise StructuralError(
            f"divisor of a 1-form must be effective of degree 6, got degree {out.degree}"
            + ("" if out.is_effective() else ", not effective")
        )
    return out
