"""Truncated Laurent series over Q(w) for local expansions on the curve.

A series knows its coefficients below ``truncation`` and nothing beyond it,
and every operation propagates truncation conservatively, so any coefficient
read out of a series is exact.  The cube root of a unit series and the
reversion at a branch point (``curve.branch_inversion``) come from one
coefficient recurrence for a rational power p/q of a unit series,
``LocalSeries._unit_power(p, q)``, whose weights are integers; so does the
inverse of tests/oracles/series.py.  Polynomials in x are evaluated on a
chart by ``series_of_poly``; rational functions of x, shifts, inverses
and derivatives are test oracles (tests/oracles/series.py).

No command expands a series, and no command imports this module.  In
src/ only curve.divisor_of (through the infinity chart) and
curve.branch_inversion build them, importing it when they run, and both
stay because the benchmark names them; the charts and the support test
of tests/oracles/ build on them.
"""

from __future__ import annotations

from .errors import DegenerateInput, StructuralError
from .polynomials import UniPoly
from .scalars import Scalar, ratio_scalar


class LocalSeries:
    """Finitely many known terms c_n * s**n for n < truncation."""

    __slots__ = ("coefficients", "truncation")

    def __init__(self, coefficients: dict, truncation: int):
        self.coefficients = {n: c for n, c in coefficients.items() if c and n < truncation}
        self.truncation = truncation

    def __eq__(self, other):
        if other.__class__ is not LocalSeries:
            return NotImplemented
        return (self.coefficients, self.truncation) == (other.coefficients, other.truncation)

    __hash__ = None

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(value: Scalar, truncation: int) -> "LocalSeries":
        return LocalSeries({0: value}, truncation)

    @staticmethod
    def monomial(exponent: int, value: Scalar, truncation: int) -> "LocalSeries":
        return LocalSeries({exponent: value}, truncation)

    # -- inspection ---------------------------------------------------------

    def valuation(self) -> int | None:
        """Smallest known exponent with nonzero coefficient; None when the
        series vanishes through its truncation."""
        if not self.coefficients:
            return None
        return min(self.coefficients)

    def coefficient(self, exponent: int) -> Scalar:
        if exponent >= self.truncation:
            raise StructuralError(
                f"coefficient at exponent {exponent} requested beyond truncation {self.truncation}"
            )
        return self.coefficients.get(exponent, Scalar.zero())

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "LocalSeries") -> "LocalSeries":
        trunc = min(self.truncation, other.truncation)
        merged = dict(self.coefficients)
        for n, c in other.coefficients.items():
            merged[n] = merged.get(n, Scalar.zero()) + c
        return LocalSeries(merged, trunc)

    def __neg__(self) -> "LocalSeries":
        return LocalSeries({n: -c for n, c in self.coefficients.items()}, self.truncation)

    def __sub__(self, other: "LocalSeries") -> "LocalSeries":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        va = self.valuation()
        vb = other.valuation()
        # An all-zero factor is only known to have valuation >= truncation.
        ea = self.truncation if va is None else va
        eb = other.truncation if vb is None else vb
        trunc = min(self.truncation + eb, other.truncation + ea)
        out: dict = {}
        for na, ca in self.coefficients.items():
            for nb, cb in other.coefficients.items():
                n = na + nb
                if n >= trunc:
                    continue
                out[n] = out.get(n, Scalar.zero()) + ca * cb
        return LocalSeries(out, trunc)

    __rmul__ = __mul__

    def scale(self, value) -> "LocalSeries":
        return LocalSeries({n: c * value for n, c in self.coefficients.items()}, self.truncation)

    def cube_root_unit(self) -> "LocalSeries":
        """Cube root of a series with constant term 1; the root with constant
        term 1 is returned."""
        v = self.valuation()
        if v is None or v < 0 or self.coefficient(0) != Scalar.one():
            raise DegenerateInput("cube root implemented only for unit series with constant term 1")
        return self._unit_power(1, 3)

    def _unit_power(self, p: int, q: int) -> "LocalSeries":
        """f**(p/q) with constant term 1, for this power series f with f_0 = 1
        and q > 0, at the same truncation.  Every term comes from J.C.P.
        Miller's recurrence n*q*g_n = sum_{k=1..n} ((p+q)*k - n*q) * f_k * g_(n-k),
        whose weights are integers, so the cost is O(n) per term (Knuth,
        TAOCP vol. 2, section 4.7)."""
        terms = sorted((k, c) for k, c in self.coefficients.items() if k > 0)
        g = [Scalar.one()]
        for n in range(1, self.truncation):
            acc = Scalar.zero()
            for k, fk in terms:
                if k > n:
                    break
                acc = acc + fk * g[n - k] * ((p + q) * k - n * q)
            g.append(acc * ratio_scalar(1, n * q, 0, 1))
        return LocalSeries(dict(enumerate(g)), self.truncation)


def series_of_poly(poly: UniPoly, param: LocalSeries) -> LocalSeries:
    """Evaluate a polynomial on a series by Horner's rule."""
    v = param.valuation()
    v = 0 if v is None else min(v, 0)
    # Constants enter with enough headroom that negative-valuation parameters
    # (expansions at infinity) do not starve the truncation prematurely.
    headroom = param.truncation - (poly.degree if poly else 0) * v
    acc = LocalSeries({}, headroom)
    for c in reversed(poly.coefficients):
        acc = acc * param + LocalSeries.constant(c, headroom)
    return acc

