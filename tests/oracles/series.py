"""Series operations that only the oracles use: shifts, inverses,
derivatives, and the series of a rational function of x on a chart."""

from trigonal4.series import LocalSeries, series_of_poly

from oracles.polynomials import RationalFunction


def shift(f: LocalSeries, k: int) -> LocalSeries:
    """f times s**k."""
    return LocalSeries({n + k: c for n, c in f.coefficients.items()}, f.truncation + k)


def inverse(f: LocalSeries) -> LocalSeries:
    """1/f, from the unit power recurrence of LocalSeries._unit_power."""
    v = f.valuation()
    if v is None:
        raise ZeroDivisionError("inverse of a series that is zero through truncation")
    lead_inv = f.coefficients[v].inverse()
    return shift(shift(f, -v).scale(lead_inv)._unit_power(-1, 1).scale(lead_inv), -v)


def derivative(f: LocalSeries) -> LocalSeries:
    return LocalSeries({n - 1: c * n for n, c in f.coefficients.items() if n != 0}, f.truncation - 1)


def series_of_rational(f: RationalFunction, param: LocalSeries) -> LocalSeries:
    num = series_of_poly(f.numerator, param)
    den = series_of_poly(f.denominator, param)
    return num * inverse(den)
