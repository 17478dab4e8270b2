"""Series of a rational function of x on a chart."""

from trigonal4.series import LocalSeries, series_of_poly

from oracles.polynomials import RationalFunction


def series_of_rational(f: RationalFunction, param: LocalSeries) -> LocalSeries:
    num = series_of_poly(f.numerator, param)
    den = series_of_poly(f.denominator, param)
    return num * den.inverse()
