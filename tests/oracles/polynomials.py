"""Polynomial helpers and the rational functions the oracles compute with:
a polynomial multiplied out from its roots or read from a list of scalars,
the variable x, the branch polynomial Q of a parameter point, the printed
form of a polynomial in x, and quotients of polynomials kept in lowest
terms."""

from dataclasses import dataclass

from trigonal4.errors import DegenerateInput
from trigonal4.polynomials import UniPoly, poly_gcd
from trigonal4.scalars import Scalar


def from_roots(roots) -> UniPoly:
    if not roots:
        raise DegenerateInput("from_roots needs at least one root")
    one = roots[0] ** 0
    poly = UniPoly((one,))
    for r in roots:
        poly = poly * UniPoly((-r, one))
    return poly


def from_scalars(values) -> UniPoly:
    return UniPoly(tuple(Scalar.of(v) for v in values))


def x() -> UniPoly:
    return UniPoly((Scalar.zero(), Scalar.one()))


def q_poly(params) -> UniPoly:
    """The branch polynomial Q of a parameter point."""
    return UniPoly(params.q_coefficients)


def format_poly(poly: UniPoly) -> str:
    """The polynomial as text in x, highest degree first, e.g. x^2-4*x-21."""
    if not poly:
        return "0"
    parts = []
    for k in range(poly.degree, -1, -1):
        c = poly.coefficient(k)
        if not c:
            continue
        text = str(c)
        if ("+" in text[1:]) or ("*" in text and k > 0):
            text = f"({text})"
        if k == 0:
            term = text
        else:
            var = "x" if k == 1 else f"x^{k}"
            term = var if text == "1" else f"-{var}" if text == "-1" else f"{text}*{var}"
        parts.append(term)
    joined = parts[0]
    for term in parts[1:]:
        joined += term if term.startswith("-") else "+" + term
    return joined


@dataclass(frozen=True)
class RationalFunction:
    """A quotient of polynomials over Q(w) (or any exact field), normalized
    so the denominator is monic and shares no factor with the numerator."""

    numerator: UniPoly
    denominator: UniPoly

    def __post_init__(self):
        num, den = self.numerator, self.denominator
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if num:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            lead = den.leading
            num = num.scale(lead ** -1)
            den = den.monic()
        else:
            den = UniPoly((den.leading ** 0,))
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    @staticmethod
    def of(value) -> "RationalFunction":
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, UniPoly):
            return RationalFunction(value, UniPoly((value.leading ** 0,)) if value else UniPoly((Scalar.one(),)))
        return RationalFunction(UniPoly((Scalar.of(value),)), UniPoly((Scalar.one(),)))

    @staticmethod
    def zero() -> "RationalFunction":
        return RationalFunction(UniPoly(()), UniPoly((Scalar.one(),)))

    def __bool__(self):
        return bool(self.numerator)

    def __add__(self, other):
        other = RationalFunction.of(other)
        return RationalFunction(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.numerator, self.denominator)

    def __sub__(self, other):
        return self + (-RationalFunction.of(other))

    def __mul__(self, other):
        other = RationalFunction.of(other)
        return RationalFunction(self.numerator * other.numerator, self.denominator * other.denominator)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        if not self:
            raise ZeroDivisionError("inverse of the zero rational function")
        return RationalFunction(self.denominator, self.numerator)

    def __truediv__(self, other):
        return self * RationalFunction.of(other).inverse()

    def evaluate(self, point):
        den = self.denominator.evaluate(point)
        if not den:
            raise ZeroDivisionError("pole of rational function at evaluation point")
        return self.numerator.evaluate(point) / den
