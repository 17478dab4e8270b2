"""Dense univariate polynomials and rational functions over an exact field.

``UniPoly`` holds polynomials with Q(w) coefficients: in x, and in the
cube-root probe in its parameter c.  ``RationalFunction`` holds quotients
of such polynomials.
Degrees in this package stay small (about 20 at most), so the dense
representation and classical algorithms are the right tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DegenerateInput
from .scalars import Scalar


@dataclass(frozen=True)
class UniPoly:
    """Coefficients stored low-to-high degree with no trailing zeros."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(self.coefficients)
        while coeffs and not coeffs[-1]:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_scalars(values: Iterable) -> "UniPoly":
        return UniPoly(tuple(Scalar.of(v) for v in values))

    @staticmethod
    def constant(value) -> "UniPoly":
        return UniPoly((value,))

    @staticmethod
    def x(one=None) -> "UniPoly":
        one = Scalar.one() if one is None else one
        return UniPoly((one * 0, one))

    # -- basic queries --------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    @property
    def leading(self):
        if not self.coefficients:
            raise DegenerateInput("zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    def coefficient(self, k: int):
        if 0 <= k < len(self.coefficients):
            return self.coefficients[k]
        if not self.coefficients:
            raise DegenerateInput("zero polynomial has no coefficients to model zero from")
        return self.coefficients[0] * 0

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] = merged[i] + c
        return UniPoly(tuple(merged))

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coefficients))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            return self.scale(other)
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return UniPoly(())
        out = [a[0] * 0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return UniPoly(tuple(out))

    def scale(self, factor) -> "UniPoly":
        return UniPoly(tuple(c * factor for c in self.coefficients))

    def __pow__(self, exponent: int) -> "UniPoly":
        if exponent < 0:
            raise DegenerateInput("negative polynomial power")
        if not exponent:
            if not self:
                raise DegenerateInput("0**0 for polynomials")
            return UniPoly((self.leading ** 0,))
        result = self
        for bit in bin(exponent)[3:]:  # square-and-multiply below the top bit
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def divmod(self, divisor: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if not divisor:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < divisor.degree:
            return UniPoly(()), self
        rem = list(self.coefficients)
        quot = [self.coefficients[0] * 0] * (self.degree - divisor.degree + 1)
        d = divisor.coefficients
        for k in range(len(quot) - 1, -1, -1):
            coeff = rem[k + len(d) - 1] / divisor.leading
            quot[k] = coeff
            if coeff:
                for i, dc in enumerate(d):
                    rem[k + i] = rem[k + i] - coeff * dc
        return UniPoly(tuple(quot)), UniPoly(tuple(rem[: len(d) - 1]))

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    # -- calculus and evaluation -----------------------------------------------

    def derivative(self) -> "UniPoly":
        return UniPoly(tuple(c * k for k, c in enumerate(self.coefficients) if k))

    def evaluate(self, point):
        acc = point * 0
        for c in reversed(self.coefficients):
            acc = acc * point + c
        return acc

    def taylor_shift(self, center) -> "UniPoly":
        """The polynomial p(center + s) in the variable s."""
        out = UniPoly(())
        shifted = UniPoly((center, center ** 0))
        for c in reversed(self.coefficients):
            out = out * shifted + UniPoly((c,))
        return out

    def reversed_coefficients(self) -> "UniPoly":
        """x**deg * p(1/x); used for expansions at infinity."""
        return UniPoly(tuple(reversed(self.coefficients)))

    # -- normal forms -----------------------------------------------------------

    def monic(self) -> "UniPoly":
        if not self:
            raise DegenerateInput("zero polynomial cannot be made monic")
        lead = self.leading
        return UniPoly(tuple(c / lead for c in self.coefficients))

    def __str__(self) -> str:
        return self.format()

    def format(self, variable: str = "x") -> str:
        if not self:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coefficient(k)
            if not c:
                continue
            text = str(c)
            needs_parens = ("+" in text[1:]) or ("*" in text and k > 0)
            if needs_parens:
                text = f"({text})"
            if k == 0:
                term = text
            else:
                var = variable if k == 1 else f"{variable}^{k}"
                term = var if text == "1" else f"-{var}" if text == "-1" else f"{text}*{var}"
            parts.append(term)
        joined = parts[0]
        for term in parts[1:]:
            joined += term if term.startswith("-") else "+" + term
        return joined


def poly_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic greatest common divisor via the Euclidean algorithm."""
    if not p and not q:
        raise DegenerateInput("gcd(0, 0) is undefined")
    a, b = p, q
    while b:
        a, b = b, a % b
    return a.monic()


def squarefree_decomposition(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's algorithm: [(s_i, i)] with p = lead * prod s_i**i, s_i monic squarefree."""
    if not p:
        raise DegenerateInput("squarefree decomposition of zero")
    p = p.monic()
    if p.degree == 0:
        return []
    out = []
    g = poly_gcd(p, p.derivative())
    w = p // g
    i = 1
    while w.degree > 0:
        y = poly_gcd(w, g)
        factor = w // y
        if factor.degree > 0:
            out.append((factor.monic(), i))
        w, g = y, g // y
        i += 1
    return out


def root_multiplicity(p: UniPoly, root) -> int:
    """Multiplicity of ``root`` as a zero of p (0 when not a root)."""
    one = root ** 0
    linear = UniPoly((-root, one))
    count = 0
    while p and not p.evaluate(root):
        p = p // linear
        count += 1
    return count


def scalar_roots(p: UniPoly) -> tuple[list[tuple[Scalar, int]], list[tuple[UniPoly, int]]]:
    """Split p over Q(w): (roots in Q(w) with multiplicity, leftover loci
    with multiplicity); loci are monic, squarefree and pairwise coprime.

    Root extraction is complete through degree 2; a squarefree factor of
    higher degree stays one locus even when it has roots in Q(w).
    Coefficients must be Scalars.
    """
    roots: list[tuple[Scalar, int]] = []
    loci: list[tuple[UniPoly, int]] = []
    for factor, mult in squarefree_decomposition(p):
        found, leftover = _squarefree_scalar_roots(factor)
        roots.extend((r, mult) for r in found)
        if leftover.degree > 0:
            loci.append((leftover, mult))
    return roots, loci


def _squarefree_scalar_roots(p: UniPoly) -> tuple[list[Scalar], UniPoly]:
    if p.degree == 1:
        return [-p.coefficient(0) / p.coefficient(1)], UniPoly((Scalar.one(),))
    if p.degree == 2:
        a, b, c = p.coefficient(2), p.coefficient(1), p.coefficient(0)
        disc = b * b - 4 * a * c
        s = disc.sqrt()
        if s is None:
            return [], p.monic()
        two_a = 2 * a
        return sorted(((-b + s) / two_a, (-b - s) / two_a), key=Scalar.sort_key), UniPoly((Scalar.one(),))
    return [], p.monic()


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
