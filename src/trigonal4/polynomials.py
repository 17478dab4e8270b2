"""Dense univariate polynomials over an exact field.

``UniPoly`` holds polynomials with Q(w) coefficients: in x, and in the
cube-root probe in its parameter a.  Division, gcd and the squarefree
decomposition serve the divisor computations of curve.py, which keep each
squarefree factor of degree >= 2 as one locus; no command builds a
rational function, and the rational functions of the oracles live in
tests/oracles/polynomials.py.
Degrees in this package stay small (about 20 at most), so the dense
representation and classical algorithms are the right tool.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateInput


@dataclass(frozen=True)
class UniPoly:
    """Coefficients stored low-to-high degree with no trailing zeros."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(self.coefficients)
        while coeffs and not coeffs[-1]:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

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
