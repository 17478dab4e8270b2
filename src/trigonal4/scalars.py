"""Exact arithmetic in Q(w), the field generated by a primitive cube root of unity.

A scalar is ``rational_part + zeta_part * w`` with the reduction rule
``w**2 = -1 - w``; both parts are ``fractions.Fraction``, so every field
operation, comparison and normal form is exact.

The I/O literal syntax is ``p/q`` or ``p/q+r/s*w`` (whitespace-free, the
``/q`` omitted when the denominator is 1), e.g. ``-1/6`` or ``1/2+-3/4*w``.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateInput

_FRACTION = r"-?[0-9]+(?:/[0-9]+)?"
_LITERAL = re.compile(
    rf"^(?:(?P<rat>{_FRACTION})|(?P<zet0>{_FRACTION})\*w|(?P<rat1>{_FRACTION})\+(?P<zet1>{_FRACTION})\*w)$"
)

# w as a complex number, used only by the floating cross-check oracle.
_W_COMPLEX = cmath.exp(2j * cmath.pi / 3)


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot build an exact scalar from {type(value).__name__}")


@dataclass(frozen=True)
class Scalar:
    """An element of Q(w), w a primitive cube root of unity."""

    rational_part: Fraction = Fraction(0)
    zeta_part: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "rational_part", _coerce(self.rational_part))
        object.__setattr__(self, "zeta_part", _coerce(self.zeta_part))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar(_coerce(value))

    @staticmethod
    def zero() -> "Scalar":
        return _ZERO

    @staticmethod
    def one() -> "Scalar":
        return _ONE

    @staticmethod
    def zeta() -> "Scalar":
        return _ZETA

    @staticmethod
    def zeta_power(k: int) -> "Scalar":
        k %= 3
        if k == 0:
            return _ONE
        if k == 1:
            return _ZETA
        return Scalar(Fraction(-1), Fraction(-1))

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.rational_part) or bool(self.zeta_part)

    def __add__(self, other):
        other = Scalar.of(other)
        return Scalar(self.rational_part + other.rational_part, self.zeta_part + other.zeta_part)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.rational_part, -self.zeta_part)

    def __sub__(self, other):
        return self + (-Scalar.of(other))

    def __rsub__(self, other):
        return Scalar.of(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Scalar(self.rational_part * other, self.zeta_part * other)
        if not isinstance(other, Scalar):
            return NotImplemented
        a, b = self.rational_part, self.zeta_part
        c, d = other.rational_part, other.zeta_part
        # (a + bw)(c + dw) with w^2 = -1 - w
        return Scalar(a * c - b * d, a * d + b * c - b * d)

    __rmul__ = __mul__

    def conjugate(self) -> "Scalar":
        """Image under w -> w**2, the nontrivial field automorphism."""
        return Scalar(self.rational_part - self.zeta_part, -self.zeta_part)

    def norm(self) -> Fraction:
        """Multiplicative norm to the rationals: a**2 - a*b + b**2 >= 0."""
        a, b = self.rational_part, self.zeta_part
        return a * a - a * b + b * b

    def inverse(self) -> "Scalar":
        if not self:
            raise ZeroDivisionError("inverse of zero scalar")
        n = self.norm()
        conj = self.conjugate()
        return Scalar(conj.rational_part / n, conj.zeta_part / n)

    def __truediv__(self, other):
        other = Scalar.of(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Scalar.of(other) * self.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if not exponent:
            return _ONE
        result = self
        for bit in bin(exponent)[3:]:  # square-and-multiply below the top bit
            result = result * result
            if bit == "1":
                result = result * self
        return result

    # -- predicates and roots ----------------------------------------------

    def sqrt(self) -> "Scalar | None":
        """An exact square root in Q(w), or None when no such root exists."""
        c, d = self.rational_part, self.zeta_part
        if not self:
            return _ZERO
        if not d:
            r = _sqrt_fraction(c)
            if r is not None:
                return Scalar(r)
            # (x + 2x*w)^2 = -3x^2, so negative rationals of the right shape
            r = _sqrt_fraction(-c / 3)
            if r is not None:
                return Scalar(r, 2 * r)
            return None
        # Solve (x + y*w)^2 = c + d*w: x^2 - y^2 = c, 2xy - y^2 = d, y != 0.
        # Eliminating x: 3B^2 + (4c - 2d)B - d^2 = 0 with B = y^2.
        disc = (4 * c - 2 * d) ** 2 + 12 * d * d
        s = _sqrt_fraction(disc)
        if s is None:
            return None
        for numerator in ((2 * d - 4 * c) + s, (2 * d - 4 * c) - s):
            big = numerator / 6
            if big <= 0:
                continue
            y = _sqrt_fraction(big)
            if y is None:
                continue
            x = (d + y * y) / (2 * y)
            cand = Scalar(x, y)
            if cand * cand == self:
                return cand
            cand = Scalar(-x, -y)
            if cand * cand == self:
                return cand
        return None

    # -- ordering key, formatting, parsing -----------------------------------

    def sort_key(self):
        """Total order used only for deterministic output, not field order."""
        return (self.rational_part, self.zeta_part)

    def __complex__(self) -> complex:
        return float(self.rational_part) + float(self.zeta_part) * _W_COMPLEX

    def __str__(self) -> str:
        if not self.zeta_part:
            return _format_fraction(self.rational_part)
        zeta = f"{_format_fraction(self.zeta_part)}*w"
        if not self.rational_part:
            return zeta
        return f"{_format_fraction(self.rational_part)}+{zeta}"

    def __repr__(self) -> str:
        return f"Scalar({self})"

    @staticmethod
    def parse(text: str) -> "Scalar":
        m = _LITERAL.match(text.strip())
        if m is None:
            raise DegenerateInput(f"not a scalar literal: {text!r}")
        try:
            if m.group("rat") is not None:
                return Scalar(Fraction(m.group("rat")))
            if m.group("zet0") is not None:
                return Scalar(Fraction(0), Fraction(m.group("zet0")))
            return Scalar(Fraction(m.group("rat1")), Fraction(m.group("zet1")))
        except ZeroDivisionError:
            raise DegenerateInput(f"zero denominator in scalar literal: {text!r}") from None
        except ValueError:  # more digits than int() converts
            raise DegenerateInput("scalar literal exceeds the integer digit limit") from None


def _format_fraction(f: Fraction) -> str:
    try:
        if f.denominator == 1:
            return str(f.numerator)
        return f"{f.numerator}/{f.denominator}"
    except ValueError:  # more digits than str() converts
        raise DegenerateInput("output exceeds the integer digit limit") from None


def _sqrt_fraction(f: Fraction) -> Fraction | None:
    if f < 0:
        return None
    n, d = f.numerator, f.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


_ZERO = Scalar(Fraction(0), Fraction(0))
_ONE = Scalar(Fraction(1), Fraction(0))
_ZETA = Scalar(Fraction(0), Fraction(1))


class ProjectiveInfinity:
    """The point at infinity of the projective line over Q(w)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __str__(self):
        return "inf"


INFINITY = ProjectiveInfinity()


def parse_projective(text: str):
    """Parse a scalar literal or ``inf``."""
    if text.strip() == "inf":
        return INFINITY
    return Scalar.parse(text)


def format_projective(value) -> str:
    return "inf" if value is INFINITY else str(value)
