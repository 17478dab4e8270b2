"""The reference scalar: Q(w) as a frozen pair of ``Fraction``s.

``FractionScalar`` is the dataclass ``trigonal4.scalars.Scalar`` was before
it became one reduced integer triple ``(a + b*w)/d``.  Its operations are
the plain ``Fraction`` formulas, so the tests check every ``Scalar``
operation against it value by value.  The ``Fraction`` helpers the tests
read, ``fraction_parts`` and ``fraction_scalar``, live here too: no
``Fraction`` is built or accepted in ``src/``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from trigonal4.errors import DegenerateInput
from trigonal4.scalars import _LITERAL, _W_COMPLEX, Scalar, ratio_scalar


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot build an exact scalar from {type(value).__name__}")


def fraction_parts(s: Scalar) -> tuple:
    """The rational and zeta parts of a Scalar (a + b*w)/d as Fractions."""
    return Fraction(s._a, s._d), Fraction(s._b, s._d)


def fraction_scalar(rational=0, zeta=0) -> Scalar:
    """The Scalar rational + zeta*w of two ints or Fractions, built by
    ratio_scalar from their numerators and denominators."""
    r, z = _coerce(rational), _coerce(zeta)
    return ratio_scalar(r.numerator, r.denominator, z.numerator, z.denominator)


@dataclass(frozen=True)
class FractionScalar:
    """An element of Q(w) as a pair of Fractions ``rational_part + zeta_part*w``."""

    rational_part: Fraction = Fraction(0)
    zeta_part: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "rational_part", _coerce(self.rational_part))
        object.__setattr__(self, "zeta_part", _coerce(self.zeta_part))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(value) -> "FractionScalar":
        if isinstance(value, FractionScalar):
            return value
        return FractionScalar(_coerce(value))

    @staticmethod
    def zero() -> "FractionScalar":
        return _ZERO

    @staticmethod
    def one() -> "FractionScalar":
        return _ONE

    @staticmethod
    def zeta() -> "FractionScalar":
        return _ZETA

    @staticmethod
    def zeta_power(k: int) -> "FractionScalar":
        k %= 3
        if k == 0:
            return _ONE
        if k == 1:
            return _ZETA
        return FractionScalar(Fraction(-1), Fraction(-1))

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.rational_part) or bool(self.zeta_part)

    def __add__(self, other):
        other = FractionScalar.of(other)
        return FractionScalar(self.rational_part + other.rational_part, self.zeta_part + other.zeta_part)

    __radd__ = __add__

    def __neg__(self):
        return FractionScalar(-self.rational_part, -self.zeta_part)

    def __sub__(self, other):
        return self + (-FractionScalar.of(other))

    def __rsub__(self, other):
        return FractionScalar.of(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionScalar(self.rational_part * other, self.zeta_part * other)
        if not isinstance(other, FractionScalar):
            return NotImplemented
        a, b = self.rational_part, self.zeta_part
        c, d = other.rational_part, other.zeta_part
        # (a + bw)(c + dw) with w^2 = -1 - w
        return FractionScalar(a * c - b * d, a * d + b * c - b * d)

    __rmul__ = __mul__

    def conjugate(self) -> "FractionScalar":
        """Image under w -> w**2, the nontrivial field automorphism."""
        return FractionScalar(self.rational_part - self.zeta_part, -self.zeta_part)

    def norm(self) -> Fraction:
        """Multiplicative norm to the rationals: a**2 - a*b + b**2 >= 0."""
        a, b = self.rational_part, self.zeta_part
        return a * a - a * b + b * b

    def inverse(self) -> "FractionScalar":
        if not self:
            raise ZeroDivisionError("inverse of zero scalar")
        n = self.norm()
        conj = self.conjugate()
        return FractionScalar(conj.rational_part / n, conj.zeta_part / n)

    def __truediv__(self, other):
        other = FractionScalar.of(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return FractionScalar.of(other) * self.inverse()

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

    # -- ordering key, formatting, parsing -----------------------------------

    def sort_key(self):
        """The canonical triple (a, b, d) of Scalar.sort_key: both parts over
        the lcm of their denominators, which leaves gcd(a, b, d) == 1."""
        r, z = self.rational_part, self.zeta_part
        d = math.lcm(r.denominator, z.denominator)
        return (r.numerator * (d // r.denominator), z.numerator * (d // z.denominator), d)

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
        return f"FractionScalar({self})"

    @staticmethod
    def parse(text: str) -> "FractionScalar":
        m = _LITERAL.match(text.strip())
        if m is None:
            raise DegenerateInput(f"not a scalar literal: {text!r}")
        try:
            if m.group("rat") is not None:
                return FractionScalar(Fraction(m.group("rat")))
            if m.group("zet0") is not None:
                return FractionScalar(Fraction(0), Fraction(m.group("zet0")))
            return FractionScalar(Fraction(m.group("rat1")), Fraction(m.group("zet1")))
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


_ZERO = FractionScalar(Fraction(0), Fraction(0))
_ONE = FractionScalar(Fraction(1), Fraction(0))
_ZETA = FractionScalar(Fraction(0), Fraction(1))
