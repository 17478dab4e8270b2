"""Exact arithmetic in Q(w), the field generated by a primitive cube root of unity.

A scalar is ``(a + b*w) / d`` for three ints kept in canonical form,
``d > 0`` and ``gcd(a, b, d) == 1``, with the reduction rule
``w**2 = -1 - w``.  One gcd per result keeps the form canonical, so every
field operation, comparison and hash is exact and never depends on how a
value was built.  The triple is the only representation, and ``sort_key``
is the triple itself.  Two values combine in one place, the private
kernel _add3, _sub3, _mul3 and _inv3 on unreduced triples: every Scalar
operator turns its operands into triples (_operand, as Scalar.of does),
composes the kernel and reduces once with _make.  An operand is a Scalar
or an int, and any other operand gets NotImplemented; a Scalar is built
from an int (Scalar.of), a literal (Scalar.parse) or the integers of a
ratio (ratio_scalar).  The base path
(curve.validate_params, deformation.pairing_covector, the conic value
and the residue oracle) only delays that reduction to its outputs.

The I/O literal syntax is ``p/q`` or ``p/q+r/s*w`` (whitespace-free, the
``/q`` omitted when the denominator is 1), e.g. ``-1/6`` or ``1/2+-3/4*w``.
Scalar.parse reads it by hand (tests/oracles/scalars.py keeps the grammar
as a regular expression) and, like a sampled draw (prng.sample_scalar),
goes straight from the integers p, q, r, s to the canonical triple with one
gcd (ratio_scalar).  A Scalar formats itself once: its fourth slot keeps
the text of the first str(), so a value printed again (an echoed input,
an interned sampled draw) is not formatted again.  == and hash read the
triple alone.
"""

from __future__ import annotations

import cmath
import math
from operator import attrgetter

from .errors import DegenerateInput

# w as a complex number, used only by the floating cross-check oracle.
_W_COMPLEX = cmath.exp(2j * cmath.pi / 3)


class Scalar:
    """An element of Q(w), w a primitive cube root of unity."""

    __slots__ = ("_a", "_b", "_d", "_text")
    # no constructor (Scalar() is a TypeError): _make builds every value
    __init__ = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(value) -> "Scalar":
        if value.__class__ is Scalar:
            return value
        y = _operand(value)
        if y is None:
            raise TypeError("cannot build an exact scalar from a non-rational value")
        return _make(*y)

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
        return _make(-1, -1, 1)

    # -- equality: canonical triples, so == and hash agree --------------------

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __add__(self, other):
        y = _operand(other)
        return NotImplemented if y is None else _make(*_add3(_triple(self), y))

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __sub__(self, other):
        y = _operand(other)
        return NotImplemented if y is None else _make(*_sub3(_triple(self), y))

    def __rsub__(self, other):
        y = _operand(other)
        return NotImplemented if y is None else _make(*_sub3(y, _triple(self)))

    def __mul__(self, other):
        y = _operand(other)
        return NotImplemented if y is None else _make(*_mul3(_triple(self), y))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """1/self; ZeroDivisionError at zero."""
        return _make(*_inv3(_triple(self)))

    def __truediv__(self, other):
        y = _operand(other)
        return NotImplemented if y is None else _make(*_mul3(_triple(self), _inv3(y)))

    def __rtruediv__(self, other):
        y = _operand(other)
        return NotImplemented if y is None else _make(*_mul3(y, _inv3(_triple(self))))

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
        """Total order used only for deterministic output, not field order:
        the canonical triple (a, b, d)."""
        return (self._a, self._b, self._d)

    def __complex__(self) -> complex:
        # int true division rounds a/d correctly
        d = self._d
        return self._a / d + self._b / d * _W_COMPLEX

    def __str__(self) -> str:
        text = self._text
        if text is None:
            a, b, d = self._a, self._b, self._d
            if not b:
                text = _format_ratio(a, d)
            elif not a:
                text = f"{_format_ratio(b, d)}*w"
            else:
                text = f"{_format_ratio(a, d)}+{_format_ratio(b, d)}*w"
            self._text = text
        return text

    def __repr__(self) -> str:
        return f"Scalar({self})"

    @staticmethod
    def parse(text: str) -> "Scalar":
        """The literal p[/q], p[/q]*w or p[/q]+r[/s]*w after strip(), with
        ASCII digits."""
        literal = text.strip()
        rational, plus, zeta, star = literal, "", "0", literal[-2:] == "*w"
        if star:
            rational, plus, zeta = literal[:-2].rpartition("+")
            rational = rational if plus else "0"
        num, slash, den = rational.partition("/")
        znum, zslash, zden = zeta.partition("/")
        n, z = num.removeprefix("-"), znum.removeprefix("-")
        digits = n + den + z + zden
        if not (n and z and (den or not slash) and (zden or not zslash) and digits.isascii() and digits.isdigit()):
            raise DegenerateInput(f"not a scalar literal: {text!r}")
        # each part's digits are read before its denominator is checked, so
        # a digit-limit error comes before a zero denominator behind it
        try:
            p, q = int(num), int(den or 1)
            r, s = (int(znum), int(zden or 1)) if q else (0, 0)
        except ValueError:  # more digits than int() converts
            raise DegenerateInput("scalar literal exceeds the integer digit limit") from None
        if not (q and s):
            raise DegenerateInput(f"zero denominator in scalar literal: {text!r}")
        return ratio_scalar(p, q, r, s)


def ratio_scalar(p: int, q: int, r: int, s: int) -> Scalar:
    """The canonical Scalar p/q + (r/s)*w for q, s > 0: one gcd."""
    return _make(p * s, r * q, q * s)


def _make(a: int, b: int, d: int) -> Scalar:
    """The canonical Scalar (a + b*w)/d for d > 0: one gcd.  Every caller's d
    is a product of denominators and norms, so it is never negative."""
    g = math.gcd(a, b, d)
    s = object.__new__(Scalar)
    if g == 1:
        s._a, s._b, s._d, s._text = a, b, d, None
    else:
        s._a, s._b, s._d, s._text = a // g, b // g, d // g, None
    return s


# Unreduced triples (a, b, d), d > 0, for (a + b*w)/d; the caller reduces
# once per output with _make.  Sums go over the lcm of the denominators and
# inverses drop the content gcd(a, b), so that large literals do not swell.
_triple = attrgetter("_a", "_b", "_d")


def _operand(value):
    """The triple of an operand of a Scalar operator: a Scalar's own,
    (n, 0, 1) for an int n, else None."""
    if value.__class__ is Scalar:
        return value._a, value._b, value._d
    if isinstance(value, int):
        return value, 0, 1
    return None


def _add3(x: tuple, y: tuple) -> tuple:
    (a, b, d), (c, e, f) = x, y
    g = math.gcd(d, f)
    d, f = d // g, f // g
    return a * f + c * d, b * f + e * d, d * f * g


def _sub3(x: tuple, y: tuple) -> tuple:
    c, e, f = y
    return _add3(x, (-c, -e, f))


def _mul3(x: tuple, y: tuple) -> tuple:
    (a, b, d), (c, e, f) = x, y
    be = b * e  # w^2 = -1 - w
    return a * c - be, a * e + b * c - be, d * f


def _inv3(x: tuple) -> tuple:
    """1/x, x != 0: with a, b divided by g = gcd(a, b), the conjugate over
    the norm, d (a - b - b*w) / (g (a**2 - a*b + b**2))."""
    a, b, d = x
    g = math.gcd(a, b)
    if not g:
        raise ZeroDivisionError("inverse of zero scalar")
    a, b = a // g, b // g
    return (a - b) * d, -b * d, (a * a - a * b + b * b) * g


def _format_ratio(n: int, d: int) -> str:
    g = math.gcd(n, d)
    try:
        if d == g:
            return str(n // g)
        return f"{n // g}/{d // g}"
    except ValueError:  # more digits than str() converts
        raise DegenerateInput("output exceeds the integer digit limit") from None


_ZERO = _make(0, 0, 1)
_ONE = _make(1, 0, 1)
_ZETA = _make(0, 1, 1)


class ProjectiveInfinity:
    """The point at infinity of the projective line over Q(w)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INFINITY = ProjectiveInfinity()


def parse_projective(text: str):
    """Parse a scalar literal or ``inf``."""
    if text.strip() == "inf":
        return INFINITY
    return Scalar.parse(text)
