"""Exact probe of the one-parameter cube-root locus u = (c, c*w, c*w**2).

On this locus the second factor of the branch polynomial collapses to
x**3 - a with a = c**3, giving the one-parameter family
y**3 = (x**3 - 1)(x**3 - a).  The conic-criterion covector of the family's
own tangent direction is read off its closed form
c_k = sum_j a_j u_j**(k-1) / Q'(u_j):

- the tangent is a_j = du_j/da = 1/(3 u_j**2), since u_j**3 = a;
- Q'(u_j) = (u_j**3 - 1) * 3 u_j**2 = 3 u_j**2 (a - 1);
- so c_k = sum_j u_j**(k-5) / (9(a - 1)), and the power sums of the cube
  roots of a vanish unless 3 divides the exponent: sum_j u_j**-3 = 3/a,
  and the sums for k = 1, 3 are 0.

The covector is therefore (0, 1/(3a(a-1)), 0), and its conic value
X*Z - Y**2 is -1/(9a**2(a-1)**2): OFF the vanishing conic, while the cycle
class is known to be locally constant along this family.  The qz24
command prints both as the (numerator, denominator) texts in a below and
that tension as the explicit ANNOTATION; tests/test_closed_forms.py parses
the texts and proves them in generic c.
"""

from __future__ import annotations

from .errors import DegenerateInput
from .scalars import Scalar

# (numerator, denominator) texts in a, as the qz24 command prints them
COVECTOR = (("0", "1"), ("1/3", "a^2-a"), ("0", "1"))
CONIC_VALUE = ("-1/9", "a^4-2*a^3+a^2")

ANNOTATION = (
    "tension: the cycle class is known to be locally constant along this "
    "one-parameter family, yet the family's tangent direction fails the "
    "conic criterion; only the exact computed value is asserted here"
)


def probe_at(a_value: Scalar) -> tuple:
    """(covector, conic value) at a, that is (0, c1, 0) and -c1**2 with
    c1 = 1/(3a(a-1)); a must avoid 0 and the unit cubes, 1 among them."""
    if not a_value or a_value ** 3 == Scalar.one():
        raise DegenerateInput("the probe needs a outside {0} and the unit cubes")
    c1 = (3 * a_value * (a_value - 1)).inverse()
    return (Scalar.zero(), c1, Scalar.zero()), -(c1 * c1)
