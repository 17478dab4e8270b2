"""A polynomial multiplied out from its roots."""

from trigonal4.errors import DegenerateInput
from trigonal4.polynomials import UniPoly


def from_roots(roots) -> UniPoly:
    if not roots:
        raise DegenerateInput("from_roots needs at least one root")
    one = roots[0] ** 0
    poly = UniPoly((one,))
    for r in roots:
        poly = poly * UniPoly((-r, one))
    return poly
