"""Exact deformation invariants of the trigonal genus-4 family
y**3 = (x**3 - 1)(x - u1)(x - u2)(x - u3).

All core arithmetic is exact over Q(w), w a primitive cube root of unity;
pairing values are stored as Q(w) coefficients of the fixed transcendental
unit 6*pi*i.  Floating point appears only in the optional numeric
cross-check oracle.

The API lives in the submodules (``trigonal4.curve``,
``trigonal4.deformation``, ...); the package root exports only
``__version__``.
"""

__version__ = "0.1.0"
