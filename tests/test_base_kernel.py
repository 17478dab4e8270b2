"""The integer-triple kernel and the base path on it, against the Fraction reference.

Every Scalar operator, curve.validate_params, CurveParams.qprime_u,
deformation.pairing_covector, deformation.conic_value,
CeresaCertificate.kernel_basis and canonical_ideal.MonomialForm.evaluate
compose (a, b, d) triples through the private kernel of trigonal4.scalars and
reduce once per output.  Since Scalar arithmetic is that kernel, the
kernel and the same formulas are checked here against FractionScalar
(tests/oracles/scalars.py), the former pair of Fractions, and every
output must be the same value, rejected points included, on sampled
parameters, on literals with 50-300 digit parts, at the unit cubes, at
repeated parameters and along directions with zero coordinates; the
closed-form conic value also along cone directions, where it is 0.  The
residue oracle on triples is checked against the closed form in
tests/test_deformation.py, on the same wide literals, and the number of
reductions an operator and a request make is pinned here.
"""

import io
import operator
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from trigonal4 import canonical_ideal, cli, prng
from trigonal4.canonical_ideal import canonical_cubic, sym2_relation
from trigonal4.curve import validate_params
from trigonal4.deformation import CeresaCertificate, TangentVector, cone_directions, conic_value, pairing_covector
from trigonal4.errors import InvalidParameters, ZeroTangent
from trigonal4.prng import SplitMix64, sample_scalar
from trigonal4.scalars import INFINITY, Scalar, _add3, _inv3, _make, _mul3, _sub3, _triple

from conftest import direction_with_covector
from oracles.scalars import FractionScalar, fraction_parts

UNIT_CUBES = (Scalar.one(), Scalar.zeta(), Scalar.zeta_power(2))


def ref(x: Scalar) -> FractionScalar:
    return FractionScalar(*fraction_parts(x))


def reference_qprime(u):
    """Q'(u_j) = (u_j**3 - 1) prod_{k != j} (u_j - u_k), after the checks of
    validate_params in its order and with its messages, for u of
    FractionScalars."""
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if u[i] == u[j]:
            raise InvalidParameters(f"u{i + 1} = u{j + 1}")
    one = FractionScalar.one()
    for i, uj in enumerate(u):
        if uj * uj * uj == one:
            raise InvalidParameters(f"u{i + 1}^3 = 1")
    qprime = []
    for j, uj in enumerate(u):
        value = uj * uj * uj - one
        for k, uk in enumerate(u):
            if k != j:
                value = value * (uj - uk)
        qprime.append(value)
    return tuple(qprime)


def reference_covector(u, qprime, a):
    """c_k = sum_j a_j u_j**k / Q'(u_j) for k = 0, 1, 2."""
    return tuple(sum((aj * uj**k / qj for aj, uj, qj in zip(a, u, qprime)), FractionScalar.zero()) for k in range(3))


sampled = st.integers(min_value=0, max_value=2**64 - 1).map(lambda seed: sample_scalar(SplitMix64(seed), 9, 3))


@st.composite
def wide_literals(draw):
    """A literal p/q+r/s*w whose four parts have 50-300 digits each."""

    def digits(sign):
        n = draw(st.integers(min_value=50, max_value=300))
        return sign * draw(st.integers(min_value=10 ** (n - 1), max_value=10**n - 1))

    p, r = (digits(draw(st.sampled_from((1, -1)))) for _ in range(2))
    q, s = digits(1), digits(1)
    return Scalar.parse(f"{p}/{q}+{r}/{s}*w")


# (1 + 3w)**3 = 1 - 18w: a cube whose rational part is 1 but which is no unit.
EDGES = UNIT_CUBES + (Scalar.zero(), Scalar.parse("1+3*w"))
scalars = st.one_of(sampled, wide_literals(), st.sampled_from(EDGES))


@st.composite
def parameter_points(draw):
    u = [draw(scalars) for _ in range(3)]
    if draw(st.booleans()):
        i, j = draw(st.permutations(range(3)))[:2]
        u[i] = u[j]
    return tuple(u)


@st.composite
def directions(draw):
    a = [draw(scalars) for _ in range(3)]
    for i in draw(st.sets(st.integers(min_value=0, max_value=2), max_size=2)):
        a[i] = Scalar.zero()
    return tuple(a)


# the direction of a case: the drawn one (None), or the cone direction at
# an integer t or at infinity, whose conic value is exactly 0
cone_points = st.one_of(st.none(), st.integers(min_value=-9, max_value=9), st.just(INFINITY))


@given(parameter_points(), directions(), cone_points)
@settings(max_examples=150)
def test_base_kernel_matches_scalar_arithmetic(u, a, t):
    ru = tuple(map(ref, u))
    try:
        expected = reference_qprime(ru)
    except InvalidParameters as exc:
        with pytest.raises(InvalidParameters) as caught:
            validate_params(*u)
        assert str(caught.value) == str(exc)
        return
    params = validate_params(*u)
    assert tuple(map(ref, params.qprime_u)) == expected
    if t is None:
        xi = TangentVector(a)
    else:
        xi = cone_directions(params, t if t is INFINITY else Scalar.of(t))
    covector = pairing_covector(params, xi)
    rc0, rc1, rc2 = reference_covector(ru, expected, tuple(map(ref, xi.a)))
    assert tuple(map(ref, covector)) == (rc0, rc1, rc2)
    # the closed form -N / (V prod (u_j**3 - 1)) against c0*c2 - c1**2
    value = conic_value(params, xi)
    assert ref(value) == rc0 * rc2 - rc1 * rc1
    if t is not None:
        assert value == Scalar.zero()
    if xi.is_zero():
        with pytest.raises(ZeroTangent):
            CeresaCertificate(params, xi)
        return
    cert = CeresaCertificate(params, xi)
    assert cert.conic_value == value and "covector" not in vars(cert)
    assert cert.covector == covector


@given(scalars, scalars, st.integers(min_value=1, max_value=10**40), st.integers(min_value=1, max_value=10**40))
def test_triple_helpers_accept_unreduced_triples(x, y, k, m):
    tx = tuple(v * k for v in _triple(x))
    ty = tuple(v * m for v in _triple(y))
    rx, ry = ref(x), ref(y)
    assert ref(_make(*_add3(tx, ty))) == rx + ry
    assert ref(_make(*_sub3(tx, ty))) == rx - ry
    assert ref(_make(*_mul3(tx, ty))) == rx * ry
    if y:
        assert ref(_make(*_inv3(ty))) == ry.inverse()
    else:
        with pytest.raises(ZeroDivisionError, match="inverse of zero scalar"):
            _inv3(ty)


@pytest.mark.parametrize("p", [0, 1, 2])
@given(entries=st.lists(scalars, min_size=3, max_size=3))
@settings(max_examples=40)
def test_kernel_basis_matches_scalar_arithmetic(p, entries):
    # e_j - (c_j / c_p) e_p for j != p, c_p the first nonzero entry
    c = [Scalar.zero()] * p + entries[p:]
    if not c[p]:
        c[p] = Scalar.one()
    params = validate_params(0, 2, 3)
    cert = CeresaCertificate(params, direction_with_covector(params, c))
    assert cert.covector == tuple(c)
    basis = cert.kernel_basis
    rc = list(map(ref, c))
    expected = []
    for j in range(3):
        if j != p:
            b = [FractionScalar.zero()] * 3
            b[j] = FractionScalar.one()
            b[p] = -(rc[j] / rc[p])
            expected.append((FractionScalar.zero(), *b))
    assert [tuple(map(ref, row)) for row in basis] == expected


# _make calls (one gcd and one Scalar each) of one request, from parsing to
# output.  An exact residue-check reduces its inputs, Q'(u_j), the covector,
# Q'(x0) off the expanded Q, dx, the four antiderivatives and the six
# entries it returns; an off-conic analyze its inputs, Q'(u_j), the
# covector, the conic value and the two kernel entries.  A scan row makes
# 7, its six sampled draws and the conic value, less one for each draw the
# table already holds: seed 1 draws one key twice in its first 10 rows.
# schiffer evaluates each form once, d0 computes each fiber parameter once,
# tied t2 included, and a cone grid row makes 5: its t, the three a_j of its
# direction, each composed on triples from the validated u_j**3 - 1, and the
# conic value.
REDUCTIONS = {
    ("residue-check", "--u=0,2,3", "--j=1"): 21,
    ("analyze", "--u=0,2,3", "--xi=1,1,1"): 15,
    ("scan", "--random", "10", "--seed", "1"): 69,
    ("schiffer", "--u=0,2,3", "--point=0,1,0,0"): 23,
    ("d0", "--u=0,2,3", "--t1=1/4"): 9,
    ("scan", "--grid=cone:5", "--u=0,2,3"): 28,
}


@pytest.fixture
def reductions(monkeypatch):
    """The list each _make call of the test appends to, in every module.
    The memoized --u points, the forms of the canonical ideal and the
    sampled-scalar table start empty, so a count is that of one cold
    request."""
    cli.parse_u.cache_clear()
    sym2_relation.cache_clear()
    canonical_cubic.cache_clear()
    prng._sampled.clear()
    calls = []
    real = _make

    def counted(a, b, d):
        calls.append(None)
        return real(a, b, d)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "trigonal4" and getattr(module, "_make", None) is real:
            monkeypatch.setattr(module, "_make", counted)
    return calls


@pytest.mark.parametrize("argv", REDUCTIONS)
def test_requests_reduce_once_per_named_value(reductions, argv):
    assert cli.main(list(argv), io.StringIO()) == 0
    assert len(reductions) == REDUCTIONS[argv]


@given(st.lists(st.one_of(scalars, st.integers(min_value=-9, max_value=9)), min_size=4, max_size=4))
@settings(max_examples=20)
def test_a_form_value_reduces_once(v):
    # every term of the quadric and of the cubic composed on triples, one
    # _make for the value; a coordinate is a Scalar or an int
    params = validate_params(*map(Scalar.parse, ("1/2", "-3+2*w", "5/7")))
    for form in (sym2_relation(params), canonical_cubic(params)):
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(canonical_ideal, "_make", lambda *t: calls.append(None) or _make(*t))
            value = form.evaluate(v)
        assert len(calls) == 1
        expected = FractionScalar.zero()
        for exponents, c in form.terms:
            term = ref(c)
            for coord, e in zip(v, exponents):
                term = term * ref(Scalar.of(coord)) ** e
            expected = expected + term
        assert ref(value) == expected
        with pytest.raises(TypeError):
            form.evaluate((1.0, 1, 1, 1))


X, Y = Scalar.parse("2/3+-5/7*w"), Scalar.parse("-9/4+1/6*w")
OPERATORS = (operator.add, operator.sub, operator.mul, operator.truediv)


@pytest.mark.parametrize("y", [Y, 3, -12], ids=["scalar", "int", "negative-int"])
@pytest.mark.parametrize("op", OPERATORS, ids=lambda op: op.__name__)
def test_each_operator_reduces_once(reductions, op, y):
    # x op y, and n op x for an int n: one _make each, no Scalar built for
    # the int and no intermediate inverse
    value = op(X, y)
    assert len(reductions) == 1
    assert ref(value) == op(ref(X), ref(y) if isinstance(y, Scalar) else y)
    if not isinstance(y, Scalar):
        value = op(y, X)
        assert len(reductions) == 2
        assert ref(value) == op(y, ref(X))
