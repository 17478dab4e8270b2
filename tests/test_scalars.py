import math
import operator
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from trigonal4.errors import DegenerateInput
from trigonal4.scalars import INFINITY, Scalar, _make, _triple, parse_projective, ratio_scalar

from conftest import scalar_strategy
from oracles.scalars import FractionScalar, fraction_parts, fraction_scalar

scalars = scalar_strategy(bound=50, max_denominator=12)
nonzero_scalars = scalars.filter(bool)


def test_zeta_relations():
    w = Scalar.zeta()
    assert w ** 3 == Scalar.one()
    assert Scalar.one() + w + w * w == Scalar.zero()
    assert Scalar.zeta_power(2) == w * w


@given(scalars, scalars, scalars)
def test_field_axioms_additive_and_distributive(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars, nonzero_scalars)
def test_division_inverts_multiplication(a, b):
    assert (a / b) * b == a


@given(nonzero_scalars)
def test_inverse_and_norm(a):
    assert a * a.inverse() == Scalar.one()
    # 1/a is the conjugate over the rational norm, read off the reference
    ref = _reference(a)
    conjugate = ref.conjugate()
    assert ref.norm() > 0
    assert a.inverse() * fraction_scalar(ref.norm()) == fraction_scalar(conjugate.rational_part, conjugate.zeta_part)


@given(scalars)
def test_literal_round_trip(a):
    assert Scalar.parse(str(a)) == a


def test_literal_forms():
    assert str(ratio_scalar(1, 2, -3, 4)) == "1/2+-3/4*w"
    assert str(ratio_scalar(-1, 6, 0, 1)) == "-1/6"
    assert str(Scalar.zero()) == "0"
    assert str(ratio_scalar(0, 1, 2, 3)) == "2/3*w"
    assert Scalar.parse("1/2+-3/4*w") == ratio_scalar(1, 2, -3, 4)
    # digits are ASCII: Arabic-Indic digits are not literals
    for text in ("1 + w", "\u0663", "\u0663/\u0664", "1+\u0662*w"):
        with pytest.raises(DegenerateInput):
            Scalar.parse(text)


def test_parse_projective():
    assert parse_projective("inf") is INFINITY
    assert parse_projective("-2/3") == ratio_scalar(-2, 3, 0, 1)


@given(scalars, scalars)
def test_sort_key_total_order(a, b):
    assert (a.sort_key() == b.sort_key()) == (a == b)


def test_complex_embedding():
    w = complex(Scalar.zeta())
    assert abs(w ** 3 - 1) < 1e-12
    assert abs(1 + w + w * w) < 1e-12


def test_cube_costs_two_multiplications(monkeypatch):
    u = Scalar.parse("-4/3+-3*w")
    expected = u * u * u
    calls = []
    multiply = Scalar.__mul__

    def counting(self, other):
        calls.append(other)
        return multiply(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counting)
    assert u ** 3 == expected
    assert len(calls) == 2


@given(scalar_strategy(bound=6, max_denominator=4), st.integers(min_value=-4, max_value=8))
def test_power_is_repeated_product(x, n):
    assume(n >= 0 or x)
    expected = Scalar.one()
    for _ in range(abs(n)):
        expected = expected * x
    if n < 0:
        expected = expected.inverse()
    assert x ** n == expected


# ---------------------------------------------------------------------------
# Differential check against the Fraction-pair reference, and the canonical
# form (a + b*w)/d with d > 0 and gcd(a, b, d) == 1
# ---------------------------------------------------------------------------

# unbounded numerators and denominators up to 10**12, for rounding in complex()
wide_scalars = st.builds(fraction_scalar, st.fractions(max_denominator=10**12), st.fractions(max_denominator=10**12))
integers = st.integers(min_value=-50, max_value=50)
operands = st.one_of(scalars, integers)


def _is_canonical(x: Scalar) -> bool:
    return x._d > 0 and math.gcd(x._a, x._b, x._d) == 1


def _reference(value):
    return FractionScalar(*fraction_parts(value)) if isinstance(value, Scalar) else value


def _outcome(thunk):
    try:
        return thunk()
    except ZeroDivisionError as error:
        return type(error)


def _assert_matches(value, expected):
    """value is the Scalar (or exception type) expected is."""
    if isinstance(expected, FractionScalar):
        assert isinstance(value, Scalar) and _is_canonical(value)
        assert fraction_parts(value) == (expected.rational_part, expected.zeta_part)
    else:
        assert value == expected and type(value) is type(expected)


BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)


@given(st.one_of(scalars, wide_scalars), st.one_of(operands, wide_scalars), st.sampled_from(BINARY))
def test_binary_operations_match_reference(x, y, op):
    _assert_matches(_outcome(lambda: op(x, y)), _outcome(lambda: op(_reference(x), _reference(y))))


@given(scalars, integers, st.sampled_from(BINARY))
def test_reflected_operations_match_reference(x, y, op):
    _assert_matches(_outcome(lambda: op(y, x)), _outcome(lambda: op(y, _reference(x))))


@given(scalars, st.sampled_from((0, Scalar.zero())))
def test_division_by_zero_raises_like_reference(x, zero):
    assert _outcome(lambda: x / zero) is ZeroDivisionError
    assert _outcome(lambda: _reference(x) / _reference(zero)) is ZeroDivisionError
    assert _outcome(lambda: x / (x - x)) is ZeroDivisionError
    assert _outcome(lambda: 1 / (x - x)) is ZeroDivisionError


@given(st.one_of(scalars, wide_scalars), st.sampled_from(("neg", "inverse")))
def test_unary_operations_match_reference(x, name):
    def apply(value):
        return -value if name == "neg" else getattr(value, name)()

    _assert_matches(_outcome(lambda: apply(x)), _outcome(lambda: apply(_reference(x))))


@given(scalar_strategy(bound=6, max_denominator=4), st.integers(min_value=-5, max_value=8))
@example(Scalar.zero(), 0)
@example(Scalar.zero(), -1)
def test_power_matches_reference(x, n):
    _assert_matches(_outcome(lambda: x ** n), _outcome(lambda: _reference(x) ** n))


@given(st.one_of(scalars, wide_scalars))
def test_formatting_order_and_complex_match_reference(x):
    ref = _reference(x)
    assert str(x) == str(ref)
    assert x.sort_key() == ref.sort_key()
    assert complex(x) == complex(ref)  # bit for bit


_literal_parts = st.tuples(st.integers(min_value=-60, max_value=60), st.integers(min_value=0, max_value=12))


@given(_literal_parts, _literal_parts, st.sampled_from(("rat", "zet0", "both")))
def test_parse_matches_reference(p, q, form):
    def literal(num_den):
        num, den = num_den
        return str(num) if den == 1 else f"{num}/{den}"

    text = {"rat": literal(p), "zet0": f"{literal(q)}*w", "both": f"{literal(p)}+{literal(q)}*w"}[form]
    try:
        expected = FractionScalar.parse(text)
    except DegenerateInput:  # a zero denominator
        with pytest.raises(DegenerateInput):
            Scalar.parse(text)
        return
    _assert_matches(Scalar.parse(text), expected)


# Digit strings of 1 to 4400 digits, leading zeros included, and some just
# below, at and past the 4300-digit limit of int().
_DIGITS = st.one_of(
    st.text("0123456789", min_size=1, max_size=5),
    st.builds(str.__mul__, st.sampled_from("0123456789"), st.integers(min_value=1, max_value=4400)),
    st.builds(lambda head, n: head + "9" * n, st.text("0123", min_size=1, max_size=2), st.sampled_from((4298, 4299, 4300))),
)
_PART = st.builds(
    lambda sign, num, den: sign + num + ("" if den is None else "/" + den),
    st.sampled_from(("", "-")),
    _DIGITS,
    st.one_of(st.none(), st.just("0"), _DIGITS),
)
_LITERAL_TEXT = st.one_of(
    st.builds(
        lambda pad, form, p, q: pad + {"rat": p, "zet0": f"{q}*w", "both": f"{p}+{q}*w"}[form] + pad,
        st.sampled_from(("", " ", "\t ")),
        st.sampled_from(("rat", "zet0", "both")),
        _PART,
        _PART,
    ),
    st.text("0123456789/-+*w ", max_size=8),
)


def _parsed(parse, text: str):
    """The parsed value as (rational part, zeta part), or the refusal's message."""
    try:
        value = parse(text)
    except DegenerateInput as error:
        return str(error)
    value = _reference(value)
    return value.rational_part, value.zeta_part


@given(_LITERAL_TEXT)
@settings(max_examples=150)
@example("4/6+-0/021*w")
@example("9" * 4301 + "/0")
@example("1/0+" + "9" * 4301 + "*w")
@example(" -007/0+1*w")
def test_parse_matches_fraction_reference_on_the_literal_grammar(text):
    # the same value, or the same DegenerateInput message: a digit-limit
    # error comes before the zero denominator behind it, as in Fraction
    assert _parsed(Scalar.parse, text) == _parsed(FractionScalar.parse, text)
    try:
        assert _is_canonical(Scalar.parse(text))
    except DegenerateInput:
        pass


# Near misses of the grammar: a literal with one character inserted,
# replaced or deleted, the new one drawn from the literal alphabet, other
# ASCII and Unicode digits, signs, separators and whitespace.
_NEAR = "0123456789/-+*w W_.e,()\n\t\x00\u0663\u00b2\uff11\u2028"


@st.composite
def _near_misses(draw):
    text = draw(_LITERAL_TEXT.filter(lambda t: len(t) < 40))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(text)))
        c = draw(st.sampled_from(_NEAR))
        text = draw(st.sampled_from((text[:i] + c + text[i:], text[:i] + c + text[i + 1:], text[:i] + text[i + 1:])))
    return text


@given(_near_misses())
@settings(max_examples=300)
@example("1/2+3*w*w")
@example("+1*w")
@example("1+*w")
@example("\u0663/4")
@example("1_0")
@example("1/2/3")
@example("1*w\n")
@example("-")
@example("*w")
def test_hand_parser_matches_the_reference_grammar_on_near_misses(text):
    # Scalar.parse reads by hand what oracles.scalars.LITERAL matches: the
    # same texts accepted, with the same values, and the same messages
    assert _parsed(Scalar.parse, text) == _parsed(FractionScalar.parse, text)


@st.composite
def _spellings(draw):
    """A literal of a value drawn as parts n/d, each spelled canonically or
    not: leading zeros, a scale on both terms, /1, -0, a zero part written
    out, and whitespace around it."""

    def part(n, d):
        k = draw(st.sampled_from((1, 1, 2, 3)))
        sign = "-" if n < 0 or (n == 0 and draw(st.booleans())) else ""
        text = sign + "0" * draw(st.sampled_from((0, 0, 1, 2))) + str(abs(n) * k)
        if d * k != 1 or draw(st.booleans()):
            text += "/" + "0" * draw(st.sampled_from((0, 0, 1))) + str(d * k)
        return text

    p, z = (draw(st.integers(min_value=-40, max_value=40)) for _ in range(2))
    q, s = (draw(st.integers(min_value=1, max_value=12)) for _ in range(2))
    form = draw(st.sampled_from(("rat", "zet0", "both")))
    literal = {"rat": part(p, q), "zet0": f"{part(z, s)}*w", "both": f"{part(p, q)}+{part(z, s)}*w"}[form]
    return draw(st.sampled_from(("", " ", "\t"))) + literal + draw(st.sampled_from(("", " ")))


@given(_spellings())
@settings(max_examples=300)
@example("2/4")
@example("007")
@example("-0+1*w")
@example("0*w")
@example("5+0*w")
@example("0/3")
@example("-5/1")
@example(" -1/6+7/4*w")
def test_a_parsed_literal_prints_as_its_value(text):
    # str() of the parse is the text _make's value formats afresh, and the
    # parse keeps no text until it is printed
    value = Scalar.parse(text)
    kept = value._text
    fresh = _make(*_triple(value))
    assert str(value) == str(fresh)
    assert kept is None


def test_equal_values_are_equal_and_hash_alike_however_built():
    half = ratio_scalar(1, 2, 0, 1)
    for other in (ratio_scalar(2, 4, 0, 1), Scalar.parse("1/2"), Scalar.one() / 2, Scalar.of(3) / 6,
                  Scalar.one() / -2 * -1, ratio_scalar(3, 2, 0, 1) - 1):
        assert other == half and hash(other) == hash(half) and _is_canonical(other)
    assert (half._a, half._b, half._d) == (1, 0, 2)
    assert (Scalar.one() / -2)._d == 2
    zero = ratio_scalar(0, 7, 0, 1)
    assert zero == Scalar.zero() and (zero._a, zero._b, zero._d) == (0, 0, 1)
    mixed = ratio_scalar(1, 6, -3, 4)
    assert (mixed._a, mixed._b, mixed._d) == (2, -9, 12)


def _fresh_literal(x: Scalar) -> str:
    """The literal of x's triple, formatted with Fraction."""
    a, b, d = x.sort_key()
    rational, zeta = str(Fraction(a, d)), f"{Fraction(b, d)}*w"
    if not b:
        return rational
    return zeta if not a else f"{rational}+{zeta}"


BUILDERS = {
    "add": lambda x, y: x + y,
    "radd": lambda x, y: 3 + x,
    "sub": lambda x, y: x - y,
    "rsub": lambda x, y: 2 - x,
    "mul": lambda x, y: x * y,
    "rmul": lambda x, y: -2 * x,
    "truediv": lambda x, y: x / y,
    "rtruediv": lambda x, y: 5 / y,
    "neg": lambda x, y: -x,
    "pow": lambda x, y: y**3,
    "inverse": lambda x, y: y.inverse(),
    "of": lambda x, y: Scalar.of(-7),
    "parse": lambda x, y: Scalar.parse(f"{x}"),
    "ratio_scalar": lambda x, y: ratio_scalar(-4, 6, 9, 12),
    "zeta_power": lambda x, y: Scalar.zeta_power(2),
}


@given(scalars, nonzero_scalars, st.sampled_from(sorted(BUILDERS)))
def test_a_scalar_keeps_the_literal_of_its_triple(x, y, how):
    # the fourth slot only remembers the first str(): the text is that of
    # the triple before and after it, and == and hash read the triple alone
    value = BUILDERS[how](x, y)
    twin = _make(*_triple(value))
    assert twin._text is None
    expected = _fresh_literal(value)
    assert str(value) == expected and value._text == expected
    assert str(value) == expected and repr(value) == f"Scalar({expected})"
    assert value == twin and hash(value) == hash(twin) and twin._text is None
    assert str(twin) == expected


@given(scalars, nonzero_scalars)
def test_hash_agrees_with_equality(x, k):
    y = (x * k) / k
    assert y == x and hash(y) == hash(x) and _is_canonical(y)


def test_scalars_compare_only_to_scalars():
    # an operand is a Scalar or an int: a Fraction, like a float, is refused
    one = Scalar.one()
    assert (one == 1) is False
    assert one != 1
    assert one != Fraction(1)
    for bad in (1.0, "1", None, Fraction(1), Fraction(1, 2)):
        with pytest.raises(TypeError):
            Scalar.of(bad)
        for operation in BINARY:
            with pytest.raises(TypeError):
                operation(one, bad)
            with pytest.raises(TypeError):
                operation(bad, one)
    with pytest.raises(TypeError):  # no constructor from parts
        Scalar(1, 2)
    with pytest.raises(TypeError):  # nor an empty value
        Scalar()


class Reflecting:
    """A foreign operand that answers each reflected operator with its name."""

    def __radd__(self, other):
        return "__radd__"

    def __rsub__(self, other):
        return "__rsub__"

    def __rmul__(self, other):
        return "__rmul__"

    def __rtruediv__(self, other):
        return "__rtruediv__"


@pytest.mark.parametrize(
    "operation, name",
    [(operator.add, "__radd__"), (operator.sub, "__rsub__"), (operator.mul, "__rmul__"), (operator.truediv, "__rtruediv__")],
)
def test_foreign_operands_reach_their_reflected_methods(operation, name):
    # every operator refuses an operand it cannot read exactly with
    # NotImplemented, so Python asks the operand's reflected method
    assert operation(Scalar.one(), Reflecting()) == name

