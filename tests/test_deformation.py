import sys

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, reject, settings

from trigonal4 import deformation
from trigonal4.curve import (
    BranchPoint,
    CurveParams,
    Divisor,
    FiberPoint,
    FinitePoint,
    InfinityPoint,
    trigonal_fiber,
    validate_params,
)
from trigonal4.deformation import (
    NOT_ON_CONIC,
    ON_CONIC_SUPPORTED,
    CeresaCertificate,
    TangentVector,
    bordered,
    cone_directions,
    delta_nu_c_test,
    pairing_covector,
    residue_matrix,
)
from trigonal4.errors import DegenerateInput, InvalidParameters, StructuralError, ZeroTangent
from trigonal4.linalg import Matrix
from trigonal4.numeric import numeric_residue_matrix
from trigonal4.polynomials import UniPoly
from trigonal4.prng import SplitMix64, sample_params, sample_scalar, sample_tangent
from trigonal4.report import divisor_json
from trigonal4.rulings import d0_cycle
from trigonal4.scalars import INFINITY, Scalar, ratio_scalar

import oracles.deformation
from golden.record import U_POINTS
from conftest import apply, direction_with_covector, inverse, scalar_strategy, transpose
from oracles.curve import KDifferential, chart_at, common_zeros_by_divisors, fiber_frame, kdiff_series
from oracles.deformation import (
    kdifferential_coordinates,
    kernel_forms,
    moment_matrix,
    omega2_subspace,
    omega2_vanishing_conditions,
    product_differential,
    support_test,
    xi_functional,
)
from oracles.linalg import rank, same_subspace
from oracles.polynomials import RationalFunction, q_poly
from oracles.series import series_of_rational
from test_base_kernel import wide_literals


def tangent_strategy():
    return st.lists(scalar_strategy(bound=7, max_denominator=3), min_size=3, max_size=3).map(
        TangentVector
    )


# -- pairing matrix and oracle -------------------------------------------------


def test_pairing_entries_examples(u023):
    m = bordered(pairing_covector(u023, TangentVector((1, 0, 0))), Scalar.zero())
    assert m[0][1] == Scalar.of(-1) / 6  # 1/Q'(0)
    assert m[0][2] == Scalar.zero()
    assert m[1][3] == Scalar.zero()
    assert m[0][0] == Scalar.zero()
    # symmetry of the mixed entries
    for k in range(1, 4):
        assert m[0][k] == m[k][0]


@pytest.mark.parametrize("u", U_POINTS)
def test_pairing_tables_share_one_shape(u):
    # The closed form, the exact oracle and the contour all return four row
    # tuples [l][k], so the exact tables compare with plain ==.
    params = validate_params(*(Scalar.parse(p) for p in u.split(",")))
    for j in (1, 2, 3):
        direction = [0, 0, 0]
        direction[j - 1] = 1
        closed = bordered(pairing_covector(params, TangentVector(tuple(direction))), Scalar.zero())
        assert closed == residue_matrix(params, j), j
        numeric = numeric_residue_matrix(params, j, nodes=64)
        for table in (closed, numeric):
            assert type(table) is tuple and len(table) == 4
            assert all(type(row) is tuple and len(row) == 4 for row in table)


# u with parts in Q(w) outside Q: (1+w, 2, 3+w), (0, 2+w, -w), (1-w, 2w, 5)
ZETA_POINTS = tuple(
    tuple(Scalar.parse(c) for c in u.split(",")) for u in ("1+1*w,2,3+1*w", "0,2+1*w,-1*w", "1+-1*w,2*w,5")
)


@given(
    u=st.one_of(
        st.integers(min_value=0, max_value=2**64 - 1).map(lambda seed: sample_params(SplitMix64(seed)).u),
        st.sampled_from(ZETA_POINTS),
        st.tuples(wide_literals(), wide_literals(), wide_literals()),
    )
)
@example(u=(0, 2, 3))
@example(u=ZETA_POINTS[0])
@example(u=ZETA_POINTS[1])
@example(u=ZETA_POINTS[2])
def test_residue_oracle_matches_closed_form_all_entries(u):
    # The leading-order oracle against the closed form, at every entry and
    # for every j.  It gets the parameters without the differences and
    # u_j**3 - 1 that validate_params keeps, so it can only read Q' off the
    # coefficients of Q; tests/test_closed_forms.py proves that its leading
    # terms give the full residue.
    try:
        params = validate_params(*u)
    except InvalidParameters:
        reject()
    bare = CurveParams(params.u, None, None)
    for j in (1, 2, 3):
        direction = TangentVector(tuple(int(i == j) for i in (1, 2, 3)))
        assert residue_matrix(bare, j) == bordered(pairing_covector(params, direction), Scalar.zero()), j


def test_residue_oracle_rejects_a_fourth_parameter(u023):
    for j in (0, 4):
        with pytest.raises(DegenerateInput):
            residue_matrix(u023, j)


# -- rank and kernel -----------------------------------------------------------


def test_ks_rank(u023):
    assert rank(Matrix(bordered(pairing_covector(u023, TangentVector((0, 0, 0))), Scalar.zero()))) == 0
    assert delta_nu_c_test(u023, TangentVector((1, 0, 0))).rank == 2
    assert delta_nu_c_test(u023, TangentVector((1, 1, 1))).rank == 2


@given(tangent_strategy())
@settings(max_examples=20)
def test_ks_rank_two_for_nonzero(u023, xi):
    # the closed-form covector against a . A, summed in Scalar arithmetic
    # over the moment matrix's rows, and the closed-form rank against
    # elimination on the 4x4 matrix bordered by that sum
    rows = moment_matrix(u023).rows
    covector = tuple(sum((aj * row[k] for aj, row in zip(xi.a, rows)), Scalar.zero()) for k in range(3))
    matrix_rank = rank(Matrix(bordered(covector, Scalar.zero())))
    if xi.is_zero():
        assert matrix_rank == 0
    else:
        cert = CeresaCertificate(u023, xi)
        assert cert.covector == covector
        assert cert.rank == delta_nu_c_test(u023, xi).rank == matrix_rank == 2


def test_zero_covector_rejected(u023):
    # the zero direction is the one direction with the zero covector, and the
    # certificate refuses it before computing anything
    zero = TangentVector((0, 0, 0))
    assert not any(pairing_covector(u023, zero))
    with pytest.raises(ZeroTangent):
        CeresaCertificate(u023, zero)


def test_kernel_W_for_coordinate_directions(u023):
    for j in range(3):
        direction = [0, 0, 0]
        direction[j] = 1
        basis = delta_nu_c_test(u023, TangentVector(tuple(direction))).kernel_basis
        uj = u023.u[j]
        expected = [
            (-uj, Scalar.one(), Scalar.zero()),
            (Scalar.zero(), -uj, Scalar.one()),
        ]
        assert same_subspace([row[1:] for row in basis], expected)


@given(tangent_strategy().filter(lambda t: not t.is_zero()))
@settings(max_examples=20)
def test_kernel_matches_pairing_matrix_nullspace(u023, xi):
    basis = delta_nu_c_test(u023, xi).kernel_basis
    matrix_kernel = Matrix(bordered(pairing_covector(u023, xi), Scalar.zero())).kernel_basis()
    # the full 4x4 null space has b0 = 0 automatically and equals W
    assert all(not row[0] for row in basis)
    assert same_subspace(list(basis), matrix_kernel)


def test_kernel_of_zero_rejected(u023):
    with pytest.raises(ZeroTangent):
        delta_nu_c_test(u023, TangentVector((0, 0, 0)))


# -- conic and base locus --------------------------------------------------------


def test_coordinate_directions_on_conic(u023):
    for j in range(3):
        direction = [0, 0, 0]
        direction[j] = 1
        cert = delta_nu_c_test(u023, TangentVector(tuple(direction)))
        assert cert.on_conic
        # covector proportional to (1, u_j, u_j**2)
        c = cert.covector
        uj = u023.u[j]
        assert c[1] == c[0] * uj and c[2] == c[0] * uj * uj


def test_base_locus_examples(u023):
    for a, expected in (
        ((1, 0, 0), Divisor.of((BranchPoint(Scalar.zero()), 3))),
        ((0, 1, 0), Divisor.of((BranchPoint(Scalar.of(2)), 3))),
        ((1, 1, 1), Divisor.zero()),
    ):
        assert delta_nu_c_test(u023, TangentVector(a)).base_locus == expected


@given(tangent_strategy().filter(lambda t: not t.is_zero()))
@settings(max_examples=25)
def test_conic_iff_base_locus(u023, xi):
    cert = delta_nu_c_test(u023, xi)
    locus = common_zeros_by_divisors(u023, *kernel_forms(cert))
    assert cert.on_conic == (locus != Divisor.zero())
    assert cert.base_locus == locus


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.sampled_from(["random", "branch", "one", "zero", "infinity", "fiber"]),
)
@settings(max_examples=40)
def test_base_locus_matches_divisor_oracle(seed, kind):
    # Closed form against the divisor minimum over the annihilated pencil, at
    # a random direction (almost surely off the conic) or a cone direction
    # over a moving branch point, the fixed branch point 1, t = 0, infinity
    # or a random fiber.
    rng = SplitMix64(seed)
    params = sample_params(rng)
    if kind == "random":
        xi = sample_tangent(rng)
    else:
        t = {
            "branch": params.u[rng.below(3)],
            "one": Scalar.one(),
            "zero": Scalar.zero(),
            "infinity": INFINITY,
            "fiber": sample_scalar(rng),
        }[kind]
        xi = cone_directions(params, t)
    cert = delta_nu_c_test(params, xi)
    locus = cert.base_locus
    oracle = common_zeros_by_divisors(params, *kernel_forms(cert))
    assert locus == oracle
    assert divisor_json(locus) == divisor_json(oracle)


@given(st.one_of(scalar_strategy(bound=9, max_denominator=3), st.just(INFINITY)))
@settings(max_examples=25)
def test_cone_directions_postcondition(u023, t):
    cert = delta_nu_c_test(u023, cone_directions(u023, t))
    assert cert.on_conic
    assert cert.base_locus == trigonal_fiber(u023, t)


def test_cone_direction_at_parameter_is_coordinate(u023):
    xi = cone_directions(u023, Scalar.zero())  # t = u1 = 0
    assert xi.a[1] == Scalar.zero() and xi.a[2] == Scalar.zero() and xi.a[0]


def test_cone_direction_at_infinity_kernel(u023):
    basis = delta_nu_c_test(u023, cone_directions(u023, INFINITY)).kernel_basis
    expected = [
        (Scalar.one(), Scalar.zero(), Scalar.zero()),
        (Scalar.zero(), Scalar.one(), Scalar.zero()),
    ]
    assert same_subspace([row[1:] for row in basis], expected)


# -- functional and support ---------------------------------------------------------


def test_xi_functional_examples(u023):
    xi = TangentVector((1, 0, 0))
    assert xi_functional(u023, xi, product_differential(u023, 0, 1)) == Scalar.of(-1) / 6
    assert xi_functional(u023, xi, product_differential(u023, 1, 1)) == Scalar.zero()
    rel = product_differential(u023, 2, 2) + product_differential(u023, 1, 3).scale(-1)
    assert rel.is_zero()  # the quadric relation holds identically in the model


@given(tangent_strategy().filter(lambda t: not t.is_zero()))
@settings(max_examples=15)
def test_relation_annihilated(u023, xi):
    rel = product_differential(u023, 2, 2) + product_differential(u023, 1, 3).scale(-1)
    assert xi_functional(u023, xi, rel) == Scalar.zero()


def test_support_examples(u023):
    xi = TangentVector((1, 0, 0))
    d3 = Divisor.of((BranchPoint(Scalar.zero()), 3))
    d1 = Divisor.of((BranchPoint(Scalar.zero()), 1))
    ok3, dim3 = support_test(u023, xi, d3)
    ok1, dim1 = support_test(u023, xi, d1)
    assert ok3 is True and dim3 == 6
    assert ok1 is False and dim1 == 8
    assert support_test(u023, xi, Divisor.zero())[0] is False


def _reference_conditions(params, divisor):
    """The support conditions with every basis element realized on its own as
    KDifferential(A/Q, b/Q, C/Q**2) and expanded through its rational
    functions, on charts deeper than any read: a test-only reference for the
    shared 1/Q expansion and for the truncation the library derives."""
    zero, one = Scalar.zero(), Scalar.one()
    q = RationalFunction.of(q_poly(params))
    basis = []
    for idx in range(9):
        coords = [zero] * 9
        coords[idx] = one
        a_part = RationalFunction.of(UniPoly(coords[0:3]))
        b_part = RationalFunction.of(UniPoly((coords[3],)))
        c_part = RationalFunction.of(UniPoly(coords[4:9]))
        basis.append(KDifferential(params, 2, a_part / q, b_part / q, c_part / (q * q)))
    rows = []
    for point, mult in divisor.items_sorted():
        if isinstance(point, FiberPoint):
            frame = fiber_frame(params, point.x, mult + 20)
            w = frame.w_series
            components = [
                (
                    series_of_rational(b.f, frame.x_series),
                    series_of_rational(b.g, frame.x_series) * w,
                    series_of_rational(b.h, frame.x_series) * w * w,
                )
                for b in basis
            ]
            for comp_index in range(3):
                for exponent in range(mult):
                    rows.append(tuple(c[comp_index].coefficient(exponent) for c in components))
        else:
            chart = chart_at(params, point, mult + 20)
            series_list = [kdiff_series(b, chart) for b in basis]
            bound = mult - 2 * chart.dx_valuation
            floor = min(s.valuation() for s in series_list if s.valuation() is not None)
            for exponent in range(floor, bound):
                rows.append(tuple(s.coefficient(exponent) for s in series_list))
    return [row for row in rows if any(row)]


_DIFFERENTIAL_PARAMS = {
    "u023": (0, 2, 3),
    "seeded": sample_params(SplitMix64(20261018)).u,
    "u248": (2, 4, 8),
}


def _differential_cases():
    for name, u in _DIFFERENTIAL_PARAMS.items():
        yield pytest.param(u, Divisor.of((BranchPoint(Scalar.of(u[0])), 3)), id=f"{name}-3branch")
        yield pytest.param(u, Divisor.of(*((InfinityPoint(s), 1) for s in range(3))), id=f"{name}-infinity")
        yield pytest.param(u, Divisor.of((FiberPoint(Scalar.of(5)), 1)), id=f"{name}-fiber5")
        yield pytest.param(u, Divisor.zero(), id=f"{name}-zero")
    # a double fiber also reads the linear terms, where w and w**2 differ
    yield pytest.param((0, 2, 3), Divisor.of((FiberPoint(Scalar.of(5)), 2)), id="u023-2fiber5")
    # Q(0) = 64 at u = (2, 4, 8): a finite point, expanded on the finite chart
    yield pytest.param((2, 4, 8), Divisor.of((FinitePoint(Scalar.zero(), Scalar.of(4)), 2)), id="u248-2point")


@pytest.mark.parametrize("u, divisor", list(_differential_cases()))
def test_support_conditions_match_reference(u, divisor):
    params = validate_params(*u)
    rows = [tuple(row) for row in omega2_vanishing_conditions(params, divisor).rows]
    assert rows == _reference_conditions(params, divisor)


@pytest.mark.parametrize("mult", [1, 2, 3])
def test_support_pad_is_the_least_that_reads(monkeypatch, u023, mult):
    # the branch chart reads deepest; one less than its derived pad fails loudly
    divisor = Divisor.of((BranchPoint(Scalar.zero()), mult))
    monkeypatch.setattr(oracles.deformation, "_SUPPORT_PAD", oracles.deformation._SUPPORT_PAD - 1)
    with pytest.raises((StructuralError, ZeroDivisionError)):
        omega2_vanishing_conditions(u023, divisor)


def test_support_monotone_in_divisor(u023):
    # D' <= D makes the subspace larger, so supported(D') implies supported(D)
    xi = TangentVector((1, 0, 0))
    d3 = Divisor.of((BranchPoint(Scalar.zero()), 3))
    d4 = d3 + Divisor.of((InfinityPoint(0), 1))
    assert support_test(u023, xi, d3)[0]
    assert support_test(u023, xi, d4)[0]


# -- classifier ------------------------------------------------------------------


def test_certificates(u023):
    cert = delta_nu_c_test(u023, TangentVector((1, 0, 0)))
    # the certificate is its parameter point, direction and conic value,
    # and whether that vanishes; the covector is computed on first read, and
    # the rest is read off the two; a variant is its printed name
    assert list(vars(cert)) == ["params", "xi", "conic_value", "on_conic"]
    assert cert.variant == ON_CONIC_SUPPORTED == "OnConicSupported"
    assert "covector" not in vars(cert)
    assert cert.base_locus == Divisor.of((BranchPoint(Scalar.zero()), 3))
    assert vars(cert)["covector"] == pairing_covector(u023, cert.xi)
    assert cert.subspace_dim == 6

    cert = delta_nu_c_test(u023, TangentVector((1, 1, 1)))
    assert cert.variant == NOT_ON_CONIC == "NotOnConic"
    assert cert.base_locus == Divisor.zero()
    assert cert.supported is None

    with pytest.raises(ZeroTangent):
        delta_nu_c_test(u023, TangentVector((0, 0, 0)))


@pytest.mark.parametrize(
    "u, t, expected",
    [
        ((0, 2, 3), 2, Divisor.of((BranchPoint(Scalar.of(2)), 3))),
        ((0, 2, 3), 5, Divisor.of((FiberPoint(Scalar.of(5)), 1))),
        ((0, 2, 3), INFINITY, Divisor.of(*((InfinityPoint(s), 1) for s in range(3)))),
        ((2, 4, 8), 0, Divisor.of((FiberPoint(Scalar.zero()), 1))),
    ],
    ids=["branch-t2", "fiber-t5", "infinity", "fiber-t0-u248"],
)
def test_on_conic_certificates_over_each_fiber_kind(u, t, expected):
    params = validate_params(*u)
    cert = delta_nu_c_test(params, cone_directions(params, t))
    assert cert.variant == ON_CONIC_SUPPORTED
    assert cert.subspace_dim == 6
    assert cert.base_locus == expected


def _closed_fiber_conditions(t) -> list[tuple]:
    """The lemma's conditions for vanishing on the fiber over t, in the
    coordinates (A0, A1, A2, b, C0..C4): A(t) = b = C(t) = 0, or
    A2 = b = C4 = 0 at infinity."""
    zero, one = Scalar.zero(), Scalar.one()
    if t is INFINITY:
        a_row = (zero, zero, one) + (zero,) * 6
        c_row = (zero,) * 8 + (one,)
    else:
        powers = [one]
        for _ in range(4):
            powers.append(powers[-1] * t)
        a_row = tuple(powers[:3]) + (zero,) * 6
        c_row = (zero,) * 4 + tuple(powers)
    b_row = (zero,) * 3 + (one,) + (zero,) * 5
    return [a_row, b_row, c_row]


@pytest.mark.parametrize("kind", ["generic", "rational", "moving-branch", "fixed-branch", "infinity"])
@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=6)
def test_support_lemma_matches_series_oracle(kind, seed):
    # The series support test is the oracle for the closed form that the
    # classifier reads: on the fiber over t the vanishing subspace is cut out
    # by A(t) = b = C(t) = 0 (A2 = b = C4 = 0 at infinity), and the cone
    # direction over t is supported on it with a 6-dimensional subspace.
    rng = SplitMix64(seed)
    params = sample_params(rng)
    w = Scalar.zeta()
    t = {
        "generic": lambda: sample_scalar(rng),
        "rational": lambda: ratio_scalar(rng.integer(-9, 9), rng.integer(1, 4), 0, 1),
        "moving-branch": lambda: params.u[rng.below(3)],
        "fixed-branch": lambda: (Scalar.one(), w, w * w)[rng.below(3)],
        "infinity": lambda: INFINITY,
    }[kind]()
    xi = cone_directions(params, t)
    fiber = trigonal_fiber(params, t)
    assert support_test(params, xi, fiber) == (True, 6)
    closed = Matrix(_closed_fiber_conditions(t)).kernel_basis()
    assert same_subspace(omega2_subspace(params, fiber), closed)
    cert = delta_nu_c_test(params, xi)
    assert (cert.variant, cert.supported, cert.subspace_dim) == (ON_CONIC_SUPPORTED, True, 6)
    assert cert.base_locus == fiber


def refuse_everywhere(monkeypatch, names, message):
    """Make each name raise in every loaded trigonal4 module that binds it.
    Each name must be bound in some module, so that a rename or a move out
    of src/ fails the guard instead of leaving it patching nothing."""

    def refuse(*args, **kwargs):
        raise AssertionError(message)

    patched = set()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "trigonal4":
            for attr in names:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
                    patched.add(attr)
    assert patched == set(names)


def test_on_conic_certificates_build_no_series(monkeypatch, u023):
    # The support of an on-conic certificate is read off the lemma and its
    # base locus off the closed-form fiber: no branch inversion, infinity
    # chart or series of a polynomial is built, at a finite, a branch or
    # the infinity fiber.
    directions = {t: cone_directions(u023, t) for t in (Scalar.of(5), Scalar.of(2), INFINITY)}
    refuse_everywhere(
        monkeypatch,
        ("branch_inversion", "infinity_chart", "series_of_poly"),
        "an on-conic certificate expanded a series",
    )
    for t, xi in directions.items():
        cert = delta_nu_c_test(u023, xi)
        assert cert.variant == ON_CONIC_SUPPORTED
        assert cert.subspace_dim == 6
        assert cert.base_locus == trigonal_fiber(u023, t)


def test_certificates_read_loci_off_closed_forms(monkeypatch, u023):
    # The divisor computations are a test oracle: no certificate and no d0
    # cycle may reach them, and a certificate builds its covector at most
    # once, and only when its base locus is read on the conic.
    refuse_everywhere(monkeypatch, ("divisor_of",), "a production path computed divisors of 1-forms")
    builds = []
    real_pairing_covector = deformation.pairing_covector

    def counted(params, xi):
        builds.append(params)
        return real_pairing_covector(params, xi)

    monkeypatch.setattr(deformation, "pairing_covector", counted)
    for a, expected in (
        ((1, 0, 0), Divisor.of((BranchPoint(Scalar.zero()), 3))),
        ((1, 1, 1), Divisor.zero()),
    ):
        builds.clear()
        cert = delta_nu_c_test(u023, TangentVector(a))
        assert cert.base_locus == expected
        assert len(builds) == (0 if expected == Divisor.zero() else 1)
        assert cert.base_locus == expected and cert.kernel_basis
        assert len(builds) == 1
    tied = d0_cycle(u023, Scalar.of(1) / 4)
    assert tied.plus == tied.minus == trigonal_fiber(u023, Scalar.of(5))
    untied = d0_cycle(u023, Scalar.of(1) / 4, Scalar.of(7))
    assert untied.minus == trigonal_fiber(u023, Scalar.of(6))
    assert untied.witness == "(x-5)/(x-6)"


# -- closed forms of the base against the moment matrix ---------------------------


@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=30)
def test_covector_matches_moment_matrix(seed):
    rng = SplitMix64(seed)
    params = sample_params(rng)
    xi = sample_tangent(rng)
    assert pairing_covector(params, xi) == apply(transpose(moment_matrix(params)), xi.a)


@pytest.mark.parametrize("kind", ["random", "integer", "infinity", "moving-branch"])
@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=10)
def test_cone_directions_match_inverse_oracle(kind, seed):
    # Lagrange interpolation at the nodes u against (A^T)^-1 (1, t, t**2),
    # or (A^T)^-1 (0, 0, 1) at infinity
    rng = SplitMix64(seed)
    params = sample_params(rng)
    t = {
        "random": lambda: sample_scalar(rng),
        "integer": lambda: Scalar.of(rng.integer(-9, 9)),
        "infinity": lambda: INFINITY,
        "moving-branch": lambda: params.u[rng.below(3)],
    }[kind]()
    target = (Scalar.zero(), Scalar.zero(), Scalar.one()) if t is INFINITY else (Scalar.one(), t, t * t)
    oracle = apply(inverse(transpose(moment_matrix(params))), target)
    assert cone_directions(params, t).a == oracle


@pytest.mark.parametrize("leading_zeros", [0, 1, 2])
@given(entries=st.lists(scalar_strategy(bound=7, max_denominator=3), min_size=3, max_size=3))
@settings(max_examples=15)
def test_kernel_of_matches_row_kernel(u023, leading_zeros, entries):
    c = (Scalar.zero(),) * leading_zeros + tuple(entries[leading_zeros:])
    if not c[leading_zeros]:
        c = c[:leading_zeros] + (Scalar.one(),) + c[leading_zeros + 1:]
    cert = CeresaCertificate(u023, direction_with_covector(u023, c))
    assert cert.covector == c
    basis = cert.kernel_basis
    assert [row[1:] for row in basis] == Matrix([c]).kernel_basis()
    assert all(not row[0] for row in basis)


def test_product_map_has_one_dimensional_kernel(u023):
    pairs = [(i, j) for i in range(4) for j in range(i, 4)]
    rows = [kdifferential_coordinates(u023, product_differential(u023, i, j)) for (i, j) in pairs]
    m = Matrix(rows)
    assert rank(m) == 9
    # kernel of the map products -> coordinates: vectors over the 10 pairs
    kernel = Matrix(list(zip(*rows))).kernel_basis()
    assert len(kernel) == 1
    vec = kernel[0]
    nonzero = {pairs[i]: c for i, c in enumerate(vec) if c}
    # the relation is a multiple of w2*w2 - w1*w3
    assert set(nonzero) == {(2, 2), (1, 3)}
    assert nonzero[(2, 2)] == -nonzero[(1, 3)]
