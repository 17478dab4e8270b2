"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; the exact criteria admit no tolerance at
all, and the single numeric criterion uses 1e-8 relative error.
"""

import functools
import io
import json
import time

import pytest

from trigonal4.canonical_ideal import canonical_cubic, sym2_relation
from trigonal4.cli import main
from trigonal4.curve import BranchPoint, Differential, Divisor, InfinityPoint, divisor_of, trigonal_fiber, validate_params
from trigonal4.deformation import TangentVector, cone_directions, delta_nu_c_test, pairing_matrix, residue_matrix
from trigonal4.linalg import Matrix
from trigonal4.numeric import numeric_residue_matrix, residue_relative_error
from trigonal4.prng import SplitMix64, sample_params, sample_scalar, sample_tangent
from trigonal4.qz24 import probe_at
from trigonal4.rulings import d0_cycle, principal_witness, relation_t2, ruling_parameter_x
from trigonal4.scalars import INFINITY, Scalar

from oracles.canonical_ideal import CUBIC_MONOMIALS, QUADRIC_MONOMIALS, _evaluation_kernel, dense
from oracles.curve import OMEGA, canonical_map, common_zeros_by_divisors, divisor_of_function, same_divisor, subtract
from oracles.deformation import kernel_forms, product_differential, support_test, xi_functional
from oracles.linalg import row_space_rref, same_subspace
from oracles.polynomials import q_poly
from oracles.rulings import witness_function

SEED = 20260800


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                extra = fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {description}")
                raise
            suffix = f" [{extra}]" if extra else ""
            print(f"PASS criterion {number}: {description}{suffix}")

        return wrapper

    return decorate


@criterion(1, "residue oracle reproduces 1/Q'(u_j) with one global sign; mixed-zero entries vanish")
def test_criterion_1_residue_reproduction():
    started = time.perf_counter()
    rng = SplitMix64(SEED + 1)
    zero_entries = [(0, 0)] + [(l, k) for l in (1, 2, 3) for k in (1, 2, 3)]
    signs = set()
    for _ in range(20):
        params = sample_params(rng)
        for j in (1, 2, 3):
            table = residue_matrix(params, j)
            eps = table[0][1] * params.qprime_at(params.u[j - 1])
            signs.add(eps.sort_key())
            for (l, k) in zero_entries:
                assert table[l][k] == Scalar.zero()
    assert signs == {Scalar.one().sort_key()}
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    return f"20 parameter points, 3 directions each, {elapsed:.2f}s"


@criterion(2, "pairing-matrix kernel equals the covector kernel; deformation rank is 2")
def test_criterion_2_kernel_consistency():
    rng = SplitMix64(SEED + 2)
    for _ in range(50):
        params = sample_params(rng)
        xi = sample_tangent(rng)
        cert = delta_nu_c_test(params, xi)
        assert cert.rank == 2
        matrix_kernel = Matrix(pairing_matrix(params, xi)).kernel_basis()
        assert all(not v[0] for v in matrix_kernel)  # restricted to span(w1,w2,w3)
        restricted = [v[1:] for v in matrix_kernel]
        closed_form = [row[1:] for row in cert.kernel_basis]
        assert same_subspace(restricted, closed_form)
    return "50 seeded (u, xi) pairs, exact subspace equality"


@criterion(3, "covector on the conic iff the base locus is nonempty, with fibers matching")
def test_criterion_3_conic_equivalence():
    rng = SplitMix64(SEED + 3)
    on_conic_checked = 0
    while on_conic_checked < 50:
        params = sample_params(rng)
        specials = [params.u[0], Scalar.one(), Scalar.zero(), INFINITY]
        ts = specials + [sample_scalar(rng, 7, 3) for _ in range(6)]
        for t in ts:
            cert = delta_nu_c_test(params, cone_directions(params, t))
            assert cert.on_conic
            locus = cert.base_locus
            assert locus == trigonal_fiber(params, t)
            assert same_divisor(locus, common_zeros_by_divisors(params, *kernel_forms(cert)))
            assert locus != Divisor.zero()
            on_conic_checked += 1
    for _ in range(50):
        params = sample_params(rng)
        cert = delta_nu_c_test(params, sample_tangent(rng))
        locus = common_zeros_by_divisors(params, *kernel_forms(cert))
        assert cert.on_conic == (locus != Divisor.zero())
        assert same_divisor(cert.base_locus, locus)
    return f"{on_conic_checked} cone directions incl branch and infinity fibers, 50 random, against the divisor oracle"


@criterion(4, "quadric kernel is the cone form; cubic kernel is 5-dim, vanishes on the curve, stable")
def test_criterion_4_canonical_ideal():
    rng = SplitMix64(SEED + 4)
    cone_coeffs = {(0, 0, 2, 0): Scalar.one(), (0, 1, 0, 1): Scalar.of(-1)}
    for _ in range(10):
        params = sample_params(rng)
        quadric = sym2_relation(params)
        for m, c in zip(QUADRIC_MONOMIALS, dense(quadric, QUADRIC_MONOMIALS)):
            assert c == cone_coeffs.get(m, Scalar.zero())
        sym3_kernel = _evaluation_kernel(params, CUBIC_MONOMIALS, 25, 0)
        assert len(sym3_kernel) == 5
        resampled = _evaluation_kernel(params, CUBIC_MONOMIALS, 25, 25)
        assert row_space_rref(sym3_kernel) == row_space_rref(resampled)
        cubic = canonical_cubic(params)
        assert cubic.evaluate((Scalar.one(), Scalar.zero(), Scalar.zero(), Scalar.zero()))
        # 30 curve points: 6 branch + 3 infinity + 7 full fibers
        count = 0
        for b in params.branch_x:
            assert not cubic.evaluate(canonical_map(params, BranchPoint(b)))
            count += 1
        for s in range(3):
            assert not cubic.evaluate(canonical_map(params, InfinityPoint(s)))
            count += 1
        fibers = 0
        n = 2
        while fibers < 7:
            x0 = Scalar.of(n)
            n += 1
            if params.is_branch_x(x0):
                continue
            q0 = q_poly(params).evaluate(x0)
            # evaluate over Q(w)[Y]/(Y**3 - q0): all three components vanish
            components = [Scalar.zero()] * 3
            for m, c in zip(CUBIC_MONOMIALS, dense(cubic, CUBIC_MONOMIALS)):
                if not c:
                    continue
                value = c * x0 ** (m[2] + 2 * m[3]) * q0 ** (m[0] // 3)
                components[m[0] % 3] = components[m[0] % 3] + value
            assert not any(components)
            fibers += 1
            count += 3
        assert count == 30
    return "10 parameter points, 30 curve points each, double-sample stable"


@criterion(5, "support test separates 3*Branch from 1*Branch; the product relation is annihilated")
def test_criterion_5_support():
    params = validate_params(0, 2, 3)
    xi = TangentVector((1, 0, 0))
    d3 = Divisor.of((BranchPoint(Scalar.zero()), 3))
    d1 = Divisor.of((BranchPoint(Scalar.zero()), 1))
    ok3, dim3 = support_test(params, xi, d3)
    ok1, dim1 = support_test(params, xi, d1)
    assert ok3 is True and dim3 == 6
    assert ok1 is False and dim1 == 8
    rng = SplitMix64(SEED + 5)
    relation = product_differential(params, 2, 2) + product_differential(params, 1, 3).scale(-1)
    for _ in range(20):
        xi_rand = sample_tangent(rng)
        assert xi_functional(params, xi_rand, relation) == Scalar.zero()
    return f"dim H0(O2(-3*Branch(0))) = {dim3} of 9; 20 random directions annihilate the relation"


@criterion(6, "tied ruling parameters give equal divisors; violations yield exact witnesses")
def test_criterion_6_rational_triviality():
    rng = SplitMix64(SEED + 6)
    cases = 0
    params = sample_params(rng)
    for t1 in (Scalar.zero(), Scalar.one(), INFINITY):
        cycle = d0_cycle(params, t1)
        assert cycle.plus == cycle.minus and cycle.witness == "trivially equal"
        cases += 1
    while cases < 20:
        params = sample_params(rng)
        draws = [sample_scalar(rng, 8, 3)]
        # a branch-hitting parameter: 1/t + 1 = u_1 picks the branch fiber
        shifted = params.u[0] - Scalar.one()
        if shifted:
            draws.append(shifted.inverse())
        for t1 in draws:
            cycle = d0_cycle(params, t1)
            assert cycle.plus == cycle.minus and cycle.witness == "trivially equal"
            cases += 1
    violations = 0
    while violations < 10:
        params = sample_params(rng)
        t1 = sample_scalar(rng, 8, 3)
        t2 = relation_t2(t1) + Scalar.one()  # deliberately breaks the relation
        x1 = ruling_parameter_x(t1, 1)
        x2 = ruling_parameter_x(t2, 2)
        if x1 is not INFINITY and x2 is not INFINITY and x1 == x2:
            continue
        cycle = d0_cycle(params, t1, t2)
        assert not same_divisor(cycle.plus, cycle.minus)
        assert principal_witness(x1, x2) == cycle.witness
        assert same_divisor(divisor_of_function(params, witness_function(cycle.witness)), subtract(cycle.plus, cycle.minus))
        violations += 1
    return f"{cases} tied pairs incl 0, 1, infinity and branch fibers; {violations} violations"


@criterion(7, "every nonzero 1-form has an effective degree-6 divisor; w0 cuts the branch divisor")
def test_criterion_7_divisor_degrees():
    rng = SplitMix64(SEED + 7)
    for _ in range(5):
        params = sample_params(rng)
        branch_divisor = Divisor.of(*((BranchPoint(b), 1) for b in params.branch_x))
        assert divisor_of(params, OMEGA[0]) == branch_divisor
        for _ in range(10):
            coeffs = [sample_scalar(rng, 6, 3) for _ in range(4)]
            d = Differential(coeffs[0], coeffs[1:])
            if d.is_zero():
                d = Differential(Scalar.one(), coeffs[1:])
            div = divisor_of(params, d)
            assert div.degree == 6
            assert div.is_effective()
    return "5 parameter points, 10 random differentials each"


@criterion(8, "floating contour quadrature matches the exact pairings to 1e-8 relative error")
def test_criterion_8_numeric_oracle():
    started = time.perf_counter()
    params = validate_params(0, 2, 3)
    cases = [(1, 0, 1), (2, 0, 1), (3, 0, 1), (1, 0, 2), (2, 3, 0)]
    tables = {j: residue_matrix(params, j) for j in (1, 2, 3)}
    numeric = {j: numeric_residue_matrix(params, j, nodes=256) for j in (1, 2, 3)}
    worst = 0.0
    for j, l, k in cases:
        worst = max(worst, residue_relative_error(tables[j][l][k], numeric[j][l][k]))
    assert worst < 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    return f"5 cases, worst relative error {worst:.2e}, {elapsed:.2f}s"


@criterion(9, "cube-family covector is (0, 1/(3a(a-1)), 0) with value -1/36 at a = 2, annotated")
def test_criterion_9_cube_family_probe():
    # the printed closed form, proven in generic a by tests/test_closed_forms.py
    zero = Scalar.zero()
    assert probe_at(Scalar.of(2)) == ((zero, Scalar.one() / 6, zero), Scalar.of(-1) / 36)
    out = io.StringIO()
    assert main(["qz24", "--a", "2"], out) == 0
    doc = json.loads(out.getvalue())
    assert doc["covector"] == [{"num": "0", "den": "1"}, {"num": "1/3", "den": "a^2-a"}, {"num": "0", "den": "1"}]
    assert doc["conic_value"] == {"num": "-1/9", "den": "a^4-2*a^3+a^2"}
    assert doc["covector_at_a"] == ["0", "1/6", "0"]
    assert doc["value_at_a"] == "-1/36"
    assert doc["variant"] == "NotOnConic"
    assert doc["open_question"]
    claim_fields = set(doc) - {
        "a", "covector", "conic_value", "variant", "open_question", "tags",
        "covector_at_a", "value_at_a",
    }
    assert not claim_fields  # nothing asserted beyond the computed values
    return "printed closed form, sample value, annotation present"


@criterion(10, "seeded scans are byte-identical and the exit-code contract holds")
def test_criterion_10_determinism_and_exit_codes():
    args = ["scan", "--random", "100", "--seed", "7"]
    first, second = io.StringIO(), io.StringIO()
    assert main(args, first) == 0
    assert main(args, second) == 0
    assert first.getvalue() == second.getvalue()
    rows = [json.loads(line) for line in first.getvalue().strip().splitlines()]
    summary = rows[-1]["summary"]
    # frozen from the exact oracle at this seed; generic directions are off the conic
    assert summary.get("NotOnConic", 0) == 100
    assert summary.get("NotOnConic", 0) >= 90

    sink = io.StringIO()
    assert main(["analyze", "--u", "1,2,3", "--xi", "1,0,0"], sink) == 2
    assert main(["analyze", "--u", "2,2,3", "--xi", "1,0,0"], sink) == 2
    assert main(["analyze", "--u", "0,2,3", "--xi", "0,0,0"], sink) == 3
    assert (
        main(
            [
                "residue-check", "--u", "0,2,3", "--j", "1",
                "--numeric", "--quad-nodes", "64", "--numeric-tolerance", "1e-30",
            ],
            sink,
        )
        == 4
    )
    return "byte-identical 100-row scan (all NotOnConic at seed 7); exits 2, 3, 4 honored"
