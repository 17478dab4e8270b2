from trigonal4.canonical_ideal import (
    CUBIC_MONOMIALS,
    QUADRIC_MONOMIALS,
    canonical_cubic,
    schiffer_test,
    sym2_relation,
)
from trigonal4.curve import BranchPoint, FinitePoint, InfinityPoint
from trigonal4.linalg import Matrix
from trigonal4.prng import SplitMix64, sample_params
from trigonal4.report import form_json
from trigonal4.scalars import Scalar

from oracles.canonical_ideal import SYM2_FIBERS, SYM3_FIBERS, _evaluation_kernel, coefficient, quadric_matrix, sample_fiber_xs
from oracles.curve import canonical_map
from oracles.linalg import rank, row_space_rref
from oracles.polynomials import from_roots


def expected_cubic_coefficients(params):
    """Closed form derived from the affine equation: z0**3 equals the
    homogenized branch polynomial, reduced along z1*z3 -> z2**2."""
    q = from_roots(params.branch_x).coefficients
    expect = {
        (3, 0, 0, 0): Scalar.one(),
        (0, 3, 0, 0): -q[0],
        (0, 2, 1, 0): -q[1],
        (0, 1, 2, 0): -q[2],
        (0, 0, 3, 0): -q[3],
        (0, 0, 2, 1): -q[4],
        (0, 0, 1, 2): -q[5],
        (0, 0, 0, 3): -q[6],
    }
    return expect


def test_quadric_is_the_cone(u023):
    q = sym2_relation(u023)
    assert coefficient(q, (0, 0, 2, 0)) == Scalar.one()
    assert coefficient(q, (0, 1, 0, 1)) == Scalar.of(-1)
    others = [m for m in QUADRIC_MONOMIALS if m not in ((0, 0, 2, 0), (0, 1, 0, 1))]
    assert all(not coefficient(q, m) for m in others)
    # rank-3 cone with vertex [1:0:0:0]
    assert rank(quadric_matrix(q)) == 3
    assert not q.evaluate((1, 0, 0, 0))


def test_closed_forms_match_sampled_fibers():
    # evaluation at sampled trigonal fibers is the independent oracle: the
    # closed quadric spans its 1-dimensional quadric kernel, and the closed
    # cubic lies in its 5-dimensional cubic kernel
    rng = SplitMix64(20260804)
    for _ in range(3):
        params = sample_params(rng)
        quadrics = _evaluation_kernel(params, QUADRIC_MONOMIALS, SYM2_FIBERS, 0)
        assert len(quadrics) == 1
        assert row_space_rref(quadrics) == row_space_rref([sym2_relation(params).coefficients])
        cubics = _evaluation_kernel(params, CUBIC_MONOMIALS, SYM3_FIBERS, 0)
        assert len(cubics) == 5
        assert row_space_rref(cubics) == row_space_rref(cubics + [canonical_cubic(params).coefficients])


def test_closed_forms_build_no_kernel(monkeypatch, u023, u248):
    # both forms are read off Q: with the caches cleared and every kernel
    # refused, they still come out
    def refuse(self):
        raise AssertionError("a closed form of the canonical ideal computed a kernel")

    monkeypatch.setattr(Matrix, "kernel_basis", refuse)
    sym2_relation.cache_clear()
    canonical_cubic.cache_clear()
    for params in (u023, u248):
        assert form_json(sym2_relation(params)) == {"z1*z3": "-1", "z2^2": "1"}
        assert coefficient(canonical_cubic(params), (3, 0, 0, 0)) == Scalar.one()


def test_cubic_matches_affine_closed_form(u023, u248):
    for params in (u023, u248):
        cubic = canonical_cubic(params)
        expect = expected_cubic_coefficients(params)
        for m in CUBIC_MONOMIALS:
            assert coefficient(cubic, m) == expect.get(m, Scalar.zero()), m


def test_cubic_vanishes_on_curve_and_not_at_vertex(u023):
    cubic = canonical_cubic(u023)
    points = [BranchPoint(b) for b in u023.branch_x]
    points += [InfinityPoint(s) for s in range(3)]
    for p in points:
        assert not cubic.evaluate(canonical_map(u023, p))
    assert cubic.evaluate((1, 0, 0, 0)) == Scalar.one()


def test_cubic_not_a_quadric_multiple(u023):
    # no monomial divisible by z1*z3 survives reduction, and the form is nonzero
    cubic = canonical_cubic(u023)
    for m in CUBIC_MONOMIALS:
        if m[1] >= 1 and m[3] >= 1:
            assert not coefficient(cubic, m)
    assert any(coefficient(cubic, m) for m in CUBIC_MONOMIALS)


def test_sample_fiber_disjointness(u023):
    first = sample_fiber_xs(u023, 12, 0)
    second = sample_fiber_xs(u023, 12, 12)
    assert not (set(s.sort_key() for s in first) & set(s.sort_key() for s in second))
    assert all(not u023.is_branch_x(x) for x in first + second)


def test_schiffer_examples(u023, u248):
    assert schiffer_test(u023, canonical_map(u023, BranchPoint(Scalar.zero())))
    assert schiffer_test(u023, canonical_map(u023, InfinityPoint(2)))
    assert schiffer_test(u248, canonical_map(u248, FinitePoint(Scalar.zero(), Scalar.of(4))))
    assert not schiffer_test(u023, (0, 1, 0, 1))  # quadric value -1
    assert not schiffer_test(u023, (1, 0, 0, 0))  # cone vertex, cubic value 1
    # projective invariance
    z = canonical_map(u023, BranchPoint(Scalar.of(2)))
    scaled = tuple(c * Scalar.of(-7) for c in z)
    assert schiffer_test(u023, scaled)


def test_ideal_separates_off_curve_points(u023):
    quadric = sym2_relation(u023)
    cubic = canonical_cubic(u023)
    # a deterministic sweep of off-curve points: at least one form nonzero
    count = 0
    for a in range(-2, 3):
        for b in range(-2, 3):
            v = (Scalar.of(a), Scalar.of(b), Scalar.of(a + 1), Scalar.of(b - 1))
            if not any(v):
                continue
            if quadric.evaluate(v) or cubic.evaluate(v):
                count += 1
            else:
                # the point claims to be on the canonical curve: verify the
                # affine equation z0**3 = Q(z2/z1) * z1**3 at z1 = 1 scaling
                assert not quadric.evaluate(v) and not cubic.evaluate(v)
    assert count >= 20
