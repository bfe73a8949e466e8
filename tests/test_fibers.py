import warnings

import numpy as np
import pytest

from sigcone.fibers import (
    BumpExpansion,
    BumpFunction,
    BumpTerm,
    FiberSpace,
    MonotoneMap,
    Weighted1D,
    bump_values,
    fiber_inner,
    fiber_norm,
    normalized,
    product_bump,
    pushforward_product_check,
)
from sigcone.gamma import InvariantMeasure, SignatureSpec
from sigcone.quadrature import QuadConfig, quad_1d

QUAD = QuadConfig(48)
MEAS = InvariantMeasure(SignatureSpec(1, 0), 1.0)


def where_bump(centers, widths, u):
    """The bump evaluated everywhere and kept where |t| < 1."""
    t = (u - centers) / widths
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        return np.where(np.abs(t) < 1.0, np.exp(-1.0 / (1.0 - t**2)), 0.0)


def test_bump_values_equal_the_where_formula_bit_for_bit():
    rng = np.random.default_rng(5)
    edge = np.array([1.0, -1.0])
    special = np.concatenate([
        np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2 * edge),  # |t| = 1 - ulp, 1, 1 + ulp
        np.linspace(0.9990, 0.9996, 401),  # exp(-1/(1-t^2)) underflows to subnormals, then 0
        rng.uniform(-1.5, 1.5, 400),
    ])
    with np.errstate(under="ignore"):
        assert np.any(where_bump(0.0, 1.0, special[6:407]) == 0.0)
    n = 2000
    cases = [
        (0.0, 1.0, special),
        (0.3, 0.7, rng.uniform(-1.0, 1.5, n)),
        (rng.uniform(-1.0, 1.0, n), rng.uniform(0.1, 2.0, n), rng.uniform(-3.0, 3.0, n)),
        (rng.uniform(-1.0, 1.0, (9, 1)), rng.uniform(0.1, 2.0, (9, 1)), rng.uniform(-3.0, 3.0, (1, 50))),
    ]
    for centers, widths, u in cases:
        u.setflags(write=False)  # the caller's points are never written
        before = u.copy()
        got = bump_values(centers, widths, u)
        want = where_bump(centers, widths, u)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert np.array_equal(u, before)


def test_bump_function_shape():
    b = BumpFunction(3.0, 1.0)
    assert (b.lo, b.hi) == (2.0, 4.0)
    u = np.linspace(1.0, 5.0, 41)
    v = b(u)
    assert np.all(v >= 0) and np.max(v) <= np.exp(-1.0) + 1e-15
    assert np.all(v[(u <= 2.0) | (u >= 4.0)] == 0.0)
    assert b(np.array([3.0]))[0] == np.exp(-1.0)
    with pytest.raises(ValueError):
        BumpFunction(0.0, -1.0)


@pytest.mark.parametrize("center, width", [(float("nan"), 1.0), (float("inf"), 1.0), (0.0, float("inf")),
                                           (0.0, float("nan"))])
def test_bump_function_refuses_non_finite_parameters(center, width):
    with pytest.raises(ValueError, match="finite"):
        BumpFunction(center, width)


def test_expansion_arithmetic_and_call():
    f = product_bump(2.0, [1.0], [0.5]) + product_bump(1j, [2.0], [0.5])
    pts = np.array([[1.0], [2.0], [5.0]])
    vals = f(pts)
    assert vals[0] == 2.0 * np.exp(-1.0)
    assert vals[1] == 1j * np.exp(-1.0)
    assert vals[2] == 0.0
    g = f.scaled(2.0)
    assert np.array_equal(g(pts), 2.0 * vals)
    lo, hi = f.support_box()
    assert lo[0] == 0.5 and hi[0] == 2.5
    assert BumpExpansion(1, ()).support_box() is None


def test_fiber_inner_zero_and_disjoint():
    fiber = FiberSpace(MEAS, 1)
    f = product_bump(1.0, [2.0], [0.5])
    assert fiber_inner(f, BumpExpansion(1, ()), fiber, QUAD) == 0
    far = product_bump(1.0, [9.0], [0.5])
    assert fiber_inner(f, far, fiber, QUAD) == 0


def test_fiber_inner_tensor_factorization():
    # N=2 separable input equals the product of two 1-D weighted quadratures
    fiber = FiberSpace(MEAS, 2)
    a = BumpFunction(1.8, 0.5)
    b = BumpFunction(2.6, 0.7)
    f = BumpExpansion(2, (BumpTerm(1.0, (a, b)),))
    got = fiber_inner(f, f, fiber, QUAD)
    ia = quad_1d(lambda u: a(u) ** 2 / u, a.lo, a.hi, 48)
    ib = quad_1d(lambda u: b(u) ** 2 / u, b.lo, b.hi, 48)
    assert abs(got - ia * ib) < 1e-12 * abs(got)


def test_fiber_inner_block_order_independence(rng):
    fiber = FiberSpace(MEAS, 2)
    a, b = BumpFunction(1.5, 0.4), BumpFunction(2.4, 0.6)
    c, d = BumpFunction(1.7, 0.5), BumpFunction(2.1, 0.5)
    f1 = BumpExpansion(2, (BumpTerm(1.0 + 0.5j, (a, b)),))
    f2 = BumpExpansion(2, (BumpTerm(0.7, (c, d)),))
    swapped1 = BumpExpansion(2, (BumpTerm(1.0 + 0.5j, (b, a)),))
    swapped2 = BumpExpansion(2, (BumpTerm(0.7, (d, c)),))
    v = fiber_inner(f1, f2, fiber, QUAD)
    w = fiber_inner(swapped1, swapped2, fiber, QUAD)
    assert abs(v - w) < 1e-10 * max(abs(v), 1e-30)


def test_fiber_inner_sesquilinear_and_positive(rng):
    fiber = FiberSpace(MEAS, 1)
    f = product_bump(0.8 - 0.1j, [2.0], [0.6])
    g1 = product_bump(1.1, [1.8], [0.5])
    g2 = product_bump(0.4 + 0.9j, [2.3], [0.6])
    z1, z2 = 0.3 - 1.1j, -0.7 + 0.2j
    lhs = fiber_inner(f, g1.scaled(z1) + g2.scaled(z2), fiber, QUAD)
    rhs = z1 * fiber_inner(f, g1, fiber, QUAD) + z2 * fiber_inner(f, g2, fiber, QUAD)
    assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1e-30)
    assert fiber_inner(f, f, fiber, QUAD).real > 0
    assert abs(fiber_inner(f, f, fiber, QUAD).imag) < 1e-16
    z = f + f.scaled(-1.0)
    assert fiber_norm(z, fiber, QUAD) < 1e-12


def test_fiber_inner_dimension_mismatch():
    fiber = FiberSpace(MEAS, 2)
    with pytest.raises(ValueError):
        fiber_inner(product_bump(1.0, [2.0], [0.5]), product_bump(1.0, [2.0], [0.5]), fiber, QUAD)


def test_fiber_inner_support_violation():
    from sigcone.gamma import SupportError

    fiber = FiberSpace(MEAS, 1)
    crossing = product_bump(1.0, [0.5], [0.6])  # support reaches below zero
    with pytest.raises(SupportError):
        fiber_inner(crossing, crossing, fiber, QUAD)


def test_fiber_inner_support_violation_n2():
    from sigcone.gamma import SupportError, integrate_gamma

    meas = InvariantMeasure(SignatureSpec(2, 0), 1.0)
    # a, c in (0.6, 1.4) and b in (0.5, 1.3): det = ac - b^2 changes sign
    crossing = product_bump(1.0, [1.0, 0.9, 1.0], [0.4, 0.4, 0.4])
    with pytest.raises(SupportError):
        integrate_gamma(crossing, meas, QUAD)
    with pytest.raises(SupportError):
        fiber_inner(crossing, crossing, FiberSpace(meas, 1), QUAD)


def test_normalized():
    fiber = FiberSpace(MEAS, 1)
    f = normalized(product_bump(3.0, [2.0], [0.5]), fiber, QUAD)
    assert abs(fiber_norm(f, fiber, QUAD) - 1.0) < 1e-12


def test_monotone_map_validation():
    with pytest.raises(ValueError):
        MonotoneMap("affine", (0.0, 1.0))
    with pytest.raises(ValueError):
        MonotoneMap("cube")
    m = MonotoneMap("square")
    x = np.array([0.5, 2.0])
    assert np.allclose(m.inverse(m(x)), x)
    assert np.allclose(m.inverse_deriv(m(x)), 1.0 / m.deriv(x))


@pytest.mark.parametrize(
    "make, args",
    [
        (MonotoneMap, ("affine", (1.0, np.nan))),
        (MonotoneMap, ("affine", (np.inf, 0.0))),
        (Weighted1D, ("gaussian",)),
        (Weighted1D, ("reciprocal", 0.0)),
        (Weighted1D, ("lebesgue", -1.0)),
        (Weighted1D, ("reciprocal", np.nan)),
        (Weighted1D, ("lebesgue", np.inf)),
    ],
    ids=["affine-nan-shift", "affine-inf-slope", "unknown-tag", "zero-scale", "negative-scale", "nan-scale", "inf-scale"],
)
def test_maps_and_measures_refuse_bad_parameters_when_built(make, args):
    with pytest.raises(ValueError):
        make(*args)


def test_pushforward_identity_pair_is_exact():
    h = product_bump(1.0, [1.5, 2.0], [0.5, 0.6])
    rep = pushforward_product_check(
        MonotoneMap("identity"), MonotoneMap("identity"), h,
        Weighted1D("lebesgue"), Weighted1D("lebesgue"), QUAD,
    )
    assert rep.rel_err == 0.0


def test_pushforward_scale_square_case():
    # the two sides use unrelated node sets; agreement is the measure identity
    h = product_bump(1.0, [1.5, 1.5], [0.6, 0.6])
    rep = pushforward_product_check(
        MonotoneMap("affine", (2.0, 0.0)), MonotoneMap("square"), h,
        Weighted1D("reciprocal", 1.0), Weighted1D("reciprocal", 1.0), QUAD,
    )
    assert rep.rel_err < 1e-7


@pytest.mark.parametrize("square_first", [True, False])
def test_pushforward_refuses_a_support_outside_the_square_image(square_first):
    # the first factor's support [-0.3, 0.9] reaches below the image (0, inf) of x -> x^2
    maps = [MonotoneMap("square"), MonotoneMap("identity")]
    h = product_bump(1.0, [0.3, 1.5], [0.6, 0.6])
    if not square_first:
        maps.reverse()
        h = product_bump(1.0, [1.5, 0.3], [0.6, 0.6])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="image"):
            pushforward_product_check(*maps, h, Weighted1D("lebesgue"), Weighted1D("reciprocal"), QUAD)


def test_pushforward_shift_factorizes():
    a, b = BumpFunction(2.1, 0.5), BumpFunction(1.4, 0.4)
    h = BumpExpansion(2, (BumpTerm(1.0, (a, b)),))
    rep = pushforward_product_check(
        MonotoneMap("affine", (1.0, 1.0)), MonotoneMap("identity"), h,
        Weighted1D("lebesgue"), Weighted1D("reciprocal", 1.0), QUAD,
    )
    # independent factorized oracle
    ia = quad_1d(lambda u: a(u), a.lo, a.hi, 48)  # image density of Lebesgue is Lebesgue
    ib = quad_1d(lambda u: b(u) / u, b.lo, b.hi, 48)
    assert abs(rep.lhs - ia * ib) < 1e-9 * abs(ia * ib)
    assert rep.rel_err < 1e-9
