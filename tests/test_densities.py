import numpy as np
import pytest

from sigcone.densities import (
    AlphaDensity,
    Basis,
    density_product,
    evaluate,
    lin_comb,
)
from sigcone.fibers import BumpExpansion, FiberSpace, fiber_inner, normalized, product_bump
from sigcone.gamma import InvariantMeasure, SignatureSpec
from sigcone.quadrature import QuadConfig

QUAD = QuadConfig(48)
FIBER = FiberSpace(InvariantMeasure(SignatureSpec(1, 0), 1.0), 1)


def half_density(coeff=1.0, center=2.0, width=0.6):
    return AlphaDensity(0.5, product_bump(coeff, [center], [width]), FIBER)


def test_evaluate_examples():
    w = AlphaDensity(0.5, 3.0 + 1.0j)
    doubled = Basis.from_array(2.0 * np.eye(2))
    assert evaluate(w, doubled) == 2.0 * (3.0 + 1.0j)  # |det| = 4, sqrt = 2
    one = AlphaDensity(1.0, 5.0)
    assert evaluate(one, Basis.from_array(np.eye(2))) == 5.0
    flip = Basis.from_array([[0.0, 1.0], [1.0, 0.0]])  # det = -1
    assert evaluate(w, flip) == w.ref_value


def test_basis_validation():
    with pytest.raises(ValueError):
        Basis.from_array([[1.0, 2.0], [2.0, 4.0]])


def test_lin_comb():
    w = AlphaDensity(1.0, 2.0 + 1.0j)
    zero = AlphaDensity(1.0, 0.0)
    assert lin_comb(1.0, w, 1.0, zero).ref_value == w.ref_value
    assert lin_comb(1.0, w, -1.0, w).ref_value == 0.0
    with pytest.raises(ValueError):
        lin_comb(1.0, w, 1.0, AlphaDensity(0.5, 1.0))


def test_fiber_values_scale_like_scaled():
    w1, w2 = half_density(0.8), half_density(0.3 - 0.7j, 2.3, 0.6)
    e = Basis.from_array(np.diag([2.0, 1.5]))
    z1, z2 = 1.2 - 0.3j, np.complex128(-0.4 + 0.9j)
    got = evaluate(w1, e).terms
    assert [t.coeff for t in got] == [t.coeff for t in w1.ref_value.scaled(abs(e.det()) ** 0.5).terms]
    got = lin_comb(z1, w1, z2, w2).ref_value.terms
    want = (w1.ref_value.scaled(z1) + w2.ref_value.scaled(z2)).terms
    assert [t.coeff for t in got] == [t.coeff for t in want]


def test_scaling_commutes_with_evaluate(rng):
    w = AlphaDensity(0.5, 1.3 - 0.4j)
    for _ in range(20):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        lam = rng.uniform(0.2, 2.0) * np.eye(3) + 0.2 * rng.uniform(-1, 1, (3, 3))
        if abs(np.linalg.det(lam)) < 1e-3:
            continue
        e = Basis.from_array(lam)
        zw = lin_comb(z, w, 0.0, AlphaDensity(0.5, 0.0))
        assert abs(evaluate(zw, e) - z * evaluate(w, e)) < 1e-12 * abs(z * evaluate(w, e) + 1e-30)


def test_two_basis_chain(rng):
    for alpha in (0.5, 1.0, 2.0):
        w = AlphaDensity(alpha, 0.9 + 0.2j)
        for _ in range(30):
            l1 = np.eye(2) + 0.5 * rng.uniform(-1, 1, (2, 2))
            l2 = np.eye(2) + 0.5 * rng.uniform(-1, 1, (2, 2))
            if abs(np.linalg.det(l1)) < 0.1 or abs(np.linalg.det(l2)) < 0.1:
                continue
            lhs = evaluate(w, Basis.from_array(l2 @ l1))
            rhs = abs(np.linalg.det(l2)) ** alpha * evaluate(w, Basis.from_array(l1))
            assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_density_product_zero_and_unit():
    w = half_density()
    zero = AlphaDensity(0.5, BumpExpansion(1, ()), FIBER)
    assert density_product(w, zero, QUAD).ref_value == 0.0
    unit = AlphaDensity(0.5, normalized(product_bump(1.0, [2.0], [0.6]), FIBER, QUAD), FIBER)
    p = density_product(unit, unit, QUAD)
    assert p.alpha == 1.0
    assert abs(p.ref_value - 1.0) < 1e-10


def test_density_product_transforms_with_weight_one(rng):
    w1, w2 = half_density(1.0, 2.0, 0.6), half_density(0.5 + 0.5j, 2.2, 0.7)
    p = density_product(w1, w2, QUAD)
    for _ in range(10):
        lam = np.eye(2) * rng.uniform(0.3, 2.0) + 0.1 * rng.uniform(-1, 1, (2, 2))
        e = Basis.from_array(lam)
        assert abs(evaluate(p, e) - abs(np.linalg.det(lam)) * p.ref_value) < 1e-12 * abs(p.ref_value)


def test_density_product_sesquilinear_and_hermitian(rng):
    w = half_density(0.8)
    w1 = half_density(1.0, 1.8, 0.5)
    w2 = half_density(0.3 - 0.7j, 2.3, 0.6)
    z1, z2 = 1.2 - 0.3j, -0.4 + 0.9j
    lhs = density_product(w, lin_comb(z1, w1, z2, w2), QUAD).ref_value
    rhs = z1 * density_product(w, w1, QUAD).ref_value + z2 * density_product(w, w2, QUAD).ref_value
    assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1e-30)
    p12 = density_product(w1, w2, QUAD).ref_value
    p21 = density_product(w2, w1, QUAD).ref_value
    assert abs(np.conj(p21) - p12) < 1e-14 * max(abs(p12), 1e-30)


def test_density_product_positive_and_null():
    w = half_density(0.7 + 0.1j)
    p = density_product(w, w, QUAD)
    assert p.ref_value.real >= 0 and abs(p.ref_value.imag) < 1e-16
    wz = lin_comb(1.0, w, -1.0, w)
    pz = density_product(wz, wz, QUAD)
    # a vanishing density product forces a vanishing fiber quadrature norm
    assert abs(pz.ref_value) < 1e-12
    assert fiber_inner(wz.ref_value, wz.ref_value, FIBER, QUAD).real < 1e-12


def test_density_product_errors():
    w = half_density()
    with pytest.raises(ValueError):
        density_product(AlphaDensity(1.0, w.ref_value, FIBER), w, QUAD)
    other_fiber = FiberSpace(InvariantMeasure(SignatureSpec(1, 0), 2.0), 1)
    w_other = AlphaDensity(0.5, product_bump(1.0, [2.0], [0.5]), other_fiber)
    with pytest.raises(ValueError):
        density_product(w, w_other, QUAD)
    with pytest.raises(ValueError):
        density_product(AlphaDensity(0.5, 1.0), AlphaDensity(0.5, 1.0), QUAD)
