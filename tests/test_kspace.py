import math

import numpy as np
import pytest

from sigcone.configuration import affine, identity, point_set, sine, soft
from sigcone.fibers import FiberSpace, fiber_inner, normalized, product_bump
from sigcone.gamma import InvariantMeasure, SignatureSpec, SupportError
from sigcone.harness import random_point_set, random_section
from sigcone.kspace import (
    SparseSection,
    basis_element,
    graded_k_inner,
    k_inner,
    k_norm,
    k_pullback,
    orthonormal_family,
)
from sigcone.quadrature import QuadConfig

MEAS = InvariantMeasure(SignatureSpec(1, 0), 1.0)
QUAD = QuadConfig(48)


def one_point_section(coord=1.0, center=2.0, width=0.6, coeff=1.0):
    return SparseSection(1, MEAS, ((point_set(coord), product_bump(coeff, [center], [width])),))


def test_section_validation():
    with pytest.raises(ValueError):  # fiber dims must match the block count
        SparseSection(2, MEAS, ((point_set(1.0, 0.0), product_bump(1.0, [2.0], [0.5])),))
    with pytest.raises(ValueError):  # one base dimension only
        SparseSection(1, InvariantMeasure(SignatureSpec(2, 0), 1.0),
                      ((point_set(0.0), product_bump(1.0, [2.0], [0.5])),))
    y = point_set(0.0)
    with pytest.raises(ValueError):
        SparseSection(1, MEAS, ((y, product_bump(1.0, [2.0], [0.5])),) * 2)
    # a fiber box that reaches below 0 is refused when built, not when first paired
    good = (point_set(1.0, 0.0), product_bump(1.0, [2.0, 2.0], [0.5, 0.5]))
    crossing = (point_set(3.0, 2.0), product_bump(1.0, [2.0, 0.5], [0.5, 0.6]))
    SparseSection(2, MEAS, (good,))
    with pytest.raises(SupportError):
        SparseSection(2, MEAS, (good, crossing))


def test_k_inner_disjoint_and_shared():
    s1 = one_point_section(0.0)
    s2 = one_point_section(5.0)
    assert k_inner(s1, s2, QUAD) == 0
    f = product_bump(1.0, [2.0], [0.6])
    shared = SparseSection(1, MEAS, ((point_set(3.0), f),))
    same = SparseSection(1, MEAS, ((point_set(3.0), f), (point_set(7.0), f)))
    got = k_inner(shared, same, QUAD)
    want = fiber_inner(f, f, FiberSpace(MEAS, 1), QUAD)
    assert got == want  # both paths run the identical block quadrature


def test_k_pythagoras_disjoint(rng):
    s1 = random_section(rng, 2, MEAS, [random_point_set(rng, 2)])
    far = SparseSection(
        2, MEAS, tuple((point_set(*(v + 50 for v in y.values)), f) for y, f in s1.entries)
    )
    total = k_inner(s1 + far, s1 + far, QUAD).real
    assert abs(total - k_inner(s1, s1, QUAD).real - k_inner(far, far, QUAD).real) < 1e-12 * total


def test_k_pullback_identity_and_translation():
    s = one_point_section(1.0)
    sid = k_pullback(identity(), s)
    assert sid.support == s.support and k_inner(sid, sid, QUAD) == k_inner(s, s, QUAD)
    moved = k_pullback(affine(1.0, 1.0), s)
    assert moved.support == (point_set(0.0),)
    # unit derivative: fiber values keep their shape and the norm is exact
    assert moved.entries[0][1] == s.entries[0][1]
    assert k_norm(moved, QUAD) == k_norm(s, QUAD)


def test_k_pullback_scaling_preserves_inner():
    s = one_point_section(2.0, center=2.0, width=0.7)
    t = one_point_section(2.0, center=2.3, width=0.5, coeff=0.5 - 0.5j)
    theta = affine(2.0, 0.0)
    a = k_inner(s, t, QUAD)
    b = k_inner(k_pullback(theta, s), k_pullback(theta, t), QUAD)
    assert abs(a - b) < 1e-6 * max(abs(a), 1e-30)
    # support moved to theta^{-1}(2.0) = 1.0 and gamma boxes rescaled by 4
    moved = k_pullback(theta, s)
    assert moved.support == (point_set(1.0),)
    assert moved.entries[0][1].terms[0].factors[0].center == 8.0


@pytest.mark.parametrize("theta", [soft(0.8, 0.9), sine(0.45)])
def test_k_pullback_unitary_on_random_sections(theta, rng):
    pool = [random_point_set(rng, 2) for _ in range(3)]
    s1 = random_section(rng, 2, MEAS, pool)
    s2 = random_section(rng, 2, MEAS, pool[:2])
    a = k_inner(s1, s2, QUAD)
    b = k_inner(k_pullback(theta, s1), k_pullback(theta, s2), QUAD)
    assert abs(a - b) < 1e-6 * max(abs(a), 1e-30)


@pytest.mark.parametrize("theta", [soft(0.8, 0.9), sine(0.45)])
def test_k_pullback_inverts_once_per_section_with_the_per_entry_floats(theta, rng, monkeypatch):
    from sigcone import configuration

    s = random_section(rng, 2, MEAS, [random_point_set(rng, 2) for _ in range(4)])
    want = []
    for y, _ in s.entries:  # reference: one inverse and one derivative call per entry
        x = np.asarray(theta.inverse(np.array(y.values)), float)
        want.append((sorted(x.tolist(), reverse=True), np.asarray(theta.deriv(np.sort(x)[::-1]))))
    calls = []
    newton = configuration._monotone_inverse
    monkeypatch.setattr(configuration, "_monotone_inverse", lambda th, y: calls.append(y.size) or newton(th, y))
    moved = k_pullback(theta, s)
    assert calls == [8]
    for (y, fib), (_, fib_old), (x, d) in zip(moved.entries, s.entries, want, strict=True):
        assert list(y.values) == x
        for t, t_old in zip(fib.terms, fib_old.terms, strict=True):
            assert [f.center for f in t.factors] == (np.array([f.center for f in t_old.factors]) * d**2).tolist()
            assert [f.width for f in t.factors] == (np.array([f.width for f in t_old.factors]) * d**2).tolist()


def test_k_inner_axioms(rng):
    pool = [random_point_set(rng, 1) for _ in range(3)]
    s0 = random_section(rng, 1, MEAS, pool)
    s1 = random_section(rng, 1, MEAS, pool[1:])
    s2 = random_section(rng, 1, MEAS, pool[:2])
    z1, z2 = 0.4 + 0.8j, -1.1 + 0.2j
    lhs = k_inner(s0, s1.scaled(z1) + s2.scaled(z2), QUAD)
    rhs = z1 * k_inner(s0, s1, QUAD) + z2 * k_inner(s0, s2, QUAD)
    assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1e-30)
    assert abs(np.conj(k_inner(s1, s0, QUAD)) - k_inner(s0, s1, QUAD)) < 1e-12
    assert k_inner(s0, s0, QUAD).real >= 0


def test_orthonormal_family_and_basis_elements():
    fiber = FiberSpace(MEAS, 1)
    fam = orthonormal_family(fiber, 3, QUAD)
    for i in range(3):
        for j in range(3):
            want = 1.0 if i == j else 0.0
            assert abs(fiber_inner(fam[i], fam[j], fiber, QUAD) - want) < 1e-9
    y, y2 = point_set(1.0), point_set(2.0)
    e1 = basis_element(y, 0, MEAS, QUAD)
    e2 = basis_element(y, 1, MEAS, QUAD)
    assert abs(k_inner(e1, e2, QUAD)) < 1e-9
    assert abs(k_norm(e1, QUAD) - 1.0) < 1e-9
    assert k_inner(e1, basis_element(y2, 0, MEAS, QUAD), QUAD) == 0
    with pytest.raises(IndexError):
        basis_element(y, 9, MEAS, QUAD)


@pytest.mark.parametrize("spec", [SignatureSpec(1, 0), SignatureSpec(0, 1)], ids=["1-0", "0-1"])
def test_basis_element_is_the_member_of_the_full_family(spec):
    # basis_element builds members 0..index only; Gram-Schmidt is sequential, so they are the same floats
    measure = InvariantMeasure(spec, 1.3)
    y = point_set(1.0, -0.5)
    family = orthonormal_family(FiberSpace(measure, y.n), 4, QUAD)
    for index, member in enumerate(family):
        assert basis_element(y, index, measure, QUAD) == SparseSection(y.n, measure, ((y, member),))
    for index in (-1, 4):
        with pytest.raises(IndexError):
            basis_element(y, index, measure, QUAD)


def test_orthonormal_family_two_blocks():
    fiber = FiberSpace(MEAS, 2)
    fam = orthonormal_family(fiber, 2, QUAD)
    gram = np.array([[fiber_inner(a, b, fiber, QUAD) for b in fam] for a in fam])
    assert np.max(np.abs(gram - np.eye(2))) < 1e-9
    assert all(f.dims == 2 for f in fam)


def test_graded_sections(rng):
    k1 = random_section(rng, 1, MEAS, [random_point_set(rng, 1)])
    k2 = random_section(rng, 2, MEAS, [random_point_set(rng, 2)])
    assert graded_k_inner({1: k1}, {2: k2}, QUAD) == 0
    assert graded_k_inner({1: k1}, {1: k1}, QUAD) == k_inner(k1, k1, QUAD)
    tot = graded_k_inner({1: k1, 2: k2}, {1: k1, 2: k2}, QUAD).real
    assert abs(tot - k_inner(k1, k1, QUAD).real - k_inner(k2, k2, QUAD).real) < 1e-12 * tot
    # a section filed under another block count used to drop out of the sum as 0
    with pytest.raises(ValueError, match="wrong block count"):
        graded_k_inner({1: k2}, {2: k2}, QUAD)


def test_finite_support_approximation():
    # mirror of the density argument: per-point errors 1/(sqrt(2^n) 2m) plus a
    # dropped tail below 1/(2 m^2) keep the total under 1/m
    fiber = FiberSpace(MEAS, 1)
    unit = normalized(product_bump(1.0, [2.0], [0.8]), fiber, QUAD)
    far = normalized(product_bump(1.0, [4.5], [0.7]), fiber, QUAD)
    depth = 24
    pts = [point_set(10.0 - 0.5 * n) for n in range(1, depth + 1)]
    target = SparseSection(
        1, MEAS, tuple((pts[n - 1], unit.scaled(2.0 ** (-n / 2))) for n in range(1, depth + 1))
    )
    for m in (2, 4, 8):
        keep = math.ceil(math.log2(2 * m * m))
        entries = tuple(
            (pts[n - 1], unit.scaled(2.0 ** (-n / 2)) + far.scaled(0.9 / (math.sqrt(2.0**n) * 2 * m)))
            for n in range(1, keep + 1)
        )
        approx = SparseSection(1, MEAS, entries)
        assert k_norm(approx - target, QUAD) < 1.0 / m


def test_summation_order_independence(rng):
    pool = [random_point_set(rng, 1) for _ in range(4)]
    s = random_section(rng, 1, MEAS, pool)
    fiber = s.fiber_space()
    fwd = sum(fiber_inner(f, f, fiber, QUAD) for _, f in s.entries)
    bwd = sum(fiber_inner(f, f, fiber, QUAD) for _, f in reversed(s.entries))
    assert abs(fwd - bwd) < 1e-12 * abs(fwd)
    assert abs(fwd - k_inner(s, s, QUAD)) < 1e-12 * abs(fwd)
