import numpy as np
import pytest
from scipy.integrate import quad as sciquad

from sigcone.configuration import ComposedDiffeo, affine, identity, sine, soft
from sigcone.fibers import BumpFunction
from sigcone.gamma import InvariantMeasure, SignatureSpec
from sigcone.harness import random_state
from sigcone.hspace import (
    GradedState,
    HalfDensityState,
    counterexample_profile,
    fit_divergence,
    graded_inner,
    inner,
    joint_inner,
    lin_comb,
    norm,
    pair_to_density,
    pullback,
    rescale_iso,
)
from sigcone.quadrature import QuadConfig, quad_1d

MEAS = InvariantMeasure(SignatureSpec(1, 0), 1.0)
QUAD = QuadConfig(48)


def simple_state(coeff=1.0, xc=0.0, xw=0.6, gc=2.0, gw=0.7, measure=MEAS):
    return HalfDensityState.separable(
        coeff, [BumpFunction(xc, xw)], [BumpFunction(gc, gw)], measure
    )


def test_state_validation():
    with pytest.raises(ValueError):  # gamma support touching zero
        simple_state(gc=0.5, gw=0.6)
    with pytest.raises(ValueError):  # x boxes must be strictly ordered for N=2
        HalfDensityState.separable(
            1.0, [BumpFunction(0.0, 0.6), BumpFunction(0.5, 0.6)],
            [BumpFunction(2.0, 0.5), BumpFunction(2.0, 0.5)], MEAS,
        )
    with pytest.raises(ValueError):  # base dimension is one
        HalfDensityState.separable(1.0, [BumpFunction(0, 1)], [BumpFunction(2, 0.5)],
                                   InvariantMeasure(SignatureSpec(2, 0), 1.0))


def test_inner_separable_fubini_oracle():
    c = 1.7
    measure = InvariantMeasure(SignatureSpec(1, 0), c)
    s = simple_state(0.8 + 0.3j, measure=measure)
    got = inner(s, s, QUAD)
    a = BumpFunction(0.0, 0.6)
    b = BumpFunction(2.0, 0.7)
    ix, _ = sciquad(lambda u: a(np.array([u]))[0] ** 2, a.lo, a.hi)
    ig, _ = sciquad(lambda u: b(np.array([u]))[0] ** 2 / u, b.lo, b.hi)
    want = abs(0.8 + 0.3j) ** 2 * ix * c * ig
    assert abs(got - want) < 1e-9 * abs(want)
    assert got.real > 0 and abs(got.imag) < 1e-18


def test_inner_disjoint_supports_vanish():
    s1 = simple_state(xc=0.0)
    s2 = simple_state(xc=10.0)
    assert inner(s1, s2, QUAD) == 0
    s3 = simple_state(gc=2.0)
    s4 = simple_state(gc=6.0)
    assert inner(s3, s4, QUAD) == 0


def test_inner_hermitian_and_sesquilinear(rng):
    for n_blocks in (1, 2):
        s1 = random_state(rng, n_blocks, MEAS, 2)
        s2 = random_state(rng, n_blocks, MEAS, 2)
        s3 = random_state(rng, n_blocks, MEAS, 1)
        a = inner(s1, s2, QUAD)
        assert abs(np.conj(inner(s2, s1, QUAD)) - a) < 1e-12 * max(abs(a), 1e-30)
        z1, z2 = 0.8 - 0.4j, -0.3 + 1.1j
        lhs = inner(s1, lin_comb(z1, s2, z2, s3), QUAD)
        rhs = z1 * inner(s1, s2, QUAD) + z2 * inner(s1, s3, QUAD)
        assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1e-30)
        assert inner(s1, s1, QUAD).real > 0


def test_pair_to_density_factorizes():
    c = 2.0
    measure = InvariantMeasure(SignatureSpec(1, 0), c)
    s = simple_state(1.0, measure=measure)
    f = pair_to_density(s, s, QUAD)
    a = BumpFunction(0.0, 0.6)
    b = BumpFunction(2.0, 0.7)
    ig = quad_1d(lambda u: b(u) ** 2 * c / u, b.lo, b.hi, 48)
    for xv in (-0.3, 0.0, 0.4):
        got = f(np.array([[xv]]))[0]
        want = a(np.array([xv]))[0] ** 2 * ig
        assert abs(got - want) < 1e-12 * max(abs(want), 1e-30)
    lo, hi = f.support_box()
    assert lo[0] == -0.6 and hi[0] == 0.6


def test_pair_to_density_zero_cases():
    s = simple_state()
    zero = HalfDensityState(1, MEAS, ())
    f = pair_to_density(s, zero, QUAD)
    assert f.support_box() is None
    assert f.integrate() == 0
    far = simple_state(xc=20.0)
    g = pair_to_density(s, far, QUAD)
    assert g.support_box() is None
    assert np.all(g(np.array([[0.0], [20.0]])) == 0)


def test_pair_density_mismatch_errors():
    s1 = simple_state()
    s2 = HalfDensityState.separable(
        1.0, [BumpFunction(2.0, 0.4), BumpFunction(0.0, 0.4)],
        [BumpFunction(2.0, 0.5), BumpFunction(2.0, 0.5)], MEAS,
    )
    with pytest.raises(ValueError):
        pair_to_density(s1, s2, QUAD)
    other = simple_state(measure=InvariantMeasure(SignatureSpec(1, 0), 3.0))
    with pytest.raises(ValueError):
        inner(s1, other, QUAD)


def test_iterated_equals_density_integration(rng):
    s1 = random_state(rng, 2, MEAS, 2)
    s2 = random_state(rng, 2, MEAS, 2)
    via_density = pair_to_density(s1, s2, QUAD).integrate()
    direct = inner(s1, s2, QUAD)
    assert abs(via_density - direct) < 1e-10 * max(abs(direct), 1e-30)


def test_joint_inner_agrees(rng):
    for n_blocks in (1, 2, 3):
        s1 = random_state(rng, n_blocks, MEAS, 2)
        s2 = random_state(rng, n_blocks, MEAS, 2)
        q = QuadConfig(32)
        a = inner(s1, s2, q)
        b = joint_inner(s1, s2, q)
        assert abs(a - b) < 1e-10 * max(abs(a), 1e-30)


def test_pullback_identity_and_scaling_formula(rng):
    s = simple_state(0.7 - 0.2j)
    sid = pullback(identity(), s)
    xs = rng.uniform(-0.7, 0.7, size=(40, 1))
    gs = rng.uniform(1.2, 2.8, size=(40, 1))
    assert np.allclose(sid.value(xs, gs), s.value(xs, gs), rtol=0, atol=1e-16)
    # theta(x) = 2x: (theta* psi)(x, g) = sqrt(2) psi(2x, g/4)
    s2 = pullback(affine(2.0, 0.0), s)
    lhs = s2.value(xs, gs)
    rhs = np.sqrt(2.0) * s.value(2.0 * xs, gs / 4.0)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(np.max(np.abs(rhs)), 1e-30)


def test_pullback_moves_supports():
    s = simple_state(xc=1.0, xw=0.5, gc=2.0, gw=0.5)
    p = pullback(affine(2.0, 0.0), s)
    xlo, xhi = p.terms[0].x_box()
    assert abs(xlo[0] - 0.25) < 1e-15 and abs(xhi[0] - 0.75) < 1e-15
    glo, ghi = p.terms[0].gamma_box()
    assert abs(glo[0] - 4 * 1.5) < 1e-12 and abs(ghi[0] - 4 * 2.5) < 1e-12


def test_pullback_unitary(rng):
    for theta in (affine(1.6, 0.35), soft(0.8, 0.9), sine(0.45)):
        for n_blocks in (1, 2):
            s1 = random_state(rng, n_blocks, MEAS, 2)
            s2 = random_state(rng, n_blocks, MEAS, 2)
            a = inner(s1, s2, QUAD)
            b = inner(pullback(theta, s1), pullback(theta, s2), QUAD)
            scale = norm(s1, QUAD) * norm(s2, QUAD)
            assert abs(a - b) / scale < 1e-5


def test_pullback_rejects_non_diffeos():
    class Collapses:
        def __call__(self, x):
            return np.tanh(np.asarray(x, float))

        def deriv(self, x):
            return 1.0 / np.cosh(np.asarray(x, float)) ** 2

        def inverse(self, y):
            return np.arctanh(np.clip(np.asarray(y, float), -0.999999, 0.999999))

        def deriv_range(self, lo, hi):
            return 0.0, 1.0

    with pytest.raises(ValueError):
        pullback(Collapses(), simple_state())


def test_representation_composition_pointwise(rng):
    s = random_state(rng, 2, MEAS, 1)
    th1, th2 = soft(0.8, 0.9), sine(0.45)
    seq = pullback(th2, pullback(th1, s))
    joint = pullback(ComposedDiffeo(th1, th2), s)
    xh, gh = seq.x_hull(), seq.gamma_hull()
    xs = np.column_stack([rng.uniform(xh[0][k], xh[1][k], 300) for k in range(2)])
    gs = np.column_stack([rng.uniform(gh[0][k], gh[1][k], 300) for k in range(2)])
    va, vb = seq.value(xs, gs), joint.value(xs, gs)
    assert np.max(np.abs(va - vb)) < 1e-10 * max(np.max(np.abs(va)), 1e-30)


def test_rescale_examples(rng):
    s = simple_state(1.0)
    same = rescale_iso(s, 1.0, 1.0)
    assert same.terms[0].coeff == s.terms[0].coeff
    s4 = rescale_iso(s, 1.0, 4.0)
    assert s4.terms[0].coeff == 0.5  # c^(-N/2) with N=1, c=4
    assert s4.measure.scale_c == 4.0
    s3 = random_state(rng, 3, MEAS, 2)
    moved = rescale_iso(s3, 1.0, 2.0)
    assert abs(moved.terms[0].coeff / s3.terms[0].coeff - 2.0 ** (-1.5)) < 1e-15
    q = QuadConfig(16)
    assert abs(inner(moved, moved, q).real - inner(s3, s3, q).real) < 1e-14 * inner(s3, s3, q).real
    with pytest.raises(ValueError):
        rescale_iso(s, 1.0, -2.0)
    with pytest.raises(ValueError):
        rescale_iso(s, 5.0, 1.0)


def test_graded_states(rng):
    s1 = random_state(rng, 1, MEAS, 1)
    s2 = random_state(rng, 2, MEAS, 1)
    g1 = GradedState.of(s1)
    g2 = GradedState.of(s2)
    assert graded_inner(g1, g2, QUAD) == 0
    both = GradedState.of(s1, s2)
    assert graded_inner(both, g1, QUAD) == inner(s1, s1, QUAD)
    tot = graded_inner(both, both, QUAD).real
    assert abs(tot - inner(s1, s1, QUAD).real - inner(s2, s2, QUAD).real) < 1e-12 * tot
    with pytest.raises(ValueError):
        GradedState(((1, s2),))


def test_counterexample_profile_against_closed_form():
    # antiderivative oracle: f(x) = 1/(12x) - 2/3 - x ln x + (2/3)x^2 - x^3/12
    def exact(x):
        return 1 / (12 * x) - 2 / 3 - x * np.log(x) + (2 / 3) * x**2 - x**3 / 12

    for x in (0.5, 2.0**-4, 2.0**-9):
        got = counterexample_profile([x])[0][1]
        want = exact(x)
        assert abs(got - want) < 1e-12 * abs(want)
        oracle, _ = sciquad(lambda g: x * (g - 1) ** 2 * (1 - x * g) ** 2 / g, 1.0, 1.0 / x)
        assert abs(got - oracle) < 1e-9 * abs(oracle)
    assert counterexample_profile([0.5])[0][1] > 0
    with pytest.raises(ValueError):
        counterexample_profile([1.5])
    with pytest.raises(ValueError):
        counterexample_profile([-0.1])


def test_counterexample_divergence_slope():
    grid = [2.0**-k for k in range(4, 13)]
    fit = fit_divergence(counterexample_profile(grid))
    assert abs(fit.slope_extrapolated + 1.0) <= 0.05
    assert abs(fit.slope_local + 1.0) <= 0.05
    # the plain least-squares slope carries the known pre-asymptotic bias
    assert abs(fit.slope_ols - (-1.0670762211131322)) < 1e-6


def test_serialization_roundtrip_and_linearity(rng):
    s1 = random_state(rng, 2, MEAS, 2)
    s2 = HalfDensityState.loads(s1.dumps())
    xh, gh = s1.x_hull(), s1.gamma_hull()
    xs = np.column_stack([rng.uniform(xh[0][k], xh[1][k], 50) for k in range(2)])
    gs = np.column_stack([rng.uniform(gh[0][k], gh[1][k], 50) for k in range(2)])
    assert np.array_equal(s1.value(xs, gs), s2.value(xs, gs))
    # the coordinate-representation map is linear
    s3 = random_state(rng, 2, MEAS, 1)
    z1, z2 = 1.2 - 0.1j, 0.3 + 0.8j
    combo_rep = lin_comb(z1, s1, z2, s3).to_expansion()
    pts = np.column_stack([xs, gs])
    direct = z1 * s1.to_expansion()(pts) + z2 * s3.to_expansion()(pts)
    assert np.max(np.abs(combo_rep(pts) - direct)) < 1e-14
    with pytest.raises(ValueError):
        pullback(sine(0.45), s1).to_expansion()
