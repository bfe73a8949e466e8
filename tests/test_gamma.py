import gc
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad as sciquad

from sigcone.gamma import (
    DegenerateMatrixError,
    GlElement,
    InvariantMeasure,
    SignatureSpec,
    SupportError,
    SymMatrix,
    check_support,
    congruence_vech_matrix,
    integrate_gamma,
    invariant_dot,
    natural_density,
    random_gl,
    signature,
    sym_to_vech,
    vech_det,
    vech_to_sym,
    verify_invariance,
)
from sigcone import gamma
from sigcone.fibers import FiberSpace, fiber_inner, product_bump
from sigcone.harness import _rel, random_cone_expansion
from sigcone.quadrature import QuadConfig, box_corners, gl_rule, rule_sum, tensor_rule


class Boxed:
    """A plain n=1 integrand on one declared support box, for integrate_gamma.

    func takes points of shape (P, 1); on a one-coordinate cone it is its own
    single axis factor.
    """

    def __init__(self, func, lo, hi):
        self.func, self.lo, self.hi = func, np.asarray(lo, float), np.asarray(hi, float)

    def integrand_pieces(self):
        yield self.lo, self.hi, 1.0, (lambda u: self.func(u[:, None]),)


SIGNATURES = [(1, 0), (0, 1), (2, 0), (1, 1), (2, 1)]


def congruent(a, m: SymMatrix) -> SymMatrix:
    """a^T m a, through the vech map that verify_invariance uses."""
    return SymMatrix(vech_to_sym(congruence_vech_matrix(a, m.n) @ sym_to_vech(m.a), m.n))


def test_symmetrize_examples():
    # SymMatrix stores the symmetric part of any square array
    assert np.array_equal(SymMatrix([[1, 2], [3, 4]]).a, [[1, 2.5], [2.5, 4]])
    assert np.array_equal(SymMatrix(np.eye(3)).a, np.eye(3))
    assert np.array_equal(SymMatrix([[0, 1], [-1, 0]]).a, np.zeros((2, 2)))


def test_signature_examples():
    assert signature(SymMatrix(np.diag([2.0, -3.0]))) == (1, 1, 0)
    assert signature(SymMatrix([[0, 1], [1, 0]])) == (1, 1, 0)
    assert signature(SymMatrix(np.zeros((2, 2)))) == (0, 0, 2)


def test_gl_action_examples():
    # the action gamma -> g^{-T} gamma g^{-1} is congruence by g.inverse
    g = GlElement(2.0 * np.eye(2))
    assert np.allclose(congruent(g.inverse, SymMatrix(np.eye(2))).a, 0.25 * np.eye(2), atol=1e-15)
    m = SymMatrix([[2.0, 0.3], [0.3, 1.0]])
    assert np.array_equal(congruent(GlElement(np.eye(2)).inverse, m).a, m.a)


def test_gl_action_shear_against_bilinear_oracle():
    # evaluate gamma(g^{-1} e_i, g^{-1} e_j) entry by entry, independently
    g = GlElement([[2.0, 1.0], [0.0, 1.0]])
    m = SymMatrix(np.eye(2))
    got = congruent(g.inverse, m)
    ginv = np.linalg.inv([[2.0, 1.0], [0.0, 1.0]])
    oracle = np.empty((2, 2))
    for i, j in itertools.product(range(2), repeat=2):
        oracle[i, j] = ginv[:, i] @ m.a @ ginv[:, j]
    assert np.allclose(got.a, oracle, atol=1e-14)
    assert signature(got) == (2, 0, 0)


def test_pullback_linear_examples():
    # the pull-back along a linear isomorphism l is congruence by l
    m = SymMatrix([[1.2, 0.1], [0.1, 0.8]])
    assert np.array_equal(congruent(np.eye(2), m).a, m.a)
    assert np.allclose(congruent(0.5 * np.eye(2), SymMatrix(np.eye(2))).a, 0.25 * np.eye(2), atol=1e-16)
    # the pull-back along l inverts the group action of l
    l = GlElement([[1.5, 0.2], [0.0, 0.9]])
    assert np.allclose(congruent(l.matrix, congruent(l.inverse, m)).a, m.a, atol=1e-13)


def test_gl_element_rejects_singular():
    with pytest.raises(ValueError):
        GlElement([[1.0, 1.0], [1.0, 1.0]])


def test_natural_density_n1_closed_form_is_exact():
    meas = InvariantMeasure(SignatureSpec(1, 0), 1.0)
    assert natural_density(SymMatrix([[2.0]]), meas) == 0.5
    for g11 in (0.3, 1.0, 3.7, 1024.0):
        assert natural_density(SymMatrix([[g11]]), meas) == 1.0 / g11
    meas_c = InvariantMeasure(SignatureSpec(1, 0), 2.5)
    assert natural_density(SymMatrix([[2.0]]), meas_c) == 2.5 / 2.0


def test_natural_density_n2_values():
    meas = InvariantMeasure(SignatureSpec(2, 0), 1.0)
    assert natural_density(SymMatrix(np.eye(2)), meas) == 1.0
    assert abs(natural_density(SymMatrix(4.0 * np.eye(2)), meas) - 1.0 / 64.0) < 1e-15 / 64.0
    with pytest.raises(DegenerateMatrixError):
        natural_density(SymMatrix(np.zeros((2, 2))), meas)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_congruence_jacobian_forces_the_exponent(n, rng):
    """Finite-difference oracle: d vech(A^T g A)/d vech(g) has det = det(A)^(n+1).

    Invariance of c |det|^(-(n+1)/2) d(Lebesgue) under congruence is exactly
    the statement that this Jacobian cancels the density ratio, so this pins
    the closed form used by natural_density.
    """
    a = np.eye(n) + 0.4 * rng.uniform(-1, 1, size=(n, n))
    dim = n * (n + 1) // 2
    base = rng.uniform(-1, 1, size=dim)
    h = 1e-6

    def fwd(v):
        return sym_to_vech(a.T @ vech_to_sym(v, n) @ a)

    jac = np.empty((dim, dim))
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = h
        jac[:, k] = (fwd(base + e) - fwd(base - e)) / (2 * h)
    assert abs(np.linalg.det(jac) - np.linalg.det(a) ** (n + 1)) < 1e-6 * abs(np.linalg.det(a) ** (n + 1))
    # and the dedicated vech matrix agrees with the finite differences
    assert np.allclose(jac, congruence_vech_matrix(a, n), atol=1e-8)


def test_density_ratio_matches_jacobian(rng, random_gamma):
    # pointwise invariance identity: Delta(A^T g A) |det A|^(n+1) = Delta(g)
    for n, spec in ((2, SignatureSpec(2, 0)), (2, SignatureSpec(1, 1))):
        meas = InvariantMeasure(spec, 1.7)
        m = random_gamma(spec, rng)
        a = np.eye(n) + 0.3 * rng.uniform(-1, 1, (n, n))
        lhs = natural_density(SymMatrix(a.T @ m.a @ a), meas) * abs(np.linalg.det(a)) ** (n + 1)
        assert abs(lhs - natural_density(m, meas)) < 1e-12 * natural_density(m, meas)


def test_integrate_gamma_zero_and_errors():
    meas = InvariantMeasure(SignatureSpec(1, 0), 1.0)
    from sigcone.fibers import BumpExpansion

    assert integrate_gamma(BumpExpansion(1, ()), meas, QuadConfig(16)) == 0
    bad = product_bump(1.0, [0.5], [0.6])  # support [-0.1, 1.1] crosses zero
    with pytest.raises(SupportError):
        integrate_gamma(bad, meas, QuadConfig(16))


def test_integrate_gamma_log_bump_oracle():
    # f(g) = bump(ln g): with the 1/g weight this is the plain bump mass
    meas = InvariantMeasure(SignatureSpec(1, 0), 1.0)

    def f(pts):
        t = np.log(pts[:, 0])
        out = np.zeros_like(t)
        m = np.abs(t) < 1
        with np.errstate(divide="ignore", over="ignore"):
            out[m] = np.exp(-1.0 / (1.0 - t[m] ** 2))
        return out

    got = integrate_gamma(Boxed(f, [np.exp(-1.0)], [np.exp(1.0)]), meas, QuadConfig(64))
    assert abs(got - 0.4439938161680893) < 1e-7


def test_integrate_gamma_matches_adaptive_oracle():
    meas = InvariantMeasure(SignatureSpec(1, 0), 1.0)
    f = product_bump(1.0, [3.0], [1.0])
    got = integrate_gamma(f, meas, QuadConfig(64))
    oracle, _ = sciquad(lambda g: np.exp(-1.0 / (1.0 - (g - 3.0) ** 2)) / g, 2.0, 4.0)
    assert abs(got - oracle) < 1e-8 * abs(oracle)


@pytest.mark.parametrize("sig", [(1, 0), (0, 1), (2, 0), (1, 1)])
@pytest.mark.parametrize("n_terms", [1, 2, 3])
def test_integrate_gamma_per_axis_equals_pointwise_rule_sum(sig, n_terms):
    """Factors evaluated per axis and multiplied with grid_product give, bit
    for bit, the real pointwise bump product on each term's tensor rule, and
    each term's total is multiplied by its coefficient once."""
    spec = SignatureSpec(*sig)
    rng = np.random.default_rng(1000 * sig[0] + 10 * sig[1] + n_terms)
    meas = InvariantMeasure(spec, float(rng.uniform(0.5, 2.0)))
    f = random_cone_expansion(spec, rng, n_terms)
    assert all(t.coeff.imag != 0 for t in f.terms)
    for m in (16, 32, 33, 48):
        want = 0.0 + 0.0j
        for t in f.terms:
            pts, wts = tensor_rule(*t.box(), m)
            vals = t.factors[0](pts[:, 0])
            for k in range(1, spec.dim):
                vals = vals * t.factors[k](pts[:, k])
            want += t.coeff * invariant_dot(vech_det(pts.T, spec.n), wts, vals, meas)
        assert integrate_gamma(f, meas, QuadConfig(m)) == complex(want)


@pytest.mark.parametrize("sig", [(1, 0), (0, 1), (2, 0), (1, 1)])
def test_vech_det_on_per_axis_nodes_equals_its_value_at_the_rule_points(sig):
    spec = SignatureSpec(*sig)
    rng = np.random.default_rng(7 * sig[0] + sig[1])
    lo = rng.uniform(-2.0, 1.0, spec.dim)
    hi = lo + rng.uniform(0.1, 2.0, spec.dim)
    for m in (2, 5, 16):
        nodes = [gl_rule(l, h, m)[0] for l, h in zip(lo, hi)]
        pts, _ = tensor_rule(lo, hi, m)
        got = np.ravel(vech_det(np.ix_(*nodes), spec.n))
        want = vech_det(pts.T, spec.n)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("sig", [(1, 0), (0, 1), (2, 0), (1, 1)])
def test_integrate_gamma_builds_no_point_grid(sig, monkeypatch):
    spec = SignatureSpec(*sig)
    meas = InvariantMeasure(spec, 1.7)
    f = random_cone_expansion(spec, np.random.default_rng(sum(sig) + 10 * sig[0]), 2)
    want = integrate_gamma(f, meas, QuadConfig(24))

    def refuse(*args):
        raise AssertionError("integrate_gamma called tensor_rule")

    monkeypatch.setattr(gamma, "tensor_rule", refuse)
    assert integrate_gamma(f, meas, QuadConfig(24)) == want


def test_verify_invariance_builds_no_whole_grid_array():
    """Both sides sum slab by slab; at 64 nodes one whole-grid array of complex values alone takes 4 MiB."""
    spec = SignatureSpec(1, 1)
    rng = np.random.default_rng(64)
    meas = InvariantMeasure(spec, 1.2)
    f = random_cone_expansion(spec, rng, 2)
    g = random_gl(2, rng, spread=0.18)
    tracemalloc.start()
    try:
        verify_invariance(f, g, meas, QuadConfig(64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def n2_kernel_calls():
    """integrate_gamma, verify_invariance and an n=2 fiber_inner on a complex-coefficient expansion, at m=64."""
    spec = SignatureSpec(1, 1)
    rng = np.random.default_rng(64)
    meas = InvariantMeasure(spec, 1.2)
    f = random_cone_expansion(spec, rng, 2)
    g = random_gl(2, rng, spread=0.18)
    assert all(t.coeff.imag != 0 for t in f.terms)
    quad = QuadConfig(64)
    return [
        lambda: integrate_gamma(f, meas, quad),
        lambda: verify_invariance(f, g, meas, quad),
        lambda: fiber_inner(f, f, FiberSpace(meas, 1), quad),
    ]


def test_cone_kernels_leave_no_reference_cycles():
    calls = n2_kernel_calls()
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_cone_kernels_sum_real_values(monkeypatch):
    """Both sides of verify_invariance and an n=2 fiber block hand invariant_dot float64 values only;
    the complex coefficients are applied to each piece's total."""
    dtypes = []

    def recording(det, wts, vals, measure):
        dtypes.append(vals.dtype)
        return invariant_dot(det, wts, vals, measure)

    monkeypatch.setattr(gamma, "invariant_dot", recording)
    counts = []
    for call in n2_kernel_calls():
        assert call() != 0
        counts.append(len(dtypes))
    assert set(dtypes) == {np.dtype(np.float64)}
    assert 0 < counts[0] < counts[1] - counts[0] and counts[2] > counts[1]  # verify_invariance sums its oracle too


def masked_oracle_rhs(f, g, meas, m):
    """The congruence side of verify_invariance as a rule sum of the real bump
    product over the whole grid that weights only the nodes where the integrand
    is nonzero; each mapped coordinate is the first-axis term plus the other
    axes' share, and each piece's total is multiplied by its coefficient."""
    vech_map = congruence_vech_matrix(g.inverse, meas.spec.n)
    rhs = 0.0 + 0.0j
    for lo, hi, coeff, factors in f.integrand_pieces():
        img = box_corners(lo, hi) @ np.linalg.inv(vech_map).T
        pts, wts = tensor_rule(img.min(axis=0), img.max(axis=0), m)
        vals = np.ones(len(pts))
        for k, fac in enumerate(factors):
            vals = vals * fac(pts[:, 0] * vech_map[k, 0] + (vech_map[k, 1] * pts[:, 1] + vech_map[k, 2] * pts[:, 2]))
        mask = vals != 0
        det = pts[:, 0] * pts[:, 2] - pts[:, 1] * pts[:, 1]
        weight = np.zeros(len(pts))
        weight[mask] = meas.scale_c * np.abs(det[mask]) ** -1.5
        rhs += coeff * rule_sum(wts, vals * weight)
    return complex(rhs)


@pytest.mark.parametrize("sig, centers, widths, g", [
    ((2, 0), [1.0, 0.0, 1.0], [0.35, 0.3, 0.35], [[2.0, 1.0], [0.0, 1.0]]),
    ((1, 1), [1.0, 0.0, -1.0], [0.3, 0.3, 0.3], [[1.0, 0.9], [0.2, 1.0]]),
])
def test_oracle_density_on_a_box_crossing_det_zero_equals_the_masked_sum(sig, centers, widths, g):
    meas = InvariantMeasure(SignatureSpec(*sig), 1.3)
    f = product_bump(0.7 - 0.4j, centers, widths)
    g = GlElement(g)
    (lo, hi, _, _), = f.integrand_pieces()
    check_support(lo, hi, meas.spec)
    img = box_corners(lo, hi) @ np.linalg.inv(congruence_vech_matrix(g.inverse, 2)).T
    pts, _ = tensor_rule(img.min(axis=0), img.max(axis=0), 32)
    det = vech_det(pts.T, 2)
    assert det.min() < 0.0 < det.max()  # the oracle's bounding box leaves the cone
    assert verify_invariance(f, g, meas, QuadConfig(32))[1] == masked_oracle_rhs(f, g, meas, 32)


def test_verify_invariance_identity_is_exact():
    meas = InvariantMeasure(SignatureSpec(1, 0), 1.0)
    f = product_bump(1.0, [2.5], [0.8])
    assert _rel(*verify_invariance(f, GlElement(np.eye(1)), meas, QuadConfig(32))) < 1e-15


def test_verify_invariance_n1_scaling():
    # (1/g) dg is invariant under g -> g/4; checked analytically by substitution
    meas = InvariantMeasure(SignatureSpec(1, 0), 1.0)
    f = product_bump(1.0, [2.5], [0.8])
    assert _rel(*verify_invariance(f, GlElement([[2.0]]), meas, QuadConfig(64))) < 1e-6


def test_verify_invariance_n2_shear():
    """The worked shear case; its pulled-back bounding box is inflated ~4x per
    axis, so the oracle-computed accuracy is ~5e-5 at 32 nodes and ~5e-7 at 64."""
    meas = InvariantMeasure(SignatureSpec(2, 0), 1.0)
    f = product_bump(1.0, [1.0, 0.0, 1.0], [0.35, 0.3, 0.35])
    g = GlElement([[2.0, 1.0], [0.0, 1.0]])
    err32 = _rel(*verify_invariance(f, g, meas, QuadConfig(32)))
    err64 = _rel(*verify_invariance(f, g, meas, QuadConfig(64)))
    assert err32 < 1e-4
    assert err64 < 1e-5
    assert err64 < err32


def test_verify_invariance_n2_near_identity(rng):
    meas = InvariantMeasure(SignatureSpec(2, 0), 1.0)
    f = product_bump(1.0, [1.1, 0.05, 1.2], [0.3, 0.15, 0.3])
    g = random_gl(2, rng, spread=0.18)
    err32 = _rel(*verify_invariance(f, g, meas, QuadConfig(32)))
    err64 = _rel(*verify_invariance(f, g, meas, QuadConfig(64)))
    assert err32 < 1e-5
    assert err64 < max(err32, 1e-12)


def test_positivity_of_squared_integrals(rng):
    meas = InvariantMeasure(SignatureSpec(1, 0), 1.0)
    f = product_bump(0.7 + 0.2j, [2.0], [0.7])

    def fsq(pts):
        return np.abs(f(pts)) ** 2

    val = integrate_gamma(Boxed(fsq, [1.3], [2.7]), meas, QuadConfig(32))
    assert val.real > 1e-12 * abs(0.7 + 0.2j) ** 2
    assert abs(val.imag) < 1e-15


@given(st.integers(0, 10_000))
def test_congruence_preserves_signature(random_gamma, seed):
    rng = np.random.default_rng(seed)
    spec = SignatureSpec(*SIGNATURES[seed % len(SIGNATURES)])
    m = random_gamma(spec, rng)
    g = random_gl(spec.n, rng, spread=0.5)
    assert signature(congruent(g.matrix, m)) == signature(m) == (spec.p, spec.p_prime, 0)


def test_congruence_preserves_signature_bulk(random_gamma):
    rng = np.random.default_rng(1234)
    for i in range(1000):
        spec = SignatureSpec(*SIGNATURES[i % len(SIGNATURES)])
        m = random_gamma(spec, rng)
        g = random_gl(spec.n, rng, spread=0.5)
        assert signature(congruent(g.matrix, m)) == (spec.p, spec.p_prime, 0)


@given(st.integers(0, 10_000))
def test_group_law(seed):
    # vech(b^T a^T gamma a b) = C(b) C(a) vech(gamma)
    rng = np.random.default_rng(seed)
    n = 1 + seed % 3
    a = random_gl(n, rng, 0.4).matrix
    b = random_gl(n, rng, 0.4).matrix
    lhs = congruence_vech_matrix(a @ b, n)
    rhs = congruence_vech_matrix(b, n) @ congruence_vech_matrix(a, n)
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


@given(st.integers(0, 10_000))
def test_pullback_composition_law(random_gamma, seed):
    # pulling m back along l01 and then along l12 is pulling it back along l01 l12
    rng = np.random.default_rng(seed)
    m = random_gamma(SignatureSpec(2, 0), rng)
    l01 = random_gl(2, rng, 0.4).matrix
    l12 = random_gl(2, rng, 0.4).matrix
    lhs = congruent(l12, congruent(l01, m)).a
    rhs = congruent(l01 @ l12, m).a
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_natural_density_positive_on_cone(rng, random_gamma):
    for spec in (SignatureSpec(1, 0), SignatureSpec(2, 0), SignatureSpec(1, 1)):
        meas = InvariantMeasure(spec, 1.0)
        for _ in range(50):
            m = random_gamma(spec, rng)
            assert natural_density(m, meas) > 0


def test_vech_roundtrip(rng):
    a = SymMatrix(rng.uniform(-1, 1, (3, 3))).a
    assert np.array_equal(vech_to_sym(sym_to_vech(a), 3), a)
