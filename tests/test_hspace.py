import warnings
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from scipy.integrate import quad as sciquad

from sigcone import hspace
from sigcone.configuration import ComposedDiffeo, affine, identity, sine, soft
from sigcone.fibers import BumpFunction, bump_pair_integrals
from sigcone.gamma import InvariantMeasure, SignatureSpec
from sigcone.harness import DEFAULT_CATALOG, random_state
from sigcone.hspace import (
    BumpStateTerm,
    HalfDensityState,
    PulledStateTerm,
    counterexample_profile,
    fit_divergence,
    graded_inner,
    inner,
    joint_inner,
    norm,
    pair_to_density,
    pullback,
    rescale_iso,
)
from sigcone.quadrature import QuadConfig, gl_rule, grid_product, intersect_box, quad_1d, rule_sum, tensor_rule

MEAS = InvariantMeasure(SignatureSpec(1, 0), 1.0)
QUAD = QuadConfig(48)


def simple_state(coeff=1.0, xc=0.0, xw=0.6, gc=2.0, gw=0.7, measure=MEAS):
    term = BumpStateTerm(complex(coeff), (BumpFunction(xc, xw),), (BumpFunction(gc, gw),))
    return HalfDensityState(1, measure, (term,))


def test_state_validation():
    with pytest.raises(ValueError):  # gamma support touching zero
        simple_state(gc=0.5, gw=0.6)
    neg = InvariantMeasure(SignatureSpec(0, 1), 1.0)
    # gamma hull [5e-13, 1]: inside the open cone but within the 1e-8 |det| floor
    with pytest.raises(ValueError):
        simple_state(gc=0.5 + 5e-13, gw=0.5)
    with pytest.raises(ValueError):
        simple_state(gc=-0.5 - 5e-13, gw=0.5, measure=neg)
    simple_state(gc=0.5 + 2e-8, gw=0.5)  # hull starts 2e-8 from zero
    simple_state(gc=-0.5 - 2e-8, gw=0.5, measure=neg)
    with pytest.raises(ValueError):  # x boxes must be strictly ordered for N=2
        HalfDensityState(2, MEAS, (BumpStateTerm(
            1.0, (BumpFunction(0.0, 0.6), BumpFunction(0.5, 0.6)),
            (BumpFunction(2.0, 0.5), BumpFunction(2.0, 0.5)),
        ),))
    with pytest.raises(ValueError):  # base dimension is one
        simple_state(measure=InvariantMeasure(SignatureSpec(2, 0), 1.0))


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
        lhs = inner(s1, s2.scaled(z1) + s3.scaled(z2), QUAD)
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
    assert inner(s, zero, QUAD) == 0
    far = simple_state(xc=20.0)
    g = pair_to_density(s, far, QUAD)
    assert g.support_box() is None
    assert np.all(g(np.array([[0.0], [20.0]])) == 0)


def test_pair_density_mismatch_errors():
    s1 = simple_state()
    s2 = HalfDensityState(2, MEAS, (BumpStateTerm(
        1.0, (BumpFunction(2.0, 0.4), BumpFunction(0.0, 0.4)),
        (BumpFunction(2.0, 0.5), BumpFunction(2.0, 0.5)),
    ),))
    with pytest.raises(ValueError):
        pair_to_density(s1, s2, QUAD)
    other = simple_state(measure=InvariantMeasure(SignatureSpec(1, 0), 3.0))
    with pytest.raises(ValueError):
        inner(s1, other, QUAD)


def point_path(density):
    """Pairing first, then the x-integral: the density summed over the tensor rule of its support box."""
    box = density.support_box()
    if box is None:
        return 0j
    pts, wts = tensor_rule(*box, density.quad.nodes_per_dim)
    return complex(rule_sum(wts, density(pts)))


def test_iterated_equals_density_integration(rng):
    s1 = random_state(rng, 2, MEAS, 2)
    s2 = random_state(rng, 2, MEAS, 2)
    via_density = point_path(pair_to_density(s1, s2, QUAD))
    direct = inner(s1, s2, QUAD)
    assert abs(via_density - direct) < 1e-10 * max(abs(direct), 1e-30)


def test_joint_inner_agrees(rng):
    for n_blocks in (1, 2, 3):
        s1, s2 = overlapping_pair(rng, n_blocks, 2)
        q = QuadConfig(32)
        a = inner(s1, s2, q)
        b = joint_inner(s1, s2, q)
        assert a != 0
        assert abs(a - b) < 1e-10 * abs(a)


def overlapping_pair(rng, n_blocks, n_terms, measure=MEAS):
    """Two states whose x boxes overlap: s2 shifts s1's x bumps by 0.1."""
    s1 = random_state(rng, n_blocks, measure, n_terms)
    return s1, shifted(on_x_bumps(s1, random_state(rng, n_blocks, measure, n_terms)), 0.1)


def on_x_bumps(s, other):
    """other's terms on the x bumps that the terms of s share."""
    terms = tuple(replace(t, x_factors=s.terms[0].x_factors) for t in other.terms)
    return HalfDensityState(s.n_blocks, s.measure, terms)


def shifted(s, dx):
    """s with every x bump moved by dx."""
    terms = tuple(replace(t, x_factors=tuple(BumpFunction(f.center + dx, f.width) for f in t.x_factors))
                  for t in s.terms)
    return HalfDensityState(s.n_blocks, s.measure, terms)


PULLS = {
    "plain": lambda s: s,
    "sine": lambda s: pullback(sine(0.4), s),
    "soft-then-sine": lambda s: pullback(sine(0.4), pullback(soft(0.3, 1.2), s)),
}


@pytest.mark.parametrize("pull", sorted(PULLS))
@pytest.mark.parametrize("n_blocks", [1, 2, 3, 4])
def test_inner_grid_path_equals_point_path_bit_for_bit(rng, n_blocks, pull):
    # at N=4, 12 nodes keep the point path's 12^4 points small (32^4 would be a million)
    q = QuadConfig(12 if n_blocks == 4 else 32)
    s1, s2 = (PULLS[pull](s) for s in overlapping_pair(rng, n_blocks, 1))
    total = point_path(pair_to_density(s1, s2, q))
    assert total != 0
    assert inner(s1, s2, q) == total


def loop_pair_blocks(t1, t2, xs, measure, m):
    """Reference: one term pair's block factors, one kernel call per block."""
    return [np.conj(a1) * a2 * bump_pair_integrals(c1, w1, c2, w2, measure, m)
            for (a1, c1, w1), (a2, c2, w2) in zip(t1.blocks(xs), t2.blocks(xs))]


def loop_inner(s1, s2, quad):
    """Reference: inner as a loop over term pairs, each with its own rule and blocks."""
    m = quad.nodes_per_dim
    total = 0.0 + 0.0j
    for t1 in s1.terms:
        for t2 in s2.terms:
            box = intersect_box(*t1.x_box, *t2.x_box)
            if box is None:
                continue
            _, wts = tensor_rule(box[0], box[1], m)
            nodes = [gl_rule(lo, hi, m)[0] for lo, hi in zip(*box)]
            total += rule_sum(wts, np.ravel(grid_product(loop_pair_blocks(t1, t2, nodes, s1.measure, m))))
    return complex(total)


def loop_density(s1, s2, quad, x):
    """Reference: PairedDensity as a loop over term pairs."""
    xs = list(np.array(np.asarray(x, float).T))
    out = np.zeros(len(x), dtype=complex)
    for t1 in s1.terms:
        for t2 in s2.terms:
            out += reduce(np.multiply, loop_pair_blocks(t1, t2, xs, s1.measure, quad.nodes_per_dim))
    return out


@pytest.mark.parametrize("sig", [(1, 0), (0, 1)], ids=["1-0", "0-1"])
@pytest.mark.parametrize("pull", sorted(PULLS))
@pytest.mark.parametrize("n_blocks", [1, 2, 3, 4])
def test_inner_and_density_equal_the_term_pair_loop_bit_for_bit(rng, n_blocks, pull, sig):
    q = QuadConfig(12 if n_blocks == 4 else 20)
    measure = InvariantMeasure(SignatureSpec(*sig), 1.3)
    # 3-term states on shared x bumps: s2's sit 0.1 from s1's, far's 50 away
    s1, s2 = overlapping_pair(rng, n_blocks, 3, measure)
    far = shifted(s2, 50.0)
    zero = HalfDensityState(n_blocks, measure, ())
    a, b, mix, z = (PULLS[pull](s) for s in (s1, s2, s1 + far + s2, zero))
    cases = [(a, b), (b, a), (a, a), (mix, mix), (mix, b), (a, z), (z, z)]
    assert loop_inner(a, b, q) != 0 and loop_inner(mix, a, q) != 0
    for u, v in cases:
        assert inner(u, v, q) == loop_inner(u, v, q)
    lo, hi = a.terms[0].x_box
    x = lo + np.linspace(0.3, 0.6, 5)[:, None] * (hi - lo)
    assert np.all(loop_density(a, b, q, x) != 0)
    for u, v in cases:
        assert np.array_equal(pair_to_density(u, v, q)(x), loop_density(u, v, q, x))
    # pullback's one inverse call gives every term the box of a call of its own
    terms = list(mix.terms)
    while terms:
        t = terms.pop()
        if isinstance(t, PulledStateTerm):
            assert np.concatenate(t.x_box).tolist() == t.theta.inverse(np.concatenate(t.base.x_box)).tolist()
            terms.append(t.base)


@pytest.mark.parametrize("sig", [(1, 0), (0, 1)], ids=["1-0", "0-1"])
def test_disjoint_gamma_supports_pair_to_exact_zeros(sig):
    # rows whose gamma supports miss (gap) or touch (one point) put all nodes at the gap midpoint
    measure = InvariantMeasure(SignatureSpec(*sig), 1.0)
    sign = 1.0 if sig == (1, 0) else -1.0
    s = simple_state(gc=sign * 2.0, gw=0.5, measure=measure)
    for gc in (3.0, 4.0):
        other = simple_state(0.7 - 0.2j, gc=sign * gc, gw=0.5, measure=measure)
        density = pair_to_density(s, other, QUAD)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(density(np.array([[-0.3], [0.0], [0.5]])) == 0)
            assert inner(s, other, QUAD) == 0


@pytest.mark.parametrize(
    "theta",
    [sine(0.4), soft(0.3, 1.2), ComposedDiffeo(sine(0.4), affine(1.3, 0.2)), affine(1.3, 0.2)],
    ids=["sine", "soft", "sine-after-affine", "affine"],
)
@pytest.mark.parametrize("n_blocks", [1, 2, 3])
def test_joint_inner_agrees_on_pulled_states(rng, n_blocks, theta):
    # Gauss rules map onto Gauss rules under affine maps, so affine pulls
    # agree to rounding.  Otherwise the joint rule spans the gamma hull of
    # sections scaled by theta'(x)^2 across the x box, which it resolves more
    # coarsely than inner's per-x gamma rule: at N=3 this weakly overlapping
    # sine-pulled pair differs by 2.4e-4 at 64 nodes (8e-6 at 128).
    if getattr(theta, "tag", None) == "affine":
        tol = 1e-12
    else:
        tol = 1e-6 if n_blocks < 3 else 1e-3
    q = QuadConfig(64)
    s1, s2 = (pullback(theta, s) for s in overlapping_pair(rng, n_blocks, 2))
    a = inner(s1, s2, q)
    b = joint_inner(s1, s2, q)
    assert a != 0
    assert abs(a - b) < tol * abs(a)


def test_four_block_pairs_agree_and_pull_back_unitarily(rng):
    q = QuadConfig(12)
    for _ in range(3):
        s1, s2 = overlapping_pair(rng, 4, 2)
        a = inner(s1, s2, q)
        assert a != 0
        assert abs(point_path(pair_to_density(s1, s2, q)) - a) < 1e-12 * abs(a)
        assert abs(joint_inner(s1, s2, q) - a) < 1e-12 * abs(a)
        scale = norm(s1, q) * norm(s2, q)
        for theta in DEFAULT_CATALOG:
            moved = inner(pullback(theta, s1), pullback(theta, s2), q)
            assert abs(moved - a) < 1e-5 * scale


def test_value_and_density_refuse_misshapen_points():
    s = random_state(np.random.default_rng(3), 2, MEAS, 1)
    x = np.tile([c.center for c in s.terms[0].x_factors], (5, 1))
    g = np.tile([c.center for c in s.terms[0].g_factors], (5, 1))
    assert np.all(s.value(x, g) != 0)
    density = pair_to_density(s, s, QUAD)
    assert np.all(density(x) != 0)
    bad = [(x, np.column_stack([g, g[:, :1]])), (np.column_stack([x, x[:, :1]]), g), (x[:4], g), (x[0], g[0])]
    for bx, bg in bad:
        with pytest.raises(ValueError, match="shape"):
            s.value(bx, bg)
    for bx in (np.column_stack([x, x[:, :1]]), x[:, :1], x[0]):
        with pytest.raises(ValueError, match="shape"):
            density(bx)


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
    xlo, xhi = p.terms[0].x_box
    assert abs(xlo[0] - 0.25) < 1e-15 and abs(xhi[0] - 0.75) < 1e-15
    glo, ghi = p.terms[0].gamma_box
    assert abs(glo[0] - 4 * 1.5) < 1e-12 and abs(ghi[0] - 4 * 2.5) < 1e-12


def test_pulled_term_boxes_are_computed_once(rng):
    # each pulled term inverts its box corners once, when the state is built,
    # not again for every term pair of an inner product
    calls = []

    class CountedSine:
        theta = sine(0.45)

        def __call__(self, x):
            return self.theta(x)

        def deriv(self, x):
            return self.theta.deriv(x)

        def deriv_range(self, lo, hi):
            return self.theta.deriv_range(lo, hi)

        def inverse(self, y):
            calls.append(np.shape(y))
            return self.theta.inverse(y)

    s = random_state(rng, 2, MEAS, 3)
    p = pullback(CountedSine(), s)
    assert calls == [(4,)]  # the terms share one x box: one call, on both corners of both blocks
    inner(p, p, QuadConfig(8))
    joint_inner(p, p, QuadConfig(8))
    p.x_hull(), p.gamma_hull()
    rescale_iso(p, 2.0)  # scaled terms keep their boxes
    assert len(calls) == 1
    pullback(CountedSine(), s + shifted(s, 5.0))
    assert calls[1:] == [(8,)]  # two distinct boxes, still one call
    assert pullback(CountedSine(), HalfDensityState(2, MEAS, ())).terms == ()


def test_inner_and_density_evaluate_each_term_once_per_box(rng, monkeypatch):
    # two T-term states on one x box: one rule, 2T block evaluations (T when
    # both sides are one state) and one gamma-kernel call for all pairs and blocks
    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            if name == "kernel":
                counts["rows"] = len(args[0])
            return fn(*args, **kwargs)
        return wrapper

    for cls in (BumpStateTerm, PulledStateTerm):
        monkeypatch.setattr(cls, "blocks", counted(cls.__name__, cls.blocks))
    monkeypatch.setattr(hspace, "tensor_rule", counted("tensor_rule", hspace.tensor_rule))
    monkeypatch.setattr(hspace, "bump_pair_integrals", counted("kernel", hspace.bump_pair_integrals))
    n_terms = 3
    s1 = random_state(rng, 2, MEAS, n_terms)
    s2 = on_x_bumps(s1, random_state(rng, 2, MEAS, n_terms))
    q = QuadConfig(8)
    for pull in ("plain", "sine"):
        a, b = PULLS[pull](s1), PULLS[pull](s2)
        term = type(a.terms[0]).__name__
        lo, hi = a.terms[0].x_box
        x = ((lo + hi) / 2)[None, :]
        # a plain term's gamma bump is the same at every node: one kernel row per pair and block
        rows = 2 * n_terms**2 * (1 if pull == "plain" else q.nodes_per_dim)
        for u, v, evals in ((a, b, 2 * n_terms), (a, a, n_terms)):
            counts.clear()
            assert inner(u, v, q) != 0
            assert (counts[term], counts["tensor_rule"], counts["kernel"], counts["rows"]) == (evals, 1, 1, rows)
            counts.clear()
            assert pair_to_density(u, v, q)(x)[0] != 0
            assert (counts[term], counts.get("tensor_rule", 0), counts["kernel"]) == (evals, 0, 1)


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
    same = rescale_iso(s, 1.0)
    assert same.terms[0].coeff == s.terms[0].coeff
    s4 = rescale_iso(s, 4.0)
    assert s4.terms[0].coeff == 0.5  # c^(-N/2) with N=1, c=4
    assert s4.measure.scale_c == 4.0
    s3 = random_state(rng, 3, MEAS, 2)
    moved = rescale_iso(s3, 2.0)
    assert abs(moved.terms[0].coeff / s3.terms[0].coeff - 2.0 ** (-1.5)) < 1e-15
    q = QuadConfig(16)
    assert abs(inner(moved, moved, q).real - inner(s3, s3, q).real) < 1e-14 * inner(s3, s3, q).real
    with pytest.raises(ValueError):
        rescale_iso(s, -2.0)


@pytest.mark.parametrize("c_new", [0.1, 2.0, 10.0])
def test_rescale_keeps_the_norm_of_a_pulled_state(rng, c_new):
    q = QuadConfig(32)
    s = pullback(soft(0.8, 0.9), random_state(rng, 2, MEAS, 2))
    moved = rescale_iso(s, c_new)
    assert moved.measure.scale_c == c_new
    before = norm(s, q)
    assert abs(norm(moved, q) - before) <= 1e-14 * before


def test_graded_states(rng):
    s1 = random_state(rng, 1, MEAS, 1)
    s2 = random_state(rng, 2, MEAS, 1)
    assert graded_inner({1: s1}, {2: s2}, QUAD) == 0
    both = {2: s2, 1: s1}
    assert graded_inner(both, {1: s1}, QUAD) == inner(s1, s1, QUAD)
    tot = graded_inner(both, both, QUAD).real
    assert abs(tot - inner(s1, s1, QUAD).real - inner(s2, s2, QUAD).real) < 1e-12 * tot
    with pytest.raises(ValueError, match="wrong block count"):
        graded_inner({1: s2}, {2: s2}, QUAD)


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


def test_state_arithmetic_is_linear_in_the_pointwise_values(rng):
    s1 = random_state(rng, 2, MEAS, 2)
    s3 = random_state(rng, 2, MEAS, 1)
    xh, gh = s1.x_hull(), s1.gamma_hull()
    xs = np.column_stack([rng.uniform(xh[0][k], xh[1][k], 50) for k in range(2)])
    gs = np.column_stack([rng.uniform(gh[0][k], gh[1][k], 50) for k in range(2)])
    z1, z2 = 1.2 - 0.1j, 0.3 + 0.8j
    combo = (s1.scaled(z1) + s3.scaled(z2)).value(xs, gs)
    direct = z1 * s1.value(xs, gs) + z2 * s3.value(xs, gs)
    assert np.max(np.abs(combo - direct)) < 1e-14
