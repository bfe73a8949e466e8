import itertools

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from sigcone.configuration import (
    ChartDomainError,
    ComposedDiffeo,
    Diffeo1D,
    DuplicatePointError,
    PointTuple,
    affine,
    block_pullback_vs_per_point,
    chart_transition,
    identity,
    induced_diffeo,
    inverse_diffeo,
    local_chart,
    point_set,
    project,
    sine,
    soft,
    sorted_chart,
    tangent_blocks,
)

CATALOG = [affine(1.6, 0.35), affine(0.7, -0.8), soft(0.8, 0.9), sine(0.45)]


def test_project_examples():
    t = PointTuple(((3.0,), (1.0,), (2.0,)))
    assert project(t).values == (3.0, 2.0, 1.0)
    canon = PointTuple(((3.0,), (2.0,), (1.0,)))
    assert project(canon).canonical == project(t).canonical
    with pytest.raises(DuplicatePointError):
        PointTuple(((1.0,), (1.0,)))


def test_project_collapses_all_permutations(rng):
    pts = tuple((float(x),) for x in rng.uniform(-5, 5, size=4))
    results = {project(PointTuple(tuple(pts[i] for i in perm))) for perm in itertools.permutations(range(4))}
    assert len(results) == 1


def test_sorted_chart_examples():
    assert sorted_chart(point_set(1.0, 2.0)) == (2.0, 1.0)
    assert sorted_chart(point_set(5.0)) == (5.0,)


@given(st.lists(st.floats(-100, 100), min_size=2, max_size=6, unique=True))
def test_sorted_chart_is_canonicalization(xs):
    assume(min(abs(a - b) for a in xs for b in xs if a != b) > 1e-9)
    t = PointTuple(tuple((x,) for x in xs))
    assert sorted_chart(project(t)) == tuple(sorted(xs, reverse=True))


def test_lexicographic_order_for_d2():
    t = PointTuple(((0.0, 1.0), (0.0, 2.0), (1.0, 0.0)))
    y = project(t)
    assert y.canonical == ((1.0, 0.0), (0.0, 2.0), (0.0, 1.0))
    assert y.serialize() == [1.0, 0.0, 0.0, 2.0, 0.0, 1.0]


def test_local_chart_example():
    y = point_set(1.0, 4.0)
    chart = local_chart(y, 1.0)
    assert chart.lo == ((3.0,), (0.0,)) and chart.hi == ((5.0,), (2.0,))
    coords = chart.chart_map(point_set(1.5, 3.5))
    assert coords.tolist() == [3.5, 1.5]
    assert chart.inverse_map(chart.chart_map(y)) == y
    with pytest.raises(ValueError):
        local_chart(y, 1.5)  # 2r = 3 equals the separation


def test_chart_rejects_points_outside():
    chart = local_chart(point_set(1.0, 4.0), 1.0)
    with pytest.raises(ChartDomainError):
        chart.chart_map(point_set(1.5, 7.0))
    with pytest.raises(ChartDomainError):
        chart.inverse_map(np.array([3.5, 2.5]))


def test_transition_between_radii_is_identity(rng):
    # two canonical charts around the same subset differ only by box size
    for _ in range(25):
        y = point_set(*np.cumsum(rng.uniform(1.0, 2.0, size=3)))
        c1 = local_chart(y, 0.2)
        c2 = local_chart(y, 0.4)
        probe = point_set(*(np.asarray(y.values) + rng.uniform(-0.15, 0.15, size=3)))
        coords = c1.chart_map(probe)
        assert np.array_equal(chart_transition(c1, c2, coords), coords)


def test_transition_is_block_permutation():
    y = point_set(0.0, 2.0, 5.0)
    c1 = local_chart(y, 0.3)
    c2 = c1.permuted((2, 0, 1))
    coords = c1.chart_map(y)
    moved = chart_transition(c1, c2, coords)
    assert moved.tolist() == [coords[2], coords[0], coords[1]]
    # round trip through the inverse permutation
    back = chart_transition(c2, c1, moved)
    assert np.array_equal(back, coords)


def test_identical_chart_transition_identity():
    y = point_set(0.0, 2.0)
    c = local_chart(y, 0.3)
    coords = c.chart_map(y)
    assert np.array_equal(chart_transition(c, c, coords), coords)


def test_induced_diffeo_examples():
    y = point_set(1.0, 2.0)
    assert induced_diffeo(identity(), y) == y
    assert induced_diffeo(affine(1.0, 1.0), y) == point_set(2.0, 3.0)


@given(st.integers(0, 5000))
def test_induced_homomorphism(seed):
    rng = np.random.default_rng(seed)
    pts = np.sort(rng.uniform(-4, 4, size=3))
    if np.min(np.diff(pts)) < 1e-3:
        return
    y = point_set(*pts)
    th1 = CATALOG[seed % len(CATALOG)]
    th2 = CATALOG[(seed + 1) % len(CATALOG)]
    assert induced_diffeo(th1, induced_diffeo(th2, y)) == induced_diffeo(ComposedDiffeo(th1, th2), y)


def test_diffeo_validation():
    with pytest.raises(ValueError):
        Diffeo1D("affine", (-1.0, 0.0))
    with pytest.raises(ValueError):
        Diffeo1D("sine", (1.0,))
    with pytest.raises(ValueError):
        Diffeo1D("soft", (-2.0, 0.5))
    with pytest.raises(ValueError):
        Diffeo1D("spiral")


@pytest.mark.parametrize("theta", CATALOG)
def test_diffeo_inverse_accuracy(theta, rng):
    y = rng.uniform(-8, 8, size=200)
    x = theta.inverse(y)
    assert np.max(np.abs(theta(x) - y)) < 1e-12 * (1 + np.max(np.abs(y)))
    inv = inverse_diffeo(theta)
    assert np.max(np.abs(inv(theta(np.asarray(y))) - y)) < 1e-10


@pytest.mark.parametrize("theta", CATALOG + [ComposedDiffeo(soft(0.8, 0.9), sine(0.45))])
def test_deriv_range_brackets_samples(theta, rng):
    for _ in range(20):
        lo = float(rng.uniform(-6, 4))
        hi = lo + float(rng.uniform(0.1, 4.0))
        dmin, dmax = theta.deriv_range(lo, hi)
        samples = theta.deriv(np.linspace(lo, hi, 300))
        assert dmin <= samples.min() + 1e-12 and samples.max() <= dmax + 1e-12
        assert dmin > 0


def test_composed_diffeo_consistency(rng):
    comp = ComposedDiffeo(affine(1.6, 0.35), sine(0.45))
    x = rng.uniform(-3, 3, size=50)
    assert np.allclose(comp(x), affine(1.6, 0.35)(sine(0.45)(x)))
    assert np.allclose(comp.inverse(comp(x)), x, atol=1e-12)
    h = 1e-6
    fd = (comp(x + h) - comp(x - h)) / (2 * h)
    assert np.max(np.abs(fd - comp.deriv(x))) < 1e-8


def test_tangent_blocks_assignment():
    y1 = point_set(5.0)
    assert len(tangent_blocks(y1, local_chart(y1, 0.3)).slots) == 1
    y = point_set(1.0, 2.0)
    chart = local_chart(y, 0.3)
    blocks = tangent_blocks(y, chart)
    assert blocks.point_of_block(0) == (2.0,)
    assert blocks.point_of_block(1) == (1.0,)


def test_tangent_blocks_transport():
    # the block at slot k moves to the image point under the induced map
    y = point_set(0.5, 2.0, 3.5)
    theta = sine(0.45)
    chart = local_chart(y, 0.3)
    moved = tangent_blocks(induced_diffeo(theta, y), chart.transported(theta))
    for k, p in tangent_blocks(y, chart).slots:
        assert abs(moved.point_of_block(k)[0] - float(theta(np.asarray(p[0])))) < 1e-15


@pytest.mark.parametrize("theta", CATALOG)
def test_transported_chart_is_the_atlas_image(theta, rng):
    for _ in range(10):
        base = np.cumsum(rng.uniform(1.0, 2.0, size=3))
        y = point_set(*base)
        chart = local_chart(y, 0.3)
        probe = point_set(*(base + rng.uniform(-0.2, 0.2, size=3)))
        moved_chart = chart.transported(theta)
        lhs = moved_chart.chart_map(induced_diffeo(theta, probe))
        rhs = chart.chart_map(probe)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_transported_chart_composes(rng):
    th1, th2 = soft(0.8, 0.9), sine(0.45)
    base = np.array([1.0, 2.5, 4.0])
    chart = local_chart(point_set(*base), 0.3)
    twice = chart.transported(th1).transported(th2)
    for _ in range(10):
        probe = point_set(*(base + rng.uniform(-0.2, 0.2, size=3)))
        moved = induced_diffeo(ComposedDiffeo(th2, th1), probe)
        coords = chart.chart_map(probe)
        assert np.max(np.abs(twice.chart_map(moved) - coords)) < 1e-12
        back = twice.inverse_map(coords)
        assert np.max(np.abs(np.subtract(back.values, moved.values))) < 1e-12


@pytest.mark.parametrize("theta", CATALOG)
def test_block_pullback_matches_per_point_law(theta, rng):
    for _ in range(10):
        n = int(rng.integers(1, 5))
        y = point_set(*np.cumsum(rng.uniform(1.0, 2.0, size=n)))
        gammas = rng.uniform(0.5, 3.0, size=n)
        fd, pred, off = block_pullback_vs_per_point(theta, y, gammas)
        assert np.max(np.abs(fd - pred) / np.abs(pred)) < 1e-10
        assert off < 1e-10


def test_chart_injectivity(rng):
    y = point_set(0.0, 1.0, 2.5)
    chart = local_chart(y, 0.3)
    base = chart.chart_map(y)
    for _ in range(200):
        a = base + rng.uniform(-0.25, 0.25, size=3)
        b = base + rng.uniform(-0.25, 0.25, size=3)
        if np.array_equal(a, b):
            continue
        assert chart.inverse_map(a) != chart.inverse_map(b)


def test_pointset_flat_requires_d1():
    y = project(PointTuple(((0.0, 1.0), (2.0, 3.0))))
    with pytest.raises(ValueError):
        _ = y.values


def test_planar_chart_roundtrip():
    y = project(PointTuple(((0.0, 1.0), (2.0, 3.0), (-1.5, 0.5))))
    chart = local_chart(y, 0.4)
    assert chart.inverse_map(chart.chart_map(y)) == y
    coords = chart.chart_map(y)
    assert coords.shape == (6,)
