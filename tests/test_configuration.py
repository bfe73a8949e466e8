import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from sigcone.configuration import (
    MIN_POINT_SEPARATION,
    Chart,
    ChartDomainError,
    ComposedDiffeo,
    Diffeo1D,
    DuplicatePointError,
    PointSet,
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
)
from sigcone.configuration import _min_separation

CATALOG = [affine(1.6, 0.35), affine(0.7, -0.8), soft(0.8, 0.9), sine(0.45)]


def test_project_examples():
    t = PointTuple(((3.0,), (1.0,), (2.0,)))
    assert project(t).values == (3.0, 2.0, 1.0)
    canon = PointTuple(((3.0,), (2.0,), (1.0,)))
    assert project(canon).canonical == project(t).canonical
    with pytest.raises(DuplicatePointError):
        PointTuple(((1.0,), (1.0,)))


def test_project_collapses_all_permutations(rng):
    for d in (1, 2):
        pts = tuple(tuple(float(x) for x in p) for p in rng.uniform(-5, 5, size=(4, d)))
        results = set()
        for perm in itertools.permutations(range(4)):
            t = PointTuple(tuple(pts[i] for i in perm))
            assert PointSet(t.points) == project(t)
            results.add(project(t))
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


@pytest.mark.parametrize(
    "points, error",
    [
        (((1.0,), (1.0,)), DuplicatePointError),
        ((), ValueError),
        (((math.nan,),), ValueError),
        (((math.inf,), (0.0,)), ValueError),
        (((),), ValueError),
        (((), ()), ValueError),
    ],
)
def test_pointset_refuses_bad_points(points, error):
    with pytest.raises(error):
        PointSet(points)


def test_pointtuple_refuses_nan():
    with pytest.raises(ValueError):
        PointTuple(((math.nan,), (math.nan,)))


def _pairwise_min_separation(pts):
    """Oracle: the smallest max-norm distance over all pairs, one pair at a time."""
    best = math.inf
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            best = min(best, max(abs(a - b) for a, b in zip(pts[i], pts[j])))
    return best


_NEAR_FLOOR = (np.nextafter(MIN_POINT_SEPARATION, 0.0), MIN_POINT_SEPARATION, np.nextafter(MIN_POINT_SEPARATION, 1.0))


@st.composite
def _point_lists(draw):
    """d = 1..3, N = 2..8; coordinates repeat often, and one pair may be planted
    at max-norm distance 1e-12 or one ulp either side, differing in one axis."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 8))
    coord = st.floats(-4.0, 4.0) | st.sampled_from([0.0, 1.0, -1.0])
    pts = [[draw(coord) for _ in range(d)] for _ in range(n)]
    if draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        k = draw(st.integers(0, d - 1))
        pts[j] = list(pts[i])
        pts[i][k] = 0.0
        pts[j][k] = draw(st.sampled_from(_NEAR_FLOOR)) * draw(st.sampled_from([1.0, -1.0]))
    return [tuple(p) for p in pts]


@given(_point_lists())
@example([(0.0,), (1e-12,)])
@example([(0.0,), (np.nextafter(1e-12, 1.0),), (3.0,)])
@example([(2.0, 0.0), (2.0, np.nextafter(1e-12, 0.0)), (-1.0, 5.0)])
@example([(1.0, 0.0, 2.0), (1.0, 0.0, 2.0 + 1e-9), (1.0, 3.0, 2.0)])
def test_min_separation_matches_pairwise_oracle(pts):
    oracle = _pairwise_min_separation(pts)
    assert _min_separation(pts) == oracle
    for cls in (PointSet, PointTuple):
        try:
            cls(tuple(pts))
            accepted = True
        except DuplicatePointError:
            accepted = False
        assert accepted == (oracle > MIN_POINT_SEPARATION)


def test_inverse_map_refuses_nan_coordinates():
    chart = local_chart(point_set(1.0, 4.0), 1.0)
    with pytest.raises(ValueError):
        chart.inverse_map([math.nan, 1.0])


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


@pytest.mark.parametrize("lo, hi", [(((math.nan,),), ((1.0,),)), (((0.0,),), ((math.inf,),))])
def test_chart_refuses_non_finite_corners(lo, hi):
    with pytest.raises(ValueError, match="finite"):
        Chart(lo, hi)


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


@pytest.mark.parametrize("tag, params", [
    ("soft", (float("nan"), 1.0)), ("soft", (1.0, float("inf"))),
    ("affine", (1.0, float("inf"))), ("affine", (float("inf"), 0.0)), ("sine", (float("nan"),)),
])
def test_diffeo_refuses_non_finite_parameters(tag, params):
    # json reads NaN and Infinity, so these reached the suites through --config
    with pytest.raises(ValueError, match="finite"):
        Diffeo1D(tag, params)


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


@pytest.mark.parametrize(
    "theta",
    [sine(0.45), soft(0.8, 0.9), affine(1.6, 0.35), ComposedDiffeo(soft(0.8, 0.9), sine(0.45)), inverse_diffeo(sine(0.45))],
    ids=["sine", "soft", "affine", "soft-after-sine", "sine-inverse"],
)
@pytest.mark.filterwarnings("error")
def test_inverse_is_per_element(theta, rng):
    # an element's inverse must not depend on the other elements of the array;
    # far out cosh(k y) overflows, which must not warn on this valid input
    y = np.concatenate([rng.uniform(-1e3, 1e3, 20), rng.uniform(-1.0, 1.0, 20)])
    x = theta.inverse(y)
    assert x.tolist() == [theta.inverse(v) for v in y]
    assert np.all(np.abs(theta(x) - y) <= 1e-14 * (1.0 + np.abs(y)))


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


def test_one_map_chart_matches_per_box_composition(rng):
    # a chart transported twice carries one map; the same map applied box by
    # box, one coordinate per call, must give the same floats
    th1, th2 = soft(0.8, 0.9), sine(0.45)
    base = np.array([1.0, 2.5, 4.0])
    twice = local_chart(point_set(*base), 0.3).transported(th1).transported(th2)
    per_box = ComposedDiffeo(inverse_diffeo(th1), inverse_diffeo(th2))
    for _ in range(10):
        moved = induced_diffeo(ComposedDiffeo(th2, th1), point_set(*(base + rng.uniform(-0.2, 0.2, size=3))))
        boxed = [[p for p in moved.canonical if lo[0] < p[0] < hi[0]] for lo, hi in zip(twice.lo, twice.hi)]
        coords = twice.chart_map(moved)
        assert coords.tolist() == [float(per_box(np.asarray(p[0]))) for (p,) in boxed]
        expected = point_set(*[float(per_box.inverse(np.asarray(c))) for c in coords])
        assert twice.inverse_map(coords) == expected


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
