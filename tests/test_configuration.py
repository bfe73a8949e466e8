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
    induced_diffeo_many,
    local_chart,
    point_set,
    project,
    sine,
    soft,
    sorted_chart,
)
from sigcone import configuration
from sigcone.configuration import _min_separation, jacobian_fd
from sigcone.harness import DEFAULT_CATALOG, SuiteConfig, run_suite

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
@example([(3.0,), (1e-12,), (-2.0,), (0.0,), (1.5,)])
@example([(0.5,), (-1.0,), (np.nextafter(1e-12, 1.0),), (2.0,), (0.0,)])
@example([(1.0,), (-0.0,), (2.0,), (0.0,)])
@example([(-4.0,), (4.0,), (-1e-9,), (0.0,), (1e-9,)])
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


def _refusal(build, values):
    """The exception type build(values) raises, or None when it accepts them."""
    try:
        build(values)
    except ValueError as err:
        return type(err)
    return None


def _chart_holding(values):
    """One open box per value, in input order, split at the midpoints of sorted neighbours; unit boxes
    (k, k + 1) when the values are not finite and distinct, and one unit box for no values."""
    s = sorted(values)
    if not s or not all(map(math.isfinite, s)) or len(set(s)) < len(s):
        n = max(len(values), 1)
        return Chart(tuple((float(k),) for k in range(n)), tuple((k + 1.0,) for k in range(n)))
    cuts = [s[0] - 1.0] + [0.5 * (a + b) for a, b in zip(s, s[1:])] + [s[-1] + 1.0]
    box = {v: (cuts[i], cuts[i + 1]) for i, v in enumerate(s)}
    return Chart(tuple((box[v][0],) for v in values), tuple((box[v][1],) for v in values))


_D1_CONSTRUCTORS = {
    "PointSet": lambda v: PointSet(tuple((x,) for x in v)),
    "PointTuple": lambda v: PointTuple(tuple((x,) for x in v)),
    "point_set": lambda v: point_set(*v),
    "induced_diffeo": lambda v: induced_diffeo(lambda _: np.array(v, float), point_set(*range(max(len(v), 1)))),
    "inverse_map": lambda v: _chart_holding(v).inverse_map(np.array(v, float)),
}
_BELOW, _ABOVE = np.nextafter(1e-12, 0.0), np.nextafter(1e-12, 1.0)


# a near-floor pair (0.0, +-delta) is planted apart in an unsorted list, next to each other once sorted
@pytest.mark.parametrize("values, refused, chart_refused", [
    ([1.0, math.nan, -2.0], ValueError, ChartDomainError),
    ([1.0, -2.0, math.inf], ValueError, ChartDomainError),
    ([-math.inf, 0.5], ValueError, ChartDomainError),
    ([], ValueError, ValueError),
    ([3.0, -1.0, _BELOW, 2.0, 0.0, -2.5], DuplicatePointError, DuplicatePointError),
    ([3.0, -1.0, 1e-12, 2.0, 0.0, -2.5], DuplicatePointError, DuplicatePointError),
    ([3.0, -1.0, -1e-12, 2.0, 0.0, -2.5], DuplicatePointError, DuplicatePointError),
    ([3.0, -1.0, _ABOVE, 2.0, 0.0, -2.5], None, None),
    ([3.0, -1.0, -_ABOVE, 2.0, 0.0, -2.5], None, None),
    ([2.0, 0.0, 1.0, -0.0], DuplicatePointError, ChartDomainError),
])
def test_d1_constructors_refuse_the_same_inputs(values, refused, chart_refused):
    """PointSet, PointTuple, point_set and induced_diffeo validate through _points and raise one type;
    inverse_map does too once its coordinates lie in the chart, and no chart of disjoint finite open
    boxes holds a non-finite coordinate or two equal ones."""
    for name, build in _D1_CONSTRUCTORS.items():
        assert _refusal(build, values) is (chart_refused if name == "inverse_map" else refused), name


def _general_points(points):
    """Reference: the validator's path for every dimension d, on per-point tuples; (as given, decreasing)."""
    pts = tuple(tuple(map(float, p)) for p in points)
    if not pts:
        raise ValueError("need at least one point")
    d = len(pts[0])
    if not d:
        raise ValueError("points need at least one coordinate")
    if any(len(p) != d for p in pts):
        raise ValueError("points of mixed dimension")
    if not all(math.isfinite(x) for p in pts for x in p):
        raise ValueError("point coordinates must be finite")
    desc = tuple(sorted(pts, reverse=True))
    if len(desc) > 1 and _pairwise_min_separation(desc) <= MIN_POINT_SEPARATION:
        raise DuplicatePointError("points closer than 1e-12 in max norm")
    return pts, desc


def _outcome(build, points):
    """The float tuples build returns with the sign of every coordinate, or the type and message it raises."""
    try:
        got = build(points)
    except ValueError as err:
        return type(err), str(err)
    return got, [[math.copysign(1.0, x) for x in p] for p in got]


@st.composite
def _d1_inputs(draw):
    """N = 0..6 one-coordinate points as tuples, lists or 1-element arrays of floats, ints or np.float64;
    zeros of both signs, near-floor gaps and non-finite values are common."""
    x = (st.floats(-4.0, 4.0) | st.sampled_from([0.0, -0.0, 1e-12, _ABOVE, -_BELOW, math.inf, math.nan])
         | st.integers(-3, 3))
    pts = []
    for v in draw(st.lists(x, max_size=6)):
        v = draw(st.sampled_from([lambda v: v, np.float64]))(v)
        pts.append(draw(st.sampled_from([lambda v: (v,), lambda v: [v], lambda v: np.array([v])]))(v))
    return pts


@given(_d1_inputs())
@example([(-0.0,)])
@example([[-0.0]])
@example([np.array([-0.0]), (2,)])
@example([(1.0,), (2.0, 3.0)])
@example([(1.0,), ()])
def test_d1_points_equal_the_general_path(points):
    """The flat d = 1 path of _points returns the general path's float tuples, zero signs included, and
    refuses what it refuses with the same type and message."""
    for cls, field, k in ((PointSet, "canonical", 1), (PointTuple, "points", 0)):
        got = _outcome(lambda p: getattr(cls(tuple(p)), field), points)
        assert got == _outcome(lambda p: _general_points(p)[k], points), cls.__name__


def test_lone_negative_zero_keeps_its_sign():
    for y in (PointSet(((-0.0,),)).canonical, PointTuple(((-0.0,),)).points, point_set(-0.0).canonical):
        assert y == ((0.0,),) and math.copysign(1.0, y[0][0]) == -1.0


def test_mixed_dimensions_are_refused():
    for cls in (PointSet, PointTuple):
        with pytest.raises(ValueError, match="points of mixed dimension"):
            cls([(1.0,), (2.0, 3.0)])


def _open_boxes_meet(lo, hi):
    """Oracle: some pair of open boxes shares a point, checked one pair at a time."""
    return any(all(max(a, c) < min(b, e) for a, b, c, e in zip(lo[i], hi[i], lo[j], hi[j]))
               for i in range(len(lo)) for j in range(i + 1, len(lo)))


@st.composite
def _intervals(draw):
    """N = 1..6 open intervals in random order; ends on a half-integer grid repeat often, so shared
    lower corners and touching ends hi_i == lo_j are common."""
    end = st.integers(-8, 8).map(lambda k: k / 2) | st.floats(-4.0, 4.0)
    lo = [draw(end) for _ in range(draw(st.integers(1, 6)))]
    hi = [a + draw(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(1e-6, 3.0)) for a in lo]
    return [((a,), (b,)) for a, b in zip(lo, hi)]


@given(_intervals())
@example([((0.0,), (1.0,)), ((1.0,), (2.0,))])
@example([((0.0,), (1.0,)), ((0.0,), (0.5,))])
@example([((0.0,), (1.0,)), ((5.0,), (6.0,)), ((0.5,), (2.0,))])
@example([((2.0,), (3.0,)), ((-1.0,), (0.0,)), ((0.0,), (2.0,)), ((3.0,), (3.5,))])
def test_d1_chart_disjointness_matches_pairwise_oracle(boxes):
    lo, hi = tuple(b[0] for b in boxes), tuple(b[1] for b in boxes)
    if _open_boxes_meet(lo, hi):
        with pytest.raises(ValueError, match="pairwise disjoint"):
            Chart(lo, hi)
    else:
        assert Chart(lo, hi).n == len(boxes)


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
    assert np.max(np.abs(theta.inverse(theta(np.asarray(y))) - y)) < 1e-10


@pytest.mark.parametrize(
    "theta",
    [sine(0.45), soft(0.8, 0.9), affine(1.6, 0.35), ComposedDiffeo(soft(0.8, 0.9), sine(0.45)), identity(),
     affine(0.7, -0.8)],
    ids=["sine", "soft", "affine", "soft-after-sine", "identity", "affine-contracting"],
)
@pytest.mark.filterwarnings("error")
def test_inverse_is_per_element(theta, rng):
    # an element's inverse, value and derivative must not depend on the other elements of the array, as
    # induced_diffeo_many and pull_back_sets map many point sets in one call; far out cosh(k y)
    # overflows, which must not warn on this valid input
    y = np.concatenate([rng.uniform(-1e3, 1e3, 20), rng.uniform(-1.0, 1.0, 20)])
    x = theta.inverse(y)
    assert x.tolist() == [theta.inverse(v) for v in y]
    assert np.all(np.abs(theta(x) - y) <= 1e-14 * (1.0 + np.abs(y)))
    for f in (theta, theta.deriv):
        assert f(y).tolist() == [float(f(v)) for v in y] == [f(np.array([v]))[0] for v in y]


@pytest.mark.parametrize("theta", CATALOG + [ComposedDiffeo(soft(0.8, 0.9), sine(0.45))])
def test_deriv_range_brackets_samples(theta, rng):
    for _ in range(20):
        lo = float(rng.uniform(-6, 4))
        hi = lo + float(rng.uniform(0.1, 4.0))
        dmin, dmax = theta.deriv_range(lo, hi)
        samples = theta.deriv(np.linspace(lo, hi, 300))
        assert dmin <= samples.min() + 1e-12 and samples.max() <= dmax + 1e-12
        assert dmin > 0


def _sine_deriv_range_loop(a, lo, hi):
    """Reference: the sine bounds with one candidate per multiple of pi in [lo, hi]."""
    cands = [math.cos(lo), math.cos(hi)]
    for mult in range(math.ceil(lo / math.pi), math.floor(hi / math.pi) + 1):
        cands.append(1.0 if mult % 2 == 0 else -1.0)
    vals = [1.0 + a * c for c in cands]
    return min(vals), max(vals)


@given(st.floats(-0.99, 0.99), st.floats(-20.0, 20.0), st.floats(0.0, 20.0) | st.sampled_from([0.0, math.pi]))
@example(0.45, 0.0, 0.0)
@example(0.45, math.pi, math.pi)
@example(-0.45, -math.pi, 2 * math.pi)
@example(0.45, 0.5, 2.0)
def test_sine_deriv_range_equals_the_loop_over_every_multiple_of_pi(a, lo, width):
    hi = lo + width
    assert sine(a).deriv_range(lo, hi) == _sine_deriv_range_loop(a, lo, hi)


def test_sine_deriv_range_of_a_wide_interval_takes_two_multiples_of_pi():
    # one candidate per multiple of pi would build a list of 6e11 floats here
    for a in (0.45, -0.45, 0.0):
        assert sine(a).deriv_range(-1e12, 1e12) == (1.0 - abs(a), 1.0 + abs(a))


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
    per_box = ComposedDiffeo(th2, th1)
    for _ in range(10):
        moved = induced_diffeo(ComposedDiffeo(th2, th1), point_set(*(base + rng.uniform(-0.2, 0.2, size=3))))
        boxed = [[p for p in moved.canonical if lo[0] < p[0] < hi[0]] for lo, hi in zip(twice.lo, twice.hi)]
        coords = twice.chart_map(moved)
        assert coords.tolist() == [float(per_box.inverse(np.asarray(p[0]))) for (p,) in boxed]
        expected = point_set(*[float(per_box(np.asarray(c))) for c in coords])
        assert twice.inverse_map(coords) == expected


@pytest.mark.parametrize("theta", CATALOG)
def test_block_pullback_matches_per_point_law(theta, rng):
    ys, gammas = [], []
    for _ in range(10):
        n = int(rng.integers(1, 5))
        ys.append(point_set(*np.cumsum(rng.uniform(1.0, 2.0, size=n))))
        gammas.append(rng.uniform(0.5, 3.0, size=n))
    for fd, pred, off in block_pullback_vs_per_point(theta, ys, gammas):
        assert np.max(np.abs(fd - pred) / np.abs(pred)) < 1e-10
        assert off < 1e-10


def _block_pullback_per_case(theta, y, gammas):
    """Reference: block_pullback_vs_per_point for one case, one inverse, map and derivative call of its own
    and one map call per perturbed point, each through two PointSets, as the check was first written."""
    y_pre = PointSet(tuple([(v,) for v in np.asarray(theta.inverse(np.array(y.values)), float).tolist()]))
    x_pre = np.asarray(y_pre.values)

    def expr(coords):
        moved = np.asarray(theta(np.array(point_set(*coords.tolist()).values)), float).tolist()
        return np.asarray(PointSet(tuple([(v,) for v in moved])).values)

    jac = _jacobian_fd_per_column(expr, x_pre)
    big = jac.T @ np.diag(np.asarray(gammas, float)) @ jac
    fd_blocks = np.diag(big).copy()
    off = big - np.diag(np.diag(big))
    predicted = np.asarray(gammas, float) * np.asarray(theta.deriv(x_pre)) ** 2
    return fd_blocks, predicted, float(np.abs(off).max() if off.size else 0.0)


@pytest.mark.parametrize("theta", [*DEFAULT_CATALOG, ComposedDiffeo(soft(0.8, 0.9), sine(0.45))])
def test_block_pullback_equals_the_per_case_reference_bit_for_bit(theta, rng):
    """One call on cases of every size n = 1..5, in shuffled order, gives each case the bytes of the
    per-case reference."""
    sizes = rng.permutation(np.repeat(np.arange(1, 6), 3))
    ys = [point_set(*rng.uniform(-1.0, 1.0) + np.cumsum(rng.uniform(0.31, 2.0, size=n))) for n in sizes]
    gammas = [rng.uniform(0.5, 3.0, size=n) for n in sizes]
    for got, y, g in zip(block_pullback_vs_per_point(theta, ys, gammas), ys, gammas, strict=True):
        want = _block_pullback_per_case(theta, y, g)
        assert [a.tobytes() for a in got[:2]] == [a.tobytes() for a in want[:2]]
        assert got[2] == want[2]


def test_batched_forms_refuse_what_the_one_set_forms_refuse():
    plane = PointSet(((1.0, 2.0),))
    with pytest.raises(ValueError, match="induced maps are implemented over the line"):
        induced_diffeo(sine(0.45), plane)
    with pytest.raises(ValueError, match="induced maps are implemented over the line"):
        induced_diffeo_many(sine(0.45), [point_set(1.0), plane])
    with pytest.raises(ValueError, match="implemented over the line"):
        block_pullback_vs_per_point(sine(0.45), [point_set(1.0), plane], [np.ones(1), np.ones(1)])
    with pytest.raises(ValueError, match="gamma vectors"):
        block_pullback_vs_per_point(sine(0.45), [point_set(1.0), point_set(2.0)], [np.ones(1)])
    with pytest.raises(ValueError, match="gamma vectors"):
        block_pullback_vs_per_point(sine(0.45), [point_set(1.0)], [np.ones(1)] * 2)
    with pytest.raises(ValueError, match="returned 1 values for 2 points"):
        induced_diffeo_many(lambda v: v[:1], [point_set(1.0), point_set(2.0)])
    assert list(induced_diffeo_many(sine(0.45), [])) == []
    assert block_pullback_vs_per_point(sine(0.45), [], []) == []
    assert jacobian_fd(lambda rows: list(rows), []) == []


@st.composite
def _point_set_lists(draw):
    """0..6 point sets of 1..5 points each, at most 5 apart from their neighbours and at least 1e-3."""
    out = []
    for n in draw(st.lists(st.integers(1, 5), max_size=6)):
        start = draw(st.floats(-20.0, 20.0))
        gaps = draw(st.lists(st.floats(1e-3, 5.0), min_size=n - 1, max_size=n - 1))
        out.append(point_set(*np.cumsum([start, *gaps])))
    return out


@given(_point_set_lists(), st.sampled_from([*DEFAULT_CATALOG, ComposedDiffeo(soft(0.8, 0.9), sine(0.45))]),
       st.booleans())
def test_induced_diffeo_many_equals_one_call_per_set(ys, theta, inverse):
    """The batched induced map, read from a generator of sets, gives every set the floats of its own call,
    zero signs included, for the catalog maps and their inverses; the one-set form is the same as the
    per-set reference."""
    f = theta.inverse if inverse else theta

    def bits(y):
        return [x.hex() for (x,) in y.canonical]

    per_set = [PointSet(tuple([(v,) for v in np.asarray(f(np.array(y.values)), float).tolist()])) for y in ys]
    assert [bits(y) for y in induced_diffeo_many(f, (y for y in ys))] == [bits(y) for y in per_set]
    assert [bits(induced_diffeo(f, y)) for y in ys] == [bits(y) for y in per_set]


def test_block_pullback_inverts_once_per_map(monkeypatch):
    """A default chart-atlas run: the block-pullback check makes one Newton inverse call per non-affine
    catalog map, so the run makes 2 there and 1000 in the transported-chart check."""
    calls, inside = [], []
    newton, check = configuration._monotone_inverse, configuration.block_pullback_vs_per_point

    def counted_newton(theta, y):
        calls.append(theta)
        return newton(theta, y)

    def counted_check(theta, ys, gammas):
        before = len(calls)
        out = check(theta, ys, gammas)
        inside.append(len(calls) - before)
        return out

    monkeypatch.setattr(configuration, "_monotone_inverse", counted_newton)
    monkeypatch.setattr(configuration, "block_pullback_vs_per_point", counted_check)
    run_suite("chart-atlas", SuiteConfig(seed=20240613, nodes_per_dim=16, trials=10000))
    assert inside == [0, 0, 1, 1]  # affine(1.6, 0.35), affine(0.7, -0.8), soft(0.8, 0.9), sine(0.45)
    assert len(calls) == 1002


def _jacobian_fd_per_column(func, x):
    """Reference: jacobian_fd one column at a time."""
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = 1.0

        def col(step):
            h = step * e
            return (func(x + h) - func(x - h)) / (2.0 * step)

        c1, c2 = col(1e-4), col(1e-4 / 2.0)
        cols.append((4.0 * c2 - c1) / 3.0)
    return np.column_stack(cols)


def _same_bits(got, want):
    return got.shape == want.shape and got.flags.c_contiguous and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("theta", [*DEFAULT_CATALOG, ComposedDiffeo(soft(0.8, 0.9), sine(0.45))])
def test_jacobian_fd_equals_the_per_column_loop_bit_for_bit(theta, rng, monkeypatch):
    """All points at once, n = 1..5 mixed in one call: through block_pullback_vs_per_point's own expr, on a
    dense linear map of each size, and on a rough dense map: smooth maps lose the low bits of their
    differences to cancellation, its differences keep every bit.  func is called once per jacobian_fd call."""
    calls = []
    monkeypatch.setattr(configuration, "jacobian_fd",
                        lambda func, xs: calls.append((func, xs)) or jacobian_fd(func, xs))
    sizes = [*range(1, 6), *range(5, 0, -1)]
    block_pullback_vs_per_point(theta, [point_set(*np.cumsum(rng.uniform(1.0, 2.0, size=n))) for n in sizes],
                                [np.ones(n) for n in sizes])
    ((expr, xs),) = calls
    dense = {n: rng.uniform(-1.0, 1.0, size=(n + 1, n)) for n in range(1, 6)}
    maps = (lambda v: np.asarray(next(expr([v.tolist()]))), lambda v: dense[v.size] @ v,
            lambda v: np.sin(1e4 * (dense[v.size] @ v)))
    for f in maps:
        seen = []

        def many(rows):
            rows = list(rows)
            seen.append(len(rows))
            return [f(np.array(r)) for r in rows]

        jacs = jacobian_fd(many, xs)
        assert seen == [4 * sum(sizes)]
        for jac, x, n in zip(jacs, xs, sizes, strict=True):
            assert len(x) == n and _same_bits(jac, _jacobian_fd_per_column(f, np.asarray(x, float)))
    for jac, x in zip(jacobian_fd(lambda rows: [dense[len(r)] @ r for r in rows], xs), xs):
        assert np.allclose(jac, dense[len(x)], rtol=0.0, atol=1e-10)


def test_one_metric_pull_back_is_checked_by_chart_atlas(monkeypatch):
    """hspace and kspace scale gamma by the function chart-atlas checks, so scaling by theta' fails a suite row."""
    from sigcone import configuration, harness, hspace, kspace

    assert hspace.pulled_back_metric is kspace.pulled_back_metric is configuration.pulled_back_metric
    monkeypatch.setattr(configuration, "pulled_back_metric", lambda gamma, dtheta: gamma * dtheta)
    result = harness.run_suite("chart-atlas", harness.SuiteConfig(trials=50, nodes_per_dim=16))
    assert [r.case_id for r in result.rows if not r.verdict] == ["block-pullback[10]"]


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
