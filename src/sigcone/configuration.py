"""The manifold of N-element point subsets of R^d.

Ordered tuples of distinct points project onto unordered subsets; charts come
from products of disjoint boxes, one per point, and transition maps between
such charts are block permutations composed with per-block coordinate
changes.  For d = 1 the decreasing arrangement is a single global chart, and
every increasing diffeomorphism of the line acts on subsets point by point.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

MIN_POINT_SEPARATION = 1e-12

Point = tuple[float, ...]


class DuplicatePointError(ValueError):
    """Two points closer than the resolution floor."""


class ChartDomainError(ValueError):
    """A point set does not place exactly one point in every chart box."""


def _points(points, canonical: bool) -> tuple[tuple[Point, ...], tuple[float, ...] | None]:
    """The one point validator: float tuples of one dimension, finite, separated, sorted once and returned
    in decreasing order (canonical) or as given, with, for d = 1, the flat floats they were checked as."""
    points = tuple(points)
    try:
        v = [float(x) for (x,) in points]
    except (TypeError, ValueError):
        v = None  # not one float per point: the general path raises the error
    if v:
        desc = sorted(v, reverse=True)
        # a NaN fails every gap test and an infinity leaves the span non-finite; only then is the cause sought
        ok, a = math.isfinite(desc[0] - desc[-1]), desc[0]
        for b in desc[1:]:
            ok, a = ok and a - b > MIN_POINT_SEPARATION, b
        if not (ok or all(map(math.isfinite, v))):
            raise ValueError("point coordinates must be finite")
        if not ok and min(map(operator.sub, desc, desc[1:]), default=math.inf) <= MIN_POINT_SEPARATION:
            raise DuplicatePointError("points closer than 1e-12 in max norm")
        flat = tuple(desc if canonical else v)
        return tuple(zip(flat)), flat
    pts = tuple([tuple(map(float, p)) for p in points])
    if not pts:
        raise ValueError("need at least one point")
    d = len(pts[0])
    if not d:
        raise ValueError("points need at least one coordinate")
    if any([len(p) != d for p in pts]):
        raise ValueError("points of mixed dimension")
    if not all(map(math.isfinite, [x for p in pts for x in p])):
        raise ValueError("point coordinates must be finite")
    desc = tuple(sorted(pts, reverse=True))
    if len(desc) > 1 and _separation(desc) <= MIN_POINT_SEPARATION:
        raise DuplicatePointError("points closer than 1e-12 in max norm")
    return (desc if canonical else pts), None


def _min_separation(pts: Sequence[Point]) -> float:
    """The exact smallest pairwise max-norm distance of points in any order."""
    return _separation(sorted(pts, reverse=True))


def _separation(desc: Sequence[Point]) -> float:
    """_min_separation of points in decreasing order.  For d = 1 it is the smallest
    gap between neighbours; for d > 1 a sweep from each p stops once p[0] - q[0]
    (a lower bound, growing along it) reaches the best."""
    if len(desc[0]) == 1:
        v = [x for (x,) in desc]
        return min(map(operator.sub, v, v[1:]), default=math.inf)
    best = math.inf
    for i, p in enumerate(desc):
        for j in range(i + 1, len(desc)):
            q = desc[j]
            if p[0] - q[0] >= best:
                break
            best = min(best, max(map(abs, map(operator.sub, p, q))))
    return best


@dataclass(frozen=True)
class PointTuple:
    """An ordered tuple of pairwise distinct points."""

    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", _points(self.points, canonical=False)[0])


@dataclass(frozen=True)
class PointSet:
    """An unordered point subset; construction sorts it into canonical order.

    For d = 1 the canonical order is strictly decreasing; for d > 1 it is
    lexicographically decreasing (a chart-independent bookkeeping choice).
    """

    canonical: tuple[Point, ...]
    _values: tuple[float, ...] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        attrs = self.__dict__  # frozen: set past __setattr__
        attrs["canonical"], attrs["_values"] = _points(self.canonical, canonical=True)

    @property
    def n(self) -> int:
        return len(self.canonical)

    @property
    def d(self) -> int:
        return len(self.canonical[0])

    @property
    def values(self) -> tuple[float, ...]:
        """Flat decreasing coordinates, the floats the validator sorted; only meaningful for d = 1."""
        if self._values is None:
            raise ValueError("flat coordinates are defined for d = 1")
        return self._values


def project(t: PointTuple) -> PointSet:
    """Forget the ordering; permuting the input does not change the output."""
    return PointSet(t.points)


def point_set(*coords) -> PointSet:
    """Convenience constructor from unordered scalar coordinates (d = 1)."""
    return PointSet(tuple(zip(coords)))


def sorted_chart(y: PointSet) -> tuple[float, ...]:
    """Global coordinates of a d = 1 subset: its strictly decreasing tuple."""
    return y.values


# -- 1-D diffeomorphisms -------------------------------------------------------


@dataclass(frozen=True)
class Diffeo1D:
    """A strictly increasing smooth map of the line from a closed-form catalog.

    Tags: "identity"; "affine" (a, b) with a > 0 for x -> a x + b;
    "soft" (a, k) for x -> x + a tanh(k x), requiring a k > -1 and a k != 0
    allowed; "sine" (a) with |a| < 1 for x -> x + a sin x.  Values and
    derivatives are closed-form; inverses of the non-affine families are
    computed by a safeguarded Newton iteration to machine precision.
    """

    tag: str
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.params)):
            raise ValueError(f"{self.tag} parameters must be finite")
        if self.tag == "identity":
            if self.params:
                raise ValueError("identity takes no parameters")
        elif self.tag == "affine":
            if len(self.params) != 2 or not self.params[0] > 0:
                raise ValueError("affine needs (a, b) with a > 0")
        elif self.tag == "soft":
            if len(self.params) != 2 or self.params[0] * self.params[1] <= -1:
                raise ValueError("soft needs (a, k) with a*k > -1")
        elif self.tag == "sine":
            if len(self.params) != 1 or not abs(self.params[0]) < 1:
                raise ValueError("sine needs (a,) with |a| < 1")
        else:
            raise ValueError(f"unknown diffeomorphism tag {self.tag!r}")

    def __call__(self, x):
        x = np.asarray(x, float)
        if self.tag == "identity":
            return x + 0.0
        if self.tag == "affine":
            a, b = self.params
            return a * x + b
        if self.tag == "soft":
            a, k = self.params
            return x + a * np.tanh(k * x)
        (a,) = self.params
        return x + a * np.sin(x)

    def deriv(self, x):
        x = np.asarray(x, float)
        if self.tag == "identity":
            return np.ones_like(x)
        if self.tag == "affine":
            return np.full_like(x, self.params[0])
        if self.tag == "soft":
            a, k = self.params
            with np.errstate(over="ignore"):  # cosh overflows for |kx| > 710, where sech^2 is rightly 0
                return 1.0 + a * k / np.cosh(k * x) ** 2
        (a,) = self.params
        return 1.0 + a * np.cos(x)

    def inverse(self, y):
        y = np.asarray(y, float)
        if self.tag == "identity":
            return y + 0.0
        if self.tag == "affine":
            a, b = self.params
            return (y - b) / a
        return _monotone_inverse(self, y)

    def deriv_range(self, lo: float, hi: float) -> tuple[float, float]:
        """Exact bounds of the derivative over [lo, hi]."""
        if self.tag == "identity":
            return 1.0, 1.0
        if self.tag == "affine":
            a = self.params[0]
            return a, a
        if self.tag == "soft":
            a, k = self.params
            # sech^2(kx) is even and decreases in |x|
            far = max(abs(lo), abs(hi))
            near = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
            with np.errstate(over="ignore"):
                g_hi = 1.0 / np.cosh(k * near) ** 2
                g_lo = 1.0 / np.cosh(k * far) ** 2
            vals = (1.0 + a * k * g_lo, 1.0 + a * k * g_hi)
            return min(vals), max(vals)
        (a,) = self.params
        cands = [math.cos(lo), math.cos(hi)]
        # cos is +-1 at the multiples of pi inside the interval; the first two give both signs
        first, last = math.ceil(lo / math.pi), math.floor(hi / math.pi)
        cands += [1.0 if mult % 2 == 0 else -1.0 for mult in range(first, min(first + 2, last + 1))]
        vals = [1.0 + a * c for c in cands]
        return min(vals), max(vals)


def _monotone_inverse(theta, y: np.ndarray) -> np.ndarray:
    """Invert a strictly increasing map by safeguarded Newton iteration, per element: an array call returns, bit
    for bit, the floats of one call per element (hspace.pullback inverts all its x boxes in one call)."""
    y = np.asarray(y, float)
    scalar = y.ndim == 0
    y = np.atleast_1d(y).astype(float)
    # the catalog maps satisfy |theta(x) - x| <= slack on the whole line
    slack = np.abs(theta(y) - y) + 1.0
    lo = y - slack
    hi = y + slack
    while (out := theta(lo) > y).any():
        lo = np.where(out, lo - slack, lo)
    while (out := theta(hi) < y).any():
        hi = np.where(out, hi + slack, hi)
    x = y.copy()
    tol = 1e-14 * (1.0 + np.abs(y))
    for _ in range(100):
        fx = theta(x) - y
        done = np.abs(fx) <= tol
        if done.all():
            break
        below = fx < 0
        lo = np.where(below, np.maximum(lo, x), lo)
        hi = np.where(below, hi, np.minimum(hi, x))
        x_new = x - fx / theta.deriv(x)
        if (bad := (x_new < lo) | (x_new > hi)).any():
            x_new = np.where(bad, 0.5 * (lo + hi), x_new)
        x = np.where(done, x, x_new)
    return float(x[0]) if scalar else x


@dataclass(frozen=True)
class ComposedDiffeo:
    """outer after inner; inherits values, derivatives and inverses."""

    outer: "Diffeo1D | ComposedDiffeo"
    inner: "Diffeo1D | ComposedDiffeo"

    def __call__(self, x):
        return self.outer(self.inner(x))

    def deriv(self, x):
        return self.outer.deriv(self.inner(x)) * self.inner.deriv(x)

    def inverse(self, y):
        return self.inner.inverse(self.outer.inverse(y))

    def deriv_range(self, lo: float, hi: float) -> tuple[float, float]:
        ilo, ihi = self.inner.deriv_range(lo, hi)
        a, b = float(self.inner(lo)), float(self.inner(hi))
        olo, ohi = self.outer.deriv_range(a, b)
        vals = [ilo * olo, ilo * ohi, ihi * olo, ihi * ohi]
        return min(vals), max(vals)


def identity() -> Diffeo1D:
    return Diffeo1D("identity")


def affine(a: float, b: float) -> Diffeo1D:
    return Diffeo1D("affine", (a, b))


def soft(a: float, k: float) -> Diffeo1D:
    return Diffeo1D("soft", (a, k))


def sine(a: float) -> Diffeo1D:
    return Diffeo1D("sine", (a,))


def pulled_back_metric(gamma, dtheta):
    """The 1-D scalar product gamma pulled back through a map of derivative dtheta: theta'^2 gamma."""
    return gamma * dtheta**2


def induced_diffeo(theta: Callable, y: PointSet) -> PointSet:
    """Apply a 1-D diffeomorphism point by point and re-canonicalize."""
    return next(induced_diffeo_many(theta, [y]))


def induced_diffeo_many(theta: Callable, ys: Iterable[PointSet]) -> Iterator[PointSet]:
    """induced_diffeo of every subset in ys, in order, from one theta call on all their coordinates, so theta
    must act per element, as the catalog maps and their inverses do.  ys is read once, before the call, into
    one float array, and each image PointSet is built when the returned iterator reaches it, so a long
    stream of subsets is never held as Python objects."""
    sizes = []

    def coords(y: PointSet) -> tuple[float, ...]:
        if y.d != 1:
            raise ValueError("induced maps are implemented over the line")
        sizes.append(y.n)
        return y.values

    out = np.asarray(theta(np.fromiter(itertools.chain.from_iterable(map(coords, ys)), float)), float)
    if out.shape != (sum(sizes),):
        raise ValueError(f"the map returned {out.size} values for {sum(sizes)} points")
    ends = itertools.accumulate(sizes)
    return (PointSet(tuple(zip(out[e - n:e].tolist()))) for n, e in zip(sizes, ends))


def pull_back_sets(theta, ys: Sequence[PointSet]) -> tuple[list[PointSet], list[np.ndarray]]:
    """The pre-images theta^{-1}(y) of many subsets and theta' at each pre-image's points, in canonical
    order, from one theta.inverse and one theta.deriv call."""
    pre = list(induced_diffeo_many(theta.inverse, ys))
    d = np.asarray(theta.deriv(np.array([v for x in pre for v in x.values], float)))
    return pre, np.split(d, np.cumsum([x.n for x in pre])[:-1])


# -- local charts ---------------------------------------------------------------


@dataclass(frozen=True)
class Chart:
    """Disjoint open boxes, one per point, possibly moved by a diffeomorphism.

    The chart map sends a subset with exactly one point in every box to the
    concatenation of its points' coordinates, in the chart's own box order,
    with ``moved.inverse`` applied to each: ``moved`` is the 1-D map the chart
    was transported by, None for a chart that was never moved.
    """

    lo: tuple[tuple[float, ...], ...]
    hi: tuple[tuple[float, ...], ...]
    moved: "Diffeo1D | ComposedDiffeo | None" = None
    _lo: tuple[float, ...] = field(init=False, repr=False, compare=False)  # the corners' coordinates, box by box
    _hi: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        dims = {len(c) if isinstance(c, (tuple, list, np.ndarray)) else 0 for c in (*self.lo, *self.hi)}
        if len(self.lo) != len(self.hi) or len(dims) != 1 or not (d := dims.pop()):
            raise ValueError("boxes need matching (N, d) corner arrays")
        lo, hi = tuple(itertools.chain(*self.lo)), tuple(itertools.chain(*self.hi))
        if not all(map(math.isfinite, lo + hi)):
            raise ValueError("box corners must be finite")
        if any(map(operator.ge, lo, hi)):
            raise ValueError("degenerate box")
        if d == 1:
            # open intervals meet exactly when, ends sorted apart, some k-th upper end exceeds the (k+1)-th lower
            meet = any(map(operator.lt, sorted(lo)[1:], sorted(hi)))
        else:
            meet = any([all(map(operator.lt, map(max, l1, l2), map(min, h1, h2)))
                        for (l1, h1), (l2, h2) in itertools.combinations(zip(self.lo, self.hi), 2)])
        if meet:
            raise ValueError("chart boxes must be pairwise disjoint")
        self.__dict__.update(_lo=lo, _hi=hi)

    @property
    def n(self) -> int:
        return len(self.lo)

    @property
    def d(self) -> int:
        return len(self.lo[0])

    def _locate(self, y: PointSet) -> list:
        """The one point in each box, in box order: its coordinate for d = 1, the point for d > 1."""
        if y.n != self.n or y.d != self.d:
            raise ChartDomainError("subset has the wrong size for this chart")
        if self.d == 1:  # in increasing order, box (a, b) holds u[bisect_right(u, a):bisect_left(u, b)]
            u = y.values[::-1]
            boxes = [u[bisect.bisect_right(u, a):bisect.bisect_left(u, b)] for a, b in zip(self._lo, self._hi)]
        else:
            boxes = [[p for p in y.canonical if all(map(operator.lt, lo, p)) and all(map(operator.lt, p, hi))]
                     for lo, hi in zip(self.lo, self.hi)]
        try:
            return [p for (p,) in boxes]
        except ValueError:
            k = next(k for k, inside in enumerate(boxes) if len(inside) != 1)
            raise ChartDomainError(f"box {k} holds {len(boxes[k])} points instead of 1") from None

    def chart_map(self, y: PointSet) -> np.ndarray:
        """Coordinates of a subset in the chart's domain."""
        return chart_map_many([(self, y)])[0]

    def inverse_map(self, coords: np.ndarray) -> PointSet:
        return next(self.inverse_map_many(np.asarray(coords, float).reshape(1, len(self._lo))))

    def inverse_map_many(self, rows) -> Iterator[PointSet]:
        """inverse_map of every row of n * d coordinates, in order, from one ``moved`` call on all of them.  A
        row's bounds are checked, and its PointSet built, when the iterator reaches it."""
        rows, lo, hi, d = np.asarray(rows, float).reshape(-1, len(self._lo)), self._lo, self._hi, len(self.lo[0])
        for flat in map(np.ndarray.tolist, rows if self.moved is None else np.asarray(self.moved(rows), float)):
            if not (all(map(operator.lt, lo, flat)) and all(map(operator.lt, flat, hi))):
                raise ChartDomainError("coordinates fall outside the chart image")
            yield PointSet(tuple(zip(*[iter(flat)] * d)))  # consecutive runs of d coordinates

    def permuted(self, order: Sequence[int]) -> "Chart":
        order = tuple(order)
        if sorted(order) != list(range(self.n)):
            raise ValueError("not a permutation of the boxes")
        return Chart(tuple(self.lo[i] for i in order), tuple(self.hi[i] for i in order), self.moved)

    def transported(self, theta) -> "Chart":
        """The image chart under an increasing 1-D diffeomorphism.

        Boxes map forward and ``theta`` composes onto ``moved``, whose inverse
        the chart map applies, so the transported chart assigns the original
        coordinates to moved points.
        """
        if self.d != 1:
            raise ValueError("chart transport is implemented over the line")
        corners = np.asarray(theta(np.array(self._lo + self._hi, float)), float).tolist()
        moved = theta if self.moved is None else ComposedDiffeo(theta, self.moved)
        return Chart(tuple(zip(corners[: self.n])), tuple(zip(corners[self.n:])), moved)


def chart_map_many(pairs: Iterable[tuple[Chart, PointSet]]) -> list[np.ndarray]:
    """Chart.chart_map of every (chart, subset) pair, in order, with one ``moved.inverse`` call per distinct
    moved map on the coordinates of all its pairs, as the catalog maps and their inverses act per element."""
    flats, moved = [], {}
    for chart, y in pairs:
        if chart.moved is not None:
            moved.setdefault(chart.moved, []).append(len(flats))
        flats.append(np.array(chart._locate(y), float).ravel())
    for theta, idx in moved.items():
        out = np.asarray(theta.inverse(np.concatenate([flats[i] for i in idx])), float)
        for i, part in zip(idx, np.split(out, np.cumsum([flats[i].size for i in idx])[:-1])):
            flats[i] = part
    return flats


def local_chart(y: PointSet, box_radius: float) -> Chart:
    """Axis-aligned boxes of a common radius around the points, canonical order."""
    if not box_radius > 0:
        raise ValueError("box radius must be positive")
    if y.n > 1 and 2.0 * box_radius >= _separation(y.canonical):
        raise ValueError("boxes of this radius would intersect")
    lo = tuple([tuple([x - box_radius for x in p]) for p in y.canonical])
    hi = tuple([tuple([x + box_radius for x in p]) for p in y.canonical])
    return Chart(lo, hi)


def chart_transition(chart1: Chart, chart2: Chart, coords: np.ndarray) -> np.ndarray:
    """Coordinates in chart2 of the subset whose chart1 coordinates are given."""
    return chart2.chart_map(chart1.inverse_map(coords))


# -- numerical tangent map of an induced diffeomorphism -------------------------

FD_STEPS = (1e-4, 1e-4 / 2.0)


def jacobian_fd(func: Callable[[Iterator[list]], Iterable], xs: Sequence) -> list[np.ndarray]:
    """Richardson-extrapolated central-difference Jacobians at many points, steps 1e-4 and 1e-4 / 2.

    func is called once, on an iterator over every perturbed point x +- step e_j of every x in xs, as float
    lists, and returns one value sequence per perturbed point, in order; both are read one size of x at a
    time.  Row j of each difference is column j of that x's Jacobian, with the float operations of one
    column at a time.
    """
    xs = [np.asarray(x, float).ravel() for x in xs]
    groups = {}
    for i, x in enumerate(xs):
        groups.setdefault(x.size, []).append(i)
    perturbed = []
    for n, idx in groups.items():
        pts = np.array([xs[i] for i in idx])[None, :, None, :]
        h = np.multiply.outer(FD_STEPS, np.eye(n))[:, None]
        perturbed.append(np.stack([pts + h, pts - h], axis=1).reshape(-1, n))  # (step, sign, point, j) rows
    values = iter(func(map(np.ndarray.tolist, itertools.chain.from_iterable(perturbed))))
    jacs = [None] * len(xs)
    for (n, idx), rows in zip(groups.items(), perturbed):
        v = np.fromiter(itertools.chain.from_iterable(itertools.islice(values, len(rows))), float)
        v = v.reshape(len(FD_STEPS), 2, len(idx), n, -1)  # (step, sign, point, j, output)
        r1, r2 = [(v[s, 0] - v[s, 1]) / (2.0 * step) for s, step in enumerate(FD_STEPS)]
        jac = (4.0 * r2 - r1) / 3.0
        for k, i in enumerate(idx):
            jacs[i] = jac[k].T.copy()  # C order, the layout np.column_stack gave the products downstream
    return jacs


def block_pullback_vs_per_point(theta, ys: Sequence[PointSet], gammas: Sequence) -> list[tuple]:
    """Pull block-diagonal scalar products back through the induced map, one case per subset.

    For every y in ys with its gammas, returns the blocks of J^T diag(gammas) J, with J the
    finite-difference Jacobian of the induced map in sorted coordinates at theta^{-1}(y), the per-point
    prediction theta'(x)^2 gamma at the matching points, and the largest |off-diagonal entry|.  Every
    case shares one theta.inverse, one theta and one theta.deriv call, as the catalog maps act per element.
    """
    if len(ys) != len(gammas):
        raise ValueError(f"{len(ys)} point sets need as many gamma vectors, not {len(gammas)}")
    pre, derivs = pull_back_sets(theta, ys)

    def expr(rows: Iterator[list]) -> Iterator[tuple]:
        return (y.values for y in induced_diffeo_many(theta, (point_set(*r) for r in rows)))

    out = []
    for jac, g, d in zip(jacobian_fd(expr, [x.values for x in pre]), gammas, derivs):
        g = np.asarray(g, float)
        big = jac.T @ np.diag(g) @ jac
        off = big - np.diag(np.diag(big))
        out.append((np.diag(big).copy(), pulled_back_metric(g, d), float(np.abs(off).max() if off.size else 0.0)))
    return out
