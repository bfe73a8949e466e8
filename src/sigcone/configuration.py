"""The manifold of N-element point subsets of R^d.

Ordered tuples of distinct points project onto unordered subsets; charts come
from products of disjoint boxes, one per point, and transition maps between
such charts are block permutations composed with per-block coordinate
changes.  For d = 1 the decreasing arrangement is a single global chart, and
every increasing diffeomorphism of the line acts on subsets point by point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

MIN_POINT_SEPARATION = 1e-12

Point = tuple[float, ...]


class DuplicatePointError(ValueError):
    """Two points closer than the resolution floor."""


class ChartDomainError(ValueError):
    """A point set does not place exactly one point in every chart box."""


def _points(points) -> tuple[Point, ...]:
    """The one point validator: float tuples of one dimension, finite, separated."""
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
    if len(pts) > 1 and _min_separation(pts) <= MIN_POINT_SEPARATION:
        raise DuplicatePointError("points closer than 1e-12 in max norm")
    return pts


def _min_separation(pts: Sequence[Point]) -> float:
    """The exact smallest pairwise max-norm distance, by a sort and a sweep from each
    p that stops once q[0] - p[0] (a lower bound, growing along it) reaches the best."""
    pts = sorted(pts)
    best = math.inf
    for i, p in enumerate(pts):
        for j in range(i + 1, len(pts)):
            q = pts[j]
            if q[0] - p[0] >= best:
                break
            best = min(best, max(map(abs, map(operator.sub, p, q))))
    return best


@dataclass(frozen=True)
class PointTuple:
    """An ordered tuple of pairwise distinct points."""

    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", _points(self.points))

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def d(self) -> int:
        return len(self.points[0])


@dataclass(frozen=True)
class PointSet:
    """An unordered point subset; construction sorts it into canonical order.

    For d = 1 the canonical order is strictly decreasing; for d > 1 it is
    lexicographically decreasing (a chart-independent bookkeeping choice).
    """

    canonical: tuple[Point, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "canonical", tuple(sorted(_points(self.canonical), reverse=True)))

    @property
    def n(self) -> int:
        return len(self.canonical)

    @property
    def d(self) -> int:
        return len(self.canonical[0])

    @property
    def values(self) -> tuple[float, ...]:
        """Flat decreasing coordinates; only meaningful for d = 1."""
        if self.d != 1:
            raise ValueError("flat coordinates are defined for d = 1")
        return tuple([p[0] for p in self.canonical])


def project(t: PointTuple) -> PointSet:
    """Forget the ordering; permuting the input does not change the output."""
    return PointSet(t.points)


def point_set(*coords) -> PointSet:
    """Convenience constructor from unordered scalar coordinates (d = 1)."""
    return PointSet(tuple([(c,) for c in coords]))


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
        if math.ceil(lo / math.pi) <= math.floor(hi / math.pi):
            # an extremum of cos sits inside the interval
            for mult in range(math.ceil(lo / math.pi), math.floor(hi / math.pi) + 1):
                cands.append(1.0 if mult % 2 == 0 else -1.0)
        vals = [1.0 + a * c for c in cands]
        return min(vals), max(vals)


def _monotone_inverse(theta, y: np.ndarray) -> np.ndarray:
    """Invert a strictly increasing map by safeguarded Newton iteration, per element:
    an array call returns, bit for bit, the floats of one call per element."""
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
    """outer after inner; inherits values, derivatives and inverses.

    Values and inverses need only callables with an ``inverse``, such as
    chart coordinate maps; derivatives need two diffeomorphisms.
    """

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


class _InverseDiffeo:
    """View of the inverse of a catalog diffeomorphism."""

    def __init__(self, theta) -> None:
        self._theta = theta

    def __call__(self, x):
        return self._theta.inverse(x)

    def deriv(self, x):
        return 1.0 / self._theta.deriv(self._theta.inverse(x))

    def inverse(self, y):
        return self._theta(y)


def inverse_diffeo(theta) -> _InverseDiffeo:
    return _InverseDiffeo(theta)


def induced_diffeo(theta: Callable, y: PointSet) -> PointSet:
    """Apply a 1-D diffeomorphism point by point and re-canonicalize."""
    if y.d != 1:
        raise ValueError("induced maps are implemented over the line")
    return point_set(*np.asarray(theta(np.asarray(y.values)), float).tolist())


# -- local charts ---------------------------------------------------------------


@dataclass(frozen=True)
class Chart:
    """Disjoint open boxes, one per point, with an optional coordinate map.

    The chart map sends a subset with exactly one point in every box to the
    concatenation of its points' coordinates, in the chart's own box order,
    with ``coords`` (a 1-D map, None for the identity) applied to each.
    """

    lo: tuple[tuple[float, ...], ...]
    hi: tuple[tuple[float, ...], ...]
    coords: object = None

    def __post_init__(self) -> None:
        lo = np.asarray(self.lo, float)
        hi = np.asarray(self.hi, float)
        if lo.shape != hi.shape or lo.ndim != 2:
            raise ValueError("boxes need matching (N, d) corner arrays")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box corners must be finite")
        if (lo >= hi).any():
            raise ValueError("degenerate box")
        boxes = list(zip(self.lo, self.hi))
        for i, (lo_i, hi_i) in enumerate(boxes):
            for lo_j, hi_j in boxes[i + 1:]:
                if all([max(a, c) < min(b, e) for a, b, c, e in zip(lo_i, hi_i, lo_j, hi_j)]):
                    raise ValueError("chart boxes must be pairwise disjoint")

    @property
    def n(self) -> int:
        return len(self.lo)

    @property
    def d(self) -> int:
        return len(self.lo[0])

    def _locate(self, y: PointSet) -> list[Point]:
        if y.n != self.n or y.d != self.d:
            raise ChartDomainError("subset has the wrong size for this chart")
        chosen: list[Point] = []
        for k, (lo, hi) in enumerate(zip(self.lo, self.hi)):
            inside = [p for p in y.canonical if all(a < x < b for a, x, b in zip(lo, p, hi))]
            if len(inside) != 1:
                raise ChartDomainError(f"box {k} holds {len(inside)} points instead of 1")
            chosen.append(inside[0])
        return chosen

    def chart_map(self, y: PointSet) -> np.ndarray:
        """Coordinates of a subset in the chart's domain."""
        flat = np.array(self._locate(y), float).ravel()
        return flat if self.coords is None else np.asarray(self.coords(flat), float)

    def inverse_map(self, coords: np.ndarray) -> PointSet:
        flat = np.asarray(coords, float).reshape(self.n * self.d)
        if self.coords is not None:
            flat = np.asarray(self.coords.inverse(flat), float)
        pts = []
        for p, lo, hi in zip(flat.reshape(self.n, self.d).tolist(), self.lo, self.hi):
            if not all(a < x < b for a, x, b in zip(lo, p, hi)):
                raise ChartDomainError("coordinates fall outside the chart image")
            pts.append(tuple(p))
        return PointSet(tuple(pts))

    def permuted(self, order: Sequence[int]) -> "Chart":
        order = tuple(order)
        if sorted(order) != list(range(self.n)):
            raise ValueError("not a permutation of the boxes")
        return Chart(tuple(self.lo[i] for i in order), tuple(self.hi[i] for i in order), self.coords)

    def transported(self, theta) -> "Chart":
        """The image chart under an increasing 1-D diffeomorphism.

        Boxes map forward; the coordinate map composes with the inverse, so
        the transported chart assigns the original coordinates to moved
        points.
        """
        if self.d != 1:
            raise ValueError("chart transport is implemented over the line")
        corners = np.asarray(theta(np.array([self.lo, self.hi], float).ravel()), float).tolist()
        inv = inverse_diffeo(theta)
        return Chart(
            tuple([(v,) for v in corners[: self.n]]),
            tuple([(v,) for v in corners[self.n:]]),
            inv if self.coords is None else ComposedDiffeo(self.coords, inv),
        )


def local_chart(y: PointSet, box_radius: float) -> Chart:
    """Axis-aligned boxes of a common radius around the points, canonical order."""
    if not box_radius > 0:
        raise ValueError("box radius must be positive")
    if y.n > 1 and 2.0 * box_radius >= _min_separation(y.canonical):
        raise ValueError("boxes of this radius would intersect")
    lo = tuple(tuple(x - box_radius for x in p) for p in y.canonical)
    hi = tuple(tuple(x + box_radius for x in p) for p in y.canonical)
    return Chart(lo, hi)


def chart_transition(chart1: Chart, chart2: Chart, coords: np.ndarray) -> np.ndarray:
    """Coordinates in chart2 of the subset whose chart1 coordinates are given."""
    return chart2.chart_map(chart1.inverse_map(coords))


# -- numerical tangent map of an induced diffeomorphism -------------------------


def jacobian_fd(func: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Richardson-extrapolated central-difference Jacobian, steps 1e-4 and 1e-4 / 2."""
    x = np.asarray(x, float)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = 1.0

        def col(step: float) -> np.ndarray:
            return (func(x + step * e) - func(x - step * e)) / (2.0 * step)

        c1, c2 = col(1e-4), col(1e-4 / 2.0)
        cols.append((4.0 * c2 - c1) / 3.0)
    return np.column_stack(cols)


def block_pullback_vs_per_point(theta, y: PointSet, gammas: Sequence[float]):
    """Pull a block-diagonal scalar product back through the induced map.

    Returns the blocks of J^T diag(gammas) J, with J the finite-difference
    Jacobian of the induced map in sorted coordinates at theta^{-1}(y), and
    the per-point prediction theta'(x)^2 gamma at the matching points.
    """
    if y.d != 1:
        raise ValueError("implemented over the line")
    y_pre = induced_diffeo(inverse_diffeo(theta), y)
    x_pre = np.asarray(y_pre.values)

    def expr(coords: np.ndarray) -> np.ndarray:
        return np.asarray(induced_diffeo(theta, point_set(*coords.tolist())).values)

    jac = jacobian_fd(expr, x_pre)
    big = jac.T @ np.diag(np.asarray(gammas, float)) @ jac
    fd_blocks = np.diag(big).copy()
    off = big - np.diag(np.diag(big))
    predicted = np.asarray(theta.deriv(x_pre)) ** 2 * np.asarray(gammas, float)
    return fd_blocks, predicted, float(np.abs(off).max() if off.size else 0.0)
