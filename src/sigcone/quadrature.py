"""Gauss-Legendre tensor quadrature over axis-aligned boxes.

All integrals in this package reduce to fixed-order Gauss-Legendre rules
over boxes (no adaptive subdivision).  Node layouts and reduction order are
deterministic for a given ``QuadConfig``, so repeated runs are bit-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

Box = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class QuadConfig:
    """Gauss-Legendre node budget per dimension."""

    nodes_per_dim: int = 48

    def __post_init__(self) -> None:
        if self.nodes_per_dim < 2:
            raise ValueError("quadrature needs at least 2 nodes per dimension")

    def doubled(self) -> "QuadConfig":
        return QuadConfig(2 * self.nodes_per_dim)


@lru_cache(maxsize=None)
def _reference_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = leggauss(m)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gl_rule(lo: float, hi: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [lo, hi]."""
    x, w = _reference_rule(m)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


def quad_1d(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, m: int) -> complex:
    x, w = gl_rule(lo, hi, m)
    return np.dot(w, f(x))


def tensor_rule(lo: np.ndarray, hi: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product rule over a box.

    Returns points of shape (m**d, d) and matching weights, enumerated in a
    fixed row-major order; the points fill one array, one axis at a time.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    axes = [gl_rule(l, h, m) for l, h in zip(lo, hi)]
    pts = np.empty((m,) * len(axes) + (len(axes),))
    for k, x in enumerate(np.ix_(*[x for x, _ in axes])):
        pts[..., k] = x
    return pts.reshape(-1, len(axes)), np.ravel(grid_product([w for _, w in axes]))


def grid_product(factors: Sequence[np.ndarray]) -> np.ndarray:
    """The product of one factor per axis at every point of the tensor grid.

    Entry (i, j, ...) is (factors[0][i] * factors[1][j]) * ..., multiplied
    left to right; raveled, the entries follow ``tensor_rule``'s point order,
    so a separable integrand evaluated per axis equals its pointwise values
    bit for bit.
    """
    return reduce(np.multiply.outer, factors)


def intersect_interval(lo1: float, hi1: float, lo2: float, hi2: float) -> tuple[float, float] | None:
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    if lo >= hi:
        return None
    return lo, hi


def intersect_box(lo1, hi1, lo2, hi2) -> Box | None:
    lo = np.maximum(np.asarray(lo1, float), np.asarray(lo2, float))
    hi = np.minimum(np.asarray(hi1, float), np.asarray(hi2, float))
    if np.any(lo >= hi):
        return None
    return lo, hi


def hull_box(boxes: Iterable[Box]) -> Box | None:
    boxes = list(boxes)
    if not boxes:
        return None
    lo = np.min([b[0] for b in boxes], axis=0)
    hi = np.max([b[1] for b in boxes], axis=0)
    return lo, hi


def box_corners(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """All 2**d corners of a box, shape (2**d, d)."""
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    d = lo.size
    out = np.empty((2**d, d))
    for k in range(2**d):
        for j in range(d):
            out[k, j] = hi[j] if (k >> j) & 1 else lo[j]
    return out
