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

# The most points a slab_sum slab holds where its rows can still be halved.  Every slab array is float64, so the
# largest (16384 values) is 128 KiB, glibc's default mmap threshold: the first such request is mmapped, freeing it
# raises the threshold past it, and later slab arrays come from the heap, not from zero pages faulted in per call.
SLAB_POINTS = 16384


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


def rule_sum(wts: np.ndarray, vals: np.ndarray):
    """Sum of vals * wts over the last axis, in place in vals: NumPy's reduction, not a threaded BLAS dot."""
    return np.multiply(vals, wts, out=vals).sum(axis=-1)


def slab_sum(m: int, dim: int, slab_total: Callable[[int, int], complex]):
    """The rule_sum of an m**dim tensor grid, one slab of first-axis rows at a time.

    slab_total(i, j) returns the rule_sum of rows i:j raveled.  A slab of more
    than SLAB_POINTS points is halved while each half is a whole number of
    rows holding a multiple of 8 values: there NumPy's pairwise sum halves the
    whole raveled grid too, so the total equals its rule_sum bit for bit.
    """
    return _halved_sum(slab_total, m ** (dim - 1), 0, m)


def _halved_sum(slab_total: Callable[[int, int], complex], row: int, i: int, rows: int):
    # module level, not a closure that refers to itself: a call leaves no reference cycle to the garbage collector
    half = rows // 2
    if rows * row > SLAB_POINTS and rows % 2 == 0 and half * row % 8 == 0:
        return _halved_sum(slab_total, row, i, half) + _halved_sum(slab_total, row, i + half, half)
    return slab_total(i, i + rows)


def quad_1d(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, m: int) -> complex:
    """The m-node Gauss-Legendre rule_sum of f over [lo, hi]: the one rule for an integral over an interval."""
    x, w = gl_rule(lo, hi, m)
    return rule_sum(w, np.array(f(x)))


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
