"""Finite-support sections of the fiber spaces over point configurations.

A sparse section assigns a fiber wave function to finitely many N-point
subsets of the line.  Its squared norm is the sum of the fiber norms over the
support, and two sections pair by summing fiber inner products over shared
support points.  Support points are compared exactly: configurations are
constructed, then transported by closed-form maps, never measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .configuration import PointSet, pull_back_sets, pulled_back_metric
from .fibers import (
    BumpExpansion,
    BumpFunction,
    BumpTerm,
    FiberSpace,
    fiber_inner,
    fiber_norm,
    product_bump,
)
from .gamma import InvariantMeasure, check_support
from .quadrature import QuadConfig

BASIS_FAMILY_SIZE = 4


@dataclass(frozen=True)
class SparseSection:
    """A finitely supported section: point subset -> fiber wave function."""

    n_blocks: int
    measure: InvariantMeasure
    entries: tuple[tuple[PointSet, BumpExpansion], ...]

    def __post_init__(self) -> None:
        if self.measure.spec.n != 1:
            raise ValueError("sparse sections are built over one base dimension")
        seen = set()
        for y, fib in self.entries:
            if y.d != 1 or y.n != self.n_blocks:
                raise ValueError("support point has the wrong size")
            if y in seen:
                raise ValueError("duplicate support point")
            seen.add(y)
            if fib.dims != self.n_blocks:
                raise ValueError("fiber value has the wrong number of coordinates")
            for t in fib.terms:
                check_support(*t.box(), self.measure.spec)
        object.__setattr__(self, "entries", tuple(sorted(self.entries, key=lambda e: e[0].canonical)))

    @property
    def support(self) -> tuple[PointSet, ...]:
        return tuple(y for y, _ in self.entries)

    def fiber_space(self) -> FiberSpace:
        return FiberSpace(self.measure, self.n_blocks)

    def scaled(self, z: complex) -> "SparseSection":
        return SparseSection(self.n_blocks, self.measure, tuple((y, f.scaled(z)) for y, f in self.entries))

    def __add__(self, other: "SparseSection") -> "SparseSection":
        _check_compatible(self, other)
        merged: dict[PointSet, BumpExpansion] = {y: f for y, f in self.entries}
        for y, f in other.entries:
            merged[y] = merged[y] + f if y in merged else f
        return SparseSection(self.n_blocks, self.measure, tuple(merged.items()))

    def __sub__(self, other: "SparseSection") -> "SparseSection":
        return self + other.scaled(-1.0)


def _check_compatible(s1: SparseSection, s2: SparseSection) -> None:
    if s1.n_blocks != s2.n_blocks:
        raise ValueError("block counts differ")
    if s1.measure != s2.measure:
        raise ValueError("sections use different measures")


def k_inner(s1: SparseSection, s2: SparseSection, quad: QuadConfig) -> complex:
    """Sum of fiber inner products over the shared support points."""
    _check_compatible(s1, s2)
    fiber = s1.fiber_space()
    lookup = {y: f for y, f in s2.entries}
    total = 0.0 + 0.0j
    for y, f1 in s1.entries:
        f2 = lookup.get(y)
        if f2 is not None:
            total += fiber_inner(f1, f2, fiber, quad)
    return complex(total)


def k_norm(s: SparseSection, quad: QuadConfig) -> float:
    return math.sqrt(max(k_inner(s, s, quad).real, 0.0))


def k_pullback(theta, s: SparseSection) -> SparseSection:
    """Transport a section through an increasing diffeomorphism of the line.

    Support moves backwards through the induced point map; the fiber value
    at a new point is the old value with every gamma coordinate divided by
    theta'(new point)^2, which for bump fibers is again a bump fiber.
    """
    new_entries = []
    for y_new, d, (_, fib) in zip(*pull_back_sets(theta, [y for y, _ in s.entries]), s.entries):
        terms = []
        for t in fib.terms:
            centers = pulled_back_metric(np.array([f.center for f in t.factors]), d)
            widths = pulled_back_metric(np.array([f.width for f in t.factors]), d)
            terms.append(BumpTerm(t.coeff, tuple(map(BumpFunction, centers, widths))))
        new_entries.append((y_new, BumpExpansion(fib.dims, tuple(terms))))
    return SparseSection(s.n_blocks, s.measure, tuple(new_entries))


# -- orthonormal families ----------------------------------------------------


def orthonormal_family(fiber: FiberSpace, size: int, quad: QuadConfig) -> list[BumpExpansion]:
    """Gram-Schmidt over the fiber inner product, with one re-orthogonalization,
    applied to size overlapping product bumps on a 1-D cone."""
    if fiber.spec.n != 1:
        raise ValueError("the stock family is built for 1-D cones")
    sign = 1.0 if fiber.spec.p == 1 else -1.0
    out: list[BumpExpansion] = []
    for j in range(size):
        v = product_bump(1.0, [sign * (1.6 + 0.9 * j)] * fiber.n_blocks, [1.2] * fiber.n_blocks)
        for _ in range(2):
            for e in out:
                v = v + e.scaled(-fiber_inner(e, v, fiber, quad))
        nrm = fiber_norm(v, fiber, quad)
        if nrm < 1e-10:
            raise ValueError("family member degenerated during orthogonalization")
        out.append(v.scaled(1.0 / nrm))
    return out


def basis_element(y: PointSet, index: int, measure: InvariantMeasure, quad: QuadConfig) -> SparseSection:
    """The section supported at y whose value is the index-th orthonormal fiber element
    of a family of BASIS_FAMILY_SIZE; Gram-Schmidt is sequential, so only members 0..index are built."""
    if not 0 <= index < BASIS_FAMILY_SIZE:
        raise IndexError("fiber basis index outside the constructed family")
    family = orthonormal_family(FiberSpace(measure, y.n), index + 1, quad)
    return SparseSection(y.n, measure, ((y, family[index]),))


# -- graded sections -----------------------------------------------------------


def graded_k_inner(
    g1: Mapping[int, SparseSection], g2: Mapping[int, SparseSection], quad: QuadConfig
) -> complex:
    """<g1|g2> of graded sums {N: section}: sections of different N are orthogonal."""
    if any(s.n_blocks != n for g in (g1, g2) for n, s in g.items()):
        raise ValueError("a section is filed under the wrong block count")
    total = 0.0 + 0.0j
    for n in sorted(g1.keys() & g2.keys()):
        total += k_inner(g1[n], g2[n], quad)
    return complex(total)
