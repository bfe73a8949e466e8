"""Densities of weight alpha over a finite-dimensional real vector space.

A weight-alpha density assigns a value to every basis and rescales by
|det Lambda|^alpha under the basis change e -> Lambda e.  One stored value at
a reference basis determines all the others, so that is all we keep.  Values
are either complex numbers or fiber elements (bump expansions); pairing two
half-densities valued in the same fiber space yields a one-density.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .fibers import BumpExpansion, FiberSpace, fiber_inner
from .quadrature import QuadConfig

DensityValue = Union[complex, BumpExpansion]


@dataclass(frozen=True)
class Basis:
    """Columns are the basis vectors, expressed in a fixed reference frame."""

    vectors: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        a = self.array
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("basis must be a square array of column vectors")
        scale = float(np.prod(np.linalg.norm(a, axis=0))) or 1.0
        if abs(np.linalg.det(a)) < 1e-12 * scale:
            raise ValueError("basis vectors are numerically dependent")

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.vectors, dtype=float)

    @classmethod
    def from_array(cls, a) -> "Basis":
        return cls(tuple(tuple(float(x) for x in row) for row in np.asarray(a, float)))

    def det(self) -> float:
        return float(np.linalg.det(self.array))


@dataclass(frozen=True)
class AlphaDensity:
    """A weight-alpha density, stored by its value at the reference basis."""

    alpha: float
    ref_value: DensityValue
    fiber: FiberSpace | None = None

    def is_fiber_valued(self) -> bool:
        return isinstance(self.ref_value, BumpExpansion)


def evaluate(w: AlphaDensity, e: Basis) -> DensityValue:
    """Value of the density at basis e: |det e|^alpha times the stored value."""
    return abs(e.det()) ** w.alpha * w.ref_value


def lin_comb(z1: complex, w1: AlphaDensity, z2: complex, w2: AlphaDensity) -> AlphaDensity:
    if w1.alpha != w2.alpha:
        raise ValueError("cannot combine densities of different weights")
    if w1.fiber != w2.fiber:
        raise ValueError("cannot combine densities over different fibers")
    if w1.is_fiber_valued() != w2.is_fiber_valued():
        raise ValueError("cannot combine scalar-valued with fiber-valued densities")
    return AlphaDensity(w1.alpha, z1 * w1.ref_value + z2 * w2.ref_value, w1.fiber)


def density_product(w1: AlphaDensity, w2: AlphaDensity, quad: QuadConfig) -> AlphaDensity:
    """Pair two fiber-valued half-densities into a complex one-density.

    The value at a basis is the fiber inner product of the two values there,
    so the weights add: 1/2 + 1/2 = 1.
    """
    for w in (w1, w2):
        if w.alpha != 0.5:
            raise ValueError("density product is defined for half-densities")
        if not w.is_fiber_valued() or w.fiber is None:
            raise ValueError("density product needs fiber-valued densities")
    if w1.fiber != w2.fiber:
        raise ValueError("fiber mismatch")
    value = fiber_inner(w1.ref_value, w2.ref_value, w1.fiber, quad)
    return AlphaDensity(1.0, value)

