"""Fiber Hilbert spaces over one cone and over products of cones.

Square-integrable fiber elements are represented by finite expansions in
compactly supported smooth bumps, which keeps support metadata exact.  The
inner product is the weighted integral against the invariant measure; for a
product of N cones the weight is the product of the per-block densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .gamma import InvariantMeasure, SignatureSpec, check_support, invariant_dot, separable_quad
# tensor_rule is unused here: sigbench's tracer test asserts it rebinds the sigcone.fibers.tensor_rule binding
from .quadrature import QuadConfig, gl_rule, hull_box, intersect_box, quad_1d, tensor_rule


@dataclass(frozen=True)
class BumpFunction:
    """The standard bump exp(-1/(1-t^2)) rescaled to [center-width, center+width]."""

    center: float
    width: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.center) or not 0 < self.width < math.inf:
            raise ValueError("bump center must be finite and width positive and finite")

    @property
    def lo(self) -> float:
        return self.center - self.width

    @property
    def hi(self) -> float:
        return self.center + self.width

    def __call__(self, u) -> np.ndarray:
        return bump_values(self.center, self.width, np.asarray(u, float))


# |t| ~ 0.999294 where the bump is the smallest normal double: cut to 0 beyond, no product meets a subnormal value
BUMP_CUT = math.sqrt(1.0 + 1.0 / math.log(np.finfo(float).tiny))


def bump_values(centers: np.ndarray, widths: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorized bump evaluation for per-point centers and widths into a new array, 0 where |u - c| / w >= BUMP_CUT."""
    t = np.asarray(u - centers)
    t /= widths
    inside = np.abs(t) < BUMP_CUT
    v = t[inside]
    np.exp(np.divide(-1.0, np.subtract(1.0, np.square(v, out=v), out=v), out=v), out=v)
    t.fill(0.0)
    t[inside] = v
    return t


def bump_box(factors: Sequence[BumpFunction]) -> tuple[np.ndarray, np.ndarray]:
    """The support box (lo, hi) of a product of bumps, one bump per axis."""
    return np.array([f.lo for f in factors]), np.array([f.hi for f in factors])


def bump_pair_integrals(c1, w1, c2, w2, measure: InvariantMeasure, m: int) -> np.ndarray:
    """Per row of bump centers and widths, the integral of the two bumps' product against the n=1 density.

    Each row takes gl_rule's nodes and weights on the intersection of its supports.  Where they miss or touch, the
    half-width is 0 and the row exactly 0: both bumps vanish at the gap midpoint, where |gamma| > 0 between supports
    certified on one half-line.
    """
    refx, refw = gl_rule(-1.0, 1.0, m)
    lo, hi = np.maximum(c1 - w1, c2 - w2), np.minimum(c1 + w1, c2 + w2)
    half = (0.5 * np.maximum(hi - lo, 0.0))[:, None]
    g = (0.5 * (hi + lo))[:, None] + half * refx
    f = bump_values(c1[:, None], w1[:, None], g)
    f *= bump_values(c2[:, None], w2[:, None], g)
    return invariant_dot(g, half * refw, f, measure)


@dataclass(frozen=True)
class BumpTerm:
    coeff: complex
    factors: tuple[BumpFunction, ...]

    def box(self) -> tuple[np.ndarray, np.ndarray]:
        return bump_box(self.factors)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, float))
        vals = np.full(len(pts), self.coeff, dtype=complex)
        for k, f in enumerate(self.factors):
            vals *= f(pts[:, k])
        return vals


@dataclass(frozen=True)
class BumpExpansion:
    """Finite sum of products of per-dimension bumps; continuous, compact support."""

    dims: int
    terms: tuple[BumpTerm, ...] = ()

    def __post_init__(self) -> None:
        for t in self.terms:
            if len(t.factors) != self.dims:
                raise ValueError("every term needs one bump per dimension")

    def __call__(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, float))
        out = np.zeros(len(pts), dtype=complex)
        for t in self.terms:
            out += t(pts)
        return out

    def integrand_pieces(self) -> Iterator[tuple[np.ndarray, np.ndarray, complex, tuple[BumpFunction, ...]]]:
        """Per term: its box, its coefficient and its bumps, one per axis."""
        for t in self.terms:
            yield (*t.box(), t.coeff, t.factors)

    def support_box(self) -> tuple[np.ndarray, np.ndarray] | None:
        return hull_box(t.box() for t in self.terms)

    def scaled(self, z: complex) -> "BumpExpansion":
        return BumpExpansion(self.dims, tuple(BumpTerm(z * t.coeff, t.factors) for t in self.terms))

    def __add__(self, other: "BumpExpansion") -> "BumpExpansion":
        if self.dims != other.dims:
            raise ValueError("dimension mismatch")
        return BumpExpansion(self.dims, self.terms + other.terms)

    def __mul__(self, z: complex) -> "BumpExpansion":
        return self.scaled(z)

    __rmul__ = __mul__


def product_bump(coeff: complex, centers: Sequence[float], widths: Sequence[float]) -> BumpExpansion:
    if len(centers) != len(widths):
        raise ValueError("need one width per center")
    factors = tuple(BumpFunction(c, w) for c, w in zip(centers, widths))
    return BumpExpansion(len(centers), (BumpTerm(complex(coeff), factors),))


# -- fibers ------------------------------------------------------------------


@dataclass(frozen=True)
class FiberSpace:
    """L^2 of `n_blocks` independent cones with the product invariant measure."""

    measure: InvariantMeasure
    n_blocks: int = 1

    def __post_init__(self) -> None:
        if self.n_blocks < 1:
            raise ValueError("need at least one block")

    @property
    def spec(self) -> SignatureSpec:
        return self.measure.spec

    @property
    def gamma_dims(self) -> int:
        return self.n_blocks * self.spec.dim

    def block_slices(self) -> list[slice]:
        d = self.spec.dim
        return [slice(k * d, (k + 1) * d) for k in range(self.n_blocks)]


def _block_quad(
    factors1: Sequence[BumpFunction],
    factors2: Sequence[BumpFunction],
    measure: InvariantMeasure,
    m: int,
) -> float:
    """Integral over one block of n >= 2 of the bump product against the density.

    Each bump factor depends on one axis, so separable_quad sums the product
    of the per-axis values over the support intersection.  Returns 0 when the
    supports do not overlap.
    """
    box = intersect_box(*bump_box(factors1), *bump_box(factors2))
    if box is None:
        return 0.0
    nodes, wts = zip(*(gl_rule(lo, hi, m) for lo, hi in zip(*box)))
    vals = [f1(x) * f2(x) for f1, f2, x in zip(factors1, factors2, nodes)]
    return float(separable_quad(nodes, wts, vals, measure))


def fiber_inner(f1: BumpExpansion, f2: BumpExpansion, fiber: FiberSpace, quad: QuadConfig) -> complex:
    """Inner product <f1|f2> in the product fiber space.

    The weight factorizes over blocks, so each term pair is a product of
    per-block quadratures (every n=1 block in one bump_pair_integrals call).
    Every block of every term is certified by check_support first.
    """
    if f1.dims != fiber.gamma_dims or f2.dims != fiber.gamma_dims:
        raise ValueError(
            f"expansions have dims {f1.dims}/{f2.dims}, fiber expects {fiber.gamma_dims}"
        )
    for t in f1.terms + f2.terms:
        check_support(*t.box(), fiber.spec)
    m, pairs = quad.nodes_per_dim, [(t1, t2) for t1 in f1.terms for t2 in f2.terms]
    if fiber.spec.n == 1:
        rows = np.array([(a.center, a.width, b.center, b.width)
                         for t1, t2 in pairs for a, b in zip(t1.factors, t2.factors)]).reshape(-1, 4)
        blocks = bump_pair_integrals(*rows.T, fiber.measure, m).reshape(len(pairs), fiber.n_blocks).tolist()
    else:
        blocks = [[_block_quad(t1.factors[sl], t2.factors[sl], fiber.measure, m) for sl in fiber.block_slices()]
                  for t1, t2 in pairs]
    total = 0.0 + 0.0j
    for (t1, t2), row in zip(pairs, blocks):
        total += math.prod(row, start=np.conj(t1.coeff) * t2.coeff)
    return complex(total)


def fiber_norm(f: BumpExpansion, fiber: FiberSpace, quad: QuadConfig) -> float:
    return float(np.sqrt(max(fiber_inner(f, f, fiber, quad).real, 0.0)))


def normalized(f: BumpExpansion, fiber: FiberSpace, quad: QuadConfig) -> BumpExpansion:
    nrm = fiber_norm(f, fiber, quad)
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero expansion")
    return f.scaled(1.0 / nrm)


# -- 1-D monotone maps and the push-forward product identity ------------------


@dataclass(frozen=True)
class MonotoneMap:
    """Closed-form strictly increasing map on an interval of the line.

    Tags: "affine" with finite params (a, b), a > 0, x -> a x + b; "square"
    for x -> x^2 on (0, inf).
    """

    tag: str
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.tag == "affine":
            if len(self.params) != 2 or not self.params[0] > 0 or not all(map(math.isfinite, self.params)):
                raise ValueError("affine map needs finite params (a, b) with a > 0")
        elif self.tag == "square":
            if self.params:
                raise ValueError("square map takes no parameters")
        else:
            raise ValueError(f"unknown monotone map tag {self.tag!r}")

    def __call__(self, x):
        x = np.asarray(x, float)
        if self.tag == "affine":
            a, b = self.params
            return a * x + b
        return x * x

    def deriv(self, x):
        x = np.asarray(x, float)
        if self.tag == "affine":
            return np.full_like(x, self.params[0])
        return 2.0 * x

    def inverse(self, y):
        y = np.asarray(y, float)
        if self.tag == "affine":
            a, b = self.params
            return (y - b) / a
        return np.sqrt(y)

    def inverse_deriv(self, y):
        return 1.0 / self.deriv(self.inverse(y))


@dataclass(frozen=True)
class Weighted1D:
    """A measure w(x) dx on an interval of the line.

    Tags: "lebesgue" (w = 1); "reciprocal" (w = 1/|x|, the n=1 invariant
    density with constant `scale`).
    """

    tag: str
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.tag not in ("lebesgue", "reciprocal"):
            raise ValueError(f"unknown measure tag {self.tag!r}")
        if not 0 < self.scale < math.inf:
            raise ValueError("measure scale must be positive and finite")

    def density(self, x):
        x = np.asarray(x, float)
        if self.tag == "lebesgue":
            return np.full_like(x, self.scale)
        return self.scale / np.abs(x)


def _pushforward_axis(f: BumpFunction, alpha: MonotoneMap, mu: Weighted1D, m: int) -> tuple[float, float]:
    """One factor of both sides: the integral of f against alpha's push-forward of mu, and of f o alpha against mu.

    The first integrates over f's support against the image density, the second over its preimage under alpha;
    quad_1d takes both, on unrelated nodes.
    """
    # refuse a support the map does not reach before any NaN can arise
    if alpha.tag == "square" and not f.lo > 0:
        raise ValueError("support leaves the image (0, inf) of the square map")
    plo, phi = float(alpha.inverse(f.lo)), float(alpha.inverse(f.hi))
    if not (math.isfinite(plo) and math.isfinite(phi)):
        raise ValueError("the preimage of the support is not finite")
    forward = quad_1d(lambda x: f(x) * (mu.density(alpha.inverse(x)) * np.abs(alpha.inverse_deriv(x))), f.lo, f.hi, m)
    pulled = quad_1d(lambda u: f(alpha(u)) * mu.density(u), plo, phi, m)
    return forward, pulled


def pushforward_product_check(
    alpha: MonotoneMap,
    beta: MonotoneMap,
    h: BumpExpansion,
    mu: Weighted1D,
    nu: Weighted1D,
    quad: QuadConfig,
) -> tuple[complex, complex]:
    """Both sides of the product push-forward identity, by quadrature, as (lhs, rhs).

    lhs integrates h against the product of the two transported measures,
    each realized exactly by its 1-D image density; rhs pulls h back through
    (alpha, beta) and integrates against the original product measure over
    the preimage box.  Each term factors into one _pushforward_axis call per
    axis.  The caller judges how far rhs lies from lhs.
    """
    if h.dims != 2:
        raise ValueError("the product check is for two factors")
    lhs = 0.0 + 0.0j
    rhs = 0.0 + 0.0j
    for t in h.terms:
        fx, px = _pushforward_axis(t.factors[0], alpha, mu, quad.nodes_per_dim)
        fy, py = _pushforward_axis(t.factors[1], beta, nu, quad.nodes_per_dim)
        lhs += t.coeff * fx * fy
        rhs += t.coeff * px * py
    return complex(lhs), complex(rhs)
