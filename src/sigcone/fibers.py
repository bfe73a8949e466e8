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

from .gamma import (
    InvarianceReport,
    InvariantMeasure,
    SignatureSpec,
    check_support,
    invariant_dot,
    vech_det,
)
from .quadrature import QuadConfig, gl_rule, grid_product, hull_box, intersect_interval, tensor_rule


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


def bump_values(centers: np.ndarray, widths: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorized bump evaluation for per-point centers and widths; t = (u - c) / w is the output."""
    t = np.asarray(u - centers)
    t /= widths
    inside = np.abs(t) < 1.0
    v = t[inside]
    # values die smoothly at the edge; exp underflow to 0 is the right limit
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        np.exp(np.divide(-1.0, np.subtract(1.0, np.square(v, out=v), out=v), out=v), out=v)
    t.fill(0.0)
    t[inside] = v
    return t


@dataclass(frozen=True)
class BumpTerm:
    coeff: complex
    factors: tuple[BumpFunction, ...]

    def box(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([f.lo for f in self.factors])
        hi = np.array([f.hi for f in self.factors])
        return lo, hi

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

    def integrand_pieces(self) -> Iterator[tuple[np.ndarray, np.ndarray, tuple]]:
        """Per term: its box and one callable per axis, the coefficient folded into the first."""
        for t in self.terms:
            first, *rest = t.factors
            yield (*t.box(), (lambda u, c=complex(t.coeff), f=first: c * f(u), *rest))

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
    """Integral over one block of the bump product against the density.

    Returns 0 when the supports do not overlap.
    """
    dim = measure.spec.dim
    lohi = []
    for f1, f2 in zip(factors1, factors2):
        iv = intersect_interval(f1.lo, f1.hi, f2.lo, f2.hi)
        if iv is None:
            return 0.0
        lohi.append(iv)
    if dim == 1:
        (lo, hi) = lohi[0]
        x, w = gl_rule(lo, hi, m)
        vals = factors1[0](x) * factors2[0](x) * measure.scale_c * np.abs(x) ** -1.0
        return float(np.dot(w, vals))
    lo = np.array([iv[0] for iv in lohi])
    hi = np.array([iv[1] for iv in lohi])
    pts, wts = tensor_rule(lo, hi, m)
    # each bump factor depends on one axis: evaluate it on that axis' nodes
    nodes = [gl_rule(l, h, m)[0] for l, h in zip(lo, hi)]
    vals = np.ravel(grid_product([f1(x) * f2(x) for f1, f2, x in zip(factors1, factors2, nodes)]))
    return float(invariant_dot(vech_det(pts.T, measure.spec.n), wts, vals, measure))


def fiber_inner(f1: BumpExpansion, f2: BumpExpansion, fiber: FiberSpace, quad: QuadConfig) -> complex:
    """Inner product <f1|f2> in the product fiber space.

    The weight factorizes over blocks, so each term pair is a product of
    per-block tensor quadratures over the support intersections.  Every
    block of every term is certified by check_support first.
    """
    if f1.dims != fiber.gamma_dims or f2.dims != fiber.gamma_dims:
        raise ValueError(
            f"expansions have dims {f1.dims}/{f2.dims}, fiber expects {fiber.gamma_dims}"
        )
    for t in f1.terms + f2.terms:
        check_support(*t.box(), fiber.spec)
    total = 0.0 + 0.0j
    for t1 in f1.terms:
        for t2 in f2.terms:
            prod = np.conj(t1.coeff) * t2.coeff
            for sl in fiber.block_slices():
                if prod == 0:
                    break
                prod *= _block_quad(t1.factors[sl], t2.factors[sl], fiber.measure, quad.nodes_per_dim)
            total += prod
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

    Tags: "identity"; "affine" with finite params (a, b), a > 0, x -> a x + b;
    "square" for x -> x^2 on (0, inf).
    """

    tag: str
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.tag == "affine":
            if len(self.params) != 2 or not self.params[0] > 0 or not all(map(math.isfinite, self.params)):
                raise ValueError("affine map needs finite params (a, b) with a > 0")
        elif self.tag in ("identity", "square"):
            if self.params:
                raise ValueError(f"{self.tag} map takes no parameters")
        else:
            raise ValueError(f"unknown monotone map tag {self.tag!r}")

    def __call__(self, x):
        x = np.asarray(x, float)
        if self.tag == "identity":
            return x
        if self.tag == "affine":
            a, b = self.params
            return a * x + b
        return x * x

    def deriv(self, x):
        x = np.asarray(x, float)
        if self.tag == "identity":
            return np.ones_like(x)
        if self.tag == "affine":
            return np.full_like(x, self.params[0])
        return 2.0 * x

    def inverse(self, y):
        y = np.asarray(y, float)
        if self.tag == "identity":
            return y
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


def pushforward_product_check(
    alpha: MonotoneMap,
    beta: MonotoneMap,
    h: BumpExpansion,
    mu: Weighted1D,
    nu: Weighted1D,
    quad: QuadConfig,
) -> InvarianceReport:
    """Both sides of the product push-forward identity, by quadrature.

    lhs integrates h against the product of the two transported measures,
    each realized exactly by its 1-D image density; rhs pulls h back through
    (alpha, beta) and integrates against the original product measure over
    the preimage box.  The node sets of the two sides are unrelated.
    """
    if h.dims != 2:
        raise ValueError("the product check is for two factors")
    m = quad.nodes_per_dim
    lhs = 0.0 + 0.0j
    rhs = 0.0 + 0.0j
    for t in h.terms:
        (lox, hix), (loy, hiy) = (t.factors[0].lo, t.factors[0].hi), (t.factors[1].lo, t.factors[1].hi)
        # refuse a support a map does not reach before any NaN can arise
        if (alpha.tag == "square" and not lox > 0) or (beta.tag == "square" and not loy > 0):
            raise ValueError("support leaves the image (0, inf) of the square map")
        plox, phix = float(alpha.inverse(lox)), float(alpha.inverse(hix))
        ploy, phiy = float(beta.inverse(loy)), float(beta.inverse(hiy))
        if not all(map(math.isfinite, (plox, phix, ploy, phiy))):
            raise ValueError("the preimage of the support is not finite")
        u, wu = gl_rule(plox, phix, m)
        v, wv = gl_rule(ploy, phiy, m)
        if not (np.all(alpha.deriv(u) > 0) and np.all(beta.deriv(v) > 0)):
            raise ValueError("map fails to be increasing on the pulled-back support")
        # forward side: image densities on the support of h
        x, wx = gl_rule(lox, hix, m)
        y, wy = gl_rule(loy, hiy, m)
        rho_x = mu.density(alpha.inverse(x)) * np.abs(alpha.inverse_deriv(x))
        rho_y = nu.density(beta.inverse(y)) * np.abs(beta.inverse_deriv(y))
        gx = t.factors[0](x) * rho_x
        gy = t.factors[1](y) * rho_y
        lhs += t.coeff * np.dot(wx, gx) * np.dot(wy, gy)
        # pulled-back side: integrate over the preimage box
        fu = t.factors[0](alpha(u)) * mu.density(u)
        fv = t.factors[1](beta(v)) * nu.density(v)
        rhs += t.coeff * np.dot(wu, fu) * np.dot(wv, fv)
    rel = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    return InvarianceReport(lhs=complex(lhs), rhs=complex(rhs), rel_err=rel, nodes=m)
