"""Half-density states over sorted point configurations on the line.

A state of block count N is a compactly supported continuous function of
(x^1..x^N, gamma_1..gamma_N) on the sorted cone {x^1 > ... > x^N} times the
N-fold product of the 1-D signature cone.  Pairing two states integrates out
the gamma variables against the product invariant measure, leaving a scalar
density in x; integrating that over the sorted cone gives the inner product.

Increasing diffeomorphisms of the line act by pull-back.  In coordinates the
pull-back of a state is

    (theta* psi)(x, gamma) = prod_k |theta'(x^k)|^{1/2}
                             psi(theta(x^1..x^N), gamma_k / theta'(x^k)^2),

which follows from the half-density transformation law by the chain rule; the
unitarity suite is the check that this closed form is the right one.
Pull-backs are kept as composite callables (never re-projected onto bumps),
so the only error in the unitarity checks is quadrature error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fibers import BumpExpansion, BumpFunction, BumpTerm, bump_values
from .gamma import InvariantMeasure, SignatureSpec
from .quadrature import QuadConfig, gl_rule, hull_box, intersect_box, intersect_interval, tensor_rule

_CHUNK_BUDGET = 2_000_000  # max x-points times gamma nodes held at once


@dataclass(frozen=True)
class GammaBatch:
    """Per-term gamma-section data at a batch of x points.

    coeff collects the complex coefficient and every x-dependent factor; the
    gamma section at x-point i is coeff[i] * prod_k bump((g - centers[i,k]) /
    widths[i,k]).
    """

    coeff: np.ndarray
    centers: np.ndarray
    widths: np.ndarray


@dataclass(frozen=True)
class BumpStateTerm:
    """One separable term: coeff * prod_k a_k(x^k) * prod_k b_k(gamma_k)."""

    coeff: complex
    x_factors: tuple[BumpFunction, ...]
    g_factors: tuple[BumpFunction, ...]

    def __post_init__(self) -> None:
        if len(self.x_factors) != len(self.g_factors):
            raise ValueError("need one gamma bump per base coordinate")

    @property
    def n_blocks(self) -> int:
        return len(self.x_factors)

    def x_box(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.array([f.lo for f in self.x_factors]),
            np.array([f.hi for f in self.x_factors]),
        )

    def gamma_box(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.array([f.lo for f in self.g_factors]),
            np.array([f.hi for f in self.g_factors]),
        )

    def batch(self, x: np.ndarray) -> GammaBatch:
        x = np.atleast_2d(np.asarray(x, float))
        coeff = np.full(len(x), self.coeff, dtype=complex)
        for k, f in enumerate(self.x_factors):
            coeff *= f(x[:, k])
        centers = np.broadcast_to(np.array([f.center for f in self.g_factors]), x.shape).copy()
        widths = np.broadcast_to(np.array([f.width for f in self.g_factors]), x.shape).copy()
        return GammaBatch(coeff, centers, widths)

    def dim_factor(self, k: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x = np.asarray(x, float)
        xv = self.x_factors[k](x).astype(complex)
        if k == 0:
            xv = xv * self.coeff
        c = np.full_like(x, self.g_factors[k].center)
        w = np.full_like(x, self.g_factors[k].width)
        return xv, c, w

    def scaled(self, z: complex) -> "BumpStateTerm":
        return BumpStateTerm(z * self.coeff, self.x_factors, self.g_factors)


@dataclass(frozen=True)
class PulledStateTerm:
    """A term pulled back through an increasing diffeomorphism of the line."""

    base: "BumpStateTerm | PulledStateTerm"
    theta: object

    @property
    def n_blocks(self) -> int:
        return self.base.n_blocks

    def x_box(self) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.base.x_box()
        return (
            np.array([float(self.theta.inverse(v)) for v in lo]),
            np.array([float(self.theta.inverse(v)) for v in hi]),
        )

    def gamma_box(self) -> tuple[np.ndarray, np.ndarray]:
        glo, ghi = self.base.gamma_box()
        xlo, xhi = self.x_box()
        los = np.empty_like(glo)
        his = np.empty_like(ghi)
        for k in range(len(glo)):
            dmin, dmax = self.theta.deriv_range(float(xlo[k]), float(xhi[k]))
            cands = [glo[k] * dmin**2, glo[k] * dmax**2, ghi[k] * dmin**2, ghi[k] * dmax**2]
            los[k], his[k] = min(cands), max(cands)
        return los, his

    def batch(self, x: np.ndarray) -> GammaBatch:
        x = np.atleast_2d(np.asarray(x, float))
        tx = self.theta(x)
        d = self.theta.deriv(x)
        inner = self.base.batch(tx)
        coeff = inner.coeff * np.prod(np.sqrt(d), axis=1)
        s = d**2
        return GammaBatch(coeff, inner.centers * s, inner.widths * s)

    def dim_factor(self, k: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x = np.asarray(x, float)
        d = np.asarray(self.theta.deriv(x))
        xv, c, w = self.base.dim_factor(k, np.asarray(self.theta(x)))
        s = d**2
        return xv * np.sqrt(d), c * s, w * s

    def scaled(self, z: complex) -> "PulledStateTerm":
        return PulledStateTerm(self.base.scaled(z), self.theta)



@dataclass(frozen=True)
class HalfDensityState:
    """An element of the dense half-density subspace, block count N."""

    n_blocks: int
    measure: InvariantMeasure
    terms: tuple[object, ...]

    def __post_init__(self) -> None:
        if self.measure.spec.n != 1:
            raise ValueError("half-density states live over one base dimension")
        for t in self.terms:
            if t.n_blocks != self.n_blocks:
                raise ValueError("term block count disagrees with the state")
            lo, hi = t.x_box()
            if np.any(lo[:-1] <= hi[1:]):
                raise ValueError("x support must stay inside the sorted cone")
            glo, ghi = t.gamma_box()
            if self.measure.spec.p == 1 and np.any(glo <= 0):
                raise ValueError("gamma support must stay inside the positive cone")
            if self.measure.spec.p == 0 and np.any(ghi >= 0):
                raise ValueError("gamma support must stay inside the negative cone")

    # construction ------------------------------------------------------------

    @classmethod
    def separable(
        cls,
        coeff: complex,
        x_bumps: Sequence[BumpFunction],
        g_bumps: Sequence[BumpFunction],
        measure: InvariantMeasure,
    ) -> "HalfDensityState":
        return cls(len(x_bumps), measure, (BumpStateTerm(complex(coeff), tuple(x_bumps), tuple(g_bumps)),))

    @classmethod
    def from_expansion(cls, rep: BumpExpansion, n_blocks: int, measure: InvariantMeasure) -> "HalfDensityState":
        """Split a 2N-dimensional bump expansion (x dims first) into state terms."""
        if rep.dims != 2 * n_blocks:
            raise ValueError("expansion must have one x and one gamma bump per block")
        terms = tuple(
            BumpStateTerm(t.coeff, t.factors[:n_blocks], t.factors[n_blocks:]) for t in rep.terms
        )
        return cls(n_blocks, measure, terms)

    def to_expansion(self) -> BumpExpansion:
        """The coordinate representation, for bump-built states."""
        out_terms = []
        for t in self.terms:
            if not isinstance(t, BumpStateTerm):
                raise ValueError("pulled-back terms have no bump representation")
            out_terms.append(BumpTerm(t.coeff, t.x_factors + t.g_factors))
        return BumpExpansion(2 * self.n_blocks, tuple(out_terms))

    def scaled(self, z: complex) -> "HalfDensityState":
        return HalfDensityState(self.n_blocks, self.measure, tuple(t.scaled(z) for t in self.terms))

    def __add__(self, other: "HalfDensityState") -> "HalfDensityState":
        _check_compatible(self, other)
        return HalfDensityState(self.n_blocks, self.measure, self.terms + other.terms)

    def __mul__(self, z: complex) -> "HalfDensityState":
        return self.scaled(z)

    __rmul__ = __mul__

    def __sub__(self, other: "HalfDensityState") -> "HalfDensityState":
        return self + other.scaled(-1.0)

    # geometry ------------------------------------------------------------------

    def x_hull(self) -> tuple[np.ndarray, np.ndarray] | None:
        return hull_box(t.x_box() for t in self.terms)

    def gamma_hull(self) -> tuple[np.ndarray, np.ndarray] | None:
        return hull_box(t.gamma_box() for t in self.terms)

    def value(self, x: np.ndarray, gamma: np.ndarray) -> np.ndarray:
        """Pointwise coordinate values psi(x, gamma)."""
        x = np.atleast_2d(np.asarray(x, float))
        gamma = np.atleast_2d(np.asarray(gamma, float))
        out = np.zeros(len(x), dtype=complex)
        for t in self.terms:
            b = t.batch(x)
            vals = b.coeff.copy()
            for k in range(self.n_blocks):
                vals *= bump_values(b.centers[:, k], b.widths[:, k], gamma[:, k])
            out += vals
        return out

    # serialization ----------------------------------------------------------

    def dumps(self) -> str:
        return json.dumps(
            {
                "n_blocks": self.n_blocks,
                "signature": [self.measure.spec.p, self.measure.spec.p_prime],
                "scale_c": self.measure.scale_c,
                "rep": self.to_expansion().to_dict(),
            }
        )

    @classmethod
    def loads(cls, text: str) -> "HalfDensityState":
        d = json.loads(text)
        spec = SignatureSpec(*d["signature"])
        measure = InvariantMeasure(spec, float(d["scale_c"]))
        return cls.from_expansion(BumpExpansion.from_dict(d["rep"]), int(d["n_blocks"]), measure)


def _check_compatible(s1: HalfDensityState, s2: HalfDensityState) -> None:
    if s1.n_blocks != s2.n_blocks:
        raise ValueError("block counts differ")
    if s1.measure != s2.measure:
        raise ValueError("states use different measures")


def lin_comb(z1: complex, s1: HalfDensityState, z2: complex, s2: HalfDensityState) -> HalfDensityState:
    _check_compatible(s1, s2)
    return s1.scaled(z1) + s2.scaled(z2)


# -- pairing and inner product -------------------------------------------------


def _pair_gamma_integrals(
    b1: GammaBatch, b2: GammaBatch, measure: InvariantMeasure, m: int
) -> np.ndarray:
    """f-values of one term pair at the batch's x points.

    Each gamma block contributes a 1-D quadrature over the intersection of
    the two sections' supports, against the invariant density.
    """
    refx, refw = gl_rule(-1.0, 1.0, m)
    vals = np.conj(b1.coeff) * b2.coeff
    n_blocks = b1.centers.shape[1]
    for k in range(n_blocks):
        lo = np.maximum(b1.centers[:, k] - b1.widths[:, k], b2.centers[:, k] - b2.widths[:, k])
        hi = np.minimum(b1.centers[:, k] + b1.widths[:, k], b2.centers[:, k] + b2.widths[:, k])
        half = 0.5 * np.maximum(hi - lo, 0.0)
        mid = 0.5 * (hi + lo)
        live = half > 0.0
        block = np.zeros(len(lo))
        if np.any(live):
            g = mid[live, None] + half[live, None] * refx[None, :]
            f = bump_values(b1.centers[live, k, None], b1.widths[live, k, None], g)
            f = f * bump_values(b2.centers[live, k, None], b2.widths[live, k, None], g)
            f = f * (measure.scale_c / np.abs(g))
            block[live] = (f @ refw) * half[live]
        vals = vals * block
    return vals


def pair_to_density(s1: HalfDensityState, s2: HalfDensityState, quad: QuadConfig) -> "PairedDensity":
    _check_compatible(s1, s2)
    return PairedDensity(s1, s2, quad)


@dataclass(frozen=True)
class PairedDensity:
    """The scalar density <s1|s2>(x), evaluated by gamma quadrature on demand."""

    s1: HalfDensityState
    s2: HalfDensityState
    quad: QuadConfig

    def support_box(self) -> tuple[np.ndarray, np.ndarray] | None:
        h1, h2 = self.s1.x_hull(), self.s2.x_hull()
        if h1 is None or h2 is None:
            return None
        return intersect_box(h1[0], h1[1], h2[0], h2[1])

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, float))
        out = np.zeros(len(x), dtype=complex)
        for t1 in self.s1.terms:
            for t2 in self.s2.terms:
                out += _pair_gamma_integrals(
                    t1.batch(x), t2.batch(x), self.s1.measure, self.quad.nodes_per_dim
                )
        return out

    def integrate(self) -> complex:
        """Base integral over the support box: the iterated-path inner product."""
        box = self.support_box()
        if box is None:
            return 0.0 + 0.0j
        m = self.quad.nodes_per_dim
        pts, wts = tensor_rule(box[0], box[1], m)
        total = 0.0 + 0.0j
        chunk = max(1, _CHUNK_BUDGET // m)
        for start in range(0, len(pts), chunk):
            sl = slice(start, start + chunk)
            total += np.dot(wts[sl], self(pts[sl]))
        return complex(total)


def inner(s1: HalfDensityState, s2: HalfDensityState, quad: QuadConfig) -> complex:
    """<s1|s2>: per term pair, x quadrature of the gamma-paired integrand.

    Each pair is integrated over the intersection of its own x boxes, which
    keeps every bump fully resolved.
    """
    _check_compatible(s1, s2)
    m = quad.nodes_per_dim
    total = 0.0 + 0.0j
    for t1 in s1.terms:
        for t2 in s2.terms:
            lo1, hi1 = t1.x_box()
            lo2, hi2 = t2.x_box()
            box = intersect_box(lo1, hi1, lo2, hi2)
            if box is None:
                continue
            pts, wts = tensor_rule(box[0], box[1], m)
            chunk = max(1, _CHUNK_BUDGET // m)
            for start in range(0, len(pts), chunk):
                sl = slice(start, start + chunk)
                vals = _pair_gamma_integrals(t1.batch(pts[sl]), t2.batch(pts[sl]), s1.measure, m)
                total += np.dot(wts[sl], vals)
    return complex(total)


def joint_inner(s1: HalfDensityState, s2: HalfDensityState, quad: QuadConfig) -> complex:
    """<s1|s2> by a joint rule over all 2N coordinates at once.

    The integrand factorizes over blocks into (x^k, gamma_k) planes, so the
    full tensor rule is evaluated as a product of 2-D quadratures; this is
    the same rule as a dense grid over all 2N dimensions, summed in factored
    order.
    """
    _check_compatible(s1, s2)
    m = quad.nodes_per_dim
    total = 0.0 + 0.0j
    for t1 in s1.terms:
        for t2 in s2.terms:
            xb1, xb2 = t1.x_box(), t2.x_box()
            gb1, gb2 = t1.gamma_box(), t2.gamma_box()
            pair = 1.0 + 0.0j
            for k in range(s1.n_blocks):
                xiv = intersect_interval(xb1[0][k], xb1[1][k], xb2[0][k], xb2[1][k])
                giv = intersect_interval(gb1[0][k], gb1[1][k], gb2[0][k], gb2[1][k])
                if xiv is None or giv is None:
                    pair = 0.0
                    break
                xg, xw = gl_rule(xiv[0], xiv[1], m)
                gg, gw = gl_rule(giv[0], giv[1], m)
                xv1, c1, w1 = t1.dim_factor(k, xg)
                xv2, c2, w2 = t2.dim_factor(k, xg)
                f1 = bump_values(c1[:, None], w1[:, None], gg[None, :])
                f2 = bump_values(c2[:, None], w2[:, None], gg[None, :])
                grid = f1 * f2 * (s1.measure.scale_c / np.abs(gg))[None, :]
                grid = grid * (np.conj(xv1) * xv2)[:, None]
                pair *= complex(xw @ grid @ gw)
            total += pair
    return complex(total)


def norm(s: HalfDensityState, quad: QuadConfig) -> float:
    return math.sqrt(max(inner(s, s, quad).real, 0.0))


# -- diffeomorphism action and rescaling ----------------------------------------


def pullback(theta, s: HalfDensityState) -> HalfDensityState:
    """Pull a state back through an increasing diffeomorphism of the line."""
    new_terms = []
    for t in s.terms:
        pulled = PulledStateTerm(t, theta)
        xlo, xhi = pulled.x_box()
        for k in range(s.n_blocks):
            dmin, _ = theta.deriv_range(float(xlo[k]), float(xhi[k]))
            if not dmin > 0.0:
                raise ValueError("map is not a diffeomorphism on the pulled-back support")
        new_terms.append(pulled)
    return HalfDensityState(s.n_blocks, s.measure, tuple(new_terms))


def rescale_iso(s: HalfDensityState, c_old: float, c_new: float) -> HalfDensityState:
    """The natural unitary onto the states of the measure with constant c_new."""
    if not (c_old > 0 and c_new > 0):
        raise ValueError("measure constants must be positive")
    if s.measure.scale_c != c_old:
        raise ValueError("state does not carry the stated old constant")
    factor = (c_new / c_old) ** (-s.n_blocks / 2)
    new_measure = InvariantMeasure(s.measure.spec, c_new)
    return HalfDensityState(s.n_blocks, new_measure, tuple(t.scaled(factor) for t in s.terms))


# -- graded states ---------------------------------------------------------------


@dataclass(frozen=True)
class GradedState:
    """A finite collection of states of distinct block counts."""

    components: tuple[tuple[int, HalfDensityState], ...]

    def __post_init__(self) -> None:
        ns = [n for n, _ in self.components]
        if len(set(ns)) != len(ns):
            raise ValueError("duplicate block counts")
        for n, s in self.components:
            if s.n_blocks != n:
                raise ValueError("component filed under the wrong block count")
        object.__setattr__(self, "components", tuple(sorted(self.components)))

    @classmethod
    def of(cls, *states: HalfDensityState) -> "GradedState":
        return cls(tuple((s.n_blocks, s) for s in states))

    def component(self, n: int) -> HalfDensityState | None:
        for k, s in self.components:
            if k == n:
                return s
        return None


def graded_inner(g1: GradedState, g2: GradedState, quad: QuadConfig) -> complex:
    total = 0.0 + 0.0j
    for n, s1 in g1.components:
        s2 = g2.component(n)
        if s2 is not None:
            total += inner(s1, s2, quad)
    return complex(total)


# -- the non-integrable profile --------------------------------------------------


def counterexample_profile(eps_grid: Sequence[float], nodes: int = 200) -> list[tuple[float, float]]:
    """The scalar-density profile of the slowly-changing-support failure mode.

    For the profile psi(x, gamma) = sqrt(x) (gamma - 1)(1 - x gamma) on
    {x >= 0, gamma >= 1, x gamma <= 1}, the paired density at x in (0, 1) is

        f(x) = int_1^{1/x} x (gamma - 1)^2 (1 - x gamma)^2 / gamma  d gamma,

    evaluated here in the logarithmic variable so the rule sees an analytic
    integrand.  f blows up like 1/x as x -> 0+, even though every gamma
    section is compactly supported: the section supports union up to [1, inf).
    """
    rows = []
    for x in eps_grid:
        x = float(x)
        if not 0.0 < x < 1.0:
            raise ValueError("profile is defined for 0 < x < 1")
        s, w = gl_rule(0.0, -math.log(x), nodes)
        g = np.exp(s)
        vals = x * (g - 1.0) ** 2 * (1.0 - x * g) ** 2
        rows.append((x, float(np.dot(w, vals))))
    return rows


@dataclass(frozen=True)
class DivergenceFit:
    """Log-log slope estimates of a divergence profile.

    slope_ols is the ordinary least-squares slope over the whole grid;
    slope_local uses the two smallest x values; slope_extrapolated removes
    the leading pre-asymptotic bias from the two deepest local slopes and is
    the estimator of the x -> 0 exponent.
    """

    slope_ols: float
    slope_local: float
    slope_extrapolated: float


def fit_divergence(rows: Sequence[tuple[float, float]]) -> DivergenceFit:
    pts = sorted(rows)
    if len(pts) < 3:
        raise ValueError("need at least three grid points")
    xi = np.log([p[0] for p in pts])
    eta = np.log([p[1] for p in pts])
    a = np.vstack([xi, np.ones_like(xi)]).T
    slope_ols = float(np.linalg.lstsq(a, eta, rcond=None)[0][0])
    s01 = (eta[1] - eta[0]) / (xi[1] - xi[0])
    s12 = (eta[2] - eta[1]) / (xi[2] - xi[1])
    return DivergenceFit(
        slope_ols=slope_ols,
        slope_local=float(s01),
        slope_extrapolated=float(2.0 * s01 - s12),
    )

