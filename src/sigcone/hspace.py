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

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Mapping, Sequence

import numpy as np

from .configuration import pulled_back_metric
from .fibers import BumpFunction, bump_box, bump_pair_integrals, bump_values
from .gamma import InvariantMeasure, check_support
from .quadrature import QuadConfig, gl_rule, grid_product, hull_box, intersect_box, quad_1d, rule_sum, tensor_rule


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

    @cached_property
    def x_box(self) -> tuple[np.ndarray, np.ndarray]:
        return bump_box(self.x_factors)

    @cached_property
    def gamma_box(self) -> tuple[np.ndarray, np.ndarray]:
        return bump_box(self.g_factors)

    def blocks(self, xs: Sequence[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The term at x values given per block: xs[k] holds values of x^k.

        Returns, per block k, (a_k(xs[k]), centers, widths): the x factor and
        the gamma bump's center and width, shaped like xs[k].  The coefficient
        is folded into block 0, so the term is the product of its blocks.
        """
        a = [f(x) for f, x in zip(self.x_factors, xs)]
        a[0] = self.coeff * a[0]
        return [(ak, np.full_like(x, g.center), np.full_like(x, g.width))
                for ak, g, x in zip(a, self.g_factors, xs)]

    def scaled(self, z: complex) -> "BumpStateTerm":
        return BumpStateTerm(z * self.coeff, self.x_factors, self.g_factors)


@dataclass(frozen=True)
class PulledStateTerm:
    """A term pulled back through an increasing diffeomorphism of the line; x_box is
    the preimage of the base term's x box, which pullback inverts and scaled passes on."""

    base: "BumpStateTerm | PulledStateTerm"
    theta: object
    x_box: tuple[np.ndarray, np.ndarray] = field(compare=False, repr=False)

    @property
    def n_blocks(self) -> int:
        return self.base.n_blocks

    @cached_property
    def gamma_box(self) -> tuple[np.ndarray, np.ndarray]:
        glo, ghi = self.base.gamma_box
        xlo, xhi = self.x_box
        los, his = np.empty_like(glo), np.empty_like(ghi)
        for k in range(len(glo)):
            dmin, dmax = self.theta.deriv_range(float(xlo[k]), float(xhi[k]))
            if not dmin > 0.0:
                raise ValueError("map is not a diffeomorphism on the pulled-back support")
            cands = [pulled_back_metric(g, d) for g in (glo[k], ghi[k]) for d in (dmin, dmax)]
            los[k], his[k] = min(cands), max(cands)
        return los, his

    def blocks(self, xs: Sequence[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The base term's blocks at theta(xs[k]), times sqrt(theta'), with the gamma bump pulled back."""
        d = [self.theta.deriv(x) for x in xs]
        base = self.base.blocks([self.theta(x) for x in xs])
        return [(a * np.sqrt(dk), pulled_back_metric(c, dk), pulled_back_metric(w, dk))
                for (a, c, w), dk in zip(base, d)]

    def scaled(self, z: complex) -> "PulledStateTerm":
        return PulledStateTerm(self.base.scaled(z), self.theta, self.x_box)


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
            lo, hi = t.x_box
            if np.any(lo[:-1] <= hi[1:]):
                raise ValueError("x support must stay inside the sorted cone")
            check_support(*t.gamma_box, self.measure.spec)

    def scaled(self, z: complex) -> "HalfDensityState":
        return HalfDensityState(self.n_blocks, self.measure, tuple(t.scaled(z) for t in self.terms))

    def __add__(self, other: "HalfDensityState") -> "HalfDensityState":
        _check_compatible(self, other)
        return HalfDensityState(self.n_blocks, self.measure, self.terms + other.terms)

    # geometry ------------------------------------------------------------------

    def x_hull(self) -> tuple[np.ndarray, np.ndarray] | None:
        return hull_box(t.x_box for t in self.terms)

    def gamma_hull(self) -> tuple[np.ndarray, np.ndarray] | None:
        return hull_box(t.gamma_box for t in self.terms)

    def value(self, x: np.ndarray, gamma: np.ndarray) -> np.ndarray:
        """Pointwise coordinate values psi(x, gamma); x and gamma have shape (P, n_blocks)."""
        xs, gs = _columns(self.n_blocks, x, gamma)
        out = np.zeros(np.shape(x)[0], dtype=complex)
        for t in self.terms:
            out += reduce(np.multiply, [a * bump_values(c, w, g) for (a, c, w), g in zip(t.blocks(xs), gs)])
        return out


def _check_compatible(s1: HalfDensityState, s2: HalfDensityState) -> None:
    if s1.n_blocks != s2.n_blocks:
        raise ValueError("block counts differ")
    if s1.measure != s2.measure:
        raise ValueError("states use different measures")


def _columns(n_blocks: int, *arrays) -> list[list[np.ndarray]]:
    """The per-block columns of arrays of shape (P, n_blocks) with one common P."""
    shapes = [np.shape(a) for a in arrays]
    if any(len(sh) != 2 or sh != (shapes[0][0], n_blocks) for sh in shapes):
        raise ValueError(f"need arrays of shape (P, {n_blocks}) with one common P, got {shapes}")
    return [list(np.array(np.asarray(a, float).T)) for a in arrays]


# -- pairing and inner product -------------------------------------------------


def _paired_factors(pairs, measure: InvariantMeasure, m: int) -> list[tuple[np.ndarray, ...]]:
    """Per term pair (t1, t2, xs), one gamma-paired factor per block at x values given per block (see
    BumpStateTerm.blocks): conj(a1) * a2 times block k's gamma integral at xs[k].  Each term's blocks are
    evaluated once per xs object, and all the integrals are rows of one bump_pair_integrals call.  Its rows are
    independent, so each equals a call of its own bit for bit, and a row equal to the one before it (a plain
    term's gamma bump is the same at every x) reuses that row's integral."""
    if not pairs:
        return []
    todo = {(id(t), id(xs)): (t, xs) for t1, t2, xs in pairs for t in (t1, t2)}
    blocks = {key: t.blocks(xs) for key, (t, xs) in todo.items()}
    cols = [col for t1, t2, xs in pairs for col in zip(blocks[id(t1), id(xs)], blocks[id(t2), id(xs)])]
    cw = np.array([[col[i][j] for col in cols] for i in (0, 1) for j in (1, 2)]).reshape(4, -1)
    new = np.ones(cw.shape[1], bool)
    new[1:] = np.any(cw[:, 1:] != cw[:, :-1], axis=0)  # differs from the row before
    rows = bump_pair_integrals(*cw[:, new], measure, m)[np.cumsum(new) - 1].reshape(len(cols), -1)
    factors = [np.conj(a1) * a2 * r for ((a1, _, _), (a2, _, _)), r in zip(cols, rows)]
    return list(zip(*[iter(factors)] * (len(factors) // len(pairs))))  # consecutive runs of one pair's blocks


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
        """The density at points x of shape (P, n_blocks): the term pairs' _paired_factors, summed t1-major."""
        (xs,) = _columns(self.s1.n_blocks, x)
        pairs = [(t1, t2, xs) for t1 in self.s1.terms for t2 in self.s2.terms]
        out = np.zeros(np.shape(x)[0], dtype=complex)
        for factors in _paired_factors(pairs, self.s1.measure, self.quad.nodes_per_dim):
            out += reduce(np.multiply, factors)
        return out


def inner(s1: HalfDensityState, s2: HalfDensityState, quad: QuadConfig) -> complex:
    """<s1|s2>: per term pair, x quadrature of the gamma-paired integrand.

    Each pair is integrated over the intersection of its own x boxes, which
    keeps every bump fully resolved; pairs with bit-equal boxes share its rule
    and their terms' blocks.  A pair's block factors are multiplied over the
    tensor grid, equal bit for bit to PairedDensity at the grid points.
    """
    _check_compatible(s1, s2)
    m = quad.nodes_per_dim
    rules, pairs, weights = {}, [], []
    for t1 in s1.terms:
        for t2 in s2.terms:
            box = intersect_box(*t1.x_box, *t2.x_box)
            if box is None:
                continue
            key = np.concatenate(box).tobytes()  # bit-equal boxes share one rule and one set of nodes
            if key not in rules:
                rules[key] = tensor_rule(box[0], box[1], m)[1], [gl_rule(lo, hi, m)[0] for lo, hi in zip(*box)]
            weights.append(rules[key][0])
            pairs.append((t1, t2, rules[key][1]))
    total = 0.0 + 0.0j
    for wts, factors in zip(weights, _paired_factors(pairs, s1.measure, m)):
        total += rule_sum(wts, np.ravel(grid_product(factors)))
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
            xbox = intersect_box(*t1.x_box, *t2.x_box)
            gbox = intersect_box(*t1.gamma_box, *t2.gamma_box)
            if xbox is None or gbox is None:
                continue
            xrules = [gl_rule(lo, hi, m) for lo, hi in zip(*xbox)]
            grules = [gl_rule(lo, hi, m) for lo, hi in zip(*gbox)]
            xs = [xg for xg, _ in xrules]
            pair = 1.0 + 0.0j
            for (_, xw), (gg, gw), (a1, c1, w1), (a2, c2, w2) in zip(xrules, grules, t1.blocks(xs), t2.blocks(xs)):
                f1 = bump_values(c1[:, None], w1[:, None], gg[None, :])
                f2 = bump_values(c2[:, None], w2[:, None], gg[None, :])
                grid = f1 * f2 * (s1.measure.scale_c / np.abs(gg))[None, :]
                grid = grid * (np.conj(a1) * a2)[:, None]
                pair *= complex(rule_sum(xw, rule_sum(gw, grid)))
            total += pair
    return complex(total)


def norm(s: HalfDensityState, quad: QuadConfig) -> float:
    return math.sqrt(max(inner(s, s, quad).real, 0.0))


# -- diffeomorphism action and rescaling ----------------------------------------


def pullback(theta, s: HalfDensityState) -> HalfDensityState:
    """Pull a state back through an increasing diffeomorphism of the line
    (PulledStateTerm.gamma_box checks that it increases on the support).

    The corners of all distinct x boxes go through one theta.inverse call,
    which is per element: each equals a call of its own bit for bit.
    """
    keys = [np.concatenate(t.x_box).tobytes() for t in s.terms]
    boxes = dict(zip(keys, (t.x_box for t in s.terms)))
    x = np.asarray(theta.inverse(np.ravel(list(boxes.values()))), float)
    moved = dict(zip(boxes, x.reshape(-1, 2, s.n_blocks)))  # per box, its lo and hi rows
    terms = tuple(PulledStateTerm(t, theta, tuple(moved[k])) for t, k in zip(s.terms, keys))
    return HalfDensityState(s.n_blocks, s.measure, terms)


def rescale_iso(s: HalfDensityState, c_new: float) -> HalfDensityState:
    """The natural unitary onto the states of the measure with constant c_new, from the state's own constant."""
    if not c_new > 0:
        raise ValueError("measure constants must be positive")
    factor = (c_new / s.measure.scale_c) ** (-s.n_blocks / 2)
    new_measure = InvariantMeasure(s.measure.spec, c_new)
    return HalfDensityState(s.n_blocks, new_measure, tuple(t.scaled(factor) for t in s.terms))


# -- graded states ---------------------------------------------------------------


def graded_inner(
    g1: Mapping[int, HalfDensityState], g2: Mapping[int, HalfDensityState], quad: QuadConfig
) -> complex:
    """<g1|g2> of graded sums {N: state}: states of different N are orthogonal."""
    if any(s.n_blocks != n for g in (g1, g2) for n, s in g.items()):
        raise ValueError("a state is filed under the wrong block count")
    total = 0.0 + 0.0j
    for n in sorted(g1.keys() & g2.keys()):
        total += inner(g1[n], g2[n], quad)
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

        def integrand(s):
            g = np.exp(s)
            return x * (g - 1.0) ** 2 * (1.0 - x * g) ** 2

        rows.append((x, float(quad_1d(integrand, 0.0, -math.log(x), nodes))))
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

