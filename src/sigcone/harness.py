"""Verification suites, seeded case generation, and report emission.

Every suite draws its randomness from one seeded generator with a per-case
substream derived from the case label, so any suite (and any single case) is
reproducible in isolation.  Report bodies are deterministic for a fixed
config; wall-clock timings go to a separate file so bodies stay byte-stable.
"""

from __future__ import annotations

import json
import math
import os
import time
import zlib
from dataclasses import dataclass, fields, replace
from functools import reduce
from operator import mul
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from . import configuration as cfg
from . import densities as dens
from . import fibers, gamma, hspace, kspace
from .quadrature import QuadConfig, quad_1d

DEFAULT_CATALOG = (
    cfg.identity(),
    cfg.affine(1.6, 0.35),
    cfg.affine(0.7, -0.8),
    cfg.soft(0.8, 0.9),
    cfg.sine(0.45),
)


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs shared by all suites; serializable as JSON text.

    ``output_path`` is where the CLI writes the report when ``--out`` is not
    given; ``run_suite`` itself writes nothing.
    """

    seed: int = 20240613
    nodes_per_dim: int = 48
    trials: int = 20
    signature: tuple[int, int] = (1, 0)
    n_max: int = 3
    diffeo_catalog: tuple[cfg.Diffeo1D, ...] = DEFAULT_CATALOG
    output_path: str | None = None

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.nodes_per_dim < 8:
            raise ValueError("suites need at least 8 nodes per dimension")
        if not 1 <= self.n_max <= 4:
            raise ValueError("n_max must lie in 1..4")
        if not self.diffeo_catalog:
            raise ValueError("the diffeomorphism catalog needs at least one map")
        if gamma.SignatureSpec(*self.signature).n != 1:
            raise ValueError("signature must be (1, 0) or (0, 1): suites build over one base dimension")

    def quad(self) -> QuadConfig:
        return QuadConfig(nodes_per_dim=self.nodes_per_dim)

    def dumps(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "nodes_per_dim": self.nodes_per_dim,
                "trials": self.trials,
                "signature": list(self.signature),
                "n_max": self.n_max,
                "diffeo_catalog": [{"tag": t.tag, "params": list(t.params)} for t in self.diffeo_catalog],
                "output_path": self.output_path,
            }
        )

    @classmethod
    def loads(cls, text: str) -> "SuiteConfig":
        """Parse JSON text of the form dumps writes; missing keys take the field defaults."""
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError(f"a SuiteConfig is a JSON object, not {text.strip()[:40]!r}")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown SuiteConfig keys: {sorted(unknown)}")
        for key, value in d.items():
            if not _dumped_form(key, value):
                raise ValueError(f"SuiteConfig {key} cannot be {value!r}")
        if "signature" in d:
            d["signature"] = tuple(d["signature"])
        if "diffeo_catalog" in d:
            d["diffeo_catalog"] = tuple(
                cfg.Diffeo1D(t["tag"], tuple(float(p) for p in t["params"])) for t in d["diffeo_catalog"]
            )
        return cls(**d)


def _dumped_form(key: str, v) -> bool:
    """Whether v has the JSON form SuiteConfig.dumps writes under key, the only one loads accepts."""
    if key == "signature":
        return isinstance(v, list) and len(v) == 2 and all(type(x) is int for x in v)
    if key == "diffeo_catalog":
        return isinstance(v, list) and all(
            isinstance(t, dict) and set(t) == {"tag", "params"} and isinstance(t["params"], list)
            and all(type(x) in (int, float) for x in t["params"]) for t in v
        )
    return v is None or isinstance(v, str) if key == "output_path" else type(v) is int


def default_config(suite: str, **overrides) -> SuiteConfig:
    nodes, trials = _SUITE_DEFAULTS[suite]
    base = SuiteConfig(nodes_per_dim=nodes, trials=trials)
    return replace(base, **overrides) if overrides else base


@dataclass
class ReportRow:
    suite: str
    case_id: str
    lhs: complex
    rhs: complex
    rel_err: float
    nodes: int
    elapsed_ms: float
    verdict: bool

    def body(self) -> dict:
        def enc(z):
            z = complex(z)
            return z.real if z.imag == 0.0 else [z.real, z.imag]

        return {
            "suite": self.suite,
            "case_id": self.case_id,
            "lhs": enc(self.lhs),
            "rhs": enc(self.rhs),
            "rel_err": self.rel_err,
            "nodes": self.nodes,
            "verdict": "pass" if self.verdict else "fail",
        }


def _rng(config: SuiteConfig, label: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([config.seed, zlib.crc32(label.encode())]))


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), 1e-300)


class _Rows:
    """One suite's rows; a row's ``elapsed_ms`` is the wall time since the row before it."""

    def __init__(self, suite: str, config: SuiteConfig) -> None:
        self.suite = suite
        self.config = config
        self.rows: list[ReportRow] = []
        self._last = time.perf_counter()

    def cases(self, prefix: str) -> Iterator[tuple[int, str, np.random.Generator]]:
        """``(i, label, rng)`` per trial; the seed and the label fix the case's substream."""
        for i in range(self.config.trials):
            label = f"{prefix}-{i:03d}"
            yield i, label, _rng(self.config, label)

    def add(self, case_id: str, lhs, rhs, tol: float | None, err: float | None = None,
            nodes: int | None = None, ok: bool | None = None) -> None:
        """Record a row that passes iff ``err < tol or err == 0.0``, with ``err`` by default ``_rel(lhs, rhs)``.

        So ``tol=0`` passes only an exact zero and a NaN ``err`` fails; ``ok``
        replaces the rule for a claim that no single error bound states.
        """
        now = time.perf_counter()
        err = _rel(lhs, rhs) if err is None else err
        verdict = bool(err < tol or err == 0.0) if ok is None else bool(ok)
        nodes = self.config.nodes_per_dim if nodes is None else nodes
        self.rows.append(ReportRow(self.suite, case_id, lhs, rhs, err, nodes, (now - self._last) * 1e3, verdict))
        self._last = now


# -- seeded case material ------------------------------------------------------


def random_cone_expansion(
    spec: gamma.SignatureSpec, rng: np.random.Generator, n_terms: int = 1
) -> fibers.BumpExpansion:
    """A bump expansion whose support box sits safely inside the cone."""
    terms = []
    for _ in range(n_terms):
        coeff = complex(rng.uniform(0.3, 1.0), rng.uniform(-0.5, 0.5))
        if spec.dim == 1:
            sign = 1.0 if spec.p == 1 else -1.0
            c = rng.uniform(1.2, 3.0)
            w = rng.uniform(0.4, min(0.9, c - 0.2))
            factors = (fibers.BumpFunction(sign * c, w),)
        elif spec.n == 2:
            while True:
                a, d = rng.uniform(0.9, 1.6, size=2)
                b = rng.uniform(-0.15, 0.15)
                wa, wd = rng.uniform(0.15, 0.3, size=2)
                wb = rng.uniform(0.1, 0.2)
                if (a - wa) * (d - wd) - (abs(b) + wb) ** 2 > 0.05:
                    break
            dsign = 1.0 if spec.p_prime == 0 else -1.0
            factors = (
                fibers.BumpFunction(a, wa),
                fibers.BumpFunction(b, wb),
                fibers.BumpFunction(dsign * d, wd),
            )
            # (1,1) needs no det guard beyond positive diagonal distance
        else:
            raise ValueError("stock expansions cover n in {1, 2}")
        terms.append(fibers.BumpTerm(coeff, factors))
    return fibers.BumpExpansion(spec.dim, tuple(terms))


def random_state(
    rng: np.random.Generator,
    n_blocks: int,
    measure: gamma.InvariantMeasure,
    n_terms: int = 2,
) -> hspace.HalfDensityState:
    """A seeded state with ordered x boxes and gamma boxes inside the cone."""
    widths = rng.uniform(0.3, 0.55, size=n_blocks)
    centers = np.empty(n_blocks)
    centers[0] = rng.uniform(0.0, 2.0)
    for k in range(1, n_blocks):
        centers[k] = centers[k - 1] - (widths[k - 1] + widths[k] + rng.uniform(0.3, 0.7))
    sign = 1.0 if measure.spec.p == 1 else -1.0
    x_bumps = tuple(fibers.BumpFunction(centers[k], widths[k]) for k in range(n_blocks))
    terms = []
    for _ in range(n_terms):
        g_bumps = []
        for _ in range(n_blocks):
            c = rng.uniform(1.2, 2.8)
            w = rng.uniform(0.35, min(0.8, c - 0.25))
            g_bumps.append(fibers.BumpFunction(sign * c, w))
        coeff = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        terms.append(hspace.BumpStateTerm(coeff, x_bumps, tuple(g_bumps)))
    return hspace.HalfDensityState(n_blocks, measure, tuple(terms))


def random_point_set(rng: np.random.Generator, n: int) -> cfg.PointSet:
    """n seeded points in [-3, 3], pairwise more than 0.3 apart."""
    while True:
        pts = np.sort(rng.uniform(-3.0, 3.0, size=n))[::-1]
        if n == 1 or np.min(pts[:-1] - pts[1:]) > 0.3:
            return cfg.PointSet(tuple((float(p),) for p in pts))


def random_section(
    rng: np.random.Generator,
    n_blocks: int,
    measure: gamma.InvariantMeasure,
    points: Sequence[cfg.PointSet],
) -> kspace.SparseSection:
    """One single-term fiber per point set: the product of one cone bump term per block."""
    entries = []
    for y in points:
        blocks = [random_cone_expansion(measure.spec, rng).terms[0] for _ in range(n_blocks)]
        term = fibers.BumpTerm(reduce(mul, [t.coeff for t in blocks]), sum([t.factors for t in blocks], ()))
        entries.append((y, fibers.BumpExpansion(n_blocks * measure.spec.dim, (term,))))
    return kspace.SparseSection(n_blocks, measure, tuple(entries))


# -- suites --------------------------------------------------------------------


def _suite_measure_invariance(config: SuiteConfig, out: _Rows) -> None:
    base = QuadConfig(config.nodes_per_dim)
    for n, spec_choices in ((1, [(1, 0), (0, 1)]), (2, [(2, 0), (1, 1)])):
        for i, label, rng in out.cases(f"inv-n{n}"):
            spec = gamma.SignatureSpec(*spec_choices[i % len(spec_choices)])
            measure = gamma.InvariantMeasure(spec, scale_c=float(rng.uniform(0.5, 2.0)))
            f = random_cone_expansion(spec, rng, n_terms=1 + i % 2)
            g = gamma.random_gl(spec.n, rng, spread=0.18)
            rep1 = gamma.verify_invariance(f, g, measure, base)
            rep2 = gamma.verify_invariance(f, g, measure, base.doubled())
            out.add(label + f"@{base.nodes_per_dim}", rep1.lhs, rep1.rhs, 1e-5, nodes=rep1.nodes)
            # the doubled rule reaches only ~1e-9 on sheared n=2 supports, and the
            # base error can fall below that when the two sides' errors cancel
            out.add(label + f"@{2 * base.nodes_per_dim}", rep2.lhs, rep2.rhs, max(rep1.rel_err, 1e-7),
                    nodes=rep2.nodes)


def _pushforward_case(rng: np.random.Generator, i: int):
    maps = [
        fibers.MonotoneMap("identity"),
        fibers.MonotoneMap("affine", (2.0, 0.0)),
        fibers.MonotoneMap("affine", (1.0, 1.0)),
        fibers.MonotoneMap("square"),
        fibers.MonotoneMap("affine", (float(rng.uniform(0.5, 2.5)), float(rng.uniform(0.0, 1.0)))),
    ]
    measures = [
        fibers.Weighted1D("lebesgue"),
        fibers.Weighted1D("reciprocal", 1.0),
        fibers.Weighted1D("reciprocal", float(rng.uniform(0.5, 2.0))),
    ]
    alpha = maps[i % len(maps)]
    beta = maps[(i + 2) % len(maps)]
    mu = measures[i % len(measures)]
    nu = measures[(i + 1) % len(measures)]

    def codomain_interval(m: fibers.MonotoneMap) -> tuple[float, float]:
        base_lo = rng.uniform(0.5, 1.2)
        width = rng.uniform(0.4, 1.2)
        if m.tag == "affine" and m.params[1] > 0:
            base_lo += m.params[1]
        return base_lo, base_lo + width

    lox, hix = codomain_interval(alpha)
    loy, hiy = codomain_interval(beta)
    h = fibers.product_bump(
        complex(rng.uniform(0.4, 1.0), rng.uniform(-0.4, 0.4)),
        [(lox + hix) / 2, (loy + hiy) / 2],
        [(hix - lox) / 2, (hiy - loy) / 2],
    )
    return alpha, beta, h, mu, nu


def _suite_pushforward_product(config: SuiteConfig, out: _Rows) -> None:
    quad = config.quad()
    for i, label, rng in out.cases("push"):
        alpha, beta, h, mu, nu = _pushforward_case(rng, i)
        rep = fibers.pushforward_product_check(alpha, beta, h, mu, nu, quad)
        out.add(label, rep.lhs, rep.rhs, 1e-7)


def _suite_density_axioms(config: SuiteConfig, out: _Rows) -> None:
    quad = config.quad()
    for i, label, rng in out.cases("dens"):
        spec = gamma.SignatureSpec(1, 0) if i % 3 else gamma.SignatureSpec(2, 0)
        measure = gamma.InvariantMeasure(spec, 1.0)
        fiber = fibers.FiberSpace(measure, 1)
        w0 = dens.AlphaDensity(0.5, random_cone_expansion(spec, rng, 1), fiber)
        w1 = dens.AlphaDensity(0.5, random_cone_expansion(spec, rng, 1), fiber)
        w2 = dens.AlphaDensity(0.5, random_cone_expansion(spec, rng, 2), fiber)
        z1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        z2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        lhs = dens.density_product(w0, dens.lin_comb(z1, w1, z2, w2), quad).ref_value
        rhs = (
            z1 * dens.density_product(w0, w1, quad).ref_value
            + z2 * dens.density_product(w0, w2, quad).ref_value
        )
        out.add(label + "-sesq", lhs, rhs, 1e-10, err=abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30))
        p12 = dens.density_product(w1, w2, quad).ref_value
        p21 = dens.density_product(w2, w1, quad).ref_value
        out.add(label + "-herm", np.conj(p21), p12, 1e-12)
        e = dens.Basis.from_array(np.eye(spec.n) * rng.uniform(0.5, 2.0))
        norm_val = dens.evaluate(dens.density_product(w1, w1, quad), e)
        out.add(label + "-pos", norm_val, 0.0, 0, err=abs(min(complex(norm_val).real, 0.0)))
        # transformation chain on a scalar-valued density
        w = dens.AlphaDensity(float(rng.choice([0.5, 1.0])), complex(rng.uniform(0.2, 1.0)))
        l1 = gamma.random_gl(2, rng, 0.5).matrix
        l2 = gamma.random_gl(2, rng, 0.5).matrix
        lhs_c = dens.evaluate(w, dens.Basis.from_array(l2 @ l1))
        rhs_c = abs(np.linalg.det(l2)) ** w.alpha * dens.evaluate(w, dens.Basis.from_array(l1))
        out.add(label + "-chain", lhs_c, rhs_c, 1e-10)
        # vanishing density product forces a vanishing fiber norm
        wz = dens.lin_comb(1.0, w1, -1.0, w1)
        zz = dens.density_product(wz, wz, quad).ref_value
        fib_norm = fibers.fiber_inner(wz.ref_value, wz.ref_value, fiber, quad).real
        out.add(label + "-null", zz, fib_norm, 1e-12, err=float(np.max([abs(zz), fib_norm])))


def _suite_pairing_continuity(config: SuiteConfig, out: _Rows) -> None:
    quad = config.quad()
    spec = gamma.SignatureSpec(*config.signature)
    for i, label, rng in out.cases("pair"):
        measure = gamma.InvariantMeasure(spec, float(rng.uniform(0.5, 2.0)))
        n_blocks = 1 + i % 2
        s = random_state(rng, n_blocks, measure, n_terms=1)
        term = s.terms[0]
        dens_fn = hspace.pair_to_density(s, s, quad)
        x0 = np.array([f.center for f in term.x_factors])
        got = complex(dens_fn(x0[None, :])[0])
        expected = complex(np.prod([abs(f(np.array([f.center]))[0]) ** 2 for f in term.x_factors]))
        expected *= abs(term.coeff) ** 2
        for g in term.g_factors:
            expected *= complex(
                quad_1d(lambda u, g=g: g(u) ** 2 * measure.scale_c / np.abs(u), g.lo, g.hi, quad.nodes_per_dim)
            )
        out.add(label + "-factor", got, expected, 1e-8)
        # continuity modulus at the support center
        diffs = []
        for dlt in (0.2, 0.1, 0.05):
            xp = x0.copy()
            xp[0] += dlt * term.x_factors[0].width
            diffs.append(abs(complex(dens_fn(xp[None, :])[0]) - got))
        out.add(label + "-cont", diffs[0], diffs[2], None, err=diffs[2] / max(abs(got), 1e-30),
                ok=diffs[0] >= diffs[1] >= diffs[2])
        # disjoint x supports pair to the zero density
        far = hspace.HalfDensityState(
            n_blocks, measure,
            tuple(
                hspace.BumpStateTerm(
                    t.coeff,
                    tuple(fibers.BumpFunction(f.center + 50.0, f.width) for f in t.x_factors),
                    t.g_factors,
                )
                for t in s.terms
            ),
        )
        z = hspace.inner(s, far, quad)
        out.add(label + "-disjoint", z, 0.0, 0, err=abs(z))


def _suite_unitarity(config: SuiteConfig, out: _Rows) -> None:
    quad = config.quad()
    spec = gamma.SignatureSpec(*config.signature)
    for i, label, rng in out.cases("unit"):
        measure = gamma.InvariantMeasure(spec, float(rng.uniform(0.5, 2.0)))
        n_blocks = 1 + i % min(2, config.n_max)
        s1 = random_state(rng, n_blocks, measure, n_terms=2)
        s2 = random_state(rng, n_blocks, measure, n_terms=2)
        base = hspace.inner(s1, s2, quad)
        scale = hspace.norm(s1, quad) * hspace.norm(s2, quad)
        for theta in config.diffeo_catalog:
            moved = hspace.inner(hspace.pullback(theta, s1), hspace.pullback(theta, s2), quad)
            out.add(f"{label}-{theta.tag}{theta.params}", moved, base, 1e-5,
                    err=abs(moved - base) / max(scale, 1e-300))


def _suite_representation_law(config: SuiteConfig, out: _Rows) -> None:
    spec = gamma.SignatureSpec(*config.signature)
    catalog = [t for t in config.diffeo_catalog if t.tag != "identity"] or list(config.diffeo_catalog)
    for i, label, rng in out.cases("rep"):
        measure = gamma.InvariantMeasure(spec, 1.0)
        n_blocks = 1 + i % min(2, config.n_max)
        s = random_state(rng, n_blocks, measure, n_terms=1)
        th1 = catalog[i % len(catalog)]
        th2 = catalog[(i + 1) % len(catalog)]
        seq = hspace.pullback(th2, hspace.pullback(th1, s))
        joint = hspace.pullback(cfg.ComposedDiffeo(th1, th2), s)
        xh = seq.x_hull()
        gh = seq.gamma_hull()
        xs = np.column_stack([rng.uniform(xh[0][k], xh[1][k], size=200) for k in range(n_blocks)])
        gs = np.column_stack([rng.uniform(gh[0][k], gh[1][k], size=200) for k in range(n_blocks)])
        va = seq.value(xs, gs)
        vb = joint.value(xs, gs)
        scale = max(np.max(np.abs(va)), 1e-30)
        at = np.argmax(np.abs(va - vb))
        out.add(f"{label}-{th1.tag}-{th2.tag}", complex(va[at]), complex(vb[at]), 1e-10,
                err=float(np.max(np.abs(va - vb)) / scale))


def _suite_rescaling(config: SuiteConfig, out: _Rows) -> None:
    quad = config.quad()
    spec = gamma.SignatureSpec(*config.signature)
    for i, label, rng in out.cases("resc"):
        n_blocks = 1 + i % min(3, config.n_max)
        measure = gamma.InvariantMeasure(spec, 1.0)
        s = random_state(rng, n_blocks, measure, n_terms=2)
        before = hspace.inner(s, s, quad).real
        for c_new in (0.1, 2.0, 10.0):
            moved = hspace.rescale_iso(s, 1.0, c_new)
            after = hspace.inner(moved, moved, quad).real
            out.add(f"{label}-N{n_blocks}-c{c_new}", after, before, 1e-14,
                    err=abs(after - before) / max(before, 1e-300))


def _exact_profile(x: np.ndarray) -> np.ndarray:
    # closed form of the profile integral, used as an oracle for the quadrature
    return 1.0 / (12.0 * x) - 2.0 / 3.0 - x * np.log(x) + (2.0 / 3.0) * x**2 - x**3 / 12.0


def _suite_counterexample(config: SuiteConfig, out: _Rows) -> None:
    grid = [2.0**-k for k in range(4, 13)]
    fit = hspace.fit_divergence(hspace.counterexample_profile(grid, config.nodes_per_dim))
    for case_id, slope in (("slope-extrapolated", fit.slope_extrapolated), ("slope-local", fit.slope_local)):
        out.add(case_id, slope, -1.0, 0.05, err=abs(slope + 1.0))
    exact_fit = hspace.fit_divergence([(x, float(_exact_profile(np.array([x]))[0])) for x in grid])
    out.add("slope-ols-vs-analytic", fit.slope_ols, exact_fit.slope_ols, 1e-6,
            err=abs(fit.slope_ols - exact_fit.slope_ols))
    got_half = hspace.counterexample_profile([0.5], config.nodes_per_dim)[0][1]
    want_half = float(_exact_profile(np.array([0.5]))[0])
    out.add("value-at-half", got_half, want_half, 1e-10)
    # gamma-section supports union up to 1/x even though each one is compact
    hi_support = 1.0 / grid[-1]
    out.add("support-union", hi_support, 2.0**12, 0, err=max(0.0, 2.0**12 - hi_support))


def _suite_kspace_axioms(config: SuiteConfig, out: _Rows) -> None:
    quad = config.quad()
    spec = gamma.SignatureSpec(*config.signature)
    for i, label, rng in out.cases("kax"):
        measure = gamma.InvariantMeasure(spec, float(rng.uniform(0.5, 2.0)))
        n_blocks = 1 + i % min(2, config.n_max)
        pool = [random_point_set(rng, n_blocks) for _ in range(4)]
        s0 = random_section(rng, n_blocks, measure, pool[:3])
        s1 = random_section(rng, n_blocks, measure, pool[1:4])
        s2 = random_section(rng, n_blocks, measure, pool[:2])
        z1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        z2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        a = kspace.k_inner(s0, s1, quad)
        lhs = kspace.k_inner(s0, s1.scaled(z1) + s2.scaled(z2), quad)
        out.add(label + "-sesq", lhs, z1 * a + z2 * kspace.k_inner(s0, s2, quad), 1e-9)
        out.add(label + "-herm", np.conj(kspace.k_inner(s1, s0, quad)), a, 1e-12)
        nsq = kspace.k_inner(s0, s0, quad)
        out.add(label + "-pos", nsq, 0.0, 1e-15, err=abs(nsq.imag), ok=nsq.real >= 0 and abs(nsq.imag) < 1e-15)
        # summation-order independence over support points
        fiber = s0.fiber_space()
        fwd = sum(fibers.fiber_inner(f, f, fiber, quad) for _, f in s0.entries)
        bwd = sum(fibers.fiber_inner(f, f, fiber, quad) for _, f in reversed(s0.entries))
        out.add(label + "-order", fwd, bwd, 1e-12)
        # Pythagoras for disjoint supports
        far = kspace.SparseSection(
            n_blocks, measure,
            tuple((cfg.PointSet(tuple((v + 40.0,) for v in y.values)), f) for y, f in s0.entries),
        )
        total = kspace.k_inner(s0 + far, s0 + far, quad).real
        parts = nsq.real + kspace.k_inner(far, far, quad).real
        out.add(label + "-pyth", total, parts, 1e-12)
        # unitary point transport for every catalog map
        for theta in config.diffeo_catalog:
            moved = kspace.k_inner(kspace.k_pullback(theta, s0), kspace.k_pullback(theta, s1), quad)
            out.add(f"{label}-pull-{theta.tag}{theta.params}", moved, a, 1e-6, err=_rel(a, moved))
    # orthonormal family rows (one shared case)
    rng = _rng(config, "kax-family")
    measure = gamma.InvariantMeasure(spec, 1.0)
    y1 = random_point_set(rng, 1)
    y2 = random_point_set(rng, 1)
    while y2 == y1:
        y2 = random_point_set(rng, 1)
    fam = [kspace.basis_element(y1, j, measure, quad) for j in range(3)]
    worst = 0.0
    for a_idx in range(3):
        for b_idx in range(3):
            val = kspace.k_inner(fam[a_idx], fam[b_idx], quad)
            want = 1.0 if a_idx == b_idx else 0.0
            worst = max(worst, abs(val - want))
    out.add("family-orthonormal", worst, 0.0, 1e-9, err=worst)
    cross = kspace.k_inner(fam[0], kspace.basis_element(y2, 0, measure, quad), quad)
    out.add("family-distinct-points", cross, 0.0, 0, err=abs(cross))


def _suite_kspace_density(config: SuiteConfig, out: _Rows) -> None:
    quad = config.quad()
    spec = gamma.SignatureSpec(*config.signature)
    measure = gamma.InvariantMeasure(spec, 1.0)
    fiber = fibers.FiberSpace(measure, 1)
    sign = 1.0 if spec.p == 1 else -1.0
    unit = fibers.normalized(fibers.product_bump(1.0, [sign * 2.0], [0.8]), fiber, quad)
    bump_far = fibers.normalized(fibers.product_bump(1.0, [sign * 4.5], [0.7]), fiber, quad)
    depth = 24
    points = [cfg.point_set(10.0 - 0.5 * n) for n in range(1, depth + 1)]
    target = kspace.SparseSection(
        1, measure,
        tuple((points[n - 1], unit.scaled(2.0 ** (-n / 2.0))) for n in range(1, depth + 1)),
    )
    for m in (2, 4, 8):
        keep = math.ceil(math.log2(2 * m * m))
        entries = []
        for n in range(1, keep + 1):
            eps = 0.9 / (math.sqrt(2.0**n) * 2 * m)
            entries.append((points[n - 1], unit.scaled(2.0 ** (-n / 2.0)) + bump_far.scaled(eps)))
        approx = kspace.SparseSection(1, measure, tuple(entries))
        err = kspace.k_norm(approx - target, quad)
        out.add(f"approx-m{m}", err, 1.0 / m, 1, err=err * m)


def _suite_graded_orthogonality(config: SuiteConfig, out: _Rows) -> None:
    quad = config.quad()
    spec = gamma.SignatureSpec(*config.signature)
    for i, label, rng in out.cases("grade"):
        measure = gamma.InvariantMeasure(spec, 1.0)
        s1 = random_state(rng, 1, measure, n_terms=1)
        s2 = random_state(rng, 2, measure, n_terms=1)
        g1 = {1: s1}
        cross = hspace.graded_inner(g1, {2: s2}, quad)
        out.add(label + "-hcross", cross, 0.0, 0, err=abs(cross))
        both = {1: s1, 2: s2}
        tot = hspace.graded_inner(both, both, quad).real
        direct = hspace.inner(s1, s1, quad)
        parts = direct.real + hspace.inner(s2, s2, quad).real
        out.add(label + "-hpyth", tot, parts, 1e-12)
        out.add(label + "-hsingle", hspace.graded_inner(both, g1, quad), direct, 0)
        k1 = random_section(rng, 1, measure, [random_point_set(rng, 1)])
        k2 = random_section(rng, 2, measure, [random_point_set(rng, 2)])
        kcross = kspace.graded_k_inner({1: k1}, {2: k2}, quad)
        out.add(label + "-kcross", kcross, 0.0, 0, err=abs(kcross))
        ktot = kspace.graded_k_inner({1: k1, 2: k2}, {1: k1, 2: k2}, quad).real
        kparts = kspace.k_inner(k1, k1, quad).real + kspace.k_inner(k2, k2, quad).real
        out.add(label + "-kpyth", ktot, kparts, 1e-12)


def _suite_chart_atlas(config: SuiteConfig, out: _Rows) -> None:
    catalog = [t for t in config.diffeo_catalog if t.tag != "identity"] or list(config.diffeo_catalog)
    n_each = max(1, config.trials // 5)

    def draws(check: str, lo: int, hi: int):
        # each check's substream draws a size n, then a point set, then the case's own values
        rng = _rng(config, f"atlas-{check}")
        for i in range(n_each):
            n = int(rng.integers(lo, hi))
            yield i, rng, n, random_point_set(rng, n)

    # the exact checks count the cases that broke
    fails = 0
    for _, rng, n, y in draws("project", 2, 6):
        pts = list(y.canonical)
        shuffled = cfg.PointTuple(tuple(pts[j] for j in rng.permutation(n)))
        fails += cfg.project(shuffled) != y or cfg.sorted_chart(y) != tuple(p[0] for p in y.canonical)
    out.add(f"projection[{n_each}]", 1.0, 1.0, 0, err=float(fails))

    fails = 0
    for _, _, _, y in draws("roundtrip", 1, 5):
        chart = cfg.local_chart(y, 0.1)
        fails += chart.inverse_map(chart.chart_map(y)) != y
    out.add(f"chart-roundtrip[{n_each}]", 1.0, 1.0, 0, err=float(fails))

    fails = 0
    for _, rng, n, y in draws("transition", 2, 5):
        chart1 = cfg.local_chart(y, 0.1)
        perm = tuple(int(j) for j in rng.permutation(n))
        coords = chart1.chart_map(y)
        moved = cfg.chart_transition(chart1, chart1.permuted(perm), coords)
        fails += not np.array_equal(moved, coords.reshape(n, -1)[list(perm)].ravel())
    out.add(f"transition-permutation[{n_each}]", 1.0, 1.0, 0, err=float(fails))

    fails = 0
    for i, _, _, y in draws("homomorphism", 1, 5):
        th1 = catalog[i % len(catalog)]
        th2 = catalog[(i + 1) % len(catalog)]
        seq = cfg.induced_diffeo(th1, cfg.induced_diffeo(th2, y))
        fails += seq != cfg.induced_diffeo(cfg.ComposedDiffeo(th1, th2), y)
    out.add(f"induced-homomorphism[{n_each}]", 1.0, 1.0, 0, err=float(fails))

    worst = 0.0
    for i, _, _, y in draws("transport", 1, 5):
        theta = catalog[i % len(catalog)]
        chart = cfg.local_chart(y, 0.1)
        moved_y = cfg.induced_diffeo(theta, y)
        diff = np.abs(chart.transported(theta).chart_map(moved_y) - chart.chart_map(y))
        worst = max(worst, float(diff.max()))
    out.add(f"transported-chart[{n_each}]", worst, 0.0, 1e-12, err=worst)

    worst = 0.0
    for i, rng, n, y in draws("blocks", 1, 5):
        theta = catalog[i % len(catalog)]
        gammas = rng.uniform(0.5, 3.0, size=n)
        fd, pred, off = cfg.block_pullback_vs_per_point(theta, y, gammas)
        worst = max(worst, float(np.max(np.abs(fd - pred) / np.abs(pred))), off)
    out.add(f"block-pullback[{n_each}]", worst, 0.0, 1e-10, err=worst)

    rng = _rng(config, "atlas-injectivity")
    n = 3
    y = random_point_set(rng, n)
    chart = cfg.local_chart(y, 0.1)
    base = chart.chart_map(y)
    jitter = rng.uniform(-0.09, 0.09, size=(config.trials, 2, n))
    collisions = 0
    for a, b in jitter:
        ca, cb = base + a, base + b
        if not np.array_equal(ca, cb) and chart.inverse_map(ca) == chart.inverse_map(cb):
            collisions += 1
    out.add(f"injectivity[{config.trials}]", collisions, 0.0, 0, err=float(collisions))


_SUITES: dict[str, tuple[Callable[[SuiteConfig, _Rows], None], int, int]] = {
    # suite -> (function, default nodes_per_dim, default trials)
    "measure-invariance": (_suite_measure_invariance, 32, 50),
    "pushforward-product": (_suite_pushforward_product, 48, 20),
    "density-axioms": (_suite_density_axioms, 48, 30),
    "pairing-continuity": (_suite_pairing_continuity, 48, 10),
    "unitarity": (_suite_unitarity, 48, 20),
    "representation-law": (_suite_representation_law, 48, 10),
    "rescaling": (_suite_rescaling, 16, 6),
    "counterexample": (_suite_counterexample, 200, 1),
    "kspace-axioms": (_suite_kspace_axioms, 48, 10),
    "kspace-density": (_suite_kspace_density, 48, 1),
    "graded-orthogonality": (_suite_graded_orthogonality, 32, 6),
    "chart-atlas": (_suite_chart_atlas, 16, 10000),
}
SUITE_NAMES = tuple(_SUITES)
_SUITE_DEFAULTS: dict[str, tuple[int, int]] = {
    name: (nodes, trials) for name, (_, nodes, trials) in _SUITES.items()
}


@dataclass
class SuiteResult:
    suite: str
    rows: list[ReportRow]
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        return all(r.verdict for r in self.rows)


def run_suite(name: str, config: SuiteConfig | None = None) -> SuiteResult:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    config = config or default_config(name)
    t0 = time.perf_counter()
    out = _Rows(name, config)
    _SUITES[name][0](config, out)
    elapsed = (time.perf_counter() - t0) * 1e3
    out.rows.sort(key=lambda r: r.case_id)
    return SuiteResult(name, out.rows, elapsed)


def write_report(path: Path, result: SuiteResult) -> None:
    """Deterministic JSONL body plus a summary line; timings in a side file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(r.body(), sort_keys=True) for r in result.rows]
    summary = {
        "summary": {
            "suite": result.suite,
            "cases": len(result.rows),
            "failures": sum(1 for r in result.rows if not r.verdict),
            "all_pass": result.passed,
        }
    }
    lines.append(json.dumps(summary, sort_keys=True))
    path.write_text("\n".join(lines) + "\n")
    timing = {
        "suite": result.suite,
        "elapsed_ms": result.elapsed_ms,
        "rows": {r.case_id: r.elapsed_ms for r in result.rows},
    }
    Path(str(path) + ".timings").write_text(json.dumps(timing, indent=1))


# -- convergence studies ---------------------------------------------------------


@dataclass(frozen=True)
class StudyRow:
    op_id: str
    nodes: int
    rel_err: float


def _study_case(op_id: str, config: SuiteConfig, nodes: int) -> float:
    quad = QuadConfig(nodes)
    rng = _rng(config, f"study-{op_id}")
    if op_id == "identity-diffeo":
        measure = gamma.InvariantMeasure(gamma.SignatureSpec(*config.signature), 1.0)
        s = random_state(rng, 1, measure)
        a = hspace.inner(s, s, quad)
        b = hspace.inner(hspace.pullback(cfg.identity(), s), hspace.pullback(cfg.identity(), s), quad)
        return _rel(a, b)
    if op_id == "unitarity":
        measure = gamma.InvariantMeasure(gamma.SignatureSpec(*config.signature), 1.0)
        s1 = random_state(rng, 1, measure)
        s2 = random_state(rng, 1, measure)
        theta = cfg.sine(0.45)
        a = hspace.inner(s1, s2, quad)
        b = hspace.inner(hspace.pullback(theta, s1), hspace.pullback(theta, s2), quad)
        return abs(a - b) / max(hspace.norm(s1, quad) * hspace.norm(s2, quad), 1e-300)
    if op_id in ("measure-invariance-n1", "measure-invariance-n2"):
        n = 1 if op_id.endswith("n1") else 2
        spec = gamma.SignatureSpec(1, 0) if n == 1 else gamma.SignatureSpec(2, 0)
        measure = gamma.InvariantMeasure(spec, 1.0)
        f = random_cone_expansion(spec, rng)
        g = gamma.random_gl(spec.n, rng, spread=0.18)
        return gamma.verify_invariance(f, g, measure, quad).rel_err
    if op_id == "pushforward-product":
        alpha, beta, h, mu, nu = _pushforward_case(rng, 3)
        return fibers.pushforward_product_check(alpha, beta, h, mu, nu, quad).rel_err
    if op_id == "pairing-identity":
        measure = gamma.InvariantMeasure(gamma.SignatureSpec(*config.signature), 1.0)
        s1 = random_state(rng, 2, measure)
        s2 = random_state(rng, 2, measure)
        return _rel(hspace.inner(s1, s2, quad), hspace.joint_inner(s1, s2, quad))
    raise ValueError(f"unknown study op {op_id!r}")


STUDY_OPS = (
    "unitarity",
    "identity-diffeo",
    "measure-invariance-n1",
    "measure-invariance-n2",
    "pushforward-product",
    "pairing-identity",
)


def convergence_study(op_id: str, node_ladder: Sequence[int], config: SuiteConfig | None = None) -> list[StudyRow]:
    if list(node_ladder) != sorted(set(node_ladder)):
        raise ValueError("node ladder must be strictly increasing")
    config = config or SuiteConfig()
    return [StudyRow(op_id, n, _study_case(op_id, config, n)) for n in node_ladder]


def study_decays(rows: Sequence[StudyRow]) -> bool:
    """Monotone-on-average decay: last rung beats the first, or all below 1e-12."""
    errs = [r.rel_err for r in rows]
    return errs[-1] < errs[0] or all(e < 1e-12 for e in errs)


def output_dir() -> Path:
    return Path(os.environ.get("SIGCONE_OUT_DIR", "reports"))
