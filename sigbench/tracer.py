"""Aggregated call spans around the public functions of sigcone's modules.

Installing a ``Tracer`` rebinds every binding of each traced function inside
the ``sigcone`` package -- module attributes, ``from ... import`` copies and
the package's re-exports -- and, for methods and dataclass ``__post_init__``,
the attribute on the class.  Uninstalling restores the originals.

Spans nest.  A span's self time is its duration minus the durations of the
traced spans it caused, so the self times of all spans add up to the
durations of the outermost ones.  Work counts are computed from arguments and
return values in the wrapper, after the span's clock has stopped; nothing is
measured inside ``src/``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable

from workloads import SUITE_SETTINGS

# every span key the tracer reports, with its work counters
LAYERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("quadrature.tensor_rule", ("points", "max_points")),
    ("quadrature.gl_rule", ("points",)),
    ("gamma.integrate_gamma.n1", ("points",)),
    ("gamma.integrate_gamma.n2", ("points",)),
    ("gamma.verify_invariance", ()),
    ("fibers.bump", ("values",)),
    ("fibers.bump_values", ("values",)),
    ("fibers.fiber_inner.n1", ("term_pairs",)),
    ("fibers.fiber_inner.n2", ("term_pairs",)),
    ("fibers.pushforward_product_check", ()),
    ("densities.density_product", ()),
    ("hspace.inner.N1", ("term_pairs", "x_points")),
    ("hspace.inner.N2", ("term_pairs", "x_points")),
    ("hspace.inner.N3", ("term_pairs", "x_points")),
    ("hspace.pullback", ()),
    ("hspace.HalfDensityState.init", ()),
    ("hspace.PairedDensity.call", ()),
    ("configuration.PointSet.init", ()),
    ("configuration.PointTuple.init", ()),
    ("configuration.local_chart", ()),
    ("configuration.Chart.chart_map", ()),
    ("configuration.Chart.inverse_map", ()),
    ("configuration.induced_diffeo", ()),
    ("configuration.block_pullback_vs_per_point", ()),
    ("configuration.Diffeo1D.inverse", ()),
    ("kspace.k_inner", ("shared_points",)),
    ("kspace.k_pullback", ()),
    ("kspace.SparseSection.init", ()),
    *((f"harness.suite.{name}", ()) for name in SUITE_SETTINGS),
    ("harness.write_report", ("bytes",)),
)

COUNTER_UNITS = {"bytes": "bytes"}


@dataclass(frozen=True)
class Span:
    """One traced function: where it lives, how its span is keyed, what it counts.

    ``key`` is a fixed span name or a function of the call's arguments.
    ``work(returned, *args, **kwargs)`` returns ``(counter, amount)`` pairs.
    A ``sink`` span also counts, under that counter name, the points of the
    ``tensor_rule`` calls it makes directly.
    """

    module: str
    attr: str
    key: str | Callable[..., str]
    cls: str | None = None
    work: Callable[..., tuple] | None = None
    sink: str | None = None


def _rule_points(returned, lo, hi, m):
    n = len(returned[0])
    return (("points", n), ("max_points", n))


def _gl_points(returned, lo, hi, m):
    return (("points", len(returned[0])),)


def _gamma_key(f, measure, quad):
    return f"gamma.integrate_gamma.n{measure.spec.n}"


def _fiber_key(f1, f2, fiber, quad):
    return f"fibers.fiber_inner.n{fiber.spec.n}"


def _term_pairs(returned, a, b, *rest, **kwargs):
    return (("term_pairs", len(a.terms) * len(b.terms)),)


def _inner_key(s1, s2, quad):
    return f"hspace.inner.N{s1.n_blocks}"


def _values(returned, *args, **kwargs):
    return (("values", returned.size),)


def _shared_points(returned, s1, s2, quad):
    return (("shared_points", len(set(s1.support) & set(s2.support))),)


def _suite_key(name, config=None):
    return f"harness.suite.{name}"


def _report_bytes(returned, path, result):
    return (("bytes", path.stat().st_size),)


SPANS: tuple[Span, ...] = (
    Span("quadrature", "tensor_rule", "quadrature.tensor_rule", work=_rule_points),
    Span("quadrature", "gl_rule", "quadrature.gl_rule", work=_gl_points),
    Span("gamma", "integrate_gamma", _gamma_key, sink="points"),
    Span("gamma", "verify_invariance", "gamma.verify_invariance"),
    Span("fibers", "__call__", "fibers.bump", cls="BumpFunction", work=_values),
    Span("fibers", "bump_values", "fibers.bump_values", work=_values),
    Span("fibers", "fiber_inner", _fiber_key, work=_term_pairs),
    Span("fibers", "pushforward_product_check", "fibers.pushforward_product_check"),
    Span("densities", "density_product", "densities.density_product"),
    Span("hspace", "inner", _inner_key, work=_term_pairs, sink="x_points"),
    Span("hspace", "pullback", "hspace.pullback"),
    Span("hspace", "__post_init__", "hspace.HalfDensityState.init", cls="HalfDensityState"),
    Span("hspace", "__call__", "hspace.PairedDensity.call", cls="PairedDensity"),
    Span("configuration", "__post_init__", "configuration.PointSet.init", cls="PointSet"),
    Span("configuration", "__post_init__", "configuration.PointTuple.init", cls="PointTuple"),
    Span("configuration", "local_chart", "configuration.local_chart"),
    Span("configuration", "chart_map", "configuration.Chart.chart_map", cls="Chart"),
    Span("configuration", "inverse_map", "configuration.Chart.inverse_map", cls="Chart"),
    Span("configuration", "induced_diffeo", "configuration.induced_diffeo"),
    Span("configuration", "block_pullback_vs_per_point", "configuration.block_pullback_vs_per_point"),
    Span("configuration", "inverse", "configuration.Diffeo1D.inverse", cls="Diffeo1D"),
    Span("kspace", "k_inner", "kspace.k_inner", work=_shared_points),
    Span("kspace", "k_pullback", "kspace.k_pullback"),
    Span("kspace", "__post_init__", "kspace.SparseSection.init", cls="SparseSection"),
    Span("harness", "run_suite", _suite_key),
    Span("harness", "write_report", "harness.write_report", work=_report_bytes),
)


class Stat:
    __slots__ = ("calls", "self_s", "counters")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.counters: dict[str, int] = {}

    def count(self, name: str, amount: int) -> None:
        old = self.counters.get(name, 0)
        self.counters[name] = max(old, amount) if name.startswith("max_") else old + amount


class Tracer:
    """Span statistics per key, gathered while installed."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.root_s = 0.0  # summed duration of spans with no traced caller
        self._stack: list[list] = []  # per open span: [child seconds, sink points, is sink]
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats.clear()
        self.root_s = 0.0

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        importlib.import_module("sigcone")
        modules = [m for name, m in sys.modules.items() if name == "sigcone" or name.startswith("sigcone.")]
        for span in SPANS:
            owner = importlib.import_module(f"sigcone.{span.module}")
            if span.cls is not None:
                owner = getattr(owner, span.cls)
            original = vars(owner)[span.attr]
            wrapper = self._wrap(original, span)
            if span.cls is not None:
                self._patch(owner, span.attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, span: Span):
        stats = self.stats
        stack = self._stack
        clock = time.perf_counter
        fixed_key = span.key if isinstance(span.key, str) else None
        key_of, work, sink = span.key, span.work, span.sink
        # only tensor_rule points count toward a sink: hspace.inner also takes
        # gl_rule nodes for its gamma blocks, which are not x points
        feeds_sink = span.key == "quadrature.tensor_rule"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = fixed_key or key_of(*args, **kwargs)
            frame = [0.0, 0, sink is not None]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
            if stack:
                stack[-1][0] += elapsed
            else:
                self.root_s += elapsed
            stat = stats.get(key)
            if stat is None:
                stat = stats[key] = Stat()
            stat.calls += 1
            stat.self_s += elapsed - frame[0]
            if work is not None:
                for name, amount in work(result, *args, **kwargs):
                    stat.count(name, amount)
            if sink is not None:
                stat.count(sink, frame[1])
            if feeds_sink and stack and stack[-1][2]:
                stack[-1][1] += len(result[0])
            return result

        return traced

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every reported layer metric as ``name -> (value, unit)``; keys never
        called read zero."""
        unknown = set(self.stats) - {key for key, _ in LAYERS}
        if unknown:
            raise ValueError(f"spans outside the reported layers: {sorted(unknown)}")
        out: dict[str, tuple[float, str]] = {}
        for key, counters in LAYERS:
            stat = self.stats.get(key, Stat())
            out[f"{key}.calls"] = (stat.calls, "count")
            out[f"{key}.self_s"] = (stat.self_s, "s")
            for name in counters:
                out[f"{key}.{name}"] = (stat.counters.get(name, 0), COUNTER_UNITS.get(name, "count"))
        return out
