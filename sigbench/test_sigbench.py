"""Checks of the benchmark itself: pinned configs, the row gate and the tracer.

Run from the repository root with ``python3 -m pytest sigbench``.  Passes here
use the pinned configs with fewer trials, which keeps every code path of the
full workloads but takes seconds.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import run
import tracer as tracing
import sigcone.cli  # noqa: F401  (its from-import copies must be rebound too)
from sigcone import harness, hspace
from workloads import CATALOG, N_MAX, SIGNATURE, SUITE_SETTINGS, WORKLOADS, input_seeds, suite_config

SEED = 20240613


def small_configs(workload: str, seed: int = SEED) -> dict:
    out = {}
    for name in WORKLOADS[workload].suites:
        config = suite_config(name, seed)
        trials = 10 if name == "chart-atlas" else min(config.trials, 3)
        out[name] = replace(config, trials=trials)
    return out


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """Per workload: an untraced pass, then a traced pass of the same inputs."""
    out = {}
    for workload in WORKLOADS:
        suites = WORKLOADS[workload].suites
        configs = small_configs(workload)
        plain_dir = tmp_path_factory.mktemp(f"{workload}-plain")
        traced_dir = tmp_path_factory.mktemp(f"{workload}-traced")
        plain = run.run_pass(suites, configs, plain_dir)
        tr = tracing.Tracer()
        with tr.installed():
            traced = run.run_pass(suites, configs, traced_dir)
        out[workload] = dict(plain=plain, traced=traced, tracer=tr, plain_dir=plain_dir, traced_dir=traced_dir)
    return out


def test_pinned_configs_equal_package_defaults():
    assert tuple(SUITE_SETTINGS) == harness.SUITE_NAMES
    assert SUITE_SETTINGS == harness._SUITE_DEFAULTS
    assert tuple((t.tag, t.params) for t in harness.DEFAULT_CATALOG) == CATALOG
    assert SIGNATURE == harness.SuiteConfig().signature
    assert N_MAX == harness.SuiteConfig().n_max
    for name in SUITE_SETTINGS:
        assert suite_config(name, 7) == harness.default_config(name, seed=7)


def test_workloads_run_every_suite_exactly_once():
    runs = Counter(name for w in WORKLOADS.values() for name in w.suites)
    assert sorted(runs) == sorted(harness.SUITE_NAMES)
    assert set(runs.values()) == {1}
    for w in WORKLOADS.values():
        assert w.lead in w.suites


def test_input_seeds_start_at_the_run_seed_and_never_overlap():
    assert input_seeds(SEED, 3)[0] == SEED
    drawn = [s for seed in range(50) for s in input_seeds(seed, 5)]
    assert len(drawn) == len(set(drawn))


def _write_rows(path: Path, rows: list[dict]) -> None:
    lines = [json.dumps(r, sort_keys=True) for r in rows] + [json.dumps({"summary": {}})]
    path.write_text("\n".join(lines) + "\n")


def test_gate_counts_failed_changed_missing_and_raising_rows(tmp_path):
    report = tmp_path / "s.report.jsonl"
    ok = run.PassResult(1.0, 1.0, {"s": 1.0})
    rows = [{"case_id": "a", "lhs": 1.0, "verdict": "pass"}, {"case_id": "b", "lhs": 2.0, "verdict": "pass"}]
    gate = run.Gate()
    _write_rows(report, rows)
    gate.check(0, ["s"], ok, tmp_path)
    gate.check(0, ["s"], ok, tmp_path)
    assert (gate.attempted, gate.failed) == (4, 0)

    _write_rows(report, [rows[0], dict(rows[1], lhs=2.5)])  # body differs from the first pass
    gate.check(0, ["s"], ok, tmp_path)
    assert (gate.attempted, gate.failed) == (6, 1)

    _write_rows(report, [dict(rows[0], verdict="fail")])  # a fail verdict and a missing case id
    gate.check(0, ["s"], ok, tmp_path)
    assert (gate.attempted, gate.failed) == (8, 3)

    gate.check(0, ["s"], run.PassResult(1.0, 1.0, {}, {"s": "Traceback\n"}), tmp_path)
    assert (gate.attempted, gate.failed) == (10, 5)

    _write_rows(report, [dict(rows[0], lhs=9.0)])  # another input seed has its own first pass
    gate.check(1, ["s"], ok, tmp_path)
    assert (gate.attempted, gate.failed) == (11, 5)


def _originals() -> list:
    out = []
    for span in tracing.SPANS:
        owner = sys.modules[f"sigcone.{span.module}"]
        out.append(vars(getattr(owner, span.cls) if span.cls else owner)[span.attr])
    return out


def _bindings(objs) -> set[tuple[str, str]]:
    """(module, name) of every sigcone module attribute that is one of objs."""
    return {
        (name, attr)
        for name, m in sys.modules.items()
        if name == "sigcone" or name.startswith("sigcone.")
        for attr, value in vars(m).items()
        if any(value is o for o in objs)
    }


def _class_attrs() -> list:
    return [
        vars(getattr(sys.modules[f"sigcone.{span.module}"], span.cls))[span.attr]
        for span in tracing.SPANS
        if span.cls
    ]


def test_tracer_rebinds_every_binding_and_restores_it():
    originals = _originals()
    bound = _bindings(originals)
    # from-import copies and package re-exports, not only the defining modules
    assert bound >= {
        ("sigcone.hspace", "bump_values"),
        ("sigcone.kspace", "fiber_inner"),
        ("sigcone.densities", "fiber_inner"),
        ("sigcone.gamma", "tensor_rule"),
        ("sigcone.fibers", "tensor_rule"),
        ("sigcone.fibers", "gl_rule"),
        ("sigcone.hspace", "tensor_rule"),
        ("sigcone.hspace", "gl_rule"),
        ("sigcone", "run_suite"),
        ("sigcone.cli", "write_report"),
    }
    methods = _class_attrs()
    with tracing.Tracer().installed():
        assert _bindings(originals) == set()
        assert not any(a is b for a, b in zip(_class_attrs(), methods))
    assert _bindings(originals) == bound
    assert all(a is b for a, b in zip(_class_attrs(), methods))


def test_traced_rows_are_byte_identical_to_untraced_rows(passes):
    for workload, p in passes.items():
        assert not p["plain"].errors and not p["traced"].errors
        for name in WORKLOADS[workload].suites:
            plain = (p["plain_dir"] / f"{name}.report.jsonl").read_bytes()
            traced = (p["traced_dir"] / f"{name}.report.jsonl").read_bytes()
            assert plain == traced, name


def test_inner_call_counts_match_a_profiler_count(passes):
    configs = small_configs("sorted-states")
    code = hspace.inner.__code__
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            counts[f"hspace.inner.N{frame.f_locals['s1'].n_blocks}"] += 1

    sys.setprofile(profile)
    try:
        for name in WORKLOADS["sorted-states"].suites:
            harness.run_suite(name, configs[name])
    finally:
        sys.setprofile(None)
    stats = passes["sorted-states"]["tracer"].stats
    assert set(counts) == {"hspace.inner.N1", "hspace.inner.N2", "hspace.inner.N3"}
    for key, n in counts.items():
        assert stats[key].calls == n


def test_self_times_sum_to_the_traced_pass_wall_time(passes):
    for p in passes.values():
        tr, wall = p["tracer"], p["traced"].wall_s
        total = sum(s.self_s for s in tr.stats.values())
        assert total == pytest.approx(tr.root_s, rel=1e-9)
        assert abs(total - wall) <= 0.02 * wall + 0.01


# workload -> (span keys predicted to do work there, span keys predicted to stay idle there)
PREDICTIONS = {
    "cone-integrals": (
        {"quadrature.tensor_rule", "gamma.integrate_gamma.n1", "gamma.integrate_gamma.n2",
         "gamma.verify_invariance", "fibers.bump", "fibers.fiber_inner.n2",
         "fibers.pushforward_product_check", "densities.density_product"},
        {"hspace.inner.N1", "hspace.inner.N2", "hspace.inner.N3", "hspace.pullback",
         "hspace.HalfDensityState.init", "hspace.PairedDensity.call", "configuration.PointSet.init",
         "configuration.PointTuple.init", "configuration.Diffeo1D.inverse", "kspace.k_inner",
         "kspace.k_pullback", "kspace.SparseSection.init"},
    ),
    "sorted-states": (
        {"quadrature.tensor_rule", "fibers.bump_values", "hspace.inner.N1", "hspace.inner.N2",
         "hspace.inner.N3", "hspace.pullback", "hspace.HalfDensityState.init",
         "hspace.PairedDensity.call", "configuration.Diffeo1D.inverse"},
        {"gamma.integrate_gamma.n1", "gamma.integrate_gamma.n2", "gamma.verify_invariance",
         "fibers.pushforward_product_check", "densities.density_product"},
    ),
    "point-sections": (
        {"quadrature.gl_rule", "configuration.PointSet.init", "configuration.PointTuple.init",
         "configuration.local_chart",
         "configuration.Chart.chart_map", "configuration.Chart.inverse_map",
         "configuration.induced_diffeo", "configuration.block_pullback_vs_per_point",
         "configuration.Diffeo1D.inverse", "fibers.fiber_inner.n1", "kspace.k_inner",
         "kspace.k_pullback", "kspace.SparseSection.init"},
        {"quadrature.tensor_rule", "gamma.integrate_gamma.n1", "gamma.integrate_gamma.n2",
         "gamma.verify_invariance", "fibers.pushforward_product_check", "densities.density_product",
         "hspace.inner.N1", "hspace.inner.N2", "hspace.inner.N3"},
    ),
}


@pytest.mark.parametrize("workload", sorted(PREDICTIONS))
def test_layers_work_where_predicted_and_idle_elsewhere(passes, workload):
    busy, idle = PREDICTIONS[workload]
    metrics = passes[workload]["tracer"].metrics()
    for key in busy:
        assert metrics[f"{key}.calls"][0] > 0, key
    for key in idle:
        assert metrics[f"{key}.calls"][0] == 0, key
    for name in SUITE_SETTINGS:
        assert metrics[f"harness.suite.{name}.calls"][0] == (name in WORKLOADS[workload].suites)
    assert metrics["harness.write_report.calls"][0] == len(WORKLOADS[workload].suites)


def test_reported_metrics_match_benchmark_json(passes):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    p = passes["sorted-states"]
    e2e = run.end_to_end(WORKLOADS["sorted-states"], [[p["plain"]]], setup_s=0.5)
    layers = run.per_layer([p["plain"]], [p["traced"]], [p["tracer"].metrics()])
    for declared, reported in ((spec["end_to_end"], e2e), (spec["per_layer"], layers)):
        assert [m["name"] for m in declared] == list(reported)
        assert [m["unit"] for m in declared] == [v["unit"] for v in reported.values()]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_fastest_per_input_averages_each_inputs_fastest_repeat():
    assert run.fastest_per_input([[3.0, 2.0], [5.0, 4.0, 6.0]]) == 3.0
