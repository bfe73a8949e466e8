import itertools
import json
import math
from dataclasses import replace

import pytest

from sigcone import configuration, densities, harness, hspace
from sigcone.cli import main
from sigcone.configuration import Diffeo1D
from sigcone.harness import (
    STUDY_OPS,
    ReportRow,
    SuiteConfig,
    SuiteResult,
    _rel,
    _Rows,
    convergence_study,
    default_config,
    run_suite,
    study_decays,
    write_report,
)


def test_config_roundtrip_and_validation():
    c = SuiteConfig(seed=7, nodes_per_dim=24, trials=3, signature=(0, 1), n_max=2)
    d = SuiteConfig.loads(c.dumps())
    assert d == c
    with pytest.raises(ValueError):
        SuiteConfig(trials=0)
    with pytest.raises(ValueError):
        SuiteConfig(nodes_per_dim=4)
    for n_max in (0, -1, 7):  # 0 divided by zero in unitarity, -1 ran rescaling at N=1
        with pytest.raises(ValueError):
            SuiteConfig(n_max=n_max)
    # an empty catalog divided by zero in representation-law and chart-atlas
    with pytest.raises(ValueError, match="catalog"):
        SuiteConfig(diffeo_catalog=())
    # suites build over one base dimension; (2, 0) stopped `verify all` in pairing-continuity
    for sig in ((2, 0), (1, 1), (0, 0)):
        with pytest.raises(ValueError):
            SuiteConfig(signature=sig)
        with pytest.raises(ValueError):
            SuiteConfig.loads(json.dumps({"signature": list(sig), "trials": 1}))


def test_config_refuses_negative_seed():
    # every suite stopped inside the RNG with "expected non-negative integer"
    with pytest.raises(ValueError, match="seed"):
        SuiteConfig(seed=-1)
    with pytest.raises(ValueError, match="seed"):
        SuiteConfig.loads(json.dumps({"seed": -1}))


def test_config_loads_refuses_unknown_keys_and_defaults_missing_ones():
    # misspelled keys used to be dropped, running 48 nodes and 20 trials
    with pytest.raises(ValueError, match="node_per_dim"):
        SuiteConfig.loads(json.dumps({"node_per_dim": 16, "trails": 2}))
    assert SuiteConfig.loads("{}") == SuiteConfig()
    assert SuiteConfig.loads(json.dumps({"trials": 2})) == SuiteConfig(trials=2)


@pytest.mark.parametrize("text", [
    '{"trials": 2.9}',  # used to run 2 trials and pass
    '{"seed": 7.0}',
    '{"nodes_per_dim": "48"}',
    '{"n_max": true}',
    '{"signature": [1]}',
    '{"signature": [1, 0.0]}',
    '{"signature": "10"}',
    '{"diffeo_catalog": [{"tag": "sine"}]}',
    '{"diffeo_catalog": [{"params": [0.45]}]}',
    '{"diffeo_catalog": [{"tag": "sine", "params": [0.45], "note": 1}]}',
    '{"diffeo_catalog": [{"tag": "sine", "params": [null]}]}',
    '{"diffeo_catalog": {"tag": "sine", "params": [0.45]}}',
    '{"diffeo_catalog": []}',  # used to run the default catalog
    '{"output_path": 3}',
    '[1, 0]',
    'not json',
])
def test_config_loads_refuses_what_dumps_never_writes(text):
    with pytest.raises(ValueError):
        SuiteConfig.loads(text)


def test_config_loads_accepts_integer_catalog_params():
    text = json.dumps({"diffeo_catalog": [{"tag": "affine", "params": [2, 0]}]})
    assert SuiteConfig.loads(text).diffeo_catalog == (Diffeo1D("affine", (2.0, 0.0)),)


@pytest.mark.parametrize("argv, config", [
    (["verify", "rescaling", "--seed", "-1"], None),  # also used to exit with status 1
    (["verify", "rescaling"], '{"trails": 2}'),
    (["verify", "rescaling"], '{"signature": [1]}'),
    (["verify", "rescaling"], '{"diffeo_catalog": [{"tag": "sine"}]}'),
    (["verify", "rescaling"], "not json"),
    (["verify", "rescaling"], "<missing file>"),
    (["study", "unitarity", "--ladder", "16,8"], None),
    (["study", "unitarity", "--ladder", "a"], None),
    (["verify", "rescaling"], '{"diffeo_catalog": []}'),  # used to run the default catalog
    (["study", "unitarity", "--ladder", "4,8"], None),  # used to run below the suites' node floor
])
def test_refused_cli_input_is_a_usage_error(argv, config, tmp_path, capsys):
    # each of these used to end in a Python traceback
    if config is not None:
        path = tmp_path / "config.json"
        if config != "<missing file>":
            path.write_text(config)
        argv = [*argv, "--config", str(path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"sigcone {argv[0]}: error: ")


@pytest.mark.parametrize("suite", [
    "pairing-continuity", "unitarity", "representation-law", "rescaling",
    "kspace-axioms", "kspace-density", "graded-orthogonality",
])
def test_signature_suites_pass_on_the_negative_cone(suite):
    result = run_suite(suite, default_config(suite, signature=(0, 1), trials=2))
    assert result.rows and all(r.verdict for r in result.rows)


def test_row_timings_are_measured_and_add_up(tmp_path):
    result = run_suite("rescaling", default_config("rescaling", trials=2))
    times = [r.elapsed_ms for r in result.rows]
    assert all(t > 0.0 for t in times)
    assert sum(times) <= result.elapsed_ms
    path = tmp_path / "resc.jsonl"
    write_report(path, result)
    timings = json.loads(path.with_name("resc.jsonl.timings").read_text())
    assert timings["elapsed_ms"] == result.elapsed_ms
    assert timings["rows"] == {r.case_id: r.elapsed_ms for r in result.rows}
    assert all(t > 0.0 for t in timings["rows"].values())


def test_rows_judge_every_row_by_one_rule():
    out = _Rows("rule", SuiteConfig())
    out.add("default-err", 1.0 + 2.0j, 1.0 + 2.0j + 1e-9, 1e-8)
    out.add("err-at-tol", 1.0, 2.0, 0.5, err=0.5)
    out.add("exact-zero", 3.0, 0.0, 0, err=0.0)
    out.add("least-positive", 3.0, 0.0, 0, err=5e-324)
    out.add("nan-err", 1.0, 1.0, math.inf, err=math.nan)
    out.add("ok-pass", 1.0, 5.0, 1e-12, ok=True)
    out.add("ok-fail", 1.0, 1.0, 1e-12, ok=False)
    rows = {r.case_id: r for r in out.rows}
    assert rows["default-err"].rel_err == _rel(1.0 + 2.0j, 1.0 + 2.0j + 1e-9)
    assert rows["ok-pass"].rel_err == _rel(1.0, 5.0)
    verdicts = {case_id: r.verdict for case_id, r in rows.items()}
    assert verdicts == {
        "default-err": True, "err-at-tol": False, "exact-zero": True, "least-positive": False,
        "nan-err": False, "ok-pass": True, "ok-fail": False,
    }


def test_density_positivity_fails_on_a_nan_norm(monkeypatch):
    monkeypatch.setattr(densities, "evaluate", lambda w, e: complex(math.nan, 0.0))
    result = run_suite("density-axioms", default_config("density-axioms", trials=2))
    pos = [r for r in result.rows if r.case_id.endswith("-pos")]
    assert len(pos) == 2 and not any(r.verdict for r in pos)


def test_chart_atlas_rows_count_the_cases_that_broke(monkeypatch):
    calls, real = itertools.count(), configuration.project
    monkeypatch.setattr(configuration, "project", lambda t: None if next(calls) % 2 else real(t))
    result = run_suite("chart-atlas", default_config("chart-atlas", trials=50))
    rows = {r.case_id: r for r in result.rows}
    assert not rows["projection[10]"].verdict and rows["projection[10]"].rel_err == 5.0
    assert all(r.verdict for case_id, r in rows.items() if case_id != "projection[10]")


def test_measure_invariance_doubled_rule_floor():
    # at this seed the 32-node error of inv-n2-010 (1.2e-9) is lowered by the two
    # sides cancelling, and lies below the 64-node error (1.5e-9)
    config = default_config("measure-invariance", seed=1010, trials=11)
    result = run_suite("measure-invariance", config)
    assert result.passed
    row = next(r for r in result.rows if r.case_id == "inv-n2-010@64")
    assert row.rel_err < 1e-7


def test_report_written_once_to_output_path(tmp_path, monkeypatch):
    monkeypatch.setenv("SIGCONE_OUT_DIR", str(tmp_path / "default"))
    target = tmp_path / "resc.jsonl"
    config = replace(default_config("rescaling", trials=2), output_path=str(target))
    run_suite("rescaling", config)
    assert not target.exists()
    config_file = tmp_path / "config.json"
    config_file.write_text(config.dumps())
    assert main(["verify", "rescaling", "--config", str(config_file)]) == 0
    assert json.loads(target.read_text().splitlines()[-1])["summary"]["all_pass"] is True
    assert not (tmp_path / "default").exists()


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("no-such-suite")


def test_rescaling_suite_is_machine_exact():
    result = run_suite("rescaling", default_config("rescaling", trials=3))
    assert result.passed
    assert all(r.rel_err < 1e-14 for r in result.rows)


def test_counterexample_suite_uses_the_configured_nodes():
    from sigcone.hspace import counterexample_profile, fit_divergence

    grid = [2.0**-k for k in range(4, 13)]
    result = run_suite("counterexample", default_config("counterexample", nodes_per_dim=16))
    by_id = {r.case_id: r for r in result.rows}
    assert by_id["slope-local"].lhs == fit_divergence(counterexample_profile(grid, 16)).slope_local
    assert by_id["value-at-half"].lhs == counterexample_profile([0.5], 16)[0][1]
    assert by_id["slope-local"].lhs != fit_divergence(counterexample_profile(grid, 200)).slope_local


def test_counterexample_suite():
    result = run_suite("counterexample")
    assert result.passed
    by_id = {r.case_id: r for r in result.rows}
    assert abs(by_id["slope-extrapolated"].lhs.real + 1.0) <= 0.05
    assert abs(by_id["slope-ols-vs-analytic"].lhs.real + 1.067) < 1e-2


def test_graded_suite_and_report_determinism(tmp_path):
    config = default_config("graded-orthogonality", trials=2)
    r1 = run_suite("graded-orthogonality", config)
    r2 = run_suite("graded-orthogonality", config)
    body1 = [json.dumps(r.body(), sort_keys=True) for r in r1.rows]
    body2 = [json.dumps(r.body(), sort_keys=True) for r in r2.rows]
    assert body1 == body2
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_report(p1, r1)
    write_report(p2, r2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.with_name("a.jsonl.timings").exists()


def test_report_summary_line(tmp_path):
    row_ok = ReportRow("s", "a", 1.0, 1.0, 0.0, 8, 0.0, True)
    row_bad = ReportRow("s", "b", 1.0, 2.0, 1.0, 8, 0.0, False)
    res = SuiteResult("s", [row_ok, row_bad], 1.0)
    assert not res.passed
    path = tmp_path / "r.jsonl"
    write_report(path, res)
    lines = path.read_text().splitlines()
    assert json.loads(lines[-1])["summary"] == {
        "suite": "s", "cases": 2, "failures": 1, "all_pass": False,
    }
    # complex values keep both parts, reals are stored flat
    enc = ReportRow("s", "c", 1 + 2j, 3.0, 0.0, 8, 0.0, True).body()
    assert enc["lhs"] == [1.0, 2.0] and enc["rhs"] == 3.0


def test_cli_verify_and_exit_code(tmp_path):
    out = tmp_path / "resc.jsonl"
    code = main(["verify", "rescaling", "--trials", "2", "--out", str(out)])
    assert code == 0
    assert out.exists()
    lines = out.read_text().splitlines()
    assert json.loads(lines[-1])["summary"]["all_pass"] is True


def test_cli_config_file_overrides_only_the_keys_it_names(tmp_path):
    # a file naming only the seed used to reset nodes and trials to SuiteConfig's field defaults
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"seed": 20240613}))
    by_file, by_flag = tmp_path / "file.jsonl", tmp_path / "flag.jsonl"
    assert main(["verify", "rescaling", "--config", str(config_file), "--out", str(by_file)]) == 0
    assert main(["verify", "rescaling", "--seed", "20240613", "--out", str(by_flag)]) == 0
    assert by_file.read_bytes() == by_flag.read_bytes()


def test_cli_study(tmp_path, capsys):
    out = tmp_path / "study.txt"
    code = main(["study", "pushforward-product", "--ladder", "16,32", "--out", str(out)])
    assert code == 0
    assert "decay: yes" in capsys.readouterr().out
    assert out.exists()


def test_cli_study_all_runs_every_operation(tmp_path, capsys):
    out = tmp_path / "study.txt"
    assert main(["study", "all", "--ladder", "8,12", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert all(f"{op} decay: yes" in printed for op in STUDY_OPS)
    assert [line.split()[0] for line in out.read_text().splitlines()] == [op for op in STUDY_OPS for _ in (8, 12)]


def test_cli_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "bogus"])


def test_pairing_identity_study_compares_nonzero_inner_products(monkeypatch):
    # a pair with disjoint x supports compares 0 with 0 at every rung and cannot fail
    seen = []
    inner = hspace.inner

    def recording_inner(*args):
        seen.append(inner(*args))
        return seen[-1]

    monkeypatch.setattr(hspace, "inner", recording_inner)
    rows = convergence_study("pairing-identity", [16, 32])
    assert len(seen) == 2 and all(v != 0 for v in seen)
    # both states are pulled through sine(0.45), so the first rung reads quadrature error, not rounding
    assert rows[0].rel_err > 1e-12
    assert study_decays(rows)


def test_pairing_continuity_draws_block_counts_up_to_n_max(monkeypatch):
    # it drew N = 1 + i % 2 whatever n_max said, so n_max=1 still built N=2 states
    real, drawn = harness.random_state, []

    def spy(rng, n_blocks, measure, n_terms=2):
        drawn.append(n_blocks)
        return real(rng, n_blocks, measure, n_terms)

    monkeypatch.setattr(harness, "random_state", spy)
    result = run_suite("pairing-continuity", default_config("pairing-continuity", trials=4, n_max=1))
    assert result.passed and drawn == [1] * 4


def test_convergence_studies():
    rows = convergence_study("unitarity", [16, 32, 64])
    assert rows[0].rel_err > rows[-1].rel_err
    assert study_decays(rows)
    rows = convergence_study("measure-invariance-n2", [16, 32, 64])
    assert rows[-1].rel_err < 1e-5
    with pytest.raises(ValueError):
        convergence_study("unitarity", [32, 16])
    with pytest.raises(ValueError):
        convergence_study("bogus-op", [16, 32])


@pytest.mark.parametrize("op", [op for op in STUDY_OPS if op != "pairing-identity"])
def test_study_rung_is_the_suite_row_of_its_case(op):
    # a study runs a suite's own case function, so at the suite's default nodes it reads that case's rows
    prefix, i = harness._STUDY_CASES[op]
    suite = next(name for name, (prefixes, *_) in harness._SUITES.items() if prefix in prefixes)
    config = default_config(suite, trials=i + 1)
    n = config.nodes_per_dim
    label = f"{prefix}-{i:03d}"
    rows = [r for r in run_suite(suite, config).rows if r.case_id.startswith(label) and r.nodes == n]
    assert rows
    (rung,) = convergence_study(op, [n])
    assert rung.rel_err == max(r.rel_err for r in rows)


def test_pairing_continuity_suite():
    result = run_suite("pairing-continuity", default_config("pairing-continuity", trials=3))
    assert result.passed


def test_density_axioms_suite():
    result = run_suite("density-axioms", default_config("density-axioms", trials=4))
    assert result.passed


def test_output_dir_env(monkeypatch, tmp_path):
    from sigcone.harness import output_dir

    monkeypatch.setenv("SIGCONE_OUT_DIR", str(tmp_path / "here"))
    assert output_dir() == tmp_path / "here"
