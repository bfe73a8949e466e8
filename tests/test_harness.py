import json
from dataclasses import replace

import pytest

from sigcone.cli import main
from sigcone.harness import (
    ReportRow,
    SuiteConfig,
    SuiteResult,
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
    with pytest.raises(ValueError):
        SuiteConfig(n_max=7)


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


def test_cli_study(tmp_path, capsys):
    out = tmp_path / "study.txt"
    code = main(["study", "identity-diffeo", "--ladder", "16,32", "--out", str(out)])
    assert code == 0
    assert "decay: yes" in capsys.readouterr().out
    assert out.exists()


def test_cli_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "bogus"])


def test_convergence_studies():
    rows = convergence_study("identity-diffeo", [16, 32])
    assert all(r.rel_err == 0.0 for r in rows)
    assert study_decays(rows)
    rows = convergence_study("unitarity", [16, 32, 64])
    assert rows[0].rel_err > rows[-1].rel_err
    assert study_decays(rows)
    rows = convergence_study("measure-invariance-n2", [16, 32, 64])
    assert rows[-1].rel_err < 1e-5
    with pytest.raises(ValueError):
        convergence_study("unitarity", [32, 16])
    with pytest.raises(ValueError):
        convergence_study("bogus-op", [16, 32])


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
