"""Smoke tests: the scripts in scripts/ run against the package in src/."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, str(ROOT / "scripts" / name), *args]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name, args", [
    ("divergence_profile.py", ["--kmin", "4", "--kmax", "6"]),
])
def test_script_runs(name, args, tmp_path):
    proc = run_script(name, *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_compare_bodies_without_a_revision_prints_its_usage(tmp_path):
    # refused before git is run
    proc = run_script("compare_bodies.py", cwd=tmp_path)
    assert proc.returncode == 2
    assert "python scripts/compare_bodies.py REF" in proc.stderr


def test_compare_bodies_refuses_a_bad_revision_and_leaves_git_alone(tmp_path):
    def worktrees():
        return subprocess.run(["git", "worktree", "list", "--porcelain"], cwd=ROOT, capture_output=True, text=True).stdout

    before = worktrees()
    proc = run_script("compare_bodies.py", "no-such-revision", cwd=tmp_path)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1 and "no-such-revision" in proc.stderr
    assert worktrees() == before


def _write_body(path, rows, summary):
    lines = [json.dumps(dict(r, suite="s"), sort_keys=True) for r in rows]
    path.write_text("\n".join(lines + [json.dumps({"summary": summary}, sort_keys=True)]) + "\n")


def test_compare_bodies_says_what_moved(tmp_path):
    spec = importlib.util.spec_from_file_location("compare_bodies", ROOT / "scripts" / "compare_bodies.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    ref, new = tmp_path / "ref", tmp_path / "new"
    ref.mkdir(), new.mkdir()
    row = {"case_id": "a", "lhs": 1.0, "rhs": [2.0, 0.5], "nodes": 8, "rel_err": 0.0, "verdict": "pass"}
    summary = {"all_pass": True, "cases": 2, "failures": 0, "suite": "s"}
    for d in (ref, new):
        _write_body(d / "same.report.jsonl", [row], summary)
    _write_body(ref / "shift.report.jsonl", [row, dict(row, case_id="b")], summary)
    _write_body(new / "shift.report.jsonl", [dict(row, lhs=1.0 + 2e-16), dict(row, case_id="b", rhs=[2.0, 0.5 + 1e-15])],
                summary)
    _write_body(ref / "verdict.report.jsonl", [row], summary)
    _write_body(new / "verdict.report.jsonl", [dict(row, case_id="c", verdict="fail")], dict(summary, failures=1))
    _write_body(ref / "gone.report.jsonl", [row], summary)
    assert script._differences(ref, new) == [
        ("gone", "written by one tree only"),
        ("shift", "2 lhs/rhs values moved, largest relative shift 4.8e-16 at b; "
                  "verdicts, case ids and summary unchanged"),
        ("verdict", "0 lhs/rhs values moved; verdict of c pass -> fail; case ids differ; "
                    "summary line differs"),
    ]
