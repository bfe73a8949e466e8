"""Smoke tests: the scripts in scripts/ run against the package in src/."""

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
    ("convergence_ladders.py", ["--ladder", "8,12"]),
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
