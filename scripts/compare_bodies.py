#!/usr/bin/env python3
"""Check that the working tree writes the same report bodies as a git revision.

    python scripts/compare_bodies.py REF

Checks REF out with ``git worktree`` into a temporary directory, runs
``sigcone verify all`` at seeds 20240613, 7 and 4315207909 on that checkout
and on the working tree (each from its own ``src/``), and compares every
``*.report.jsonl`` byte for byte; the ``.timings`` side files are not
compared.  Prints each suite and seed whose body differs, exits 1 on any
difference and 0 otherwise, and removes the worktree.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (20240613, 7, 4315207909)
ROOT = Path(__file__).resolve().parents[1]


def _verify_all(tree: Path, seed: int, out: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "sigcone.cli", "verify", "all", "--seed", str(seed), "--out", str(out)]
    return subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)


def _differences(ref_dir: Path, new_dir: Path) -> list[str]:
    ref = {p.name: p for p in ref_dir.glob("*.report.jsonl")}
    new = {p.name: p for p in new_dir.glob("*.report.jsonl")}
    return sorted(
        name.removesuffix(".report.jsonl")
        for name in ref.keys() | new.keys()
        if name not in ref or name not in new or ref[name].read_bytes() != new[name].read_bytes()
    )


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="compare-bodies-") as tmp:
        tmp = Path(tmp)
        ref_tree = tmp / "ref"
        subprocess.run(["git", "worktree", "add", "--detach", str(ref_tree), argv[0]], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        try:
            differing = 0
            for seed in SEEDS:
                runs = {name: _verify_all(tree, seed, tmp / f"{name}-{seed}")
                        for name, tree in (("ref", ref_tree), ("new", ROOT))}
                for name, proc in runs.items():
                    _, err = proc.communicate()
                    # exit status 1 means a suite verdict failed; the bodies still compare
                    if proc.returncode not in (0, 1):
                        raise SystemExit(f"verify all on the {name} tree failed at seed {seed}:\n{err}")
                for suite in _differences(tmp / f"ref-{seed}", tmp / f"new-{seed}"):
                    print(f"DIFF {suite} at seed {seed}")
                    differing += 1
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(ref_tree)], cwd=ROOT, check=True)
    print(f"{differing} differing report bodies against {argv[0]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
