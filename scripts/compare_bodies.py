#!/usr/bin/env python3
"""Check that the working tree writes the same report bodies as a git revision.

    python scripts/compare_bodies.py REF

Extracts REF's files with ``git archive`` into a temporary directory, runs
``sigcone verify all`` at seeds 20240613, 7 and 4315207909 on that copy and
on the working tree (each from its own ``src/``), and compares every
``*.report.jsonl`` byte for byte; the ``.timings`` side files are not
compared.  Prints each suite and seed whose body differs, with how many
``lhs``/``rhs`` values moved, the largest relative shift and the case it
is in, and any changed verdict, case id or summary line; exits 1 on any
difference and 0 otherwise.  Nothing under ``.git`` is written; a REF that
git cannot archive exits 2 with one error line.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SEEDS = (20240613, 7, 4315207909)
ROOT = Path(__file__).resolve().parents[1]


def _verify_all(tree: Path, seed: int, out: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "sigcone.cli", "verify", "all", "--seed", str(seed), "--out", str(out)]
    return subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)


def _load(path: Path) -> tuple[list[dict], list[dict]]:
    """The case rows and the summary lines of a report body."""
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    return [r for r in lines if "summary" not in r], [r for r in lines if "summary" in r]


def _value(v) -> complex:
    return complex(*v) if isinstance(v, list) else complex(v)


def _describe(ref: Path, new: Path) -> str:
    """What moved between two bodies of one suite."""
    (ref_rows, ref_summary), (new_rows, new_summary) = _load(ref), _load(new)
    moved, worst, worst_case, notes = 0, 0.0, None, []
    for a, b in zip(ref_rows, new_rows):
        for key in ("lhs", "rhs"):
            if repr(a[key]) == repr(b[key]):
                continue
            moved += 1
            x, y = _value(a[key]), _value(b[key])
            shift = abs(y - x) / abs(x) if x != 0 else math.inf
            if not shift <= worst:  # NaN counts as the largest shift
                worst, worst_case = shift, b["case_id"]
        if a["verdict"] != b["verdict"]:
            notes.append(f"verdict of {b['case_id']} {a['verdict']} -> {b['verdict']}")
    if [r["case_id"] for r in ref_rows] != [r["case_id"] for r in new_rows]:
        notes.append("case ids differ")
    if ref_summary != new_summary:
        notes.append("summary line differs")
    text = f"{moved} lhs/rhs values moved"
    if moved:
        text += f", largest relative shift {worst:.1e} at {worst_case}"
    return "; ".join([text] + (notes or ["verdicts, case ids and summary unchanged"]))


def _differences(ref_dir: Path, new_dir: Path) -> list[tuple[str, str]]:
    """(suite, what moved) for each report body that differs between the two directories."""
    ref = {p.name: p for p in ref_dir.glob("*.report.jsonl")}
    new = {p.name: p for p in new_dir.glob("*.report.jsonl")}
    out = []
    for name in sorted(ref.keys() | new.keys()):
        if name not in ref or name not in new:
            out.append((name.removesuffix(".report.jsonl"), "written by one tree only"))
        elif ref[name].read_bytes() != new[name].read_bytes():
            out.append((name.removesuffix(".report.jsonl"), _describe(ref[name], new[name])))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="compare-bodies-") as tmp:
        tmp = Path(tmp)
        ref_tree = tmp / "ref"
        archive = subprocess.run(["git", "archive", argv[0]], cwd=ROOT, capture_output=True)
        if archive.returncode != 0:
            reason = archive.stderr.decode(errors="replace").strip().splitlines() or ["git archive failed"]
            print(f"compare_bodies: cannot archive {argv[0]!r}: {reason[-1]}", file=sys.stderr)
            return 2
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(ref_tree, filter="data")
        differing = 0
        for seed in SEEDS:
            runs = {name: _verify_all(tree, seed, tmp / f"{name}-{seed}")
                    for name, tree in (("ref", ref_tree), ("new", ROOT))}
            for name, proc in runs.items():
                _, err = proc.communicate()
                # exit status 1 means a suite verdict failed; the bodies still compare
                if proc.returncode not in (0, 1):
                    raise SystemExit(f"verify all on the {name} tree failed at seed {seed}:\n{err}")
            for suite, what in _differences(tmp / f"ref-{seed}", tmp / f"new-{seed}"):
                print(f"DIFF {suite} at seed {seed}: {what}")
                differing += 1
    print(f"{differing} differing report bodies against {argv[0]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
