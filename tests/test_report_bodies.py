"""Report bodies pinned by hash, so a change that moves any report byte shows.

Each suite runs at the default seed with at most 3 trials (chart-atlas: 50,
so that every one of its checks gets at least ten cases).  A change that
moves numbers on purpose updates the hashes here and says why in CHANGES.md.
The hashes hold for the float results of the numpy build they were taken
with; another numpy or libm may round a last digit differently.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sigcone

from sigcone.harness import SUITE_NAMES, default_config, run_suite, write_report

PINNED = {
    "measure-invariance": "768a5d794ad01c8d76a74fdf05a7d94ae21347bb4d57ce56dd5dcdf2e6eb1329",
    "pushforward-product": "b5377fcc0f91362d948cc1907ae7e8fb0338a91d783e32d9023241c0fcfe1a67",
    "density-axioms": "87f38279d29ae404d06cc7e27d24cd702426f6e0a9bf36f636c5568e852e26f9",
    "pairing-continuity": "db4f3b707e97eb0b8882488d5ed6049fc2da8b8f3dd42582bc639f5c12a46d41",
    "unitarity": "b5b867d5f51a782a99443959faea159883e1926e91963b93025231f66abaa237",
    "representation-law": "308e0a38acdec5cf6bfceffce0e88bc24f52b1e4f33d44a071aed25ccd6e2330",
    "rescaling": "c2edda4b89e67e37c867e9fa910998c3b166f437231596395e33852b983d8266",
    "counterexample": "43612708224dbba90e521dff09761138d296abd8238299d1827e57ae2ce70ffd",
    "kspace-axioms": "d79f3328c9d7276565a270244dc097eef7335f798b42e1b9d0a339c2dd389a86",
    "kspace-density": "1d26799942c084c9368f15b5d7ecefa2e4293dd60245c46bb07e9e67bf9a7cec",
    "graded-orthogonality": "1307f26066690055b5bc2cba3a1f97be8f000931b10c4e3aca43888a990e8ac7",
    "chart-atlas": "51d614cae0432ecf256d0f0d1cc9adf757d9a6d0d182fb8143f28384432295a7",
}


def test_every_suite_is_pinned():
    assert tuple(PINNED) == SUITE_NAMES


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_report_body_matches_pinned_hash(name, tmp_path):
    trials = 50 if name == "chart-atlas" else min(default_config(name).trials, 3)
    result = run_suite(name, default_config(name, seed=20240613, trials=trials))
    path = tmp_path / f"{name}.report.jsonl"
    write_report(path, result)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == PINNED[name], f"report body of suite {name!r} changed"


def _density_axioms_body(tmp_path: Path, blas_threads: int) -> bytes:
    """The density-axioms report body written by a fresh process under a BLAS thread cap."""
    out = tmp_path / f"threads{blas_threads}.report.jsonl"
    src = str(Path(sigcone.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads), PYTHONPATH=src)
    cmd = [sys.executable, "-m", "sigcone.cli", "verify", "density-axioms",
           "--seed", "20240613", "--trials", "3", "--out", str(out)]
    subprocess.run(cmd, env=env, check=True, capture_output=True)
    return out.read_bytes()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores for a threaded BLAS")
@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_bodies_do_not_depend_on_blas_threads(tmp_path):
    assert _density_axioms_body(tmp_path, 1) == _density_axioms_body(tmp_path, 2)
