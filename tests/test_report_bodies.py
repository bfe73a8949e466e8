"""Report bodies and the study output pinned by hash, so a change that moves any report byte shows.

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
from sigcone import quadrature
from sigcone.cli import main
from sigcone.harness import SUITE_NAMES, default_config, run_suite, write_report

PINNED = {
    "measure-invariance": "20c4d95db6f8b10aa7af05c4f9bdd57818dae888b3dc72a2126d831278ad1efa",
    "pushforward-product": "0d7125263c456b0bf0ed4853a9792af9f519b9fad4070eaf9a9323fc81b5cfae",
    "density-axioms": "541d7cb4321ebb9bab3dcbc67643aa1c47b3db7671aee67d3b2ef8e81b0b6d77",
    "pairing-continuity": "f9d37f6a16b66fa603751a3bcbe8c04403c305bd52e483829c1a92e1d9e7982d",
    "unitarity": "aac32f71e21d5fa2bdba679efc5b5d11e67c22f5540c7098282449ba7fe93685",
    "representation-law": "a42c52e136e6dd94203c15d25575413f4a435ec8b8b103c4f1f23e9b34d20756",
    "rescaling": "fdf386cad8e448a4ff7665e3ef1d7027dc78e372e16c6e2a4faaf6f9c7cb73e6",
    "counterexample": "111c4bea1886d81b2fb5db5c716585dd65f3c519ac1ada2bff7ef570d42dbd1f",
    "kspace-axioms": "cf82c29d03b26c500b56d98758e1dd91ffcb1e03878e09d9c9bde9d02917117f",
    "kspace-density": "1d26799942c084c9368f15b5d7ecefa2e4293dd60245c46bb07e9e67bf9a7cec",
    "graded-orthogonality": "6ebcd68a0e53f69657769acd3cd36cdd692df911ed275c2ea676d9901cfe9461",
    "chart-atlas": "51d614cae0432ecf256d0f0d1cc9adf757d9a6d0d182fb8143f28384432295a7",
}
# `sigcone study all --ladder 8,16 --out FILE` at the default seed; each study runs a suite's case
PINNED_STUDY = "fc7207c447bd77ec643feb884bf5478a14fb1a4098f603dc51044e04c0b02ca0"


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


def test_study_output_matches_pinned_hash(tmp_path):
    path = tmp_path / "study.txt"
    assert main(["study", "all", "--ladder", "8,16", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_STUDY, "study output changed"


# the two suites with the largest slab-summed grids; no slab boundary may reach a report body
@pytest.mark.parametrize("name", ["measure-invariance", "density-axioms"])
def test_report_body_does_not_depend_on_the_slab_size(name, tmp_path, monkeypatch):
    monkeypatch.setattr(quadrature, "SLAB_POINTS", 128)
    result = run_suite(name, default_config(name, seed=20240613, trials=min(default_config(name).trials, 3)))
    path = tmp_path / f"{name}.report.jsonl"
    write_report(path, result)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED[name]


def _body(tmp_path: Path, name: str, blas_threads: int) -> bytes:
    """A suite's report body at 3 trials, written by a fresh process under a BLAS thread cap."""
    out = tmp_path / f"threads{blas_threads}.report.jsonl"
    src = str(Path(sigcone.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads), PYTHONPATH=src)
    cmd = [sys.executable, "-m", "sigcone.cli", "verify", name,
           "--seed", "20240613", "--trials", "3", "--out", str(out)]
    subprocess.run(cmd, env=env, check=True, capture_output=True)
    return out.read_bytes()


# the suites with the largest rule sums (up to 64^3 nodes), which a threaded BLAS dot would split
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores for a threaded BLAS")
@pytest.mark.parametrize("name", ["density-axioms", "measure-invariance"])
def test_bodies_do_not_depend_on_blas_threads(tmp_path, name):
    assert _body(tmp_path, name, 1) == _body(tmp_path, name, 2)
