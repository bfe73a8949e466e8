"""The benchmark's workloads and the suite configurations they run.

Every ``SuiteConfig`` field is pinned here rather than read from
``sigcone.harness``, so a later change to the package defaults does not
silently change the benchmark's work.  ``test_sigbench.py`` checks that the
pinned values equal the package defaults they were copied from.
"""

from __future__ import annotations

from dataclasses import dataclass

# suite -> (nodes_per_dim, trials), copied from harness._SUITE_DEFAULTS
SUITE_SETTINGS: dict[str, tuple[int, int]] = {
    "measure-invariance": (32, 50),
    "pushforward-product": (48, 20),
    "density-axioms": (48, 30),
    "pairing-continuity": (48, 10),
    "unitarity": (48, 20),
    "representation-law": (48, 10),
    "rescaling": (16, 6),
    "counterexample": (200, 1),
    "kspace-axioms": (48, 10),
    "kspace-density": (48, 1),
    "graded-orthogonality": (32, 6),
    "chart-atlas": (16, 10000),
}

SIGNATURE = (1, 0)
N_MAX = 3

# (tag, params) of the diffeomorphism catalog, copied from harness.DEFAULT_CATALOG
CATALOG: tuple[tuple[str, tuple[float, ...]], ...] = (
    ("identity", ()),
    ("affine", (1.6, 0.35)),
    ("affine", (0.7, -0.8)),
    ("soft", (0.8, 0.9)),
    ("sine", (0.45,)),
)


@dataclass(frozen=True)
class Workload:
    """Suites run once per pass, in order; ``lead`` names the suite reported
    as ``lead_suite_s``.  A run's passes cycle through ``inputs`` input seeds
    derived from ``--seed``."""

    suites: tuple[str, ...]
    lead: str
    inputs: int


WORKLOADS: dict[str, Workload] = {
    # gamma.integrate_gamma on dense n=2 grids and fibers.fiber_inner with n=2
    # blocks; never touches hspace, kspace or PointSet.
    "cone-integrals": Workload(
        ("measure-invariance", "density-axioms", "pushforward-product"),
        lead="measure-invariance",
        inputs=1,
    ),
    # hspace.inner with N = 1, 2, 3 blocks on pulled-back and plain terms and the
    # Newton inverse of Diffeo1D; no integrate_gamma at all.
    "sorted-states": Workload(
        (
            "unitarity",
            "rescaling",
            "pairing-continuity",
            "representation-law",
            "graded-orthogonality",
            "counterexample",
        ),
        lead="unitarity",
        inputs=8,
    ),
    # PointSet/PointTuple construction, charts and induced maps, plus
    # kspace.k_inner: thousands of small n=1 fiber_inner calls.
    "point-sections": Workload(
        ("chart-atlas", "kspace-axioms", "kspace-density"),
        lead="chart-atlas",
        inputs=1,
    ),
}


def input_seeds(seed: int, count: int) -> list[int]:
    """The run's input seeds: ``seed`` itself first, then seeds no other
    ``--seed`` below 2**32 produces, so runs at different seeds share no input.

    Suite cost depends on the drawn cases (unitarity varies 2.3x between
    seeds), so a run averages over several inputs instead of one.
    """
    return [seed + (k << 32) for k in range(count)]


def suite_config(suite: str, seed: int):
    """The pinned ``SuiteConfig`` of one suite at one input seed."""
    # imported here: loading this module must not load NumPy before the thread cap
    from sigcone import configuration, harness

    nodes, trials = SUITE_SETTINGS[suite]
    return harness.SuiteConfig(
        seed=seed,
        nodes_per_dim=nodes,
        trials=trials,
        signature=SIGNATURE,
        n_max=N_MAX,
        diffeo_catalog=tuple(configuration.Diffeo1D(tag, params) for tag, params in CATALOG),
        output_path=None,
    )
