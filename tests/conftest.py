import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from sigcone.gamma import SignatureSpec, SymMatrix

settings.register_profile(
    "ci",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)


def _random_gamma(spec: SignatureSpec, rng: np.random.Generator, spread: float = 0.4) -> SymMatrix:
    n = spec.n
    scales = rng.uniform(0.5, 2.0, size=n)
    template = np.diag(np.concatenate([scales[: spec.p], -scales[spec.p :]]))
    a = np.eye(n) + spread * rng.uniform(-1.0, 1.0, size=(n, n))
    while abs(np.linalg.det(a)) < 0.2:
        a = np.eye(n) + spread * rng.uniform(-1.0, 1.0, size=(n, n))
    return SymMatrix(a.T @ template @ a)


@pytest.fixture(scope="session")
def random_gamma():
    """Sampler random_gamma(spec, rng) of cone points: congruence images of a signature template."""
    return _random_gamma
