import numpy as np
import pytest
from scipy.integrate import quad as sciquad

from sigcone.quadrature import (
    QuadConfig,
    box_corners,
    gl_rule,
    grid_product,
    hull_box,
    intersect_box,
    intersect_interval,
    quad_1d,
    tensor_rule,
)

# frozen from an adaptive-quadrature oracle (scipy.integrate.quad, abs err < 1e-14)
BUMP_MASS = 0.4439938161680893


def bump(t):
    out = np.zeros_like(t)
    m = np.abs(t) < 1
    with np.errstate(divide="ignore", over="ignore"):
        out[m] = np.exp(-1.0 / (1.0 - t[m] ** 2))
    return out


def test_config_validation():
    q = QuadConfig(32)
    assert q.doubled() == QuadConfig(64)
    with pytest.raises(ValueError):
        QuadConfig(1)


def test_gl_rule_exact_on_polynomials():
    # degree 2m-1 exactness against the closed-form antiderivative
    x, w = gl_rule(-1.5, 2.0, 4)
    got = np.dot(w, x**7 - 3 * x**4 + x)
    want = (2.0**8 - (-1.5) ** 8) / 8 - 3 * (2.0**5 - (-1.5) ** 5) / 5 + (2.0**2 - (-1.5) ** 2) / 2
    assert abs(got - want) < 1e-12 * abs(want)


def test_bump_mass_matches_adaptive_oracle():
    oracle, err = sciquad(lambda t: np.exp(-1.0 / (1.0 - t * t)), -1, 1)
    assert abs(oracle - BUMP_MASS) < 1e-12
    got = quad_1d(bump, -1.0, 1.0, 64)
    assert abs(got - BUMP_MASS) < 1e-10


def test_tensor_rule_factorizes():
    lo, hi = np.array([0.0, 1.0, -1.0]), np.array([1.0, 2.0, 1.0])
    pts, wts = tensor_rule(lo, hi, 16)
    got = np.dot(wts, pts[:, 0] ** 2 * pts[:, 1] * np.cos(pts[:, 2]))
    want = (1.0 / 3.0) * (3.0 / 2.0) * (np.sin(1.0) - np.sin(-1.0))
    assert abs(got - want) < 1e-12
    pts, wts = tensor_rule(lo, hi, 5)
    assert pts.shape == (125, 3) and wts.shape == (125,)
    assert abs(wts.sum() - 1 * 1 * 2) < 1e-12


def meshgrid_rule(lo, hi, m):
    """The tensor rule with its points built by meshgrid and stack."""
    axes = [gl_rule(l, h, m) for l, h in zip(lo, hi)]
    grids = np.meshgrid(*[x for x, _ in axes], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1), np.ravel(grid_product([w for _, w in axes]))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [2, 5, 16])
def test_tensor_rule_equals_the_meshgrid_rule(d, m):
    rng = np.random.default_rng(10 * d + m)
    lo = rng.uniform(-3.0, 1.0, d)
    hi = lo + rng.uniform(0.1, 3.0, d)
    for got, want in zip(tensor_rule(lo, hi, m), meshgrid_rule(lo, hi, m)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_box_helpers():
    assert intersect_interval(0, 1, 2, 3) is None
    assert intersect_interval(0, 2, 1, 3) == (1, 2)
    assert intersect_box([0, 0], [1, 1], [2, 2], [3, 3]) is None
    lo, hi = intersect_box([0, 0], [2, 2], [1, -1], [3, 1])
    assert lo.tolist() == [1, 0] and hi.tolist() == [2, 1]
    lo, hi = hull_box([(np.array([0.0]), np.array([1.0])), (np.array([-1.0]), np.array([0.5]))])
    assert lo[0] == -1.0 and hi[0] == 1.0
    corners = box_corners(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    assert sorted(map(tuple, corners.tolist())) == [(0, 0), (0, 2), (1, 0), (1, 2)]
