import numpy as np
import pytest
from scipy.integrate import quad as sciquad

from sigcone.quadrature import (
    BoxedFunction,
    QuadConfig,
    box_corners,
    gl_rule,
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


def test_boxed_function_pieces():
    f = BoxedFunction(lambda p: p[:, 0], (0.0,), (1.0,))
    pieces = list(f.integrand_pieces())
    assert len(pieces) == 1
    lo, hi, fn = pieces[0]
    assert lo[0] == 0.0 and hi[0] == 1.0
    assert fn(np.array([[0.25]]))[0] == 0.25
