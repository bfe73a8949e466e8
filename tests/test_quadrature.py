import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad as sciquad

import sigcone
from sigcone import quadrature
from sigcone.quadrature import (
    QuadConfig,
    box_corners,
    gl_rule,
    grid_product,
    hull_box,
    intersect_box,
    quad_1d,
    rule_sum,
    slab_sum,
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


def test_rule_sum_sums_the_last_axis_like_dot(rng):
    w = rng.uniform(0.1, 1.0, size=50)
    vals = rng.uniform(0.0, 1.0, size=(3, 4, 50)) + 1j * rng.uniform(0.0, 1.0, size=(3, 4, 50))
    want = np.array([[np.dot(w, v) for v in row] for row in vals])
    got = rule_sum(w, vals.copy())
    assert got.shape == (3, 4)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


# a separable complex integrand summed over an m^3 grid, printed with every digit
_GRID_TOTAL = """
import sys
import numpy as np
from sigcone.quadrature import gl_rule, grid_product, rule_sum
x, w = gl_rule(0.3, 1.7, int(sys.argv[1]))
vals = np.ravel(grid_product([np.exp(x) + 1j * x, np.cos(x), 1.0 / (1.0 + x)]))
print(repr(complex(rule_sum(np.ravel(grid_product([w, w, w])), vals))))
"""


@pytest.mark.parametrize("m", [23, 64])
def test_rule_sum_does_not_depend_on_blas_threads(m):
    src = str(Path(sigcone.__file__).resolve().parents[1])
    totals = set()
    for threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _GRID_TOTAL, str(m)], env=env, capture_output=True, text=True,
                              check=True)
        totals.add(proc.stdout)
    assert len(totals) == 1


@pytest.mark.parametrize("slab_points", [None, 128, 1024])  # NumPy stops halving at 128 scalars
@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("dtype", [float, complex])
def test_slab_sum_equals_rule_sum_of_the_whole_grid(slab_points, dim, dtype, monkeypatch):
    if slab_points is not None:
        monkeypatch.setattr(quadrature, "SLAB_POINTS", slab_points)
    for m in (2, 3, 5, 6, 24, 33, 48, 64, 100):  # m = 6: 3 rows of 36 values are no multiple of 8
        rng = np.random.default_rng(100 * m + dim)
        # magnitudes spread over 17 decades, so that a different summation order rounds differently
        wts = rng.uniform(0.0, 1.0, m**dim)
        vals = (rng.uniform(-1.0, 1.0, m**dim) * np.exp(rng.uniform(-20.0, 20.0, m**dim))).astype(dtype)
        if dtype is complex:
            vals += 1j * rng.uniform(-1.0, 1.0, m**dim) * np.exp(rng.uniform(-20.0, 20.0, m**dim))
        row, slabs = m ** (dim - 1), []

        def slab_total(i, j):
            slabs.append((i, j))
            return rule_sum(wts[i * row : j * row], vals[i * row : j * row].copy())

        got = slab_sum(m, dim, slab_total)
        assert got == rule_sum(wts, vals.copy())
        assert [i for i, _ in slabs] == [0] + [j for _, j in slabs[:-1]] and slabs[-1][1] == m
        if m == 64 and dim == 3:  # 4096-point rows: four per slab at the default 16384 points, one at 128 or 1024
            rows = 4 if slab_points is None else 1
            assert slabs == [(i, i + rows) for i in range(0, m, rows)]


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
    assert intersect_box([0, 0], [1, 1], [2, 2], [3, 3]) is None
    lo, hi = intersect_box([0, 0], [2, 2], [1, -1], [3, 1])
    assert lo.tolist() == [1, 0] and hi.tolist() == [2, 1]
    lo, hi = hull_box([(np.array([0.0]), np.array([1.0])), (np.array([-1.0]), np.array([0.5]))])
    assert lo[0] == -1.0 and hi[0] == 1.0
    corners = box_corners(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    assert sorted(map(tuple, corners.tolist())) == [(0, 0), (0, 2), (1, 0), (1, 2)]
