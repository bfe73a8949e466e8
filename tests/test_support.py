"""The support contract: check_support certifies a whole box in closed form."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigcone.fibers import FiberSpace, fiber_inner, product_bump
from sigcone.gamma import (
    SUPPORT_DET_FLOOR,
    InvariantMeasure,
    SignatureSpec,
    SupportError,
    SymMatrix,
    check_support,
    integrate_gamma,
    signature,
    vech_to_sym,
)
from sigcone.quadrature import QuadConfig, box_corners, tensor_rule

FLOOR = SUPPORT_DET_FLOOR
SPECS = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

_widths = st.floats(1e-6, 1.5)
_jitter = st.floats(-FLOOR, FLOOR)
_signs = st.sampled_from([1.0, -1.0])
_target = st.sampled_from([0.0, FLOOR, -FLOOR, 2 * FLOOR, -2 * FLOOR])


@st.composite
def _boxes(draw, spec):
    """A box in vech coordinates: either anywhere in [-2, 2]^dim, or (3 in 4)
    with a corner whose det lies within 1e-8 of 0, +-floor or +-2 floor, so
    that the box grazes or straddles det = 0 and the floor."""
    dim = spec.dim
    if draw(st.integers(0, 3)) == 0:
        lo = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(dim)])
        return lo, lo + np.array([draw(_widths) for _ in range(dim)])
    t = draw(_target) + draw(_jitter)
    out = draw(_signs)
    w = np.array([draw(_widths) for _ in range(dim)])
    if dim == 1:
        corner, step = np.array([t]), out * w
    elif draw(st.booleans()):
        # a and c of one sign and det = t at the corner; with out = 1 the box
        # grows |a|, |c| and shrinks |b| from there (the corner is the det
        # minimum), with out = -1 the other way round
        sign = {2: 1.0, 0: -1.0}.get(spec.p) or draw(_signs)
        bsign = draw(_signs)
        ma, mc = draw(st.floats(0.05, 2.0)), draw(st.floats(0.05, 2.0))
        corner = np.array([sign * ma, bsign * np.sqrt(max(ma * mc - t, 0.0)), sign * mc])
        step = out * np.array([sign, -bsign, sign]) * w
    else:
        # det = ac = t at b = 0 and [b] straddles 0: there the det maximum is at b = 0
        a = draw(_signs) * draw(st.floats(0.05, 2.0))
        corner = np.array([a, -w[1], t / a])
        step = np.array([out * np.sign(a) * w[0], w[1] + draw(_widths), out * (np.sign(t / a) or 1.0) * w[2]])
    return np.minimum(corner, corner + step), np.maximum(corner, corner + step)


def _holds(pts, spec):
    """Pointwise contract: the signature of spec with |det| >= floor."""
    if spec.n == 1:
        return pts[:, 0] >= FLOOR if spec.p == 1 else pts[:, 0] <= -FLOOR
    a, b, c = pts.T
    det = a * c - b * b
    if spec.p == 1:
        return det <= -FLOOR
    return (det >= FLOOR) & ((a > 0) if spec.p == 2 else (a < 0))


def _extreme_points(lo, hi):
    """The box corners, plus the (a, c) corners at b = 0 when 0 is in [b]."""
    corners = box_corners(lo, hi)
    if lo.size == 3 and lo[1] <= 0.0 <= hi[1]:
        flat = corners.copy()
        flat[:, 1] = 0.0
        corners = np.vstack([corners, flat])
    return corners


@pytest.mark.parametrize("sig", SPECS)
@settings(max_examples=200)
@given(data=st.data())
def test_check_support_is_sound_and_tight(sig, data):
    spec = SignatureSpec(*sig)
    lo, hi = data.draw(_boxes(spec))
    extremes = _extreme_points(lo, hi)
    try:
        check_support(lo, hi, spec)
    except SupportError:
        # the certificate is exact: a rejected box has an extreme point that breaks the contract
        assert not _holds(extremes, spec).all()
        return
    nodes, _ = tensor_rule(lo, hi, 6)
    pts = np.vstack([nodes, extremes])
    assert _holds(pts, spec).all()
    for m in vech_to_sym(pts, spec.n):
        assert signature(SymMatrix(m)) == (spec.p, spec.p_prime, 0)


def test_check_support_blocks_and_refusals():
    pos, neg = SignatureSpec(1, 0), SignatureSpec(0, 1)
    check_support([FLOOR], [1.0], pos)
    check_support([-1.0, -2.0], [-FLOOR, -1.0], neg)  # one block per coordinate
    with pytest.raises(SupportError):
        check_support([-1.0, -2.0], [-FLOOR, 1.0], neg)
    with pytest.raises(SupportError):
        check_support([0.5 * FLOOR], [1.0], pos)
    # (2, 0) with det > 0 on the whole box, but a < 0 there: the (0, 2) cone
    check_support([-2.0, -0.1, -2.0], [-1.0, 0.1, -1.0], SignatureSpec(0, 2))
    with pytest.raises(SupportError):
        check_support([-2.0, -0.1, -2.0], [-1.0, 0.1, -1.0], SignatureSpec(2, 0))


def test_n3_has_no_certificate():
    spec = SignatureSpec(3, 0)
    with pytest.raises(ValueError, match="no support certificate"):
        check_support(np.ones(6), 2.0 * np.ones(6), spec)
    f = product_bump(1.0, [2.0, 0.0, 0.0, 2.0, 0.0, 2.0], [0.5] * 6)
    with pytest.raises(ValueError, match="no support certificate"):
        integrate_gamma(f, InvariantMeasure(spec, 1.0), QuadConfig(4))


def test_boxes_crossing_det_zero_are_refused():
    """2000 (2,0) boxes, many of which cross det = 0 away from the node of
    smallest |det|; a per-node gate that probed only that node let 602 through."""
    meas = InvariantMeasure(SignatureSpec(2, 0), 1.0)
    quad = QuadConfig(16)
    rng = np.random.default_rng(0)
    crossing = 0
    for _ in range(2000):
        a, c = rng.uniform(0.8, 1.5, 2)
        centers = np.array([a, rng.uniform(0.3, 1.2), c])
        widths = rng.uniform(0.1, 0.4, 3)
        f = product_bump(1.0, centers, widths)
        pts, _ = tensor_rule(centers - widths, centers + widths, 16)
        pts = pts[f(pts) != 0]
        if np.all(pts[:, 0] * pts[:, 2] - pts[:, 1] ** 2 >= 0):
            continue
        crossing += 1
        with pytest.raises(SupportError):
            integrate_gamma(f, meas, quad)
        with pytest.raises(SupportError):
            fiber_inner(f, f, FiberSpace(meas), quad)
    assert crossing > 1000
