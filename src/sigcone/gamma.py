"""Scalar products of fixed signature and their invariant measure.

The symmetric n x n matrices of signature (p, p') form an open cone in
R^{n(n+1)/2} (linear coordinates: the upper-triangle entries).  Invertible
matrices act by congruence, and the measure invariant under that action has
Lebesgue density

    Delta(gamma) = c * |det gamma|^(-(n+1)/2),   c > 0.

The exponent is forced by the Jacobian of the congruence action on the
symmetric coordinates, det(d vech(A^T gamma A) / d vech(gamma)) = det(A)^(n+1);
the test suite checks that identity by finite differences and checks the n=1
density 1/gamma directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import QuadConfig, box_corners, gl_rule, grid_product, tensor_rule

DEGENERACY_FLOOR = 1e-14
SUPPORT_DET_FLOOR = 1e-8


class SupportError(ValueError):
    """Integrand support is not safely inside the signature cone."""


class DegenerateMatrixError(ValueError):
    """Determinant below the degeneracy floor; the point lies outside every cone."""


@dataclass(frozen=True)
class SignatureSpec:
    """Counts of positive and negative eigenvalues of the scalar products."""

    p: int
    p_prime: int

    def __post_init__(self) -> None:
        if self.p < 0 or self.p_prime < 0 or self.n < 1:
            raise ValueError(f"invalid signature ({self.p}, {self.p_prime})")

    @property
    def n(self) -> int:
        return self.p + self.p_prime

    @property
    def dim(self) -> int:
        """Dimension n(n+1)/2 of the cone in linear coordinates."""
        return self.n * (self.n + 1) // 2


def det_stack(mats: np.ndarray) -> np.ndarray:
    """Determinants of stacked square matrices, closed-form for n <= 3.

    np.linalg.det goes through an LU factorization that is off by an ulp even
    for a 1x1 matrix, which would break the exact n=1 density identity.
    """
    mats = np.asarray(mats, float)
    n = mats.shape[-1]
    if n == 1:
        return mats[..., 0, 0]
    if n == 2:
        return mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0]
    if n == 3:
        a, b, c = mats[..., 0, 0], mats[..., 0, 1], mats[..., 0, 2]
        d, e, f = mats[..., 1, 0], mats[..., 1, 1], mats[..., 1, 2]
        g, h, i = mats[..., 2, 0], mats[..., 2, 1], mats[..., 2, 2]
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return np.linalg.det(mats)


class SymMatrix:
    """A symmetric matrix stored in exact canonical form."""

    __slots__ = ("a",)

    def __init__(self, a) -> None:
        a = np.array(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square matrix")
        a = 0.5 * (a + a.T)
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def det(self) -> float:
        return float(det_stack(self.a))

    def __repr__(self) -> str:
        return f"SymMatrix({self.a.tolist()})"


class GlElement:
    """An invertible matrix with its inverse cached at construction."""

    __slots__ = ("matrix", "inverse")

    def __init__(self, matrix) -> None:
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("expected a square matrix")
        try:
            inv = np.linalg.inv(m)
        except np.linalg.LinAlgError as exc:
            raise ValueError("singular matrix is not a group element") from exc
        resid = np.linalg.norm(m @ inv - np.eye(m.shape[0])) / max(1.0, np.linalg.norm(m))
        if not np.isfinite(resid) or resid > 1e-12:
            raise ValueError(f"matrix too ill-conditioned to invert reliably (resid={resid:.2e})")
        m.setflags(write=False)
        inv.setflags(write=False)
        self.matrix = m
        self.inverse = inv


@dataclass(frozen=True)
class InvariantMeasure:
    """The invariant measure c * |det|^(-(n+1)/2) d(Lebesgue) on one cone."""

    spec: SignatureSpec
    scale_c: float = 1.0

    def __post_init__(self) -> None:
        if not self.scale_c > 0:
            raise ValueError("measure constant must be positive")


# -- linear coordinates ------------------------------------------------------


def _vech_indices(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


def sym_to_vech(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, float)
    n = a.shape[-1]
    idx = _vech_indices(n)
    return np.stack([a[..., i, j] for i, j in idx], axis=-1)


def vech_to_sym(v: np.ndarray, n: int) -> np.ndarray:
    v = np.asarray(v, float)
    out = np.zeros(v.shape[:-1] + (n, n))
    for k, (i, j) in enumerate(_vech_indices(n)):
        out[..., i, j] = v[..., k]
        out[..., j, i] = v[..., k]
    return out


def congruence_vech_matrix(a: np.ndarray, n: int) -> np.ndarray:
    """Matrix of the linear map vech(gamma) -> vech(a^T gamma a)."""
    a = np.asarray(a, float)
    dim = n * (n + 1) // 2
    cols = np.empty((dim, dim))
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = 1.0
        cols[:, k] = sym_to_vech(a.T @ vech_to_sym(e, n) @ a)
    return cols


# -- operations --------------------------------------------------------------


def signature(m: SymMatrix) -> tuple[int, int, int]:
    """Eigenvalue sign counts (positive, negative, near-zero).

    The zero band is 1e-10 relative to a spectral-norm estimate, a four
    orders of magnitude margin over double-precision symmetric eigensolvers.
    """
    w = np.linalg.eigvalsh(m.a)
    tol = 1e-10 * max(1.0, float(np.max(np.abs(w), initial=0.0)))
    pos = int(np.sum(w > tol))
    neg = int(np.sum(w < -tol))
    return pos, neg, m.n - pos - neg


def natural_density(m: SymMatrix, measure: InvariantMeasure) -> float:
    """Invariant-measure density c * |det m|^(-(n+1)/2) at one point.

    Computed as a single division so that the n=1 value is exactly c/gamma.
    """
    if m.n != measure.spec.n:
        raise ValueError("matrix size does not match the measure's signature")
    d = m.det()
    if abs(d) < DEGENERACY_FLOOR:
        raise DegenerateMatrixError("determinant below 1e-14; point is degenerate")
    return measure.scale_c / abs(d) ** ((m.n + 1) / 2)


def check_support(lo, hi, spec: SignatureSpec, floor: float = SUPPORT_DET_FLOOR) -> None:
    """Certify in closed form that a whole box lies in the cone with |det| >= floor.

    lo, hi hold one or more blocks of spec.dim vech coordinates; each is
    certified.  n = 1 is an interval test; for n = 2, det = ac - b^2 has its
    extremes at the (a, c) corners and the extremes of b^2, and det > 0 keeps
    a off 0, so one corner fixes its sign.  n >= 3 raises ValueError.
    """
    if spec.n > 2:
        raise ValueError(f"no support certificate for n = {spec.n}; only n <= 2 is integrated")
    lo, hi = np.ravel(lo).tolist(), np.ravel(hi).tolist()
    for k in range(0, len(lo), spec.dim):
        if spec.n == 1:
            ok = lo[k] >= floor if spec.p == 1 else hi[k] <= -floor
        else:
            (a0, b0, c0), (a1, b1, c1) = lo[k : k + 3], hi[k : k + 3]
            ac = (a0 * c0, a0 * c1, a1 * c0, a1 * c1)
            if spec.p == 1:
                ok = max(ac) - (0.0 if b0 <= 0.0 <= b1 else min(b0 * b0, b1 * b1)) <= -floor
            else:
                ok = min(ac) - max(b0 * b0, b1 * b1) >= floor and (a0 > 0.0) == (spec.p == 2)
        if not ok:
            raise SupportError(f"box not certified in the ({spec.p}, {spec.p_prime}) cone at |det| >= {floor:.0e}")


def vech_det(v, n: int) -> np.ndarray:
    """A new array of det from vech coordinates v[0], v[1], ..., with det_stack's float operations."""
    return np.array(v[0], float) if n == 1 else v[0] * v[2] - v[1] * v[1]


def invariant_dot(det: np.ndarray, wts: np.ndarray, vals: np.ndarray, measure: InvariantMeasure):
    """Rule sum of vals against c * |det|^(-(n+1)/2), applied in place at every node.

    det and vals are overwritten.  Every weight is finite where the caller
    certified |det| >= 1e-8 with check_support or set det to 1 where vals is 0.
    """
    weight = np.abs(det, out=det)
    weight **= -(measure.spec.n + 1) / 2
    weight *= measure.scale_c
    return np.dot(wts, np.multiply(vals, weight, out=vals))


def integrate_gamma(f, measure: InvariantMeasure, quad: QuadConfig) -> complex:
    """Integral of f against the invariant measure.

    f must expose integrand_pieces() yielding (lo, hi, factors) in vech
    coordinates: a piece is factors[0](v0) * factors[1](v1) * ... on its box
    and zero outside.  Each factor is evaluated on its axis' Gauss-Legendre
    nodes, and grid_product multiplies them (and the weights) over the tensor
    grid; no point grid is built, and the factors' arrays may be overwritten.
    The box is the support contract: check_support must certify the whole box
    inside the cone with |det| >= 1e-8, once per piece and before any node is
    evaluated, or SupportError is raised.
    """
    for lo, hi, _ in f.integrand_pieces():
        if np.size(lo) != measure.spec.dim:
            raise ValueError(f"support box has {np.size(lo)} coordinates, expected {measure.spec.dim}")
        check_support(lo, hi, measure.spec)
    m, total = quad.nodes_per_dim, 0.0 + 0.0j
    for lo, hi, factors in f.integrand_pieces():
        nodes, wts = zip(*(gl_rule(l, h, m) for l, h in zip(lo, hi)))
        vals = np.ravel(grid_product([fac(x) for fac, x in zip(factors, nodes)]))
        det = np.ravel(vech_det(np.ix_(*nodes), measure.spec.n))
        total += invariant_dot(det, np.ravel(grid_product(wts)), vals, measure)
    return complex(total)


@dataclass(frozen=True)
class InvarianceReport:
    lhs: complex
    rhs: complex
    rel_err: float
    nodes: int


def verify_invariance(f, g: GlElement, measure: InvariantMeasure, quad: QuadConfig) -> InvarianceReport:
    """Compare the integral of f with the integral of its congruence pull-back.

    The pull-back side is the independent oracle: it multiplies f's factors
    pointwise, left to right, into the first factor's array (which must have
    the product's dtype), at the congruence images of the nodes of a dense
    rule over the bounding box of the transformed support, nodes unrelated to
    the left-hand side's.  That support, g^T supp(f) g, has |det| scaled by
    det(g)^2, so f certified at floor * max(1, det(g)^-2) covers both sides;
    the bounding box may cross det = 0 and gets no certificate of its own.
    """
    floor = SUPPORT_DET_FLOOR * max(1.0, float(det_stack(g.matrix)) ** -2)
    for lo, hi, _ in f.integrand_pieces():
        check_support(lo, hi, measure.spec, floor)
    lhs = integrate_gamma(f, measure, quad)
    vech_map = congruence_vech_matrix(g.inverse, measure.spec.n)
    rhs = 0.0 + 0.0j
    for lo, hi, factors in f.integrand_pieces():
        img = box_corners(lo, hi) @ np.linalg.inv(vech_map).T
        pts, wts = tensor_rule(img.min(axis=0), img.max(axis=0), quad.nodes_per_dim)
        mapped = pts @ vech_map.T
        vals = factors[0](mapped[:, 0])
        for k in range(1, len(factors)):
            vals *= factors[k](mapped[:, k])
        del mapped  # freed before det is allocated
        det = vech_det(pts.T, measure.spec.n)
        det[vals == 0] = 1.0
        rhs += invariant_dot(det, wts, vals, measure)
    rhs = complex(rhs)
    rel = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    return InvarianceReport(lhs=lhs, rhs=rhs, rel_err=rel, nodes=quad.nodes_per_dim)


# -- sampling ----------------------------------------------------------------


def random_gl(n: int, rng: np.random.Generator, spread: float = 0.3) -> GlElement:
    """A random group element near the identity; spread bounds the entry jitter."""
    a = np.eye(n) + spread * rng.uniform(-1.0, 1.0, size=(n, n))
    while abs(np.linalg.det(a)) < 0.3:
        a = np.eye(n) + spread * rng.uniform(-1.0, 1.0, size=(n, n))
    return GlElement(a)
