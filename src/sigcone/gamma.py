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
from typing import Iterator

import numpy as np

from .quadrature import QuadConfig, box_corners, tensor_rule

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

    def __eq__(self, other) -> bool:
        return isinstance(other, SymMatrix) and np.array_equal(self.a, other.a)

    def __hash__(self):
        return hash(self.a.tobytes())


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

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


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


def symmetrize(t) -> SymMatrix:
    """Identify an arbitrary square array with its symmetric part."""
    return SymMatrix(np.asarray(t, dtype=float))


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


def in_gamma(m: SymMatrix, spec: SignatureSpec) -> bool:
    if m.n != spec.n:
        raise ValueError(f"matrix size {m.n} does not match signature dimension {spec.n}")
    return signature(m) == (spec.p, spec.p_prime, 0)


def gl_action(g: GlElement, m: SymMatrix) -> SymMatrix:
    """Congruence action gamma -> g^{-T} gamma g^{-1} (a left action)."""
    return SymMatrix(g.inverse.T @ m.a @ g.inverse)


def pullback_linear(l: GlElement, m: SymMatrix) -> SymMatrix:
    """Pull-back of a scalar product along a linear isomorphism: l^T m l."""
    return SymMatrix(l.matrix.T @ m.a @ l.matrix)


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


def _gate_support(pts_nz: np.ndarray, spec: SignatureSpec) -> np.ndarray:
    """Check sampled nonzero-support points stay inside the cone; return |det|."""
    n = spec.n
    mats = vech_to_sym(pts_nz, n)
    dets = det_stack(mats) if n > 1 else pts_nz[:, 0]
    if np.abs(dets).min() < SUPPORT_DET_FLOOR:
        raise SupportError("support reaches within 1e-8 of the degenerate boundary")
    probe = SymMatrix(mats[int(np.argmin(np.abs(dets)))])
    if signature(probe) != (spec.p, spec.p_prime, 0):
        raise SupportError("support leaves the signature cone")
    return np.abs(dets)


def invariant_dot(pts: np.ndarray, wts: np.ndarray, vals: np.ndarray, measure: InvariantMeasure):
    """Rule sum of vals against the invariant density, 0.0 if vals vanish.

    The density is evaluated, and the support gated, only at the points
    where vals is nonzero.
    """
    mask = vals != 0
    if not mask.any():
        return 0.0
    absdets = _gate_support(pts[mask], measure.spec)
    weight = np.zeros(len(pts))
    weight[mask] = measure.scale_c * absdets ** (-(measure.spec.n + 1) / 2)
    return np.dot(wts, vals * weight)


def integrate_gamma(f, measure: InvariantMeasure, quad: QuadConfig) -> complex:
    """Integral of f against the invariant measure.

    f must expose integrand_pieces() yielding (lo, hi, callable) triples in
    vech coordinates; each piece is integrated by a tensor Gauss-Legendre
    rule over its own box.  Points where the integrand vanishes exactly do
    not touch the weight, so bounding boxes of transformed supports are fine
    as long as the true support stays inside the cone.
    """
    dim = measure.spec.dim
    total = 0.0 + 0.0j
    for lo, hi, func in f.integrand_pieces():
        lo = np.asarray(lo, float)
        hi = np.asarray(hi, float)
        if lo.size != dim:
            raise ValueError(f"support box has {lo.size} coordinates, expected {dim}")
        pts, wts = tensor_rule(lo, hi, quad.nodes_per_dim)
        total += invariant_dot(pts, wts, np.asarray(func(pts)), measure)
    return complex(total)


@dataclass(frozen=True)
class InvarianceReport:
    lhs: complex
    rhs: complex
    rel_err: float
    nodes: int


class _PulledBackIntegrand:
    """f composed with the congruence map, supported on a mapped parallelepiped."""

    def __init__(self, f, vech_map: np.ndarray) -> None:
        self._f = f
        self._map = vech_map
        self._inv = np.linalg.inv(vech_map)

    def integrand_pieces(self) -> Iterator[tuple[np.ndarray, np.ndarray, object]]:
        L = self._map
        for lo, hi, func in self._f.integrand_pieces():
            img = box_corners(lo, hi) @ self._inv.T
            yield img.min(axis=0), img.max(axis=0), (lambda pts, fn=func: fn(pts @ L.T))


def verify_invariance(f, g: GlElement, measure: InvariantMeasure, quad: QuadConfig) -> InvarianceReport:
    """Compare the integral of f with the integral of its congruence pull-back.

    The pulled-back integrand is evaluated on the axis-aligned bounding box
    of the transformed support, with nodes entirely unrelated to the ones
    used on the left-hand side.
    """
    lhs = integrate_gamma(f, measure, quad)
    vech_map = congruence_vech_matrix(g.inverse, measure.spec.n)
    rhs = integrate_gamma(_PulledBackIntegrand(f, vech_map), measure, quad)
    rel = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    return InvarianceReport(lhs=lhs, rhs=rhs, rel_err=rel, nodes=quad.nodes_per_dim)


# -- sampling ----------------------------------------------------------------


def random_gamma(spec: SignatureSpec, rng: np.random.Generator, spread: float = 0.4) -> SymMatrix:
    """A random point of the cone: congruence image of a signature template."""
    n = spec.n
    scales = rng.uniform(0.5, 2.0, size=n)
    template = np.diag(np.concatenate([scales[: spec.p], -scales[spec.p :]]))
    a = np.eye(n) + spread * rng.uniform(-1.0, 1.0, size=(n, n))
    while abs(np.linalg.det(a)) < 0.2:
        a = np.eye(n) + spread * rng.uniform(-1.0, 1.0, size=(n, n))
    return SymMatrix(a.T @ template @ a)


def random_gl(n: int, rng: np.random.Generator, spread: float = 0.3) -> GlElement:
    """A random group element near the identity; spread bounds the entry jitter."""
    a = np.eye(n) + spread * rng.uniform(-1.0, 1.0, size=(n, n))
    while abs(np.linalg.det(a)) < 0.3:
        a = np.eye(n) + spread * rng.uniform(-1.0, 1.0, size=(n, n))
    return GlElement(a)
