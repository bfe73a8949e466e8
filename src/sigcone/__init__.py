"""Invariant measures on signature cones and the Hilbert spaces built on them."""

from .quadrature import QuadConfig
from .gamma import (
    GlElement,
    InvariantMeasure,
    SignatureSpec,
    SymMatrix,
    integrate_gamma,
    natural_density,
    signature,
    verify_invariance,
)
from .fibers import (
    BumpExpansion,
    BumpFunction,
    FiberSpace,
    fiber_inner,
    product_bump,
    pushforward_product_check,
)
from .densities import AlphaDensity, Basis, density_product, evaluate, lin_comb
from .configuration import (
    Chart,
    Diffeo1D,
    PointSet,
    PointTuple,
    chart_transition,
    induced_diffeo,
    local_chart,
    point_set,
    project,
    sorted_chart,
)
from .hspace import (
    HalfDensityState,
    counterexample_profile,
    fit_divergence,
    graded_inner,
    inner,
    joint_inner,
    pair_to_density,
    pullback,
    rescale_iso,
)
from .kspace import SparseSection, basis_element, graded_k_inner, k_inner, k_pullback
from .harness import ReportRow, SuiteConfig, convergence_study, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
