"""Sampling, interpolation, and frame numerics for the Bargmann-Fock space."""

__version__ = "0.1.0"

from . import errors, io
from .canonical import (
    CanonicalProduct,
    GrowthBoundFit,
    canonical_product,
    growth_check,
    quasi_period_constants,
    sigma_log,
)
from .interpolation import (
    InterpolantEvaluator,
    InterpolationProblem,
    NormGrowthReport,
    build_interpolant,
    lagrange_reconstruct,
    norm_growth_report,
    residual_check,
)
from .pointsets import (
    DensityReport,
    PointSet,
    SquareLattice,
    closeness,
    density_estimate,
    perturb,
    scale_lattice_to_density,
    separation,
    square_lattice,
)
from .sampling import (
    FrameEstimate,
    frame_bounds,
    frame_matrix,
    norm_decomposition_check,
    point_removal_experiment,
)
from .space import (
    FockFunction,
    concentration_radius,
    eval_weighted,
    eval_weighted_log,
    inner,
    kernel,
    norm2,
    translate,
)

__all__ = [
    "__version__",
    "errors",
    "io",
    "CanonicalProduct",
    "DensityReport",
    "FockFunction",
    "FrameEstimate",
    "GrowthBoundFit",
    "InterpolantEvaluator",
    "InterpolationProblem",
    "NormGrowthReport",
    "PointSet",
    "SquareLattice",
    "build_interpolant",
    "canonical_product",
    "closeness",
    "concentration_radius",
    "density_estimate",
    "eval_weighted",
    "eval_weighted_log",
    "frame_bounds",
    "frame_matrix",
    "growth_check",
    "inner",
    "kernel",
    "lagrange_reconstruct",
    "norm2",
    "norm_decomposition_check",
    "norm_growth_report",
    "perturb",
    "point_removal_experiment",
    "quasi_period_constants",
    "residual_check",
    "scale_lattice_to_density",
    "separation",
    "sigma_log",
    "square_lattice",
    "translate",
]
