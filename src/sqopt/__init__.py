"""Superquantile (CVaR) optimization toolkit.

Exact and smoothed first-order oracles for tail-risk objectives, a
limited-memory quasi-Newton solver, data utilities and an experiment CLI.
"""

from .core import (
    quantile,
    superquantile,
    superquantile_dual,
    superquantile_integral,
    superquantile_variational,
    tail_cap,
)
from .data import (
    SyntheticSpec,
    downsample_majority,
    generate_quadratic,
    load_csv,
    split_indices,
)
from .models import (
    Dataset,
    GroupStructure,
    ModelSpec,
    conformity,
    design_matrix,
    grouped_loss_map,
    pointwise_loss_map,
    predict,
)
from .optim import OptimResult, check_oracle, minimize
from .oracles import (
    LossMap,
    SubdifferentialDescription,
    smoothed_value_grad,
    subdifferential,
)
from .smoothing import (
    DensitySpec,
    DualSolution,
    SmoothingSpec,
    bisect_dual,
    conv_smoothed_positive_part,
    density_from_smoothing,
    divergence,
    divergence_from_density,
    divergence_max,
    scalar_conjugate,
    scalar_conjugate_grad,
    smoothed_positive_part,
    smoothed_superquantile,
    solve_dual_1d,
)

__version__ = "0.1.0"
