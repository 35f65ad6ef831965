"""Whittle-Matern Gaussian random fields on compact metric graphs.

FEM discretization of (kappa^2 - Laplacian)^{alpha/2}(tau u) = W with
Kirchhoff vertex conditions, a minimax rational approximation of the
fractional power giving sparse-precision (GMRF) representations, sampling,
covariance evaluation, kriging, likelihood-based fitting, and a convergence
harness validated against exact covariance oracles.
"""

__version__ = "0.1.0"

from .graph import (GraphError, GraphPoint, MetricGraph, builtin_graph,
                    circle_graph, interval_graph, star_graph, tadpole_graph,
                    validate)
from .mesh import Mesh, build_mesh
from .assembly import assemble_mass, assemble_stiffness, lump_mass, operator_matrix
from .fractional import (PartialFractions, RationalApprox, brasil,
                         calibrate_order, partial_fractions)
from .field import FieldModel, log_regression_coefficients, variance_stationary_model
from .oracle import (MaternParams, bessel_kv, exact_covariance, folded_circle,
                     folded_interval, matern, spectral_discrete_cov,
                     tadpole_cov, tadpole_cov_exact, tadpole_cov_mercer)
from .harness import (ErrorRecord, RateFit, error_grid, l2_error,
                      rate_experiment, sup_error)
from .inference import (FitResult, ModelSpec, ObservationSet, PosteriorSummary,
                        covariate_from_observations, fit, kriging,
                        kriging_covariance_form, leave_radius_out_cv,
                        log_likelihood)

__all__ = [name for name in dir() if not name.startswith("_")]
