"""Distributional forecasting and sequential data assimilation for a 1D
advection-reaction model with uncertain inputs or reaction rate."""

from .core import (ContractError, DegenerateInputError, DiscreteCdf, DiscretePdf,
                   GaussianDist, Grid2D, cdf_from_pdf, cramer_distance,
                   empirical_cdf, kl_divergence, pdf_from_cdf)
from .mdist import (CdfSolution, ClosureCoeffs, ClosureSpec, StatParams,
                    closure_coefficients, forecast_slice, initial_boundary_cdfs,
                    solve_cdf_characteristics, solve_cdf_fv, t_star)
from .physics import (KField, Measurement, MeasurementSet, PhysicsConfig,
                      analytic_state, empirical_semivariogram, forcing,
                      generate_observations, make_rng, sample_k_field,
                      solve_physical_fv, two_sensor_schedule)
from .assimilate import (AssimilationStep, AssimilationTrace, OptimizerConfig,
                         damd_assimilate, damd_loss, enkf_assimilate, enkf_update,
                         exact_bayes_inputs, grid_bayes_k, minimize_nelder_mead,
                         nelder_mead, observational_posterior)
from .geometry import (FimMatrix, fim_from_density_fn, fisher_information,
                       kl_gain_profile)

__version__ = "0.1.0"
