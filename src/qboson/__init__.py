"""Current statistics of the q-boson zero range process on a ring.

Exact mean integrated current J and group diffusion coefficient Delta via
truncated-series coefficient extraction, a spectral perturbation oracle,
kinetic Monte Carlo, a first-order functional-equation verification path,
and the large-N KPZ / EW-crossover asymptotics.
"""

from .numerics import (FloatBackend, InputError, PrecisionError, QValue,
                       RATIONAL, SolverError, TruncSeries, geometric_factor,
                       qvalue, verify_at_double_precision)
from .stationary import (ModelParams, StationaryData, compute_stationary,
                         intensive_quantities, model, occupation_moments,
                         phi_coefficients, rate_u, site_marginal, weight_f,
                         weight_series)
from .cumulants import (DeltaResult, delta_exact_resummed,
                        delta_exact_truncated, delta_fss_estimate)
from .asymptotics import (CrossoverData, SaddleData, crossover_F,
                          crossover_prediction, kpz_coefficient,
                          log_f_log_derivative, saddle_data, saddle_point)
from .oracle import OracleResult, build_generator, lambda_derivatives
from .simulate import (SimConfig, SimEstimate, estimate_cumulants,
                       run_trajectory)
from .tq import TqFirstOrder, build_first_order, verify_first_order

__version__ = "0.1.0"
