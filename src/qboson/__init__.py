"""Current statistics of the q-boson zero range process on a ring.

Exact mean integrated current J and group diffusion coefficient Delta via
truncated-series coefficient extraction, a spectral perturbation oracle,
kinetic Monte Carlo, a first-order functional-equation verification path,
and the large-N KPZ / EW-crossover asymptotics.
"""

from .numerics import (FloatBackend, InputError, PrecisionError, RATIONAL,
                       SolverError, TruncSeries, certify, geometric_factor)
from .stationary import (ModelParams, StationaryData, compute_stationary,
                         intensive_quantities, model, phi_coefficients,
                         rate_u)
from .cumulants import DeltaResult, delta_exact_resummed
from .asymptotics import (CrossoverData, SaddleData, crossover_F,
                          crossover_prediction, kpz_coefficient,
                          log_f_log_derivative, saddle_data, saddle_point)
from .oracle import OracleResult, build_generator, lambda_derivatives
from .simulate import (SimConfig, SimEstimate, estimate_cumulants,
                       run_trajectory)
from .tq import TqFirstOrder, build_first_order, verify_first_order

__version__ = "0.1.0"
