"""weakhyp: a numerical laboratory for weakly hyperbolic Cauchy problems
with rough time-dependent coefficients.

The package regularises rough coefficients and data on a mollification
scale, solves the regularised problems spectrally per frequency, and
quantifies moderateness, energy growth, net convergence and agreement with
classical solutions.

Importing the package sets ``OPENBLAS_NUM_THREADS`` to 1 unless the caller
has set it, so a process that imports weakhyp before numpy starts no BLAS
helper thread.
"""

import os

# before the first import of numpy (through .errors): OpenBLAS sizes its
# thread pool when it loads, and every LAPACK call here is on small matrices
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .errors import (AlignmentError, ConfigurationError, DivergenceError,
                     HyperbolicityError, InsufficientDataError,
                     InvalidParameterError, NumericalError, PlanError,
                     QuadratureError, StabilityError, UnsupportedError,
                     WeakHypError)
from .profiles import (PointMass, Piece, RoughProfile, bump_profile,
                       box_profile, constant_profile, extend_profile,
                       heaviside_profile, hoelder_profile,
                       piecewise_constant_profile, point_mass_profile,
                       polynomial_piece_profile, zero_profile)
from .mollifiers import (Convolution, GevreyCutoffMollifier, Mollifier,
                         convolve_profile, friedrichs_mollifier,
                         scale_mollifier, vanishing_moment_mollifier)
from .roots import (OmegaScale, RegularisedRoots, RootFamily, bracket,
                    constant_roots, linear_scale, logarithmic_scale,
                    roots_from_linear_forms, roots_from_time_profiles,
                    transport_roots, wave_speed_roots)
from .recovery import (DirectionPlan, HomogeneousCoefficientSet,
                       RoundTripReport, build_direction_plan,
                       random_ordered_family, random_round_trip_study,
                       recover_coefficients, round_trip_check)
from .reduction import (BlockSylvesterSystem, CompanionSystem,
                        FirstOrderSystem, InitialData, LowerOrderPart,
                        LowerTerm, PolynomialMatrix, RootValuePrincipal,
                        SeparablePart, build_companion,
                        characteristic_polynomial, cofactor_matrix,
                        companion_matrix, companion_row,
                        random_hyperbolic_system, to_block_sylvester)
from .symmetrisers import (QuadraticBoundsReport, Symmetriser,
                           build_symmetriser, vandermonde_product_squared,
                           verify_quadratic_bounds)
from .solver import (EnergyTrace, FrequencyGrid, SolutionNet, SolveRecord,
                     VeryWeakProblem, auto_box_length, dalembert_reference,
                     energy_trace, integrate_companion, solve_single,
                     solve_very_weak, transport_reference)
from .analysis import (ConvergenceReport, GevreyFourierFit,
                       ModeratenessReport, convergence_study,
                       fit_moderateness, gevrey_fourier_check,
                       proxy_seminorm)
from .config import (ExperimentConfig, build_profile, build_root_family,
                     config_echo, config_hash, load_config, validate_config)
