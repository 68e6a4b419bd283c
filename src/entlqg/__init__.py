"""Steady-state LQG feedback control of continuously monitored Gaussian systems.

Specialized to a two-mode parametric oscillator: measurement unravellings,
conditional Riccati steady states, Markovian feedback schemes, and the
resulting entanglement (log-negativity) and purity (entropy) of the
stationary state. All logarithmic quantities are in bits (base 2).
"""

from .errors import (EntlqgError, InvalidUnravellingError, NoStableSolutionError,
                     NumericalError, RecoveryError, StabilityError,
                     TrajectoryDivergenceError, UnphysicalStateError)
from .gaussian import (CovarianceMatrix, epr_variance, is_physical, log_negativity,
                       symplectic_eigenvalues, von_neumann_entropy)
from .dynamics import PlantModel, diffusion_matrix, drift_matrix, lyapunov_steady
from .unravelling import (LmiReport, MeasurementModel, Unravelling, lmi_feasible,
                          measurement_model, recover_unravelling, riccati_rhs,
                          riccati_steady, u_matrix)
from .feedback import ClosedLoop, FeedbackGain, closed_loop, optimal_gain
from .nopo import (CHI_MAX, CURVE_SCHEMES, HETERODYNE, HOMODYNE_Q, JOINT_HOMODYNE,
                   NopoParams, SchemeId, SchemeResult, build_plant, closed_loop_for_scheme,
                   conditional_V, cost_matrix, heterodyne_closed_form_V, heterodyne_optimal_mu,
                   homodyne_closed_form_V, open_loop_V, optimal_nonlocal_alpha_beta,
                   optimize_scheme, scheme_curves, scheme_realization, symmetric_family_W)
from .trajectories import (SimConfig, TrajectoryStats, regulation_cost,
                           regulation_cost_sem, simulate_conditional)

__version__ = "0.1.0"

__all__ = [
    "CHI_MAX", "CURVE_SCHEMES", "ClosedLoop", "CovarianceMatrix",
    "EntlqgError", "FeedbackGain", "HETERODYNE", "HOMODYNE_Q", "JOINT_HOMODYNE",
    "InvalidUnravellingError", "LmiReport", "MeasurementModel",
    "NoStableSolutionError", "NopoParams", "NumericalError", "PlantModel",
    "RecoveryError", "SchemeId", "SchemeResult", "SimConfig", "StabilityError",
    "TrajectoryDivergenceError", "TrajectoryStats", "Unravelling", "UnphysicalStateError",
    "build_plant", "closed_loop", "closed_loop_for_scheme", "conditional_V",
    "cost_matrix", "diffusion_matrix", "drift_matrix", "epr_variance",
    "heterodyne_closed_form_V", "heterodyne_optimal_mu", "homodyne_closed_form_V",
    "is_physical", "lmi_feasible", "log_negativity", "lyapunov_steady",
    "measurement_model", "open_loop_V", "optimal_gain", "optimal_nonlocal_alpha_beta",
    "optimize_scheme", "recover_unravelling", "regulation_cost", "regulation_cost_sem",
    "riccati_rhs", "riccati_steady", "scheme_curves", "scheme_realization", "simulate_conditional",
    "symmetric_family_W", "symplectic_eigenvalues", "u_matrix", "von_neumann_entropy",
]
