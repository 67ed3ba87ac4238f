"""Identification of concentration-dependent chemotactic sensitivity.

The package simulates a one-dimensional chemotaxis system (cell density
coupled to a chemoattractant), generates calibrated noisy measurements,
and recovers the sensitivity a(c) by Tikhonov-regularized output least
squares, with L-curve parameter selection and noise-vs-error rate
studies on top.
"""

from .errors import (
    ChemidError,
    ConfigError,
    DomainMismatchError,
    ForwardSolveError,
    IncompatibleBasisError,
    InsufficientSweepError,
    InvalidStateError,
    LowerBoundViolationError,
    NoiseLevelError,
    NonFiniteStateError,
    NumericalSolveError,
    PositivityViolationError,
    ZeroWidthIntervalError,
)
from .inversion import (
    InversionResult,
    LMConfig,
    TikhonovProblem,
    levenberg_marquardt,
    levenberg_marquardt_many,
)
from .pde import (
    PhysicalParams,
    SimulationGrid,
    StateTrajectory,
    mass,
    read_trajectory_csv,
    restrict,
    solve_forward,
    space_time_sq_norm,
    write_trajectory_csv,
)
from .regselect import (
    LCurvePoint,
    RateStudyRecord,
    RateStudyResult,
    lcurve_corner,
    lcurve_sweep,
    rate_study,
)
from .sensitivity import (
    SensitivityFunction,
    concentration_range,
    mass_matrix,
    read_sensitivity_csv,
    write_sensitivity_csv,
)
from .synthdata import (
    NoisyData,
    SyntheticDataset,
    add_noise,
    make_dataset,
    myerscough_initial_data,
    read_noisy_csv,
    write_noisy_csv,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
