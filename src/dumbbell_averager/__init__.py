"""Averaging-based periodic-orbit analysis for a dumbbell satellite.

The pipeline: parse perturbation torques, extract their angle-linearized
coefficients, average them into 2D bifurcation fields over the two resonant
planes, certify the fields' simple zeros by damped Newton, and verify each
predicted orbit by direct shooting on the full nonlinear attitude equations
along a descending epsilon ladder.
"""

from .averaging import AveragedField, linearized_perturbation, malkin_average
from .dynamics import (
    T1,
    T2,
    Mode,
    ResonanceSpec,
    SatelliteState,
    closed_form_solution,
    first_order_rhs,
    full_rhs,
    full_system,
    fundamental_matrix,
    linearized_system,
    monodromy_gap,
    plane_embed,
    unperturbed_rhs,
)
from .errors import (
    DegenerateMonodromyError,
    DumbbellError,
    NoConvergenceError,
    SingularJacobianError,
    StepSizeUnderflowError,
)
from .reference import BUNDLED_CASES
from .shooting import epsilon_continuation, integrate, shoot_periodic
from .torques import (
    DomainError,
    LinearizedTorque,
    TorqueExpression,
    TorqueSyntaxError,
    UnknownIdentifierError,
    eval_dual,
    extract_linearized,
    parse_torque,
    validate_equilibrium,
)
from .zeros import (
    ZeroSearchDomain,
    group_orbit_classes,
    jacobian2d,
    multistart_zeros,
    newton2d,
)

__version__ = "0.1.0"

__all__ = [
    "AveragedField",
    "BUNDLED_CASES",
    "DegenerateMonodromyError",
    "DomainError",
    "DumbbellError",
    "LinearizedTorque",
    "Mode",
    "NoConvergenceError",
    "ResonanceSpec",
    "SatelliteState",
    "SingularJacobianError",
    "StepSizeUnderflowError",
    "T1",
    "T2",
    "TorqueExpression",
    "TorqueSyntaxError",
    "UnknownIdentifierError",
    "ZeroSearchDomain",
    "closed_form_solution",
    "epsilon_continuation",
    "eval_dual",
    "extract_linearized",
    "first_order_rhs",
    "full_rhs",
    "full_system",
    "fundamental_matrix",
    "group_orbit_classes",
    "integrate",
    "jacobian2d",
    "linearized_perturbation",
    "linearized_system",
    "malkin_average",
    "monodromy_gap",
    "multistart_zeros",
    "newton2d",
    "parse_torque",
    "plane_embed",
    "shoot_periodic",
    "unperturbed_rhs",
    "validate_equilibrium",
]
