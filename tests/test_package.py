"""The package's public surface."""

import dumbbell_averager as da

PUBLIC_NAMES = [
    "AveragedField",
    "BUNDLED_CASES",
    "DegenerateMonodromyError",
    "DomainError",
    "DumbbellError",
    "LinearizedTorque",
    "Mode",
    "NoConvergenceError",
    "PerturbSetup",
    "ResonanceSpec",
    "SatelliteState",
    "SingularJacobianError",
    "SingularityError",
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
    "fundamental_matrix",
    "group_orbit_classes",
    "integrate",
    "jacobian2d",
    "linearized_perturbation",
    "make_first_order_rhs",
    "make_full_rhs",
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


def test_public_names_are_pinned_and_resolve():
    # a new export is a deliberate edit of this list
    assert sorted(da.__all__) == PUBLIC_NAMES
    for name in da.__all__:
        getattr(da, name)
