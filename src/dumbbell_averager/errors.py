"""Exception types shared across the numerical pipeline."""


class DumbbellError(Exception):
    """Base class for all package-specific failures."""


class DegenerateMonodromyError(DumbbellError):
    """Active block of the monodromy gap is numerically singular."""


class NoConvergenceError(DumbbellError):
    """An iterative scheme (quadrature, Newton, shooting) hit its cap.

    A batched quadrature keeps what it finished: ``values`` holds each
    point's integrals, NaN where they still moved, and ``nodes`` the nodes
    each point took, 0 where it moved; both are None otherwise."""

    values = nodes = None


class SingularJacobianError(NoConvergenceError):
    """Newton iteration encountered a Jacobian with vanishing determinant."""


class StepSizeUnderflowError(DumbbellError):
    """Adaptive integrator drove the step size below the representable floor."""
