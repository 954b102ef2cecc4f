"""Attitude dynamics of a rigid dumbbell satellite in a circular orbit.

State ordering is (theta, theta_dot, phi, phi_dot) everywhere, with theta the
nutation angle and phi the precession angle; the same four slots double as the
first-order variables (X, Y, Z, W) of the linearized system

    X' = Y,   Y' = -3 X + eps*F1,
    Z' = W,   W' = -4 Z + eps*F2.

The unperturbed linear system has two invariant planes filled with periodic
orbits: the (X, Y) plane with angular frequency sqrt(3) (period T1) and the
(Z, W) plane with frequency 2 (period T2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateMonodromyError, SingularityError

SQRT3 = math.sqrt(3.0)
T1 = 2.0 * math.pi / SQRT3
T2 = math.pi

#: |cos phi| below this is treated as the tan(phi) pole.
COS_PHI_FLOOR = 1e-12

#: active monodromy-gap determinants below this are degenerate.
GAP_DET_FLOOR = 1e-10

StateLike = Sequence[float]
Rhs = Callable[[float, StateLike], Tuple[float, ...]]


class Mode(Enum):
    """Which invariant plane, an oscillator x'' = -omega^2 x, carries the
    orbit: value "T1" or "T2", frequency ``omega``, state slots ``slot`` and
    ``slot + 1``, averaged-field normalization ``kappa`` (see ``averaging``)."""

    NUTATION_T1 = ("T1", SQRT3, 0, 1.0)
    PRECESSION_T2 = ("T2", 2.0, 2, 2.0)

    def __new__(cls, label: str, omega: float, slot: int, kappa: float) -> "Mode":
        member = object.__new__(cls)
        member._value_, member.omega, member.slot, member.kappa = label, omega, slot, kappa
        return member

    @property
    def base_period(self) -> float:
        return 2.0 * math.pi / self.omega


@dataclass(frozen=True)
class SatelliteState:
    """Attitude state (theta, theta_dot, phi, phi_dot), all finite."""

    theta: float
    theta_dot: float
    phi: float
    phi_dot: float

    def __post_init__(self) -> None:
        for name in ("theta", "theta_dot", "phi", "phi_dot"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite state component {name!r}")

    def __iter__(self):
        return iter((self.theta, self.theta_dot, self.phi, self.phi_dot))

    def as_array(self) -> np.ndarray:
        return np.array(tuple(self), dtype=float)

    @classmethod
    def from_sequence(cls, s: StateLike) -> "SatelliteState":
        a, b, c, d = s
        return cls(float(a), float(b), float(c), float(d))


@dataclass(frozen=True)
class ResonanceSpec:
    """p:q resonance against one of the two base periods.

    The forcing has period p*T_mode/q with gcd(p, q) = 1; all averaging and
    shooting windows span p full base periods regardless of q.
    """

    mode: Mode
    p: int = 1
    q: int = 1

    def __post_init__(self) -> None:
        if not all(isinstance(n, int) and not isinstance(n, bool) for n in (self.p, self.q)):
            raise ValueError(f"p and q must be integers, got p={self.p!r}, q={self.q!r}")
        if self.p < 1 or self.q < 1:
            raise ValueError("p and q must be positive integers")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"p={self.p} and q={self.q} must be relatively prime")

    @property
    def window(self) -> float:
        """Integration window p*T_mode."""
        return self.p * self.mode.base_period


@dataclass(frozen=True)
class FundamentalMatrix:
    """Fundamental solution of the unperturbed linear system at time t.

    Block diagonal with two unimodular 2x2 rotation-like blocks; entries(0)
    is the identity and the inverse satisfies M(t)^-1 = M(-t).
    """

    t: float
    entries: np.ndarray

    def inverse(self) -> np.ndarray:
        return fundamental_matrix(-self.t).entries


def _as_torque_callable(torque) -> Callable[..., float]:
    """Accept either a compiled torque expression or a plain callable."""
    compile_ = getattr(torque, "compile", None)
    if compile_ is not None:
        return compile_()
    if callable(torque):
        return torque
    raise TypeError(f"torque must be an expression or callable, got {type(torque)!r}")


@dataclass(frozen=True)
class PerturbSetup:
    """Perturbation data: the two torques, eps, and optional eps^2 remainders.

    ``f1star``/``f2star`` may be torque expressions (anything exposing
    ``compile() -> callable``) or plain functions of
    (t, theta, theta_dot, phi, phi_dot).  The remainder hooks default to
    identically zero and receive (t, theta, theta_dot, phi, phi_dot, eps).
    """

    f1star: object
    f2star: object
    epsilon: float
    remainders: Optional[Tuple[Callable[..., float], Callable[..., float]]] = None
    _compiled: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite")
        object.__setattr__(
            self,
            "_compiled",
            (_as_torque_callable(self.f1star), _as_torque_callable(self.f2star)),
        )


def full_rhs(s: StateLike, t: float, setup: PerturbSetup) -> Tuple[float, float, float, float]:
    """Time derivative of the full nonlinear attitude equations.

    Raises SingularityError when |cos phi| < 1e-12 (tan pole); verification
    orbits stay near phi = 0 so the guard rejects rather than saturates.
    """
    th, thd, ph, phd = s
    cph = math.cos(ph)
    if abs(cph) < COS_PHI_FLOOR:
        raise SingularityError(f"cos(phi) = {cph:.3e} at phi = {ph!r}")
    eps = setup.epsilon
    c1, c2 = setup._compiled
    tf1, tf2 = c1(t, th, thd, ph, phd), c2(t, th, thd, ph, phd)
    d_thd = 2.0 * phd * (1.0 + thd) * math.tan(ph) - 3.0 * math.sin(th) * math.cos(th) + eps * tf1
    d_phd = -((1.0 + thd) ** 2 + 3.0 * math.cos(th) ** 2) * math.sin(ph) * cph + eps * tf2
    if setup.remainders is not None:
        r1, r2 = setup.remainders
        e2 = eps * eps
        d_thd += e2 * r1(t, th, thd, ph, phd, eps)
        d_phd += e2 * r2(t, th, thd, ph, phd, eps)
    return (thd, d_thd, phd, d_phd)


def first_order_rhs(s: StateLike, t: float, eps: float, lin) -> Tuple[float, float, float, float]:
    """Time derivative of the linearized system with torque coefficients.

    ``lin`` supplies the four coefficient callables f1..f4 of
    (t, x_velocity, y_velocity); the perturbations enter as
    F1 = f1*X + f2*Z and F2 = f3*X + f4*Z.  This is the reference the
    generated ``LinearizedTorque.rhs`` reproduces bit for bit, and the path
    ``make_first_order_rhs`` takes for coefficients without partial trees.
    """
    X, Y, Z, W = s
    F1 = lin.f1(t, Y, W) * X + lin.f2(t, Y, W) * Z
    F2 = lin.f3(t, Y, W) * X + lin.f4(t, Y, W) * Z
    return (Y, -3.0 * X + eps * F1, W, -4.0 * Z + eps * F2)


def make_full_rhs(setup: PerturbSetup) -> Rhs:
    """Bind a PerturbSetup into an rhs(t, state) callable for integrators."""

    def rhs(t: float, s: StateLike) -> Tuple[float, float, float, float]:
        return full_rhs(s, t, setup)

    return rhs


def make_first_order_rhs(eps: float, lin) -> Rhs:
    """Bind eps and linearized coefficients into an rhs(t, state) callable.

    A ``LinearizedTorque`` that carries its partial trees gives its
    generated straight-line rhs, equal bit for bit to ``first_order_rhs``;
    any other ``lin`` gives a closure over ``first_order_rhs``.
    """
    if getattr(lin, "partials", None) is not None:
        return lin.rhs(eps)

    def rhs(t: float, s: StateLike) -> Tuple[float, float, float, float]:
        return first_order_rhs(s, t, eps, lin)

    return rhs


def unperturbed_rhs(t: float, s: StateLike) -> Tuple[float, float, float, float]:
    """The decoupled linear oscillators X'' = -3X, Z'' = -4Z."""
    X, Y, Z, W = s
    return (Y, -3.0 * X, W, -4.0 * Z)


def plane_flow(omega: float, t) -> Tuple:
    """Flow of x'' = -omega^2 x from 0 to t (scalar or array) as the rotation
    entries (m00, m01, m10, m11) = (c, s/omega, -omega*s, c); its inverse is
    the flow to -t."""
    c = np.cos(omega * t)
    s = np.sin(omega * t)
    return c, s / omega, -omega * s, c


def closed_form_solution(alpha: Sequence[float], mode: Mode, t) -> Tuple:
    """Exact unperturbed periodic solution through plane point ``alpha``.

    For the T1 plane alpha = (X0, Y0) and the orbit stays in (X, Y);
    for the T2 plane alpha = (Z0, W0) and the orbit stays in (Z, W).
    Accepts scalar or array ``t``.
    """
    a1, a2 = alpha
    m00, m01, m10, m11 = plane_flow(mode.omega, t)
    x = m00 * a1 + m01 * a2
    state = [np.zeros_like(x)] * 4
    state[mode.slot : mode.slot + 2] = x, m10 * a1 + m11 * a2
    return tuple(state)


def plane_embed(alpha: Sequence[float], mode: Mode) -> Tuple[float, float, float, float]:
    """Zero-pad a plane point into the 4-dimensional state."""
    state = [0.0] * 4
    state[mode.slot : mode.slot + 2] = float(alpha[0]), float(alpha[1])
    return tuple(state)


def plane_project(s: StateLike, mode: Mode) -> Tuple[float, float]:
    """Extract the active plane coordinates from a 4-dimensional state."""
    return (float(s[mode.slot]), float(s[mode.slot + 1]))


def fundamental_matrix(t: float) -> FundamentalMatrix:
    """Fundamental matrix of the unperturbed linear system with M(0) = I."""
    m = np.zeros((4, 4))
    for mode in Mode:
        k = mode.slot
        m[k : k + 2, k : k + 2] = np.reshape(plane_flow(mode.omega, t), (2, 2))
    return FundamentalMatrix(t=t, entries=m)


def monodromy_gap(spec: ResonanceSpec) -> Tuple[np.ndarray, float]:
    """Gap matrix M^-1(0) - M^-1(pT) and the determinant of its active block.

    In the T1 mode the (X, Y) block of the gap vanishes identically and the
    active (Z, W) block must be nonsingular (and vice versa for T2); a
    vanishing active determinant means the bifurcation-function machinery
    does not apply for this resonance.
    """
    gap = np.eye(4) - fundamental_matrix(-spec.window).entries
    k = 2 - spec.mode.slot  # the other plane's block
    active = gap[k : k + 2, k : k + 2]
    det = float(active[0, 0] * active[1, 1] - active[0, 1] * active[1, 0])
    if abs(det) < GAP_DET_FLOOR:
        raise DegenerateMonodromyError(
            f"active monodromy block determinant {det:.3e} below {GAP_DET_FLOOR:g} "
            f"for {spec.mode.value} with p={spec.p}"
        )
    return gap, det
