"""Attitude dynamics of a rigid dumbbell satellite in a circular orbit.

State ordering is (theta, theta_dot, phi, phi_dot) everywhere, with theta the
nutation angle and phi the precession angle; the same four slots double as the
first-order variables (X, Y, Z, W) of the linearized system

    X' = Y,   Y' = -3 X + eps*F1,
    Z' = W,   W' = -4 Z + eps*F2.

The unperturbed linear system has two invariant planes filled with periodic
orbits: the (X, Y) plane with angular frequency sqrt(3) (period T1) and the
(Z, W) plane with frequency 2 (period T2).

Both systems are trees here: the full one holds the attitude terms and the
two torque trees, the linearized one the four partial trees at zero angles.
``_generate_rhs`` emits each through the torques' code generator as one
straight-line rhs(t, s) with a shared subexpression table; ``full_rhs`` and
``first_order_rhs``, written by hand, are the oracles they match bit for
bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateMonodromyError, SingularityError
from .torques import (
    SQRT3,
    TAN_POLE_FLOOR,
    BinOp,
    Call,
    DomainError,
    Neg,
    Node,
    Num,
    Pow,
    TorqueExpression,
    Var,
    _NAMESPACES,
    _emit,
    _exec,
    _guarded,
    parse_torque,
)

T1 = 2.0 * math.pi / SQRT3
T2 = math.pi

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
class PerturbSetup:
    """Perturbation data: the two torque expressions and eps."""

    f1star: TorqueExpression
    f2star: TorqueExpression
    epsilon: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite")


def full_rhs(s: StateLike, t: float, setup: PerturbSetup) -> Tuple[float, float, float, float]:
    """Time derivative of the full nonlinear attitude equations, written by
    hand: the oracle that the generated ``make_full_rhs`` reproduces bit for
    bit.

    Raises SingularityError when |cos phi| < 1e-12 (tan pole); verification
    orbits stay near phi = 0 so the guard rejects rather than saturates.  An
    overflow or a math domain error raises DomainError.
    """
    th, thd, ph, phd = s
    eps = setup.epsilon
    try:
        cph = math.cos(ph)
        if abs(cph) < TAN_POLE_FLOOR:
            raise SingularityError(f"cos(phi) = {cph:.3e} at phi = {ph!r}")
        tf1 = setup.f1star.compile()(t, th, thd, ph, phd)
        tf2 = setup.f2star.compile()(t, th, thd, ph, phd)
        d_thd = 2.0 * phd * (1.0 + thd) * math.tan(ph) - 3.0 * math.sin(th) * math.cos(th) + eps * tf1
        d_phd = -((1.0 + thd) ** 2 + 3.0 * math.cos(th) ** 2) * math.sin(ph) * cph + eps * tf2
    except (OverflowError, ValueError) as exc:
        raise DomainError(f"{type(exc).__name__}: {exc}") from None
    return (thd, d_thd, phd, d_phd)


def first_order_rhs(s: StateLike, t: float, eps: float, lin) -> Tuple[float, float, float, float]:
    """Time derivative of the linearized system with torque coefficients.

    ``lin`` supplies the four coefficient callables f1..f4 of
    (t, x_velocity, y_velocity); the perturbations enter as
    F1 = f1*X + f2*Z and F2 = f3*X + f4*Z.  This is the oracle the
    generated linearized rhs reproduces bit for bit, and the path
    ``make_first_order_rhs`` takes for coefficients without partial trees.
    """
    X, Y, Z, W = s
    F1 = lin.f1(t, Y, W) * X + lin.f2(t, Y, W) * Z
    F2 = lin.f3(t, Y, W) * X + lin.f4(t, Y, W) * Z
    return (Y, -3.0 * X + eps * F1, W, -4.0 * Z + eps * F2)


def _generate_rhs(
    filename: str, state: Sequence[str], checked: Sequence[Node], returned: Sequence[Node],
    phi_pole: Optional[str] = None,
) -> Callable:
    """Emit and compile ``make(eps)`` under ``filename``; it returns one
    straight-line ``rhs(t, s)`` over the math module: ``s`` unpacked into the names
    ``state``, then the sections of the trees ``checked``, each raising
    DomainError where its value leaves the finite floats, and of
    ``returned``, whose values it returns; one ``_emit`` in the try that
    turns float errors into DomainError.  Trees may read ``eps``, bound by
    a closure, and the names in ``state``.

    With ``phi_pole``, an exception in source, the body starts with
    ``cph = cos(phi)`` and raises it where cph fails the tan pole guard;
    that test is then the pole guard of every tan(phi).
    """
    names, lines = {}, {}
    if phi_pole is not None:
        pole = _NAMESPACES["math"][2].format("cph")
        names[Call("cos", Var("phi"))] = "cph"
        lines = {"cph": "cph = cos(phi)", pole: f"if {pole}: raise {phi_pole}"}
    roots = [(node, True) for node in checked] + [(node, False) for node in returned]
    body, results = _emit(roots, "math", names, lines)
    body += (f"return ({', '.join(results[len(checked):])})",)
    src = (
        "def make(eps):\n"
        "    def rhs(t, s):\n"
        f"        {', '.join(state)} = s\n"
        f"{_guarded(body, 'math', 8)}"
        "    return rhs\n"
    )
    return _exec(src, "math", "make", filename)


#: the attitude terms of the two accelerations, in full_rhs's operations and order
_ATTITUDE_TERMS = (
    "2.0 * phi_dot * (1.0 + theta_dot) * tan(phi) - 3.0 * sin(theta) * cos(theta)",
    "-((1.0 + theta_dot)^2 + 3.0 * cos(theta)^2) * sin(phi) * cos(phi)",
)


@functools.lru_cache(maxsize=8)
def _full_system(f1star: TorqueExpression, f2star: TorqueExpression) -> Callable:
    """``make(eps)`` of the full system: the |cos phi| test, the F1* and
    F2* sections, then each attitude term plus eps times its torque.

    One floor, ``TAN_POLE_FLOOR``, serves the |cos phi| test and the
    torques' tan pole guard, so that the test is also every tan(phi)'s guard.
    """
    theta_acc, phi_acc = (
        BinOp("+", parse_torque(text).root, BinOp("*", Var("eps"), torque.root))
        for text, torque in zip(_ATTITUDE_TERMS, (f1star, f2star))
    )
    return _generate_rhs(
        "<full rhs>", ("theta", "theta_dot", "phi", "phi_dot"), (f1star.root, f2star.root),
        (Var("theta_dot"), theta_acc, Var("phi_dot"), phi_acc),
        phi_pole='SingularityError(f"cos(phi) = {cph:.3e} at phi = {phi!r}")',
    )


def _at_zero_angles(node: Node) -> Node:
    """``node`` with theta = phi = 0: each angle is the literal 0.0, and sin
    and tan of 0.0 are 0.0, cos of 0.0 is 1.0.  These are exact, so every
    other operation stays, ``0.0 * x`` included."""
    if isinstance(node, Var) and node.name in ("theta", "phi"):
        return Num(0.0)
    if isinstance(node, Call):
        arg = _at_zero_angles(node.arg)
        if arg == Num(0.0):
            return Num(1.0 if node.fn == "cos" else 0.0)
        return Call(node.fn, arg)
    if isinstance(node, Neg):
        return Neg(_at_zero_angles(node.arg))
    if isinstance(node, BinOp):
        return BinOp(node.op, _at_zero_angles(node.left), _at_zero_angles(node.right))
    if isinstance(node, Pow):
        return Pow(_at_zero_angles(node.base), node.exponent)
    return node


@functools.lru_cache(maxsize=8)
def _linearized_system(partials: Tuple[Optional[TorqueExpression], ...]) -> Callable:
    """``make(eps)`` of the linearized system for the partial trees f1..f4:
    each coefficient is its partial at zero angles (a seed-free one is the
    literal 0.0), checked in the order ``first_order_rhs`` calls them, so
    the same guard fires first; then the derivative in its operations and
    order."""
    c1, c2, c3, c4 = coefficients = [
        Num(0.0) if partial is None else _at_zero_angles(partial.root) for partial in partials
    ]
    X, Y, Z, W = Var("X"), Var("theta_dot"), Var("Z"), Var("phi_dot")

    def acceleration(k: float, x: Node, ca: Node, cb: Node) -> Node:  # -k*x + eps*(ca*X + cb*Z)
        force = BinOp("+", BinOp("*", ca, X), BinOp("*", cb, Z))
        return BinOp("+", BinOp("*", Neg(Num(k)), x), BinOp("*", Var("eps"), force))

    return _generate_rhs(
        "<linearized rhs>", ("X", "theta_dot", "Z", "phi_dot"), coefficients,
        (Y, acceleration(3.0, X, c1, c2), W, acceleration(4.0, Z, c3, c4)),
    )


def make_full_rhs(setup: PerturbSetup) -> Rhs:
    """The full system's rhs(t, state) for ``setup``: the torque pair's one
    generated straight-line function, compiled once, with eps bound by a
    closure; equal bit for bit to ``full_rhs``."""
    return _full_system(setup.f1star, setup.f2star)(setup.epsilon)


def make_first_order_rhs(eps: float, lin) -> Rhs:
    """Bind eps and linearized coefficients into an rhs(t, state) callable.

    A ``LinearizedTorque`` that carries its partial trees gives one
    generated straight-line rhs, compiled once per set of partials and
    equal bit for bit to ``first_order_rhs``; any other ``lin`` gives a
    closure over ``first_order_rhs``.
    """
    if getattr(lin, "partials", None) is not None:
        return _linearized_system(lin.partials)(eps)

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


def fundamental_matrix(t: float) -> np.ndarray:
    """Fundamental matrix of the unperturbed linear system, the 4x4 array
    M(t) with M(0) = I; block diagonal and unimodular, with M(t)^-1 = M(-t)."""
    m = np.zeros((4, 4))
    for mode in Mode:
        k = mode.slot
        m[k : k + 2, k : k + 2] = np.reshape(plane_flow(mode.omega, t), (2, 2))
    return m


def monodromy_gap(spec: ResonanceSpec) -> Tuple[np.ndarray, float]:
    """Gap matrix M^-1(0) - M^-1(pT) and the determinant of its active block.

    In the T1 mode the (X, Y) block of the gap vanishes identically and the
    active (Z, W) block must be nonsingular (and vice versa for T2); a
    vanishing active determinant means the bifurcation-function machinery
    does not apply for this resonance.
    """
    gap = np.eye(4) - fundamental_matrix(-spec.window)
    k = 2 - spec.mode.slot  # the other plane's block
    active = gap[k : k + 2, k : k + 2]
    det = float(active[0, 0] * active[1, 1] - active[0, 1] * active[1, 0])
    if abs(det) < GAP_DET_FLOOR:
        raise DegenerateMonodromyError(
            f"active monodromy block determinant {det:.3e} below {GAP_DET_FLOOR:g} "
            f"for {spec.mode.value} with p={spec.p}"
        )
    return gap, det
