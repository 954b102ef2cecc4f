"""Direct verification of predicted periodic orbits.

``integrate`` advances a state of any size n with the adaptive
Dormand-Prince 5(4) pair; the tableau is kept once, as data, and the step
loop for size n is emitted from it as straight-line code on first use.
``shoot_periodic`` runs Newton on the period-T displacement map
P(z) = x(T; z) - z, with the Jacobian assembled from finite-difference
trajectory columns and the linear solves done through a truncated
pseudo-inverse: near a resonant plane I - Phi(T) is singular at eps = 0,
so a plain solve would blow up for small eps.  Newton stops with a
NoConvergenceError naming divergence once ||P(z)|| grows past
DIVERGENCE_FACTOR times its value at the guess.  ``epsilon_continuation``
repeats the shot along a descending eps ladder, reseeding each solve with
the previous corrected initial condition, and measures the rate at which
the corrected orbit approaches the averaged prediction.  A ladder ends in
one of four outcomes:

- ``PASS``: every rung converged and the distance to the prediction
  shrinks at first order (empirical order in ORDER_BAND);
- ``COLLAPSED-TO-EQUILIBRIUM``: every rung converged, but onto the trivial
  equilibrium (corrected initial conditions within COLLAPSE_RADIUS of the
  origin) rather than onto an orbit near the prediction;
- ``ORDER-OUT-OF-BAND``: every rung converged, elsewhere, and the distance
  does not decay at first order;
- ``FAILED-AT(eps)``: shooting failed on rung eps and the ladder stopped
  there; the report's ``failure`` names the error.
"""

from __future__ import annotations

import functools
import math
import string
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .dynamics import ResonanceSpec, Rhs, SatelliteState, plane_embed
from .errors import DumbbellError, NoConvergenceError, StepSizeUnderflowError

DEFAULT_INTEGRATOR_TOL = 1e-11
DEFAULT_SHOOTING_TOL = 1e-10
#: forward-difference step for displacement-map Jacobian columns
SHOOTING_FD_STEP = 1e-7
#: singular values below this fraction of the largest are truncated
PINV_RCOND = 1e-8
#: Newton has diverged once ||P(z)|| exceeds this multiple of ||P(guess)||;
#: shots that converge on the bundled ladders grow it by at most ~2x first
DIVERGENCE_FACTOR = 10.0

# Dormand-Prince 5(4) (Dormand & Prince 1980; Hairer, Norsett & Wanner I,
# II.5): nodes C and rows A of stages 2..7, the last row being the 5th-order
# weights (first-same-as-last), and E, the 5th- minus the 4th-order weights.
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1, 1)
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

# conservative safety keeps the realized local error a few times below the
# requested tolerance, which the long-horizon conservation checks rely on
_SAFETY = 0.7
_MIN_SHRINK = 0.2
_MAX_GROW = 5.0


#: attempted steps per integrate() call before giving up; legitimate runs at
#: tol 1e-11 over tens of time units need a few thousand
MAX_STEPS = 100_000

# the adaptive loop; _dopri_loop writes $step, one step's stages and error
_LOOP = string.Template("""\
def loop(rhs, t, t1, h, h_floor, tol, $y $k1):
    attempts = 0
    while t < t1:
        if h < h_floor:
            raise StepSizeUnderflowError(f"step size {h:.3e} underflowed at t = {t!r}")
        attempts += 1
        if attempts > MAX_STEPS:
            raise NoConvergenceError(
                f"integration exceeded {MAX_STEPS} step attempts at t = {t!r}"
            )
        if t + h > t1:
            h = t1 - t
$step
        if err <= 1.0:
            t += h
            $y = $z
            $k1 = $k7
            factor = _MAX_GROW if err == 0.0 else min(_MAX_GROW, _SAFETY * err ** -0.2)
            h *= factor
        else:
            h *= max(_MIN_SHRINK, _SAFETY * err ** -0.2)
    return $y
""")


@functools.cache
def _dopri_loop(n: int) -> Callable:
    """The adaptive loop for n-component states, each stage written out per
    component (a Python loop over the tableau costs ~1.5x): ``y + h * a * k``
    for a row with one nonzero weight, else ``y + h * (a1 * k1 + ...)``."""

    def vec(name: str) -> str:
        return " ".join(f"{name}{j}," for j in range(n))

    def combination(weights: Sequence[float], j: int) -> str:
        terms = [f"{w!r} * k{i}_{j}" for i, w in enumerate(weights, start=1) if w]
        return terms[0] if len(terms) == 1 else f"({' + '.join(terms)})"

    lines = []
    for stage, (c, row) in enumerate(zip(_C, _A), start=2):
        args = [f"y{j} + h * {combination(row, j)}" for j in range(n)]
        if stage == len(_A) + 1:  # evaluated at the new solution z
            lines += [f"z{j} = {arg}" for j, arg in enumerate(args)]
            args = [f"z{j}" for j in range(n)]
        at = "t + h" if c == 1 else f"t + {c!r} * h"
        lines.append(f"{vec(f'k{stage}_')} = rhs({at}, ({' '.join(a + ',' for a in args)}))")
    lines += [f"e{j} = h * {combination(_E, j)}" for j in range(n)]
    norm = " + ".join(f"(e{j} / (tol + tol * max(abs(y{j}), abs(z{j})))) ** 2" for j in range(n))
    lines.append(f"err = math.sqrt(({norm}) / {float(n)!r})")
    step = "\n".join(" " * 8 + line for line in lines)
    src = _LOOP.substitute(y=vec("y"), z=vec("z"), k1=vec("k1_"), k7=vec("k7_"), step=step)
    namespace: dict = {}
    exec(compile(src, f"<dopri5 loop, n={n}>", "exec"), globals(), namespace)
    return namespace["loop"]


def integrate(
    rhs: Rhs,
    s0: Sequence[float],
    t0: float,
    t1: float,
    tol: float = DEFAULT_INTEGRATOR_TOL,
) -> np.ndarray:
    """Advance the state, of any size n >= 1, from t0 to t1 and return the
    final state; the step loop for size n is generated on first use.

    The tolerance is applied as both absolute and relative per component;
    step acceptance is deterministic.  Raises ValueError, before any rhs
    call, on an empty or non-finite state, non-finite t0, t1 or tol, t1 <= t0
    or tol <= 0; StepSizeUnderflowError if the controller drives the step
    below the representable floor (which is how trajectories that fall into
    the tan(phi) pole surface) and NoConvergenceError if MAX_STEPS attempts
    run out first.
    """
    y = tuple(float(v) for v in s0)
    if not (y and all(map(math.isfinite, (t0, t1, tol) + y))):
        raise ValueError(f"state, t0, t1, tol must be finite, state nonempty; got {y, t0, t1, tol}")
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    if tol <= 0.0:
        raise ValueError("tol must be positive")

    k = rhs(t0, y)
    # first-step heuristic from the initial derivative magnitude
    d0 = max(*map(abs, y), 1e-6)
    d1 = max(*map(abs, k), 1e-6)
    h = min(0.01 * d0 / d1, (t1 - t0) * 0.1)
    h_floor = 1e-14 * max(abs(t0), abs(t1), 1.0)
    return np.array(_dopri_loop(len(y))(rhs, t0, t1, h, h_floor, tol, *y, *k))


def sample_trajectory(
    rhs: Rhs,
    s0: Sequence[float],
    times: Sequence[float],
) -> np.ndarray:
    """States at finite, nondecreasing times (t = 0 start), shape (len(times), n)."""
    if not all(a <= b < math.inf for a, b in zip([0.0, *times], times)):
        raise ValueError(f"times must be finite and nondecreasing from 0, got {list(times)}")
    out = []
    state = np.asarray(s0, dtype=float)
    t_prev = 0.0
    for t in times:
        if t > t_prev:
            state = integrate(rhs, state, t_prev, t)
            t_prev = t
        out.append(state.copy())
    return np.array(out)


@dataclass(frozen=True)
class OrbitCertificate:
    """A shooting-verified periodic initial condition."""

    epsilon: float
    predicted_ic: SatelliteState
    corrected_ic: SatelliteState
    displacement_norm: float
    period: float
    newton_iters: int

    @property
    def correction_norm(self) -> float:
        """Distance between the corrected and predicted initial conditions."""
        d = self.corrected_ic.as_array() - self.predicted_ic.as_array()
        return float(np.linalg.norm(d))


def displacement_jacobian(
    rhs: Rhs,
    z: np.ndarray,
    period: float,
    tol: float,
    base: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Forward-difference Jacobian of P(z) = x(period; z) - z, step SHOOTING_FD_STEP."""
    if base is None:
        base = integrate(rhs, z, 0.0, period, tol=tol) - z
    jac = np.empty((z.size, z.size))
    for j in range(z.size):
        pert = z.copy()
        pert[j] += SHOOTING_FD_STEP
        col = integrate(rhs, pert, 0.0, period, tol=tol) - pert
        jac[:, j] = (col - base) / SHOOTING_FD_STEP
    return jac


def shoot_periodic(
    rhs: Rhs,
    guess: Sequence[float],
    period: float,
    tol: float = DEFAULT_SHOOTING_TOL,
    max_iter: int = 25,
    integrator_tol: float = DEFAULT_INTEGRATOR_TOL,
    epsilon: float = float("nan"),
) -> OrbitCertificate:
    """Newton-correct ``guess`` until the period map returns to it.

    ``epsilon`` is recorded in the certificate for bookkeeping only; the
    dynamics are whatever ``rhs`` encodes.  Raises NoConvergenceError when
    the displacement norm fails to reach ``tol`` within ``max_iter`` Newton
    iterations, or as soon as it exceeds DIVERGENCE_FACTOR times its value
    at the guess (Newton diverged).
    """
    z = np.asarray(guess, dtype=float).copy()
    predicted = SatelliteState.from_sequence(guess)
    for iters in range(max_iter + 1):
        displacement = integrate(rhs, z, 0.0, period, tol=integrator_tol) - z
        norm = float(np.linalg.norm(displacement))
        if iters == 0:
            initial_norm = norm
        if norm < tol:
            return OrbitCertificate(
                epsilon=epsilon,
                predicted_ic=predicted,
                corrected_ic=SatelliteState.from_sequence(z),
                displacement_norm=norm,
                period=period,
                newton_iters=iters,
            )
        if norm > DIVERGENCE_FACTOR * initial_norm:
            raise NoConvergenceError(
                f"Newton diverged: displacement {norm:.3e} after {iters} iterations "
                f"exceeds {DIVERGENCE_FACTOR:g}x its value {initial_norm:.3e} at the guess"
            )
        if iters == max_iter:
            break
        jac = displacement_jacobian(rhs, z, period, integrator_tol, base=displacement)
        z = z + np.linalg.pinv(jac, rcond=PINV_RCOND) @ (-displacement)
    raise NoConvergenceError(
        f"shooting stalled at displacement {norm:.3e} after {max_iter} iterations"
    )


@dataclass(frozen=True)
class ContinuationReport:
    """Outcome of shooting along a descending epsilon ladder.

    ``distances`` holds ||corrected_ic - predicted_ic|| per converged rung,
    ``pair_orders`` the rung-to-rung slopes log(d_i/d_{i+1})/log(e_i/e_{i+1}),
    and ``empirical_order`` the least-squares slope of log d against log eps.
    ``status`` is one of:

    - ``PASS``: every rung converged and the slope sits in ORDER_BAND;
    - ``COLLAPSED-TO-EQUILIBRIUM``: every rung converged, each corrected
      initial condition lies within COLLAPSE_RADIUS of the origin and the
      prediction does not; checked before the order band;
    - ``ORDER-OUT-OF-BAND``: every rung converged, neither of the above;
    - ``FAILED-AT(eps)``: shooting raised on rung eps (``failure`` holds
      the error) and the ladder stopped there.
    """

    prediction: SatelliteState
    spec: ResonanceSpec
    eps_list: Tuple[float, ...]
    certificates: Tuple[OrbitCertificate, ...]
    distances: Tuple[float, ...]
    pair_orders: Tuple[float, ...]
    empirical_order: float
    status: str
    failure: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


ORDER_BAND = (0.5, 1.5)
#: corrected initial conditions this close to the origin have collapsed onto
#: the trivial equilibrium; on the bundled ladders collapsed ones sit below
#: 3e-4 and the smallest one that has not collapsed at 2e-2
COLLAPSE_RADIUS = 1e-3


def epsilon_ladder(eps_list: Sequence[float]) -> Tuple[float, ...]:
    """``eps_list`` as a tuple of floats, refused with ValueError unless it is
    nonempty, finite, nonnegative and strictly descending."""
    ladder = tuple(float(e) for e in eps_list)
    if not ladder or not all(math.isfinite(e) and e >= 0.0 for e in ladder):
        raise ValueError(f"epsilon ladder must be nonempty, finite and nonnegative, got {ladder}")
    if any(a <= b for a, b in zip(ladder, ladder[1:])):
        raise ValueError(f"epsilon ladder must be strictly descending, got {ladder}")
    return ladder


def epsilon_continuation(
    rhs_for_eps: Callable[[float], Rhs],
    averaged_zero: Sequence[float],
    spec: ResonanceSpec,
    eps_list: Sequence[float],
    shooting_tol: float = DEFAULT_SHOOTING_TOL,
    integrator_tol: float = DEFAULT_INTEGRATOR_TOL,
    max_iter: int = 25,
) -> ContinuationReport:
    """Chase the predicted orbit down a descending epsilon ladder.

    Each rung shoots with the previous corrected initial condition as the
    seed (the first rung starts from the zero-padded averaged zero).  The
    rung where shooting first fails is recorded as FAILED-AT(eps) and the
    ladder stops there.  A ladder that ``epsilon_ladder`` refuses raises
    ValueError before any shot.
    """
    eps_tuple = epsilon_ladder(eps_list)

    predicted = np.asarray(plane_embed(averaged_zero, spec.mode), dtype=float)
    period = spec.window
    certificates: List[OrbitCertificate] = []
    distances: List[float] = []
    failure = None
    status = "PASS"

    guess = predicted.copy()
    for eps in eps_tuple:
        try:
            cert = shoot_periodic(
                rhs_for_eps(eps),
                guess,
                period,
                tol=shooting_tol,
                max_iter=max_iter,
                integrator_tol=integrator_tol,
                epsilon=eps,
            )
        except DumbbellError as exc:
            status = f"FAILED-AT({eps:g})"
            failure = f"{type(exc).__name__}: {exc}"
            break
        corrected = cert.corrected_ic.as_array()
        certificates.append(cert)
        distances.append(float(np.linalg.norm(corrected - predicted)))
        guess = corrected

    pair_orders: List[float] = []
    for (ea, da), (eb, db) in zip(
        zip(eps_tuple, distances), zip(eps_tuple[1:], distances[1:])
    ):
        if da > 0.0 and db > 0.0 and ea > 0.0 and eb > 0.0:
            pair_orders.append(math.log(da / db) / math.log(ea / eb))
        else:
            pair_orders.append(float("nan"))

    valid = [
        (math.log(e), math.log(d))
        for e, d in zip(eps_tuple, distances)
        if e > 0.0 and d > 0.0
    ]
    if len(valid) >= 2:
        xs = np.array([v[0] for v in valid])
        ys = np.array([v[1] for v in valid])
        empirical_order = float(np.polyfit(xs, ys, 1)[0])
    else:
        empirical_order = float("nan")

    if status == "PASS":
        if np.linalg.norm(predicted) > COLLAPSE_RADIUS and all(
            np.linalg.norm(c.corrected_ic.as_array()) <= COLLAPSE_RADIUS
            for c in certificates
        ):
            status = "COLLAPSED-TO-EQUILIBRIUM"
        elif math.isfinite(empirical_order) and not (
            ORDER_BAND[0] <= empirical_order <= ORDER_BAND[1]
        ):
            status = "ORDER-OUT-OF-BAND"

    return ContinuationReport(
        prediction=SatelliteState.from_sequence(predicted),
        spec=spec,
        eps_list=eps_tuple,
        certificates=tuple(certificates),
        distances=tuple(distances),
        pair_orders=tuple(pair_orders),
        empirical_order=empirical_order,
        status=status,
        failure=failure,
    )
