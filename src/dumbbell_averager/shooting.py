"""Direct verification of predicted periodic orbits.

``integrate`` advances a state of any size n with the adaptive
Dormand-Prince 8(5,3) pair (DOP853); the tableau is kept once, as data, and
the step loop for size n is emitted from it as straight-line code on first
use.
``shoot_periodic`` runs Newton on the period-T displacement map
P(z) = x(T; z) - z, with the Jacobian J assembled from finite-difference
trajectory columns and inverted once, as a truncated pseudo-inverse J^+:
near a resonant plane I - Phi(T) is singular at eps = 0, so a plain solve
would blow up for small eps.  A Jacobian costs four integrations, so Newton
keeps one while the step it made cut ||P|| by at least REUSE_CONTRACTION,
and rebuilds it at the new state otherwise.  A step dz_k = -J^+ P(z_k)
contracts by Theta_k = ||J^+ P(z_{k+1})|| / ||dz_k|| (Deuflhard 2004,
chs. 2-3), read off the next P with no integration; Newton has diverged
once a step from a fresh Jacobian has Theta_k >= 1.  Newton converges only
linearly to a singular root, by (d - 1)/d per step where P is homogeneous
of degree d there (Decker, Keller & Kelley 1983; Griewank 1985), and the
origin, the trivial equilibrium, is such a root of the bundled torques.  So
once the last ORIGIN_RATIO_COUNT step ratios ||z_k|| / ||z_{k-1}|| all lie
inside ORIGIN_RATIO_BAND and within ORIGIN_RATIO_SPREAD of each other,
Newton integrates once from the origin and ends the shot there when
||P(0)|| < tol; otherwise it goes on, and the origin is not tried again.
``epsilon_continuation`` repeats the shot along a descending eps ladder,
reseeding each solve with the previous corrected initial condition, and
measures the rate at which the corrected orbit approaches the averaged
prediction.  Each rung after the first also starts from a Jacobian built
with no integration: J(eps) - J(0) is O(eps) and J(0) = M(T) - I is known
in closed form (``fundamental_matrix``), so the previous rung's Jacobian
J_k, rescaled as J(0) + (eps_{k+1} / eps_k) * (J_k - J(0)), predicts the
next one.  ``ContinuationReport`` names the statuses a ladder ends in.
"""

from __future__ import annotations

import functools
import math
import string
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .dynamics import ResonanceSpec, Rhs, SatelliteState, fundamental_matrix, plane_embed
from .errors import DumbbellError, NoConvergenceError, StepSizeUnderflowError

DEFAULT_INTEGRATOR_TOL = 1e-11
DEFAULT_SHOOTING_TOL = 1e-10
#: forward-difference step for displacement-map Jacobian columns
SHOOTING_FD_STEP = 1e-7
#: singular values below this fraction of the largest are truncated
PINV_RCOND = 1e-8
#: a Newton step's Jacobian is kept for the next step when the step cut
#: ||P|| by at least this factor, and rebuilt otherwise
REUSE_CONTRACTION = 4.0
#: Newton iterations a shot may take before it is declared stalled
SHOOTING_MAX_ITER = 25
#: a steady contraction toward the origin: ORIGIN_RATIO_COUNT ratios
#: ||z_k|| / ||z_{k-1}|| inside ORIGIN_RATIO_BAND, the largest at most
#: 1 + ORIGIN_RATIO_SPREAD times the smallest; corollary1's ladders shrink
#: by 0.80 per step (linearized, degree 5) and 0.70 ... 0.67 (full)
ORIGIN_RATIO_COUNT = 3
ORIGIN_RATIO_BAND = (0.2, 0.95)
ORIGIN_RATIO_SPREAD = 0.1

# Dormand-Prince 8(5,3) (Prince & Dormand 1981; Hairer, Norsett & Wanner I,
# II.10), the decimal constants of Hairer's dop853.f: nodes C and rows A of
# stages 2..13, the last row being the 8th-order weights (first-same-as-last),
# and E5 and E3, the weights of the 5th- and 3rd-order error estimates.
_C = (
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0,
)
_A = (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0, 8.87627564304205475450678981324e-2),
    (
        2.41365134159266685502369798665e-1, 0, -8.84549479328286085344864962717e-1,
        9.24834003261792003115737966543e-1,
    ),
    (
        3.7037037037037037037037037037e-2, 0, 0, 1.70828608729473871279604482173e-1,
        1.25467687566822425016691814123e-1,
    ),
    (
        3.7109375e-2, 0, 0, 1.70252211019544039314978060272e-1,
        6.02165389804559606850219397283e-2, -1.7578125e-2,
    ),
    (
        3.70920001185047927108779319836e-2, 0, 0, 1.70383925712239993810214054705e-1,
        1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
        8.27378916381402288758473766002e-3,
    ),
    (
        6.24110958716075717114429577812e-1, 0, 0, -3.36089262944694129406857109825,
        -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
        2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1,
    ),
    (
        4.77662536438264365890433908527e-1, 0, 0, -2.48811461997166764192642586468,
        -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
        1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
        -2.03312017085086261358222928593e-2,
    ),
    (
        -9.3714243008598732571704021658e-1, 0, 0, 5.18637242884406370830023853209,
        1.09143734899672957818500254654, -8.14978701074692612513997267357,
        -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
        2.49360555267965238987089396762, -3.0467644718982195003823669022,
    ),
    (
        2.27331014751653820792359768449, 0, 0, -1.05344954667372501984066689879e1,
        -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
        2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
        -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
        6.43392746015763530355970484046e-1,
    ),
    (
        5.42937341165687622380535766363e-2, 0, 0, 0, 0, 4.45031289275240888144113950566,
        1.89151789931450038304281599044, -5.8012039600105847814672114227,
        3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
        2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
    ),
)
_E5 = (
    0.1312004499419488073250102996e-1, 0, 0, 0, 0, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1, 0,
)
# the 8th-order weights minus the 3rd-order ones (dop853.f's BHH1..BHH3)
_E3 = tuple(
    b - bhh
    for b, bhh in zip(
        _A[-1] + (0,),
        (
            0.244094488188976377952755905512, 0, 0, 0, 0, 0, 0, 0,
            0.733846688281611857341361741547, 0, 0, 0.220588235294117647058823529412e-1, 0,
        ),
    )
)

# conservative safety keeps the realized local error a few times below the
# requested tolerance, which the long-horizon conservation checks rely on
# (ten T1 periods of the unperturbed system at tol 1e-11: 291 steps)
_SAFETY = 0.7
_MIN_SHRINK = 0.2
_MAX_GROW = 5.0


#: attempted steps per integrate() call before giving up; legitimate runs at
#: tol 1e-11 over tens of time units need a few hundred (one pi window of the
#: bundled systems about 40)
MAX_STEPS = 100_000

# the adaptive loop; dopri_loop writes $step, one step's stages and error
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
            $k1 = $k_last
            factor = _MAX_GROW if err == 0.0 else min(_MAX_GROW, _SAFETY * err ** -0.125)
            h *= factor
        else:
            h *= max(_MIN_SHRINK, _SAFETY * err ** -0.125)
    return $y
""")


@functools.cache
def dopri_loop(n: int) -> Callable:
    """The adaptive loop for n-component states, built once per n, on
    ``integrate``'s first use or earlier by a caller about to fork, so that
    its children inherit it.  Each stage is written out per component (a
    Python loop over the tableau costs ~1.5x): ``y + h * a * k`` for a row
    with one nonzero weight, else ``y + h * (a1 * k1 + ...)``."""

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
    for j in range(n):
        lines += [
            f"sk = tol + tol * max(abs(y{j}), abs(z{j}))",
            f"e{j} = {combination(_E5, j)} / sk",
            f"g{j} = {combination(_E3, j)} / sk",
        ]
    lines += [
        f"n5 = {' + '.join(f'e{j} * e{j}' for j in range(n))}",
        f"den = n5 + 0.01 * ({' + '.join(f'g{j} * g{j}' for j in range(n))})",
        f"err = h * n5 / math.sqrt(den * {float(n)!r}) if den else 0.0",
    ]
    step = "\n".join(" " * 8 + line for line in lines)
    last = vec(f"k{len(_A) + 1}_")
    src = _LOOP.substitute(y=vec("y"), z=vec("z"), k1=vec("k1_"), k_last=last, step=step)
    namespace: dict = {}
    exec(compile(src, f"<dop853 loop, n={n}>", "exec"), globals(), namespace)
    return namespace["loop"]


def integrate(
    rhs: Rhs,
    s0: Sequence[float],
    t0: float,
    t1: float,
    tol: float = DEFAULT_INTEGRATOR_TOL,
) -> np.ndarray:
    """Advance the state, of any size n >= 1, from t0 to t1 with DOP853 and
    return the final state; the step loop for size n is generated on first
    use.  Each step makes 12 rhs calls, the 13th stage being the next step's
    first.

    The tolerance is applied as both absolute and relative per component,
    and the error is Hairer's blend of the 5th- and 3rd-order estimates,
    h * |e5|^2 / sqrt(n * (|e5|^2 + 0.01 * |e3|^2)) with each component
    scaled by tol * (1 + max(|y|, |z|)); step acceptance is deterministic.  Raises ValueError, before any rhs
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
    return np.array(dopri_loop(len(y))(rhs, t0, t1, h, h_floor, tol, *y, *k))


#: why a shot ended, as ``OrbitCertificate.reason`` names it
CONVERGED = "converged"
AT_SINGULAR_ORIGIN = "singular root at the origin"


@dataclass(frozen=True)
class OrbitCertificate:
    """A shooting-verified periodic initial condition: the corrected state,
    ||P|| there, the number of Newton iterations that reached it, the number
    of Jacobians ``displacement_jacobian`` built for it, the Jacobian and
    the contraction Theta of the last step (None and nan without one) and
    why the shot ended: ``CONVERGED`` or ``AT_SINGULAR_ORIGIN``."""

    corrected_ic: SatelliteState
    displacement_norm: float
    newton_iters: int
    jacobian_builds: int
    jacobian: Optional[np.ndarray] = field(compare=False, repr=False)
    contraction: float = field(default=math.nan, compare=False)
    reason: str = field(default=CONVERGED, compare=False)

    @property
    def error_bar(self) -> float:
        """||P|| / sigma_min of the certificate's Jacobian: how far, to first
        order, the corrected state can sit from the true periodic one along
        the Jacobian's weakest direction (inf on a singular Jacobian, nan
        without one); no integration."""
        if self.jacobian is None:
            return math.nan
        sigma_min = float(np.linalg.svd(self.jacobian, compute_uv=False)[-1])
        return self.displacement_norm / sigma_min if sigma_min > 0.0 else math.inf


def _contracts_steadily(ratios: Sequence[float]) -> bool:
    """Whether the last ratios ||z_k|| / ||z_{k-1}|| of a shot are a steady
    contraction toward the origin (see ORIGIN_RATIO_COUNT)."""
    last = ratios[-ORIGIN_RATIO_COUNT:]
    return (
        len(last) == ORIGIN_RATIO_COUNT
        and all(ORIGIN_RATIO_BAND[0] < r < ORIGIN_RATIO_BAND[1] for r in last)
        and max(last) <= (1.0 + ORIGIN_RATIO_SPREAD) * min(last)
    )


def displacement_jacobian(
    rhs: Rhs,
    z: np.ndarray,
    period: float,
    tol: float,
    base: np.ndarray,
) -> np.ndarray:
    """Forward-difference Jacobian of P(z) = x(period; z) - z, given base = P(z)."""
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
    integrator_tol: float = DEFAULT_INTEGRATOR_TOL,
    jacobian: Optional[np.ndarray] = None,
) -> OrbitCertificate:
    """Newton-correct ``guess`` until the period map returns to it.

    The first step uses ``jacobian`` when one is given.  A Jacobian is kept
    for the next step while the step it made cut ||P|| by at least
    REUSE_CONTRACTION, and rebuilt by ``displacement_jacobian`` at the new
    state otherwise.  The first time the last ORIGIN_RATIO_COUNT steps have
    shrunk ||z|| at a steady ratio (see the module docstring), P is
    integrated once from the origin; if ||P(0)|| < ``tol`` the shot ends
    there, with reason AT_SINGULAR_ORIGIN, ||P(0)|| as its displacement and
    the Jacobian of the last step, else Newton goes on and never tries the
    origin again.  Raises ValueError, before any integration, unless
    ``guess`` is 4 finite numbers; NoConvergenceError when the displacement
    norm fails to reach ``tol`` within SHOOTING_MAX_ITER Newton iterations,
    or at once when a step from a Jacobian built at z leaves z unchanged,
    as every later step would (shooting stalled), or when ||P|| is not yet
    below ``tol`` after such a step with Theta >= 1 (Newton diverged).
    """
    z = SatelliteState.from_sequence(guess).as_array()
    jac, built, theta, fresh = jacobian, 0, math.nan, False
    ratios: Optional[List[float]] = []  # None once the origin was tried
    for iters in range(SHOOTING_MAX_ITER + 1):
        displacement = integrate(rhs, z, 0.0, period, tol=integrator_tol) - z
        norm = float(np.linalg.norm(displacement))
        if iters and step.any():  # the simplified correction over the last step
            theta = float(np.linalg.norm(pinv @ displacement) / np.linalg.norm(step))
        if norm < tol:
            return OrbitCertificate(SatelliteState.from_sequence(z), norm, iters, built, jac, theta)
        if fresh and theta >= 1.0:
            raise NoConvergenceError(
                f"Newton diverged: contraction {theta:.3g} >= 1 after {iters} iterations"
            )
        if iters == SHOOTING_MAX_ITER:
            break
        fresh = jac is None or (iters > 0 and REUSE_CONTRACTION * norm > last_norm)
        if fresh:
            jac = displacement_jacobian(rhs, z, period, integrator_tol, displacement)
            built += 1
        if fresh or iters == 0:
            pinv = np.linalg.pinv(jac, rcond=PINV_RCOND)
        step = pinv @ (-displacement)
        moved = z + step
        if fresh and np.array_equal(moved, z):
            break
        if ratios is not None and np.any(z):
            ratios.append(float(np.linalg.norm(moved) / np.linalg.norm(z)))
            if _contracts_steadily(ratios):
                ratios = None
                origin = np.zeros(z.size)
                at_origin = integrate(rhs, origin, 0.0, period, tol=integrator_tol)
                origin_norm = float(np.linalg.norm(at_origin))
                if origin_norm < tol:
                    return OrbitCertificate(
                        SatelliteState.from_sequence(origin), origin_norm, iters + 1, built, jac,
                        theta, AT_SINGULAR_ORIGIN,
                    )
        z, last_norm = moved, norm
    raise NoConvergenceError(f"shooting stalled at displacement {norm:.3e} after {iters} iterations")


@dataclass(frozen=True)
class ContinuationReport:
    """Outcome of shooting along a descending epsilon ladder.

    ``distances`` holds ||corrected_ic - prediction|| per converged rung,
    ``pair_orders`` the rung-to-rung slopes log(d_i/d_{i+1})/log(e_i/e_{i+1}),
    and ``empirical_order`` the least-squares slope of log d against log eps.
    ``status`` is one of:

    - ``PASS``: every rung converged and the slope sits in ORDER_BAND; a
      ladder with fewer than two rungs at eps > 0 with a nonzero distance
      has no slope (``empirical_order`` is nan) and passes on convergence
      alone;
    - ``COLLAPSED-TO-EQUILIBRIUM``: every rung converged, each corrected
      initial condition lies within COLLAPSE_RADIUS of the origin and the
      prediction does not; checked before the order band;
    - ``ORDER-OUT-OF-BAND``: every rung converged, neither of the above;
    - ``FAILED-AT(eps)``: shooting raised on rung eps (``failure`` holds
      the error) and the ladder stopped there.

    ``continuation_report`` builds it from the certificates and the
    prediction.  In ``reproduce``, a reference class within ``newton_tol``
    of a pipeline class is read from the pipeline's shots: its report is
    built from their certificates and its own prediction.
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


def continuation_report(
    averaged_zero: Sequence[float],
    spec: ResonanceSpec,
    eps_list: Tuple[float, ...],
    certificates: Sequence[OrbitCertificate],
    failure: Optional[str] = None,
) -> ContinuationReport:
    """The report of a ladder on ``eps_list`` whose first rungs gave
    ``certificates``, read against the prediction ``averaged_zero``: the
    distances, orders and status that ``ContinuationReport`` describes.
    ``failure``, the error's type name and text, ends the ladder on the
    rung after the last certificate."""
    predicted = np.asarray(plane_embed(averaged_zero, spec.mode), dtype=float)
    states = [c.corrected_ic.as_array() for c in certificates]
    distances = [float(np.linalg.norm(state - predicted)) for state in states]
    pair_orders = [
        math.log(da / db) / math.log(ea / eb) if min(ea, eb, da, db) > 0.0 else math.nan
        for ea, eb, da, db in zip(eps_list, eps_list[1:], distances, distances[1:])
    ]
    valid = [(math.log(e), math.log(d)) for e, d in zip(eps_list, distances) if e > 0.0 and d > 0.0]
    empirical_order = float(np.polyfit(*np.array(valid).T, 1)[0]) if len(valid) >= 2 else math.nan

    if failure is not None:
        status = f"FAILED-AT({eps_list[len(certificates)]:g})"
    elif np.linalg.norm(predicted) > COLLAPSE_RADIUS and all(
        np.linalg.norm(state) <= COLLAPSE_RADIUS for state in states
    ):
        status = "COLLAPSED-TO-EQUILIBRIUM"
    elif math.isfinite(empirical_order) and not (
        ORDER_BAND[0] <= empirical_order <= ORDER_BAND[1]
    ):
        status = "ORDER-OUT-OF-BAND"
    else:
        status = "PASS"

    return ContinuationReport(
        prediction=SatelliteState.from_sequence(predicted),
        spec=spec,
        eps_list=eps_list,
        certificates=tuple(certificates),
        distances=tuple(distances),
        pair_orders=tuple(pair_orders),
        empirical_order=empirical_order,
        status=status,
        failure=failure,
    )


def epsilon_continuation(
    rhs_for_eps: Callable[[float], Rhs],
    averaged_zero: Sequence[float],
    spec: ResonanceSpec,
    eps_list: Sequence[float],
    shooting_tol: float = DEFAULT_SHOOTING_TOL,
    integrator_tol: float = DEFAULT_INTEGRATOR_TOL,
) -> ContinuationReport:
    """Chase the predicted orbit down a descending epsilon ladder, to the
    first rung where shooting fails, and report how it ended
    (``continuation_report``).  ``rhs_for_eps`` maps each rung's eps to its
    rhs(t, state): ``dynamics.full_system`` or ``linearized_system``.

    Each rung shoots with the previous corrected initial condition as the
    seed (the first rung starts from the zero-padded averaged zero), and
    each rung after the first from the previous rung's Jacobian rescaled in
    eps (see the module docstring).  A ladder that ``epsilon_ladder``
    refuses raises ValueError before any shot.
    """
    eps_tuple = epsilon_ladder(eps_list)
    guess = np.asarray(plane_embed(averaged_zero, spec.mode), dtype=float)
    period = spec.window
    certificates: List[OrbitCertificate] = []
    failure = None

    jac0 = fundamental_matrix(period) - np.eye(4)  # J(0), about which rungs rescale
    for k, eps in enumerate(eps_tuple):
        last = certificates[-1].jacobian if certificates else None
        start = None if last is None else jac0 + (eps / eps_tuple[k - 1]) * (last - jac0)
        try:
            cert = shoot_periodic(
                rhs_for_eps(eps),
                guess,
                period,
                tol=shooting_tol,
                integrator_tol=integrator_tol,
                jacobian=start,
            )
        except DumbbellError as exc:
            failure = f"{type(exc).__name__}: {exc}"
            break
        certificates.append(cert)
        guess = cert.corrected_ic.as_array()
    return continuation_report(averaged_zero, spec, eps_tuple, certificates, failure)
