"""Simple-zero search for 2D averaged fields.

Damped Newton iteration from a polar grid of seeds over an annulus that
excludes the origin (the trivial equilibrium).  All seeds iterate together
in rounds: each round evaluates the four-point Jacobian stencil of every
live seed, one batched field call per stencil point, then runs the halving
line search with one batched call per halving for the seeds still halving.
Every seed does the arithmetic of a solve on its own (``newton2d`` is the
one-seed case), so the zeros found do not depend on the batching.  A field
maps points (m, 2) to values (m, 2); a seed whose evaluation raises
NoConvergenceError drops out and the others go on, unless every seed's
first evaluation raises: then the search can say nothing, and raises the
first seed's error.

A zero is certified simple when the finite-difference Jacobian determinant
clears a threshold relative to the field's typical magnitude on the
annulus; each periodic orbit of the underlying system shows up as either
one zero or a (a, b)/(a, -b) pair, which ``group_orbit_classes`` collapses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import NoConvergenceError, SingularJacobianError

Field2D = Callable[[np.ndarray], np.ndarray]

#: relative finite-difference step for the field Jacobian
JAC_STEP = 1e-5
#: |det J| below this during iteration aborts the Newton solve
ITER_DET_FLOOR = 1e-14
#: |det J| must exceed this times the field scale for a Simple verdict
SIMPLE_DET_TOL = 1e-8
#: zeros closer than this are the same zero
DEDUP_DISTANCE = 1e-6

DEFAULT_NEWTON_TOL = 1e-12
#: Newton iterations per seed before NoConvergenceError
NEWTON_MAX_ITER = 50
STEP_TOL = 1e-12
MAX_HALVINGS = 20
#: most seeds one search takes
MAX_SEEDS = 2**16


@dataclass(frozen=True)
class ZeroSearchDomain:
    """Closed annulus r1 <= ||alpha|| <= r2 with a polar grid of Newton seeds."""

    r1: float = 0.05
    r2: float = 5.0
    n_r: int = 16
    n_angle: int = 32

    def __post_init__(self) -> None:
        if not (0.0 < self.r1 < self.r2):
            raise ValueError(f"need 0 < r1 < r2, got r1={self.r1}, r2={self.r2}")
        if self.n_r < 1 or self.n_angle < 1 or self.n_r * self.n_angle > MAX_SEEDS:
            raise ValueError(f"seed counts must be positive, with n_r * n_angle <= {MAX_SEEDS}")

    def seeds(self) -> np.ndarray:
        radii = np.linspace(self.r1, self.r2, self.n_r)
        angles = np.linspace(0.0, 2.0 * math.pi, self.n_angle, endpoint=False)
        r, a = np.meshgrid(radii, angles, indexing="ij")
        return np.column_stack([(r * np.cos(a)).ravel(), (r * np.sin(a)).ravel()])

    def contains(self, point: Sequence[float]) -> Union[bool, np.ndarray]:
        """Whether ``point`` (2,), or each row of (k, 2), lies in the annulus by
        ``math.hypot``'s radius; numpy's decides rows 1e-12 relative off both bounds."""
        rows = np.atleast_2d(np.asarray(point, dtype=float))
        r = np.hypot(rows[:, 0], rows[:, 1])
        near = np.isclose(r[:, None], [self.r1, self.r2], rtol=1e-12, atol=0.0).any(axis=1)
        r[near] = [math.hypot(x, y) for x, y in rows[near].tolist()]
        inside = (self.r1 <= r) & (r <= self.r2)
        return bool(inside[0]) if np.ndim(point) == 1 else inside


@dataclass(frozen=True)
class CertifiedZero:
    """A Newton-converged zero: its location, ||field||, finite-difference
    Jacobian and determinant there, and the determinant's simplicity verdict."""

    location: np.ndarray
    residual_norm: float
    jacobian: np.ndarray
    jacobian_det: float
    classification: str  # "Simple" or "Degenerate"

    @property
    def is_simple(self) -> bool:
        return self.classification == "Simple"


def _rows(field: Field2D, points: np.ndarray) -> np.ndarray:
    return np.asarray(field(points), dtype=float).reshape(len(points), 2)


def _field_rows(
    field: Field2D, points: np.ndarray
) -> Tuple[np.ndarray, Dict[int, NoConvergenceError]]:
    """``field`` at every row of ``points`` in one call.

    When that call raises NoConvergenceError, the rows its ``values`` hold
    (see ``AveragedField``) are kept, and without them each row is
    evaluated again alone; the rows that still fail come back as NaN, with
    their exception in the returned {row: exception} map.
    """
    try:
        return _rows(field, points), {}
    except NoConvergenceError as exc:
        if exc.values is not None and len(exc.values) == len(points):
            values = np.asarray(exc.values, dtype=float).reshape(points.shape)
            return values, {int(i): exc for i in np.flatnonzero(np.isnan(values).any(axis=1))}
        if len(points) == 1:
            return np.full((1, 2), np.nan), {0: exc}
    values = np.full(points.shape, np.nan)
    errors: Dict[int, NoConvergenceError] = {}
    for i in range(len(points)):
        try:
            values[i] = _rows(field, points[i : i + 1])[0]
        except NoConvergenceError as exc:
            errors[i] = exc
    return values, errors


def _norms(rows: np.ndarray) -> np.ndarray:
    # bit for bit what float(np.linalg.norm(row)) gives on each row
    return np.sqrt(np.vecdot(rows, rows))


def _stencil(evaluate: Field2D, points: np.ndarray) -> np.ndarray:
    """Central-difference Jacobians (k, 2, 2) at ``points`` (k, 2), with
    per-coordinate relative steps; one ``evaluate`` call per stencil point."""
    h = JAC_STEP * np.maximum(1.0, np.abs(points))
    jac = np.empty((len(points), 2, 2))
    for j in range(2):
        hi = points.copy()
        lo = points.copy()
        hi[:, j] += h[:, j]
        lo[:, j] -= h[:, j]
        jac[:, :, j] = (evaluate(hi) - evaluate(lo)) / (2.0 * h[:, j, None])
    return jac


def jacobian2d(field: Field2D, point: Sequence[float]) -> np.ndarray:
    """Central-difference Jacobian with per-coordinate relative steps."""
    p = np.asarray(point, dtype=float).reshape(1, 2)
    return _stencil(lambda pts: _rows(field, pts), p)[0]


def _newton_rounds(
    field: Field2D,
    seeds: np.ndarray,
    tol: float,
    max_iter: int,
    field_scale: Optional[float],
) -> List[Union[CertifiedZero, NoConvergenceError]]:
    """Damped Newton from every row of ``seeds`` at once.

    Each round moves every live seed by one ``newton2d`` iteration: the
    Jacobian stencil (one field call per stencil point), then the halving
    line search (one field call per halving, for the seeds still halving).
    The arithmetic of each seed is that of a solve on its own.  A seed ends
    when it converges, fails, or its field evaluation raises
    NoConvergenceError; the others go on.  When the first field call ends
    every seed, the first seed's NoConvergenceError is raised.
    ``field_scale`` None takes ``field_scale_on`` the seeds from the first
    field call.  Returns, in seed order, each seed's CertifiedZero or the
    NoConvergenceError that ended it, recorded in the round where the seed
    ends.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    m = len(seeds)
    outcome: List[Union[CertifiedZero, NoConvergenceError, None]] = [None] * m
    ended = np.zeros(m, dtype=bool)

    def end(seed: int, result: Union[CertifiedZero, NoConvergenceError]) -> None:
        outcome[seed] = result
        ended[seed] = True

    def evaluate(points: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Field at ``points``, one row per seed in ``ids``; rows of ended
        seeds, and of seeds whose evaluation raises, come back NaN."""
        values = np.full(points.shape, np.nan)
        rows = np.flatnonzero(~ended[ids])
        if rows.size:
            values[rows], errors = _field_rows(field, points[rows])
            for i, exc in errors.items():
                end(ids[rows[i]], exc)
        return values

    live = np.arange(m)
    x = np.array(seeds, dtype=float)
    fx = evaluate(x, live)
    if ended.all():
        raise outcome[0]
    if field_scale is None:
        field_scale = _median_norm(fx[~ended])
    nf = _norms(fx)
    for _round in range(max_iter):
        keep = ~ended[live]
        live, x, fx, nf = live[keep], x[keep], fx[keep], nf[keep]
        if not live.size:
            break
        jac = _stencil(lambda pts: evaluate(pts, live), x)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        for j in np.flatnonzero(~ended[live] & (np.abs(det) < ITER_DET_FLOOR)):
            end(
                live[j],
                SingularJacobianError(
                    f"|det J| = {abs(det[j]):.3e} below {ITER_DET_FLOOR:g} at {x[j].tolist()}"
                ),
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.column_stack(
                [
                    (-fx[:, 0] * jac[:, 1, 1] + fx[:, 1] * jac[:, 0, 1]) / det,
                    (-fx[:, 1] * jac[:, 0, 0] + fx[:, 0] * jac[:, 1, 0]) / det,
                ]
            )
        for j in np.flatnonzero(~ended[live] & (nf < tol) & (_norms(step) < STEP_TOL)):
            simple = abs(det[j]) > SIMPLE_DET_TOL * field_scale
            end(
                live[j],
                CertifiedZero(
                    location=x[j].copy(), residual_norm=float(nf[j]),
                    jacobian=jac[j].copy(), jacobian_det=float(det[j]),
                    classification="Simple" if simple else "Degenerate",
                ),
            )

        lam = np.ones(len(live))
        halving = ~ended[live]
        for _halving in range(MAX_HALVINGS):
            rows = np.flatnonzero(halving)
            if not rows.size:
                break
            trial = x[rows] + lam[rows, None] * step[rows]
            f_trial = evaluate(trial, live[rows])
            n_trial = _norms(f_trial)
            better = n_trial < nf[rows]
            moved = rows[better]
            x[moved], fx[moved], nf[moved] = trial[better], f_trial[better], n_trial[better]
            halving[moved] = False
            halving &= ~ended[live]
            lam[halving] *= 0.5
        for j in np.flatnonzero(halving):
            end(
                live[j],
                NoConvergenceError(
                    f"line search failed to reduce ||field|| = {nf[j]:.3e} at {x[j].tolist()}"
                ),
            )

    for seed in live[~ended[live]]:
        end(
            seed,
            NoConvergenceError(
                f"no zero within {max_iter} iterations from seed {seeds[seed].tolist()}"
            ),
        )
    return outcome


def newton2d(
    field: Field2D,
    seed: Sequence[float],
    tol: float = DEFAULT_NEWTON_TOL,
    max_iter: int = NEWTON_MAX_ITER,
    field_scale: float = 1.0,
) -> CertifiedZero:
    """Damped Newton solve for a zero of the field starting at ``seed``.

    Full Newton steps with a halving line search on ||field||; success
    requires both ||field|| < tol and a Newton step below 1e-12.  Raises
    SingularJacobianError when |det J| < 1e-14 mid-iteration and
    NoConvergenceError when the iteration budget runs out.  This is the
    one-seed case of the batched rounds ``multistart_zeros`` runs.
    """
    seeds = np.asarray(seed, dtype=float).reshape(1, 2)
    (result,) = _newton_rounds(field, seeds, tol, max_iter, field_scale)
    if isinstance(result, NoConvergenceError):
        raise result
    return result


def field_scale_on(field: Field2D, seeds: np.ndarray) -> float:
    """Median of ||field|| over the seed points that evaluate; 1.0 for an
    all-zero field."""
    values, errors = _field_rows(field, seeds)
    return _median_norm(np.delete(values, list(errors), axis=0))


def _median_norm(values: np.ndarray) -> float:
    """Median of the row norms, with np.median's arithmetic: the middle norm,
    or the mean (a + b) / 2 of the middle pair.  1.0 when there are no rows,
    when a norm is NaN, or when the median is 0."""
    norms = np.sort(np.linalg.norm(values, axis=1))  # NaNs sort last
    n = len(norms)
    if not n or math.isnan(norms[-1]):
        return 1.0
    mid = n // 2
    med = float(norms[mid]) if n % 2 else (float(norms[mid - 1]) + float(norms[mid])) / 2
    return med if med > 0.0 else 1.0


def _first_apart(points: np.ndarray) -> List[int]:
    """Indices of the rows of ``points`` (k, 2), in order, that lie at least
    DEDUP_DISTANCE from every earlier row kept: keep the first row left,
    drop every later row within the distance of it, and repeat."""
    kept: List[int] = []
    left = np.arange(len(points))
    while left.size:
        first, rest = left[0], left[1:]
        kept.append(int(first))
        left = rest[~(_norms(points[rest] - points[first]) < DEDUP_DISTANCE)]
    return kept


def multistart_zeros(
    field: Field2D,
    domain: ZeroSearchDomain,
    tol: float = DEFAULT_NEWTON_TOL,
) -> List[CertifiedZero]:
    """Newton from every polar seed; dedup, clip to the annulus, sort.

    All seeds iterate together, one batched field call per stencil point
    or line-search halving.  Zeros within Euclidean distance 1e-6 of an
    earlier kept one (in seed order) are duplicates, dropped in one pass
    per kept zero; survivors are sorted by polar angle (0 where |y| <= 1e-6)
    then radius.  Seeds that fail to converge are skipped, so an empty list
    is a legitimate outcome; a field that raises NoConvergenceError at every
    seed raises the first seed's.
    """
    outcomes = _newton_rounds(field, domain.seeds(), tol, NEWTON_MAX_ITER, None)
    converged = [zero for zero in outcomes if isinstance(zero, CertifiedZero)]
    locations = np.array([zero.location for zero in converged]).reshape(-1, 2)
    inside = np.flatnonzero(domain.contains(locations))
    found = [converged[inside[i]] for i in _first_apart(locations[inside])]

    def sort_key(z: CertifiedZero) -> Tuple[float, float]:
        x, y = z.location  # on the axis within DEDUP_DISTANCE, as in group_orbit_classes
        angle = math.atan2(0.0 if abs(y) <= DEDUP_DISTANCE else y, x)
        return (angle % (2.0 * math.pi), math.hypot(x, y))

    found.sort(key=sort_key)
    return found


def group_orbit_classes(zeros: Sequence[CertifiedZero]) -> List[List[CertifiedZero]]:
    """Group zeros that differ only by the sign of the second coordinate.

    Such pairs are two initial conditions on the same periodic orbit, so
    each group represents one orbit class.
    """
    groups: List[List[CertifiedZero]] = []
    used = [False] * len(zeros)
    for i, z in enumerate(zeros):
        if used[i]:
            continue
        group = [z]
        used[i] = True
        mirror = np.array([z.location[0], -z.location[1]])
        if abs(z.location[1]) > DEDUP_DISTANCE:
            for j in range(i + 1, len(zeros)):
                if used[j]:
                    continue
                if float(np.linalg.norm(zeros[j].location - mirror)) < DEDUP_DISTANCE:
                    group.append(zeros[j])
                    used[j] = True
                    break
        groups.append(group)
    return groups
