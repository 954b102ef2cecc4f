"""Simple-zero search for 2D averaged fields over an annulus r1 <= |alpha| <= r2,
which excludes the origin (the trivial equilibrium).

A ``Polynomial`` field (``averaging``: a printed reference, or the
pipeline's field where it recovered one) is searched by subdivision: a box is
dropped where an interval enclosure of F1 or F2 excludes 0 or Krawczyk's
operator proves it zero-free, and holds one zero where the operator maps it
into its interior (Krawczyk, Computing 4, 1969).  Each enclosure is widened
by an a-priori bound on its rounding (Rump, Acta Numerica 19, 2010), so no
zero of the polynomial is dropped, and the search says whether it decided
every box.  Newton, on the exact Jacobian, polishes the rest.

Any other field is searched by damped Newton from a polar grid of seeds.
All seeds iterate together in rounds: each round evaluates the four-point
Jacobian stencil of every live seed, one batched field call per stencil
point, then runs the halving line search with one batched call per halving
for the seeds still halving.  Every seed does the arithmetic of a solve on
its own (``newton2d`` is the one-seed case), so the zeros found do not
depend on the batching.  A field maps points (m, 2) to values (m, 2); a
seed whose evaluation raises NoConvergenceError drops out and the others go
on, unless every seed's first evaluation raises: then the search can say
nothing, and raises the first seed's error.

A zero is certified simple when the Jacobian determinant clears a threshold
relative to the field's typical magnitude on the annulus; each periodic
orbit of the underlying system shows up as either one zero or a
(a, b)/(a, -b) pair, which ``group_orbit_classes`` collapses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .averaging import Polynomial
from .errors import NoConvergenceError, SingularJacobianError
from .torques import OVERFLOW_MESSAGE, DomainError

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

#: unit roundoff: a float operation's relative rounding error is at most this
UNIT_ROUNDOFF = 2.0**-53
#: Krawczyk's test runs on a box inflated by this fraction, to prove zeros on its edge
INFLATION = 0.125
#: the first boxes cut [-r2, r2]^2 into this many per side (odd: boxes centred on the axes)
FIRST_GRID = 9
#: an unproved box narrower than this fraction of 2*r2 is undecided
MIN_BOX_WIDTH = 2.0**-20
#: more open boxes than this are all undecided
MAX_BOXES = 2**12


@dataclass(frozen=True)
class ZeroSearchDomain:
    """Closed annulus r1 <= ||alpha|| <= r2 with a polar grid of n_r * n_angle
    points: the Newton seeds of a field that is no ``Polynomial``.  For a
    ``Polynomial`` they are only the sample whose median ||F|| sets the
    field scale of the Simple/Degenerate verdict."""

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
        ``math.hypot``'s radius; numpy's decides rows 1e-12 relative off both
        bounds.  ValueError for a point of any other shape."""
        point = np.asarray(point, dtype=float)
        if point.ndim not in (1, 2) or point.shape[-1] != 2:
            raise ValueError(f"point must have 2 components, got shape {point.shape}")
        rows = np.atleast_2d(point)
        r = np.hypot(rows[:, 0], rows[:, 1])
        near = np.isclose(r[:, None], [self.r1, self.r2], rtol=1e-12, atol=0.0).any(axis=1)
        r[near] = [math.hypot(x, y) for x, y in rows[near].tolist()]
        inside = (self.r1 <= r) & (r <= self.r2)
        return bool(inside[0]) if point.ndim == 1 else inside


@dataclass(frozen=True)
class CertifiedZero:
    """A Newton-converged zero: its location, ||field||, Jacobian (exact for
    a polynomial field, else central differences) and determinant there, and
    the determinant's simplicity verdict."""

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
    # bit for bit what float(np.linalg.norm(row)) gives on each row, inf too
    with np.errstate(over="ignore"):
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
    table: Optional[Polynomial] = None,
) -> List[Union[CertifiedZero, NoConvergenceError]]:
    """Damped Newton from every row of ``seeds`` at once.

    Each round moves every live seed by one ``newton2d`` iteration: the
    Jacobian (exact from ``table``, the field's ``with_jacobian``, where
    given, else the stencil, one field call per stencil point), then the
    halving line search (one field call per halving, for the seeds still
    halving).  The arithmetic of each seed is that of a solve on its own.  A
    seed ends when it converges, fails, or its field evaluation raises
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
        if table is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                jac = table.rows(x)[:, 2:].reshape(-1, 2, 2)
        else:
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
    one-seed case of the batched rounds ``multistart_zeros`` runs, on the
    exact Jacobian of a ``Polynomial``.
    """
    seeds = np.asarray(seed, dtype=float).reshape(1, 2)
    table = field.with_jacobian() if isinstance(field, Polynomial) else None
    (result,) = _newton_rounds(field, seeds, tol, max_iter, field_scale, table)
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
    when a norm is NaN, or when the median is 0; DomainError when it
    overflows, being inf though every value is finite."""
    with np.errstate(over="ignore"):
        norms = np.sort(np.linalg.norm(values, axis=1))  # NaNs sort last
    n = len(norms)
    if not n or math.isnan(norms[-1]):
        return 1.0
    mid = n // 2
    med = float(norms[mid]) if n % 2 else (float(norms[mid - 1]) + float(norms[mid])) / 2
    if math.isinf(med) and np.isfinite(values).all():
        raise DomainError(OVERFLOW_MESSAGE)
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


def _powers(lo: np.ndarray, hi: np.ndarray, degree: int) -> np.ndarray:
    """Bounds of x^n and y^n over boxes [lo, hi] (k, 2), n = 0 .. degree, by
    repeated products: (degree + 1, lower/upper, coordinate, k)."""
    a, b = lo.T, hi.T
    low, high = [np.ones_like(a), a], [np.ones_like(b), b]
    for _ in range(degree - 1):
        low.append(low[-1] * a)
        high.append(high[-1] * b)
    low, high = np.array(low), np.array(high)
    even_lo = low[2::2].copy()
    low[2::2] = np.where(a > 0.0, even_lo, np.where(b < 0.0, high[2::2], 0.0))
    high[2::2] = np.maximum(even_lo, high[2::2])
    return np.stack([low, high], axis=1)


def _enclosure(lo: np.ndarray, hi: np.ndarray, terms: tuple) -> Tuple[np.ndarray, np.ndarray]:
    """Bounds (n, k) of the polynomial ``terms`` over boxes [lo, hi] (n, 2)
    that hold for its exact values: each monomial's range is the product of
    its coordinates' power ranges, summed times the coefficients of each
    sign, and widened by 2*gamma_N times the sum of the terms' magnitudes,
    gamma_N = N*u/(1 - N*u), with N = degree + terms + 3 bounding the
    roundings behind a bound, and by their underflow (Rump 2010).  A bound
    that is not a number excludes nothing."""
    exponents, coefficients = terms
    e = np.asarray(exponents)
    degree, count = int(e.sum(axis=1).max()), len(e)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = _powers(lo, hi, degree)
        ends = (powers[e[:, 0], :, None, 0] * powers[e[:, 1], None, :, 1]).reshape(count, 4, -1)
        low, high = ends.min(axis=1).T, ends.max(axis=1).T
        up, down = np.maximum(coefficients, 0.0), np.minimum(coefficients, 0.0)
        n, reach = degree + count + 3, np.max(np.abs([lo, hi]), initial=1.0)
        underflow = n * count * 2.0**-1074 * max(1.0, np.abs(coefficients).max()) * reach**degree
        slack = 2.0 * n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF) * (
            np.maximum(-low, high) @ np.abs(coefficients)) + underflow
        return low @ up + high @ down - slack, high @ up + low @ down + slack


def _krawczyk(lo: np.ndarray, hi: np.ndarray, table: tuple) -> Tuple[np.ndarray, ...]:
    """Krawczyk's test on boxes X = [lo, hi] (n, 2) of the field whose terms
    and Jacobian's are ``table`` (``Polynomial.with_jacobian``).

    With X' the box inflated by INFLATION, c its centre and Y the inverse of
    the midpoint of J(X'), K = c - Y F(c) + (I - Y J(X'))(X' - c) holds every
    zero in X', from enclosures of F(c) and J(X') and radii widened by the
    rounding behind them (a few u, the unit roundoff).  Returns whether X
    holds no zero (F over X excludes 0, or K misses X'), whether X' holds
    exactly one (K inside X'), and K's bounds.
    """
    u, n = UNIT_ROUNDOFF, len(lo)
    c, half = (lo + hi) / 2.0, (hi - lo) * (0.5 + 0.5 * INFLATION)
    x_lo, x_hi = c - half, c + half
    low, high = _enclosure(np.concatenate([lo, x_lo, c]), np.concatenate([hi, x_hi, c]), table)
    rho = np.maximum(x_hi - c, c - x_lo) * (1.0 + 2.0 * u)  # X' - c within [-rho, rho]
    # F(c) within fm +- fr, J(X') within jm +- jr
    fm, jm = (low + high)[2 * n:, :2] / 2.0, ((low + high)[n:2 * n, 2:] / 2.0).reshape(-1, 2, 2)
    radius = (high - low) / 2.0 + 2.0 * u * (np.abs(low) + np.abs(high))
    fr, jr = radius[2 * n:, :2], radius[n:2 * n, 2:].reshape(-1, 2, 2)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        det = jm[:, 0, 0] * jm[:, 1, 1] - jm[:, 0, 1] * jm[:, 1, 0]
        y = np.stack([jm[:, 1, 1], -jm[:, 0, 1], -jm[:, 1, 0], jm[:, 0, 0]], axis=1)
        y = y.reshape(-1, 2, 2) / det[:, None, None]
        ay = np.abs(y)
        # |I - Y J| over X', the rounding of I - Y jm (gamma_3) included
        bound = np.abs(np.eye(2) - y @ jm) + ay @ jr + 4.0 * u * (np.eye(2) + ay @ np.abs(jm))
        centre = c - (y @ fm[..., None])[..., 0]
        radius = (ay @ fr[..., None] + bound @ rho[..., None])[..., 0]
        radius += 4.0 * u * (np.abs(c) + (ay @ np.abs(fm)[..., None])[..., 0])
        radius = radius * (1.0 + 16.0 * u) + 2.0 * u * np.abs(centre) + 2.0**-1022
        k_lo, k_hi = centre - radius, centre + radius
    excluded = ((low[:n, :2] > 0.0) | (high[:n, :2] < 0.0)).any(axis=1)
    missed = ((k_lo > x_hi) | (k_hi < x_lo)).any(axis=1)
    return excluded | missed, ((k_lo > x_lo) & (k_hi < x_hi)).all(axis=1), k_lo, k_hi


def _in_annulus(lo: np.ndarray, hi: np.ndarray, domain: ZeroSearchDomain) -> Tuple[np.ndarray, ...]:
    """Whether each box [lo, hi] (n, 2) meets the annulus, and whether it lies
    inside, decided with a margin beyond the rounding of squared distances."""
    near = np.where((lo <= 0.0) & (0.0 <= hi), 0.0, np.minimum(np.abs(lo), np.abs(hi)))
    near2, far2 = (near**2).sum(axis=1), (np.maximum(np.abs(lo), np.abs(hi)) ** 2).sum(axis=1)
    up, down = 1.0 + 8.0 * UNIT_ROUNDOFF, 1.0 - 8.0 * UNIT_ROUNDOFF
    r1, r2 = domain.r1**2, domain.r2**2
    meets = (far2 * up >= r1 * down) & (near2 * down <= r2 * up)
    return meets, (near2 * down >= r1 * up) & (far2 * up <= r2 * down)


def _thirds(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each box [lo, hi] (n, 2) cut into 3 x 3 boxes about its centre, so a
    box centred on an axis has a middle box centred on it too."""
    c, sixth = (lo + hi) / 2.0, (hi - lo) / 6.0
    cuts = np.array([lo, c - sixth, c + sixth, hi])
    i, j = np.repeat(np.arange(3), 3), np.tile(np.arange(3), 3)
    return (np.stack([cuts[i, :, 0], cuts[j, :, 1]], axis=-1).reshape(-1, 2),
            np.stack([cuts[i + 1, :, 0], cuts[j + 1, :, 1]], axis=-1).reshape(-1, 2))


def _subdivide(table: Polynomial, domain: ZeroSearchDomain) -> Tuple[np.ndarray, int]:
    """The points to polish for the zeros in the annulus of the field whose
    ``with_jacobian`` is ``table``, and how many boxes stayed undecided.

    Level by level, every open box is tested at once.  A box that misses the
    annulus, or that ``_krawczyk`` proves zero-free, is dropped.  A box whose
    inflation holds one zero gives way to its K, and K to the K over it while
    that halves; then the zero's box is decided: inside the annulus, its
    centre is polished; meeting it, it is undecided.  Other boxes are cut
    in ``_thirds``, or, narrower than MIN_BOX_WIDTH * 2 * r2, are undecided,
    as all are past MAX_BOXES.  Undecided boxes are polished
    from their centres, after the proved ones.
    """
    # the first boxes' edges are symmetric bit for bit, so the middle boxes
    # stay centred on the axes, where symmetric fields have zeros
    edges = domain.r2 * np.arange(-FIRST_GRID, FIRST_GRID + 1, 2) / FIRST_GRID
    lo = np.array([(x, y) for x in edges[:-1] for y in edges[:-1]])
    hi = np.array([(x, y) for x in edges[1:] for y in edges[1:]])
    proved, floor = np.zeros(len(lo), dtype=bool), MIN_BOX_WIDTH * 2.0 * domain.r2
    found: List[np.ndarray] = []
    undecided: List[np.ndarray] = []
    while len(lo):
        empty, unique, k_lo, k_hi = _krawczyk(lo, hi, table.terms)
        c, width = (lo + hi) / 2.0, (hi - lo).max(axis=1)
        live = _in_annulus(lo, hi, domain)[0] & ~empty
        narrows = live & unique & (~proved | ((k_hi - k_lo).max(axis=1) <= width / 2.0))
        held = live & proved & ~narrows  # a zero's box, decided
        meets, inside = _in_annulus(lo[held], hi[held], domain)
        found.append(c[held][inside])
        undecided += [c[held][meets & ~inside], c[live & ~proved & ~unique & (width < floor)]]
        split = live & ~proved & ~unique & (width >= floor)
        split_lo, split_hi = _thirds(lo[split], hi[split])
        lo, hi = np.concatenate([k_lo[narrows], split_lo]), np.concatenate([k_hi[narrows], split_hi])
        proved = np.arange(len(lo)) < narrows.sum()
        if len(lo) > MAX_BOXES:
            undecided.append((lo + hi) / 2.0)
            break
    undecided_points = np.concatenate(undecided)
    return np.concatenate(found + [undecided_points]), len(undecided_points)


class ZeroSet(list):
    """The zeros a search found, and its ``verdict``: "complete" when
    subdivision proved the annulus holds no other zero, else what is open."""

    def __init__(self, zeros: Sequence[CertifiedZero], verdict: str) -> None:
        super().__init__(zeros)
        self.verdict = verdict


def multistart_zeros(
    field: Field2D,
    domain: ZeroSearchDomain,
    tol: float = DEFAULT_NEWTON_TOL,
) -> ZeroSet:
    """The zeros of ``field`` in the annulus, as a ZeroSet with its verdict.

    A ``Polynomial`` is subdivided (``_subdivide``), and Newton polishes the
    points it leaves, on the exact Jacobian, with the field scale of the
    polar seeds, both from one ``with_jacobian`` table; any other field gets
    Newton from every polar seed.  Either way all points iterate together,
    one batched field call per stencil point or line-search halving.  Zeros
    within Euclidean distance 1e-6 of an earlier kept one (in point order)
    are duplicates, dropped in one pass per kept zero; survivors are sorted
    by polar angle (0 where |y| <= 1e-6) then radius.  Points that fail to
    converge are skipped, so an empty list is a legitimate outcome; a field
    that raises NoConvergenceError at every seed raises the first seed's,
    and one whose median ||F|| over the seeds overflows raises DomainError.
    """
    if isinstance(field, Polynomial):
        table, scale = field.with_jacobian(), field_scale_on(field, domain.seeds())
        seeds, undecided = _subdivide(table, domain)
        verdict = f"{undecided} box(es) undecided" if undecided else "complete"
    else:
        seeds, scale, table = domain.seeds(), None, None
        verdict = f"not proved complete: multistart from {len(seeds)} seeds"
    outcomes = _newton_rounds(field, seeds, tol, NEWTON_MAX_ITER, scale, table) if len(seeds) else []
    converged = [zero for zero in outcomes if isinstance(zero, CertifiedZero)]
    locations = np.array([zero.location for zero in converged]).reshape(-1, 2)
    inside = np.flatnonzero(domain.contains(locations))
    found = [converged[inside[i]] for i in _first_apart(locations[inside])]

    def sort_key(z: CertifiedZero) -> Tuple[float, float]:
        x, y = z.location  # on the axis within DEDUP_DISTANCE, as in group_orbit_classes
        angle = math.atan2(0.0 if abs(y) <= DEDUP_DISTANCE else y, x)
        return (angle % (2.0 * math.pi), math.hypot(x, y))

    found.sort(key=sort_key)
    return ZeroSet(found, verdict)


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
