"""Averaged bifurcation functions over the two resonant planes.

Two independent routes produce the same 2-vector field over plane initial
conditions alpha, for the plane oscillator x'' = -omega^2 x of a ``Mode``
averaged over the window p*T_mode = 2*p*pi/omega:

* ``AveragedField`` evaluates the specialized closed-form integrals: with
  (x, v) the exact unperturbed orbit through alpha, c, s = cos, sin(omega t)
  and core = x*f1(t, v, 0) on T1 or x*f4(t, 0, v) on T2, it integrates
  (kappa/(2p pi)*s*core, kappa*omega/(2p pi)*c*core) over the window;
* ``malkin_average`` evaluates the generic functional: average M(-t)
  applied to the perturbation vector field along the same orbit, keep the
  active plane's rows, which are (-(s/omega)*core, c*core), and scale by
  diag(-kappa, kappa).

kappa (``Mode.kappa``: 1 on T1, 2 on T2) is the normalization of the closed
forms.  The zeros do not depend on it, but printed field values scale with
kappa and the Jacobian determinant of a zero with kappa^2.

Both reduce periodic integrands to one node-doubling trapezoid rule
(``_quadrature_rows``), which converges spectrally for smooth periodic
functions.  A batch of plane points is integrated together, but each point
stops doubling at its own node count, so its value is the same whatever
else is in the batch.  ``AveragedField.polynomial`` recovers a
``Polynomial``, the type of the bundled reference fields, from one such batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Optional, Sequence, Tuple

import numpy as np

from .dynamics import Mode, ResonanceSpec, closed_form_solution, monodromy_gap, plane_flow
from .errors import NoConvergenceError
from .torques import OVERFLOW_MESSAGE, DomainError, LinearizedTorque

#: node-doubling starts here ...
QUAD_START_NODES = 16
#: ... and gives up beyond this.
QUAD_MAX_NODES = 2**20

DEFAULT_QUAD_TOL = 1e-12

#: samples one integrand call may hold: one point's last doubling at QUAD_MAX_NODES
QUAD_BLOCK_SAMPLES = QUAD_MAX_NODES // 2


def _quadrature_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    period: float,
    tol: float,
    points: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Node doubling for the integrals of ``points`` independent points.

    Composite trapezoid from N=16 nodes; for a periodic integrand the
    endpoint weights merge, so each estimate is a plain mean of uniformly
    spaced samples times the period.  ``f(t, idx)`` maps sample times (n,)
    and point indices (k,) to values (k, rows, n); a sum that is not finite
    raises DomainError, as a torque does.  Each point stops at the
    first doubling where every row's estimate moved by less than
    tol*max(1, |estimate|), and NoConvergenceError is raised past N=2**20,
    holding the integrals and node counts of the points that stopped.
    Only the points still moving are sampled at the next level, in blocks of
    at most QUAD_BLOCK_SAMPLES point-nodes per call.  A point's integrals
    therefore do not depend on the other points of the call.  Returns
    (integrals (points, rows), nodes used per point).
    """

    def sums(t: np.ndarray, idx: np.ndarray) -> np.ndarray:
        block = max(1, QUAD_BLOCK_SAMPLES // t.size)
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.concatenate([np.sum(np.asarray(f(t, idx[i : i + block]), dtype=float), axis=-1)
                                  for i in range(0, idx.size, block)])
        if not np.isfinite(out).all():
            raise DomainError(OVERFLOW_MESSAGE)
        return out

    n = QUAD_START_NODES
    active = np.arange(points)
    total = sums(np.arange(n) * (period / n), active)
    estimate = total * (period / n)
    values = np.full_like(total, np.nan)
    nodes = np.zeros(points, dtype=int)
    while n <= QUAD_MAX_NODES // 2:
        total = total + sums((np.arange(n) + 0.5) * (period / n), active)
        n *= 2
        refined = total * (period / n)
        scale = np.maximum(1.0, np.abs(refined))
        done = np.all(np.abs(refined - estimate) < tol * scale, axis=1)
        values[active[done]] = refined[done]
        nodes[active[done]] = n
        moving = ~done
        active, total, estimate = active[moving], total[moving], refined[moving]
        if not active.size:
            return values, nodes
    error = NoConvergenceError(f"trapezoid rule still moving by more than {tol:g} at N={n} nodes")
    error.values, error.nodes = values, nodes
    raise error


def _plane_points(alpha) -> Tuple[np.ndarray, bool]:
    """``alpha`` as rows (m, 2), and whether it was a single point (2,);
    ValueError for any other shape."""
    a = np.asarray(alpha, dtype=float)
    if a.ndim not in (1, 2) or a.shape[-1] != 2:
        raise ValueError(f"alpha must have 2 components, got shape {a.shape}")
    return np.atleast_2d(a), a.ndim == 1


class Polynomial:
    """A polynomial map of plane points: ``terms`` are its exponents (i, j)
    and coefficients (m, k), one column per component.  A point (2,) gives
    (k,) and points (m, 2) give (m, k); another shape raises ValueError, and
    a value that is not finite DomainError, without a numpy warning."""

    def __init__(self, exponents: Sequence[Tuple[int, int]], coefficients) -> None:
        exponents = list(exponents)
        self.terms = (exponents, np.array(coefficients, dtype=float).reshape(len(exponents), -1))

    def rows(self, pts: np.ndarray) -> np.ndarray:
        """The values (n, k) at rows (n, 2), unchecked, in elementwise products
        and sums: no row's bits depend on another's."""
        exponents, coefficients = self.terms
        xs, ys = [np.ones(len(pts)), pts[:, 0].copy()], [np.ones(len(pts)), pts[:, 1].copy()]
        for _ in range(max(i + j for i, j in exponents) - 1):
            xs.append(xs[-1] * xs[1])
            ys.append(ys[-1] * ys[1])
        out = np.zeros((len(pts), coefficients.shape[1]))
        for (i, j), c in zip(exponents, coefficients):
            out += (xs[i] if not j else ys[j] if not i else xs[i] * ys[j])[:, None] * c
        return out

    def __call__(self, alpha) -> np.ndarray:
        pts, single = _plane_points(alpha)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.rows(pts)
        if not np.isfinite(out).all():
            raise DomainError(OVERFLOW_MESSAGE)
        return out[0] if single else out

    def with_jacobian(self) -> "Polynomial":
        """This 2D field and its exact Jacobian, over the exponents of both:
        columns F1, F2, dF1/dx, dF1/dy, dF2/dx, dF2/dy."""
        table: dict = {}
        for (i, j), (c1, c2) in zip(*self.terms):
            table.setdefault((i, j), np.zeros(6))[:2] += (c1, c2)
            for n, exponent, cols in ((i, (i - 1, j), [2, 4]), (j, (i, j - 1), [3, 5])):
                if n:
                    table.setdefault(exponent, np.zeros(6))[cols] += (n * c1, n * c2)
        return Polynomial(table, list(table.values()))


@dataclass
class AveragedField:
    """Averaged bifurcation field over plane initial conditions by quadrature.

    ``evaluate`` accepts a single (2,) point or a batch (m, 2) and returns
    matching shape; row i of a batch is bit for bit ``evaluate(alpha[i])``.
    A batch with a point whose quadrature does not converge raises
    NoConvergenceError, whose ``values`` are the batch's rows, NaN in the
    points that did not converge; a point quadrature meets that is not
    finite, or whose integrand is not, raises DomainError at once.
    ``max_nodes_used`` records the largest quadrature node count any point
    needed (diagnostics only).
    """

    spec: ResonanceSpec
    lin: LinearizedTorque
    quad_tolerance: float = DEFAULT_QUAD_TOL
    max_nodes_used: int = field(default=0, init=False)

    def _integrals(self, pts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        if not np.isfinite(pts).all():
            raise DomainError(OVERFLOW_MESSAGE)
        mode, a1, a2 = self.spec.mode, pts[:, 0:1], pts[:, 1:2]
        omega, nutation = mode.omega, mode is Mode.NUTATION_T1
        w1 = mode.kappa / (2.0 * self.spec.p * math.pi)
        w2 = mode.kappa * omega / (2.0 * self.spec.p * math.pi)

        def integrand(t: np.ndarray, idx: np.ndarray) -> np.ndarray:
            c, s = np.cos(omega * t), np.sin(omega * t)
            x = a1[idx] * c + (a2[idx] / omega) * s
            v = a2[idx] * c - omega * a1[idx] * s
            # the inactive rate is the scalar 0.0: the generated numpy code
            # gives a scalar the bits of an array lane, so the field is that
            # of a zeros array
            core = x * (self.lin.f1(t, v, 0.0) if nutation else self.lin.f4(t, 0.0, v))
            return np.stack([w1 * s * core, w2 * c * core], axis=1)

        return _quadrature_rows(integrand, self.spec.window, self.quad_tolerance, len(pts))

    def polynomial(self, degrees: FrozenSet[int]) -> Optional[Polynomial]:
        """This field as a Polynomial of degrees d + 1, for the ``degrees`` d of
        the active coefficient (f1 on T1, f4 on T2) in the active rate: fitted
        to the quadrature at the even ones of 4 points per monomial on a
        golden-angle spiral over the unit disk, and checked at the odd ones
        within ``quad_tolerance * max(1, |F|)``.  None, counting no nodes,
        where the fit misses or raises."""
        try:  # the quadrature field reports any failure at its own points
            exponents = [(i, d + 1 - i) for d in sorted(degrees) for i in range(d + 2)]
            k = np.arange(4 * len(exponents))
            radius, angle = np.sqrt((k + 0.5) / k.size), k * (math.pi * (3.0 - math.sqrt(5.0)))
            pts = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
            values, nodes = self._integrals(pts)
            basis = Polynomial(exponents, np.eye(len(exponents))).rows(pts[0::2])
            fit = Polynomial(exponents, np.linalg.lstsq(basis, values[0::2], rcond=None)[0])
        except Exception:
            return None
        error = np.abs(fit.rows(pts[1::2]) - values[1::2])
        if not np.all(error <= self.quad_tolerance * np.maximum(1.0, np.abs(values[1::2]))):
            return None
        self.max_nodes_used = max(self.max_nodes_used, int(nodes.max()))
        return fit

    def evaluate(self, alpha) -> np.ndarray:
        pts, single = _plane_points(alpha)
        if not len(pts):
            return np.empty((0, 2))
        try:
            out, nodes = self._integrals(pts)
        except NoConvergenceError as exc:  # the points that stopped count
            self.max_nodes_used = max(self.max_nodes_used, int(exc.nodes.max()))
            raise
        self.max_nodes_used = max(self.max_nodes_used, int(nodes.max()))
        return out[0] if single else out

    def __call__(self, alpha) -> np.ndarray:
        return self.evaluate(alpha)


def linearized_perturbation(lin: LinearizedTorque) -> Callable[[float, Sequence[float]], np.ndarray]:
    """Perturbation vector field (0, F1, 0, F2) built from the coefficients.

    Works elementwise when the state components are arrays.
    """

    def g1(t, state):
        X, Y, Z, W = state
        return np.array(
            [
                np.zeros_like(X),
                lin.f1(t, Y, W) * X + lin.f2(t, Y, W) * Z,
                np.zeros_like(Z),
                lin.f3(t, Y, W) * X + lin.f4(t, Y, W) * Z,
            ]
        )

    return g1


def malkin_average(
    g1: Callable[[np.ndarray, Sequence[np.ndarray]], np.ndarray],
    spec: ResonanceSpec,
    alpha: Sequence[float],
) -> np.ndarray:
    """Generic averaging functional at a single plane point.

    Averages M(t)^-1 @ g1(t, x(t)) along the exact unperturbed orbit through
    ``alpha`` over the window p*T_mode, projects onto the active plane and
    scales by diag(-kappa, kappa).  ``g1`` maps (times, (X, Y, Z, W)
    arrays) to a (4, n) array.  Raises DegenerateMonodromyError when the
    non-averaged block of the monodromy gap is singular (the theorem's
    hypothesis).
    """
    monodromy_gap(spec)  # raises if degenerate
    mode = spec.mode
    k = mode.slot
    T = spec.window

    def integrand(t: np.ndarray, _) -> np.ndarray:
        g = np.asarray(g1(t, closed_form_solution(alpha, mode, t)), dtype=float)
        # the active rows of M(-t) @ g
        m00, m01, m10, m11 = plane_flow(mode.omega, -t)
        return np.stack([m00 * g[k] + m01 * g[k + 1], m10 * g[k] + m11 * g[k + 1]])[None]

    (values,), _ = _quadrature_rows(integrand, T, DEFAULT_QUAD_TOL, 1)
    return np.array([-mode.kappa * values[0] / T, mode.kappa * values[1] / T])
