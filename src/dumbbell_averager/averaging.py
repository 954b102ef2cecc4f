"""Averaged bifurcation functions over the two resonant planes.

Two independent computational routes produce the same 2-vector field over
plane initial conditions:

* ``averaged_field`` evaluates the specialized closed-form integrals, which
  for the T1 plane weight the nutation coefficient f1 along the exact
  unperturbed orbit and for the T2 plane weight f4, with the complementary
  rate argument held at zero;
* ``malkin_average`` evaluates the generic functional: average the inverse
  fundamental matrix applied to the perturbation vector field along the
  unperturbed orbit, then project onto the active plane.

Both reduce periodic integrands to one node-doubling trapezoid rule
(``periodic_quadrature`` is its scalar form), which converges spectrally
for smooth periodic functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Tuple

import numpy as np

from .dynamics import SQRT3, Mode, ResonanceSpec, monodromy_gap
from .errors import NoConvergenceError
from .torques import LinearizedTorque

#: node-doubling starts here ...
QUAD_START_NODES = 16
#: ... and gives up beyond this.
QUAD_MAX_NODES = 2**20

DEFAULT_QUAD_TOL = 1e-12


def periodic_quadrature(f: Callable[[np.ndarray], np.ndarray], period: float, tol: float) -> float:
    """Integrate a smooth period-periodic callable over one period.

    Composite trapezoid with node doubling from N=16; for a periodic
    integrand the endpoint weights merge, so the rule is a plain mean of
    uniformly spaced samples times the period.  Stops once successive
    estimates differ by less than tol*max(1, |estimate|), raises
    NoConvergenceError past N=2**20.  ``f`` must accept a numpy array of
    sample times and return the sampled values.
    """
    if period <= 0.0:
        raise ValueError("period must be positive")
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    values, _ = _quadrature_rows(f, period, tol, 1)
    return float(values[0])


def _quadrature_rows(
    f: Callable[[np.ndarray], np.ndarray],
    period: float,
    tol: float,
    rows: int,
) -> Tuple[np.ndarray, int]:
    """Node doubling for ``rows`` integrals at once: ``f`` maps times (n,)
    to values (rows, n).  Returns (integrals, nodes_used); the stop rule of
    ``periodic_quadrature`` applies to every row.
    """
    n = QUAD_START_NODES
    nodes = np.arange(n) * (period / n)
    total = np.sum(np.asarray(f(nodes), dtype=float).reshape(rows, -1), axis=1)
    estimate = total * (period / n)
    while n <= QUAD_MAX_NODES // 2:
        new_nodes = (np.arange(n) + 0.5) * (period / n)
        total = total + np.sum(np.asarray(f(new_nodes), dtype=float).reshape(rows, -1), axis=1)
        n *= 2
        refined = total * (period / n)
        scale = np.maximum(1.0, np.abs(refined))
        if np.all(np.abs(refined - estimate) < tol * scale):
            return refined, n
        estimate = refined
    raise NoConvergenceError(
        f"trapezoid rule still moving by more than {tol:g} at N={n} nodes"
    )


@dataclass
class AveragedField:
    """Averaged bifurcation field over plane initial conditions.

    ``evaluate`` accepts a single (2,) point or a batch (m, 2) and returns
    matching shape.  ``max_nodes_used`` records the largest quadrature node
    count any evaluation needed (diagnostics only).
    """

    spec: ResonanceSpec
    lin: LinearizedTorque
    quad_tolerance: float = DEFAULT_QUAD_TOL
    max_nodes_used: int = field(default=0, init=False)

    def evaluate(self, alpha) -> np.ndarray:
        a = np.asarray(alpha, dtype=float)
        single = a.ndim == 1
        pts = np.atleast_2d(a)
        if pts.shape[1] != 2:
            raise ValueError(f"alpha must have 2 components, got shape {a.shape}")
        T = self.spec.window
        m = pts.shape[0]
        a1 = pts[:, 0:1]
        a2 = pts[:, 1:2]

        if self.spec.mode is Mode.NUTATION_T1:
            w1 = 1.0 / (2.0 * self.spec.p * math.pi)
            w2 = SQRT3 / (2.0 * self.spec.p * math.pi)

            def integrand(t: np.ndarray) -> np.ndarray:
                c = np.cos(SQRT3 * t)
                s = np.sin(SQRT3 * t)
                d1 = a1 * c + (a2 / SQRT3) * s
                d2 = a2 * c - SQRT3 * a1 * s
                core = d1 * self.lin.f1(t, d2, np.zeros_like(d2))
                return np.concatenate([w1 * s * core, w2 * c * core], axis=0)

        else:
            w1 = 1.0 / (self.spec.p * math.pi)
            w2 = 2.0 / (self.spec.p * math.pi)

            def integrand(t: np.ndarray) -> np.ndarray:
                c = np.cos(2.0 * t)
                s = np.sin(2.0 * t)
                d3 = a1 * c + (a2 / 2.0) * s
                d4 = a2 * c - 2.0 * a1 * s
                core = d3 * self.lin.f4(t, np.zeros_like(d4), d4)
                return np.concatenate([w1 * s * core, w2 * c * core], axis=0)

        values, nodes = _quadrature_rows(integrand, T, self.quad_tolerance, 2 * m)
        self.max_nodes_used = max(self.max_nodes_used, nodes)
        out = np.column_stack([values[:m], values[m:]])
        return out[0] if single else out

    def __call__(self, alpha) -> np.ndarray:
        return self.evaluate(alpha)


def averaged_field(
    spec: ResonanceSpec,
    lin: LinearizedTorque,
    quad_tolerance: float = DEFAULT_QUAD_TOL,
) -> AveragedField:
    """Build the specialized averaged field for the given resonance plane."""
    return AveragedField(spec=spec, lin=lin, quad_tolerance=quad_tolerance)


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


# Constant right factor applied to the fundamental matrix in the generic
# route so that the projected average lands in the same normalization as the
# specialized closed forms (the hypotheses of the averaging theorem are
# invariant under any constant block factor).
_MALKIN_SCALE = {
    Mode.NUTATION_T1: (-1.0, 1.0),
    Mode.PRECESSION_T2: (-2.0, 2.0),
}


def malkin_average(
    g1: Callable[[np.ndarray, Sequence[np.ndarray]], np.ndarray],
    spec: ResonanceSpec,
    alpha: Sequence[float],
    quad_tolerance: float = DEFAULT_QUAD_TOL,
) -> np.ndarray:
    """Generic averaging functional at a single plane point.

    Averages M(t)^-1 @ g1(t, x(t)) along the exact unperturbed orbit through
    ``alpha`` over the window p*T_mode and projects onto the active plane.
    ``g1`` maps (times, (X, Y, Z, W) arrays) to a (4, n) array.  Raises
    DegenerateMonodromyError when the non-averaged block of the monodromy
    gap is singular (the theorem's hypothesis).
    """
    monodromy_gap(spec)  # raises if degenerate
    a1, a2 = float(alpha[0]), float(alpha[1])
    T = spec.window
    mode = spec.mode
    k1, k2 = _MALKIN_SCALE[mode]

    def integrand(t: np.ndarray) -> np.ndarray:
        c1 = np.cos(SQRT3 * t)
        s1 = np.sin(SQRT3 * t)
        c2 = np.cos(2.0 * t)
        s2 = np.sin(2.0 * t)
        zeros = np.zeros_like(t)
        if mode is Mode.NUTATION_T1:
            X = a1 * c1 + (a2 / SQRT3) * s1
            Y = a2 * c1 - SQRT3 * a1 * s1
            Z = W = zeros
        else:
            Z = a1 * c2 + (a2 / 2.0) * s2
            W = a2 * c2 - 2.0 * a1 * s2
            X = Y = zeros
        g = np.asarray(g1(t, (X, Y, Z, W)), dtype=float)
        # rows of M(-t) @ g, keeping only the active plane
        if mode is Mode.NUTATION_T1:
            row1 = c1 * g[0] - (s1 / SQRT3) * g[1]
            row2 = SQRT3 * s1 * g[0] + c1 * g[1]
        else:
            row1 = c2 * g[2] - (s2 / 2.0) * g[3]
            row2 = 2.0 * s2 * g[2] + c2 * g[3]
        return np.stack([row1, row2])

    values, _ = _quadrature_rows(integrand, T, quad_tolerance, 2)
    return np.array([k1 * values[0] / T, k2 * values[1] / T])
