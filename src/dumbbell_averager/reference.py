"""Bundled torque configurations and their closed-form reference fields.

Two ready-made perturbation cases ship with the package, one per resonant
plane.  Each carries the torque text plus a closed-form polynomial
"reference field": the documented averaged field for that torque pair.
The pipeline (extract coefficients, then quadrature) produces its own field
from the same torque text; for both bundled cases the two fields disagree,
which is deliberate - ``reproduce`` evaluates both zero sets side by side
and leaves the verdict to direct shooting on the full equations of motion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from .dynamics import Mode, ResonanceSpec
from .torques import SQRT3


def _case1_reference(alpha: np.ndarray) -> np.ndarray:
    """Reference polynomials on the nutation plane: unique zero (sqrt3/3, 0)."""
    a = np.asarray(alpha, dtype=float)
    x, y = a[..., 0], a[..., 1]
    f1 = y * (3.0 * x**2 + y**2) / 48.0
    f2 = (3.0 * (SQRT3 - 3.0 * x) * x**2 - (SQRT3 + 3.0 * x) * y**2) / 24.0
    return np.stack([f1, f2], axis=-1)


def _case2_reference(alpha: np.ndarray) -> np.ndarray:
    """Reference polynomials on the precession plane: four zeros, three orbits."""
    a = np.asarray(alpha, dtype=float)
    z, w = a[..., 0], a[..., 1]
    g1 = (z - 1.0) * w / 8.0
    g2 = (4.0 * z * (2.0 + z - 2.0 * z**2) - w**2 * (1.0 + 2.0 * z)) / 32.0
    return np.stack([g1, g2], axis=-1)


@dataclass(frozen=True)
class BundledCase:
    """A named torque pair with its resonance spec and reference field."""

    f1star_text: str
    f2star_text: str
    spec: ResonanceSpec
    reference_field: Callable[[np.ndarray], np.ndarray]


BUNDLED_CASES: Dict[str, BundledCase] = {
    "corollary1": BundledCase(
        f1star_text="sin(theta)*theta_dot^4 + sin(phi)*sin(theta)*(1 - phi_dot^2)",
        f2star_text=(
            "cos(theta) - sin(sqrt3*t)*sin(theta)*theta_dot"
            " - sin(theta)*theta_dot^2 - cos(phi)*(1 - phi_dot^2)"
        ),
        spec=ResonanceSpec(mode=Mode.NUTATION_T1, p=1, q=1),
        reference_field=_case1_reference,
    ),
    "corollary2": BundledCase(
        f1star_text=(
            "sin(phi)*sin(theta)*phi_dot + sin(phi)"
            " + sin(2*t)*sin(phi)*(1 - phi_dot)*phi_dot"
        ),
        f2star_text="sin(phi) - sin(2*t)*sin(phi)*phi_dot - sin(phi)*phi_dot^2",
        spec=ResonanceSpec(mode=Mode.PRECESSION_T2, p=1, q=1),
        reference_field=_case2_reference,
    ),
}
