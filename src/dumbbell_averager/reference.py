"""Bundled torque configurations and their closed-form reference fields.

Two ready-made perturbation cases ship with the package, one per resonant
plane.  Each carries the torque text plus a closed-form polynomial
"reference field": the documented averaged field for that torque pair,
written out as ``averaging.Polynomial`` terms, the type the pipeline's
recovered fields share, so the zero search proves both zero sets by the
same subdivision.  The pipeline (extract coefficients, then quadrature)
produces its own field from the same torque text; for both bundled cases
the two fields disagree, which is deliberate - ``reproduce`` evaluates both
zero sets side by side and leaves the verdict to direct shooting on the
full equations of motion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .averaging import Polynomial
from .dynamics import Mode, ResonanceSpec
from .torques import SQRT3

#: nutation plane: (y(3x^2 + y^2)/48, (3(sqrt3 - 3x)x^2 - (sqrt3 + 3x)y^2)/24),
#: unique zero (sqrt3/3, 0)
_CASE1_REFERENCE = Polynomial(
    [(2, 1), (0, 3), (2, 0), (3, 0), (0, 2), (1, 2)],
    [[1 / 16, 0.0], [1 / 48, 0.0], [0.0, SQRT3 / 8], [0.0, -3 / 8], [0.0, -SQRT3 / 24], [0.0, -1 / 8]],
)
#: precession plane: ((z - 1)w/8, (4z(2 + z - 2z^2) - w^2(1 + 2z))/32),
#: four zeros, three orbits
_CASE2_REFERENCE = Polynomial(
    [(1, 1), (0, 1), (1, 0), (2, 0), (3, 0), (0, 2), (1, 2)],
    [[1 / 8, 0.0], [-1 / 8, 0.0], [0.0, 1 / 4], [0.0, 1 / 8], [0.0, -1 / 4], [0.0, -1 / 32],
     [0.0, -1 / 16]],
)


@dataclass(frozen=True)
class BundledCase:
    """A named torque pair with its resonance spec and reference field."""

    f1star_text: str
    f2star_text: str
    spec: ResonanceSpec
    reference_field: Polynomial


BUNDLED_CASES: Dict[str, BundledCase] = {
    "corollary1": BundledCase(
        f1star_text="sin(theta)*theta_dot^4 + sin(phi)*sin(theta)*(1 - phi_dot^2)",
        f2star_text=(
            "cos(theta) - sin(sqrt3*t)*sin(theta)*theta_dot"
            " - sin(theta)*theta_dot^2 - cos(phi)*(1 - phi_dot^2)"
        ),
        spec=ResonanceSpec(mode=Mode.NUTATION_T1, p=1, q=1),
        reference_field=_CASE1_REFERENCE,
    ),
    "corollary2": BundledCase(
        f1star_text=(
            "sin(phi)*sin(theta)*phi_dot + sin(phi)"
            " + sin(2*t)*sin(phi)*(1 - phi_dot)*phi_dot"
        ),
        f2star_text="sin(phi) - sin(2*t)*sin(phi)*phi_dot - sin(phi)*phi_dot^2",
        spec=ResonanceSpec(mode=Mode.PRECESSION_T2, p=1, q=1),
        reference_field=_CASE2_REFERENCE,
    ),
}
