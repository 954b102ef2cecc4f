"""Shooting verification of the averaged predictions.

A simple zero of the averaged field predicts a periodic orbit with
initial condition near the zero-padded plane point.  The check is direct:
Newton-correct the prediction under the period map and march epsilon down
a ladder, watching the corrected orbit approach the prediction at first
order.  The twist for the bundled cases: the ladders pass on the
angle-linearized equations, while on the full nonlinear ones shooting
collapses onto the origin equilibrium or Newton diverges, because the
zeros sit at finite amplitude where the full system's oscillation periods
have drifted away from the resonant window.
"""

import math

import numpy as np

import dumbbell_averager as da

case = da.BUNDLED_CASES["corollary2"]
f1 = da.parse_torque(case.f1star_text)
f2 = da.parse_torque(case.f2star_text)
lin = da.extract_linearized(f1, f2)

zero = ((1.0 - math.sqrt(17.0)) / 4.0, 0.0)  # pipeline-field simple zero
eps_ladder = [1e-2, 1e-3, 1e-4]
print(f"prediction: plane point ({zero[0]:+.6f}, {zero[1]:+.6f}) on the "
      f"{case.spec.mode.value} plane, period {case.spec.window:.6f}")

print("\n-- single shot on the linearized system at eps = 1e-3 --")
rhs = da.linearized_system(lin)(1e-3)
guess = da.plane_embed(zero, case.spec.mode)
cert = da.shoot_periodic(rhs, guess, case.spec.window)
moved = np.linalg.norm(cert.corrected_ic.as_array() - np.array(guess))
print(f"  corrected IC : {np.round(cert.corrected_ic.as_array(), 8)}")
print(f"  displacement : {cert.displacement_norm:.2e} after {cert.newton_iters} Newton steps")
print(f"  moved by     : {moved:.3e} (order eps, as averaging predicts)")

print("\n-- epsilon ladder on the linearized system --")
rep = da.epsilon_continuation(da.linearized_system(lin), zero, case.spec, eps_ladder)
for eps, d in zip(rep.eps_list, rep.distances):
    print(f"  eps={eps:8.0e}  distance to prediction {d:.6e}")
print(f"  status {rep.status}, empirical order {rep.empirical_order:.3f}")

print("\n-- same ladder on the full nonlinear system --")
rep = da.epsilon_continuation(da.full_system(f1, f2), zero, case.spec, eps_ladder)
for eps, d in zip(rep.eps_list, rep.distances):
    print(f"  eps={eps:8.0e}  distance to prediction {d:.6e}")
if rep.certificates:
    last = rep.certificates[-1].corrected_ic.as_array()
    print(f"  final corrected IC {np.round(last, 8)}")
print(f"  status {rep.status}" + (f" ({rep.failure})" if rep.failure else ""))
if rep.status == "COLLAPSED-TO-EQUILIBRIUM":
    print("  (Newton walks to the origin equilibrium: at this amplitude the")
    print("   full system has no periodic orbit with the resonant period nearby)")
