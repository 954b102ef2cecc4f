"""Tour of the torque expression DSL.

Perturbation torques arrive as text over (t, theta, theta_dot, phi,
phi_dot).  Parsed trees evaluate on scalars or arrays, differentiate
exactly into derivative expressions (``TorqueExpression.partial``), and
linearize into the four coefficients f1..f4 that drive the averaged fields.
"""

import numpy as np

import dumbbell_averager as da

case = da.BUNDLED_CASES["corollary2"]
print("torque text:")
print(f"  F1* = {case.f1star_text}")
print(f"  F2* = {case.f2star_text}")

f1 = da.parse_torque(case.f1star_text)
f2 = da.parse_torque(case.f2star_text)
print("\nparsed and pretty-printed (round-trips to the same tree):")
print(f"  {f2.pretty()}")
assert da.parse_torque(f2.pretty()).root == f2.root

print("\nexact derivative (TorqueExpression.partial) vs central difference,"
      " d/dphi at a sample point:")
bindings = (0.9, 0.2, -0.4, 0.3, 1.1)
value, deriv = da.eval_dual(f2, bindings, seed="phi")
h = 1e-6
b_hi = list(bindings); b_hi[3] += h
b_lo = list(bindings); b_lo[3] -= h
fd = (f2.evaluate(*b_hi) - f2.evaluate(*b_lo)) / (2 * h)
print(f"  value {value:+.9f}, partial {deriv:+.9f}, finite difference {fd:+.9f}")

print("\nlinearized coefficients at zero angles:")
lin = da.extract_linearized(f1, f2)
for t in (0.0, 0.7):
    for v2 in (-1.0, 0.5):
        print(f"  f4(t={t}, v1=0, v2={v2:+.1f}) = {lin.f4(t, 0.0, v2):+.6f}"
              f"   [expect 1 - sin(2t)*v2 - v2^2 = {1 - np.sin(2*t)*v2 - v2**2:+.6f}]")

print("\nzero-angle residual check (the torques must vanish when both angles do):")
for name in ("corollary1", "corollary2"):
    c = da.BUNDLED_CASES[name]
    rep = da.validate_equilibrium(da.parse_torque(c.f1star_text), da.parse_torque(c.f2star_text))
    print(f"  {name}: {rep.status}, max residual {rep.max_residual:.3g}")
    if rep.status == "WARN":
        worst = max(rep.residuals, key=lambda r: r.max_residual)
        print(f"    worst offender {worst.name} at t={worst.at_t:.3f}, "
              f"v1={worst.at_v1:+.2f}, v2={worst.at_v2:+.2f}")
        print("    (the averaged field on the resonant plane is still well-defined;")
        print("     the residual lives off that plane)")
