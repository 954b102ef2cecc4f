"""Tour of the unperturbed dynamics layer.

The attitude state is (theta, theta_dot, phi, phi_dot).  Linearized about
the upright equilibrium the two angles decouple into oscillators with
frequencies sqrt(3) and 2, so the phase space carries two planes of
periodic orbits with periods T1 = 2*pi/sqrt(3) and T2 = pi.  This script
walks through the closed-form orbits, their conserved quadratics, the
fundamental matrix, and the monodromy gap whose active block determinant
feeds the averaging machinery.
"""

import numpy as np

import dumbbell_averager as da

np.set_printoptions(precision=6, suppress=True)

print(f"base periods: T1 = {da.T1:.6f}, T2 = {da.T2:.6f}")

print("\n-- closed-form orbit on the nutation plane --")
alpha = (0.8, -0.3)
ts = np.linspace(0.0, da.T1, 5)
x, y, _, _ = da.closed_form_solution(alpha, da.Mode.NUTATION_T1, ts)
for t, xv, yv in zip(ts, x, y):
    print(f"  t={t:8.4f}  X={xv:+.6f}  Y={yv:+.6f}  3X^2+Y^2={3 * xv**2 + yv**2:.12f}")
print("  (the quadratic 3X^2+Y^2 is constant along the orbit)")

print("\n-- integrator vs closed form over ten periods --")
s0 = da.plane_embed(alpha, da.Mode.NUTATION_T1)
end = da.integrate(da.unperturbed_rhs, s0, 0.0, 10 * da.T1, tol=1e-11)
exact = np.array([float(np.atleast_1d(c)[0]) for c in
                  da.closed_form_solution(alpha, da.Mode.NUTATION_T1, 10 * da.T1)])
print(f"  |numerical - exact| = {np.abs(end - exact).max():.2e}")

print("\n-- fundamental matrix --")
m = da.fundamental_matrix(0.7)
print(m)
print(f"  det = {np.linalg.det(m):.12f}")
print(f"  M(t)^-1 = M(-t) check: {np.abs(da.fundamental_matrix(-0.7) @ m - np.eye(4)).max():.2e}")

print("\n-- monodromy gap per resonance --")
for mode in (da.Mode.NUTATION_T1, da.Mode.PRECESSION_T2):
    for p in (1, 2, 3):
        spec = da.ResonanceSpec(mode, p=p)
        gap, det = da.monodromy_gap(spec)
        print(f"  {mode.value} p={p}: window {spec.window:8.4f}, active block det {det:.6f}")
print("  (a nonzero active determinant is what licenses the averaged field)")
