"""Averaged bifurcation fields and their certified simple zeros.

Each bundled case carries two fields over the resonant plane: the
pipeline field computed by quadrature from the torque text, and a
closed-form reference polynomial field.  For both bundled cases the two
disagree; this script prints both zero sets side by side, which is the
interesting part of the story (script 04 lets shooting arbitrate).
"""

import numpy as np

import dumbbell_averager as da

domain = da.ZeroSearchDomain(r1=0.05, r2=5.0)

for name in ("corollary1", "corollary2"):
    case = da.BUNDLED_CASES[name]
    print(f"== {name} ({case.spec.mode.value} plane) ==")
    lin = da.extract_linearized(
        da.parse_torque(case.f1star_text), da.parse_torque(case.f2star_text)
    )
    field = da.AveragedField(case.spec, lin)

    print("  field values along a ray:")
    for r in (0.5, 1.0, 1.5):
        a = np.array([r, 0.3 * r])
        pipe = field.evaluate(a)
        ref = case.reference_field(a)
        print(f"    alpha=({a[0]:4.2f},{a[1]:4.2f})  pipeline=({pipe[0]:+.6f},{pipe[1]:+.6f})"
              f"  reference=({ref[0]:+.6f},{ref[1]:+.6f})")

    print("  generic-route cross-check at one point:")
    g1 = da.linearized_perturbation(lin)
    a = np.array([0.7, -0.2])
    print(f"    specialized {field.evaluate(a)}  vs  averaged fundamental-matrix "
          f"route {da.malkin_average(g1, case.spec, a)}")

    for label, fld in (("pipeline", field.evaluate), ("reference", case.reference_field)):
        zeros = da.multistart_zeros(fld, domain)
        groups = da.group_orbit_classes(zeros)
        print(f"  {label} zeros: {len(zeros)} in {len(groups)} orbit class(es); "
              f"search {zeros.verdict}")
        for z in zeros:
            print(f"    ({z.location[0]:+.9f}, {z.location[1]:+.9f})  "
                  f"det={z.jacobian_det:+.6e}  {z.classification}")
    print()

print("the two fields of a case agree only on part of their zero sets;")
print("run 04_orbit_verification.py (or `dumbbell-averager reproduce <case>`)")
print("to see which zeros continue to actual periodic orbits")
