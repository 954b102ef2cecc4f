"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they print.
"""

import math
import random
import time

import numpy as np
import pytest

import dumbbell_averager as da
import dumbbell_averager.cli as cli
from dumbbell_averager.cli import load_config

SQRT3 = math.sqrt(3.0)
S17 = math.sqrt(17.0)

REF1 = da.BUNDLED_CASES["corollary1"].reference_field
REF2 = da.BUNDLED_CASES["corollary2"].reference_field


def bundled(name):
    case = da.BUNDLED_CASES[name]
    return case, da.parse_torque(case.f1star_text), da.parse_torque(case.f2star_text)


def report(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_1_reference_case1_zero():
    t0 = time.perf_counter()
    zeros = da.multistart_zeros(REF1, da.ZeroSearchDomain())
    elapsed = time.perf_counter() - t0
    ok = (
        len(zeros) == 1
        and zeros[0].classification == "Simple"
        and abs(zeros[0].location[0] - SQRT3 / 3) < 1e-9
        and abs(zeros[0].location[1]) < 1e-9
        and abs(zeros[0].jacobian_det - 1.0 / 384.0) < 1e-9
        and elapsed < 1.0
    )
    assert report(
        1,
        ok,
        f"{len(zeros)} zero(s); location error "
        f"{abs(zeros[0].location[0] - SQRT3 / 3):.1e}, det error "
        f"{abs(zeros[0].jacobian_det - 1 / 384):.1e}, runtime {elapsed:.2f}s",
    )


def test_criterion_2_reference_case2_zeros():
    t0 = time.perf_counter()
    zeros = da.multistart_zeros(REF2, da.ZeroSearchDomain())
    groups = da.group_orbit_classes(zeros)
    elapsed = time.perf_counter() - t0

    expected = [
        ((1.0, 2 * SQRT3 / 3), 1.0 / 32.0),
        ((1.0, -2 * SQRT3 / 3), 1.0 / 32.0),
        (((1 - S17) / 4, 0.0), (7 * S17 + 17) / 512),
        (((1 + S17) / 4, 0.0), (7 * S17 - 17) / 512),
    ]
    ok = len(zeros) == 4 and len(groups) == 3 and elapsed < 2.0
    matched = 0
    for (ex, ey), det_mag in expected:
        for z in zeros:
            if abs(z.location[0] - ex) < 1e-9 and abs(z.location[1] - ey) < 1e-9:
                if abs(abs(z.jacobian_det) - det_mag) < 1e-9:
                    matched += 1
                break
    ok = ok and matched == 4
    assert report(
        2,
        ok,
        f"{len(zeros)} zeros in {len(groups)} orbit classes, "
        f"{matched}/4 matched with |det| at 1e-9, runtime {elapsed:.2f}s",
    )


def test_criterion_3_monodromy_gap():
    t0 = time.perf_counter()
    worst_inactive = 0.0
    worst_det = 0.0
    for p in (1, 2, 3):
        gap, det = da.monodromy_gap(da.ResonanceSpec(da.Mode.NUTATION_T1, p=p))
        worst_inactive = max(worst_inactive, float(np.abs(gap[:2, :2]).max()))
        closed = 4 * math.sin(2 * SQRT3 * p * math.pi / 3) ** 2
        worst_det = max(worst_det, abs(det - closed))
    elapsed = time.perf_counter() - t0
    ok = worst_inactive < 1e-12 and worst_det < 1e-10 and elapsed < 0.1
    assert report(
        3,
        ok,
        f"inactive block max {worst_inactive:.1e}, det error {worst_det:.1e}, "
        f"runtime {elapsed:.3f}s",
    )


def test_criterion_4_averaging_oracle_suite():
    t0 = time.perf_counter()
    zero = lambda t, v1, v2: np.zeros(np.broadcast(t, v1, v2).shape)
    ones = lambda t, v1, v2: np.ones(np.broadcast(t, v1, v2).shape)
    t1 = da.ResonanceSpec(da.Mode.NUTATION_T1, 1, 1)
    t2 = da.ResonanceSpec(da.Mode.PRECESSION_T2, 1, 1)
    suites = [
        (t1, dict(f1=ones), lambda x, y: (y / 6, x / 2)),
        (
            t1,
            dict(f1=lambda t, v1, v2: v1**2),
            lambda x, y: (y * (3 * x**2 + y**2) / 24, x * (3 * x**2 + y**2) / 8),
        ),
        (
            t1,
            dict(f1=lambda t, v1, v2: np.sin(SQRT3 * t) * v1),
            lambda x, y: (-SQRT3 * x * y / 12, SQRT3 * (y**2 - 3 * x**2) / 24),
        ),
        (t2, dict(f4=ones), lambda z, w: (w / 4, z)),
        (
            t2,
            dict(f4=lambda t, v1, v2: v2**2),
            lambda z, w: (w * (4 * z**2 + w**2) / 16, z * (4 * z**2 + w**2) / 4),
        ),
    ]
    rng = np.random.default_rng(1234)
    worst_closed = 0.0
    worst_route = 0.0
    for spec, coeffs, closed in suites:
        lin = da.LinearizedTorque(
            f1=coeffs.get("f1", zero), f2=zero, f3=zero, f4=coeffs.get("f4", zero)
        )
        fld = da.AveragedField(spec, lin)
        g1 = da.linearized_perturbation(lin)
        for _ in range(25):
            a = rng.uniform(-2.0, 2.0, 2)
            got = fld.evaluate(a)
            worst_closed = max(worst_closed, float(np.abs(got - closed(*a)).max()))
            via_malkin = da.malkin_average(g1, spec, a)
            worst_route = max(worst_route, float(np.abs(via_malkin - got).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_closed < 1e-10 and worst_route < 1e-9 and elapsed < 5.0
    assert report(
        4,
        ok,
        f"closed-form error {worst_closed:.1e}, route mismatch {worst_route:.1e}, "
        f"runtime {elapsed:.2f}s",
    )


def test_criterion_5_full_system_verification():
    # The averaged predictions are promised for a system whose unperturbed
    # flow has a manifold of period-T orbits: the angle-linearized one.  The
    # period map of the full equations is continuous in (eps, z), so a
    # full-system family can approach a prediction z* as eps -> 0 only if
    # P_0(z*) = z*.  The check therefore measures that gap on the full
    # equations, demands that full-system shooting name what it finds there,
    # and demands first-order approach on the linearized equations.
    t0 = time.perf_counter()
    case, f1, f2 = bundled("corollary2")
    lin = da.extract_linearized(f1, f2)
    fld = da.AveragedField(case.spec, lin)
    zeros = da.multistart_zeros(fld.evaluate, da.ZeroSearchDomain())
    groups = [g for g in da.group_orbit_classes(zeros) if g[0].is_simple]
    assert groups, "pipeline found no simple orbit classes to verify"

    ladder = [1e-2, 1e-3, 1e-4]
    full, linearized = da.full_system(f1, f2), da.linearized_system(lin)
    # named full-system outcome per simple orbit class, by its alpha_1
    expected_full = {(1 + S17) / 4: "FAILED-AT(0.01)", (1 - S17) / 4: "COLLAPSED-TO-EQUILIBRIUM"}
    details = []
    ok = True
    for group in groups:
        zero = group[0]
        where = f"class@({zero.location[0]:.4f},{zero.location[1]:.4f})"
        z_star = np.array(da.plane_embed(zero.location, case.spec.mode))
        end = da.integrate(full(0.0), z_star, 0.0, case.spec.window)
        gap = float(np.linalg.norm(end - z_star))
        assert gap >= 0.1, (
            f"{where}: the unperturbed full equations nearly return the "
            f"prediction to itself (||P_0(z*) - z*|| = {gap:.3e}), so a "
            "full-system orbit family may approach it: the original demand "
            "applies again, a full-system PASS at first order"
        )

        full_rep = da.epsilon_continuation(full, zero.location, case.spec, ladder)
        want = [
            status
            for x, status in expected_full.items()
            if abs(zero.location[0] - x) < 1e-6 and abs(zero.location[1]) < 1e-6
        ]
        named = (
            not full_rep.passed
            and want == [full_rep.status]
            and (
                full_rep.status == "COLLAPSED-TO-EQUILIBRIUM"
                or "Newton diverged" in (full_rep.failure or "")
            )
        )

        lin_rep = da.epsilon_continuation(linearized, zero.location, case.spec, ladder)
        converged = len(lin_rep.certificates) == 3 and all(
            c.displacement_norm < 1e-10 for c in lin_rep.certificates
        )
        order_ok = (
            math.isfinite(lin_rep.empirical_order)
            and 0.5 <= lin_rep.empirical_order <= 1.5
        )
        monotone = all(a > b for a, b in zip(lin_rep.distances, lin_rep.distances[1:]))
        ok = ok and named and converged and order_ok and monotone
        details.append(
            f"{where}: eps=0 gap {gap:.3f}; full status={full_rep.status}"
            + (f" [{full_rep.failure}]" if full_rep.failure else "")
            + f"; linearized distances={['%.3e' % d for d in lin_rep.distances]} "
            f"order={lin_rep.empirical_order:.3f}"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    assert report(
        5,
        ok,
        f"full vs linearized system, {len(groups)} orbit class(es); "
        + "; ".join(details)
        + f"; runtime {elapsed:.1f}s",
    ), (
        "full-system shooting must name its outcome (collapse onto the "
        "equilibrium, or Newton divergence) and never pass, while the same "
        "ladders on the angle-linearized system must converge at first order"
    )


def test_criterion_6_unperturbed_ground_truth():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst_state = 0.0
    worst_drift = 0.0
    for mode in (da.Mode.NUTATION_T1, da.Mode.PRECESSION_T2):
        horizon = 10 * mode.base_period
        for _ in range(20):
            # unit-scale plane initial conditions
            r = rng.uniform(0.2, 1.0)
            ang = rng.uniform(0.0, 2 * math.pi)
            alpha = (r * math.cos(ang), r * math.sin(ang))
            s0 = da.plane_embed(alpha, mode)
            end = da.integrate(da.unperturbed_rhs, s0, 0.0, horizon, tol=1e-11)
            exact = np.array(
                [float(np.atleast_1d(c)[0]) for c in da.closed_form_solution(alpha, mode, horizon)]
            )
            worst_state = max(worst_state, float(np.abs(end - exact).max()))
            if mode is da.Mode.NUTATION_T1:
                c_end = 3 * end[0] ** 2 + end[1] ** 2
                c_start = 3 * s0[0] ** 2 + s0[1] ** 2
            else:
                c_end = 4 * end[2] ** 2 + end[3] ** 2
                c_start = 4 * s0[2] ** 2 + s0[3] ** 2
            worst_drift = max(worst_drift, abs(c_end - c_start))
    elapsed = time.perf_counter() - t0
    ok = worst_state < 1e-9 and worst_drift < 1e-9 and elapsed < 10.0
    assert report(
        6,
        ok,
        f"state error {worst_state:.1e}, conserved drift {worst_drift:.1e} "
        f"over 10 periods x 40 orbits, runtime {elapsed:.1f}s",
    )


def test_criterion_7_dsl_contract():
    from test_torques import random_expression

    t0 = time.perf_counter()
    rng = random.Random(424242)
    round_trips = 0
    for _ in range(500):
        tree = random_expression(rng, rng.randrange(1, 7))
        expr = da.TorqueExpression(tree)
        if da.parse_torque(expr.pretty()).root == tree:
            round_trips += 1

    nrng = np.random.default_rng(31337)
    texts = [
        "sin(theta)*cos(phi) + t*theta_dot - phi_dot^3",
        "cos(sqrt3*t)*theta + phi*theta_dot^2",
        "sin(phi)*phi_dot/(2 + cos(t))",
        "theta^2 - phi^4 + sin(2*t)*theta_dot",
    ]
    h = 1e-6
    fd_ok = 0
    fd_total = 0
    for text in texts:
        expr = da.parse_torque(text)
        for _ in range(25):
            b = nrng.uniform(-1.2, 1.2, 5)
            idx = int(nrng.integers(0, 5))
            seed = ("t", "theta", "theta_dot", "phi", "phi_dot")[idx]
            _, deriv = da.eval_dual(expr, tuple(b), seed)
            bp, bm = b.copy(), b.copy()
            bp[idx] += h
            bm[idx] -= h
            fd = (expr.evaluate(*bp) - expr.evaluate(*bm)) / (2 * h)
            fd_total += 1
            if abs(deriv - fd) <= 1e-6 * max(1.0, abs(deriv)):
                fd_ok += 1

    case1, f11, f12 = bundled("corollary1")
    case2, f21, f22 = bundled("corollary2")
    lin1 = da.extract_linearized(f11, f12)
    lin2 = da.extract_linearized(f21, f22)
    worst_extract = 0.0
    for _ in range(50):
        t, v1, v2 = nrng.uniform(-2, 2, 3)
        worst_extract = max(worst_extract, abs(lin1.f1(t, v1, v2) - v1**4))
        worst_extract = max(
            worst_extract,
            abs(lin2.f4(t, v1, v2) - (1 - math.sin(2 * t) * v2 - v2**2)),
        )
    elapsed = time.perf_counter() - t0
    ok = (
        round_trips == 500
        and fd_ok == fd_total == 100
        and worst_extract < 1e-14
        and elapsed < 5.0
    )
    assert report(
        7,
        ok,
        f"round-trips {round_trips}/500, derivative checks {fd_ok}/{fd_total}, "
        f"extraction error {worst_extract:.1e}, runtime {elapsed:.1f}s",
    )


def test_criterion_8_reproduce_comparison(tmp_path):
    for name in ("corollary1", "corollary2"):
        with cli.resources.as_file(cli.bundled_config_path(name)) as p:
            config = load_config(p)
        out = tmp_path / name
        assert cli.cmd_reproduce(config, name, out) == 0
        assert (out / "comparison.txt").exists()
        assert (out / "zeros_pipeline.csv").exists()

    def read_zeros(path):
        rows = []
        for line in path.read_text().splitlines():
            if line.startswith(("#", "alpha")):
                continue
            a1, a2, _, det, cls, _ = line.split(",")
            rows.append((float(a1), float(a2), float(det), cls))
        return rows

    ref1 = read_zeros(tmp_path / "corollary1" / "zeros_reference.csv")
    ok1 = (
        len(ref1) == 1
        and abs(ref1[0][0] - SQRT3 / 3) < 1e-9
        and abs(ref1[0][1]) < 1e-9
        and abs(ref1[0][2] - 1 / 384) < 1e-9
        and ref1[0][3] == "Simple"
    )
    ref2 = read_zeros(tmp_path / "corollary2" / "zeros_reference.csv")
    mags = sorted(abs(det) for _, _, det, _ in ref2)
    expect = sorted([1 / 32, 1 / 32, (7 * S17 - 17) / 512, (7 * S17 + 17) / 512])
    ok2 = len(ref2) == 4 and all(abs(a - b) < 1e-9 for a, b in zip(mags, expect))
    comparison = (tmp_path / "corollary2" / "comparison.txt").read_text()
    ok = ok1 and ok2 and "pipeline" in comparison and "reference" in comparison
    assert report(
        8,
        ok,
        f"comparison tables written for both cases; reference side: "
        f"case1 {'ok' if ok1 else 'MISMATCH'}, case2 {'ok' if ok2 else 'MISMATCH'}",
    )
