"""Adaptive integration, periodic shooting, and epsilon continuation."""

import math

import numpy as np
import pytest

import dumbbell_averager as da
from dumbbell_averager import shooting

SQRT3 = math.sqrt(3.0)
S17 = math.sqrt(17.0)

ZERO_LIN = da.LinearizedTorque(*(lambda t, v1, v2: 0.0,) * 4)


def case_torques(name):
    case = da.BUNDLED_CASES[name]
    return da.parse_torque(case.f1star_text), da.parse_torque(case.f2star_text)


def closed_form_state(alpha, mode, t):
    return np.array([float(np.atleast_1d(c)[0]) for c in da.closed_form_solution(alpha, mode, t)])


class TestIntegrate:
    def test_t1_period_returns_home(self):
        end = da.integrate(da.unperturbed_rhs, (1.0, 0.0, 0.0, 0.0), 0.0, da.T1)
        assert np.abs(end - [1.0, 0.0, 0.0, 0.0]).max() < 1e-9

    def test_t2_period_returns_home(self):
        end = da.integrate(da.unperturbed_rhs, (0.0, 0.0, 1.0, 0.0), 0.0, da.T2)
        assert np.abs(end - [0.0, 0.0, 1.0, 0.0]).max() < 1e-9

    def test_against_closed_form_midperiod(self):
        end = da.integrate(da.unperturbed_rhs, (0.3, 0.1, 0.0, 0.0), 0.0, 0.7)
        exact = closed_form_state((0.3, 0.1), da.Mode.NUTATION_T1, 0.7)
        assert np.abs(end - exact).max() < 1e-9

    def test_tolerance_scaling(self):
        # refining tol by 1e4 moves the answer by no more than 10x the
        # coarser tol, and the refined return sits within 10x the finer tol
        # of the exact value
        s0 = (1.0, 0.0, 0.0, 0.0)
        exact = closed_form_state((1.0, 0.0), da.Mode.NUTATION_T1, da.T1)
        coarse = da.integrate(da.unperturbed_rhs, s0, 0.0, da.T1, tol=1e-7)
        fine = da.integrate(da.unperturbed_rhs, s0, 0.0, da.T1, tol=1e-11)
        assert np.abs(coarse - fine).max() < 10 * 1e-7
        assert np.abs(fine - exact).max() < 10 * 1e-11

    def test_conserved_quantities_over_ten_periods(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            a = rng.uniform(-1.0, 1.0, 2)
            end = da.integrate(
                da.unperturbed_rhs, (a[0], a[1], 0.0, 0.0), 0.0, 10 * da.T1, tol=1e-11
            )
            drift = abs((3 * end[0] ** 2 + end[1] ** 2) - (3 * a[0] ** 2 + a[1] ** 2))
            assert drift < 1e-9

    @pytest.mark.parametrize("name", sorted(da.BUNDLED_CASES))
    def test_generated_linearized_rhs_integrates_as_first_order_rhs(self, name):
        # the plain copy carries no partial trees, so it takes first_order_rhs
        lin = da.extract_linearized(*case_torques(name))
        plain = da.LinearizedTorque(lin.f1, lin.f2, lin.f3, lin.f4)
        spec = da.BUNDLED_CASES[name].spec
        s0 = da.plane_embed((1.2808, 0.3), spec.mode)
        ends = [
            da.integrate(da.linearized_system(x)(1e-2), s0, 0.0, spec.window, tol=1e-11)
            for x in (lin, plain)
        ]
        assert ends[0].tobytes() == ends[1].tobytes()

    def test_step_underflow_on_finite_time_blowup(self):
        # y' = y^2 from y = 1 leaves every tolerance behind at t -> 1
        blowup = lambda t, s: (s[0] ** 2, 0.0, 0.0, 0.0)
        with pytest.raises((da.StepSizeUnderflowError, da.NoConvergenceError)):
            da.integrate(blowup, (1.0, 0.0, 0.0, 0.0), 0.0, 2.0)

    def test_pole_error_propagates_out_of_integrate(self):
        f1, f2 = case_torques("corollary2")
        rhs = da.full_system(f1, f2)(0.0)
        # start exactly on the pole surface: the very first rhs call raises
        with pytest.raises(da.DomainError):
            da.integrate(rhs, (0.0, 0.0, math.pi / 2, 0.0), 0.0, 1.0)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            da.integrate(da.unperturbed_rhs, (1, 0, 0, 0), 1.0, 1.0)
        nan, inf = math.nan, math.inf

        def never_called(t, s):
            raise AssertionError("rhs called on refused input")

        for s0, t0, t1, tol in [
            ((1, 0, 0, 0), 0.0, nan, 1e-11),
            ((1, 0, 0, 0), nan, 1.0, 1e-11),
            ((1, 0, 0, 0), 0.0, inf, 1e-11),
            ((1, 0, 0, 0), 0.0, 1.0, nan),
            ((1, 0, 0, 0), 0.0, 1.0, inf),
            ((1, nan, 0, 0), 0.0, 1.0, 1e-11),
            ((1, 0, -inf, 0), 0.0, 1.0, 1e-11),
            ((), 0.0, 1.0, 1e-11),
        ]:
            with pytest.raises(ValueError):
                da.integrate(never_called, s0, t0, t1, tol=tol)
        with pytest.raises(ValueError):
            da.shoot_periodic(never_called, (1, 0, 0, 0), nan)
        for guess in [(1, nan, 0, 0), (1, 0, 0, inf), (1, 0, 0), (1, 0, 0, 0, 0)]:
            with pytest.raises(ValueError):
                da.shoot_periodic(never_called, guess, 1.0)

    def test_one_state_decay(self):
        # the loop is generated per state size: x' = -x against e^-t
        end = da.integrate(lambda t, s: (-s[0],), (1.0,), 0.0, 2.0)
        assert end.shape == (1,)
        assert abs(end[0] - math.exp(-2.0)) < 1e-9

    def test_two_state_oscillator(self):
        # x' = v, v' = -x from (1, 0): (cos t, -sin t)
        end = da.integrate(lambda t, s: (s[1], -s[0]), (1.0, 0.0), 0.0, 2.5)
        assert np.abs(end - [math.cos(2.5), -math.sin(2.5)]).max() < 1e-9

    @pytest.mark.parametrize(
        "system, s0",
        [("linearized", (0.0, 0.0, 1.2808, 0.0)), ("full", (0.0, 0.0, 0.3, 0.0))],
    )
    def test_rhs_calls_per_window(self, system, s0):
        # one pi window of corollary2 at eps = 1e-2 and tol 1e-11 takes about
        # 450 calls; a fifth-order pair needs 1,825 and 1,495
        f1, f2 = case_torques("corollary2")
        if system == "linearized":
            rhs = da.linearized_system(da.extract_linearized(f1, f2))(1e-2)
        else:
            rhs = da.full_system(f1, f2)(1e-2)
        calls = []

        def counted(t, s):
            calls.append(t)
            return rhs(t, s)

        da.integrate(counted, s0, 0.0, da.BUNDLED_CASES["corollary2"].spec.window, tol=1e-11)
        assert len(calls) <= 600


class TestTableau:
    # the DOP853 coefficients as typed into shooting.py
    B = np.array(shooting._A[-1])
    NODES = np.array((0.0,) + shooting._C[:-1])

    def test_order_conditions(self):
        for c, row in zip(shooting._C, shooting._A[:-1]):
            assert abs(math.fsum(row) - c) < 1e-13
        for k in range(8):
            assert abs(math.fsum(self.B * self.NODES**k) - 1 / (k + 1)) < 1e-13
        for weights in (shooting._E5, shooting._E3):
            assert len(weights) == 13
            assert abs(math.fsum(weights)) < 1e-13

    def test_equals_scipy_coefficients(self):
        coefficients = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        assert shooting._C == tuple(coefficients.C[1:12]) + (1.0,)
        for i, row in enumerate(shooting._A[:-1], start=1):
            assert row == tuple(coefficients.A[i, :i])
        assert shooting._A[-1] == tuple(coefficients.B)
        assert shooting._E5 == tuple(coefficients.E5)
        assert shooting._E3 == tuple(coefficients.E3)


class TestShootPeriodic:
    def test_manifold_point_is_already_periodic(self):
        rhs = da.linearized_system(ZERO_LIN)(0.0)
        cert = da.shoot_periodic(rhs, (0.4, 0.2, 0.0, 0.0), da.T1)
        assert cert.displacement_norm < 1e-10
        assert np.abs(cert.corrected_ic.as_array() - [0.4, 0.2, 0.0, 0.0]).max() < 1e-9
        assert cert.newton_iters == 0
        assert math.isnan(cert.contraction)

    def test_corrects_perturbed_orbit(self):
        f1, f2 = case_torques("corollary2")
        lin = da.extract_linearized(f1, f2)
        rhs = da.linearized_system(lin)(1e-3)
        guess = (0.0, 0.0, (1 - S17) / 4, 0.0)
        cert = da.shoot_periodic(rhs, guess, math.pi)
        assert cert.displacement_norm < 1e-10
        # correction is order eps
        correction = np.linalg.norm(cert.corrected_ic.as_array() - np.array(guess))
        assert 1e-5 < correction < 1e-2

    def test_far_guess_fails(self):
        f1, f2 = case_torques("corollary2")
        rhs = da.full_system(f1, f2)(1e-3)
        with pytest.raises((da.NoConvergenceError, da.StepSizeUnderflowError)):
            da.shoot_periodic(rhs, (0.0, 0.0, 3.0, 3.0), math.pi)

    def test_rerun_from_corrected_is_fixed_point(self):
        f1, f2 = case_torques("corollary2")
        lin = da.extract_linearized(f1, f2)
        rhs = da.linearized_system(lin)(1e-3)
        first = da.shoot_periodic(rhs, (0.0, 0.0, (1 - S17) / 4, 0.0), math.pi)
        second = da.shoot_periodic(rhs, tuple(first.corrected_ic), math.pi)
        moved = second.corrected_ic.as_array() - first.corrected_ic.as_array()
        assert np.linalg.norm(moved) < 1e-10

    def test_corrected_orbit_is_periodic_along_the_way(self):
        f1, f2 = case_torques("corollary2")
        lin = da.extract_linearized(f1, f2)
        rhs = da.linearized_system(lin)(1e-3)
        T = math.pi
        cert = da.shoot_periodic(rhs, (0.0, 0.0, (1 - S17) / 4, 0.0), T)
        interior = [(k + 1) * T / 9 for k in range(8)]
        times = interior + [t + T for t in interior]
        state, t_prev, samples = cert.corrected_ic.as_array(), 0.0, []
        for t in times:
            state, t_prev = da.integrate(rhs, state, t_prev, t), t
            samples.append(state)
        gap = np.array(samples[:8]) - np.array(samples[8:])
        assert np.abs(gap).max() < 1e-8

    def test_divergence_is_named(self):
        # on the full equations an undamped step from this prediction sends
        # the state out of range; the contraction test stops Newton after
        # its first step instead of letting the integrator exhaust its step
        # budget
        f1, f2 = case_torques("corollary2")
        rhs = da.full_system(f1, f2)(1e-2)
        calls = 0

        def counted(t, s):
            nonlocal calls
            calls += 1
            return rhs(t, s)

        with pytest.raises(da.NoConvergenceError, match="Newton diverged"):
            da.shoot_periodic(counted, (0.0, 0.0, (1 + S17) / 4, 0.0), math.pi)
        assert calls < 100_000

    def test_stall_is_named(self, monkeypatch):
        # a constant displacement: the Jacobian is zero and its step is
        # truncated to nothing, so the shot stops at once, after the one
        # integration of P and the four of the Jacobian's columns
        calls, integrate = [], shooting.integrate
        monkeypatch.setattr(
            shooting, "integrate", lambda *a, **k: calls.append(a) or integrate(*a, **k)
        )
        stalled = "shooting stalled at displacement 3.142e\\+00 after 0 iterations"
        with pytest.raises(da.NoConvergenceError, match=stalled):
            da.shoot_periodic(lambda t, s: (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), math.pi)
        assert len(calls) <= 6

    def test_iteration_cap_is_named(self, monkeypatch):
        # corollary1's reference zero: the linearized first rung ends at the
        # origin after its third Newton step, so a cap of 2 stops it first
        f1, f2 = case_torques("corollary1")
        spec = da.BUNDLED_CASES["corollary1"].spec
        rhs = da.linearized_system(da.extract_linearized(f1, f2))(1e-2)
        monkeypatch.setattr(shooting, "SHOOTING_MAX_ITER", 2)
        stalled = r"shooting stalled at displacement .* after 2 iterations"
        with pytest.raises(da.NoConvergenceError, match=stalled):
            da.shoot_periodic(rhs, da.plane_embed((SQRT3 / 3, 0.0), spec.mode), spec.window)

    def test_displacement_jacobian_matches_monodromy_at_eps_zero(self):
        z = np.array([0.4, 0.2, 0.0, 0.0])
        base = da.integrate(da.unperturbed_rhs, z, 0.0, da.T1, tol=1e-11) - z
        jac = da.shooting.displacement_jacobian(da.unperturbed_rhs, z, da.T1, 1e-11, base)
        expected = da.fundamental_matrix(da.T1) - np.eye(4)
        assert np.abs(jac - expected).max() < 1e-6


def period_map(monkeypatch, displacement):
    """Make ``shooting.integrate`` return s0 + displacement(s0), whatever the
    rhs; returns the list of states it is called from."""
    starts = []

    def integrate(rhs, s0, t0, t1, tol):
        starts.append(np.array(s0, dtype=float))
        return starts[-1] + displacement(starts[-1])

    monkeypatch.setattr(shooting, "integrate", integrate)
    return starts


def steepening_to_the_root(z):
    """P of a root at 1 (u = z - 1) whose slope is 0.27 at z = 2 but 1 at
    the root: the step from 2 lands 0.037 short of it, and that Jacobian,
    kept, then overshoots it."""
    u = z - 1.0
    return u * (1.0 - 0.75 * u * (2.0 - u) + 0.01 * u)


class TestContraction:
    def test_a_fresh_step_that_does_not_contract_ends_the_shot(self, monkeypatch):
        # Newton on arctan from 2 overshoots to -3.54: Theta = atan(3.54) /
        # atan(2) = 1.17, read after P, the Jacobian's four columns and P
        starts = period_map(monkeypatch, np.arctan)
        diverged = "Newton diverged: contraction 1.17 >= 1 after 1 iterations"
        with pytest.raises(da.NoConvergenceError, match=diverged):
            da.shoot_periodic(lambda t, s: s, (2.0, 2.0, 2.0, 2.0), 1.0)
        assert len(starts) == 1 + 4 + 1

    def test_a_kept_jacobian_that_grows_the_displacement_is_rebuilt(self, monkeypatch):
        starts = period_map(monkeypatch, steepening_to_the_root)
        cert = da.shoot_periodic(lambda t, s: s, (2.0, 2.0, 2.0, 2.0), 1.0)
        # the fresh step cut ||P|| by 7.4, so its Jacobian was kept, and the
        # kept one's step tripled ||P|| before the second build
        norms = [np.linalg.norm(steepening_to_the_root(s)) for s in (starts[0], starts[5], starts[6])]
        assert norms[0] > 4.0 * norms[1] and norms[2] > 3.0 * norms[1]
        assert (cert.reason, cert.jacobian_builds) == (shooting.CONVERGED, 2)
        assert cert.corrected_ic.as_array() == pytest.approx([1.0] * 4, abs=1e-9)

    def test_a_rescaled_jacobian_that_grows_the_displacement_is_rebuilt(self, monkeypatch):
        # a given Jacobian of the wrong sign doubles P(z) = z - 1 from 2
        starts = period_map(monkeypatch, lambda z: z - 1.0)
        cert = da.shoot_periodic(lambda t, s: s, (2.0, 2.0, 2.0, 2.0), 1.0, jacobian=-np.eye(4))
        assert starts[1] == pytest.approx([3.0] * 4)
        assert (cert.reason, cert.jacobian_builds) == (shooting.CONVERGED, 1)
        assert cert.corrected_ic.as_array() == pytest.approx([1.0] * 4, abs=1e-9)


class TestSingularOrigin:
    def test_a_shot_sliding_to_the_origin_ends_there(self, monkeypatch):
        # corollary1's linearized field is homogeneous of degree 5 about the
        # origin, so Newton shrinks ||z|| by 4/5 per step toward it
        f1, f2 = case_torques("corollary1")
        spec = da.BUNDLED_CASES["corollary1"].spec
        rhs = da.linearized_system(da.extract_linearized(f1, f2))(1e-2)
        calls, integrate = [], shooting.integrate
        monkeypatch.setattr(
            shooting, "integrate", lambda *a, **k: calls.append(a) or integrate(*a, **k)
        )
        cert = da.shoot_periodic(rhs, da.plane_embed((SQRT3 / 3, 0.0), spec.mode), spec.window)
        assert tuple(cert.corrected_ic) == (0.0, 0.0, 0.0, 0.0)
        assert cert.displacement_norm == 0.0
        assert cert.reason == shooting.AT_SINGULAR_ORIGIN
        # three steps from fresh Jacobians, then the one integration from 0
        assert (cert.newton_iters, cert.jacobian_builds, len(calls)) == (3, 3, 16)
        assert cert.error_bar == 0.0

    def test_an_origin_that_is_no_orbit_is_tried_once(self, monkeypatch):
        # P(z) = z^3 - b: Newton shrinks z by 2/3 per step toward the simple
        # root b^(1/3) = 0.01, but P(0) = -b is not below tol
        b = 1e-6
        starts = period_map(monkeypatch, lambda z: z**3 - b)
        cert = da.shoot_periodic(lambda t, s: s, (1.0, 1.0, 1.0, 1.0), 1.0)
        assert sum(not s.any() for s in starts) == 1
        assert cert.reason == shooting.CONVERGED
        assert cert.newton_iters > shooting.ORIGIN_RATIO_COUNT
        # ||P|| < tol with P' = 3e-4 there leaves the root a few 1e-7 away
        assert cert.displacement_norm < shooting.DEFAULT_SHOOTING_TOL
        assert cert.corrected_ic.as_array() == pytest.approx([0.01] * 4, rel=1e-4)

    def test_a_slow_contraction_never_tries_the_origin(self, monkeypatch):
        # P(z) = z^30: Newton shrinks z by 29/30 per step, above the band,
        # until ||P|| < tol near z = 0.45
        starts = period_map(monkeypatch, lambda z: z**30)
        cert = da.shoot_periodic(lambda t, s: s, (1.0, 1.0, 1.0, 1.0), 1.0)
        assert cert.reason == shooting.CONVERGED
        assert cert.newton_iters > shooting.ORIGIN_RATIO_COUNT
        assert all(s.any() for s in starts)

    @pytest.mark.parametrize(
        "ratios, steady",
        [
            ((0.8, 0.8, 0.8), True),
            ((0.5, 0.70, 0.71, 0.69), True),
            ((0.8, 0.8), False),
            ((0.19, 0.19, 0.19), False),
            ((0.2, 0.2, 0.2), False),
            ((0.95, 0.95, 0.95), False),
            ((0.63, 0.90, 0.69), False),
            ((0.69, 0.65, 0.61), False),
            ((0.70, 0.71, 0.69, 0.3), False),
        ],
    )
    def test_steady_means_three_ratios_inside_the_band_within_ten_percent(self, ratios, steady):
        assert shooting._contracts_steadily(ratios) is steady


class TestEpsilonContinuation:
    def test_first_order_convergence_on_linearized_system(self):
        f1, f2 = case_torques("corollary2")
        lin = da.extract_linearized(f1, f2)
        spec = da.BUNDLED_CASES["corollary2"].spec
        report = da.epsilon_continuation(
            da.linearized_system(lin), ((1 - S17) / 4, 0.0), spec, [1e-2, 1e-3, 1e-4]
        )
        assert report.passed
        assert len(report.certificates) == 3
        assert report.distances[0] > report.distances[1] > report.distances[2]
        assert 0.5 <= report.empirical_order <= 1.5
        assert report.empirical_order == pytest.approx(1.0, abs=0.1)

    def test_zero_epsilon_ladder(self):
        spec = da.ResonanceSpec(da.Mode.NUTATION_T1, 1, 1)
        report = da.epsilon_continuation(
            da.linearized_system(ZERO_LIN), (0.7, -0.1), spec, [0.0]
        )
        assert report.status == "PASS"
        assert report.distances[0] < 1e-10

    def test_one_rung_ladder_passes_without_a_slope(self):
        # one rung at eps > 0 with a nonzero distance has no slope, so the
        # ladder passes on convergence alone
        lin = da.extract_linearized(*case_torques("corollary2"))
        spec = da.BUNDLED_CASES["corollary2"].spec
        report = da.epsilon_continuation(
            da.linearized_system(lin), ((1 - S17) / 4, 0.0), spec, [1e-2]
        )
        assert report.status == "PASS"
        assert math.isnan(report.empirical_order)
        assert report.pair_orders == ()
        assert report.distances[0] == pytest.approx(0.0108385, rel=1e-5)

    def test_failure_is_identified_by_epsilon(self):
        f1, f2 = case_torques("corollary2")
        spec = da.BUNDLED_CASES["corollary2"].spec
        report = da.epsilon_continuation(da.full_system(f1, f2), ((1 + S17) / 4, 0.0), spec, [0.5])
        assert report.status == "FAILED-AT(0.5)"
        assert report.failure is not None
        assert not report.passed

    def test_collapse_is_named(self):
        # a damped oscillator has no periodic orbit but the origin, so every
        # rung lands there and the distance stays at |prediction|
        damped = lambda eps: lambda t, s: (s[1], -3.0 * s[0] - eps * s[1], s[3], -4.0 * s[2])
        spec = da.ResonanceSpec(da.Mode.NUTATION_T1, 1, 1)
        report = da.epsilon_continuation(damped, (0.7, 0.0), spec, [1e-2, 1e-3, 1e-4])
        assert report.status == "COLLAPSED-TO-EQUILIBRIUM"
        assert not report.passed
        assert len(report.certificates) == 3
        assert all(d == pytest.approx(0.7, abs=1e-3) for d in report.distances)

    def test_ladder_validation(self):
        spec = da.ResonanceSpec(da.Mode.NUTATION_T1, 1, 1)
        with pytest.raises(ValueError):
            da.epsilon_continuation(
                da.linearized_system(ZERO_LIN), (1.0, 0.0), spec, [1e-4, 1e-3]
            )
        with pytest.raises(ValueError):
            da.epsilon_continuation(da.linearized_system(ZERO_LIN), (1.0, 0.0), spec, [])

    @pytest.mark.parametrize("ladder", [[1e-2, math.nan], [math.inf, 1e-2]])
    def test_non_finite_rung_is_refused_before_any_shot(self, ladder):
        def never_called(eps):
            pytest.fail(f"rhs requested for eps = {eps}")

        spec = da.ResonanceSpec(da.Mode.NUTATION_T1, 1, 1)
        with pytest.raises(ValueError, match="finite"):
            da.epsilon_continuation(never_called, (1.0, 0.0), spec, ladder)


# corollary2's printed-reference zeros, one per orbit class, as its search finds them
REFERENCE2_ZEROS = (
    (1.28077640640449, 0.0),
    (0.99999999999987321, 1.1547005383796911),
    (-0.78077640640441515, 0.0),
)
LADDER = (1e-2, 1e-3, 1e-4)


def fresh_jacobian_shot(rhs, guess, period):
    """Newton on P with a fresh ``displacement_jacobian`` at every step, as an
    oracle for the reuse rule; returns its certificate."""
    z = np.array(guess, dtype=float)
    jac = None
    for iters in range(26):
        displacement = da.integrate(rhs, z, 0.0, period) - z
        norm = float(np.linalg.norm(displacement))
        if norm < shooting.DEFAULT_SHOOTING_TOL:
            return shooting.OrbitCertificate(da.SatelliteState(*z), norm, iters, iters, jac)
        jac = shooting.displacement_jacobian(
            rhs, z, period, shooting.DEFAULT_INTEGRATOR_TOL, displacement
        )
        z = z + np.linalg.pinv(jac, rcond=shooting.PINV_RCOND) @ (-displacement)
    pytest.fail(f"oracle Newton stalled at {norm:.3e}")


class TestJacobianReuse:
    def counted_jacobians(self, monkeypatch):
        builds = []
        build = shooting.displacement_jacobian
        monkeypatch.setattr(
            shooting, "displacement_jacobian", lambda *a: builds.append(None) or build(*a)
        )
        return builds

    def test_error_bar_is_the_displacement_over_the_smallest_singular_value(self):
        state = da.SatelliteState(0.0, 0.0, 1.0, 0.0)
        jac = np.diag([4.0, 2.0, 1.0, 0.5])
        assert shooting.OrbitCertificate(state, 1e-10, 1, 1, jac).error_bar == pytest.approx(2e-10)
        assert shooting.OrbitCertificate(state, 1e-10, 0, 0, np.zeros((4, 4))).error_bar == math.inf
        assert math.isnan(shooting.OrbitCertificate(state, 0.0, 0, 0, None).error_bar)

    def test_a_wrong_starting_jacobian_is_rebuilt(self, monkeypatch):
        lin = da.extract_linearized(*case_torques("corollary2"))
        rhs = da.linearized_system(lin)(1e-3)
        guess = (0.0, 0.0, (1 + S17) / 4, 0.0)
        plain = da.shoot_periodic(rhs, guess, math.pi)
        builds = self.counted_jacobians(monkeypatch)
        cert = da.shoot_periodic(rhs, guess, math.pi, jacobian=np.eye(4))
        assert cert.displacement_norm < shooting.DEFAULT_SHOOTING_TOL
        assert len(builds) == cert.jacobian_builds >= 1
        moved = np.linalg.norm(cert.corrected_ic.as_array() - plain.corrected_ic.as_array())
        assert moved <= cert.error_bar + plain.error_bar

    @pytest.mark.parametrize(
        "zero", REFERENCE2_ZEROS[::2], ids=["class0", "class2"]
    )
    def test_reused_jacobians_land_within_the_error_bars_of_fresh_ones(self, monkeypatch, zero):
        # a corrected state is first-order accurate to its error bar along the
        # Jacobian's weakest direction, so two shots that each converged sit
        # within the sum of their bars of each other; every step of these
        # ladders contracted by 2e-5 ... 5e-3
        lin = da.extract_linearized(*case_torques("corollary2"))
        spec = da.BUNDLED_CASES["corollary2"].spec
        builds = self.counted_jacobians(monkeypatch)
        report = da.epsilon_continuation(da.linearized_system(lin), zero, spec, LADDER)
        assert len(report.certificates) == len(LADDER)
        assert sum(c.jacobian_builds for c in report.certificates) == len(builds)
        assert all(c.contraction < 1e-2 for c in report.certificates)
        guess = report.prediction.as_array()
        for eps, cert in zip(LADDER, report.certificates):
            oracle = fresh_jacobian_shot(da.linearized_system(lin)(eps), guess, spec.window)
            guess = oracle.corrected_ic.as_array()
            moved = np.linalg.norm(cert.corrected_ic.as_array() - guess)
            assert moved <= cert.error_bar + oracle.error_bar, eps
        # every rung after the first started from the rescaled Jacobian
        assert report.certificates[1].jacobian_builds < report.certificates[1].newton_iters

    def test_class1_ladder_diverges_on_its_first_step_from_class0s_orbit(self, monkeypatch):
        # the first step from the printed field's extra zero, on a fresh
        # Jacobian, does not contract (Theta = 1.49), so the ladder stops
        # after the 1 + 4 + 1 integrations of P, the Jacobian and P again;
        # a Newton that goes on lands on class 0's orbit, 1.188 away
        lin = da.extract_linearized(*case_torques("corollary2"))
        spec = da.BUNDLED_CASES["corollary2"].spec
        factory = da.linearized_system(lin)
        calls, integrate = [], shooting.integrate
        monkeypatch.setattr(
            shooting, "integrate", lambda *a, **k: calls.append(a) or integrate(*a, **k)
        )
        report = da.epsilon_continuation(factory, REFERENCE2_ZEROS[1], spec, LADDER)
        assert (report.status, report.certificates, len(calls)) == ("FAILED-AT(0.01)", (), 6)
        assert report.failure == (
            "NoConvergenceError: Newton diverged: contraction 1.49 >= 1 after 1 iterations"
        )
        class0 = da.epsilon_continuation(factory, REFERENCE2_ZEROS[0], spec, LADDER[:1])
        oracle = fresh_jacobian_shot(factory(LADDER[0]), report.prediction.as_array(), spec.window)
        moved = oracle.corrected_ic.as_array() - class0.certificates[0].corrected_ic.as_array()
        assert np.linalg.norm(moved) <= oracle.error_bar + class0.certificates[0].error_bar

    def test_a_ladder_ending_at_eps_zero_keeps_its_status(self):
        # at eps = 0 the rescaled start is the closed-form M(T) - I itself;
        # class 1 fails on its first rung and never reaches it
        lin = da.extract_linearized(*case_torques("corollary2"))
        spec = da.BUNDLED_CASES["corollary2"].spec
        factory = da.linearized_system(lin)
        jac0 = da.fundamental_matrix(spec.window) - np.eye(4)
        for zero, status in zip(REFERENCE2_ZEROS, ("PASS", "FAILED-AT(0.01)", "PASS")):
            report = da.epsilon_continuation(factory, zero, spec, (1e-2, 1e-3, 0.0))
            assert report.status == status
            if status != "PASS":
                assert report.certificates == ()
                continue
            last = report.certificates[-1]
            assert (last.newton_iters, last.jacobian_builds) == (1, 0)
            assert last.jacobian.tobytes() == jac0.tobytes()

    @pytest.mark.parametrize(
        "zero, failure",
        [
            (REFERENCE2_ZEROS[0], "contraction 1.32 >= 1 after 1 iterations"),
            (REFERENCE2_ZEROS[1], "contraction 5.02 >= 1 after 1 iterations"),
        ],
        ids=["class0", "class1"],
    )
    def test_full_ladders_fail_where_and_as_they_did(self, zero, failure):
        f1, f2 = case_torques("corollary2")
        spec = da.BUNDLED_CASES["corollary2"].spec
        report = da.epsilon_continuation(da.full_system(f1, f2), zero, spec, LADDER)
        assert report.status == "FAILED-AT(0.01)"
        assert report.failure == f"NoConvergenceError: Newton diverged: {failure}"
