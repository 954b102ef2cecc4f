"""Adaptive integration, periodic shooting, and epsilon continuation."""

import math

import numpy as np
import pytest

import dumbbell_averager as da

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
            da.integrate(da.make_first_order_rhs(1e-2, x), s0, 0.0, spec.window, tol=1e-11)
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
        rhs = da.make_full_rhs(da.PerturbSetup(f1, f2, epsilon=0.0))
        # start exactly on the pole surface: the very first rhs call raises
        with pytest.raises(da.SingularityError):
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
        for times in ([0.5, nan, 1.0], [0.5, inf], [1.0, 0.5], [-0.5]):
            with pytest.raises(ValueError):
                da.sample_trajectory(never_called, (1, 0, 0, 0), times)
        with pytest.raises(ValueError):
            da.shoot_periodic(never_called, (1, 0, 0, 0), nan)

    def test_one_state_decay(self):
        # the loop is generated per state size: x' = -x against e^-t
        end = da.integrate(lambda t, s: (-s[0],), (1.0,), 0.0, 2.0)
        assert end.shape == (1,)
        assert abs(end[0] - math.exp(-2.0)) < 1e-9

    def test_two_state_oscillator(self):
        # x' = v, v' = -x from (1, 0): (cos t, -sin t)
        end = da.integrate(lambda t, s: (s[1], -s[0]), (1.0, 0.0), 0.0, 2.5)
        assert np.abs(end - [math.cos(2.5), -math.sin(2.5)]).max() < 1e-9

    def test_sample_trajectory_consistency(self):
        times = [0.4, 1.1, 2.0]
        samples = da.sample_trajectory(da.unperturbed_rhs, (0.5, -0.2, 0.0, 0.0), times)
        for t, s in zip(times, samples):
            exact = closed_form_state((0.5, -0.2), da.Mode.NUTATION_T1, t)
            assert np.abs(s - exact).max() < 1e-9


class TestShootPeriodic:
    def test_manifold_point_is_already_periodic(self):
        rhs = da.make_first_order_rhs(0.0, ZERO_LIN)
        cert = da.shoot_periodic(rhs, (0.4, 0.2, 0.0, 0.0), da.T1, epsilon=0.0)
        assert cert.displacement_norm < 1e-10
        assert np.abs(cert.corrected_ic.as_array() - [0.4, 0.2, 0.0, 0.0]).max() < 1e-9
        assert cert.newton_iters == 0

    def test_corrects_perturbed_orbit(self):
        f1, f2 = case_torques("corollary2")
        lin = da.extract_linearized(f1, f2)
        rhs = da.make_first_order_rhs(1e-3, lin)
        guess = (0.0, 0.0, (1 - S17) / 4, 0.0)
        cert = da.shoot_periodic(rhs, guess, math.pi, epsilon=1e-3)
        assert cert.displacement_norm < 1e-10
        # correction is order eps
        assert 1e-5 < cert.correction_norm < 1e-2

    def test_far_guess_fails(self):
        f1, f2 = case_torques("corollary2")
        rhs = da.make_full_rhs(da.PerturbSetup(f1, f2, epsilon=1e-3))
        with pytest.raises((da.NoConvergenceError, da.StepSizeUnderflowError)):
            da.shoot_periodic(rhs, (0.0, 0.0, 3.0, 3.0), math.pi, max_iter=6)

    def test_rerun_from_corrected_is_fixed_point(self):
        f1, f2 = case_torques("corollary2")
        lin = da.extract_linearized(f1, f2)
        rhs = da.make_first_order_rhs(1e-3, lin)
        first = da.shoot_periodic(rhs, (0.0, 0.0, (1 - S17) / 4, 0.0), math.pi)
        second = da.shoot_periodic(rhs, tuple(first.corrected_ic), math.pi)
        moved = second.corrected_ic.as_array() - first.corrected_ic.as_array()
        assert np.linalg.norm(moved) < 1e-10

    def test_corrected_orbit_is_periodic_along_the_way(self):
        f1, f2 = case_torques("corollary2")
        lin = da.extract_linearized(f1, f2)
        rhs = da.make_first_order_rhs(1e-3, lin)
        cert = da.shoot_periodic(rhs, (0.0, 0.0, (1 - S17) / 4, 0.0), math.pi)
        T = cert.period
        interior = [(k + 1) * T / 9 for k in range(8)]
        times = interior + [t + T for t in interior]
        samples = da.sample_trajectory(rhs, tuple(cert.corrected_ic), times)
        gap = samples[:8] - samples[8:]
        assert np.abs(gap).max() < 1e-8

    def test_divergence_is_named(self):
        # on the full equations an undamped step from this prediction sends
        # the state out of range; the guard stops Newton a few iterations in
        # instead of letting the integrator exhaust its step budget
        f1, f2 = case_torques("corollary2")
        rhs = da.make_full_rhs(da.PerturbSetup(f1, f2, epsilon=1e-2))
        calls = 0

        def counted(t, s):
            nonlocal calls
            calls += 1
            return rhs(t, s)

        with pytest.raises(da.NoConvergenceError, match="Newton diverged"):
            da.shoot_periodic(counted, (0.0, 0.0, (1 + S17) / 4, 0.0), math.pi, epsilon=1e-2)
        assert calls < 100_000

    def test_displacement_jacobian_matches_monodromy_at_eps_zero(self):
        z = np.array([0.4, 0.2, 0.0, 0.0])
        jac = da.shooting.displacement_jacobian(
            da.unperturbed_rhs, z, da.T1, tol=1e-11
        )
        expected = da.fundamental_matrix(da.T1).entries - np.eye(4)
        assert np.abs(jac - expected).max() < 1e-6


class TestEpsilonContinuation:
    def lin_factory(self, lin):
        return lambda eps: da.make_first_order_rhs(eps, lin)

    def test_first_order_convergence_on_linearized_system(self):
        f1, f2 = case_torques("corollary2")
        lin = da.extract_linearized(f1, f2)
        spec = da.BUNDLED_CASES["corollary2"].spec
        report = da.epsilon_continuation(
            self.lin_factory(lin), ((1 - S17) / 4, 0.0), spec, [1e-2, 1e-3, 1e-4]
        )
        assert report.passed
        assert len(report.certificates) == 3
        assert report.distances[0] > report.distances[1] > report.distances[2]
        assert 0.5 <= report.empirical_order <= 1.5
        assert report.empirical_order == pytest.approx(1.0, abs=0.1)

    def test_zero_epsilon_ladder(self):
        spec = da.ResonanceSpec(da.Mode.NUTATION_T1, 1, 1)
        report = da.epsilon_continuation(
            self.lin_factory(ZERO_LIN), (0.7, -0.1), spec, [0.0]
        )
        assert report.status == "PASS"
        assert report.distances[0] < 1e-10

    def test_failure_is_identified_by_epsilon(self):
        f1, f2 = case_torques("corollary2")
        setup = lambda eps: da.make_full_rhs(da.PerturbSetup(f1, f2, epsilon=eps))
        spec = da.BUNDLED_CASES["corollary2"].spec
        report = da.epsilon_continuation(
            setup, ((1 + S17) / 4, 0.0), spec, [0.5], max_iter=8
        )
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
                self.lin_factory(ZERO_LIN), (1.0, 0.0), spec, [1e-4, 1e-3]
            )
        with pytest.raises(ValueError):
            da.epsilon_continuation(self.lin_factory(ZERO_LIN), (1.0, 0.0), spec, [])

    @pytest.mark.parametrize("ladder", [[1e-2, math.nan], [math.inf, 1e-2]])
    def test_non_finite_rung_is_refused_before_any_shot(self, ladder):
        def never_called(eps):
            pytest.fail(f"rhs requested for eps = {eps}")

        spec = da.ResonanceSpec(da.Mode.NUTATION_T1, 1, 1)
        with pytest.raises(ValueError, match="finite"):
            da.epsilon_continuation(never_called, (1.0, 0.0), spec, ladder)
