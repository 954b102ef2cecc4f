"""Equations of motion, closed-form orbits, fundamental/monodromy matrices."""

import math

import numpy as np
import pytest

import dumbbell_averager as da
from dumbbell_averager import dynamics, torques

SQRT3 = math.sqrt(3.0)
ZERO = da.parse_torque("0")


def corollary1_setup(eps):
    """(eps, F1*, F2*) of corollary1, the trailing arguments of ``full_rhs``."""
    case = da.BUNDLED_CASES["corollary1"]
    return eps, da.parse_torque(case.f1star_text), da.parse_torque(case.f2star_text)


class TestFullRhs:
    @pytest.mark.parametrize("name", ["corollary1", "corollary2"])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_equilibrium_is_fixed_point(self, name, eps):
        case = da.BUNDLED_CASES[name]
        f1, f2 = da.parse_torque(case.f1star_text), da.parse_torque(case.f2star_text)
        for t in (0.0, 0.37, 2.0, 11.0):
            assert da.full_rhs((0.0, 0.0, 0.0, 0.0), t, eps, f1, f2) == (0.0, 0.0, 0.0, 0.0)

    def test_pure_nutation_restoring_torque(self):
        d = da.full_rhs((math.pi / 4, 0.0, 0.0, 0.0), 0.0, 0.0, ZERO, ZERO)
        assert d == pytest.approx((0.0, -1.5, 0.0, 0.0), abs=1e-15)

    def test_mixed_state_value(self):
        # frozen from independent symbolic evaluation of the two accelerations
        d = da.full_rhs((0.0, 0.1, math.pi / 6, 0.2), 0.0, 0.0, ZERO, ZERO)
        assert d[0] == 0.1
        assert d[1] == pytest.approx(0.25403411844343534, abs=1e-14)
        assert d[2] == 0.2
        assert d[3] == pytest.approx(-1.8229834749662434, abs=1e-14)

    def test_matches_symbolic_oracle_at_random_states(self):
        sympy = pytest.importorskip("sympy")
        th, thd, ph, phd = sympy.symbols("th thd ph phd")
        acc_th = 2 * phd * (1 + thd) * sympy.tan(ph) - 3 * sympy.sin(th) * sympy.cos(th)
        acc_ph = -((1 + thd) ** 2 + 3 * sympy.cos(th) ** 2) * sympy.sin(ph) * sympy.cos(ph)
        oracle = sympy.lambdify((th, thd, ph, phd), (acc_th, acc_ph), "math")
        rng = np.random.default_rng(3)
        for _ in range(25):
            s = rng.uniform(-1.2, 1.2, 4)
            got = da.full_rhs(tuple(s), 0.0, 0.0, ZERO, ZERO)
            want = oracle(*s)
            assert got[1] == pytest.approx(want[0], rel=1e-12, abs=1e-12)
            assert got[3] == pytest.approx(want[1], rel=1e-12, abs=1e-12)

    def test_torques_enter_scaled_by_epsilon(self):
        d = da.full_rhs((0.0, 0.0, 0.0, 0.0), 0.0, 0.5, da.parse_torque("2"), da.parse_torque("-3"))
        assert d == pytest.approx((0.0, 1.0, 0.0, -1.5))

    def test_phi_singularity_guard(self):
        with pytest.raises(da.DomainError):
            da.full_rhs((0.0, 0.0, math.pi / 2, 0.0), 0.0, *corollary1_setup(0.0))

    #: the oracle and the generated rhs, as rhs(state, (eps, F1*, F2*))
    BOTH = {
        "full_rhs": lambda s, setup: da.full_rhs(s, 0.0, *setup),
        "generated": lambda s, setup: da.full_system(*setup[1:])(setup[0])(0.0, s),
    }

    @pytest.mark.parametrize("rhs", BOTH.values(), ids=BOTH.keys())
    @pytest.mark.parametrize(
        "state, message",
        [
            ((0.0, 1e200, 0.0, 0.0), "OverflowError: result outside the floats"),
            ((math.inf, 0.0, 0.0, 0.0), "ValueError: math domain error"),
            ((0.0, 0.0, math.inf, 0.0), "ValueError: math domain error"),
        ],
    )
    def test_float_errors_are_domain_errors(self, rhs, state, message):
        with pytest.raises(da.DomainError) as info:
            rhs(state, (0.0, ZERO, ZERO))
        assert str(info.value) == message

    @pytest.mark.parametrize("rhs", BOTH.values(), ids=BOTH.keys())
    def test_nan_attitude_terms_are_returned(self, rhs):
        # no finite test on the accelerations: the integrator rejects the step
        d = rhs((math.nan, 0.0, 0.0, 0.0), (0.1, ZERO, ZERO))
        assert math.isnan(d[1]) and math.isnan(d[3])

    @pytest.mark.parametrize("rhs", BOTH.values(), ids=BOTH.keys())
    def test_singularity_text(self, rhs):
        setup = corollary1_setup(0.0)
        with pytest.raises(da.DomainError, match=r"tan argument within 1e-12 of an odd multiple of pi/2"):
            rhs((0.0, 0.0, math.pi / 2, 0.0), setup)

    @pytest.mark.parametrize("f1", ["tan(phi)", "0"])
    @pytest.mark.parametrize("rhs", BOTH.values(), ids=BOTH.keys())
    def test_the_phi_pole_is_the_tan_pole_on_every_path(self, rhs, f1):
        # one condition, one error: the attitude terms' tan(phi) is guarded
        # as the torque tan(phi) is, alone or as F1*
        tan_phi = da.parse_torque("tan(phi)")
        t, s = 0.0, (0.0, 0.0, math.pi / 2, 0.0)
        for path in (
            lambda: tan_phi.compile()(t, *s),
            lambda: tan_phi.evaluate(t, *s),
            lambda: rhs(s, (1.0, da.parse_torque(f1), ZERO)),
        ):
            with pytest.raises(da.DomainError) as info:
                path()
            assert str(info.value) == "tan argument within 1e-12 of an odd multiple of pi/2"


class TestGeneratedRhs:
    """Both systems' right-hand sides share their subexpressions."""

    @pytest.mark.parametrize("name", ["corollary1", "corollary2"])
    def test_each_trig_function_is_called_once_per_argument(self, monkeypatch, name):
        # the full system: sin and cos of theta and of phi, tan(phi) and the
        # forcing's sin of t, once each; at zero angles only the forcing's sin
        # is left
        calls = []
        functions = torques._NAMESPACES["math"][0]
        for fn in ("sin", "cos", "tan"):
            monkeypatch.setitem(functions, fn, lambda x, f=functions[fn]: calls.append(x) or f(x))
        case = da.BUNDLED_CASES[name]
        f1, f2 = da.parse_torque(case.f1star_text), da.parse_torque(case.f2star_text)
        state = (0.1, 0.2, 0.3, 0.4)
        dynamics._full_system.__wrapped__(f1, f2)(1e-2)(0.7, state)
        assert len(calls) == 6
        calls.clear()
        partials = da.extract_linearized(f1, f2).partials
        dynamics._linearized_system.__wrapped__(partials)(1e-2)(0.7, state)
        assert len(calls) == 1

    def test_full_rhs_is_compiled_once_per_torque_pair(self):
        case = da.BUNDLED_CASES["corollary2"]
        f1, f2 = da.parse_torque(case.f1star_text), da.parse_torque(case.f2star_text)
        rhs = [da.full_system(f1, f2)(eps) for eps in (1e-2, 1e-3)]
        assert rhs[0].__code__ is rhs[1].__code__
        assert rhs[0](0.7, (0.1, 0.2, 0.3, 0.4)) != rhs[1](0.7, (0.1, 0.2, 0.3, 0.4))

    def test_each_system_compiles_once_at_its_first_epsilon(self):
        # building a system compiles nothing; its first eps compiles the one
        # function that every later eps of the same torques shares
        f1, f2 = da.parse_torque("theta * t^2 + 0.125"), da.parse_torque("phi * phi_dot^3")
        systems = {
            dynamics._full_system: lambda: da.full_system(f1, f2),
            dynamics._linearized_system: lambda: da.linearized_system(da.extract_linearized(f1, f2)),
        }
        state = (0.1, 0.2, 0.3, 0.4)
        for compiled, build in systems.items():
            misses = compiled.cache_info().misses
            system = build()
            assert compiled.cache_info().misses == misses
            rhs = [system(eps) for eps in (1e-2, 1e-3)]
            assert compiled.cache_info().misses == misses + 1
            assert rhs[0].__code__ is rhs[1].__code__
            assert rhs[0](0.7, state) != rhs[1](0.7, state)

    def test_coefficients_without_trees_call_first_order_rhs_as_it_is_at_the_call(
        self, monkeypatch
    ):
        hand_built = da.LinearizedTorque(*(lambda t, v1, v2: 1.0,) * 4)
        rhs = da.linearized_system(hand_built)(1e-2)
        state = (1.0, 0.5, 2.0, 0.25)
        assert rhs(0.3, state) == dynamics.first_order_rhs(state, 0.3, 1e-2, hand_built)
        calls = []
        monkeypatch.setattr(dynamics, "first_order_rhs", lambda *args: calls.append(args) or ())
        assert rhs(0.3, state) == ()
        assert calls == [(state, 0.3, 1e-2, hand_built)]

    def test_each_kind_of_generated_function_has_its_own_file_name(self):
        # profilers key functions by (file, line, name): under one shared name
        # the full and the linearized rhs would merge into one row
        case = da.BUNDLED_CASES["corollary2"]
        f1, f2 = da.parse_torque(case.f1star_text), da.parse_torque(case.f2star_text)
        full = da.full_system(f1, f2)(1e-2)
        linearized = da.linearized_system(da.extract_linearized(f1, f2))(1e-2)
        names = [fn.__code__.co_filename for fn in (f1.compile(), full, linearized)]
        assert names == ["<torque>", "<full rhs>", "<linearized rhs>"]


class TestFirstOrderRhs:
    def lin(self, f1=None, f2=None, f3=None, f4=None):
        zero = lambda t, v1, v2: 0.0
        return da.LinearizedTorque(f1=f1 or zero, f2=f2 or zero, f3=f3 or zero, f4=f4 or zero)

    def test_unperturbed_oscillators(self):
        lin = self.lin()
        assert da.first_order_rhs((1.0, 0.0, 0.0, 0.0), 0.0, 0.0, lin) == (0.0, -3.0, 0.0, 0.0)
        assert da.first_order_rhs((0.0, 0.0, 1.0, 0.0), 0.0, 0.0, lin) == (0.0, 0.0, 0.0, -4.0)

    def test_f1_couples_into_y_equation(self):
        lin = self.lin(f1=lambda t, v1, v2: 1.0)
        d = da.first_order_rhs((2.0, 0.0, 0.0, 0.0), 0.3, 1.0, lin)
        assert d == (0.0, -4.0, 0.0, 0.0)

    def test_all_four_coefficients_wire_correctly(self):
        lin = da.LinearizedTorque(
            f1=lambda t, v1, v2: 10.0,
            f2=lambda t, v1, v2: 20.0,
            f3=lambda t, v1, v2: 30.0,
            f4=lambda t, v1, v2: 40.0,
        )
        X, Z = 1.0, 2.0
        d = da.first_order_rhs((X, 0.0, Z, 0.0), 0.0, 1.0, lin)
        assert d[1] == pytest.approx(-3 * X + 10 * X + 20 * Z)
        assert d[3] == pytest.approx(-4 * Z + 30 * X + 40 * Z)


class TestClosedForm:
    def test_initial_condition(self):
        a, b = 0.37, -1.2
        s = da.closed_form_solution((a, b), da.Mode.NUTATION_T1, 0.0)
        assert (float(s[0]), float(s[1]), float(s[2]), float(s[3])) == (a, b, 0.0, 0.0)

    def test_periodicity(self):
        s = da.closed_form_solution((1.0, 0.0), da.Mode.NUTATION_T1, da.T1)
        assert float(s[0]) == pytest.approx(1.0, abs=1e-15)
        assert float(s[1]) == pytest.approx(0.0, abs=1e-14)

    def test_precession_quarter_period(self):
        s = da.closed_form_solution((1.0, 0.0), da.Mode.PRECESSION_T2, math.pi / 4)
        assert float(s[2]) == pytest.approx(0.0, abs=1e-15)
        assert float(s[3]) == pytest.approx(-2.0, abs=1e-15)

    def test_conserved_quantities_along_flow(self):
        ts = np.linspace(0.0, 3 * da.T1, 100)
        x, y, _, _ = da.closed_form_solution((0.8, -0.5), da.Mode.NUTATION_T1, ts)
        c = 3 * x**2 + y**2
        assert np.abs(c - c[0]).max() < 1e-12
        _, _, z, w = da.closed_form_solution((-0.3, 1.1), da.Mode.PRECESSION_T2, ts)
        c = 4 * z**2 + w**2
        assert np.abs(c - c[0]).max() < 1e-12

    def test_orbit_is_fundamental_matrix_on_embedded_point(self):
        # a swapped frequency or slot in either function breaks this
        for mode in (da.Mode.NUTATION_T1, da.Mode.PRECESSION_T2):
            for alpha in ((0.6, 0.2), (-1.3, 0.45), (0.0, -2.0)):
                for t in (0.0, 0.35, 1.7, -2.9, 11.0):
                    orbit = np.array([float(v) for v in da.closed_form_solution(alpha, mode, t)])
                    flow = da.fundamental_matrix(t) @ np.array(da.plane_embed(alpha, mode))
                    assert np.abs(orbit - flow).max() < 1e-14

    def test_time_derivative_matches_rhs(self):
        # finite differences with step 1e-5 against the eps=0 linear system
        lin = da.LinearizedTorque(*(lambda t, v1, v2: 0.0,) * 4)
        h = 1e-5
        for mode, alpha in (
            (da.Mode.NUTATION_T1, (0.6, 0.2)),
            (da.Mode.PRECESSION_T2, (-0.4, 0.9)),
        ):
            for t in (0.1, 0.9, 2.5):
                plus = np.array([float(v) for v in da.closed_form_solution(alpha, mode, t + h)])
                minus = np.array([float(v) for v in da.closed_form_solution(alpha, mode, t - h)])
                fd = (plus - minus) / (2 * h)
                state = tuple(float(v) for v in da.closed_form_solution(alpha, mode, t))
                rhs = np.array(da.first_order_rhs(state, t, 0.0, lin))
                assert np.abs(fd - rhs).max() < 1e-6


class TestFundamentalMatrix:
    def test_identity_at_zero(self):
        assert np.array_equal(da.fundamental_matrix(0.0), np.eye(4))

    def test_value_at_pi(self):
        m = da.fundamental_matrix(math.pi)
        assert np.allclose(m[2:, 2:], np.eye(2), atol=1e-15)
        c, s = math.cos(SQRT3 * math.pi), math.sin(SQRT3 * math.pi)
        expected = np.array([[c, s / SQRT3], [-SQRT3 * s, c]])
        assert np.allclose(m[:2, :2], expected, atol=1e-15)
        assert np.allclose(m[:2, 2:], 0.0) and np.allclose(m[2:, :2], 0.0)

    def test_unimodular(self):
        for t in (0.3, 1.7, 5.0):
            assert np.linalg.det(da.fundamental_matrix(t)) == pytest.approx(1.0, abs=1e-12)

    def test_inverse_is_matrix_at_negated_time(self):
        for t in (0.0, 0.4, 2.2, 9.1):
            m = da.fundamental_matrix(-t) @ da.fundamental_matrix(t)
            assert np.abs(m - np.eye(4)).max() < 1e-12

    def test_variational_integration_reproduces_matrix(self):
        # columns of M(t) solve the eps=0 linear system from unit vectors
        spec = da.ResonanceSpec(da.Mode.NUTATION_T1, p=1)
        t_end = 2 * spec.window
        for t in (0.5, t_end / 3, t_end):
            m_num = np.column_stack(
                [
                    da.integrate(da.unperturbed_rhs, col, 0.0, t, tol=1e-12)
                    for col in np.eye(4)
                ]
            )
            assert np.abs(m_num - da.fundamental_matrix(t)).max() < 1e-9


class TestMonodromyGap:
    def test_t1_block_structure_and_determinant(self):
        gap, det = da.monodromy_gap(da.ResonanceSpec(da.Mode.NUTATION_T1, p=1))
        assert np.abs(gap[:2, :2]).max() < 1e-12  # inactive block vanishes
        assert np.abs(gap[:2, 2:]).max() == 0.0
        assert np.abs(gap[2:, :2]).max() == 0.0
        assert det == pytest.approx(4 * math.sin(2 * SQRT3 * math.pi / 3) ** 2, abs=1e-10)
        assert det == pytest.approx(0.8727228113688359, abs=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_t1_determinant_closed_form(self, p):
        _, det = da.monodromy_gap(da.ResonanceSpec(da.Mode.NUTATION_T1, p=p))
        assert det == pytest.approx(4 * math.sin(2 * SQRT3 * p * math.pi / 3) ** 2, abs=1e-10)

    def test_t2_roles_swap(self):
        gap, det = da.monodromy_gap(da.ResonanceSpec(da.Mode.PRECESSION_T2, p=1))
        assert np.abs(gap[2:, 2:]).max() < 1e-12
        # oracle: determinant of the active block by direct subtraction
        direct = np.eye(4) - da.fundamental_matrix(-math.pi)
        assert det == pytest.approx(np.linalg.det(direct[:2, :2]), abs=1e-14)
        assert det == pytest.approx(2 - 2 * math.cos(SQRT3 * math.pi), abs=1e-10)
        assert det == pytest.approx(0.6677381527949442, abs=1e-12)


class TestDomainTypes:
    def test_state_rejects_non_finite(self):
        with pytest.raises(ValueError):
            da.SatelliteState(0.0, float("nan"), 0.0, 0.0)
        with pytest.raises(ValueError):
            da.SatelliteState(float("inf"), 0.0, 0.0, 0.0)

    def test_state_iterates_in_order(self):
        s = da.SatelliteState(1.0, 2.0, 3.0, 4.0)
        assert tuple(s) == (1.0, 2.0, 3.0, 4.0)
        assert np.array_equal(s.as_array(), [1.0, 2.0, 3.0, 4.0])

    def test_resonance_spec_validation(self):
        with pytest.raises(ValueError):
            da.ResonanceSpec(da.Mode.NUTATION_T1, p=2, q=4)
        with pytest.raises(ValueError):
            da.ResonanceSpec(da.Mode.NUTATION_T1, p=0, q=1)
        for p, q in ((True, 1), (1, True), (1.5, 1), (1, 2.0), (2.0, 1), ("1", 1), (None, 1)):
            with pytest.raises(ValueError):
                da.ResonanceSpec(da.Mode.NUTATION_T1, p=p, q=q)
        spec = da.ResonanceSpec(da.Mode.PRECESSION_T2, p=3, q=2)
        assert spec.window == pytest.approx(3 * math.pi)

    def test_plane_embedding(self):
        assert da.plane_embed((1.0, 2.0), da.Mode.NUTATION_T1) == (1.0, 2.0, 0.0, 0.0)
        assert da.plane_embed((1.0, 2.0), da.Mode.PRECESSION_T2) == (0.0, 0.0, 1.0, 2.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_both_systems_refuse_a_non_finite_epsilon(self, eps):
        lin = da.extract_linearized(ZERO, ZERO)
        hand_built = da.LinearizedTorque(*(lambda t, v1, v2: 0.0,) * 4)
        for system in (da.full_system(ZERO, ZERO), da.linearized_system(lin),
                       da.linearized_system(hand_built)):
            with pytest.raises(ValueError, match="epsilon must be finite"):
                system(eps)
