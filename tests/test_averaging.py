"""Quadrature engine and the two averaging routes."""

import math
from dataclasses import replace

import numpy as np
import pytest

import dumbbell_averager as da
from dumbbell_averager import cli, torques
from dumbbell_averager.averaging import _quadrature_rows

SQRT3 = math.sqrt(3.0)


def const_lin(f1=None, f4=None):
    """LinearizedTorque with the given f1/f4 and zero elsewhere."""
    zero = lambda t, v1, v2: np.zeros(np.broadcast(t, v1, v2).shape)
    return da.LinearizedTorque(
        f1=f1 or zero, f2=zero, f3=zero, f4=f4 or zero
    )


def ones(t, v1, v2):
    return np.ones(np.broadcast(t, v1, v2).shape)


# closed forms obtained from the trigonometric moment expansion; checked
# below against an independent fixed-node trapezoid oracle
def t1_field_const(a):
    x, y = a
    return np.array([y / 6.0, x / 2.0])


def t1_field_v1sq(a):
    x, y = a
    return np.array([y * (3 * x**2 + y**2) / 24.0, x * (3 * x**2 + y**2) / 8.0])


def t1_field_resonant(a):
    x, y = a
    return np.array([-SQRT3 * x * y / 12.0, SQRT3 * (y**2 - 3 * x**2) / 24.0])


def t2_field_const(a):
    z, w = a
    return np.array([w / 4.0, z])


def t2_field_v2sq(a):
    z, w = a
    return np.array([w * (4 * z**2 + w**2) / 16.0, z * (4 * z**2 + w**2) / 4.0])


def brute_force_field(spec, lin, alpha, n=2**14):
    """Fixed-node trapezoid evaluation, independent of the adaptive path."""
    a1, a2 = alpha
    T = spec.window
    t = np.arange(n) * (T / n)
    if spec.mode is da.Mode.NUTATION_T1:
        c, s = np.cos(SQRT3 * t), np.sin(SQRT3 * t)
        d1 = a1 * c + a2 / SQRT3 * s
        d2 = a2 * c - SQRT3 * a1 * s
        core = d1 * lin.f1(t, d2, np.zeros_like(d2))
        w1, w2 = 1 / (2 * spec.p * math.pi), SQRT3 / (2 * spec.p * math.pi)
        return np.array(
            [np.sum(s * core) * (T / n) * w1, np.sum(c * core) * (T / n) * w2]
        )
    c, s = np.cos(2 * t), np.sin(2 * t)
    d3 = a1 * c + a2 / 2 * s
    d4 = a2 * c - 2 * a1 * s
    core = d3 * lin.f4(t, np.zeros_like(d4), d4)
    w1, w2 = 1 / (spec.p * math.pi), 2 / (spec.p * math.pi)
    return np.array([np.sum(s * core) * (T / n) * w1, np.sum(c * core) * (T / n) * w2])


def periodic_quadrature(f, period, tol):
    """Integral of a periodic f(t) over one period, as one point of one row."""
    values, _ = _quadrature_rows(lambda t, _: np.reshape(f(t), (1, 1, -1)), period, tol, 1)
    return float(values[0, 0])


T1_SPEC = da.ResonanceSpec(da.Mode.NUTATION_T1, 1, 1)
T2_SPEC = da.ResonanceSpec(da.Mode.PRECESSION_T2, 1, 1)


class TestPeriodicQuadrature:
    def test_squared_sine(self):
        got = periodic_quadrature(lambda t: np.sin(t) ** 2, 2 * math.pi, 1e-12)
        assert got == pytest.approx(math.pi, abs=1e-12)

    def test_wallis_moment(self):
        got = periodic_quadrature(
            lambda t: np.cos(t) ** 4 * np.sin(t) ** 2, 2 * math.pi, 1e-12
        )
        assert got == pytest.approx(math.pi / 8, abs=1e-12)

    def test_constant(self):
        got = periodic_quadrature(lambda t: np.ones_like(t), 5.0, 1e-12)
        assert got == pytest.approx(5.0, abs=1e-14)

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(da.NoConvergenceError):
            periodic_quadrature(lambda t: np.sin(t) ** 2, 2 * math.pi, 0.0)


class TestAveragedField:
    def test_constant_f1(self):
        fld = da.AveragedField(T1_SPEC, const_lin(f1=ones))
        rng = np.random.default_rng(10)
        for _ in range(6):
            a = rng.uniform(-2, 2, 2)
            assert np.allclose(fld.evaluate(a), t1_field_const(a), atol=1e-12)

    def test_velocity_squared_f1(self):
        fld = da.AveragedField(T1_SPEC, const_lin(f1=lambda t, v1, v2: v1**2))
        rng = np.random.default_rng(11)
        for _ in range(6):
            a = rng.uniform(-2, 2, 2)
            assert np.allclose(fld.evaluate(a), t1_field_v1sq(a), atol=1e-11)

    def test_origin_maps_to_exact_zero(self):
        fld = da.AveragedField(T1_SPEC, const_lin(f1=lambda t, v1, v2: v1**2))
        out = fld.evaluate(np.zeros(2))
        assert out[0] == 0.0 and out[1] == 0.0

    def test_constant_f4(self):
        fld = da.AveragedField(T2_SPEC, const_lin(f4=ones))
        rng = np.random.default_rng(12)
        for _ in range(6):
            a = rng.uniform(-2, 2, 2)
            assert np.allclose(fld.evaluate(a), t2_field_const(a), atol=1e-12)

    def test_closed_forms_agree_with_fixed_node_oracle(self):
        cases = [
            (T1_SPEC, const_lin(f1=ones), t1_field_const),
            (T1_SPEC, const_lin(f1=lambda t, v1, v2: v1**2), t1_field_v1sq),
            (
                T1_SPEC,
                const_lin(f1=lambda t, v1, v2: np.sin(SQRT3 * t) * v1),
                t1_field_resonant,
            ),
            (T2_SPEC, const_lin(f4=ones), t2_field_const),
            (T2_SPEC, const_lin(f4=lambda t, v1, v2: v2**2), t2_field_v2sq),
        ]
        rng = np.random.default_rng(13)
        for spec, lin, closed in cases:
            for _ in range(4):
                a = rng.uniform(-1.5, 1.5, 2)
                assert np.allclose(brute_force_field(spec, lin, a), closed(a), atol=1e-11)

    def test_batch_matches_single(self):
        fld = da.AveragedField(T2_SPEC, const_lin(f4=lambda t, v1, v2: v2**2))
        pts = np.array([[0.3, -0.9], [1.1, 0.4], [0.0, 0.0], [2.0, 1.0]])
        batch = fld.evaluate(pts)
        singles = np.array([fld.evaluate(p) for p in pts])
        assert np.array_equal(batch, singles)

    def test_batch_matches_single_at_mixed_node_counts(self, monkeypatch):
        # points far apart need different node counts; each one stops at its
        # own, so a batch (sampled in any block size) equals single calls
        lin = da.extract_linearized(
            da.parse_torque("sin(theta)*cos(theta_dot)"), da.parse_torque("sin(phi)")
        )
        angles = np.linspace(0.0, 2 * math.pi, 5, endpoint=False)
        pts = np.array([[r * math.cos(a), r * math.sin(a)] for r in (0.05, 5, 20) for a in angles])
        nodes = []
        singles = []
        for p in pts:
            fld = da.AveragedField(T1_SPEC, lin)
            singles.append(fld.evaluate(p))
            nodes.append(fld.max_nodes_used)
        assert min(nodes) == 32 and max(nodes) >= 128
        fld = da.AveragedField(T1_SPEC, lin)
        assert np.array_equal(fld.evaluate(pts), np.array(singles))
        assert fld.max_nodes_used == max(nodes)
        monkeypatch.setattr(da.averaging, "QUAD_BLOCK_SAMPLES", 64)
        assert np.array_equal(fld.evaluate(pts), np.array(singles))

    def test_pipeline_fields_of_bundled_cases(self):
        # closed forms from the moment expansion of the extracted coefficients
        case1 = da.BUNDLED_CASES["corollary1"]
        lin1 = da.extract_linearized(
            da.parse_torque(case1.f1star_text), da.parse_torque(case1.f2star_text)
        )
        fld1 = da.AveragedField(case1.spec, lin1)
        case2 = da.BUNDLED_CASES["corollary2"]
        lin2 = da.extract_linearized(
            da.parse_torque(case2.f1star_text), da.parse_torque(case2.f2star_text)
        )
        fld2 = da.AveragedField(case2.spec, lin2)
        rng = np.random.default_rng(14)
        for _ in range(8):
            x, y = rng.uniform(-1.5, 1.5, 2)
            got = fld1.evaluate([x, y])
            q = 3 * x**2 + y**2
            assert np.allclose(got, [y * q**2 / 48.0, x * q**2 / 16.0], atol=1e-11)
            z, w = rng.uniform(-1.5, 1.5, 2)
            got = fld2.evaluate([z, w])
            expect = [
                w * (4 + 4 * z - 4 * z**2 - w**2) / 16.0,
                (8 * z + 4 * z**2 - 8 * z**3 - w**2 - 2 * z * w**2) / 8.0,
            ]
            assert np.allclose(got, expect, atol=1e-11)

    def test_homogeneity_in_plane_point(self):
        # degree-d homogeneous f1 in v1 makes the field homogeneous of d+1
        for degree, f1 in ((1, lambda t, v1, v2: v1), (2, lambda t, v1, v2: v1**2)):
            fld = da.AveragedField(T1_SPEC, const_lin(f1=f1))
            base = fld.evaluate([0.43, -0.71])
            for lam in (2.0, 3.0):
                scaled = fld.evaluate([lam * 0.43, lam * -0.71])
                assert np.allclose(scaled, lam ** (degree + 1) * base, rtol=1e-10)

    def test_node_doubling_has_settled_by_512(self):
        case2 = da.BUNDLED_CASES["corollary2"]
        lin2 = da.extract_linearized(
            da.parse_torque(case2.f1star_text), da.parse_torque(case2.f2star_text)
        )
        a = (0.8, -0.6)
        coarse = brute_force_field(case2.spec, lin2, a, n=512)
        fine = brute_force_field(case2.spec, lin2, a, n=1024)
        assert np.abs(coarse - fine).max() < 1e-12

    def test_rejects_wrong_shape(self):
        fld = da.AveragedField(T1_SPEC, const_lin(f1=ones))
        with pytest.raises(ValueError):
            fld.evaluate([1.0, 2.0, 3.0])

    def test_empty_batch_like_the_reference_fields(self):
        fld = da.AveragedField(T1_SPEC, const_lin(f1=ones))
        fld.evaluate([0.5, 0.0])
        nodes = fld.max_nodes_used
        empty = np.empty((0, 2))
        for field in (fld, *(case.reference_field for case in da.BUNDLED_CASES.values())):
            assert field(empty).shape == (0, 2)
        assert fld.max_nodes_used == nodes


class TestMalkinRoute:
    def test_zero_perturbation(self):
        g1 = lambda t, state: np.zeros((4,) + np.shape(t))
        for alpha in ([0.5, 0.5], [2.0, -1.0]):
            out = da.malkin_average(g1, T1_SPEC, alpha)
            assert np.allclose(out, 0.0, atol=1e-15)

    def test_matches_specialized_route_for_bundled_case1(self):
        case = da.BUNDLED_CASES["corollary1"]
        lin = da.extract_linearized(
            da.parse_torque(case.f1star_text), da.parse_torque(case.f2star_text)
        )
        fld = da.AveragedField(case.spec, lin)
        g1 = da.linearized_perturbation(lin)
        alpha = [0.5, 0.3]
        assert np.allclose(
            da.malkin_average(g1, case.spec, alpha), fld.evaluate(alpha), atol=1e-10
        )

    def test_linearity_in_perturbation(self):
        lin = const_lin(f1=lambda t, v1, v2: np.sin(SQRT3 * t) * v1)
        g1 = da.linearized_perturbation(lin)
        scaled = lambda t, state: 2.5 * np.asarray(g1(t, state))
        rng = np.random.default_rng(15)
        for _ in range(4):
            a = rng.uniform(-2, 2, 2)
            assert np.allclose(
                da.malkin_average(scaled, T1_SPEC, a),
                2.5 * da.malkin_average(g1, T1_SPEC, a),
                atol=1e-12,
            )

    @pytest.mark.parametrize(
        "spec,lin",
        [
            (T1_SPEC, const_lin(f1=lambda t, v1, v2: v1**2)),
            (T1_SPEC, const_lin(f1=lambda t, v1, v2: np.sin(SQRT3 * t) * v1 + v1**2)),
            (T2_SPEC, const_lin(f4=lambda t, v1, v2: 1.0 - np.sin(2 * t) * v2 - v2**2)),
        ],
    )
    def test_route_equivalence_on_annulus(self, spec, lin):
        fld = da.AveragedField(spec, lin)
        g1 = da.linearized_perturbation(lin)
        rng = np.random.default_rng(16)
        for _ in range(25):
            r = rng.uniform(0.1, 5.0)
            ang = rng.uniform(0, 2 * math.pi)
            alpha = [r * math.cos(ang), r * math.sin(ang)]
            assert np.allclose(
                da.malkin_average(g1, spec, alpha), fld.evaluate(alpha), atol=1e-9
            )


def pipeline_field(name, degrees=...):
    """corollary ``name``'s pipeline field as the CLI builds it, or with
    ``degrees`` in place of the ones read off its torque."""
    with cli.resources.as_file(cli.bundled_config_path(name)) as path:
        config = cli.load_config(path)
    fld, _ = cli._build_field(config, "pipeline", name)
    if degrees is not ...:
        fld = da.AveragedField(fld.spec, fld.lin, degrees=degrees)
    return fld


#: the closed forms of the bundled pipeline fields, as {(i, j): the
#: coefficients of x^i y^j in both components}
CLOSED_FORMS = {
    # (3x^2 + y^2)^2 (y/48, x/16)
    "corollary1": {
        (4, 1): (9 / 48, 0.0), (2, 3): (6 / 48, 0.0), (0, 5): (1 / 48, 0.0),
        (5, 0): (0.0, 9 / 16), (3, 2): (0.0, 6 / 16), (1, 4): (0.0, 1 / 16),
    },
    # (w(4 + 4z - 4z^2 - w^2)/16, (4z(2 + z - 2z^2) - w^2(1 + 2z))/8)
    "corollary2": {
        (0, 1): (1 / 4, 0.0), (1, 1): (1 / 4, 0.0), (2, 1): (-1 / 4, 0.0), (0, 3): (-1 / 16, 0.0),
        (1, 0): (0.0, 1.0), (2, 0): (0.0, 1 / 2), (3, 0): (0.0, -1.0),
        (0, 2): (0.0, -1 / 8), (1, 2): (0.0, -1 / 4),
    },
}


def raised(call):
    """(exception type, text) that ``call()`` raises, or None."""
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), str(exc)
    return None


class TestPolynomialRoute:
    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_recovers_the_closed_forms(self, name):
        fld = pipeline_field(name)
        fld.evaluate([0.3, 0.2])
        exponents, coefficients = fld._terms
        assert set(CLOSED_FORMS[name]) <= set(exponents)
        for exponent, got in zip(exponents, coefficients):
            want = CLOSED_FORMS[name].get(exponent, (0.0, 0.0))
            assert np.abs(got - want).max() <= 1e-13, exponent
        # one recovery batch, all of it at the node count the search used to need
        assert fld.max_nodes_used == 32
        lin, spec = fld.lin, fld.spec
        for alpha in ([0.5, 0.3], [-4.0, 2.5]):
            oracle = da.malkin_average(da.linearized_perturbation(lin), spec, alpha)
            assert np.allclose(fld.evaluate(alpha), oracle, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_a_row_is_its_point_alone(self, name):
        fld = pipeline_field(name)
        rng = np.random.default_rng(32)
        pts = np.vstack([rng.uniform(-5.0, 5.0, (37, 2)), [[0.0, 0.0], [1e-300, -2.0]]])
        batch = fld.evaluate(pts)
        for i, p in enumerate(pts):
            assert fld.evaluate(p).tobytes() == batch[i].tobytes()
            assert pipeline_field(name).evaluate(pts[i:]).tobytes() == batch[i:].tobytes()

    def test_a_rate_under_a_call_stays_on_quadrature(self):
        config = cli.RunConfig(
            f1star="sin(theta)*sin(theta_dot)", f2star="sin(phi)", mode=da.Mode.NUTATION_T1
        )
        fld, _ = cli._build_field(config, "pipeline", None)
        assert fld.degrees is None
        quadrature = da.AveragedField(config.spec, config.linearized)
        pts = np.array([[0.3, -0.9], [1.1, 0.4], [2.0, 1.0]])
        assert fld.evaluate(pts).tobytes() == quadrature.evaluate(pts).tobytes()
        assert fld._terms == () and fld.max_nodes_used == quadrature.max_nodes_used

    def test_too_few_degrees_fall_back_to_quadrature(self):
        # degree-1 monomials cannot hold corollary1's quintic field
        fld = pipeline_field("corollary1", degrees=frozenset({0}))
        quadrature = pipeline_field("corollary1", degrees=None)
        pts = np.array([[0.3, -0.9], [1.1, 0.4]])
        assert fld.evaluate(pts).tobytes() == quadrature.evaluate(pts).tobytes()
        assert fld._terms == () and fld.max_nodes_used == quadrature.max_nodes_used
        for degrees in (frozenset(), frozenset({-1}), frozenset({-3})):  # no monomial of degree > 0
            fld = da.AveragedField(T1_SPEC, const_lin(f1=ones), degrees=degrees)
            quadrature = da.AveragedField(T1_SPEC, const_lin(f1=ones))
            assert fld.evaluate(pts).tobytes() == quadrature.evaluate(pts).tobytes()

    def test_a_recovery_that_raises_leaves_the_parents_error(self, monkeypatch):
        # a coefficient that divides by the inactive rate, which is 0.0, and
        # then a node budget that no point meets
        point = [0.4, 0.1]
        expr = da.parse_torque("theta_dot^2/phi_dot")
        lin = const_lin(f1=lambda t, v1, v2: expr.evaluate(t, 0.0, v1, 0.0, v2))
        degrees = torques.velocity_degrees(expr, "theta_dot")
        fields = [(da.AveragedField(T1_SPEC, lin, degrees=degrees), da.AveragedField(T1_SPEC, lin))]
        monkeypatch.setattr(da.averaging, "QUAD_MAX_NODES", 16)
        fields.append((pipeline_field("corollary2"), pipeline_field("corollary2", degrees=None)))
        for fld, parent in fields:
            want = raised(lambda: parent.evaluate(point))
            assert want is not None
            assert raised(lambda: fld.evaluate(point)) == want
            assert fld._terms == () and fld.max_nodes_used == parent.max_nodes_used
        assert degrees == {2}
        assert raised(lambda: fields[0][1](point)) == (da.DomainError, "division by zero")
        assert raised(lambda: fields[1][1](point))[0] is da.NoConvergenceError

    def test_where_the_polynomial_overflows_quadrature_raises(self):
        fld, quadrature = pipeline_field("corollary1"), pipeline_field("corollary1", degrees=None)
        for pts in ([[0.5, 0.2], [1e70, 0.0]], [math.nan, 1.0]):
            want = raised(lambda: quadrature.evaluate(pts))
            assert want is not None and raised(lambda: fld.evaluate(pts)) == want
        assert fld._terms

    @pytest.mark.parametrize("degrees", [..., None], ids=["polynomial", "quadrature"])
    @pytest.mark.parametrize(
        "point, sampled",
        [([1e70, 0.0], [16]), ([math.inf, 0.0], []), ([0.5, -math.inf], []), ([math.nan, 1.0], [])],
    )
    def test_a_value_outside_the_floats_is_a_domain_error_at_once(self, degrees, point, sampled):
        # at (1e70, 0) x * core overflows at the first 16 nodes, and sums of
        # inf never settle: the rule would double them to 2**20 nodes; a
        # point that is not finite is refused before any node
        fld = pipeline_field("corollary1", degrees)
        fld.evaluate([0.5, 0.2])  # the polynomial, where there is one, is recovered
        f1, times = fld.lin.f1, []
        fld.lin = replace(fld.lin, f1=lambda t, v1, v2: times.append(np.size(t)) or f1(t, v1, v2))
        assert raised(lambda: fld.evaluate(point)) == (
            da.DomainError, "OverflowError: result outside the floats"
        )
        assert times == sampled

    @pytest.mark.parametrize("shape", [(), (3,), (4, 3), (2, 2, 2)])
    @pytest.mark.parametrize("degrees", [..., None], ids=["polynomial", "quadrature"])
    def test_both_routes_refuse_points_of_another_shape(self, degrees, shape):
        fld = pipeline_field("corollary2", degrees)
        with pytest.raises(ValueError, match="alpha must have 2 components"):
            fld.evaluate(np.full(shape, 0.5))
