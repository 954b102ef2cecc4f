"""Newton zero search and simplicity certification."""

import math

import numpy as np
import pytest

import dumbbell_averager as da
from dumbbell_averager.zeros import DEFAULT_NEWTON_TOL, _newton_rounds, field_scale_on

SQRT3 = math.sqrt(3.0)
S17 = math.sqrt(17.0)

REF1 = da.BUNDLED_CASES["corollary1"].reference_field
REF2 = da.BUNDLED_CASES["corollary2"].reference_field


def quad_field(p):
    p = np.asarray(p, dtype=float)
    return np.stack([p[..., 0] ** 2 - p[..., 1], p[..., 0] * p[..., 1]], axis=-1)


class TestJacobian2D:
    def test_hand_derivative(self):
        jac = da.jacobian2d(quad_field, (1.0, 2.0))
        assert np.allclose(jac, [[2.0, -1.0], [2.0, 1.0]], atol=1e-8)

    def test_affine_field_exact(self):
        affine = lambda p: np.stack(
            [3.0 * p[..., 0] - 2.0 * p[..., 1] + 1.0, 0.5 * p[..., 0] + p[..., 1]],
            axis=-1,
        )
        jac = da.jacobian2d(affine, (0.3, -0.7))
        assert np.allclose(jac, [[3.0, -2.0], [0.5, 1.0]], atol=1e-10)

    def test_reference_case2_determinant(self):
        # hand partials of the bundled reference polynomials give -1/32
        jac = da.jacobian2d(REF2, (1.0, 2 * SQRT3 / 3))
        det = np.linalg.det(jac)
        assert det == pytest.approx(-1.0 / 32.0, abs=1e-8)


class TestNewton2D:
    def test_affine_one_step(self):
        affine = lambda p: np.stack([p[..., 0] - 1.0, p[..., 1] + 2.0], axis=-1)
        zero = da.newton2d(affine, (0.0, 0.0))
        assert np.allclose(zero.location, [1.0, -2.0], atol=1e-12)
        # one Newton step modulo finite-difference roundoff in the Jacobian
        assert len(zero.iterates) <= 3
        assert zero.classification == "Simple"

    def test_reference_case1_zero_and_determinant(self):
        zero = da.newton2d(REF1, (0.5, 0.1))
        assert np.allclose(zero.location, [SQRT3 / 3, 0.0], atol=1e-9)
        assert zero.jacobian_det == pytest.approx(1.0 / 384.0, abs=1e-9)
        assert zero.jacobian_det == pytest.approx(0.0026041666666666665, abs=1e-9)

    def test_constant_field_fails(self):
        constant = lambda p: np.broadcast_to(
            np.array([0.3, 0.4]), np.shape(np.asarray(p))
        ).copy()
        with pytest.raises(da.NoConvergenceError):
            da.newton2d(constant, (1.0, 1.0), max_iter=10)

    def test_singular_jacobian_is_a_convergence_failure(self):
        constant = lambda p: np.broadcast_to(
            np.array([0.3, 0.4]), np.shape(np.asarray(p))
        ).copy()
        with pytest.raises(da.SingularJacobianError):
            da.newton2d(constant, (1.0, 1.0), max_iter=10)

    def test_quadratic_convergence_rate(self):
        field = lambda p: np.stack(
            [p[..., 0] ** 2 - 2.0, p[..., 1] ** 2 - 3.0], axis=-1
        )
        zero = da.newton2d(field, (1.2, 1.5))
        target = np.array([math.sqrt(2.0), math.sqrt(3.0)])
        errors = [float(np.linalg.norm(it - target)) for it in zero.iterates]
        ratios = [
            e_next / e**2
            for e, e_next in zip(errors, errors[1:])
            if e > 1e-12 and e_next > 1e-15
        ]
        assert len(ratios) >= 3
        assert all(r < 10.0 for r in ratios[-3:])

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            da.newton2d(quad_field, (1.0, 1.0), tol=0.0)


class TestMultistart:
    def test_reference_case2_four_zeros_three_classes(self):
        domain = da.ZeroSearchDomain(r1=0.05, r2=5.0)
        zeros = da.multistart_zeros(REF2, domain)
        assert len(zeros) == 4
        expected = {
            (1.0, 2 * SQRT3 / 3),
            (1.0, -2 * SQRT3 / 3),
            ((1 - S17) / 4, 0.0),
            ((1 + S17) / 4, 0.0),
        }
        for z in zeros:
            assert any(
                abs(z.location[0] - ex) < 1e-9 and abs(z.location[1] - ey) < 1e-9
                for ex, ey in expected
            )
            assert z.classification == "Simple"
        groups = da.group_orbit_classes(zeros)
        assert len(groups) == 3
        sizes = sorted(len(g) for g in groups)
        assert sizes == [1, 1, 2]

    def test_reference_case2_signed_determinants(self):
        zeros = da.multistart_zeros(REF2, da.ZeroSearchDomain())
        by_loc = {
            (round(z.location[0], 6), round(z.location[1], 6)): z.jacobian_det
            for z in zeros
        }
        det_mirror = by_loc[(1.0, round(2 * SQRT3 / 3, 6))]
        assert det_mirror == pytest.approx(-1.0 / 32.0, abs=1e-9)
        assert by_loc[(1.0, round(-2 * SQRT3 / 3, 6))] == pytest.approx(
            -1.0 / 32.0, abs=1e-9
        )
        assert by_loc[(round((1 - S17) / 4, 6), 0.0)] == pytest.approx(
            -(17 + 7 * S17) / 512, abs=1e-9
        )
        assert by_loc[(round((1 + S17) / 4, 6), 0.0)] == pytest.approx(
            (7 * S17 - 17) / 512, abs=1e-9
        )

    def test_affine_field_has_no_annulus_zeros(self):
        # averaged field of a constant coefficient: only zero is the origin
        field = lambda p: np.stack([p[..., 1] / 6.0, p[..., 0] / 2.0], axis=-1)
        zeros = da.multistart_zeros(field, da.ZeroSearchDomain())
        assert zeros == []

    def test_dedup_idempotent_and_sorted(self):
        domain = da.ZeroSearchDomain()
        first = da.multistart_zeros(REF2, domain)
        second = da.multistart_zeros(REF2, domain)
        assert [tuple(z.location) for z in first] == [tuple(z.location) for z in second]
        angles = [math.atan2(z.location[1], z.location[0]) % (2 * math.pi) for z in first]
        assert angles == sorted(angles)

    def test_every_zero_reevaluates_below_twice_tol(self):
        tol = 1e-12
        for field in (REF1, REF2):
            for z in da.multistart_zeros(field, da.ZeroSearchDomain(), tol=tol):
                assert np.linalg.norm(np.asarray(field(z.location))) < 2 * tol

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            da.ZeroSearchDomain(r1=2.0, r2=1.0)
        with pytest.raises(ValueError):
            da.ZeroSearchDomain(r1=0.0, r2=1.0)

    def test_zeros_outside_annulus_discarded(self):
        zeros = da.multistart_zeros(REF2, da.ZeroSearchDomain(r1=0.05, r2=1.0))
        # of the four zeros only ((1-sqrt17)/4, 0) has norm below 1
        assert len(zeros) == 1
        assert zeros[0].location[0] == pytest.approx((1 - S17) / 4, abs=1e-9)
        assert np.linalg.norm(zeros[0].location) <= 1.0


def pipeline_field(name):
    case = da.BUNDLED_CASES[name]
    lin = da.extract_linearized(
        da.parse_torque(case.f1star_text), da.parse_torque(case.f2star_text)
    )
    return da.averaged_field(case.spec, lin)


def seed_by_seed(field, seeds, scale):
    """One newton2d solve per seed: its zero or the exception it raised."""
    out = []
    for seed in seeds:
        try:
            out.append(da.newton2d(field, seed, field_scale=scale))
        except da.NoConvergenceError as exc:
            out.append(exc)
    return out


def seed_by_seed_zeros(field, domain):
    """multistart_zeros spelled out with one newton2d solve per seed."""
    seeds = domain.seeds()
    found = []
    for zero in seed_by_seed(field, seeds, field_scale_on(field, seeds)):
        if isinstance(zero, da.NoConvergenceError):
            continue
        if domain.contains(zero.location) and all(
            np.linalg.norm(zero.location - kept.location) >= 1e-6 for kept in found
        ):
            found.append(zero)
    found.sort(
        key=lambda z: (
            math.atan2(z.location[1], z.location[0]) % (2 * math.pi),
            math.hypot(*z.location),
        )
    )
    return found


def assert_same_zeros(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.location, w.location)
        assert g.residual_norm == w.residual_norm
        assert np.array_equal(g.jacobian, w.jacobian)
        assert g.jacobian_det == w.jacobian_det
        assert g.classification == w.classification
        assert len(g.iterates) == len(w.iterates)
        assert all(np.array_equal(a, b) for a, b in zip(g.iterates, w.iterates))


class TestBatchedSearch:
    @pytest.mark.parametrize("name", ["REF1", "REF2", "corollary1", "corollary2"])
    def test_matches_seed_by_seed_newton(self, name):
        field = {"REF1": REF1, "REF2": REF2}.get(name) or pipeline_field(name)
        domain = da.ZeroSearchDomain(n_r=4, n_angle=8)
        assert_same_zeros(da.multistart_zeros(field, domain), seed_by_seed_zeros(field, domain))
        # every seed, kept or not, ends as its own solve does (the corollary1
        # pipeline field has no zero in the annulus: every seed fails)
        seeds = domain.seeds()
        scale = field_scale_on(field, seeds)
        batched = _newton_rounds(field, seeds, DEFAULT_NEWTON_TOL, 50, scale)
        for got, want in zip(batched, seed_by_seed(field, seeds, scale), strict=True):
            if isinstance(want, Exception):
                assert type(got) is type(want) and str(got) == str(want)
            else:
                assert_same_zeros([got], [want])

    def test_failing_evaluations_lose_only_their_seeds(self):
        def field(p):
            p = np.asarray(p, dtype=float)
            if np.any(p[..., 0] > 2.0):
                raise da.NoConvergenceError("no quadrature beyond x = 2")
            return REF2(p)

        domain = da.ZeroSearchDomain(n_r=8, n_angle=8)
        seeds = domain.seeds()
        assert any("beyond x = 2" in str(o) for o in seed_by_seed(field, seeds, 1.0))
        got = da.multistart_zeros(field, domain)
        assert_same_zeros(got, seed_by_seed_zeros(field, domain))
        # every zero of REF2 lies at x < 2, and some seeds still reach each
        assert len(got) == 4
        assert field_scale_on(field, seeds) > 0.0
