"""Newton zero search and simplicity certification."""

import math
import tracemalloc

import numpy as np
import pytest

import dumbbell_averager as da
from dumbbell_averager import averaging, cli, zeros
from dumbbell_averager.zeros import (
    DEDUP_DISTANCE,
    DEFAULT_NEWTON_TOL,
    MAX_SEEDS,
    _field_rows,
    _first_apart,
    _newton_rounds,
    field_scale_on,
)

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
        # one Newton step modulo finite-difference roundoff in the Jacobian:
        # the solve ends by its third round
        zero = da.newton2d(affine, (0.0, 0.0), max_iter=3)
        assert np.allclose(zero.location, [1.0, -2.0], atol=1e-12)
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
        calls = []

        def field(p):
            calls.append(np.array(p[0]))  # one seed: one point per call
            return np.stack([p[..., 0] ** 2 - 2.0, p[..., 1] ** 2 - 3.0], axis=-1)

        zero = da.newton2d(field, (1.2, 1.5))
        # each round starts with the Jacobian stencil at its iterate x:
        # x + h*e0, x - h*e0, x + h*e1, x - h*e1, so x is (p2[0], p0[1])
        iterates = [
            np.array([p2[0], p0[1]])
            for p0, p1, p2, p3 in zip(calls, calls[1:], calls[2:], calls[3:])
            if p0[1] == p1[1] and p2[0] == p3[0] and p0[0] > p2[0] > p1[0]
            and p2[1] > p0[1] > p3[1]
        ]
        assert np.array_equal(iterates[0], [1.2, 1.5])
        assert np.array_equal(iterates[-1], zero.location)
        target = np.array([math.sqrt(2.0), math.sqrt(3.0)])
        errors = [float(np.linalg.norm(it - target)) for it in iterates]
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
        for n_r, n_angle in ((MAX_SEEDS + 1, 1), (1, MAX_SEEDS + 1), (10**20, 32)):
            with pytest.raises(ValueError, match="n_r \\* n_angle"):
                da.ZeroSearchDomain(n_r=n_r, n_angle=n_angle)
        # constructing a domain draws no seeds, so the cap itself is safe here
        assert da.ZeroSearchDomain(n_r=MAX_SEEDS, n_angle=1).n_r == MAX_SEEDS

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
    return da.AveragedField(case.spec, lin)


def terms_free(field):
    """``field`` without its polynomial terms: the multistart searches it, and
    Newton takes central differences of it."""
    return lambda p: field(p)


def seed_by_seed(field, seeds, scale):
    """One newton2d solve per seed: its zero or the exception it raised."""
    out = []
    for seed in seeds:
        try:
            out.append(da.newton2d(field, seed, field_scale=scale))
        except da.NoConvergenceError as exc:
            out.append(exc)
    return out


def polar(z):
    """The order multistart_zeros sorts its zeros in: a zero with |y| at most
    the dedup distance lies on the first axis."""
    x, y = z.location
    on_axis = abs(y) <= zeros.DEDUP_DISTANCE
    return (math.atan2(0.0 if on_axis else y, x) % (2 * math.pi), math.hypot(x, y))


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
    found.sort(key=polar)
    return found


def assert_same_zeros(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.location, w.location)
        assert g.residual_norm == w.residual_norm
        assert np.array_equal(g.jacobian, w.jacobian)
        assert g.jacobian_det == w.jacobian_det
        assert g.classification == w.classification


class TestBatchedSearch:
    @pytest.mark.parametrize("name", ["REF1", "REF2", "corollary1", "corollary2"])
    def test_matches_seed_by_seed_newton(self, name):
        field = terms_free({"REF1": REF1, "REF2": REF2}.get(name) or pipeline_field(name))
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

    def test_seeds_are_evaluated_once(self):
        # the field scale and the first Newton round share one seed batch
        domain = da.ZeroSearchDomain(n_r=4, n_angle=8)
        seeds = domain.seeds()
        calls = []

        def field(p):
            calls.append(np.array(p, dtype=float))
            return REF2(p)

        want = seed_by_seed_zeros(terms_free(REF2), domain)
        assert_same_zeros(da.multistart_zeros(field, domain), want)
        assert sum(c.shape == seeds.shape and np.array_equal(c, seeds) for c in calls) == 1

    def test_memory_does_not_grow_with_the_iteration_budget(self):
        # a seed's state is its current iterate, not its path: the peak of a
        # 50-round search is that of a 5-round one
        seeds = da.ZeroSearchDomain(n_r=64, n_angle=64).seeds()

        def peak(max_iter):
            tracemalloc.start()
            try:
                _newton_rounds(REF2, seeds, DEFAULT_NEWTON_TOL, max_iter, None)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert abs(peak(50) - peak(5)) < 0.5e6

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

    def test_points_whose_quadrature_stops_cost_one_node_budget(self, monkeypatch):
        # with a budget of 32 nodes cos(v) averages at amplitudes up to 0.5
        # and not at 2 or 3: each point costs in the batch what it costs
        # alone, and the batch's rows and error texts are those of the
        # points evaluated alone
        monkeypatch.setattr(averaging, "QUAD_MAX_NODES", 32)
        samples = []

        def f4(t, v1, v2):
            samples.append(np.size(v2))
            return np.cos(v2)

        zero = lambda t, v1, v2: 0.0
        lin = da.LinearizedTorque(zero, zero, zero, f4)
        spec = da.ResonanceSpec(da.Mode.PRECESSION_T2, 1, 1)
        points = np.array([[0.1, 0.0], [2.0, 0.0], [0.3, 0.1], [3.0, 0.0], [0.5, 0.0]])
        alone, costs = [], []
        for point in points:
            samples.clear()
            try:
                alone.append(da.AveragedField(spec, lin)(point[None])[0])
            except da.NoConvergenceError as exc:
                alone.append(str(exc))
            costs.append(sum(samples))
        assert costs == [32] * 5
        samples.clear()
        field = da.AveragedField(spec, lin)
        values, errors = _field_rows(field, points)
        assert sum(samples) == sum(costs)
        assert {i: str(exc) for i, exc in errors.items()} == {1: alone[1], 3: alone[3]}
        assert "still moving" in alone[1]
        for i in (0, 2, 4):
            assert values[i].tobytes() == alone[i].tobytes()
        assert np.isnan(values[[1, 3]]).all()
        assert field.max_nodes_used == 32

    def test_a_field_that_holds_at_no_seed_raises_the_first_seeds_error(self):
        def field(p):
            raise da.NoConvergenceError(f"no quadrature at {np.asarray(p)[0].tolist()}")

        domain = da.ZeroSearchDomain(n_r=2, n_angle=4)
        with pytest.raises(da.NoConvergenceError) as caught:
            da.multistart_zeros(field, domain)
        assert str(caught.value) == f"no quadrature at {domain.seeds()[0].tolist()}"


def pairwise_dedup(points):
    """The dedup loop ``_first_apart`` replaced: a row is kept when no
    earlier kept row lies within DEDUP_DISTANCE, one norm per pair."""
    kept = []
    for i, point in enumerate(points):
        if any(float(np.linalg.norm(point - points[k])) < DEDUP_DISTANCE for k in kept):
            continue
        kept.append(i)
    return kept


class TestDedup:
    @pytest.mark.parametrize(
        "points, kept",
        [
            # A~B and B~C lie within the distance, A and C do not: B goes
            # with A, and C stays, since no kept zero lies near it
            ([(1.0, 0.0), (1.0 + 6e-7, 0.0), (1.0 + 1.2e-6, 0.0)], [0, 2]),
            ([(1.0, 2.0), (1.0, 2.0), (3.0, 4.0), (1.0, 2.0), (3.0, 4.0)], [0, 2]),
            # exactly DEDUP_DISTANCE apart is apart: the difference is
            # (0, -1e-6) exactly, and its norm is 1e-6
            ([(0.5, 0.0), (0.5, 1e-6)], [0, 1]),
            ([(0.5, 0.0), (0.5, 9.999e-7), (0.5, 1e-6)], [0, 2]),
            ([], []),
        ],
    )
    def test_matches_the_pairwise_loop(self, points, kept):
        points = np.array(points, dtype=float).reshape(-1, 2)
        assert _first_apart(points) == pairwise_dedup(points) == kept

    def test_zeros_outside_the_annulus_drop_out_before_dedup(self, monkeypatch):
        domain = da.ZeroSearchDomain(r1=0.5, r2=2.0)

        def zero(x, y):
            return zeros.CertifiedZero(np.array([x, y]), 0.0, np.eye(2), 1.0, "Simple")

        outcomes = [
            zero(2.0 + 4e-7, 0.0),  # outside, and within the distance of the next
            zero(2.0 - 4e-7, 0.0),
            da.NoConvergenceError("seed failed"),
            zero(0.0, 1.0),
            zero(0.0, 1.0 + 6e-7),  # a chain: this one goes, the next one stays
            zero(0.0, 1.0 + 1.2e-6),
            zero(0.5 - 1e-7, 0.0),  # inside r1, and within the distance of the next
            zero(0.5 + 1e-7, 0.0),
            zero(-1.5, 0.0),
            zero(-1.5, 0.0),  # an exact repeat
            zero(-1.5, -1e-6),  # exactly the distance away
            da.SingularJacobianError("singular"),
            zero(3.0, 3.0),  # outside r2
        ]
        monkeypatch.setattr(zeros, "_newton_rounds", lambda *args: outcomes)
        candidates = [
            z for z in outcomes
            if isinstance(z, zeros.CertifiedZero) and domain.contains(z.location)
        ]
        locations = np.array([z.location for z in candidates])
        want = sorted((candidates[i] for i in pairwise_dedup(locations)), key=polar)
        got = da.multistart_zeros(None, domain)
        assert [id(z) for z in got] == [id(z) for z in want]
        assert [tuple(z.location) for z in got] == [
            (0.5 + 1e-7, 0.0), (2.0 - 4e-7, 0.0), (0.0, 1.0), (0.0, 1.0 + 1.2e-6),
            (-1.5, 0.0), (-1.5, -1e-6),
        ]


class TestAxisAndAnnulus:
    def test_sign_noise_in_y_keeps_an_axis_zero_first(self, monkeypatch):
        # (1.28, -1e-15) lies on the first axis, at angle 0, not near 2 pi
        def zero(x, y):
            return zeros.CertifiedZero(np.array([x, y]), 0.0, np.eye(2), 1.0, "Simple")

        outcomes = [zero(-0.78, 0.0), zero(1.28, -1e-15), zero(0.5, -2e-6)]
        monkeypatch.setattr(zeros, "_newton_rounds", lambda *args: outcomes)
        got = da.multistart_zeros(None, da.ZeroSearchDomain())
        assert [tuple(z.location) for z in got] == [(1.28, -1e-15), (-0.78, 0.0), (0.5, -2e-6)]
        assert got == sorted(outcomes, key=polar)

    def test_contains_decides_rows_as_math_hypot_does(self):
        domain = da.ZeroSearchDomain(r1=0.05, r2=5.0)
        rng = np.random.default_rng(33)
        points = [rng.uniform(-6.0, 6.0, (2000, 2))]
        for r in (domain.r1, domain.r2):
            radii = np.array([np.nextafter(r, 0.0), r, np.nextafter(r, np.inf)])
            angles = rng.uniform(0.0, 2 * math.pi, (2000, 1))
            points.append(np.column_stack([(radii * np.cos(angles)).ravel(),
                                           (radii * np.sin(angles)).ravel()]))
            points.append(np.column_stack([radii, np.zeros(3)]))
            points.append(np.column_stack([np.zeros(3), -radii]))
        points = np.vstack(points + [[[math.nan, 1.0], [math.inf, 0.0]]])
        want = [domain.r1 <= math.hypot(x, y) <= domain.r2 for x, y in points.tolist()]
        # numpy's radius alone decides some of these points otherwise
        radius = np.hypot(points[:, 0], points[:, 1])
        assert ((domain.r1 <= radius) & (radius <= domain.r2)).tolist() != want
        got = domain.contains(points)
        assert got.dtype == bool and got.tolist() == want
        assert [domain.contains(p) for p in points] == want
        assert 0 < sum(want) < len(want)
        assert domain.contains(np.empty((0, 2))).tolist() == []

    @pytest.mark.parametrize("shape", [(), (3,), (4, 3), (2, 2, 2)])
    def test_contains_refuses_points_of_another_shape(self, shape):
        with pytest.raises(ValueError, match="point must have 2 components"):
            da.ZeroSearchDomain(r1=0.05, r2=5.0).contains(np.full(shape, 0.5))


def cli_field(name):
    """corollary ``name``'s pipeline field as the CLI builds it: a polynomial."""
    with cli.resources.as_file(cli.bundled_config_path(name)) as path:
        return cli._build_field(cli.load_config(path), "pipeline", name)[0]


class TestSubdivision:
    @pytest.mark.parametrize(
        "field, count",
        [("REF1", 1), ("REF2", 4), ("corollary1", 0), ("corollary2", 2)],
    )
    def test_each_bundled_search_is_complete(self, field, count):
        fld = {"REF1": REF1, "REF2": REF2}.get(field) or cli_field(field)
        assert fld.terms is not None
        found = da.multistart_zeros(fld, da.ZeroSearchDomain())
        assert found.verdict == "complete" and len(found) == count
        assert all(z.classification == "Simple" for z in found)

    def test_the_printed_fields_are_their_closed_forms(self):
        rng = np.random.default_rng(36)
        p = rng.uniform(-5.0, 5.0, (50, 2))
        x, y = p[:, 0], p[:, 1]
        case1 = np.column_stack([y * (3 * x**2 + y**2) / 48,
                                 (3 * (SQRT3 - 3 * x) * x**2 - (SQRT3 + 3 * x) * y**2) / 24])
        case2 = np.column_stack([(x - 1) * y / 8,
                                 (4 * x * (2 + x - 2 * x**2) - y**2 * (1 + 2 * x)) / 32])
        for field, want in ((REF1, case1), (REF2, case2)):
            assert np.allclose(field(p), want, rtol=1e-13, atol=1e-13)
            assert field(p[0]).shape == (2,) and field(p.reshape(5, 10, 2)).shape == (5, 10, 2)

    def test_the_corollary1_pipeline_search_evaluates_few_field_rows(self, monkeypatch):
        # the multistart evaluated 52,720 rows of this field and found no
        # zero; the subdivision proves that from the polynomial's terms and
        # evaluates the field only on the field-scale sample
        fld, rows = cli_field("corollary1"), []
        evaluate = averaging.AveragedField.evaluate

        def counted(self, alpha):
            rows.append(np.atleast_2d(np.asarray(alpha)).shape[0])
            return evaluate(self, alpha)

        monkeypatch.setattr(averaging.AveragedField, "evaluate", counted)
        found = da.multistart_zeros(fld, da.ZeroSearchDomain())
        assert found == [] and found.verdict == "complete"
        assert 0 < sum(rows) < 52_720 // 20

    @pytest.mark.parametrize("root, domain, listed", [
        (0.5, da.ZeroSearchDomain(r1=0.5, r2=2.0), [(0.5, 0.0)]),
        (2.0, da.ZeroSearchDomain(r1=0.5, r2=2.0), [(2.0, 0.0)]),
        # Newton ends 1 ulp inside r1, so only the verdict tells of this zero
        (-0.05, da.ZeroSearchDomain(), []),
    ])
    def test_a_zero_on_a_bound_is_undecided(self, root, domain, listed):
        # F = (x(x - root), y) vanishes at the origin and at (root, 0), on
        # the circle r1 or r2: its enclosure never leaves the circle
        field = averaging.Polynomial([(2, 0), (1, 0), (0, 1)], [[1, 0], [-root, 0], [0, 1]])
        found = da.multistart_zeros(field, domain)
        assert found.verdict == "1 box(es) undecided"
        # the undecided box is polished like a proved one
        assert [tuple(z.location) for z in found] == listed

    @pytest.mark.parametrize("offset", [1e-9, -1e-9])
    def test_a_zero_just_off_a_bound_is_decided(self, offset):
        domain = da.ZeroSearchDomain(r1=0.5, r2=2.0)
        root = 0.5 + offset
        field = averaging.Polynomial([(2, 0), (1, 0), (0, 1)], [[1, 0], [-root, 0], [0, 1]])
        found = da.multistart_zeros(field, domain)
        assert found.verdict == "complete"
        assert [tuple(z.location) for z in found] == ([(root, 0.0)] if offset > 0 else [])

    def test_a_degenerate_zero_is_undecided(self):
        # F = (x^2 + y^2) (x - 1 + iy)^2 as (real, imaginary) parts: a double
        # zero at (1, 0), which no Krawczyk test proves and where Newton's
        # determinant vanishes; the verdict says so instead of "complete"
        field = averaging.Polynomial(
            [(4, 0), (3, 0), (2, 0), (1, 2), (0, 2), (0, 4), (3, 1), (2, 1), (1, 3), (0, 3)],
            [[1, 0], [-2, 0], [1, 0], [-2, 0], [1, 0], [-1, 0], [0, 2], [0, -2], [0, 2], [0, -2]],
        )
        p = np.random.default_rng(36).uniform(-2.0, 2.0, (20, 2))
        square = (p[:, 0] - 1 + 1j * p[:, 1]) ** 2 * (p[:, 0] ** 2 + p[:, 1] ** 2)
        assert np.allclose(field(p), np.column_stack([square.real, square.imag]))
        domain = da.ZeroSearchDomain(r1=0.5, r2=2.0)
        points, undecided = zeros._subdivide(field.terms, domain)
        assert undecided == len(points) > 0
        assert np.abs(points - [1.0, 0.0]).max() < 1e-4
        found = da.multistart_zeros(field, domain)
        assert found == [] and found.verdict == f"{undecided} box(es) undecided"

    def test_a_field_without_terms_takes_the_multistart(self, monkeypatch):
        domain = da.ZeroSearchDomain(n_r=4, n_angle=8)
        monkeypatch.setattr(zeros, "_subdivide", None)  # never called
        found = da.multistart_zeros(terms_free(REF2), domain)
        assert found.verdict == "not proved complete: multistart from 32 seeds"
        assert_same_zeros(found, seed_by_seed_zeros(terms_free(REF2), domain))


def real_zeros(pair, symbols):
    """The real zeros of a polynomial pair, as floats: those of the pair with
    its common factor divided out, and those of each factor of the common
    factor, which must keep one sign, so that its real zeros are where its
    gradient vanishes too."""
    sympy = pytest.importorskip("sympy")
    common = sympy.gcd(*pair)
    systems = [[sympy.cancel(p / common) for p in pair]]
    for factor, _ in sympy.factor_list(common)[1]:
        assert factor.is_nonnegative or factor.is_nonpositive, factor
        systems.append([factor] + [sympy.diff(factor, s) for s in symbols])
    points = set()
    for system in systems:
        for solution in sympy.solve(system, symbols, dict=True):
            values = [complex(solution[s]) for s in symbols]
            if all(abs(v.imag) < 1e-12 for v in values):
                points.add(tuple(v.real for v in values))
    return points


@pytest.mark.parametrize(
    "name, want", [("corollary1", []), ("corollary2", [(1 + S17) / 4, (1 - S17) / 4])]
)
def test_the_pipeline_zeros_are_every_real_zero_of_the_closed_form(name, want):
    # the pipeline fields' closed forms are polynomials, so their real zeros
    # in the annulus are the complete set the multistart search must find
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y", real=True)
    pairs = {
        "corollary1": ((3 * x**2 + y**2) ** 2 * y / 48, (3 * x**2 + y**2) ** 2 * x / 16),
        "corollary2": (
            y * (4 + 4 * x - 4 * x**2 - y**2) / 16,
            (4 * x * (2 + x - 2 * x**2) - y**2 * (1 + 2 * x)) / 8,
        ),
    }
    domain = da.ZeroSearchDomain()
    exact = sorted(p for p in real_zeros(pairs[name], (x, y)) if domain.contains(p))
    assert exact == pytest.approx([(v, 0.0) for v in sorted(want)], abs=1e-12)
    with cli.resources.as_file(cli.bundled_config_path(name)) as path:
        fld, _ = cli._build_field(cli.load_config(path), "pipeline", name)
    found = sorted(tuple(z.location) for z in da.multistart_zeros(fld, domain))
    assert len(found) == len(exact)
    for f, e in zip(found, exact):
        assert np.abs(np.subtract(f, e)).max() <= 1e-9
