"""Curve primitives, curve fitting, and the lookup-table library."""

import math
import re
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize._numdiff import approx_derivative

import kinoplan.geometry as geometry
from kinoplan.collision import ObstacleShape, curve_in_collision, default_robot_footprint
from kinoplan.geometry import (FIT_TOL, SIMPSON_STEP, CurveLibrary, CurveParams,
                               LibraryConfig, Pose, _pinv, _shoot,
                               _shot_jacobian, build_curve_library, checked_pose, curvature_at,
                               dubins_length, fit_curve, heading_change,
                               integrate_endpoint, local_curve_samples,
                               max_abs_curvature, normalize_angle, reachable_within)


def straight(s_f):
    return CurveParams(0.0, 0.0, 0.0, 0.0, s_f)


class TestPose:
    def test_theta_normalized(self):
        assert Pose(0.0, 0.0, 3.0 * math.pi).theta == pytest.approx(math.pi)

    def test_transform_then_local_offset_roundtrip(self):
        base = Pose(1.0, -2.0, 0.7)
        other = base.transform(3.0, 0.5, -0.2)
        dx, dy, dth = base.local_offset(other)
        assert (dx, dy, dth) == pytest.approx((3.0, 0.5, -0.2))

    @given(st.tuples(st.floats(-1e5, 1e5), st.floats(-1e5, 1e5), st.floats(-10.0, 10.0)),
           st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),
                              st.floats(-10.0, 10.0)), min_size=1, max_size=6),
           st.booleans())
    def test_place_is_transform_per_row(self, pose, rows, with_heading):
        """x and y of each placed row are ``transform``'s to the bit; the
        heading is theta + dtheta, not wrapped."""
        base = Pose(*pose)
        rows = np.array(rows)
        placed = base.place(rows if with_heading else rows[:, :2])
        assert placed.shape == (len(rows), 3 if with_heading else 2)
        for row, got in zip(rows.tolist(), placed.tolist()):
            want = base.transform(*row)
            assert got[:2] == [want.x, want.y]
            if with_heading:
                assert got[2] == base.theta + row[2]

    @given(st.floats(-100.0, 100.0))
    def test_normalize_angle_range(self, theta):
        t = normalize_angle(theta)
        assert -math.pi < t <= math.pi
        assert math.isclose(math.sin(t), math.sin(theta), abs_tol=1e-9)
        assert math.isclose(math.cos(t), math.cos(theta), abs_tol=1e-9)


class TestCheckedPose:
    """The one place a pose's numbers are checked before a Pose is built:
    the CLI's --start and --goal, a scenario file's start, goal and parked
    lines, and ``ObstacleShape.footprint_at``."""

    def test_builds_a_pose_or_keeps_one(self):
        assert checked_pose("start", (1.0, 2.0, 3.5)) == Pose(1.0, 2.0, 3.5)
        pose = Pose(1.0, 2.0, 0.5)
        assert checked_pose("start", pose) is pose

    @pytest.mark.parametrize("value", [(0.0, 0.0, math.inf), (0.0, 0.0, -math.inf),
                                       (math.nan, 0.0, 0.0), Pose(0.0, math.inf, 0.0)])
    def test_refuses_non_finite_numbers(self, value):
        with pytest.raises(ValueError, match=f"^{re.escape(f'goal must be finite, got {value}')}$"):
            checked_pose("goal", value)

    def test_footprint_at_takes_a_pose_or_its_numbers(self):
        car = default_robot_footprint()
        assert ObstacleShape.footprint_at(car, (14.0, 0.8, 0.15)) == \
            ObstacleShape.footprint_at(car, Pose(14.0, 0.8, 0.15))
        for bad in ((14.0, 0.8, math.inf), Pose(14.0, math.nan, 0.15)):
            with pytest.raises(ValueError, match="^footprint pose must be finite, got "):
                ObstacleShape.footprint_at(car, bad)


class TestCurvature:
    def test_zero_polynomial(self):
        assert curvature_at(straight(5.0), 3.0) == 0.0

    def test_constant_term(self):
        assert curvature_at(CurveParams(0.1, 0.0, 0.0, 0.0, 6.0), 5.0) == 0.1

    def test_cubic_evaluation(self):
        p = CurveParams(0.0, 0.01, 0.002, 0.0003, 3.0)
        assert curvature_at(p, 2.0) == pytest.approx(0.0304, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            curvature_at(straight(2.0), 3.0)
        with pytest.raises(ValueError):
            heading_change(straight(2.0), -0.5)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CurveParams(0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            CurveParams(math.nan, 0.0, 0.0, 0.0, 1.0)

    def test_reversed_is_mirrored_curvature(self):
        p = CurveParams(0.1, -0.02, 0.005, -0.001, 3.0)
        r = p.reversed()
        for s in np.linspace(0.0, p.s_f, 7):
            assert curvature_at(r, s) == pytest.approx(
                -curvature_at(p, p.s_f - s), abs=1e-12)


class TestHeadingChange:
    def test_straight(self):
        assert heading_change(straight(10.0), 10.0) == 0.0

    def test_constant_curvature(self):
        assert heading_change(CurveParams(0.2, 0.0, 0.0, 0.0, 6.0), 5.0) == \
            pytest.approx(1.0, abs=1e-12)

    def test_linear_term(self):
        p = CurveParams(0.0, 0.04, 0.0, 0.0, 4.0)
        assert heading_change(p, 3.0) == pytest.approx(0.18, abs=1e-12)

    @given(st.floats(-0.3, 0.3), st.floats(-0.05, 0.05), st.floats(-0.01, 0.01),
           st.floats(-0.002, 0.002), st.floats(0.1, 8.0))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_equals_quadrature(self, k0, a, b, c, s):
        p = CurveParams(k0, a, b, c, 8.0)
        ref, _ = quad(lambda u: curvature_at(p, u), 0.0, s, epsabs=1e-12)
        assert heading_change(p, s) == pytest.approx(ref, abs=1e-9)


class TestIntegrateEndpoint:
    def test_straight_line(self):
        assert integrate_endpoint(straight(7.0)) == pytest.approx((7.0, 0.0, 0.0))

    def test_circular_arc(self):
        dx, dy, dth = integrate_endpoint(CurveParams(0.5, 0.0, 0.0, 0.0, math.pi))
        assert dx == pytest.approx(2.0, abs=1e-6)
        assert dy == pytest.approx(2.0, abs=1e-6)
        assert dth == pytest.approx(math.pi / 2.0, abs=1e-9)

    def test_against_adaptive_quadrature(self):
        p = CurveParams(0.0, 0.1, 0.01, 0.001, 4.0)
        ref_x, _ = quad(lambda s: math.cos(heading_change(p, s)), 0.0, p.s_f,
                        epsabs=1e-10, epsrel=1e-10)
        ref_y, _ = quad(lambda s: math.sin(heading_change(p, s)), 0.0, p.s_f,
                        epsabs=1e-10, epsrel=1e-10)
        dx, dy, _ = integrate_endpoint(p)
        assert dx == pytest.approx(ref_x, abs=1e-6)
        assert dy == pytest.approx(ref_y, abs=1e-6)


def cut(params, s):
    """The first s metres of the curve ``params``."""
    return replace(params, s_f=s)


def reference_curve_samples(params, ds):
    """The per-sample loop the one-pass ``local_curve_samples`` replaced: the
    endpoint of the curve cut at each sampled arc length, on its own Simpson
    grid, and zero at s = 0."""
    svals = list(np.arange(0.0, params.s_f, ds))
    if not svals or params.s_f - svals[-1] > 1e-9:
        svals.append(params.s_f)
    else:
        svals[-1] = params.s_f
    return np.array([integrate_endpoint(cut(params, s)) if s > 0.0 else (0.0, 0.0, 0.0)
                     for s in svals])


# Cubics with |kappa| <= 20 over [0, s_f]: kappa(s) = k0 + k1 u + k2 u^2 + k3 u^3
# with u = s / s_f and every |k_i| <= 5.
unit_kappa = st.floats(-5.0, 5.0)
sampled_cubics = st.builds(
    lambda k0, k1, k2, k3, sf: CurveParams(k0, k1 / sf, k2 / sf**2, k3 / sf**3, sf),
    unit_kappa, unit_kappa, unit_kappa, unit_kappa, st.floats(0.005, 6.0))


@st.composite
def sampled_curves_and_steps(draw):
    """A cubic and a step of 0.05, 0.1, 0.5 or 1 m, or one longer than the curve."""
    params = draw(sampled_cubics)
    ds = draw(st.one_of(st.sampled_from([0.05, 0.1, 0.5, 1.0]),
                        st.floats(1.001, 3.0).map(lambda f: f * params.s_f)))
    return params, ds


class TestSampleCurvePoses:
    """Curve poses: ``local_curve_samples`` offsets placed by ``Pose.transform``."""

    def test_straight_spacing(self):
        offsets = local_curve_samples(straight(1.0), 0.5)
        assert [o[0] for o in offsets] == pytest.approx([0.0, 0.5, 1.0])
        assert all(o[1] == 0.0 for o in offsets)

    def test_rotated_base(self):
        end = Pose(0.0, 0.0, math.pi / 2.0).transform(*local_curve_samples(straight(1.0), 1.0)[-1])
        assert (end.x, end.y, end.theta) == pytest.approx(
            (0.0, 1.0, math.pi / 2.0), abs=1e-12)

    def test_arc_endpoint_matches_integration(self):
        p = CurveParams(0.5, 0.0, 0.0, 0.0, math.pi)
        offsets = local_curve_samples(p, math.pi / 2.0)
        assert len(offsets) == 3
        assert tuple(offsets[-1].tolist()) == integrate_endpoint(p)

    @given(sampled_curves_and_steps())
    @example((straight(4.000000000054563), 0.1))
    @example((CurveParams(0.3, -0.1, 0.02, 0.0, 2.0 + 5e-10), 0.5))
    @example((CurveParams(-0.2, 0.05, 0.0, 0.001, 1.0 + 1e-9), 0.05))
    @example((CurveParams(0.1, 0.02, -0.01, 0.001, 6.0), 0.02))  # two passes
    @settings(max_examples=300, deadline=None)
    def test_one_pass_matches_per_sample_reference(self, curve_and_step):
        """Every row is the per-sample reference to the bit, a last step
        within 1e-9 m of s_f (merged into the endpoint) included."""
        params, ds = curve_and_step
        got = local_curve_samples(params, ds)
        want = reference_curve_samples(params, ds)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_read_only_and_cached(self):
        p = CurveParams(0.1, -0.02, 0.003, 0.0, 3.3)
        local_curve_samples.cache_clear()
        first = local_curve_samples(p, 0.5)
        assert local_curve_samples.cache_info().misses == 1
        assert local_curve_samples(p, 0.5) is first
        assert local_curve_samples(p, 0.5) is first
        info = local_curve_samples.cache_info()
        assert (info.hits, info.misses) == (2, 1)
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1.0

    def test_bad_ds(self):
        """A step that is not positive and finite raises ValueError in the
        sampler and in the curve check, which would otherwise check the end
        pose alone (negative), divide by zero or fail inside numpy (nan)."""
        spec = default_robot_footprint()
        for ds in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="sampling step"):
                local_curve_samples(straight(2.0), ds)
            with pytest.raises(ValueError, match="sampling step"):
                curve_in_collision(spec, straight(2.0), Pose(0.0, 0.0, 0.0), (), ds)


class TestFitCurve:
    def test_straight_solution(self):
        p = fit_curve(0.0, (5.0, 0.0, 0.0), kappa_max=0.5)
        assert p is not None
        assert p.s_f == pytest.approx(5.0, abs=1e-3)
        assert max_abs_curvature(p) < 1e-4

    def test_recovers_circular_arc(self):
        p = fit_curve(0.5, (2.0, 2.0, math.pi / 2.0), kappa_max=0.7)
        assert p is not None
        assert p.kappa0 == 0.5
        assert p.s_f == pytest.approx(math.pi, abs=1e-2)
        dx, dy, dth = integrate_endpoint(p)
        assert (dx, dy, dth) == pytest.approx((2.0, 2.0, math.pi / 2.0), abs=1e-4)

    def test_curvature_bound_rejection(self):
        # A half-circle to (0, 2) needs kappa = 1; a bound of 0.2 forbids it.
        assert fit_curve(0.0, (0.001, 2.0, math.pi), kappa_max=0.2) is None

    def test_degenerate_goal(self):
        assert fit_curve(0.0, (0.0, 0.0, 0.0), kappa_max=0.5) is None


def arc_sequence_end(segments):
    """Exact end (x, y, theta) of constant-curvature segments (kappa, length) from the origin."""
    x = y = th = 0.0
    for kappa, length in segments:
        # Chord of length L * sin(u) / u at the mid-arc heading, u = kappa * L / 2:
        # differencing sines and dividing by kappa cancels for tiny kappa.
        half = 0.5 * kappa * length
        chord = length * (math.sin(half) / half if half != 0.0 else 1.0)
        x, y = x + chord * math.cos(th + half), y + chord * math.sin(th + half)
        th += kappa * length
    return x, y, th


class TestDubinsLength:
    def test_straight_target_is_its_distance(self):
        assert dubins_length(3.0, 0.0, 0.0, 2.0) == pytest.approx(3.0, abs=1e-12)
        assert dubins_length(7.5, 0.0, 0.0, 0.1) == pytest.approx(7.5, abs=1e-12)

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_quarter_circle(self, side):
        r = 2.0
        got = dubins_length(r, side * r, side * math.pi / 2.0, r)
        assert got == pytest.approx(math.pi * r / 2.0, abs=1e-9)

    def test_pure_arcs_with_near_zero_segments(self):
        """A single arc, alone or beside a zero or 1e-13 segment, comes out
        at its own length: a rounding error must not wrap a zero segment to
        a full turn (2 pi R longer)."""
        rng = np.random.default_rng(7)
        for _ in range(20000):
            radius = float(rng.uniform(0.2, 20.0))
            angle = float(rng.uniform(1e-6, 2.0 * math.pi))
            arc = (float(rng.choice([-1.0, 1.0])) / radius, angle * radius)
            tiny = (float(rng.choice([-1.0, 0.0, 1.0])) / radius, float(rng.choice([0.0, 1e-13])))
            segments = [arc, tiny] if rng.random() < 0.5 else [tiny, arc]
            got = dubins_length(*arc_sequence_end(segments), radius)
            assert got <= arc[1] + 1e-6 * radius
            if angle <= math.pi:  # a single arc up to a half turn is the shortest path
                assert got >= arc[1] - 1e-6 * radius

    @given(st.lists(st.tuples(st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0)),
                              st.one_of(st.just(0.0), st.floats(0.0, 8.0))),
                    min_size=1, max_size=5),
           st.floats(0.2, 20.0))
    @settings(max_examples=500, deadline=None)
    def test_never_above_a_bounded_curvature_path(self, segments, radius):
        """No arc/line sequence with |kappa| <= 1/R is shorter (Dubins 1957)."""
        segments = [(k / radius, length) for k, length in segments]
        total = sum(length for _, length in segments)
        assert dubins_length(*arc_sequence_end(segments), radius) <= total + 1e-6 * radius


def bounded_cubic(rng, kappa_max, s_min, s_max):
    """A random cubic whose sampled |kappa| passes ``fit_curve``'s check, or None.

    The curvature at four knots is drawn at +-kappa_max (near bang-bang, the
    shape of the shortest paths), uniformly, or constant; the polynomial
    through them is scaled down to the bound.
    """
    s_f = float(rng.uniform(s_min, s_max))
    mode = rng.integers(3)
    if mode == 0:
        knots = rng.choice([-kappa_max, kappa_max], 4)
    elif mode == 1:
        knots = rng.uniform(-kappa_max, kappa_max, 4)
    else:
        knots = np.full(4, rng.uniform(-kappa_max, kappa_max))
    coefs = np.polyfit(np.linspace(0.0, s_f, 4), knots, 3)[::-1]
    peak = max_abs_curvature(CurveParams(*coefs, s_f))
    if peak > kappa_max:
        coefs = coefs * (kappa_max / peak)
    params = CurveParams(*coefs, s_f)
    return params if max_abs_curvature(params) <= kappa_max + 1e-9 else None


class TestReachableWithin:
    """The gate before ``fit_curve`` never skips a fit its caller would keep."""

    @staticmethod
    def perturbed_ends(rng, params, n):
        """The Simpson endpoint moved by up to 1e-4 (the accepted fit error)."""
        end = np.asarray(integrate_endpoint(params))
        dirs = rng.standard_normal((n, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        scale = np.where(rng.random(n) < 0.5, 1.0, rng.random(n))[:, None]
        return end + 1e-4 * scale * dirs

    def test_sound_on_bounded_cubics(self):
        """Cubics with sampled |kappa| <= kappa_max pass the gate at their own
        length from any goal within the fit tolerance of their endpoint.  The
        lengths cover try_connect (chords 0.8-4.5 m, s_f below the robot's
        4.6 m) and the library (r 1-4 m, s_f up to 4.14 m) and go below."""
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(6000):
            kappa_max = float(rng.choice([0.05, 0.3, 0.7, 0.7, 1.5, 5.0]))
            params = bounded_cubic(rng, kappa_max, 0.05, 6.0)
            if params is None:
                continue
            for goal in self.perturbed_ends(rng, params, 1):
                assert reachable_within(tuple(goal), kappa_max, params.s_f), (params, goal)
                checked += 1
        assert checked > 5000

    @pytest.mark.parametrize("kappa_max", [0.05, 0.7, 5.0])
    def test_sound_on_arcs_at_the_bound(self, kappa_max):
        """An arc at |kappa| = kappa_max ends on the edge of the reachable set,
        where the shortest length jumps; every direction of the tolerance."""
        rng = np.random.default_rng(3)
        for s_f in np.linspace(0.07, 6.0, 40):
            for sign in (1.0, -1.0):
                params = CurveParams(sign * kappa_max, 0.0, 0.0, 0.0, float(s_f))
                for goal in self.perturbed_ends(rng, params, 24):
                    assert reachable_within(tuple(goal), kappa_max, params.s_f), (params, goal)

    def test_sampled_curvature_within_markov_bound(self):
        """The gate's first margin: the true peak |kappa| of a cubic is at most
        its sampled peak over N intervals divided by 1 - 12/N^2."""
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(3000):
            s_f = float(rng.uniform(0.04, 1.0))
            coefs = rng.standard_normal(4) / s_f ** np.arange(4)
            params = CurveParams(*coefs, s_f)
            n = max(2, math.ceil(s_f / SIMPSON_STEP))
            k0, a, b, c = coefs
            roots = np.roots([3.0 * c, 2.0 * b, a])
            s = [0.0, s_f] + [r.real for r in roots if abs(r.imag) < 1e-12 and 0 < r.real < s_f]
            peak = float(np.max(np.abs(curvature_at(params, np.asarray(s)))))
            worst = max(worst, (peak / max_abs_curvature(params) - 1.0) * n * n)
        assert 0.0 < worst <= 12.0

    def test_rejects_what_no_short_curve_reaches(self):
        assert reachable_within((4.0, 0.0, 0.0), 0.7, 4.6)
        assert reachable_within((4.6, 0.0, 0.0), 0.7, 4.6)
        assert not reachable_within((4.7, 0.0, 0.0), 0.7, 4.6)
        assert not reachable_within((1.0, 0.0, math.pi), 0.7, 4.6)  # a loop
        assert not reachable_within((0.5, 3.0, 0.0), 0.7, 4.6)  # a sideways step

    def test_default_library_skips_only_discarded_fits(self):
        """Every default-grid target the gate skips fits to None or to a curve
        over ``max_arc_length``, the ones ``build_curve_library`` drops."""
        cfg = LibraryConfig()
        skipped = 0
        for r in np.linspace(cfg.r_min, cfg.r_max, cfg.n_r):
            for beta in np.linspace(cfg.beta_min, cfg.beta_max, cfg.n_beta):
                for factor in cfg.dtheta_factors:
                    target = (r * math.cos(beta), r * math.sin(beta), beta * factor)
                    if reachable_within(target, cfg.kappa_max, cfg.max_arc_length):
                        continue
                    skipped += 1
                    params = fit_curve(0.0, target, cfg.kappa_max)
                    assert params is None or params.s_f > cfg.max_arc_length
        assert skipped == 178  # of 544 targets


class TestEndpointJacobian:
    CASES = [
        (0.0, 0.0, 0.0, 0.0, 2.0),
        (0.3, -0.2, 0.05, -0.01, 3.7),
        (-0.5, 0.4, -0.1, 0.02, 1.3),
        (0.1, 0.3, -0.2, 0.04, 4.1),
        (0.0, 1.2, -0.9, 0.15, 2.5),
        (0.7, -0.6, 0.0, 0.0, 0.37),
    ]

    @pytest.mark.parametrize("k0,a,b,c,sf", CASES)
    def test_endpoint_is_integrate_endpoint(self, k0, a, b, c, sf):
        p = CurveParams(k0, a, b, c, sf)
        end, _ = _shoot(p)
        assert tuple(end) == integrate_endpoint(p)

    @pytest.mark.parametrize("k0,a,b,c,sf", CASES)
    def test_matches_central_differences(self, k0, a, b, c, sf):
        p = CurveParams(k0, a, b, c, sf)
        end, nodes = _shoot(p)
        jac = _shot_jacobian(p, end, nodes)

        def endpoint(u):
            return np.array(integrate_endpoint(CurveParams(k0, *u)))

        numeric = approx_derivative(endpoint, np.array([a, b, c, sf]), method="3-point")
        np.testing.assert_allclose(jac, numeric, rtol=1e-5,
                                   atol=1e-7 * np.max(np.abs(numeric)))


def endpoint_jacobian_reference(params):
    """The endpoint Jacobian as first written: public heading/curvature helpers
    on an ``np.linspace`` grid, endpoint and Jacobian in one pass."""
    sf = params.s_f
    n = max(2, int(math.ceil(sf / SIMPSON_STEP)))
    n += n % 2
    grid = np.linspace(0.0, sf, n + 1)
    th = heading_change(params, grid)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h3 = (sf / n) / 3.0
    cos, sin = np.cos(th), np.sin(th)
    dx = h3 * float(w @ cos)
    dy = h3 * float(w @ sin)
    s2 = grid * grid
    kappa = curvature_at(params, grid)
    dth = np.stack([s2 / 2.0, s2 * grid / 3.0, s2 * s2 / 4.0, kappa * grid / sf])
    jac = np.empty((3, 4))
    jac[0] = -h3 * (dth @ (w * sin))
    jac[1] = h3 * (dth @ (w * cos))
    jac[0, 3] += dx / sf
    jac[1, 3] += dy / sf
    jac[2] = (sf * sf / 2.0, sf**3 / 3.0, sf**4 / 4.0, kappa[-1])
    return np.array([dx, dy, float(th[-1])]), jac


def fit_curve_reference(start_kappa, goal_offset, kappa_max, seed=None, max_iters=80):
    """``fit_curve`` with a Jacobian for every backtracking trial, as first
    written; returns (result, how the fit ended)."""
    gx, gy, gth = goal_offset
    chord = math.hypot(gx, gy)
    if chord < 1e-6:
        return None, "degenerate"
    if seed is not None:
        u = np.array([seed.a, seed.b, seed.c, seed.s_f])
    else:
        u = np.array([0.0, 0.0, 0.0, max(chord, 0.1)])
    goal = np.array([gx, gy, gth])

    def residual(u):
        a, b, c, sf = u
        sf = max(sf, 1e-3)
        p = CurveParams(start_kappa, a, b, c, sf)
        end, jac = endpoint_jacobian_reference(p)
        return end - goal, jac, p

    f, J, p = residual(u)
    cost = float(f @ f)
    for _ in range(max_iters):
        if cost < FIT_TOL**2:
            break
        step = np.linalg.pinv(J, rcond=1e-10) @ f
        lam = 1.0
        for _ in range(20):
            u_new = u - lam * step
            u_new[3] = max(u_new[3], 1e-3)
            try:
                f_new, J_new, p_new = residual(u_new)
            except (ValueError, FloatingPointError):
                lam *= 0.5
                continue
            c_new = float(f_new @ f_new)
            if c_new < cost:
                u, f, J, p, cost = u_new, f_new, J_new, p_new, c_new
                break
            lam *= 0.5
        else:
            return None, "line search"
    if cost >= 1e-8:
        return None, "iterations"
    if max_abs_curvature(p) > kappa_max + 1e-9:
        return None, "curvature"
    return p, "converged"


def same_fit(got, want):
    if want is None:
        return got is None
    return got is not None and np.array(astuple(got)).tobytes() == \
        np.array(astuple(want)).tobytes()


curve_coefs = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-0.5, 0.5),
                        st.floats(-0.2, 0.2), st.floats(1e-3, 6.0))


class TestShot:
    """The split shot/Jacobian against the one-pass reference, bit for bit."""

    @given(curve_coefs)
    @settings(max_examples=300, deadline=None)
    def test_shot_and_jacobian_match_reference(self, coefs):
        p = CurveParams(*coefs)
        end, nodes = _shoot(p)
        ref_end, ref_jac = endpoint_jacobian_reference(p)
        assert tuple(end) == integrate_endpoint(p)
        assert end.tobytes() == ref_end.tobytes()
        assert _shot_jacobian(p, end, nodes).tobytes() == ref_jac.tobytes()

    @given(curve_coefs, st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_partial_offset_matches_linspace_reference(self, coefs, frac):
        p = CurveParams(*coefs)
        s = frac * p.s_f
        if s <= 0.0:
            return
        n = max(2, int(math.ceil(s / SIMPSON_STEP)))
        n += n % 2
        th = heading_change(p, np.linspace(0.0, s, n + 1))
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        h3 = (s / n) / 3.0
        want = (h3 * float(w @ np.cos(th)), h3 * float(w @ np.sin(th)), float(th[-1]))
        assert np.array(integrate_endpoint(cut(p, s))).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("k0,goal,kappa_max,max_iters,ending", [
        (0.5, (2.0, 2.0, math.pi / 2.0), 0.7, 80, "converged"),
        (0.0, (1.0, 0.0, math.pi), 0.7, 80, "curvature"),
        (0.0, (0.001, 2.0, math.pi), 0.2, 80, "line search"),
        (0.0, (0.5, 3.0, 0.0), 0.7, 80, "iterations"),
        (0.0, (3.0, 1.0, 0.5), 1.0, 1, "iterations"),
        (0.0, (-2.0, 0.5, 0.0), 0.7, 80, "line search"),
        (0.5, (-3.0, 0.0, math.pi), 0.7, 80, "line search"),
        (0.0, (0.0, 0.0, 0.0), 0.7, 80, "degenerate"),
    ])
    def test_fit_curve_matches_reference_on_each_ending(self, monkeypatch, k0, goal,
                                                       kappa_max, max_iters, ending):
        want, how = fit_curve_reference(k0, goal, kappa_max, max_iters=max_iters)
        assert how == ending
        monkeypatch.setattr(geometry, "FIT_MAX_ITERS", max_iters)
        assert same_fit(fit_curve(k0, goal, kappa_max), want)

    @given(st.floats(-0.7, 0.7), st.floats(0.05, 6.0), st.floats(-math.pi, math.pi),
           st.floats(-3.0, 3.0), st.floats(0.2, 2.0),
           st.one_of(st.none(), curve_coefs.map(lambda c: CurveParams(0.0, *c[1:]))))
    @settings(max_examples=80, deadline=None)
    def test_fit_curve_matches_reference(self, k0, r, bearing, dtheta, kappa_max, seed):
        goal = (r * math.cos(bearing), r * math.sin(bearing), dtheta)
        want, _ = fit_curve_reference(k0, goal, kappa_max, seed=seed)
        assert same_fit(fit_curve(k0, goal, kappa_max, seed=seed), want)


class TestPinv:
    """``_pinv`` against ``np.linalg.pinv(J, rcond=1e-10)``, bit for bit."""

    @staticmethod
    def assert_same(jac):
        assert _pinv(jac).tobytes() == np.linalg.pinv(jac, rcond=1e-10).tobytes()

    @given(st.lists(st.floats(-1e3, 1e3), min_size=12, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy(self, values):
        self.assert_same(np.reshape(values, (3, 4)))

    # Rank-deficient matrices, where the 1e-10 cutoff drops a singular value.
    ROW0, ROW1, ROW2 = [1.0, 2.0, 0.5, -1.0], [0.3, -0.7, 2.0, 0.1], [-1.2, 0.4, 0.9, 3.0]

    @pytest.mark.parametrize("rows", [
        [ROW0, [0.0] * 4, ROW2],
        [ROW0, ROW1, ROW0],
        [ROW0, ROW1, [1e-12 * v for v in ROW2]],
    ], ids=["zero-row", "equal-rows", "tiny-row"])
    def test_matches_numpy_at_the_cutoff(self, rows):
        jac = np.array(rows)
        s = np.linalg.svd(jac, compute_uv=False)
        assert s[-1] <= 1e-10 * s[0]
        self.assert_same(jac)


class TestLibrary:
    # Populated cells of the default library, as {beta column j: r rows i}.
    DEFAULT_CELLS = {
        3: [5, 6], 4: [4, 5, 6], 5: [2, 3, 4, 5, 6, 7], 6: [1, 2, 3, 4, 5, 6, 7],
        7: list(range(8)), 8: list(range(8)), 9: list(range(8)),
        10: [1, 2, 3, 4, 5, 6, 7], 11: [2, 3, 4, 5, 6, 7], 12: [4, 5, 6], 13: [5, 6],
    }

    def test_default_cells(self, library):
        cells = {(i, j) for j, rows in self.DEFAULT_CELLS.items() for i in rows}
        assert len(cells) == 60
        assert set(library.entries) == cells

    def test_fits_each_target_once(self, library, monkeypatch):
        calls = []

        def counting(start_kappa, goal_offset, kappa_max, seed=None, **kwargs):
            calls.append((start_kappa, goal_offset, kappa_max, seed))
            return fit_curve(start_kappa, goal_offset, kappa_max, seed=seed, **kwargs)

        monkeypatch.setattr(geometry, "fit_curve", counting)
        built = build_curve_library()
        assert len(calls) == 374
        assert len(set(calls)) == len(calls)
        assert built.entries == library.entries

    def test_straight_cell(self, library):
        i, j = library.cell_index(2.0, 0.0)
        entry = library.entries[(i, j)]
        assert entry.beta == pytest.approx(0.0, abs=1e-9)
        assert entry.dy == pytest.approx(0.0, abs=1e-4)
        assert entry.params.s_f == pytest.approx(entry.r, abs=1e-3)

    def test_curvature_bound_holds_everywhere(self, library):
        for entry in library.entries.values():
            assert max_abs_curvature(entry.params) <= library.config.kappa_max + 1e-9
            assert entry.params.s_f <= library.config.max_arc_length + 1e-9

    def test_endpoint_on_target_circle(self, library):
        for entry in library.entries.values():
            assert math.hypot(entry.dx, entry.dy) == pytest.approx(entry.r, abs=1e-4)
            assert math.atan2(entry.dy, entry.dx) == pytest.approx(entry.beta, abs=1e-4)

    def test_reflection_symmetry(self, library):
        cfg = library.config
        for (i, j), entry in library.entries.items():
            mirror = library.entries.get((i, cfg.n_beta - 1 - j))
            assert mirror is not None, "asymmetric feasibility"
            assert mirror.dx == pytest.approx(entry.dx, abs=1e-3)
            assert mirror.dy == pytest.approx(-entry.dy, abs=1e-3)
            assert mirror.dtheta == pytest.approx(-entry.dtheta, abs=1e-3)

    def test_lookup_clamps(self, library):
        cfg = library.config
        assert library.cell_index(0.1, 0.0) == library.cell_index(cfg.r_min, 0.0)
        assert library.cell_index(100.0, 2.0) == \
            library.cell_index(cfg.r_max, cfg.beta_max)
        # Clamping is idempotent and lookup is total.
        assert library.lookup(1e6, -1e6) is library.lookup(cfg.r_max, cfg.beta_min)

    @staticmethod
    def argmin_cell(lib, r, beta):
        """The nearest cell by a full argmin scan over both grid axes."""
        cfg = lib.config
        r = min(max(r, cfg.r_min), cfg.r_max)
        beta = min(max(beta, cfg.beta_min), cfg.beta_max)
        r_grid = np.linspace(cfg.r_min, cfg.r_max, cfg.n_r)
        b_grid = np.linspace(cfg.beta_min, cfg.beta_max, cfg.n_beta)
        return (int(np.argmin(np.abs(r_grid - r))), int(np.argmin(np.abs(b_grid - beta))))

    @given(st.floats(-1.0, 8.0), st.floats(-3.0, 3.0))
    @settings(max_examples=500)
    def test_cell_index_matches_argmin(self, library, r, beta):
        assert library.cell_index(r, beta) == self.argmin_cell(library, r, beta)

    @given(st.floats(-5.0, 5.0), st.floats(0.01, 10.0), st.integers(1, 40),
           st.floats(-5.0, 5.0), st.floats(-1.0, 12.0), st.data())
    @settings(max_examples=300)
    def test_cell_index_matches_argmin_on_any_grid(self, r_min, r_span, n_r, r_lo, r_hi,
                                                    data):
        cfg = LibraryConfig(r_min=r_min, r_max=r_min + r_span, n_r=n_r)
        lib = CurveLibrary(cfg, {})
        grid = np.linspace(cfg.r_min, cfg.r_max, n_r)
        k = data.draw(st.integers(0, max(n_r - 2, 0)))
        upper = grid[min(k + 1, n_r - 1)]
        # Random values, clamped ones beyond both ends, grid points, exact
        # midpoints between neighbours and the floats next to them.
        mid = 0.5 * (grid[k] + upper)
        values = [r_lo, r_hi, r_min - 1.0, cfg.r_max + 1.0, grid[k], upper, mid,
                  np.nextafter(mid, -np.inf), np.nextafter(mid, np.inf),
                  np.nextafter(grid[k], np.inf), np.nextafter(upper, -np.inf)]
        for r in values:
            for beta in (cfg.beta_min, 0.5 * (cfg.beta_min + cfg.beta_max), r_lo):
                assert lib.cell_index(float(r), beta) == self.argmin_cell(lib, float(r), beta)

    def test_cell_index_ties_go_to_the_lower_index(self):
        cfg = LibraryConfig(r_min=0.0, r_max=4.0, n_r=5, beta_min=-1.0, beta_max=1.0,
                            n_beta=3)
        lib = CurveLibrary(cfg, {})
        assert lib.cell_index(0.5, -0.5) == (0, 0)
        assert lib.cell_index(2.5, 0.5) == (2, 1)

    def test_exact_grid_lookup(self, library):
        entry = next(iter(library.entries.values()))
        assert library.lookup(entry.r, entry.beta) is entry

    def test_save_load_roundtrip(self, library, tmp_path):
        path = tmp_path / "lib.csv"
        library.save_csv(path)
        loaded = CurveLibrary.load_csv(path)
        assert loaded.entries.keys() == library.entries.keys()
        for key, entry in library.entries.items():
            other = loaded.entries[key]
            assert other.params == entry.params
            assert (other.dx, other.dy, other.dtheta) == \
                (entry.dx, entry.dy, entry.dtheta)

    @staticmethod
    def saved_lines(library, tmp_path):
        path = tmp_path / "lib.csv"
        library.save_csv(path)
        return path, path.read_text().splitlines()

    def test_load_rejects_truncated_row(self, library, tmp_path):
        path, lines = self.saved_lines(library, tmp_path)
        lines[7] = ",".join(lines[7].split(",")[:6])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"lib\.csv:8: 6 fields, expected 11"):
            CurveLibrary.load_csv(path)

    def test_load_rejects_wrong_version(self, library, tmp_path):
        path, lines = self.saved_lines(library, tmp_path)
        lines[0] = "# kinoplan curve library v9"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"lib\.csv:1: expected"):
            CurveLibrary.load_csv(path)

    @pytest.mark.parametrize("line,text,message", [
        (3, "1.0,4.0,-1.0,1.0,0.7,8,17", r":3: 7 fields, expected 8"),
        (3, "1.0,4.0,-1.0,1.0,0.7,8,x,4.14", r":3: bad header"),
        (3, "1.0,4.0,-1.0,1.0,0.7,0,17,4.14", r":3: bad header"),
        (5, "0,99,1,0,0,0,1,1,0,0,0", r":5: bad row: cell \(0, 99\)"),
        (5, "0,0,1,0,0,0,-1,1,0,0,0", r":5: bad row: invalid curve"),
        (5, "0,0,1,0,0,0,nope,1,0,0,0", r":5: bad row"),
        (5, "0,0,nan,0,0,0,1,1,0,0,0", r":5: bad row: r must be finite, got nan$"),
        (5, "0,0,1,0,0,0,1,inf,0,0,0", r":5: bad row: dx must be finite, got inf$"),
        (5, "0,0,1,0,0,0,1,1,-inf,0,0", r":5: bad row: dy must be finite, got -inf$"),
        (5, "0,0,1,0,0,0,1,1,0,nan,0", r":5: bad row: dtheta must be finite, got nan$"),
        (5, "0,0,1,0,0,0,1,1,0,0,nan", r":5: bad row: beta must be finite, got nan$"),
    ])
    def test_load_reports_file_and_line(self, library, tmp_path, line, text, message):
        path, lines = self.saved_lines(library, tmp_path)
        lines[line - 1] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message):
            CurveLibrary.load_csv(path)

    def test_load_rejects_repeated_cell(self, library, tmp_path):
        """A second row for a cell used to replace the first without a word."""
        path, lines = self.saved_lines(library, tmp_path)
        k = next(n for n, line in enumerate(lines) if line.startswith("1,8,"))
        row = lines[k].split(",")
        row[6] = "9.5"  # s_f
        path.write_text("\n".join(lines + [",".join(row)]) + "\n")
        with pytest.raises(ValueError, match=rf"lib\.csv:{len(lines) + 1}: bad row: "
                                             rf"cell \(1, 8\) already set on line {k + 1}$"):
            CurveLibrary.load_csv(path)

    def test_load_rejects_missing_header(self, tmp_path):
        path = tmp_path / "lib.csv"
        path.write_text("# kinoplan curve library v1\n# only comments\n")
        with pytest.raises(ValueError, match=r"lib\.csv:2: missing header"):
            CurveLibrary.load_csv(path)

    def test_single_cell_config(self):
        cfg = LibraryConfig(r_min=2.0, r_max=2.0, n_r=1, beta_min=0.0,
                            beta_max=0.0, n_beta=1)
        lib = build_curve_library(cfg)
        assert len(lib.entries) == 1
        entry = lib.entries[(0, 0)]
        assert entry.params.s_f == pytest.approx(2.0, abs=1e-3)
        assert max_abs_curvature(entry.params) < 1e-4

    @pytest.mark.parametrize("bad", [
        dict(r_min=3.0, r_max=1.0), dict(r_min=2.0, r_max=2.0),
        dict(beta_min=0.5, beta_max=-0.5), dict(n_r=0), dict(n_beta=-1),
        dict(kappa_max=0.0), dict(max_arc_length=-1.0), dict(kappa_max=math.nan),
        dict(dtheta_factors=()),
    ])
    def test_config_rejects_bad_grid(self, bad):
        with pytest.raises(ValueError):
            LibraryConfig(**bad)

    def test_config_file_casts_by_field_type(self, tmp_path):
        path = tmp_path / "lib.cfg"
        path.write_text("n_r = 3  # rows\nr_max = 3\ndtheta_factors = 1 2\n")
        cfg = LibraryConfig.from_file(path)
        assert cfg == LibraryConfig(n_r=3, r_max=3.0, dtheta_factors=(1.0, 2.0))
        assert type(cfg.n_r) is int and type(cfg.r_max) is float

    def test_build_is_deterministic(self):
        cfg = LibraryConfig(n_r=3, n_beta=5)
        a = build_curve_library(cfg)
        b = build_curve_library(cfg)
        assert a.entries.keys() == b.entries.keys()
        for key in a.entries:
            assert a.entries[key].params == b.entries[key].params
