"""Safe-interval estimation, interval-sequence selection, and timestamp optimization."""

import itertools
import math
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize as scipy_minimize
from scipy.optimize._numdiff import approx_derivative

from kinoplan import get_scenario, temporal
from kinoplan.collision import (FootprintSpec, ObstacleShape, _pair_distances,
                                default_robot_footprint, footprint_circles_batch)
from kinoplan.geometry import CurveParams, Pose
from kinoplan.rrt import Path
from kinoplan.temporal import (DT_MIN, IntervalSequence, NodeIntervals, SafeInterval,
                               TemporalConfig, TimingProblem, Trajectory,
                               _effective_margin, _open_horizon,
                               _predicted_obstacle_circles, compute_safe_intervals,
                               free_runs, optimize_timestamps, predicted_hits,
                               select_interval_sequence, validate_trajectory,
                               velocity_profile)
from kinoplan.tracking import ObstacleTrack, predict_pose

ROBOT = default_robot_footprint()
CAR = FootprintSpec.from_dimensions(4.0, 2.0)


def straight_path(n_nodes, spacing=1.0):
    poses = [Pose(i * spacing, 0.0, 0.0) for i in range(n_nodes)]
    curves = [CurveParams(0.0, 0.0, 0.0, 0.0, spacing) for _ in range(n_nodes - 1)]
    return Path(poses, curves)


def edge_path(edges):
    """A straight path along x with the given edge lengths."""
    s = np.concatenate([[0.0], np.cumsum(edges)])
    return Path([Pose(float(x), 0.0, 0.0) for x in s],
                [CurveParams(0.0, 0.0, 0.0, 0.0, float(d)) for d in edges])


def cv_track(x, y, vx, vy, footprint=CAR, t0=0.0):
    return ObstacleTrack(id=0, state=np.array([x, y, vx, vy]),
                         covariance=np.eye(4) * 0.01, footprint=footprint,
                         last_update=t0)


def unconstrained(n):
    return [NodeIntervals(i, [SafeInterval(0.0, math.inf)]) for i in range(n)]


class TestSafeInterval:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            SafeInterval(2.0, 2.0)
        with pytest.raises(ValueError):
            SafeInterval(3.0, 1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TemporalConfig(v_max=0.0)
        with pytest.raises(ValueError):
            TemporalConfig(si_dt=0.3)


class TestEffectiveMargin:
    def test_pinned_value_wins(self):
        cfg = TemporalConfig(si_margin=0.25)
        assert _effective_margin(straight_path(5, 3.0), cfg) == 0.25

    def test_auto_is_half_longest_edge_capped(self):
        cfg = TemporalConfig()
        assert _effective_margin(straight_path(5, 1.2), cfg) == pytest.approx(0.6)
        assert _effective_margin(straight_path(5, 4.0), cfg) == 1.0


class TestComputeSafeIntervals:
    def test_empty_world_open_intervals(self):
        path = straight_path(5)
        nis = compute_safe_intervals(path, [], [], TemporalConfig(), ROBOT)
        assert len(nis) == 5
        for ni in nis:
            assert len(ni.intervals) == 1
            assert ni.intervals[0].start == 0.0
            assert ni.intervals[0].end == math.inf

    def test_node_in_static_obstacle_empty(self):
        path = straight_path(5)
        obs = [ObstacleShape.disk(2.0, 0.0, 1.0)]
        nis = compute_safe_intervals(path, [], obs, TemporalConfig(), ROBOT)
        assert nis[2].intervals == []

    def test_crossing_obstacle_against_dense_oracle(self):
        """Reported SIs must agree with brute-force sampling at si_dt/10."""
        path = straight_path(6, 2.0)
        # Car crossing the path at x = 5 around t ~ 10.
        track = cv_track(5.0, -10.0, 0.0, 1.0)
        cfg = TemporalConfig(horizon=20.0, si_margin=0.3)
        nis = compute_safe_intervals(path, [track], [], cfg, ROBOT)

        def hit(node_pose, t):
            dt = t - track.last_update
            obs_pose = Pose(track.state[0] + track.state[2] * dt,
                            track.state[1] + track.state[3] * dt, math.pi / 2.0)
            shape = ObstacleShape.footprint_at(CAR, obs_pose)
            from kinoplan.collision import pose_in_collision
            return pose_in_collision(ROBOT, node_pose, [shape], margin=cfg.si_margin)

        for i, ni in enumerate(nis):
            for t in np.arange(0.0, cfg.horizon, cfg.si_dt / 10.0):
                inside = any(si.start <= t <= si.end for si in ni.intervals)
                blocked = hit(path.poses[i], t)
                if inside:
                    assert not blocked, f"node {i} unsafe at t={t} inside an SI"
                elif min(abs(t - b) for si in ni.intervals
                         for b in (si.start, si.end)) > cfg.si_dt:
                    assert blocked, f"node {i} free at t={t} outside every SI"

    def test_line_pattern_of_along_path_obstacle(self):
        """A car driving along the path blocks nodes in arc-length order with
        near-affine interval start times."""
        path = straight_path(8, 2.0)
        track = cv_track(-10.0, 0.0, 1.0, 0.0)
        cfg = TemporalConfig(horizon=40.0, si_margin=0.2)
        nis = compute_safe_intervals(path, [track], [], cfg, ROBOT)
        starts = []
        for i, ni in enumerate(nis):
            assert len(ni.intervals) >= 2, f"node {i} never blocked"
            starts.append(ni.intervals[1].start)  # start of the post-passage SI
        d = np.diff(starts)
        assert np.all(d > 0.0)
        # Affine in arc length: equal node spacing gives equal increments
        # up to one sampling step.
        assert np.max(d) - np.min(d) <= cfg.si_dt + 1e-9

    def test_open_horizon_requires_receding_obstacle(self):
        path = straight_path(3, 2.0)
        cfg = TemporalConfig(horizon=10.0)
        # Approaching from far away: free now, but not open-ended.
        toward = cv_track(40.0, 0.0, -1.0, 0.0)
        nis = compute_safe_intervals(path, [toward], [], cfg, ROBOT)
        assert all(math.isfinite(ni.intervals[-1].end) for ni in nis)
        away = cv_track(10.0, 0.0, 1.0, 0.0)
        nis = compute_safe_intervals(path, [away], [], cfg, ROBOT)
        assert nis[0].intervals[-1].end == math.inf


def naive_runs(free):
    """Reference for free_runs: scan each row sample by sample."""
    runs = []
    for i, row in enumerate(free):
        idx = 0
        while idx < len(row):
            if not row[idx]:
                idx += 1
                continue
            j = idx
            while j + 1 < len(row) and row[j + 1]:
                j += 1
            runs.append((i, idx, j))
            idx = j + 1
    return runs


def reference_safe_intervals(path, tracks, config, footprint, t0):
    """compute_safe_intervals as a per-obstacle norm and a per-sample scan,
    without static obstacles; the reference for the vectorized version."""
    times = np.arange(0.0, config.horizon + config.si_dt / 2.0, config.si_dt)
    margin = _effective_margin(path, config)
    poses = np.array([[p.x, p.y, p.theta] for p in path.poses])
    robot_circles = footprint_circles_batch(footprint, poses)
    free = np.ones((len(poses), len(times)), dtype=bool)
    obstacle_circles = _predicted_obstacle_circles(tracks, times, t0)
    for cover in obstacle_circles:
        d = np.linalg.norm(robot_circles[:, :, None, None, :] - cover.centers[None, None],
                           axis=-1)
        free &= ~np.any(d <= footprint.radius + cover.radius + margin, axis=(1, 3))
    result = [[] for _ in poses]
    for i, first, last in naive_runs(free):
        # The per-node means that compute_safe_intervals takes once per call.
        last_centers = [cover.centers[-1].mean(axis=0) for cover in obstacle_circles]
        if last == len(times) - 1 and _open_horizon(robot_circles[i].mean(axis=0), footprint,
                                                    obstacle_circles, last_centers, margin):
            end = math.inf
        else:
            end = times[last]
        if end > times[first]:
            result[i].append((float(times[first]), float(end)))
    return result


def assert_matches_reference(spec, rng):
    """``compute_safe_intervals`` for a robot of cover ``spec`` equals
    ``reference_safe_intervals`` on 30 random cases, some open-ended."""
    open_ended = 0
    for case in range(30):
        n = int(rng.integers(2, 15))
        path = straight_path(n, float(rng.uniform(0.5, 2.5)))
        tracks = [cv_track(*rng.uniform([-20.0, -15.0, -2.0, -2.0], [30.0, 15.0, 2.0, 2.0]),
                           footprint=CAR if k % 2 else ROBOT, t0=float(rng.uniform(0, 3)))
                  for k in range(int(rng.integers(0, 4)))]
        cfg = TemporalConfig(horizon=float(rng.uniform(5.0, 30.0)))
        t0 = float(rng.uniform(0.0, 5.0))
        nis = compute_safe_intervals(path, tracks, [], cfg, spec, t0=t0)
        got = [[(si.start, si.end) for si in ni.intervals] for ni in nis]
        assert got == reference_safe_intervals(path, tracks, cfg, spec, t0), case
        open_ended += tracks != [] and any(ni.intervals and ni.intervals[-1].end == math.inf
                                           for ni in nis)
    assert open_ended


class TestVectorizedKernels:
    @given(hnp.arrays(np.bool_, hnp.array_shapes(min_dims=2, max_dims=2, max_side=40)))
    @example(np.ones((3, 301), dtype=bool))
    @example(np.zeros((3, 301), dtype=bool))
    @example(np.array([[False, True, True], [True, False, True], [True, True, False]]))
    def test_free_runs_match_scan(self, free):
        rows, firsts, lasts = free_runs(free)
        assert list(zip(rows.tolist(), firsts.tolist(), lasts.tolist())) == naive_runs(free)

    def test_safe_intervals_match_reference(self):
        """Bit-identical to the per-obstacle norm and per-sample scan on
        random crossing, following and parked cars, some open-ended."""
        assert_matches_reference(ROBOT, np.random.default_rng(7))

    @pytest.mark.parametrize("spec", [FootprintSpec.from_dimensions(0.6, 0.6, True), CAR])
    def test_safe_intervals_match_reference_per_cover(self, spec):
        """The same for a one-circle robot and another three-circle one:
        the node and cover-end means taken once per call have the bits of
        the reference's per-node means."""
        assert_matches_reference(spec, np.random.default_rng(8))

    @pytest.mark.parametrize("clearance", [0.0, 0.3])
    def test_predicted_hits_per_sample_matches_norm(self, clearance):
        rng = np.random.default_rng(3)
        times = np.arange(0.0, 10.0, 0.05)
        poses = np.stack([np.linspace(0.0, 20.0, len(times)), np.zeros(len(times)),
                          np.zeros(len(times))], axis=-1)
        robot = footprint_circles_batch(ROBOT, poses)
        tracks = [cv_track(*rng.uniform([0.0, -8.0, -1.0, 0.5], [20.0, -4.0, 1.0, 1.5]))
                  for _ in range(3)]
        circles = _predicted_obstacle_circles(tracks, times, 0.0)
        expected = np.zeros(len(times), dtype=bool)
        for cover in circles:
            d = np.linalg.norm(robot[:, :, None, :] - cover.centers[:, None, :, :], axis=-1)
            expected |= np.any(d <= ROBOT.radius + cover.radius + clearance, axis=(1, 2))
        got = predicted_hits(robot, ROBOT, circles, clearance)
        assert expected.any() and not expected.all()
        assert np.array_equal(got, expected)
        assert not predicted_hits(robot, ROBOT, [], clearance).any()


def brute_force_hits(robot_circles, footprint, obstacle_circles, clearance):
    """predicted_hits without its broad phase: every circle pair at every
    (pose, time) pair; the reference for the screened kernel."""
    hit = np.zeros(robot_circles.shape[:-2], dtype=bool)
    for cover in obstacle_circles:
        d = _pair_distances(robot_circles, cover.centers)  # (..., T, k, m)
        hit = hit | np.any(d <= footprint.radius + cover.radius + clearance, axis=(-2, -1))
    return hit


ROBOT_COVERS = {"one-circle": FootprintSpec.from_dimensions(1.2, 1.0), "three-circle": ROBOT}
OBSTACLE_COVERS = {"one-circle": FootprintSpec.from_dimensions(0.6, 0.6, single_circle=True),
                   "three-circle": CAR}


def max_offset(footprint):
    return max(abs(o) for o in footprint.center_offsets)


class TestBroadPhase:
    @settings(max_examples=400, deadline=None)
    @given(robot=st.sampled_from(sorted(ROBOT_COVERS)),
           obstacle=st.sampled_from(sorted(OBSTACLE_COVERS)),
           clearance=st.sampled_from([0.0, 0.3, 1.0]),
           per_sample=st.booleans(),
           boundary=st.sampled_from(["hit", "aligned", "screen", "random"]),
           ulps=st.integers(-4, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_screened_matches_brute_force(self, robot, obstacle, clearance, per_sample,
                                          boundary, ulps, seed):
        """Bit-equal decisions with pairs placed within a few ulps of the hit
        threshold (anchors at the threshold, or the nearest circles at it with
        both covers aligned) and of the screen bound."""
        rng = np.random.default_rng(seed)
        footprint = ROBOT_COVERS[robot]
        times = np.arange(int(rng.integers(1, 40))) * 0.1
        tracks = [cv_track(*rng.uniform([-5.0, -5.0, -2.0, -2.0], [5.0, 5.0, 2.0, 2.0]),
                           footprint=OBSTACLE_COVERS[obstacle], t0=float(rng.uniform(0.0, 1.0)))
                  for _ in range(int(rng.integers(1, 3)))]
        covers = _predicted_obstacle_circles(tracks, times, 1.0)
        limit = footprint.radius + tracks[0].footprint.radius + clearance
        reaches = max_offset(footprint) + max_offset(tracks[0].footprint)
        base = {"hit": limit, "aligned": limit + reaches, "random": limit + reaches,
                "screen": limit + reaches + temporal.SCREEN_SLACK}[boundary]
        dist = base + ulps * np.spacing(base)
        heading = predict_pose(tracks[0], tracks[0].last_update)[0].theta
        n = len(times) if per_sample else int(rng.integers(1, 6))
        # Pose i is placed against the first track's anchor at sample at[i].
        at = np.arange(n) if per_sample else rng.integers(0, len(times), n)
        direction = np.where(rng.random(n) < 0.5, heading, heading + math.pi)
        if boundary == "random":
            direction = rng.uniform(-math.pi, math.pi, n)
        anchor = covers[0].centers[at, covers[0].anchor]
        poses = np.stack([anchor[:, 0] + dist * np.cos(direction),
                          anchor[:, 1] + dist * np.sin(direction),
                          direction + math.pi], axis=-1)  # facing the obstacle
        free = rng.random(n) < 0.3
        poses[free] = rng.uniform([-8.0, -8.0, -math.pi], [8.0, 8.0, math.pi], (free.sum(), 3))
        circles = footprint_circles_batch(footprint, poses)
        if not per_sample:
            circles = circles[:, None]
        got = predicted_hits(circles, footprint, covers, clearance)
        expected = brute_force_hits(circles, footprint, covers, clearance)
        assert got.shape == expected.shape == ((n, len(times)) if not per_sample else (n,))
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("clearance", [0.0, 0.3, 1.0])
    def test_exact_threshold_hits(self, clearance):
        """One-circle covers at exactly the threshold distance hit, and one ulp
        further they miss: the screen passes the pair the exact test decides."""
        footprint = ROBOT_COVERS["one-circle"]
        track = cv_track(0.0, 0.0, 0.0, 0.0, footprint=OBSTACLE_COVERS["one-circle"])
        covers = _predicted_obstacle_circles([track], np.zeros(1), 0.0)
        limit = footprint.radius + track.footprint.radius + clearance
        for x, hits in ((limit, True), (np.nextafter(limit, np.inf), False)):
            circles = footprint_circles_batch(footprint, np.array([[x, 0.0, 0.0]]))
            assert predicted_hits(circles, footprint, covers, clearance).tolist() == [hits]

    @pytest.mark.parametrize("per_sample", [True, False])
    def test_all_screened_out_keeps_broadcast_shape(self, per_sample):
        times = np.arange(0.0, 6.0, 0.1)
        track = cv_track(0.0, 0.0, 1.0, 0.0)
        covers = _predicted_obstacle_circles([track, track], times, 0.0)
        n = len(times) if per_sample else 4
        poses = np.column_stack([np.full(n, 500.0), np.arange(n), np.zeros(n)])
        circles = footprint_circles_batch(ROBOT, poses)
        if not per_sample:
            circles = circles[:, None]
        got = predicted_hits(circles, ROBOT, covers, 1.0)
        assert got.dtype == bool and not got.any()
        assert got.shape == ((n,) if per_sample else (n, len(times)))

    def test_screen_keeps_pruning(self, monkeypatch):
        """On a straight cross path over the 60 s horizon, the exact pass sees
        at most 8 % of the node x sample pairs (about 5 % with these reaches)."""
        sc = get_scenario("cross")
        path = edge_path([1.5] * 16)  # (0, 0) to (24, 0), the scenario's start and goal
        car = sc.moving[0]
        velocity = (car.position_at(1.0) - car.position_at(0.0)) / 1.0
        track = ObstacleTrack(id=0, state=np.concatenate([car.position_at(0.0), velocity]),
                              covariance=np.eye(4) * 1e-4, footprint=car.footprint,
                              last_update=0.0, last_heading=car.heading_at(0.0))
        seen = []

        def counting(a, b):
            seen.append(a.shape[0])
            return _pair_distances(a, b)

        monkeypatch.setattr(temporal, "_pair_distances", counting)
        cfg = TemporalConfig(horizon=sc.horizon)
        nis = compute_safe_intervals(path, [track], sc.static_obstacles, cfg, sc.robot)
        pairs = len(path.poses) * len(np.arange(0.0, cfg.horizon + cfg.si_dt / 2.0, cfg.si_dt))
        assert pairs == 17 * 601
        assert 0 < sum(seen) <= 0.08 * pairs
        # The crossing blocks some nodes for a while: the pass had work to do.
        assert any(len(ni.intervals) > 1 for ni in nis)


@st.composite
def timing_instances(draw):
    """Edges (multiples of 0.1 m) and 1..3 safe intervals per node clustered
    near the free-flow arrival, drawn as the acceptance suite's
    ``_random_instance`` draws them."""
    n = draw(st.integers(2, 6))
    edges = [draw(st.integers(6, 15)) / 10.0 for _ in range(n - 1)]
    arrive = np.concatenate([[0.0], np.cumsum(edges)]) / 2.0
    nis = [NodeIntervals(0, [SafeInterval(0.0, draw(st.integers(8, 20)) / 10.0)])]
    for i in range(1, n):
        t = max(0.0, arrive[i] - draw(st.floats(0.0, 0.4)))
        ints = []
        for _ in range(draw(st.integers(1, 3))):
            t = round(t + draw(st.floats(0.0, 0.6)), 1)
            length = draw(st.integers(6, 15)) / 10.0
            ints.append(SafeInterval(t, t + length))
            t = t + length + draw(st.floats(0.3, 0.8))
        nis.append(NodeIntervals(i, ints))
    return edges, nis


def timing_problem_case(ends):
    """A TimingProblem on a path with uneven edges and the given interval
    ends (node 0 first), plus random stamps feasible for it."""
    rng = np.random.default_rng(len(ends))
    edges = rng.uniform(0.5, 3.0, len(ends) - 1)
    path = edge_path(edges)
    cfg = TemporalConfig(v_max=2.0, a_max=5.0)
    seq = IntervalSequence([SafeInterval(0.0, end) for end in ends], [0] * len(ends))
    problem = TimingProblem(path, seq, cfg)
    x = np.cumsum(edges / cfg.v_max * rng.uniform(1.2, 2.0, len(edges)))
    assert problem.feasible(x)
    return problem, x


def dense_bands(problem, bands, rows=slice(None)):
    """The (rows, m) matrix that ``bands`` stand for, at the band index of
    ``problem``'s ``rows``."""
    m = len(problem.ds)
    index = problem.index[:, rows]
    dense = np.zeros((bands.shape[1], m + 2))
    r = np.arange(bands.shape[1])
    for k in range(3):
        dense[r, index[k]] = bands[k]
    return dense[:, 1:m + 1]


def pentadiagonal(diag, off1, off2):
    """The dense symmetric matrix with this diagonal and these superdiagonals."""
    dense = np.diag(diag)
    for k, off in ((1, off1), (2, off2)):
        i = np.arange(len(off))
        dense[i, i + k] = dense[i + k, i] = off
    return dense


def dense_chain_jac(problem, x):
    """The derivative of ``linearize``'s rows (constraints, then residuals)
    as dense blocks by edge durations and one chain to stamps, written from
    ``_accel_partials``: the reference for the bands."""
    dt, v, a = problem.profile(x)
    m = len(dt)
    j = np.arange(m - 1)
    da = np.zeros((m - 1, m))
    da[j, j], da[j, j + 1] = problem._accel_partials(dt, v, a)
    by_dt = np.vstack([np.eye(m), -da, da])
    chained = by_dt.copy()
    chained[:, :-1] -= by_dt[:, 1:]  # dt_i = x_i - x_{i-1}
    eye = np.eye(m)
    return np.vstack([chained, eye, -eye[problem.finite], chained[2 * m - 1:], eye[-1:]])


class TestTimingProblem:
    CASES = {
        "n2": [math.inf, math.inf],
        "n3": [math.inf, 100.0, 100.0],
        "long": [math.inf] * 30,
        "mixed_ends": [5.0, 100.0, math.inf, 100.0, math.inf, math.inf, 100.0],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_objective_gradient(self, case):
        problem, x = timing_problem_case(self.CASES[case])
        numeric = approx_derivative(problem.objective, x, method="3-point")
        # Entries near a cancellation carry the difference quotient's absolute
        # error, so the floor scales with the largest entry.
        np.testing.assert_allclose(problem.objective_grad(x), numeric, rtol=1e-5,
                                   atol=1e-7 * np.max(np.abs(numeric)))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_constraint_jacobian(self, case):
        """The bands of ``linearize`` match finite differences of its rows, at
        feasible and at too-fast stamps."""
        problem, x = timing_problem_case(self.CASES[case])
        for stamps in (x, x * 0.6):
            g, res, bands = problem.linearize(stamps)
            numeric = approx_derivative(
                lambda y: np.concatenate(problem.linearize(y)[:2]), stamps, method="3-point")
            jac = dense_bands(problem, bands)
            assert jac.shape == numeric.shape == (len(g) + len(res), len(x))
            np.testing.assert_allclose(jac, numeric, rtol=1e-5, atol=1e-9)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_constraint_jacobian_bits(self, case):
        """The banded Jacobian has the bits of the dense chain, at feasible,
        too-fast and constant-speed stamps."""
        problem, x = timing_problem_case(self.CASES[case])
        even = np.cumsum(problem.ds) / 1.5
        for stamps in (x, x * 0.6, even):
            got = dense_bands(problem, problem.linearize(stamps)[2])
            assert np.array_equal(got, dense_chain_jac(problem, stamps))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_accel_curvature(self, case):
        """The second partials of each a_j by its two edge durations, chained
        onto stamps j - 1, j, j + 1, match finite differences of the
        acceleration bands."""
        problem, x = timing_problem_case(self.CASES[case])
        m = len(x)
        chain = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])  # (dt_j, dt_{j+1}) by stamps
        rows = slice(2 * m - 1, 3 * m - 2)  # the a_max + a rows: bands of +a
        for j, (pp, pq, qq) in enumerate(zip(*problem.accel_curvature(x))):
            block = chain.T @ np.array([[pp, pq], [pq, qq]]) @ chain
            hess = np.zeros((m + 1, m + 1))  # stamp -1 (the pinned t_1) first
            hess[j:j + 3, j:j + 3] = block
            numeric = approx_derivative(
                lambda y: dense_bands(problem, problem.linearize(y)[2][:, rows], rows)[j], x,
                method="3-point")
            np.testing.assert_allclose(hess[1:, 1:], numeric, rtol=1e-5,
                                       atol=1e-7 * np.max(np.abs(numeric)))

    def test_convex_curvature(self):
        """Each block keeps its positive semidefinite part: unchanged when
        the 2x2 block has no negative eigenvalue, zero when it has no
        positive one, and never below the block itself."""
        rng = np.random.default_rng(3)
        c = rng.normal(size=200)
        h = rng.normal(size=(3, 200))
        c_diag, c_off1, c_off2 = temporal.convex_curvature(c, *h)
        chain = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
        for r in range(200):
            block2 = c[r] * np.array([[h[0, r], h[1, r]], [h[1, r], h[2, r]]])
            got = pentadiagonal(c_diag[:, r], c_off1[:, r], [c_off2[r]])
            original = chain.T @ block2 @ chain
            low, high = np.linalg.eigvalsh(block2)
            scale = max(1.0, abs(low), abs(high))
            assert np.linalg.eigvalsh(got).min() >= -1e-12 * scale
            assert np.linalg.eigvalsh(got - original).min() >= -1e-12 * scale
            if low >= 0.0:
                np.testing.assert_allclose(got, original, atol=1e-12 * scale)
            elif high <= 0.0:
                assert np.all(got == 0.0)

    def test_constraint_rows(self):
        problem, x = timing_problem_case(self.CASES["mixed_ends"])
        n = len(x) + 1
        # dt, v, +a, -a, the starts of nodes 2..n, and their three finite ends
        # (node 1's end does not constrain x).
        assert len(problem.constraints(x)) == 4 * (n - 1) - 2 + (n - 1) + 3
        # The solver reads the same rows with dt and v merged into one bound
        # per edge: every other row has the contract's bits.
        rng = np.random.default_rng(5)
        for stamps in (x, x * 0.6, np.cumsum(problem.ds / 2.0 * rng.uniform(0.8, 1.2, n - 1))):
            g, _res, _bands = problem.linearize(stamps)
            contract = problem.constraints(stamps)
            m = n - 1
            assert len(g) == len(contract) - m
            assert np.array_equal(g[m:], contract[2 * m:])
            assert np.array_equal(g[:m] >= 0.0, (contract[:m] >= 0.0) & (contract[m:2 * m] >= 0.0))


class TestBandedLDL:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 30])
    def test_matches_dense_solve(self, m):
        rng = np.random.default_rng(m)
        for _ in range(20):
            # J^T diag(w) J + a small ridge: symmetric positive definite and
            # pentadiagonal, like the solver's Newton systems.
            cols = rng.integers(0, m, 3 * m)
            bands = rng.normal(size=(3, 3 * m))
            w = rng.uniform(0.0, 2.0, 3 * m)
            index = temporal.band_index(cols)
            wb = bands * w
            diag, off1, off2 = temporal.band_sum(index, wb * bands, wb[:2] * bands[1:],
                                                 wb[0] * bands[2], m)
            diag = diag + 1e-3
            dense = pentadiagonal(diag, off1, off2)
            assert np.all(np.linalg.eigvalsh(dense) > 0.0)
            b = rng.normal(size=m)
            factor = temporal.ldl_pentadiagonal(diag.tolist(), off1.tolist(), off2.tolist())
            assert factor is not None
            got = temporal.ldl_solve(factor, b.tolist())
            np.testing.assert_allclose(got, np.linalg.solve(dense, b), rtol=1e-8,
                                       atol=1e-10 * np.max(np.abs(np.linalg.solve(dense, b))))

    def test_indefinite_rejected(self):
        assert temporal.ldl_pentadiagonal([1.0, 1.0], [2.0], []) is None
        assert temporal.ldl_pentadiagonal([0.0], [], []) is None
        assert temporal.ldl_pentadiagonal([math.nan], [], []) is None

    def test_band_products(self):
        problem, x = timing_problem_case(TestTimingProblem.CASES["mixed_ends"])
        _g, _res, bands = problem.linearize(x)
        dense = dense_bands(problem, bands)
        rng = np.random.default_rng(2)
        dx, y = rng.normal(size=len(x)), rng.normal(size=bands.shape[1])
        np.testing.assert_allclose(temporal.band_mul(problem.index, bands, dx), dense @ dx,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(temporal.band_tmul(problem.index, bands, y, len(x)),
                                   dense.T @ y, rtol=1e-12, atol=1e-12)


class TestSelectSequence:
    def test_all_open(self):
        cfg = TemporalConfig(overlap_min=0.5)
        seq = select_interval_sequence(unconstrained(4), cfg)
        assert seq is not None
        assert all(si.end == math.inf for si in seq.chosen)
        assert seq.source_indices == [0, 0, 0, 0]

    def test_dead_branch_terminates(self):
        cfg = TemporalConfig(overlap_min=0.5)
        nis = [
            NodeIntervals(0, [SafeInterval(0.0, math.inf)]),
            NodeIntervals(1, [SafeInterval(0.0, 3.0), SafeInterval(5.0, math.inf)]),
            NodeIntervals(2, [SafeInterval(6.0, math.inf)]),
        ]
        seq = select_interval_sequence(nis, cfg)
        assert seq is not None
        assert seq.source_indices == [0, 1, 0]  # the [0, 3] branch dies
        assert seq.chosen[1].start == 5.0
        assert seq.chosen[2].start == 6.0

    def test_empty_node_infeasible(self):
        cfg = TemporalConfig()
        nis = unconstrained(3)
        nis[1] = NodeIntervals(1, [])
        assert select_interval_sequence(nis, cfg) is None

    def test_nesting_invariant(self):
        cfg = TemporalConfig(overlap_min=0.3)
        nis = [
            NodeIntervals(0, [SafeInterval(0.0, 4.0)]),
            NodeIntervals(1, [SafeInterval(1.0, 5.0)]),
            NodeIntervals(2, [SafeInterval(2.0, 9.0)]),
        ]
        seq = select_interval_sequence(nis, cfg, edge_lengths=[2.0, 2.0])
        assert seq is not None
        for chosen, idx, ni in zip(seq.chosen, seq.source_indices, nis):
            orig = ni.intervals[idx]
            assert orig.start <= chosen.start and chosen.end == orig.end

    def test_zero_length_window_unreachable(self):
        """A child whose narrowed start equals its end is unreachable: these
        intervals made selection raise on a degenerate [2.7, 2.7]."""
        cfg = TemporalConfig(v_max=2.0, a_max=1.0, overlap_min=0.2)
        ivs = [[(0.0, 1.4)], [(1.0, 2.0), (2.6, 4.1)], [(1.6, 2.8)],
               [(2.2, 3.1), (3.5, 4.3)], [(2.0, 2.7), (3.9, 4.6), (5.8, 6.7)]]
        nis = [NodeIntervals(i, [SafeInterval(a, b) for a, b in iv]) for i, iv in enumerate(ivs)]
        assert select_interval_sequence(nis, cfg, edge_lengths=[0.9, 1.2, 1.2, 1.0]) is None
        # One child ends exactly when the robot can first get there; the
        # later one is taken.
        nis = [NodeIntervals(0, [SafeInterval(0.0, math.inf)]),
               NodeIntervals(1, [SafeInterval(0.0, 1.0), SafeInterval(1.5, math.inf)])]
        seq = select_interval_sequence(nis, TemporalConfig(overlap_min=0.2), edge_lengths=[2.0])
        assert seq is not None and seq.source_indices == [0, 1]

    def _brute_force_final_start(self, nis, cfg, travel):
        """Independent enumeration of every interval combination."""
        best = None
        for combo in itertools.product(*(range(len(ni.intervals)) for ni in nis)):
            start = nis[0].intervals[combo[0]].start
            feasible = True
            for layer in range(1, len(nis)):
                parent = nis[layer - 1].intervals[combo[layer - 1]]
                child = nis[layer].intervals[combo[layer]]
                if min(parent.end, child.end) - max(start, child.start) < cfg.overlap_min:
                    feasible = False
                    break
                start = max(child.start, start + travel[layer - 1])
                if start > child.end:
                    feasible = False
                    break
            if feasible and (best is None or start < best):
                best = start
        return best

    def test_matches_exhaustive_enumeration(self):
        cfg = TemporalConfig(overlap_min=0.4)
        rng = np.random.default_rng(11)
        agreements = 0
        for trial in range(200):
            n = int(rng.integers(2, 7))
            edges = rng.uniform(0.5, 2.0, n - 1)
            travel = [max(d / cfg.v_max, DT_MIN) for d in edges]
            nis = []
            for i in range(n):
                k = int(rng.integers(1, 4))
                t = float(rng.uniform(0.0, 1.0)) if i else 0.0
                ints = []
                for _ in range(k):
                    length = float(rng.uniform(0.5, 2.5))
                    ints.append(SafeInterval(t, t + length))
                    t += length + float(rng.uniform(0.3, 1.0))
                nis.append(NodeIntervals(i, ints))
            expected = self._brute_force_final_start(nis, cfg, travel)
            seq = select_interval_sequence(nis, cfg, edge_lengths=edges)
            if expected is None:
                assert seq is None
            else:
                assert seq is not None
                assert seq.chosen[-1].start == pytest.approx(expected, abs=1e-9)
                agreements += 1
        assert agreements >= 50  # the trial set must include feasible cases

    def test_scale_consistency(self):
        """Doubling speed limits while halving lengths and times keeps the
        chosen interval indices identical."""
        cfg = TemporalConfig(v_max=2.0, a_max=1.0, overlap_min=0.4)
        nis = [
            NodeIntervals(0, [SafeInterval(0.0, 2.0)]),
            NodeIntervals(1, [SafeInterval(0.0, 1.0), SafeInterval(1.5, 4.0)]),
            NodeIntervals(2, [SafeInterval(2.0, 3.0), SafeInterval(3.5, 8.0)]),
        ]
        edges = [2.0, 2.0]
        seq = select_interval_sequence(nis, cfg, edge_lengths=edges)
        scale = 0.25  # halved lengths at doubled v_max quarter the times
        cfg2 = TemporalConfig(v_max=4.0, a_max=2.0, overlap_min=0.4 * scale)
        nis2 = [NodeIntervals(ni.node_index,
                              [SafeInterval(si.start * scale, si.end * scale)
                               for si in ni.intervals]) for ni in nis]
        seq2 = select_interval_sequence(nis2, cfg2,
                                        edge_lengths=[e / 2.0 for e in edges])
        assert seq is not None and seq2 is not None
        assert seq.source_indices == seq2.source_indices


class TestVelocityProfile:
    def test_uniform(self):
        path = straight_path(5)
        v, a = velocity_profile(path, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert v[1:] == pytest.approx([2.0, 2.0, 2.0, 2.0])
        assert a[2:] == pytest.approx([0.0, 0.0, 0.0])

    def test_direct_evaluation(self):
        path = straight_path(3)
        v, a = velocity_profile(path, [0.0, 1.0, 1.5])
        assert v[1] == pytest.approx(1.0)
        assert v[2] == pytest.approx(2.0)
        assert a[2] == pytest.approx(2.0)

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            velocity_profile(straight_path(3), [0.0, 1.0, 1.0])

    def test_roundtrip_with_trajectory(self):
        path = straight_path(4)
        cfg = TemporalConfig()
        traj = optimize_timestamps(path, select_interval_sequence(
            unconstrained(4), cfg), cfg)
        v, a = velocity_profile(traj.path, traj.timestamps)
        assert np.array_equal(v, traj.velocities)
        assert np.array_equal(a, traj.accelerations)


class TestOptimizeTimestamps:
    def test_two_node_minimal_time(self):
        path = straight_path(2, 5.0)
        cfg = TemporalConfig(v_max=2.0)
        traj = optimize_timestamps(path, select_interval_sequence(
            unconstrained(2), cfg), cfg)
        assert traj is not None
        assert traj.timestamps[0] == 0.0
        assert traj.timestamps[1] == pytest.approx(2.5, abs=1e-6)

    def test_uniform_path_near_constant_velocity(self):
        path = straight_path(10)
        cfg = TemporalConfig(v_max=2.0, a_max=1.0)
        traj = optimize_timestamps(path, select_interval_sequence(
            unconstrained(10), cfg), cfg)
        assert traj is not None
        assert np.all(traj.velocities[1:] <= cfg.v_max + 1e-6)
        assert np.all(np.abs(traj.accelerations[2:]) <= cfg.a_max + 1e-6)
        # Cruise: interior velocities cluster near v_max.
        assert np.min(traj.velocities[3:]) > 0.8 * cfg.v_max

    def test_delayed_interval_forces_slowdown(self):
        path = straight_path(7)
        cfg = TemporalConfig(v_max=2.0, a_max=1.0, overlap_min=0.2)
        nis = unconstrained(7)
        nis[4] = NodeIntervals(4, [SafeInterval(6.0, math.inf)])
        seq = select_interval_sequence(nis, cfg, np.diff(path.arc_lengths))
        traj = optimize_timestamps(path, seq, cfg)
        assert traj is not None
        assert traj.timestamps[4] >= 6.0 - 1e-9
        assert validate_trajectory(traj, [], [], 0.05, ROBOT)

    def test_incompatible_interval_infeasible(self):
        path = straight_path(2, 5.0)
        cfg = TemporalConfig(v_max=2.0, overlap_min=0.2)
        # The node must be reached before free flow can arrive there.
        nis = [NodeIntervals(0, [SafeInterval(0.0, 1.0)]),
               NodeIntervals(1, [SafeInterval(0.0, 1.0)])]
        seq = select_interval_sequence(nis, cfg, [5.0])
        assert seq is None or optimize_timestamps(path, seq, cfg) is None

    def test_start_breaking_a_max_is_feasible(self):
        """The greedy start breaks a_max; the solver goes through the slacks
        of the broken rows and ends feasible at the optimum."""
        # A retime from overtake: the greedy start breaks a_max at node 6.
        path = edge_path([3.109, 4.061, 4.129, 4.129, 3.775, 1.429, 4.129, 4.061, 4.061,
                          4.129])
        starts = [0.0, 1.554, 3.585, 5.649, 23.4, 28.9, 29.614, 31.679, 33.709, 35.739,
                  37.804]
        seq = IntervalSequence([SafeInterval(a, math.inf) for a in starts], [0] * len(starts))
        cfg = TemporalConfig()
        problem = TimingProblem(path, seq, cfg)
        init = temporal._feasible_init(path, seq, cfg)
        assert not problem.feasible(init[1:])
        traj = optimize_timestamps(path, seq, cfg)
        assert traj is not None and problem.feasible(traj.timestamps[1:])
        assert traj.timestamps[1] == pytest.approx(16.25, abs=0.01)

    def test_infeasible_returns_none_without_warning(self):
        """A start exists, but no stamps meet a_max: 5 m at up to v_max by
        t = 2.6 s, then 0.1 m with the node reached within [2.7, 2.75] s."""
        path = edge_path([5.0, 0.1])
        seq = IntervalSequence([SafeInterval(0.0, math.inf), SafeInterval(0.0, 2.6),
                                SafeInterval(2.7, 2.75)], [0, 0, 0])
        cfg = TemporalConfig()
        assert temporal._feasible_init(path, seq, cfg) is not None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert optimize_timestamps(path, seq, cfg) is None

    @settings(max_examples=150, deadline=None)
    @given(timing_instances())
    def test_never_worse_than_slsqp(self, instance):
        """On instances drawn like the acceptance suite's brute-force ones,
        the objective is never worse than SLSQP's (SciPy, a test-only
        reference) from the same start by more than 1e-6 relative."""
        edges, nis = instance
        cfg = TemporalConfig(v_max=2.0, a_max=1.0, overlap_min=0.2)
        seq = select_interval_sequence(nis, cfg, edge_lengths=edges)
        assume(seq is not None)
        path = edge_path(edges)
        init = temporal._feasible_init(path, seq, cfg)
        assume(init is not None)
        problem = TimingProblem(path, seq, cfg)
        ref = scipy_minimize(problem.objective, init[1:], jac=problem.objective_grad,
                             method="SLSQP", options={"maxiter": 200, "ftol": 1e-8},
                             constraints=[{"type": "ineq", "fun": problem.constraints}])
        assume(problem.feasible(ref.x))
        traj = optimize_timestamps(path, seq, cfg)
        assert traj is not None
        expected = problem.objective(ref.x)
        assert problem.objective(traj.timestamps[1:]) <= expected + 1e-6 * abs(expected)

    def test_csv_export(self, tmp_path):
        path = straight_path(4)
        cfg = TemporalConfig()
        traj = optimize_timestamps(path, select_interval_sequence(
            unconstrained(4), cfg), cfg)
        out = tmp_path / "traj.csv"
        traj.to_csv(out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "i,x,y,theta,s,t,v,a"
        assert len(lines) == 5


class TestValidateTrajectory:
    def _trajectory(self, timestamps):
        path = straight_path(len(timestamps))
        t = np.asarray(timestamps, dtype=float)
        v, a = velocity_profile(path, t)
        return Trajectory(path, t, v, a)

    def test_empty_world(self):
        traj = self._trajectory([0.0, 1.0, 2.0])
        assert validate_trajectory(traj, [], [], 0.05, ROBOT)

    def test_corrupted_timing_detected(self):
        # Car parked on node 2's pose: being there at any time collides.
        track = cv_track(2.0, 0.0, 0.0, 0.0)
        traj = self._trajectory([0.0, 1.0, 2.0])
        assert not validate_trajectory(traj, [track], [], 0.05, ROBOT)

    def test_static_collision_detected(self):
        traj = self._trajectory([0.0, 1.0, 2.0])
        obs = [ObstacleShape.disk(1.0, 0.0, 0.5)]
        assert not validate_trajectory(traj, [], obs, 0.05, ROBOT)

    def test_crossing_car_timing(self):
        # Car crosses x = 2 around t = 10; arriving early is fine.
        track = cv_track(2.0, -10.0, 0.0, 1.0)
        early = self._trajectory([0.0, 1.0, 2.0])
        assert validate_trajectory(early, [track], [], 0.05, ROBOT)
        late = self._trajectory([0.0, 5.0, 10.0])
        assert not validate_trajectory(late, [track], [], 0.05, ROBOT)
