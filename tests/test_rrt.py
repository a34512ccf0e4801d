"""Bidirectional RRT planning: sampling, extension, connection, determinism."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinoplan.collision import FootprintSpec, ObstacleShape, default_robot_footprint
from kinoplan.geometry import (CurveParams, Pose, curvature_at, integrate_endpoint,
                               local_curve_samples, max_abs_curvature, normalize_angle)
from kinoplan import rrt
from kinoplan.rrt import (DENSE_DS, EXTEND_CANDIDATES, GMM_SIGMA, Path, PlannerConfig, Tree,
                          TreeNode, extend, gmm_sample, plan_path, random_sample)

FOOTPRINT = default_robot_footprint()


def plan_empty(library, seed, goal=Pose(10.0, 0.0, 0.0)):
    cfg = PlannerConfig(rng_seed=seed, world_bounds=(-10.0, -10.0, 20.0, 10.0))
    return plan_path(Pose(0.0, 0.0, 0.0), goal, [], cfg, library, FOOTPRINT)


class TestSampling:
    def test_random_sample_inside_ellipse(self):
        rng = np.random.default_rng(0)
        start = Pose(0.0, 0.0, 0.0)
        goal = Pose(10.0, 0.0, 0.0)
        # Semi-major axis: max(eccentricity-scaled half focal distance,
        # half distance + margin); sum of focal distances is at most 2A.
        semi_major = max(rrt.ECCENTRICITY * 5.0, 5.0 + rrt.ELLIPSE_MARGIN)
        for _ in range(10000):
            x, y = random_sample(start, goal, rng)
            d = math.hypot(x - 0.0, y - 0.0) + math.hypot(x - 10.0, y - 0.0)
            assert d <= 2.0 * semi_major + 1e-9

    def test_random_sample_degenerate(self):
        rng = np.random.default_rng(1)
        p = Pose(3.0, 3.0, 0.0)
        for _ in range(1000):
            x, y = random_sample(p, p, rng)
            assert math.hypot(x - 3.0, y - 3.0) <= rrt.D_TH + 1e-9

    def test_random_sample_respects_world_bounds(self):
        rng = np.random.default_rng(2)
        bounds = (-1.0, -1.0, 11.0, 1.0)
        for _ in range(2000):
            x, y = random_sample(Pose(0.0, 0.0, 0.0), Pose(10.0, 0.0, 0.0), rng, bounds)
            assert bounds[0] - 1e-9 <= x <= bounds[2] + 1e-9
            assert bounds[1] - 1e-9 <= y <= bounds[3] + 1e-9

    def test_gmm_sample_moments(self):
        rng = np.random.default_rng(3)
        pts = np.array([gmm_sample([(2.0, -1.0)], rng) for _ in range(10000)])
        assert pts.mean(axis=0) == pytest.approx([2.0, -1.0], abs=0.06 * GMM_SIGMA)
        assert pts.std(axis=0) == pytest.approx([GMM_SIGMA] * 2, abs=0.06 * GMM_SIGMA)

    def test_gmm_component_frequencies(self):
        rng = np.random.default_rng(4)
        centers = [(0.0, 0.0), (100.0 * GMM_SIGMA, 0.0)]
        pts = np.array([gmm_sample(centers, rng) for _ in range(10000)])
        frac = float(np.mean(pts[:, 0] > 50.0 * GMM_SIGMA))
        assert abs(frac - 0.5) < 0.03


class TestExtend:
    def test_duplicate_cell_rejected(self, library):
        tree = Tree(Pose(0.0, 0.0, 0.0), "forward")
        target = np.array([2.0, 0.0])
        first = extend(tree, 0, target, library, [], FOOTPRINT)
        assert first is not None
        second = extend(tree, 0, target, library, [], FOOTPRINT)
        assert second is None  # same lookup cell already visited at this node

    def test_straight_ahead_extension(self, library):
        tree = Tree(Pose(0.0, 0.0, 0.0), "forward")
        idx = extend(tree, 0, np.array([2.0, 0.0]), library, [], FOOTPRINT)
        node = tree.nodes[idx]
        assert node.pose.y == pytest.approx(0.0, abs=1e-3)
        assert node.pose.theta == pytest.approx(0.0, abs=1e-3)
        assert node.parent == 0

    def test_far_sample_clamped_to_r_max(self, library):
        tree = Tree(Pose(0.0, 0.0, 0.0), "forward")
        idx = extend(tree, 0, np.array([100.0, 0.0]), library, [], FOOTPRINT)
        node = tree.nodes[idx]
        assert node.pose.x == pytest.approx(library.config.r_max, abs=1e-3)

    def test_collision_rejected(self, library):
        tree = Tree(Pose(0.0, 0.0, 0.0), "forward")
        obs = [ObstacleShape.disk(2.0, 0.0, 1.0)]
        assert extend(tree, 0, np.array([4.0, 0.0]), library, obs, FOOTPRINT) is None


class TestPlanPath:
    def test_bridge_rebuilt_only_when_the_pair_changes(self, library, monkeypatch):
        """GMM draws reuse the bridging path until the nearest pair moves.
        Each bridge is one walk of ``_chain``; the last walk is the found
        path's."""
        walks, draws = [], []
        chain, gmm = rrt._chain, rrt.gmm_sample

        def counted(t_f, f_idx, t_b, b_idx):
            walks.append((f_idx, b_idx))
            return chain(t_f, f_idx, t_b, b_idx)

        def checked(nodes, rng):
            draws.append(nodes)
            return gmm(nodes, rng)

        monkeypatch.setattr(rrt, "_chain", counted)
        monkeypatch.setattr(rrt, "gmm_sample", checked)
        obs = [ObstacleShape.disk(6.0, 0.0, 1.5), ObstacleShape.disk(12.0, 3.0, 1.5)]
        cfg = PlannerConfig(rng_seed=2, world_bounds=(-10.0, -10.0, 25.0, 15.0))
        assert plan_path(Pose(0.0, 0.0, 0.0), Pose(18.0, 0.0, 0.0), obs, cfg, library,
                         FOOTPRINT) is not None
        *builds, _path = walks
        assert len(draws) > len(builds) > 0
        assert len(builds) == len(set(builds))

    def test_empty_world_length_bound(self, library):
        lengths = []
        for seed in range(50):
            result = plan_empty(library, seed)
            assert result is not None, f"seed {seed} failed in an empty world"
            lengths.append(result.path.total_length)
        assert min(lengths) >= 10.0
        assert max(lengths) <= 13.0

    def test_start_or_goal_in_collision(self, library):
        cfg = PlannerConfig(world_bounds=(-10.0, -10.0, 20.0, 10.0))
        obs = [ObstacleShape.disk(10.0, 0.0, 2.0)]
        with pytest.raises(rrt.EndpointInCollision, match="goal pose"):
            plan_path(Pose(0.0, 0.0, 0.0), Pose(10.0, 0.0, 0.0), obs, cfg,
                      library, FOOTPRINT)
        with pytest.raises(rrt.EndpointInCollision, match="start pose"):
            plan_path(Pose(10.0, 0.0, 0.0), Pose(20.0, 0.0, 0.0), obs, cfg,
                      library, FOOTPRINT)

    def test_small_robot_is_checked_at_its_cover_radius(self, library, monkeypatch):
        """A robot whose cover radius is below ``COLLISION_DS`` plans, and
        every curve check samples it at that radius, so no obstacle fits
        between two samples' circles.  (A 2 m robot, whose bridges keep
        ``CONNECT_DIST_MIN``; ``test_robot_shorter_than_a_bridge_plans``
        covers a robot that bridges from half its length.)"""
        robot = FootprintSpec.from_dimensions(2.0, 0.6)
        assert robot.radius < rrt.COLLISION_DS
        steps = []
        swept, curve_check = rrt.swept_covers, rrt.curve_in_collision
        monkeypatch.setattr(rrt, "swept_covers",
                            lambda lib, fp, ds: steps.append(ds) or swept(lib, fp, ds))
        monkeypatch.setattr(rrt, "curve_in_collision",
                            lambda fp, c, p, o, ds, m: steps.append(ds)
                            or curve_check(fp, c, p, o, ds, m))
        cfg = PlannerConfig(rng_seed=2, world_bounds=(-10.0, -10.0, 25.0, 15.0))
        obs = [ObstacleShape.disk(6.0, 0.0, 1.5), ObstacleShape.disk(12.0, 3.0, 1.5)]
        result = plan_path(Pose(0.0, 0.0, 0.0), Pose(18.0, 0.0, 0.0), obs, cfg, library,
                           robot)
        assert result is not None and steps
        assert set(steps) == {robot.radius}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_robot_shorter_than_a_bridge_plans(self, library, seed):
        """A 0.6 m one-circle robot, shorter than ``CONNECT_DIST_MIN``, bridges
        from half its length (``connect_dist_min``), so its bridges can be
        shorter than itself, and it plans in an empty world."""
        robot = FootprintSpec.from_dimensions(0.6, 0.6, single_circle=True)
        assert robot.length < rrt.CONNECT_DIST_MIN
        assert rrt.connect_dist_min(robot) == 0.3
        assert rrt.connect_dist_min(FOOTPRINT) == rrt.CONNECT_DIST_MIN
        cfg = PlannerConfig(rng_seed=seed, world_bounds=(-10.0, -10.0, 20.0, 10.0))
        result = plan_path(Pose(0.0, 0.0, 0.0), Pose(10.0, 0.0, 0.0), [], cfg, library, robot)
        assert result is not None and result.path.poses[-1] == Pose(10.0, 0.0, 0.0)

    def test_determinism(self, library):
        a = plan_empty(library, 5)
        b = plan_empty(library, 5)
        assert a.iterations == b.iterations
        assert len(a.path.poses) == len(b.path.poses)
        for pa, pb in zip(a.path.poses, b.path.poses):
            assert pa == pb

    def test_edge_invariants(self, library):
        result = plan_empty(library, 0, goal=Pose(12.0, 6.0, 0.5))
        path = result.path
        for curve in path.curves:
            assert curve.s_f < FOOTPRINT.length
        # Continuity: each edge endpoint lands on the next node.
        for i, curve in enumerate(path.curves):
            end = sample_end(path.poses[i], curve)
            assert math.hypot(end.x - path.poses[i + 1].x,
                              end.y - path.poses[i + 1].y) <= 1e-3
            assert abs(normalize_angle(end.theta - path.poses[i + 1].theta)) <= 1e-3

    def test_avoids_obstacles(self, library):
        cfg = PlannerConfig(rng_seed=2, world_bounds=(-10.0, -10.0, 25.0, 15.0))
        obs = [ObstacleShape.disk(6.0, 0.0, 1.5), ObstacleShape.disk(12.0, 3.0, 1.5)]
        result = plan_path(Pose(0.0, 0.0, 0.0), Pose(18.0, 0.0, 0.0), obs, cfg,
                           library, FOOTPRINT)
        assert result is not None
        _, dense = result.path.dense_samples()
        for ob in obs:
            d = np.hypot(dense[:, 0] - ob.center[0], dense[:, 1] - ob.center[1])
            # Body-center distance must clear at least the disk itself.
            assert np.min(d) > ob.radius


class TestPath:
    def test_arc_lengths(self, library):
        path = plan_empty(library, 1).path
        assert path.arc_lengths[0] == 0.0
        assert np.all(np.diff(path.arc_lengths) > 0.0)
        assert path.total_length == pytest.approx(sum(c.s_f for c in path.curves))

    def test_pose_at_endpoints(self, library):
        path = plan_empty(library, 1).path
        p0 = path.pose_at(0.0)
        pn = path.pose_at(path.total_length)
        assert (p0.x, p0.y) == pytest.approx((path.poses[0].x, path.poses[0].y), abs=1e-6)
        assert (pn.x, pn.y) == pytest.approx((path.poses[-1].x, path.poses[-1].y), abs=1e-2)

    @pytest.mark.parametrize("s_f", [4.0, 4.000000000054563, 2.05, 0.37])
    def test_dense_samples_cached(self, s_f):
        # 4.000000000054563 is a fitted straight curve whose last sample, 5e-11
        # past 4.0, merges with the 4.0 one: its samples are spaced wider than
        # DENSE_DS, and the cache must hit all the same.
        curve = CurveParams(0.0, 0.0, 0.0, 0.0, s_f)
        path = Path([Pose(0.0, 0.0, 0.0), Pose(s_f, 0.0, 0.0)], [curve])
        table = path.dense_samples()
        assert path.dense_samples() is table

    @pytest.mark.parametrize("s_f", [3.05, 3.95])
    def test_pose_at_is_exact_on_straight_curves(self, s_f):
        """A straight curve whose length is no multiple of ``DENSE_DS`` (the
        last step is short) places every sample at its own arc length."""
        path = Path([Pose(0.0, 0.0, 0.0), Pose(s_f, 0.0, 0.0)],
                    [CurveParams(0.0, 0.0, 0.0, 0.0, s_f)])
        grid, _ = path.dense_samples()
        assert grid[-1] == s_f
        for s in np.concatenate([grid, np.linspace(0.0, s_f, 97)]):
            pose = path.pose_at(s)
            assert abs(pose.x - s) <= 1e-9 and pose.y == 0.0

    @given(st.lists(st.tuples(st.floats(-0.7, 0.7), st.floats(-0.1, 0.1),
                              st.floats(-0.02, 0.02), st.floats(-0.004, 0.004),
                              st.floats(0.05, 4.5)), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_dense_rows_lie_on_the_curves(self, coeffs):
        """Each dense row is the pose of the curve cut at the row's arc
        length; between rows, ``pose_at`` stays within the chord bound
        kappa_max ds^2 / 8 of the curve."""
        curves = [CurveParams(*c) for c in coeffs]
        poses = [Pose(1.0, -2.0, 0.5)]
        for c in curves:
            poses.append(poses[-1].transform(*integrate_endpoint(c)))
        path = Path(poses, curves)
        grid, dense = path.dense_samples()

        def exact(s):
            i = min(int(np.searchsorted(path.arc_lengths, s, side="right")) - 1,
                    len(curves) - 1)
            u = s - path.arc_lengths[i]
            return poses[i] if u <= 0.0 else \
                poses[i].transform(*integrate_endpoint(replace(curves[i], s_f=u)))

        for s, row in zip(grid, dense):
            want = exact(s)
            assert math.hypot(row[0] - want.x, row[1] - want.y) <= 1e-9
            assert abs(normalize_angle(row[2] - want.theta)) <= 1e-9
        kappa_max = max(max_abs_curvature(c) for c in curves)
        for s in (grid[1:] + grid[:-1]) / 2.0:
            got, want = path.pose_at(s), exact(s)
            assert math.hypot(got.x - want.x, got.y - want.y) <= \
                1.01 * kappa_max * DENSE_DS ** 2 / 8.0 + 1e-9

    def test_subpath_from(self, library):
        """The remainder drives the rest of the planned curve: its first edge
        is the current curve's tail, whose samples, placed at the exact start
        pose, are the original curve's from s0 on."""
        path = plan_empty(library, 1).path
        s0 = path.total_length * 0.4
        sub = path.subpath_from(s0)
        assert abs(sub.total_length - (path.total_length - s0)) <= 1e-9
        i = int(np.searchsorted(path.arc_lengths, s0)) - 1
        curve, tail, u = path.curves[i], sub.curves[0], s0 - path.arc_lengths[i]
        assert sub.poses[1:] == path.poses[i + 1:] and sub.curves[1:] == path.curves[i + 1:]
        got = sub.poses[0].place(local_curve_samples(tail, DENSE_DS))
        for k, row in enumerate(got):
            want = path.poses[i].transform(*integrate_endpoint(
                replace(curve, s_f=min(u + k * DENSE_DS, curve.s_f))))
            assert math.hypot(row[0] - want.x, row[1] - want.y) <= 1e-6
        g = np.linspace(0.0, tail.s_f, 201)
        assert np.max(np.abs(curvature_at(tail, g))) <= \
            np.max(np.abs(curvature_at(curve, np.minimum(u + g, curve.s_f)))) + 1e-12
        assert sub.poses[-1] == path.poses[-1]
        # At an interior node, or within 1e-6 m of it on either side, the
        # remainder is that node's suffix.
        assert len(path.curves) >= 3
        for s0 in (path.arc_lengths[2], path.arc_lengths[2] - 5e-7,
                   path.arc_lengths[2] + 5e-7):
            sub = path.subpath_from(s0)
            assert sub.poses == path.poses[2:] and sub.curves == path.curves[2:]

    def test_to_csv(self, library, tmp_path):
        path = plan_empty(library, 1).path
        out = tmp_path / "path.csv"
        path.to_csv(out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "i,x,y,theta,a,b,c,s_f"
        assert len(lines) == len(path.poses) + 1


class TestPlannerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlannerConfig(p_th=1.5)
        for n in (0, -3):
            with pytest.raises(ValueError, match="max_iterations"):
                PlannerConfig(max_iterations=n)
        for bad in ({"goal_bias": -0.1}, {"goal_bias": 1.5}, {"p_th": math.nan},
                    {"world_bounds": (0.0, 0.0, math.nan, 5.0)}):
            with pytest.raises(ValueError, match=f"^{next(iter(bad))} must"):
                PlannerConfig(**bad)
        PlannerConfig(p_th=0.0, goal_bias=1.0, max_iterations=1)

    def test_file_roundtrip(self, tmp_path):
        """The file text of a config parses back to that config."""
        cfg = PlannerConfig(p_th=0.25, max_iterations=1234,
                            world_bounds=(0.0, 0.0, 5.0, 5.0))
        path = tmp_path / "planner.cfg"
        path.write_text("p_th = 0.25\nmax_iterations = 1234\nworld_bounds = 0.0 0.0 5.0 5.0\n")
        loaded = PlannerConfig.from_file(path)
        assert loaded == cfg
        # == alone would accept 8.0 for 8.
        for f in fields(cfg):
            assert type(getattr(loaded, f.name)) is type(getattr(cfg, f.name)), f.name

    def test_loaded_config_plans_past_candidate_count(self, library, tmp_path):
        path = tmp_path / "planner.cfg"
        path.write_text("rng_seed = 2\nworld_bounds = -10 -10 25 15\n")
        cfg = PlannerConfig.from_file(path)
        assert cfg == PlannerConfig(rng_seed=2, world_bounds=(-10.0, -10.0, 25.0, 15.0))
        obs = [ObstacleShape.disk(6.0, 0.0, 1.5), ObstacleShape.disk(12.0, 3.0, 1.5)]
        result = plan_path(Pose(0.0, 0.0, 0.0), Pose(18.0, 0.0, 0.0), obs, cfg,
                           library, FOOTPRINT)
        assert result is not None
        assert result.node_count > EXTEND_CANDIDATES

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "planner.cfg"
        path.write_text("p_th = 0.5\nmax_iterations = 8.5\n")
        with pytest.raises(ValueError, match=":2"):
            PlannerConfig.from_file(path)

    def test_bounds_need_four_values(self, tmp_path):
        path = tmp_path / "planner.cfg"
        path.write_text("world_bounds = 0 0 5\n")
        with pytest.raises(ValueError, match=r"planner\.cfg:1: world_bounds must be finite "
                                             r"xmin ymin xmax ymax .*, got \(0\.0, 0\.0, 5\.0\)"):
            PlannerConfig.from_file(path)

    @pytest.mark.parametrize("bounds", [(30.0, 20.0, -6.0, -8.0), (0.0, 0.0, 0.0, 5.0),
                                        (0.0, 5.0, 5.0, 5.0)])
    def test_bounds_must_span_a_box(self, bounds):
        with pytest.raises(ValueError, match="^world_bounds must be finite xmin ymin xmax ymax "
                                             "with xmin < xmax and ymin < ymax"):
            PlannerConfig(world_bounds=bounds)

    def test_duplicate_key_names_both_lines(self, tmp_path):
        path = tmp_path / "planner.cfg"
        path.write_text("p_th = 0.5\nmax_iterations = 10\n# again\np_th = 0.9\n")
        with pytest.raises(ValueError, match=r"planner\.cfg:4: p_th already set on line 1"):
            PlannerConfig.from_file(path)

    def test_bad_file_reports_line(self, tmp_path):
        path = tmp_path / "planner.cfg"
        path.write_text("p_th = 0.5\nnot a config line\n")
        with pytest.raises(ValueError, match=":2"):
            PlannerConfig.from_file(path)


def sample_end(base, curve):
    dx, dy, dth = integrate_endpoint(curve)
    return base.transform(dx, dy, dth)
