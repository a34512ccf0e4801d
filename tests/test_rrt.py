"""Bidirectional RRT planning: sampling, extension, connection, determinism."""

import math
from dataclasses import fields

import numpy as np
import pytest

from kinoplan.collision import ObstacleShape, default_robot_footprint
from kinoplan.geometry import CurveParams, Pose, normalize_angle
from kinoplan import rrt
from kinoplan.rrt import (Path, PlannerConfig, Tree, TreeNode, extend,
                          gmm_sample, plan_path, random_sample)

FOOTPRINT = default_robot_footprint()


def plan_empty(library, seed, goal=Pose(10.0, 0.0, 0.0)):
    cfg = PlannerConfig(rng_seed=seed, world_bounds=(-10.0, -10.0, 20.0, 10.0))
    return plan_path(Pose(0.0, 0.0, 0.0), goal, [], cfg, library, FOOTPRINT)


class TestSampling:
    def test_random_sample_inside_ellipse(self):
        rng = np.random.default_rng(0)
        start = Pose(0.0, 0.0, 0.0)
        goal = Pose(10.0, 0.0, 0.0)
        ecc = 1.5
        # Semi-major axis: max(eccentricity-scaled half focal distance,
        # half distance + margin); sum of focal distances is at most 2A.
        semi_major = max(ecc * 5.0, 5.0 + 5.0)
        for _ in range(10000):
            x, y = random_sample(start, goal, ecc, rng, 5.0, None, 6.0)
            d = math.hypot(x - 0.0, y - 0.0) + math.hypot(x - 10.0, y - 0.0)
            assert d <= 2.0 * semi_major + 1e-9

    def test_random_sample_degenerate(self):
        rng = np.random.default_rng(1)
        p = Pose(3.0, 3.0, 0.0)
        for _ in range(1000):
            x, y = random_sample(p, p, 1.5, rng, 5.0, None, 6.0)
            assert math.hypot(x - 3.0, y - 3.0) <= 6.0 + 1e-9

    def test_random_sample_respects_world_bounds(self):
        rng = np.random.default_rng(2)
        bounds = (-1.0, -1.0, 11.0, 1.0)
        for _ in range(2000):
            x, y = random_sample(Pose(0.0, 0.0, 0.0), Pose(10.0, 0.0, 0.0),
                                 1.5, rng, 5.0, bounds, 6.0)
            assert bounds[0] - 1e-9 <= x <= bounds[2] + 1e-9
            assert bounds[1] - 1e-9 <= y <= bounds[3] + 1e-9

    def test_gmm_sample_moments(self):
        rng = np.random.default_rng(3)
        cfg = PlannerConfig(gmm_sigma=0.5)
        pts = np.array([gmm_sample([(2.0, -1.0)], cfg, rng) for _ in range(10000)])
        assert pts.mean(axis=0) == pytest.approx([2.0, -1.0], abs=0.03)
        assert pts.std(axis=0) == pytest.approx([0.5, 0.5], abs=0.03)

    def test_gmm_component_frequencies(self):
        rng = np.random.default_rng(4)
        cfg = PlannerConfig(gmm_sigma=0.1)
        centers = [(0.0, 0.0), (100.0, 0.0)]
        pts = np.array([gmm_sample(centers, cfg, rng) for _ in range(10000)])
        frac = float(np.mean(pts[:, 0] > 50.0))
        assert abs(frac - 0.5) < 0.03


class TestExtend:
    def test_duplicate_cell_rejected(self, library):
        tree = Tree(Pose(0.0, 0.0, 0.0), "forward")
        cfg = PlannerConfig()
        target = np.array([2.0, 0.0])
        first = extend(tree, 0, target, library, [], FOOTPRINT, cfg)
        assert first is not None
        second = extend(tree, 0, target, library, [], FOOTPRINT, cfg)
        assert second is None  # same lookup cell already visited at this node

    def test_straight_ahead_extension(self, library):
        tree = Tree(Pose(0.0, 0.0, 0.0), "forward")
        cfg = PlannerConfig()
        idx = extend(tree, 0, np.array([2.0, 0.0]), library, [], FOOTPRINT, cfg)
        node = tree.nodes[idx]
        assert node.pose.y == pytest.approx(0.0, abs=1e-3)
        assert node.pose.theta == pytest.approx(0.0, abs=1e-3)
        assert node.cost_from_root == pytest.approx(node.incoming_curve.s_f)

    def test_far_sample_clamped_to_r_max(self, library):
        tree = Tree(Pose(0.0, 0.0, 0.0), "forward")
        cfg = PlannerConfig()
        idx = extend(tree, 0, np.array([100.0, 0.0]), library, [], FOOTPRINT, cfg)
        node = tree.nodes[idx]
        assert node.pose.x == pytest.approx(library.config.r_max, abs=1e-3)

    def test_collision_rejected(self, library):
        tree = Tree(Pose(0.0, 0.0, 0.0), "forward")
        cfg = PlannerConfig()
        obs = [ObstacleShape.disk(2.0, 0.0, 1.0)]
        assert extend(tree, 0, np.array([4.0, 0.0]), library, obs, FOOTPRINT, cfg) is None


class TestPlanPath:
    def test_bridge_rebuilt_only_when_the_pair_changes(self, library, monkeypatch):
        """GMM draws reuse the bridging path until the nearest pair moves."""
        builds, draws = [], []
        bridge_nodes, gmm = rrt._bridge_nodes, rrt.gmm_sample

        def counted(t_f, t_b, pair):
            builds.append((pair.f_idx, pair.b_idx))
            return bridge_nodes(t_f, t_b, pair)

        def checked(nodes, config, rng):
            draws.append(nodes)
            return gmm(nodes, config, rng)

        monkeypatch.setattr(rrt, "_bridge_nodes", counted)
        monkeypatch.setattr(rrt, "gmm_sample", checked)
        obs = [ObstacleShape.disk(6.0, 0.0, 1.5), ObstacleShape.disk(12.0, 3.0, 1.5)]
        cfg = PlannerConfig(rng_seed=2, world_bounds=(-10.0, -10.0, 25.0, 15.0))
        assert plan_path(Pose(0.0, 0.0, 0.0), Pose(18.0, 0.0, 0.0), obs, cfg, library,
                         FOOTPRINT) is not None
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
        with pytest.raises(ValueError):
            plan_path(Pose(0.0, 0.0, 0.0), Pose(10.0, 0.0, 0.0), obs, cfg,
                      library, FOOTPRINT)
        with pytest.raises(ValueError):
            plan_path(Pose(10.0, 0.0, 0.0), Pose(20.0, 0.0, 0.0), obs, cfg,
                      library, FOOTPRINT)

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

    def test_subpath_from(self, library):
        path = plan_empty(library, 1).path
        s0 = path.total_length * 0.4
        sub = path.subpath_from(s0)
        assert sub.total_length == pytest.approx(path.total_length - s0, abs=0.2)
        start = path.pose_at(s0)
        assert (sub.poses[0].x, sub.poses[0].y) == \
            pytest.approx((start.x, start.y), abs=0.2)
        assert sub.poses[-1] == path.poses[-1]

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
        with pytest.raises(ValueError):
            PlannerConfig(d_th=0.0)
        for n in (0, -3):
            with pytest.raises(ValueError, match="max_iterations"):
                PlannerConfig(max_iterations=n)
        for bad in ({"static_margin": -0.01}, {"extend_candidates": 0},
                    {"goal_bias": -0.1}, {"goal_bias": 1.5}, {"connect_radius": 0.0},
                    {"gmm_sigma": math.nan}, {"d_th": math.inf},
                    {"world_bounds": (0.0, 0.0, math.nan, 5.0)}):
            with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be"):
                PlannerConfig(**bad)
        PlannerConfig(static_margin=0.0, goal_bias=1.0, extend_candidates=1)

    @pytest.mark.parametrize("bad", [
        {"eccentricity": 0.5, "ellipse_margin": -20.0},
        {"eccentricity": 0.999, "ellipse_margin": -1e-9},
        {"connect_dist_min": -0.1},
        {"connect_dist_min": 4.6, "connect_dist_max": 4.5},
        {"connect_dist_min": -2.0, "connect_dist_max": -1.0},
        {"connect_heading_tol": -0.1},
        {"gmm_sigma": -1.0},
    ])
    def test_rejects_values_that_fail_every_plan(self, bad):
        """Values that make ``random_sample`` raise or every connection
        impossible; each is named in the message."""
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be"):
            PlannerConfig(**bad)

    def test_accepts_the_edges_of_those_ranges(self):
        PlannerConfig(eccentricity=0.5, ellipse_margin=0.0)
        PlannerConfig(eccentricity=1.0, ellipse_margin=-20.0)
        PlannerConfig(connect_dist_min=0.0, connect_heading_tol=0.0, gmm_sigma=0.0)
        PlannerConfig(connect_dist_min=4.5, connect_dist_max=4.5)
        rng = np.random.default_rng(0)
        for ecc, margin in ((0.5, 0.0), (1.0, -20.0)):
            random_sample(Pose(0.0, 0.0, 0.0), Pose(10.0, 0.0, 0.0), ecc, rng, margin)

    def test_file_roundtrip(self, tmp_path):
        cfg = PlannerConfig(p_th=0.25, max_iterations=1234,
                            world_bounds=(0.0, 0.0, 5.0, 5.0))
        path = tmp_path / "planner.cfg"
        cfg.to_file(path)
        loaded = PlannerConfig.from_file(path)
        assert loaded == cfg
        # == alone would accept 8.0 for 8.
        for f in fields(cfg):
            assert type(getattr(loaded, f.name)) is type(getattr(cfg, f.name)), f.name

    def test_loaded_config_plans_past_candidate_count(self, library, tmp_path):
        path = tmp_path / "planner.cfg"
        PlannerConfig(rng_seed=2, world_bounds=(-10.0, -10.0, 25.0, 15.0)).to_file(path)
        cfg = PlannerConfig.from_file(path)
        obs = [ObstacleShape.disk(6.0, 0.0, 1.5), ObstacleShape.disk(12.0, 3.0, 1.5)]
        result = plan_path(Pose(0.0, 0.0, 0.0), Pose(18.0, 0.0, 0.0), obs, cfg,
                           library, FOOTPRINT)
        assert result is not None
        assert result.node_count > cfg.extend_candidates

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "planner.cfg"
        path.write_text("p_th = 0.5\nextend_candidates = 8.5\n")
        with pytest.raises(ValueError, match=":2"):
            PlannerConfig.from_file(path)

    def test_bounds_need_four_values(self, tmp_path):
        path = tmp_path / "planner.cfg"
        path.write_text("world_bounds = 0 0 5\n")
        with pytest.raises(ValueError, match="planner.cfg: world_bounds needs 4 values"):
            PlannerConfig.from_file(path)

    def test_bad_file_reports_line(self, tmp_path):
        path = tmp_path / "planner.cfg"
        path.write_text("p_th = 0.5\nnot a config line\n")
        with pytest.raises(ValueError, match=":2"):
            PlannerConfig.from_file(path)


def sample_end(base, curve):
    from kinoplan.geometry import integrate_endpoint
    dx, dy, dth = integrate_endpoint(curve)
    return base.transform(dx, dy, dth)
