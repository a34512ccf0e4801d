"""Scenario definitions, scripted obstacles, and the scenario file format."""

import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinoplan.collision import FootprintSpec, ObstacleShape, disc_radius
from kinoplan.geometry import Pose, normalize_angle
from kinoplan.scenarios import (Scenario, ScriptedObstacle, builtin_scenarios,
                                follow_scenario, get_scenario, load_scenario,
                                random_disk_world, save_scenario,
                                wait_scenario)

CAR = FootprintSpec.from_dimensions(4.0, 2.0)
HEADER = ["name x", "bounds -5 -5 15 5", "start 0 0 0", "goal 10 0 0"]


def _heading_walk(waypoints, t: float) -> float:
    """The heading of ``ScriptedObstacle.pose_at`` before wrapping, as a walk
    over the waypoint rows at every call: the oracle of its lookup table."""
    wp = np.asarray(waypoints, dtype=float)
    heading = 0.0
    for i in range(len(wp) - 1):
        dx = wp[i + 1, 1] - wp[i, 1]
        dy = wp[i + 1, 2] - wp[i, 2]
        if dx * dx + dy * dy > 1e-12:
            heading = math.atan2(dy, dx)
        if t < wp[i + 1, 0]:
            break
    return heading


def _script(t0, steps):
    """Waypoints from t0 at (0, 0), then one row per (gap, kind, dx, dy)
    step: a move, no move, or a move of 1e-6 times (dx, dy) around the
    stationary threshold."""
    rows = [(t0, 0.0, 0.0)]
    for gap, kind, dx, dy in steps:
        scale = {"move": 1.0, "still": 0.0, "tiny": 1e-7}[kind]
        t, x, y = rows[-1]
        rows.append((t + gap, x + scale * dx, y + scale * dy))
    return rows


def _float_bits(values) -> bytes:
    return np.array(list(values), dtype=float).tobytes()


class TestScriptedObstacle:
    def test_interpolates_and_holds(self):
        ob = ScriptedObstacle(0, CAR, [(1.0, 0.0, 0.0), (3.0, 4.0, 0.0)])
        assert ob.position_at(0.0) == pytest.approx([0.0, 0.0])  # held before
        assert ob.position_at(2.0) == pytest.approx([2.0, 0.0])
        assert ob.position_at(10.0) == pytest.approx([4.0, 0.0])  # held after

    def test_heading_follows_segment(self):
        ob = ScriptedObstacle(0, CAR, [(0.0, 0.0, 0.0), (1.0, 0.0, 2.0),
                                       (2.0, 3.0, 2.0)])
        assert ob.pose_at(0.5).theta == pytest.approx(math.pi / 2.0)
        assert ob.pose_at(1.5).theta == pytest.approx(0.0)
        # Held past the last waypoint.
        assert ob.pose_at(50.0).theta == pytest.approx(0.0)

    def test_heading_held_while_stationary(self):
        ob = ScriptedObstacle(0, CAR, [(0.0, 0.0, 0.0), (1.0, 0.0, 2.0),
                                       (5.0, 0.0, 2.0)])
        assert ob.pose_at(3.0).theta == pytest.approx(math.pi / 2.0)

    @settings(max_examples=300, deadline=None)
    @given(waypoints=st.builds(lambda *a: _script(*a), st.floats(-5.0, 5.0),
                               st.lists(st.tuples(st.floats(0.01, 5.0),
                                                  st.sampled_from(["move", "still", "tiny"]),
                                                  st.floats(-10.0, 10.0),
                                                  st.floats(-10.0, 10.0)), max_size=6)),
           extra=st.lists(st.floats(-20.0, 50.0), max_size=10))
    def test_heading_table_matches_row_walk(self, waypoints, extra):
        """``pose_at`` and ``poses_at`` give the bits of the per-call walk
        over the waypoint rows, wrapped: before the first waypoint, on each one,
        between them, across stationary stretches and steps at the 1e-6 m
        threshold, past the last one, and for a one-waypoint script."""
        ob = ScriptedObstacle(0, CAR, waypoints)
        t = [row[0] for row in waypoints]
        times = [t[0] - 1.0, *t, *((a + b) / 2.0 for a, b in zip(t, t[1:])), t[-1] + 1.0,
                 *extra]
        walk = [_heading_walk(waypoints, u) for u in times]
        xs, ys = (np.interp(times, t, [row[j] for row in waypoints]).tolist() for j in (1, 2))
        want = _float_bits(v for x, y, h in zip(xs, ys, walk) for v in (x, y, normalize_angle(h)))
        assert _float_bits(v for u in times for v in astuple(ob.pose_at(u))) == want
        assert _float_bits(v for pose in ob.poses_at(times) for v in pose) == want

    def test_bad_waypoints(self):
        with pytest.raises(ValueError):
            ScriptedObstacle(0, CAR, [(1.0, 0.0, 0.0), (1.0, 1.0, 0.0)])
        with pytest.raises(ValueError):
            ScriptedObstacle(0, CAR, [])


class TestBuiltinScenarios:
    def test_names_and_lookup(self):
        names = [sc.name for sc in builtin_scenarios()]
        assert names == ["cross", "overtake", "bypass", "follow", "wait"]
        for name in names + ["blocked"]:
            assert get_scenario(name).name == name
        with pytest.raises(KeyError):
            get_scenario("nope")

    def test_channel_widths_force_the_interaction(self):
        """The follow channel and the wait slot are each too narrow for the
        robot and the car abreast, but wide enough for either alone."""
        robot = follow_scenario().robot
        # Lateral extent of each vehicle's circle cover is its disc diameter.
        robot_cover = 2.0 * disc_radius(robot.length, robot.width)
        car_cover = 2.0 * disc_radius(CAR.length, CAR.width)
        two_abreast = robot_cover + car_cover
        # follow: walls at y = 2 and y = -2.
        assert robot_cover < 4.0 < two_abreast
        # wait: walls at y = 2.2 and y = -2.2.
        assert robot_cover < 4.4 < two_abreast

    def test_blocked_car_parks_in_opening(self):
        sc = get_scenario("blocked")
        car = sc.moving[0]
        p = car.position_at(6.0)
        assert 14.0 <= p[0] <= 16.0 and -2.5 <= p[1] <= 2.5
        assert np.array_equal(car.position_at(500.0), p)


class TestRandomDiskWorld:
    def test_deterministic(self):
        a, _, _, _ = random_disk_world(4)
        b, _, _, _ = random_disk_world(4)
        assert len(a) == len(b) == 15
        for oa, ob in zip(a, b):
            assert np.array_equal(oa.center, ob.center)
            assert oa.radius == ob.radius

    def test_radii_and_clearance(self):
        for seed in range(5):
            disks, start, goal, bounds = random_disk_world(seed, 0.3)
            assert start.theta == pytest.approx(0.3)
            for d in disks:
                assert 0.5 <= d.radius <= 2.0
                for p in (start, goal):
                    assert math.hypot(d.center[0] - p.x, d.center[1] - p.y) \
                        >= d.radius + 5.0


class TestScenarioFiles:
    @pytest.mark.parametrize("name",
                             ["cross", "overtake", "bypass", "follow", "wait",
                              "blocked"])
    def test_roundtrip(self, name, tmp_path):
        sc = get_scenario(name)
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        save_scenario(sc, p1)
        loaded = load_scenario(p1)
        save_scenario(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded == sc
        assert loaded.name == sc.name
        assert loaded.start == sc.start and loaded.goal == sc.goal
        assert loaded.bounds == sc.bounds
        assert loaded.v_max == sc.v_max and loaded.time_limit == sc.time_limit
        assert len(loaded.static_obstacles) == len(sc.static_obstacles)
        assert len(loaded.moving) == len(sc.moving)
        for ma, mb in zip(loaded.moving, sc.moving):
            assert ma.id == mb.id
            assert ma.footprint == mb.footprint
            assert np.array_equal(ma.waypoints, mb.waypoints)

    def test_roundtrip_keeps_bounds_and_covers(self, tmp_path):
        """Full-precision bounds, and one-circle covers the aspect ratio would
        not pick, on the robot, a parked car and a moving obstacle."""
        single = FootprintSpec.from_dimensions(2.0, 1.0, single_circle=True)
        sc = Scenario(name="covers", start=Pose(0.0, 0.0, 0.0), goal=Pose(9.0, 1.0, 0.5),
                      bounds=(-6.123456789, -8.0, 30.000000001, 20.0), robot=single,
                      static_obstacles=[ObstacleShape.disk(3.0, 4.0, 1.0),
                                        ObstacleShape.footprint_at(single, Pose(5.0, 2.0, 0.3)),
                                        ObstacleShape.polygon([(0, 5), (1, 5), (1, 6)])],
                      moving=[ScriptedObstacle(3, single, [(0.0, 1.0, 2.0), (4.0, 5.0, 2.0)]),
                              ScriptedObstacle(7, CAR, [(1.0, 0.0, 0.0)])])
        p = tmp_path / "s.txt"
        save_scenario(sc, p)
        loaded = load_scenario(p)
        assert loaded.bounds == sc.bounds
        assert loaded.robot == single
        assert loaded.static_obstacles == sc.static_obstacles
        assert [m.footprint for m in loaded.moving] == [single, CAR]
        assert loaded == sc

    def test_loads_parent_format(self, tmp_path):
        """The optional cover flag: absent means the aspect-ratio cover, and an
        ``obstacle`` line may carry an explicit 0."""
        p = tmp_path / "s.txt"
        p.write_text("name x\nbounds -5 -5 15 5\nstart 0 0 0\ngoal 10 0 0\n"
                     "robot 2 1\nparked 2 1 5 0 0 1\nobstacle 0 4 2 0\nobstacle 1 2 1 1\n"
                     "waypoint 0 0 1 1\nwaypoint 1 0 2 2\n")
        sc = load_scenario(p)
        assert sc.robot == FootprintSpec.from_dimensions(2.0, 1.0)
        assert len(sc.static_obstacles[0].footprint.center_offsets) == 1
        assert [m.footprint for m in sc.moving] == [
            CAR, FootprintSpec.from_dimensions(2.0, 1.0, single_circle=True)]

    @pytest.mark.parametrize("lines,message", [
        (["sim_dt 0"], r"s\.txt:5: sim_dt must be positive"),
        (["horizon -1"], r"s\.txt:5: horizon must be positive"),
        (["time_limit 1e999"], r"s\.txt:5: time_limit must be positive and finite, got inf"),
        (["goal_pos_tol nan"], r"s\.txt:5: goal_pos_tol must be positive"),
        (["bounds 1 2 3"], r"s\.txt:5: bounds: expected 4 numbers, got 3"),
        (["v_max fast"], r"s\.txt:5: v_max: could not convert"),
        (["disk 1 2"], r"s\.txt:5: disk: expected 3 numbers, got 2"),
        (["obstacle 0 4 2", "waypoint 0 1 0 0", "waypoint 0 1 1 0"],
         r"s\.txt:5: waypoint times must be strictly increasing"),
        (["obstacle 0 4 2", "waypoint 1 1 0 0"], r"s\.txt:6: waypoint before obstacle 1"),
        (["disk 5 5 1", "obstacle 0 4 2"], r"s\.txt:6: waypoints must be"),
        (["obstacle 2 4 2", "obstacle 2 4 2"], r"s\.txt:6: obstacle 2 already defined on line 5"),
        (["robot nan 1.9"], r"s\.txt:5: robot: footprint dimensions must be positive and finite"),
        (["start nan 0 0"], r"s\.txt:5: start must be finite"),
        (["bounds -6 -8 inf 8"], r"s\.txt:5: bounds must be finite"),
        (["parked inf 1.9 14 0.8 0.15"], r"s\.txt:5: parked: footprint dimensions must be"),
        (["parked 4.2 1.9 14 nan 0.15"], r"s\.txt:5: parked: footprint pose must be finite"),
        (["obstacle 0 4 2", "waypoint 0 24 nan 6"], r"s\.txt:5: waypoints must be finite"),
        (["disk 5 0 nan"], r"s\.txt:5: disk: disk radius must be positive and finite"),
        (["disk nan 0 1"], r"s\.txt:5: disk: disk center must be finite"),
        (["polygon 0 0 1 0 nan 1"], r"s\.txt:5: polygon: polygon vertices must be finite"),
        (["obs_noise nan"], r"s\.txt:5: obs_noise must be finite and non-negative, got nan"),
        (["obs_noise inf"], r"s\.txt:5: obs_noise must be finite and non-negative, got inf"),
        (["obs_noise -0.5"], r"s\.txt:5: obs_noise must be finite and non-negative, got -0.5"),
        (["start 0 0 inf"], r"s\.txt:5: start must be finite, got \(0\.0, 0\.0, inf\)$"),
        (["start 0 0 -inf"], r"s\.txt:5: start must be finite, got \(0\.0, 0\.0, -inf\)$"),
        (["goal 10 0 inf"], r"s\.txt:5: goal must be finite, got \(10\.0, 0\.0, inf\)$"),
        (["goal 10 0 -inf"], r"s\.txt:5: goal must be finite, got \(10\.0, 0\.0, -inf\)$"),
        (["parked 4.2 1.9 14 0.8 inf"],
         r"s\.txt:5: parked: footprint pose must be finite, got \(14\.0, 0\.8, inf\)$"),
        (["parked 4.2 1.9 14 0.8 -inf"],
         r"s\.txt:5: parked: footprint pose must be finite, got \(14\.0, 0\.8, -inf\)$"),
    ])
    def test_bad_value_names_its_line(self, tmp_path, lines, message):
        """Each case's own header leaves out the keys its lines set (as a
        comment, so the line numbers hold): a key set twice fails on its own."""
        keys = {line.split()[0] for line in lines}
        header = [f"# {h}" if h.split()[0] in keys else h for h in HEADER]
        p = tmp_path / "s.txt"
        p.write_text("\n".join(header + lines) + "\n")
        with pytest.raises(ValueError, match=message):
            load_scenario(p)

    @pytest.mark.parametrize("line,message", [
        ("v_max 3", r"s\.txt:7: v_max already set on line 5"),
        ("v_max 2", r"s\.txt:7: v_max already set on line 5"),
        ("bounds -6 -6 16 6", r"s\.txt:7: bounds already set on line 2"),
    ])
    def test_repeated_key_names_both_lines(self, tmp_path, line, message):
        """A scalar key set twice fails on the second line, naming the first,
        as a repeated key in a planner or library config does; obstacle lines
        may repeat."""
        p = tmp_path / "s.txt"
        p.write_text("\n".join(HEADER + ["v_max 2", "disk 5 3 1", line, "disk 5 3 1"]) + "\n")
        with pytest.raises(ValueError, match=message):
            load_scenario(p)

    def test_scenario_checks_its_fields(self):
        with pytest.raises(ValueError, match="sim_dt must be positive"):
            replace(get_scenario("cross"), sim_dt=0.0)
        with pytest.raises(ValueError, match="goal must be finite"):
            replace(get_scenario("cross"), goal=Pose(math.inf, 0.0, 0.0))
        with pytest.raises(ValueError, match="obs_noise must be finite and non-negative"):
            replace(get_scenario("cross"), obs_noise=-0.5)
        assert replace(get_scenario("cross"), obs_noise=0.0).obs_noise == 0.0

    @pytest.mark.parametrize("bounds", ["30 20 -6 -8", "5 -5 5 5", "-5 5 15 5"])
    def test_bounds_must_span_a_box(self, tmp_path, bounds):
        """xmin >= xmax or ymin >= ymax fails on the bounds line, and in code."""
        p = tmp_path / "s.txt"
        p.write_text(f"name x\nbounds {bounds}\nstart 0 0 0\ngoal 10 0 0\n")
        with pytest.raises(ValueError, match=r"s\.txt:2: bounds must be finite xmin ymin xmax "
                                             r"ymax with xmin < xmax and ymin < ymax"):
            load_scenario(p)
        with pytest.raises(ValueError, match="bounds must be"):
            replace(get_scenario("cross"), bounds=tuple(map(float, bounds.split())))

    def test_moving_ids_must_be_distinct(self):
        """Two moving obstacles with one id would share one trace column."""
        sc = get_scenario("cross")
        twin = ScriptedObstacle(sc.moving[0].id, sc.moving[0].footprint, [(0.0, 0.0, 9.0)])
        with pytest.raises(ValueError, match=r"ids must be distinct, got \[0, 0\]"):
            replace(sc, moving=sc.moving + [twin])
        replace(sc, moving=sc.moving + [replace(twin, id=1)])

    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "s.txt"
        save_scenario(get_scenario("cross"), p)
        text = "# header comment\n\n" + p.read_text()
        p.write_text(text)
        assert load_scenario(p).name == "cross"

    def test_parse_error_carries_line_number(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("name x\nbogus 1 2 3\n")
        with pytest.raises(ValueError, match=":2"):
            load_scenario(p)

    def test_waypoint_before_obstacle(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("name x\nwaypoint 0 0 0 0\n")
        with pytest.raises(ValueError, match=":2"):
            load_scenario(p)

    def test_missing_required_keys(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("name x\nstart 0 0 0\n")
        with pytest.raises(ValueError, match="missing required"):
            load_scenario(p)


class TestScenarioDefaults:
    def test_wait_car_reaches_robot_corridor(self):
        """The oncoming car actually traverses the slot toward the robot."""
        car = wait_scenario().moving[0]
        xs = [car.position_at(t)[0] for t in np.arange(0.0, 30.0, 0.5)]
        assert max(xs) > 18.0 and min(xs) < 12.0

    def test_cross_conflict_point_timing(self):
        car = get_scenario("cross").moving[0]
        # Scripted at 1.5 m/s along -y from y = 10: crosses y = 0 at ~6.7 s.
        y = [car.position_at(t)[1] for t in (0.0, 20.0)]
        assert y[0] == 10.0 and y[1] == -20.0
        t_cross = 20.0 * 10.0 / 30.0
        assert car.position_at(t_cross)[1] == pytest.approx(0.0, abs=1e-9)
