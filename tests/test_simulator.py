"""Trace logs, metrics, artifact export, and full runs."""

import math
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from kinoplan import rrt, simulator
from kinoplan.collision import (ObstacleShape, clearance_to_obstacle, footprint_circles,
                                footprint_circles_batch, min_clearance)
from kinoplan.geometry import CurveParams, Pose
from kinoplan.rrt import Path, plan_path
from kinoplan.scenarios import Scenario, get_scenario
from kinoplan.simulator import (BLOCKER_INFLATION, EXECUTING, PLANNING, REPLANNING,
                                REVALIDATE_MARGIN, WAITING, TickTable, TraceLog, _Runner,
                                derive_trace, export_artifacts, metrics, run_scenario)
from kinoplan.temporal import Trajectory, _predicted_obstacle_circles, predicted_hits
from kinoplan.tracking import Observation, ObstacleTrack

FLAGS = {PLANNING, EXECUTING, WAITING, REPLANNING}


def empty_scenario():
    return Scenario(name="open", start=Pose(0.0, 0.0, 0.0),
                    goal=Pose(12.0, 0.0, 0.0),
                    bounds=(-6.0, -8.0, 18.0, 8.0), time_limit=40.0)


class TestMetrics:
    def test_stationary(self):
        tr = TraceLog(times=[0.0, 0.1], poses=[(1.0, 1.0, 0.0)] * 2,
                      velocities=[0.0, 0.0], accelerations=[0.0, 0.0],
                      flags=["planning"] * 2, clearances=[2.0, 1.5])
        m = metrics(tr)
        assert m["total_length"] == 0.0
        assert m["total_time"] == 0.1
        assert m["min_clearance"] == 1.5

    def test_straight_run(self):
        n = 11
        tr = TraceLog(times=list(np.linspace(0.0, 10.0, n)),
                      poses=[(float(i), 0.0, 0.0) for i in range(n)],
                      velocities=[1.0] * n, accelerations=[0.0] * n,
                      flags=["executing"] * n, clearances=[1.0] * n,
                      success=True)
        m = metrics(tr)
        assert m["total_length"] == pytest.approx(10.0)
        assert m["success"] is True


class TestTraceLog:
    def test_csv_roundtrip(self, scenario_runs):
        trace = scenario_runs[("cross", 0)]
        assert len(trace.times) == len(trace.poses) == len(trace.flags)

    def test_csv_row_count_and_reload(self, tmp_path, scenario_runs):
        trace = scenario_runs[("bypass", 0)]
        out = tmp_path / "trace.csv"
        trace.to_csv(out)
        lines = out.read_text().strip().split("\n")
        assert len(lines) == len(trace.times) + 1
        back = TraceLog.from_csv(out)
        assert back.times == trace.times
        assert back.velocities == trace.velocities
        assert back.flags == trace.flags
        assert back.obstacle_ids == trace.obstacle_ids
        for oid in trace.obstacle_ids:
            for a, b in zip(back.obstacle_poses[oid], trace.obstacle_poses[oid]):
                assert a[:2] == b[:2]

    def test_from_csv_bad_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,x,y,theta,v,a,flag\n0,0,0,0,0\n")
        with pytest.raises(ValueError, match=":2"):
            TraceLog.from_csv(p)


class TestRunInvariants:
    def test_flags_valid_and_start_planning(self, scenario_runs):
        for trace in scenario_runs.values():
            assert set(trace.flags) <= FLAGS
            assert trace.flags[0] == PLANNING

    def test_obstacle_script_fidelity(self, scenario_runs):
        """Logged obstacle poses must equal the script exactly at every tick."""
        for (name, seed), trace in scenario_runs.items():
            if seed:
                continue
            sc = get_scenario(name)
            for mob in sc.moving:
                logged = trace.obstacle_poses[mob.id]
                for t, row in zip(trace.times, logged):
                    p = mob.pose_at(t)
                    assert row == (p.x, p.y, p.theta)

    @pytest.mark.parametrize("name", ["cross", "bypass"])
    def test_clearances_match_per_tick_reference(self, library, name):
        """The batched clearance pass gives each tick's per-pose clearance bit
        for bit: static walls or a parked car, and a moving footprint."""
        sc = get_scenario(name)
        trace = run_scenario(sc, seed=0, library=library)
        want = []
        for i, pose in enumerate(trace.poses):
            robot = footprint_circles(sc.robot, Pose(*pose))
            clear = min_clearance(robot, sc.robot.radius, tuple(sc.static_obstacles))
            for mob in sc.moving:
                shape = ObstacleShape.footprint_at(mob.footprint,
                                                   Pose(*trace.obstacle_poses[mob.id][i]))
                clear = min(clear, clearance_to_obstacle(robot, sc.robot.radius, shape))
            want.append(clear)
        assert np.asarray(trace.clearances).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("key", [("cross", 0), ("overtake", 1), ("wait", 0)])
    def test_derive_trace_from_ticks(self, scenario_runs, key):
        """Times, poses and flags alone give back every derived field, bit for bit."""
        run = scenario_runs[key]
        ticks = TraceLog(times=list(run.times), poses=list(run.poses), flags=list(run.flags),
                         obstacle_ids=list(run.obstacle_ids))
        derive_trace(get_scenario(key[0]), ticks)
        for name in ("velocities", "accelerations", "clearances", "obstacle_poses",
                     "success"):
            assert getattr(ticks, name) == getattr(run, name), name

    def test_kinematics_consistent_with_log(self, scenario_runs):
        """Logged velocity is the per-tick displacement over sim_dt."""
        trace = scenario_runs[("overtake", 1)]
        pts = np.asarray(trace.poses)
        d = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
        v = np.asarray(trace.velocities)
        assert np.allclose(v[1:], d / get_scenario("overtake").sim_dt, atol=1e-12)


def _arange_future_safe(runner, traj, since, t_now):
    """Revalidation as it was before tick tables: np.arange sample times from
    now to the end, and the robot's poses and covers rebuilt at every call."""
    rel = t_now - since
    times = np.arange(rel, traj.duration + runner.sc.sim_dt / 2.0, runner.sc.sim_dt)
    if len(times) == 0:
        times = np.array([traj.duration])
    robot = footprint_circles_batch(runner.sc.robot, traj.poses_at(times))
    obstacle_circles = _predicted_obstacle_circles(runner.store.filters, times, since)
    return not np.any(predicted_hits(robot, runner.sc.robot, obstacle_circles,
                                     REVALIDATE_MARGIN))


class _CheckedRunner(_Runner):
    """Records (tick-table answer, arange answer) at every revalidation."""

    def _future_safe(self, table, tick):
        got = super()._future_safe(table, tick)
        want = _arange_future_safe(self, table.trajectory, table.since,
                                   tick * self.sc.sim_dt)
        self.answers.append((got, want))
        return got


def _bits(poses) -> bytes:
    return np.asarray([(p.x, p.y, p.theta) for p in poses], dtype=float).tobytes()


class TestTickTable:
    @pytest.mark.parametrize("key", [("overtake", 0), ("cross", 0), ("bypass", 1)])
    def test_poses_are_pose_at(self, scenario_runs, key):
        """Every row is ``Trajectory.pose_at(tick * dt - since)`` to the bit, for
        every adopted trajectory, retimes included, and for ten ticks past its end."""
        sc, events = get_scenario(key[0]), scenario_runs[key].events
        adopted = [ev for ev in events if ev.trajectory is not None]
        assert adopted and (key != ("overtake", 0) or
                            any(ev.kind == "retime" for ev in adopted))
        dt = sc.sim_dt
        for ev in adopted:
            first = round(ev.time / dt)
            table = TickTable(ev.trajectory, first, dt, sc.robot)
            assert table.since == ev.time
            assert table.times[-1] < ev.trajectory.duration + dt / 2.0 <= \
                (first + len(table.times)) * dt - table.since
            ticks = range(first, first + len(table.times) + 10)
            assert _bits(map(table.pose, ticks)) == _bits(
                ev.trajectory.pose_at(tick * dt - ev.time) for tick in ticks)

    def test_executed_poses_come_from_the_table(self, scenario_runs):
        """Each adopted trajectory is driven from its table until the next
        planning attempt (overtake seed 0 has failed retimes in between)."""
        trace = scenario_runs[("overtake", 0)]
        sc = get_scenario("overtake")
        dt = sc.sim_dt
        ticks = [round(ev.time / dt) for ev in trace.events] + [len(trace.times)]
        for ev, first, last in zip(trace.events, ticks, ticks[1:]):
            if ev.trajectory is None:
                continue
            table = TickTable(ev.trajectory, first, dt, sc.robot)
            assert trace.poses[first:last] == [(p.x, p.y, p.theta) for p in
                                               map(table.pose, range(first, last))]

    @pytest.mark.parametrize("name", ["cross", "overtake"])
    def test_revalidation_matches_arange_check(self, library, scenario_runs, name):
        """At every perception tick of a run, the table's check gives the answer
        of the per-call arange check, and the run keeps its trace."""
        runner = _CheckedRunner(get_scenario(name), None, 0, library)
        runner.answers = []
        trace = runner.run()
        assert runner.answers and all(got == want for got, want in runner.answers)
        assert trace.poses == scenario_runs[(name, 0)].poses
        if name == "overtake":
            assert (False, False) in runner.answers

    def test_revalidation_past_the_end(self, library):
        """Past its last instant the check tests the end pose at the duration,
        as the arange check does, with and without a track there."""
        path = Path([Pose(0.0, 0.0, 0.0), Pose(3.0, 0.0, 0.0)],
                    [CurveParams(0.0, 0.0, 0.0, 0.0, 3.0)])
        traj = Trajectory(path, np.array([0.0, 2.0]))
        answers = []
        for x in (3.0, 40.0):  # a track parked at the end pose, and one far away
            runner = _Runner(empty_scenario(), None, 0, library)
            runner.store.step([Observation((x, 0.0), 1.0, 0.01)], 1.0)
            dt = runner.sc.sim_dt
            table = TickTable(traj, 20, dt, runner.sc.robot)
            assert len(table.times) == 41  # ticks 20..60; 61 on are past the end
            for tick in range(20, 80, 2):
                answers.append(runner._future_safe(table, tick))
                assert answers[-1] == _arange_future_safe(runner, traj, table.since,
                                                          tick * dt)
        assert not all(answers) and any(answers)


class TestRecordGuard:
    def test_closed_loop_builds_no_records(self, library, scenario_runs, monkeypatch):
        """Overtake seed 0 (retimes, a replan, frozen blockers) constructs no
        ``ObstacleTrack``: planning, revalidation and the events read the
        tracker's filters.  The run keeps its trace, and each event keeps the
        tracks as they were at its time, not the filters stepped since."""
        built = []
        post_init = ObstacleTrack.__post_init__

        def counted_post_init(track):
            built.append(track.id)
            post_init(track)

        monkeypatch.setattr(ObstacleTrack, "__post_init__", counted_post_init)
        trace = run_scenario(get_scenario("overtake"), seed=0, library=library)
        want = scenario_runs[("overtake", 0)]
        assert (trace.poses, trace.flags) == (want.poses, want.flags)
        assert {ev.kind for ev in trace.events} == {"initial", "retime", "replan"}
        assert built == []
        assert all(ev.time - 0.1 <= tr.last_update <= ev.time for ev in trace.events
                   for tr in ev.tracks)


class TestFullRuns:
    def test_empty_world_reaches_goal(self, library):
        sc = empty_scenario()
        trace = run_scenario(sc, seed=0, library=library)
        assert trace.success
        end = trace.poses[-1]
        assert math.hypot(end[0] - 12.0, end[1]) <= sc.goal_pos_tol

    def test_wait_without_car_is_faster(self, library, scenario_runs):
        sc = get_scenario("wait")
        unobstructed = replace(sc, moving=[])
        free = run_scenario(unobstructed, seed=0, library=library)
        assert free.success
        withcar = scenario_runs[("wait", 0)]
        assert free.times[-1] < withcar.times[-1]

    def test_time_limit_exceeded(self, library):
        trace = run_scenario(replace(empty_scenario(), time_limit=2.0), seed=0,
                             library=library)
        assert trace.success is False
        assert trace.times[-1] == pytest.approx(2.0)

    @pytest.mark.parametrize("kwargs,message", [
        ({"seed": -1}, "seed must be a non-negative integer, got -1"),
        ({"seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
    ])
    def test_bad_argument_is_refused(self, kwargs, message):
        """Refused before any work, naming the parameter and its value: a bad
        seed used to fail inside numpy."""
        with pytest.raises(ValueError) as err:
            run_scenario(get_scenario("blocked"), **kwargs)
        assert str(err.value) == message

    def test_planning_bug_is_not_a_failed_plan(self, library, monkeypatch):
        """Only start or goal in collision counts as a failed plan; any other
        ValueError raised while planning comes out of the run."""
        def broken(*args):
            raise ValueError("broken extension")

        monkeypatch.setattr(rrt, "extend", broken)
        with pytest.raises(ValueError, match="broken extension"):
            run_scenario(empty_scenario(), library=library)

    def test_short_remainder_retime_is_recorded(self, library):
        """A retime with less than one edge left is a failed attempt, and recorded."""
        runner = _Runner(empty_scenario(), None, 0, library)
        path = Path([Pose(0.0, 0.0, 0.0), Pose(3.0, 0.0, 0.0)],
                    [CurveParams(0.0, 0.0, 0.0, 0.0, 3.0)])
        traj = Trajectory(path, np.array([0.0, 2.0]))
        assert runner._attempt(5.0, "retime", runner._retime, traj, 0.0, 5.0) is None
        [ev] = runner.trace.events
        assert (ev.time, ev.kind, ev.path, ev.trajectory, ev.node_intervals) == \
            (5.0, "retime", None, None, None)
        assert ev.latency >= 0.0

    def test_one_geometric_plan_per_blocker_variant(self, library, monkeypatch):
        """Each blocker variant is planned once, with every frozen track
        ``BLOCKER_INFLATION`` wider than its cover.  The RRT seeds are those
        of a planner that retried each failed plan with the tracks inflated
        by 0.75 m and by 0 m: on ``blocked`` seed 0 that planner used seeds
        0-10, and its two failed ladders took 1, 2, 4 and 5."""
        sc = get_scenario("blocked")
        calls = []

        def recording(start, goal, obstacles, config, lib, footprint):
            calls.append((config.rng_seed, obstacles[len(sc.static_obstacles):]))
            return plan_path(start, goal, obstacles, config, lib, footprint)

        monkeypatch.setattr(simulator, "plan_path", recording)
        run_scenario(sc, seed=0, library=library)
        assert [seed for seed, _ in calls] == [0, 3, 6, 7, 8, 9, 10]
        radii = {m.footprint.radius + BLOCKER_INFLATION for m in sc.moving}
        blockers = [b for _, bs in calls for b in bs]
        assert blockers and all(b.kind == "disk" for b in blockers)
        assert {b.radius for b in blockers} == radii

    def test_every_event_latency_measured(self, scenario_runs):
        events = scenario_runs[("overtake", 0)].events
        assert "retime" in {e.kind for e in events}
        assert all(e.latency > 0.0 for e in events)


class TestExportArtifacts:
    def test_files_and_reexport(self, tmp_path, scenario_runs):
        trace = scenario_runs[("cross", 0)]
        sc = get_scenario("cross")
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        export_artifacts(trace, out1, sc)
        export_artifacts(trace, out2, sc)
        for name in ("trace.csv", "metrics.txt", "trace.svg", "intervals_00.svg"):
            f1, f2 = out1 / name, out2 / name
            assert f1.exists()
            assert f1.read_bytes() == f2.read_bytes()
        # SVGs must be well-formed XML.
        for svg in out1.glob("*.svg"):
            ET.parse(svg)
        m = (out1 / "metrics.txt").read_text()
        assert "success True" in m

    def test_without_scenario(self, tmp_path, scenario_runs):
        export_artifacts(scenario_runs[("follow", 0)], tmp_path / "c")
        assert (tmp_path / "c" / "trace.svg").exists()
        ET.parse(tmp_path / "c" / "trace.svg")
