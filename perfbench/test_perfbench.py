"""Fast tests of the benchmark itself: each workload at a tiny size, and each
correctness check shown to reject a corrupted output.

    python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from kinoplan import build_curve_library, get_scenario, rrt, temporal  # noqa: E402
from kinoplan.collision import ObstacleShape  # noqa: E402
from kinoplan.geometry import CurveParams, Pose  # noqa: E402


@pytest.fixture(scope="module")
def library():
    return build_curve_library()


# -- the checks' own geometry -------------------------------------------------

def test_curve_offsets_match_arc_closed_forms():
    for k in (0.0, 0.3, -0.7):
        off = checks.curve_offsets((k, 0.0, 0.0, 0.0), 3.7)[-1]
        x = 3.7 if k == 0 else math.sin(k * 3.7) / k
        y = 0.0 if k == 0 else (1.0 - math.cos(k * 3.7)) / k
        assert off == pytest.approx([x, y, k * 3.7], abs=1e-12)


def test_kappa_max_is_the_dense_maximum():
    coeffs, s_f = (0.1, 0.4, -0.35, 0.05), 4.0
    s = np.linspace(0.0, s_f, 200001)
    dense = np.max(np.abs(0.1 + s * (0.4 + s * (-0.35 + s * 0.05))))
    assert checks.kappa_max(coeffs, s_f) == pytest.approx(dense, abs=1e-9)


def test_polygon_signed_distance():
    square = [(0, 0), (2, 0), (2, 2), (0, 2)]
    pts = np.array([[1.0, 1.0], [3.0, 1.0], [1.0, 2.5], [3.0, 3.0]])
    d = checks.polygon_signed_distance(pts, square)
    assert d == pytest.approx([-1.0, 1.0, 0.5, math.sqrt(2.0)])


def test_script_poses_match_the_scenario_scripts():
    for world in ("wait", "cross", "blocked"):
        mob = get_scenario(world).moving[0]
        times = np.linspace(-2.0, 60.0, 311)
        ours = checks.script_poses(mob.waypoints, times)
        theirs = [mob.pose_at(float(t)) for t in times]
        np.testing.assert_allclose(ours[:, :2], [(p.x, p.y) for p in theirs], atol=1e-12)
        np.testing.assert_allclose(checks.wrap(ours[:, 2] - [p.theta for p in theirs]), 0.0,
                                   atol=1e-12)


# -- closed-loop ----------------------------------------------------------------

def test_closed_loop_check_accepts_a_run_and_rejects_corruptions(library):
    out = workloads.ClosedLoop(0, library)._run("cross", 0)
    assert not out.failed and out.latencies
    assert out.check() == ""
    scenario, trace = get_scenario("cross"), out.output
    x, y, th = trace.poses[-1]
    short = replace(trace, poses=trace.poses[:-1] + [(x - 1.0, y, th)])
    assert "from goal" in checks.check_scenario_run(scenario, short)
    into_wall = list(trace.poses)
    into_wall[40] = (5.0, 3.0, 0.0)  # inside the corridor's upper wall
    assert "clearance" in checks.check_scenario_run(scenario, replace(trace, poses=into_wall))


# -- disk-queries ---------------------------------------------------------------

def _own_path(start, curves):
    """A path whose nodes are placed by the checks' own integration."""
    poses = [start]
    for cv in curves:
        end = checks.to_world((poses[-1].x, poses[-1].y, poses[-1].theta),
                              checks.curve_offsets((cv.kappa0, cv.a, cv.b, cv.c), cv.s_f))[-1]
        poses.append(Pose(*end))
    return rrt.Path(poses, curves)


def test_disk_check_accepts_a_query_and_rejects_corruptions(library):
    bench = workloads.DiskQueries(0, library)
    out = bench._query(0, 0)
    assert not out.failed
    assert out.check() == ""
    disks, start, goal, _ = workloads.scenarios.random_disk_world(0, 0.0)
    path, fp, kmax = out.output, bench.footprint, library.config.kappa_max
    moved = list(path.poses)
    moved[1] = Pose(moved[1].x + 1e-3, moved[1].y, moved[1].theta)
    assert "lands" in checks.check_disk_path(rrt.Path(moved, path.curves), start, goal,
                                             disks, fp, kmax)
    assert "start" in checks.check_disk_path(path, Pose(0.0, 0.1, start.theta), goal,
                                             disks, fp, kmax)
    blocker = ObstacleShape.disk(path.poses[1].x, path.poses[1].y, 0.5)
    assert "clearance" in checks.check_disk_path(path, start, goal, disks + [blocker], fp, kmax)
    # Joins that hold but a curvature above the bound.
    sharp = _own_path(Pose(0.0, 0.0, 0.0), [CurveParams(0.0, 0.5, 0.0, 0.0, 2.0),
                                             CurveParams(1.0, -0.5, 0.0, 0.0, 2.0)])
    reason = checks.check_disk_path(sharp, sharp.poses[0], sharp.poses[-1], [], fp, kmax)
    assert "kappa" in reason


# -- timing-queries -------------------------------------------------------------

def test_timing_check_accepts_a_query_and_rejects_corruptions(library):
    bench = workloads.TimingQueries(3, library)
    queries = bench.queries[:4]
    outs = [bench._query(q) for q in queries]
    assert not any(out.failed for out in outs)
    assert [out.check() for out in outs] == [""] * 4
    q, traj = queries[0], outs[0].output

    def with_times(t):
        return replace(traj, timestamps=np.asarray(t, dtype=float))

    t = traj.timestamps
    assert "!= 0" in checks.check_trajectory(with_times(t + 0.5), q)
    rushed = t.copy()
    rushed[1:] = t[1:] - 0.9 * (t[1] - t[0])  # first edge driven ten times faster
    assert "v_max" in checks.check_trajectory(with_times(rushed), q)
    jerk = t.copy()
    jerk[len(t) // 2:] += 2.0  # a two-second stop and restart mid-path
    assert "a_max" in checks.check_trajectory(with_times(jerk), q)
    swapped = t.copy()
    swapped[1], swapped[2] = swapped[2], swapped[1]
    assert "increasing" in checks.check_trajectory(with_times(swapped), q)
    assert "duration" in checks.check_trajectory(with_times(t / 3.0), q)
    # A parked car on the path, which the query's tracks do not contain.
    mid = q.path.poses[len(q.path.poses) // 2]
    parked = replace(q.tracks[0], state=np.array([mid.x, mid.y, 0.0, 0.0]),
                     last_update=q.t0)
    assert "clearance" in checks.check_trajectory(traj, replace(q, tracks=[parked]))


# -- how a run aggregates and checks ------------------------------------------

def test_round_metrics_take_each_operation_at_its_median():
    outs = [workloads.Outcome(key, False, s, [s])
            for key, s in (("a", 1.0), ("b", 0.5), ("a", 9.0), ("b", 0.4), ("a", 1.2),
                           ("b", 0.6))]
    metrics = run.round_metrics(outs)
    assert metrics["wall_s"] == pytest.approx(1.2 + 0.5)
    assert metrics["queries_per_s"] == pytest.approx(2 / 1.7)


def test_repeated_outputs_are_checked_once_and_others_again():
    calls = []

    def outcome(output, reason=""):
        return workloads.Outcome("k", False, 1.0, [1.0],
                                 lambda: calls.append(output) or reason, output)

    problems = run.check_outcomes([outcome([1, 2]), outcome([1, 2]), outcome([1, 3], "bad")])
    assert calls == [[1, 2], [1, 3]]
    assert problems == ["operation 2: bad"]


# -- the command ----------------------------------------------------------------

def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_command_prints_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert declared == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)

    for trace, names in ((0, declared), (1, layers.PER_LAYER)):
        proc = _run(["--workload", "timing-queries", "--seed", "5", "--seconds", "0.1",
                     "--trace", str(trace)])
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == 24
        assert list(result["metrics"]) == list(names)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["temporal.sqp_calls"] == 24 and metrics["rrt.plan_calls"] == 0
    assert metrics["geometry.fit_curve_calls"] > 0  # the traced library build


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "disk-queries", "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
