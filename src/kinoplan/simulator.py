"""Deterministic scenario execution: the tick loop and the replan loop.

Each tick carries one of four flags.  PLANNING (tick 0) builds a geometric
path and times it against the current obstacle predictions; EXECUTING follows
the timed trajectory and revalidates it at every perception tick, re-timing
the rest of the path when the fresh predictions make it unsafe.  An adopted
trajectory is evaluated once, at every tick time it can be driven at
(``TickTable``): the executor reads each tick's pose from that table, and
revalidation its robot covers from the current tick on.  The tracker steps
its filters in place (``TrackStore.filters``); planning, the frozen blockers
and revalidation read them directly, and a planning event keeps copies.
Revalidation screens the obstacles' anchor circles before it builds any
other center, so a perception tick builds no full predicted cover.  WAITING
holds position when no safe timing exists and tries nothing until
``REPLAN_TIMEOUT`` has passed, when the path itself is replanned
(REPLANNING), treating obstacles that have stopped as static blockers.  The
loop keeps no state beyond the trajectory it executes: after tick 0, none
means waiting.  Every planning attempt is recorded in one place
(``_Runner._attempt``).  Each tick logs only what the loop decides: its
time, the robot pose and the state flag; after the run, ``derive_trace``
fills in the obstacle poses, speeds, clearances and success in one pass.
Everything is a pure function of (scenario, configs, seed).
"""

from __future__ import annotations

import copy
import math
import time as _time
from dataclasses import dataclass, field, replace

import numpy as np

from .collision import (FootprintSpec, ObstacleShape, as_world, circle_gaps,
                        footprint_circles, footprint_circles_batch, min_clearance)
from .configfile import at_line, check, read_lines, write_lines
from .geometry import CurveLibrary, Pose, build_curve_library, normalize_angle
from .rrt import EndpointInCollision, Path, PlannerConfig, plan_path
from .scenarios import Scenario
from .temporal import (NodeIntervals, TemporalConfig, Trajectory,
                       _predicted_obstacle_circles, compute_safe_intervals,
                       optimize_timestamps, predicted_hits, select_interval_sequence,
                       validate_trajectory)
from .tracking import Observation, TrackStore

PLANNING = "planning"
EXECUTING = "executing"
WAITING = "waiting"
REPLANNING = "replanning"

STOP_SPEED = 0.1  # below this a track counts as stopped, m/s
BLOCKER_INFLATION = 1.5  # extra radius for tracks frozen into the static map, m
SLOW_FACTOR = 2.5  # accept a timing only if within this multiple of free flow
REVALIDATE_MARGIN = 0.3  # predicted gap below this triggers a re-timing, m
# Seconds a waiting robot holds still before it replans the path: a crossing
# obstacle gets time to pass, and a blocker that has stopped (``blocked``) is
# routed around well inside the time limit.
REPLAN_TIMEOUT = 3.0


@dataclass
class PlanningEvent:
    """One planning or re-timing attempt, kept for analysis and SI charts;
    ``path``, ``trajectory`` and ``node_intervals`` are None where it failed."""

    time: float
    kind: str  # "initial" | "retime" | "replan"
    path: Path | None
    trajectory: Trajectory | None
    node_intervals: list[NodeIntervals] | None
    latency: float  # wall-clock seconds; excluded from exported artifacts
    tracks: list = None  # copies of the tracker's filters the plan was made against


def _trace_header(n_obs: int) -> list[str]:
    return ["t", "x", "y", "theta", "v", "a", "flag"] + ["obs_id", "obs_x", "obs_y"] * n_obs


@dataclass
class TraceLog:
    """Per-tick record of one scenario run."""

    times: list[float] = field(default_factory=list)
    poses: list[tuple[float, float, float]] = field(default_factory=list)
    velocities: list[float] = field(default_factory=list)
    accelerations: list[float] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)
    obstacle_ids: list[int] = field(default_factory=list)
    obstacle_poses: dict[int, list[tuple[float, float, float]]] = field(default_factory=dict)
    clearances: list[float] = field(default_factory=list)
    events: list[PlanningEvent] = field(default_factory=list)
    success: bool = False

    def to_csv(self, path) -> None:
        lines = [",".join(_trace_header(len(self.obstacle_ids)))]
        for i, t in enumerate(self.times):
            nums = (t, *self.poses[i], self.velocities[i], self.accelerations[i])
            row = ["%.17g" % v for v in nums] + [self.flags[i]]
            for oid in self.obstacle_ids:
                row += [str(oid), *("%.17g" % v for v in self.obstacle_poses[oid][i][:2])]
            lines.append(",".join(row))
        write_lines(path, lines)

    @classmethod
    def from_csv(cls, path) -> "TraceLog":
        """Rebuild the tick record (not the planning events) from a trace CSV;
        a bad header or row, or a number that breaks its column's rule, raises
        ValueError naming ``file:line``."""
        lines = read_lines(path, sep=",", comment=None)
        lineno, header = next(lines, (1, []))
        with at_line(path, lineno):
            if header != _trace_header((len(header) - 7) // 3):
                raise ValueError(f"expected the header {','.join(_trace_header(1))},...")
        trace = cls()
        for lineno, parts in lines:
            with at_line(path, lineno):
                if len(parts) != len(header):
                    raise ValueError(f"{len(parts)} fields, expected {len(header)}")
                for name, text in zip(header, parts):
                    if name not in ("flag", "obs_id"):
                        check(name, float(text))
                ids = [int(p) for p in parts[7::3]]
                if not trace.times:
                    trace.obstacle_ids, trace.obstacle_poses = ids, {oid: [] for oid in ids}
                elif ids != trace.obstacle_ids:
                    raise ValueError(f"obstacle ids {ids}, expected {trace.obstacle_ids}")
                trace.times.append(float(parts[0]))
                trace.poses.append((float(parts[1]), float(parts[2]), float(parts[3])))
                trace.velocities.append(float(parts[4]))
                trace.accelerations.append(float(parts[5]))
                trace.flags.append(parts[6])
                for oid, ox, oy in zip(ids, parts[8::3], parts[9::3]):
                    trace.obstacle_poses[oid].append((float(ox), float(oy), 0.0))
        return trace


def metrics(trace: TraceLog) -> dict:
    pts = np.asarray(trace.poses, dtype=float)
    length = float(np.sum(np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1])))) \
        if len(pts) > 1 else 0.0
    return {
        "total_time": trace.times[-1] if trace.times else 0.0,
        "total_length": length,
        "min_clearance": min(trace.clearances) if trace.clearances else math.inf,
        "success": trace.success,
    }


def at_goal(scenario: Scenario, pose: Pose) -> bool:
    """Whether ``pose`` is within the scenario's goal tolerances."""
    goal = scenario.goal
    return (math.hypot(pose.x - goal.x, pose.y - goal.y) <= scenario.goal_pos_tol
            and abs(normalize_angle(pose.theta - goal.theta)) <= scenario.goal_heading_tol)


def derive_trace(scenario: Scenario, trace: TraceLog) -> None:
    """Fill in what the tick loop does not log, from its times and poses.

    In one pass: the obstacle poses, replayed from the scripts at the logged
    times; v and a as finite differences over ``sim_dt`` (0 at tick 0); the
    clearances of the robot's covers at the logged poses, in one batched
    pass, against the static obstacles plus the moving ones parked at their
    poses; and ``success``, whether the last pose is at the goal.
    """
    dt = scenario.sim_dt
    for mob in scenario.moving:
        trace.obstacle_poses[mob.id] = mob.poses_at(trace.times)
    n, pts = len(trace.poses), trace.poses
    v = [0.0] + [math.hypot(x1 - x0, y1 - y0) / dt
                 for (x0, y0, _), (x1, y1, _) in zip(pts, pts[1:])]
    trace.velocities = v[:n]
    trace.accelerations = [0.0, *((v1 - v0) / dt for v0, v1 in zip(v, v[1:]))][:n]
    radius = scenario.robot.radius
    robot = footprint_circles_batch(scenario.robot, np.reshape(trace.poses, (-1, 3)))
    clear = min_clearance(robot, radius, tuple(scenario.static_obstacles))
    for mob in scenario.moving:
        other = footprint_circles_batch(mob.footprint,
                                        np.reshape(trace.obstacle_poses[mob.id], (-1, 3)))
        clear = np.minimum(clear, circle_gaps(robot, radius, other, mob.footprint.radius))
    trace.clearances = clear.tolist()
    trace.success = bool(trace.poses) and at_goal(scenario, Pose(*trace.poses[-1]))


def _track_blockers(tracks, t_now: float, only_stopped: bool):
    """Freeze tracks into static disks, ``BLOCKER_INFLATION`` wider than
    their covers, for path planning; with ``only_stopped``, only those
    predicted slower than ``STOP_SPEED``."""
    circles = _predicted_obstacle_circles(tracks, np.zeros(1), t_now)
    return [ObstacleShape.disk(float(cx), float(cy), cover.radius + BLOCKER_INFLATION)
            for cover in circles
            if not (only_stopped and np.hypot(cover.vx, cover.vy) >= STOP_SPEED)
            for cx, cy in cover.centers[0]]


class TickTable:
    """An adopted trajectory, evaluated once at every tick that can execute it.

    Adopted at tick ``first``, at ``since = first * dt``, the trajectory is
    driven at the relative times ``tick * dt - since``.  ``times`` holds
    those below ``duration + dt / 2``, the instants revalidation checks, and
    ``covers`` the robot's cover circles at each of them plus one more row at
    the first tick past them, where the end pose holds for good.  Each pose
    is ``Trajectory.pose_at`` of its time to the bit: ``np.interp`` over an
    array applies the formula of the scalar calls, and s(t) never leaves
    [0, total_length], so the clamp of ``Path.pose_at`` changes nothing.
    """

    def __init__(self, traj: Trajectory, first: int, dt: float, robot: FootprintSpec):
        self.trajectory, self.first, self.since = traj, first, first * dt
        rel = np.arange(first, first + int(traj.duration / dt) + 3) * dt - self.since
        n = int(np.searchsorted(rel, traj.duration + dt / 2.0))
        self.times = rel[:n]
        poses = traj.poses_at(rel[:n + 1])
        self._rows = poses.tolist()
        self.covers = footprint_circles_batch(robot, poses)

    def pose(self, tick: int) -> Pose:
        """``Trajectory.pose_at(tick * dt - since)``, for any tick from ``first`` on."""
        return Pose(*self._rows[min(tick - self.first, len(self.times))])


class _Runner:
    def __init__(self, scenario: Scenario, planner_config: PlannerConfig | None, seed: int,
                 library: CurveLibrary | None):
        self.sc = scenario
        self.world = as_world(scenario.static_obstacles)  # for the timing layer's checks
        self.pcfg = planner_config or PlannerConfig()
        self.lib = library if library is not None else build_curve_library()
        self.seed = seed
        self.noise_rng = np.random.default_rng(seed)
        self.obs_var = max(scenario.obs_noise, 0.01) ** 2
        self.tcfg = TemporalConfig(v_max=scenario.v_max, a_max=scenario.a_max,
                                   horizon=scenario.horizon)
        biggest = max((m.footprint for m in scenario.moving),
                      key=lambda f: f.radius, default=None)
        self.store = TrackStore(biggest)
        self.plan_count = 0
        self.trace = TraceLog(obstacle_ids=[m.id for m in scenario.moving])

    # -- perception ------------------------------------------------------

    def observe(self, t: float) -> None:
        obs = []
        for mob in self.sc.moving:
            p = mob.position_at(t)
            if self.sc.obs_noise > 0.0:
                p = p + self.noise_rng.normal(0.0, self.sc.obs_noise, 2)
            obs.append(Observation((float(p[0]), float(p[1])), t, self.obs_var))
        self.store.step(obs, t)

    # -- planning --------------------------------------------------------

    def _plan_geometric(self, start: Pose, blockers) -> Path | None:
        obstacles = self.sc.static_obstacles + blockers
        cfg = replace(self.pcfg, rng_seed=self.seed * 10007 + self.plan_count,
                      world_bounds=self.sc.bounds)
        try:
            result = plan_path(start, self.sc.goal, obstacles, cfg, self.lib, self.sc.robot)
        except EndpointInCollision:
            result = None
        # A failed plan takes three seeds, as when two narrower retries
        # followed it, so every later plan keeps its seed.
        self.plan_count += 1 if result else 3
        return result.path if result else None

    def _time_path(self, path: Path, t_now: float):
        """SIs + selection + SQP + independent validation; None when unsafe."""
        tracks = self.store.filters
        nis = compute_safe_intervals(path, tracks, self.world, self.tcfg, self.sc.robot,
                                     t0=t_now)
        seq = select_interval_sequence(nis, self.tcfg, np.diff(path.arc_lengths))
        traj = optimize_timestamps(path, seq, self.tcfg) if seq else None
        if traj is not None and not validate_trajectory(
                traj, tracks, self.world, self.sc.sim_dt, self.sc.robot, t0=t_now):
            traj = None
        return traj, nis

    def _plan(self, start: Pose, t_now: float):
        """Plan and time a path; fall back to routing around frozen tracks.

        One geometric plan per variant, with the frozen tracks
        ``BLOCKER_INFLATION`` wider than their covers.  The primary variant
        keeps moving obstacles out of the static map (only stopped ones are
        frozen) and lets the temporal layer handle them; when that fails or
        yields a crawl, a second variant freezes every track in place, which
        is what produces overtaking and detours around blockers.  A failed
        plan uses up three RRT seeds (``_plan_geometric``), the seeds of two
        retries with the tracks inflated by 0.75 m and 0 m that never found
        a path where 1.5 m found none; so every later plan keeps its seed.
        Returns the fastest (trajectory, SIs, path), or None.
        """
        candidates = []
        for only_stopped in (True, False):
            blockers = _track_blockers(self.store.filters, t_now, only_stopped)
            path = self._plan_geometric(start, blockers)
            if path is None:
                continue
            traj, nis = self._time_path(path, t_now)
            if traj is not None:
                candidates.append((traj, nis, path))
                free_flow = path.total_length / self.tcfg.v_max
                if only_stopped and traj.duration <= SLOW_FACTOR * free_flow:
                    break  # primary plan is fine; skip the frozen-track variant
        return min(candidates, key=lambda c: c[0].duration) if candidates else None

    def _retime(self, traj: Trajectory, since: float, t_now: float):
        """Re-time the rest of the path from here: (trajectory or None, SIs,
        path), or None when less than one edge is left."""
        rem = traj.path.subpath_from(traj.arc_length_at(t_now - since))
        if len(rem.poses) < 2:
            return None
        return (*self._time_path(rem, t_now), rem)

    def _attempt(self, t: float, kind: str, fn, *args) -> Trajectory | None:
        """Run one planning attempt ``fn(*args)``, record it as a PlanningEvent
        with its wall time and copies of the tracks it saw; its trajectory."""
        t_wall = _time.perf_counter()
        traj, nis, path = fn(*args) or (None, None, None)
        latency = _time.perf_counter() - t_wall
        self.trace.events.append(PlanningEvent(t, kind, path, traj, nis, latency,
                                               list(map(copy.copy, self.store.filters))))
        return traj

    def _adopt(self, tick: int, kind: str, fn, *args) -> TickTable | None:
        """``_attempt`` at this tick; the tick table of its trajectory, or None."""
        traj = self._attempt(tick * self.sc.sim_dt, kind, fn, *args)
        return None if traj is None else TickTable(traj, tick, self.sc.sim_dt, self.sc.robot)

    # -- main loop -------------------------------------------------------

    def run(self) -> TraceLog:
        """Tick until the goal or the time limit, logging each tick's time,
        pose and flag; ``derive_trace`` fills in the rest afterwards."""
        sc = self.sc
        dt = sc.sim_dt
        per_ticks = max(1, round(sc.perception_dt / dt))
        # Perception warm-up: the tracker has been watching for a second
        # before the run starts, so velocity estimates exist at t = 0.
        for k in range(10):
            self.observe(-1.0 + 0.1 * k)
        pose = sc.start
        table: TickTable | None = None  # the trajectory being executed; None while waiting
        since = 0.0  # time of the last planning attempt
        for tick in range(int(round(sc.time_limit / dt)) + 1):
            t = tick * dt
            perceive = tick % per_ticks == 0
            if perceive and tick > 0:
                self.observe(t)
            flag = PLANNING if tick == 0 else EXECUTING if table is not None else WAITING
            if tick == 0:
                table, since = self._adopt(tick, "initial", self._plan, pose, t), t
            elif table is not None and perceive and not self._future_safe(table, tick):
                table, since = self._adopt(tick, "retime", self._retime,
                                           table.trajectory, since, t), t
                flag = REPLANNING if table is not None else WAITING
            elif table is None and perceive and t - since >= REPLAN_TIMEOUT:
                table, since = self._adopt(tick, "replan", self._plan, pose, t), t
                flag = REPLANNING
            if table is not None:
                pose = table.pose(tick)
            self.trace.times.append(t)
            self.trace.poses.append((pose.x, pose.y, pose.theta))
            self.trace.flags.append(flag)
            if at_goal(sc, pose):
                break
        return self.trace

    def _future_safe(self, table: TickTable, tick: int) -> bool:
        """Check the not-yet-driven part of the trajectory against fresh tracks:
        the robot covers of the table from this tick on, against the
        predictions of the store's live filters at the same instants.  Past
        those instants, the end pose at the trajectory's duration."""
        i = tick - table.first
        times, robot = table.times[i:], table.covers[i:len(table.times)]
        if len(times) == 0:
            times, robot = np.array([table.trajectory.duration]), table.covers[-1:]
        obstacle_circles = _predicted_obstacle_circles(self.store.filters, times, table.since)
        return not predicted_hits(robot, self.sc.robot, obstacle_circles,
                                  REVALIDATE_MARGIN).any()


def run_scenario(scenario: Scenario, planner_config: PlannerConfig | None = None,
                 seed: int = 0,
                 library: CurveLibrary | None = None) -> TraceLog:
    """Execute one scenario to completion; deterministic in (scenario, seed)."""
    check("seed", seed)
    trace = _Runner(scenario, planner_config, seed, library).run()
    derive_trace(scenario, trace)
    return trace


def draw_obstacles(cv, obstacles) -> None:
    """Draw static obstacles on an ``SvgCanvas``; a footprint as its cover circles."""
    for obs in obstacles:
        if obs.kind == "disk":
            cv.circle(obs.center[0], obs.center[1], obs.radius, fill="#888888")
        elif obs.kind == "polygon":
            cv.polygon(obs.vertices, fill="#888888")
        elif obs.kind == "footprint":
            for cx, cy in footprint_circles(obs.footprint, obs.pose):
                cv.circle(cx, cy, obs.footprint.radius, fill="#888888")


def export_artifacts(trace: TraceLog, out_dir, scenario: Scenario | None = None) -> None:
    """Write trace CSV, metrics summary, trace SVG, and per-plan SI charts.

    The metrics summary needs the per-tick clearances, so a trace without them
    gets none.
    """
    import os

    from .svg import SvgCanvas, plot_intervals, speed_color

    os.makedirs(out_dir, exist_ok=True)
    trace.to_csv(os.path.join(out_dir, "trace.csv"))
    if trace.clearances:
        m = metrics(trace)
        write_lines(os.path.join(out_dir, "metrics.txt"), ["%s %s" % (
            k, m[k] if isinstance(m[k], bool) else "%.17g" % m[k]) for k in sorted(m)])
    pts = trace.poses
    if scenario is not None:
        box = scenario.bounds
    else:
        xs = [p[0] for p in pts] or [0.0]
        ys = [p[1] for p in pts] or [0.0]
        box = (min(xs) - 5, min(ys) - 5, max(xs) + 5, max(ys) + 5)
    cv = SvgCanvas(box)
    if scenario is not None:
        draw_obstacles(cv, scenario.static_obstacles)
    v_max = scenario.v_max if scenario is not None else 2.0
    stride = max(1, len(pts) // 200)
    for i in range(0, len(pts), stride):
        x, y, _ = pts[i]
        cv.circle(x, y, 0.4, fill=speed_color(trace.velocities[i], v_max),
                  stroke="none", opacity=0.6)
    for oid in trace.obstacle_ids:
        opts = trace.obstacle_poses[oid]
        cv.polyline([(p[0], p[1]) for p in opts[::stride]], stroke="#777777",
                    stroke_width=1.0)
    cv.polyline([(p[0], p[1]) for p in pts], stroke="#000000", stroke_width=0.8)
    cv.write(os.path.join(out_dir, "trace.svg"))
    for k, ev in enumerate(e for e in trace.events if e.node_intervals is not None):
        intervals = [[(si.start, si.end) for si in ni.intervals]
                     for ni in ev.node_intervals]
        plot_intervals(intervals, os.path.join(out_dir, "intervals_%02d.svg" % k))
