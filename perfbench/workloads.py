"""The benchmark's workloads: their inputs and their operations.

Each workload draws a fixed list of operations from the seed and yields it,
in a seed-drawn order, once per round; a run attempts a fixed number of
whole rounds, so every operation is timed once per round and its median
over the rounds is the run's estimate of its cost.  An operation returns an
``Outcome``: its key (the same in every round), whether it failed, the
latencies of the queries it answered, and a thunk that runs its independent
correctness check after the timed region.

All program calls go through module attributes (``rrt.plan_path``, not a
name imported from ``kinoplan.rrt``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from kinoplan import rrt, scenarios, simulator, temporal, tracking
from kinoplan.collision import default_robot_footprint
from kinoplan.geometry import CurveParams, Pose

import checks


@dataclass
class Outcome:
    key: object  # names the operation; equal keys are repeats of one input
    failed: bool
    seconds: float  # wall time of the program calls this operation made
    latencies: list[float] = field(default_factory=list)  # one per query answered
    check: Callable[[], str] = lambda: ""
    output: object = None  # the trace, path or trajectory the check inspects


class ClosedLoop:
    """Four worlds, each run once per round with the library built once.

    Every round runs every world at scenario seed 0, so every run measures
    the same simulations; the seed only orders the worlds.  Planning time
    depends so much on the scenario seed that varying it would swamp any
    seed-to-seed comparison.  ``follow`` and ``wait`` are left out: one run
    of them takes ~6 s and ~20 s, so a run of the benchmark could time them
    only a few times, and their medians would follow the shared machine's
    slow and fast spells instead of the program.
    """

    name = "closed-loop"
    ROUND_SECONDS = 4.0  # nominal time of one round on the reference machine
    WORLDS = ("cross", "overtake", "bypass", "blocked")
    SCENARIO_SEED = 0

    def __init__(self, seed: int, library):
        self.rng = random.Random(seed)
        self.library = library

    def round(self, k: int) -> list[Callable[[], Outcome]]:
        worlds = list(self.WORLDS)
        self.rng.shuffle(worlds)
        return [lambda w=w: self._run(w, self.SCENARIO_SEED) for w in worlds]

    def _run(self, world: str, scenario_seed: int) -> Outcome:
        scenario = scenarios.get_scenario(world)
        t0 = time.perf_counter()
        trace = simulator.run_scenario(scenario, seed=scenario_seed, library=self.library)
        seconds = time.perf_counter() - t0
        # Retime events record no latency (they are stamped 0.0), so the
        # planning latency is taken over initial plans and replans only.
        latencies = [ev.latency for ev in trace.events if ev.kind in ("initial", "replan")]
        return Outcome(world, not trace.success, seconds, latencies,
                       lambda: checks.check_scenario_run(scenario, trace), trace)


class DiskQueries:
    """Geometric queries on the paper's random-disk world, GMM sampling.

    Every round is start headings 0..90 deg on bench-sampling's first two
    worlds for ``--seed 0`` (runs 0 and 1), so every run plans the same 20
    queries; the seed only orders them.  Query cost is heavy-tailed (median
    ~0.25 s, some queries take several seconds after retries), so queries
    drawn afresh per seed would spread every timing far beyond any useful
    bound.
    """

    name = "disk-queries"
    ROUND_SECONDS = 8.0
    HEADINGS = tuple(range(0, 91, 10))
    RUNS = (0, 1)
    ATTEMPTS = 5

    def __init__(self, seed: int, library):
        self.rng = random.Random(seed)
        self.library = library
        self.footprint = default_robot_footprint()

    def round(self, k: int) -> list[Callable[[], Outcome]]:
        items = [(h, run) for run in self.RUNS for h in self.HEADINGS]
        self.rng.shuffle(items)
        return [lambda h=h, run=run: self._query(h, run) for h, run in items]

    def _query(self, heading: int, run: int) -> Outcome:
        world_seed = heading * 101 + run
        disks, start, goal, bounds = scenarios.random_disk_world(world_seed,
                                                                 math.radians(heading))
        budget = rrt.PlannerConfig().max_iterations
        t0 = time.perf_counter()
        # bench-sampling's retry ladder: a fresh planner seed and a growing
        # iteration budget on the same world.
        for attempt in range(self.ATTEMPTS):
            config = rrt.PlannerConfig(rng_seed=world_seed + 17 + 1009 * attempt,
                                       world_bounds=bounds, p_th=0.5, goal_bias=0.0,
                                       max_iterations=budget * (attempt + 1))
            result = rrt.plan_path(start, goal, disks, config, self.library, self.footprint)
            if result is not None:
                break
        seconds = time.perf_counter() - t0
        if result is None:
            return Outcome((heading, run), True, seconds)
        kappa_bound = self.library.config.kappa_max
        return Outcome((heading, run), False, seconds, [seconds],
                       lambda: checks.check_disk_path(result.path, start, goal, disks,
                                                      self.footprint, kappa_bound),
                       result.path)


@dataclass
class TimingQuery:
    key: int
    world: str
    t0: float
    path: rrt.Path
    edges: list[float]
    tracks: list
    statics: list
    robot: object
    v_max: float
    a_max: float
    horizon: float
    sim_dt: float


def constant_velocity_tracks(scenario, t0: float) -> list:
    """One exact constant-velocity track per scripted obstacle at time t0."""
    tracks = []
    for mob in scenario.moving:
        wp = np.asarray(mob.waypoints, dtype=float)
        x, y, heading = checks.script_poses(wp, np.array([t0]))[0]
        vx = vy = 0.0
        for i in range(len(wp) - 1):
            if wp[i, 0] <= t0 < wp[i + 1, 0]:
                span = wp[i + 1, 0] - wp[i, 0]
                vx, vy = (wp[i + 1, 1] - wp[i, 1]) / span, (wp[i + 1, 2] - wp[i, 2]) / span
                break
        tracks.append(tracking.ObstacleTrack(
            id=mob.id, state=np.array([x, y, vx, vy]), covariance=np.eye(4) * 1e-4,
            footprint=mob.footprint, last_update=t0, last_heading=float(heading)))
    return tracks


def straight_path(start: Pose, goal: Pose, rng: random.Random) -> tuple[rrt.Path, list[float]]:
    """Start-to-goal straight path with edges drawn from [1, 2] m.

    Edges stay at or below 2 m because safe intervals are estimated at the
    nodes with an inflation of half the longest edge capped at 1 m; longer
    edges let conflicts between nodes through, and the validator then
    rejects the timing on some seeds only.
    """
    total = math.hypot(goal.x - start.x, goal.y - start.y)
    cuts = [0.0]
    while total - cuts[-1] > 4.0:
        cuts.append(cuts[-1] + rng.uniform(1.0, 2.0))
    cuts += [(cuts[-1] + total) / 2.0, total]
    edges = [b - a for a, b in zip(cuts, cuts[1:])]
    ux, uy = (goal.x - start.x) / total, (goal.y - start.y) / total
    heading = math.atan2(uy, ux)
    poses = [Pose(start.x + s * ux, start.y + s * uy, heading) for s in cuts]
    curves = [CurveParams(0.0, 0.0, 0.0, 0.0, d) for d in edges]
    return rrt.Path(poses, curves), edges


class TimingQueries:
    """The timing pipeline on constructed straight paths against exact
    constant-velocity tracks of the obstacle scripts.

    Start times lie on a fixed grid over windows in which a safe timing
    exists by the scripts: any time in cross and follow, and in wait only
    once the oncoming car has turned off the corridor (t >= 24 s, when it
    runs along y = -5, 2.6 m clear of the robot's lane).  The seed draws one
    path per grid point, and every round times all of them.  Query cost
    depends mostly on the start time (following the lead car costs ~10x a
    free run), so start times drawn at random would spread the timings from
    seed to seed.
    """

    name = "timing-queries"
    ROUND_SECONDS = 1.6
    WINDOWS = {"cross": (0.0, 20.0), "follow": (0.0, 40.0), "wait": (24.0, 45.0)}
    GRID = 8  # start times per world, at the centres of equal slices of its window

    def __init__(self, seed: int, library):
        self.rng = random.Random(seed)
        self.scenarios = {w: scenarios.get_scenario(w) for w in self.WINDOWS}
        self.queries = self.make_queries(random.Random(seed * 1_000_003))

    def make_queries(self, rng: random.Random) -> list[TimingQuery]:
        queries = []
        for world, (lo, hi) in self.WINDOWS.items():
            sc = self.scenarios[world]
            for j in range(self.GRID):
                t0 = lo + (j + 0.5) * (hi - lo) / self.GRID
                path, edges = straight_path(sc.start, sc.goal, rng)
                queries.append(TimingQuery(
                    len(queries), world, t0, path, edges, constant_velocity_tracks(sc, t0),
                    sc.static_obstacles, sc.robot, sc.v_max, sc.a_max, sc.horizon, sc.sim_dt))
        return queries

    def round(self, k: int) -> list[Callable[[], Outcome]]:
        queries = list(self.queries)
        self.rng.shuffle(queries)
        return [lambda q=q: self._query(q) for q in queries]

    @staticmethod
    def _query(q: TimingQuery) -> Outcome:
        config = temporal.TemporalConfig(v_max=q.v_max, a_max=q.a_max, horizon=q.horizon)
        t0 = time.perf_counter()
        # The same sequence as the simulator's own timing of a path.
        nis = temporal.compute_safe_intervals(q.path, q.tracks, q.statics, config, q.robot,
                                              t0=q.t0)
        seq = temporal.select_interval_sequence(nis, config, np.diff(q.path.arc_lengths))
        traj = temporal.optimize_timestamps(q.path, seq, config) if seq is not None else None
        ok = traj is not None and temporal.validate_trajectory(
            traj, q.tracks, q.statics, q.sim_dt, q.robot, t0=q.t0)
        seconds = time.perf_counter() - t0
        if not ok:
            return Outcome(q.key, True, seconds)
        return Outcome(q.key, False, seconds, [seconds],
                       lambda: checks.check_trajectory(traj, q), traj)


WORKLOADS = {w.name: w for w in (ClosedLoop, DiskQueries, TimingQueries)}
