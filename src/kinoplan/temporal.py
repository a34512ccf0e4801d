"""Safe-interval estimation and timestamp optimization along a fixed path.

Each path node gets the set of time windows during which its pose is
collision-free against predicted obstacle motion.  A layered search picks one
interval per node (children must overlap their parent long enough to pass),
then the node timestamps are optimized: minimize arrival time and acceleration
effort subject to the interval bounds and velocity/acceleration limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize

from .collision import (FootprintSpec, _pair_distances, footprint_circles_batch,
                        poses_in_collision)
from .configfile import write_lines
from .rrt import Path
from .tracking import ObstacleTrack, predict_pose

# Minimum timestamp gap; true stopping is a long dwell, never equal stamps.
DT_MIN = 1e-3
# Squared constraint violation (every constraint within ~1e-6) below which
# feasibility restoration counts as converged and the objective is re-polished.
RESTORED_VIOLATION = 1e-12
# SLSQP's stopping tolerance and iteration cap.
SQP_TOLERANCE = 1e-8
SQP_MAX_ITERS = 200
# Slack added to a node's influence radius when deciding whether an obstacle
# has left it for good (an open-ended last interval), m.
INFLUENCE_EXTRA = 0.5
# Widening of the broad-phase bound of ``predicted_hits`` past floating-point
# rounding, m.
SCREEN_SLACK = 1e-6


@dataclass(frozen=True)
class SafeInterval:
    start: float
    end: float  # math.inf for an open horizon

    def __post_init__(self):
        if not self.start < self.end:
            raise ValueError(f"degenerate interval [{self.start}, {self.end}]")


@dataclass
class NodeIntervals:
    node_index: int
    intervals: list[SafeInterval]


@dataclass
class IntervalSequence:
    """One (parent-narrowed) interval per node, in path order."""

    chosen: list[SafeInterval]
    source_indices: list[int]  # which original SI of each node was narrowed


@dataclass
class TemporalConfig:
    v_max: float = 2.0
    a_max: float = 1.0
    horizon: float = 30.0
    si_dt: float = 0.1
    overlap_min: float = 2.0 * (4.6 / 2.0)  # 2 x vehicle length / v_max
    si_margin: float | None = None  # obstacle inflation during SI estimation; None = half the longest edge

    def __post_init__(self):
        for name in ("v_max", "a_max", "horizon", "si_dt"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.si_dt > 0.2:
            raise ValueError("si_dt must not exceed 0.2 s")


@dataclass
class Trajectory:
    """A path with optimized node timestamps and the derived motion profile."""

    path: Path
    timestamps: np.ndarray  # t_i, strictly increasing, t_1 = 0
    velocities: np.ndarray  # v_i for i >= 2; v[0] is 0 by convention
    accelerations: np.ndarray  # a_i for i >= 3; a[0:2] are 0 by convention

    @property
    def duration(self) -> float:
        return float(self.timestamps[-1])

    def arc_length_at(self, t: float) -> float:
        """Piecewise-linear s(t) between node timestamps."""
        return float(np.interp(t, self.timestamps, self.path.arc_lengths))

    def pose_at(self, t: float):
        return self.path.pose_at(self.arc_length_at(t))

    def poses_at(self, times: np.ndarray) -> np.ndarray:
        """(T, 3) poses at ``times``: s(t) as in ``arc_length_at``, then linear
        interpolation in the path's dense samples."""
        svals = np.interp(times, self.timestamps, self.path.arc_lengths)
        grid, dense = self.path.dense_samples()
        return np.stack([np.interp(svals, grid, dense[:, j]) for j in range(3)], axis=-1)

    def to_csv(self, path) -> None:
        lines = ["i,x,y,theta,s,t,v,a"]
        for i, pose in enumerate(self.path.poses):
            lines.append("%d,%s" % (i + 1, ",".join("%.17g" % v for v in (
                pose.x, pose.y, pose.theta, self.path.arc_lengths[i],
                self.timestamps[i], self.velocities[i], self.accelerations[i]))))
        write_lines(path, lines)


def _effective_margin(path: Path, config: TemporalConfig) -> float:
    """SI inflation: half the longest edge, unless the config pins a value.

    Node poses stand in for the whole edge during interval estimation, and a
    pose between two nodes can sit up to half an edge away from either one.
    """
    if config.si_margin is not None:
        return config.si_margin
    edges = np.diff(path.arc_lengths)
    # Capped: past 1 m the inflation starts erasing genuinely usable windows,
    # and the executor revalidates against fresh predictions every tick anyway.
    return min(0.5 * float(np.max(edges)), 1.0) if len(edges) else 0.0


class PredictedCover(NamedTuple):
    """One track's predicted cover circles over T time samples."""

    centers: np.ndarray  # (T, k, 2)
    radius: float
    velocity: np.ndarray  # (vx, vy)
    anchor: int  # the circle the reach is measured from
    reach: float  # largest distance from the anchor's center to another center


@lru_cache(maxsize=64)
def _anchor_reach(offsets: tuple[float, ...]) -> tuple[int, float]:
    """The anchor of a cover with these center offsets, and its reach.

    The anchor is the circle nearest the pose (offset 0 in every built-in
    cover); the reach is the largest |offset - anchor offset|, which bounds
    how far any center of the cover lies from the anchor's center.
    """
    anchor = min(range(len(offsets)), key=lambda i: abs(offsets[i]))
    return anchor, max(abs(o - offsets[anchor]) for o in offsets)


def _predicted_obstacle_circles(tracks, times: np.ndarray, t0: float) -> list[PredictedCover]:
    """Per-track predicted cover circles at ``t0 + times``."""
    out = []
    for track in tracks:
        dt = (t0 + times) - track.last_update
        px = track.state[0] + track.state[2] * dt
        py = track.state[1] + track.state[3] * dt
        heading = predict_pose(track, track.last_update)[0].theta
        c, s = math.cos(heading), math.sin(heading)
        offs = np.asarray(track.footprint.center_offsets)
        centers = np.stack([px[:, None] + c * offs[None, :],
                            py[:, None] + s * offs[None, :]], axis=-1)
        out.append(PredictedCover(centers, track.footprint.radius, track.velocity,
                                  *_anchor_reach(track.footprint.center_offsets)))
    return out


def predicted_hits(robot_circles: np.ndarray, footprint: FootprintSpec,
                   obstacle_circles: list[PredictedCover], clearance: float) -> np.ndarray:
    """Whether the robot cover touches a predicted obstacle, per time sample.

    ``obstacle_circles`` is the output of ``_predicted_obstacle_circles`` over
    T samples.  ``robot_circles`` is the robot's ``footprint`` cover, (..., k, 2),
    and broadcasts against those samples: (T, k, 2) holds one robot pose per
    sample, (n, 1, k, 2) holds n poses present at every sample.  Returns a
    boolean array of shape (..., T), or of the robot's leading shape when
    there is no obstacle.  A circle pair hits when its center distance is at
    most the sum of the radii plus ``clearance``.

    Broad phase: every center of a cover lies within its reach of the
    anchor's center (the centers are pose + (cos, sin) * offset).  So when the
    two anchors are D apart, every circle pair is at least
    D - reach_robot - reach_obstacle apart (triangle inequality), and no pair
    can hit when D > robot radius + obstacle radius + clearance + both reaches.
    ``SCREEN_SLACK`` widens that bound past the rounding of the centers and
    the distances, a few ulps of the coordinates (below 1e-9 m while they stay
    under 1e6 m), so every pair the exact test calls a hit passes the screen.
    The survivors go through the exact test (``_pair_distances`` and ``<=``)
    on the same values as without the screen, so every decision has the same
    bits.
    """
    anchor, reach = _anchor_reach(footprint.center_offsets)
    robot_anchor = robot_circles[..., anchor, :]
    hit = np.zeros(robot_circles.shape[:-2], dtype=bool)
    for cover in obstacle_circles:
        limit = footprint.radius + cover.radius + clearance
        screen = limit + reach + cover.reach + SCREEN_SLACK
        gap = robot_anchor - cover.centers[:, cover.anchor]  # (..., T, 2)
        near = gap[..., 0] * gap[..., 0] + gap[..., 1] * gap[..., 1] <= screen * screen
        pairs = np.nonzero(near)
        if len(pairs[0]):
            robot = np.broadcast_to(robot_circles, near.shape + robot_circles.shape[-2:])
            d = _pair_distances(robot[pairs], cover.centers[pairs[-1]])  # (pairs, k, m)
            near[pairs] = np.any(d <= limit, axis=(-2, -1))
        hit = hit | near
    return hit


def free_runs(free: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal runs of True in each row of a 2-D boolean array.

    Returns (rows, firsts, lasts): run r covers columns firsts[r]..lasts[r]
    (inclusive) of row rows[r].  Runs are ordered by row, then by column.
    """
    pad = np.zeros((free.shape[0], 1), dtype=np.int8)
    change = np.diff(np.hstack([pad, free.astype(np.int8), pad]), axis=1)
    rows, firsts = np.nonzero(change == 1)
    _, ends = np.nonzero(change == -1)
    return rows, firsts, ends - 1


def compute_safe_intervals(path: Path, tracks, static_obstacles, config: TemporalConfig,
                           footprint: FootprintSpec, t0: float = 0.0) -> list[NodeIntervals]:
    """Safe intervals per node over [0, horizon], sampled every si_dt.

    Times are relative to ``t0`` (the moment the trajectory would start); the
    last interval is open-ended when the node is free at the horizon and every
    tracked obstacle has left its influence disk by then.
    """
    times = np.arange(0.0, config.horizon + config.si_dt / 2.0, config.si_dt)
    margin = _effective_margin(path, config)
    poses = np.array([[p.x, p.y, p.theta] for p in path.poses])
    n = len(poses)
    # No margin against statics: the geometric planner already cleared the
    # whole curve against them, so inflation would only erase narrow passages.
    static_hit = poses_in_collision(footprint, poses, static_obstacles)
    robot_circles = footprint_circles_batch(footprint, poses)  # (n, k, 2)
    obstacle_circles = _predicted_obstacle_circles(tracks, times, t0)
    hit = predicted_hits(robot_circles[:, None], footprint, obstacle_circles, margin)
    free = np.broadcast_to(~static_hit[:, None] & ~hit, (n, len(times)))
    result = [NodeIntervals(i, []) for i in range(n)]
    for i, first, last in zip(*free_runs(free)):
        start = times[first]
        if last == len(times) - 1 and _open_horizon(i, robot_circles, footprint,
                                                    obstacle_circles, config, margin):
            end = math.inf
        else:
            end = times[last]
        if end > start:
            result[i].intervals.append(SafeInterval(float(start), float(end)))
    return result


def _open_horizon(i: int, robot_circles, footprint, obstacle_circles, config,
                  margin: float) -> bool:
    """Whether node i stays free past the horizon: every obstacle has exited
    the node's influence disk by the last sample and is not closing in."""
    node_center = robot_circles[i].mean(axis=0)
    for cover in obstacle_circles:
        last = cover.centers[-1].mean(axis=0)  # (2,)
        influence = footprint.radius + cover.radius + margin + INFLUENCE_EXTRA
        away = last - node_center
        dist = float(np.linalg.norm(away))
        if dist <= influence:
            return False
        vel = cover.velocity
        if float(vel @ away) < 0.0 and float(np.linalg.norm(vel)) > 0.05:
            return False  # still approaching the node
    return True


def select_interval_sequence(node_intervals: list[NodeIntervals],
                             config: TemporalConfig,
                             edge_lengths=None) -> IntervalSequence | None:
    """Layer-by-layer growth of the interval sequence (Fig.-7 style structure).

    A child interval is valid when it overlaps its parent's narrowed interval
    by at least overlap_min and is reachable before it closes; its effective
    start becomes max(child.start, parent.start + minimum edge travel time),
    so branches the car cannot physically reach in time die early.  At the
    last layer the valid leaf with the smallest reachable start wins (ties by
    interval index), and the sequence is recovered by walking parents.
    Returns None when no leaf survives.
    """
    if any(len(ni.intervals) == 0 for ni in node_intervals):
        return None
    if edge_lengths is None:
        travel = [DT_MIN] * (len(node_intervals) - 1)
    else:
        travel = [max(float(d) / config.v_max, DT_MIN) for d in edge_lengths]
    # best[j] = (narrowed_start, parent_choice_index) for interval j of this layer
    first = node_intervals[0].intervals
    layers: list[list[tuple[float, int] | None]] = [[(si.start, -1) for si in first]]
    for layer_i, ni in enumerate(node_intervals[1:], start=1):
        prev = layers[-1]
        prev_ints = node_intervals[layer_i - 1].intervals
        row: list[tuple[float, int] | None] = []
        for child in ni.intervals:
            best: tuple[float, int] | None = None
            for pj, state in enumerate(prev):
                if state is None:
                    continue
                p_start = state[0]
                p_end = prev_ints[pj].end
                overlap = min(p_end, child.end) - max(p_start, child.start)
                if overlap < config.overlap_min:
                    continue
                eff = max(child.start, p_start + travel[layer_i - 1])
                if eff > child.end:
                    continue  # unreachable before the window closes
                if best is None or eff < best[0]:
                    best = (eff, pj)
            row.append(best)
        if all(state is None for state in row):
            return None
        layers.append(row)
    # Pick the leaf with the smallest reachable start.
    leaf_states = layers[-1]
    best_j = None
    for j, state in enumerate(leaf_states):
        if state is None:
            continue
        if best_j is None or state[0] < leaf_states[best_j][0]:
            best_j = j
    if best_j is None:
        return None
    chosen_idx = [0] * len(node_intervals)
    j = best_j
    for layer in range(len(layers) - 1, -1, -1):
        chosen_idx[layer] = j
        j = layers[layer][j][1]
    chosen = []
    for layer, j in enumerate(chosen_idx):
        orig = node_intervals[layer].intervals[j]
        narrowed_start = layers[layer][j][0]
        chosen.append(SafeInterval(narrowed_start, orig.end))
    return IntervalSequence(chosen, chosen_idx)


def velocity_profile(path: Path, timestamps) -> tuple[np.ndarray, np.ndarray]:
    """Node velocities v_i = ds_i/dt_i (i>=2) and accelerations
    a_i = (v_i - v_{i-1})/dt_i (i>=3); leading entries are zero."""
    t = np.asarray(timestamps, dtype=float)
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("timestamps must be strictly increasing")
    ds = np.diff(path.arc_lengths)
    dt = np.diff(t)
    v = np.zeros(len(t))
    v[1:] = ds / dt
    a = np.zeros(len(t))
    if len(t) >= 3:
        a[2:] = np.diff(v[1:]) / dt[1:]
    return v, a


def _feasible_init(path: Path, seq: IntervalSequence, config: TemporalConfig) -> np.ndarray | None:
    """Earliest-arrival greedy timestamps; None when interval geometry and
    v_max are incompatible."""
    ds = np.diff(path.arc_lengths)
    n = len(path.poses)
    t = np.zeros(n)
    if not (seq.chosen[0].start <= 0.0 <= seq.chosen[0].end):
        return None
    for i in range(1, n):
        lo = max(seq.chosen[i].start, t[i - 1] + max(ds[i - 1] / config.v_max, DT_MIN))
        if lo > seq.chosen[i].end:
            return None
        t[i] = lo
    return t


class TimingProblem:
    """The SQP of ``optimize_timestamps`` over x = (t_2, ..., t_n), t_1 = 0.

    Objective: w_t * t_n^2 + w_a * sum a_i^2.  Constraints g(x) >= 0, in
    order: dt - DT_MIN, v_max - v, a_max - a, a_max + a, t_i - start_i for
    every node i >= 2, and end_i - t_i for every node i >= 2 whose interval
    end is finite.  Each comes with its exact derivative: with edge durations
    dt_i and speeds v_i = ds_i/dt_i, dv_i/d(dt_i) = -v_i/dt_i, which chains
    into a_j = (v_{j+1} - v_j)/dt_{j+1}.
    """

    def __init__(self, path: Path, seq: IntervalSequence, config: TemporalConfig):
        n = len(path.poses)
        self.ds = np.diff(path.arc_lengths)
        self.v_max = config.v_max
        self.a_max = config.a_max
        self.w_t = 1.0 / (path.total_length / config.v_max) ** 2
        self.w_a = 1.0 / ((n - 2) * config.a_max**2) if n > 2 else 0.0
        self.lo = np.array([si.start for si in seq.chosen[1:]])
        hi = np.array([si.end for si in seq.chosen[1:]])
        self.finite = np.flatnonzero(np.isfinite(hi))
        self.hi = hi[self.finite]
        # The Jacobian's rows as the chain rule gives them with every v/dt and
        # acceleration partial zero: the constant dt rows, the bound rows, and
        # the zeros of the speed and acceleration rows (-da holds -0.0 before
        # chaining).  ``constraints_jac`` writes the bands over them.
        m = n - 1
        eye = np.eye(m)
        zeros_dt = np.vstack([eye, np.zeros((m, m)), np.full((m - 1, m), -0.0),
                              np.zeros((m - 1, m))])
        self.jac_const = np.vstack([_chain_stamps(zeros_dt), eye, -eye[self.finite]])
        # Flat positions of the bands, in the order ``constraints_jac`` lists them.
        i = np.arange(m)
        j = i[:-1]
        rows = np.concatenate([m + i, m + i[1:], 2 * m + j, 2 * m + j[1:], 2 * m + j,
                               3 * m - 1 + j, 3 * m - 1 + j[1:], 3 * m - 1 + j])
        cols = np.concatenate([i, i[:-1], j, j[:-1], j + 1, j, j[:-1], j + 1])
        self.jac_bands = rows * m + cols

    def profile(self, x):
        """Edge durations, edge speeds and node accelerations at stamps x."""
        dt = np.concatenate(([x[0]], x[1:] - x[:-1]))
        v = self.ds / dt
        return dt, v, (v[1:] - v[:-1]) / dt[1:]

    def objective(self, x) -> float:
        _dt, _v, a = self.profile(x)
        return self.w_t * x[-1] ** 2 + self.w_a * float(a @ a)

    def objective_grad(self, x) -> np.ndarray:
        dt, v, a = self.profile(x)
        grad_dt = np.zeros(len(dt))
        da_prev, da_next = self._accel_partials(dt, v, a)
        grad_dt[:-1] += 2.0 * self.w_a * a * da_prev
        grad_dt[1:] += 2.0 * self.w_a * a * da_next
        grad = _chain_stamps(grad_dt)
        grad[-1] += 2.0 * self.w_t * x[-1]
        return grad

    def constraints(self, x) -> np.ndarray:
        dt, v, a = self.profile(x)
        return np.concatenate([dt - DT_MIN, self.v_max - v, self.a_max - a,
                               self.a_max + a, x - self.lo, self.hi - x[self.finite]])

    def constraints_jac(self, x) -> np.ndarray:
        """``_chain_stamps`` of the dt rows, diag(v/dt), -da and da, where row j
        of da holds da_j/d(dt_j) and da_j/d(dt_{j+1}): the constant rows come
        from ``jac_const`` and each band entry is computed with the chain's own
        operation, so the result has the bits of the dense chain."""
        dt, v, a = self.profile(x)
        w = v / dt
        da_prev, da_next = self._accel_partials(dt, v, a)
        neg_prev, neg_next = -da_prev, -da_next
        jac = self.jac_const.copy()
        jac.reshape(-1)[self.jac_bands] = np.concatenate([
            w, 0.0 - w[1:],
            # The last column is not chained, so -da's last entry stays raw.
            neg_prev - neg_next, -0.0 - neg_prev[1:], neg_next[:-1] - -0.0, neg_next[-1:],
            da_prev - da_next, 0.0 - da_prev[1:], da_next])
        return jac

    def violation(self, x) -> float:
        """Squared constraint violation, for feasibility restoration."""
        neg = np.minimum(self.constraints(x), 0.0)
        return float(neg @ neg)

    def violation_grad(self, x) -> np.ndarray:
        return 2.0 * np.minimum(self.constraints(x), 0.0) @ self.constraints_jac(x)

    def feasible(self, x) -> bool:
        return bool(np.all(self.constraints(x) >= -1e-9))

    @staticmethod
    def _accel_partials(dt, v, a):
        """da_j/d(dt_j) and da_j/d(dt_{j+1})."""
        return v[:-1] / dt[:-1] / dt[1:], (-v[1:] / dt[1:] - a) / dt[1:]


def _chain_stamps(d_dt: np.ndarray) -> np.ndarray:
    """Turn derivatives by edge durations (last axis) into derivatives by
    stamps: dt_i = x_i - x_{i-1}, so d/dx_i = d/d(dt_i) - d/d(dt_{i+1})."""
    d_x = d_dt.copy()
    d_x[..., :-1] -= d_dt[..., 1:]
    return d_x


def optimize_timestamps(path: Path, seq: IntervalSequence,
                        config: TemporalConfig) -> Trajectory | None:
    """SQP refinement of node timestamps within the chosen intervals.

    Objective: w_t * t_n^2 + w_a * sum a_i^2 with normalization weights
    w_t = 1/t_min^2, w_a = 1/((n-2) a_max^2).  t_1 is pinned to 0.  Returns
    None when no feasible initialization exists.
    """
    n = len(path.poses)
    if n < 2:
        return None
    init = _feasible_init(path, seq, config)
    if init is None:
        return None
    problem = TimingProblem(path, seq, config)
    cons = [{"type": "ineq", "fun": problem.constraints, "jac": problem.constraints_jac}]
    options = {"maxiter": SQP_MAX_ITERS, "ftol": SQP_TOLERANCE}
    res = minimize(problem.objective, init[1:], jac=problem.objective_grad,
                   method="SLSQP", constraints=cons, options=options)
    candidates = [np.asarray(x, dtype=float) for x in (res.x, init[1:])
                  if x is not None and problem.feasible(x)]
    if not candidates:
        # Feasibility restoration: drive the violation to zero, then re-polish.
        # Restoration can stop just past the 1e-9 feasibility tolerance, so the
        # re-polish starts from any nearly feasible point; only a feasible
        # result is kept.
        rest = minimize(problem.violation, init[1:], jac=problem.violation_grad,
                        method="SLSQP",
                        options={"maxiter": SQP_MAX_ITERS, "ftol": 1e-14})
        if rest.x is not None and problem.violation(rest.x) <= RESTORED_VIOLATION:
            res2 = minimize(problem.objective, rest.x, jac=problem.objective_grad,
                            method="SLSQP", constraints=cons, options=options)
            for x in (res2.x, rest.x):
                if x is not None and problem.feasible(x):
                    candidates.append(np.asarray(x, dtype=float))
                    break
    if not candidates:
        return None
    best = np.concatenate([[0.0], min(candidates, key=problem.objective)])
    v, a = velocity_profile(path, best)
    return Trajectory(path, best, v, a)


def validate_trajectory(traj: Trajectory, tracks, static_obstacles, dt: float,
                        footprint: FootprintSpec, t0: float = 0.0,
                        margin: float = 0.0) -> bool:
    """Independent dense-time safety oracle for an optimized trajectory.

    Interpolates the robot pose every ``dt`` seconds (linear in arc length
    between node timestamps) and checks it against predicted obstacle poses.
    """
    times = np.arange(0.0, traj.duration + dt / 2.0, dt)
    poses = traj.poses_at(times)
    if np.any(poses_in_collision(footprint, poses, static_obstacles, margin)):
        return False
    robot_circles = footprint_circles_batch(footprint, poses)  # (T, k, 2)
    obstacle_circles = _predicted_obstacle_circles(tracks, times, t0)
    return not np.any(predicted_hits(robot_circles, footprint, obstacle_circles, margin))
