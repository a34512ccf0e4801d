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

from .collision import (SCREEN_SLACK, FootprintSpec, _pair_distances, circles_hit,
                        footprint_circles_batch)
from .configfile import write_lines
from .rrt import Path
from .tracking import track_heading

# Minimum timestamp gap; true stopping is a long dwell, never equal stamps.
DT_MIN = 1e-3
# The interior-point solver's KKT tolerance, iteration cap, starting slack
# and multiplier, and fraction-to-boundary factor.
IP_TOLERANCE = 1e-9
IP_MAX_ITERS = 100
IP_START = 1.0
IP_STEP_TO_BOUNDARY = 0.995
# Slack added to a node's influence radius when deciding whether an obstacle
# has left it for good (an open-ended last interval), m.
INFLUENCE_EXTRA = 0.5


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


@lru_cache(maxsize=64)
def _offset_row(offsets: tuple[float, ...]) -> np.ndarray:
    """The center offsets of a cover as a read-only (1, k) row."""
    row = np.asarray(offsets)[None, :]
    row.flags.writeable = False
    return row


def _predicted_obstacle_circles(tracks, times: np.ndarray, t0: float) -> list[PredictedCover]:
    """Per-track predicted cover circles at ``t0 + times``."""
    out = []
    for track in tracks:
        dt = (t0 + times) - track.last_update
        px = track.state[0] + track.state[2] * dt
        py = track.state[1] + track.state[3] * dt
        heading = track_heading(track)
        c, s = math.cos(heading), math.sin(heading)
        offs = _offset_row(track.footprint.center_offsets)
        centers = np.stack([px[:, None] + c * offs, py[:, None] + s * offs], axis=-1)
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
    tracked obstacle has left its influence disk by then.  ``static_obstacles``
    is a ``collision.World`` or a sequence of obstacles.
    """
    times = np.arange(0.0, config.horizon + config.si_dt / 2.0, config.si_dt)
    margin = _effective_margin(path, config)
    poses = np.array([[p.x, p.y, p.theta] for p in path.poses])
    n = len(poses)
    robot_circles = footprint_circles_batch(footprint, poses)  # (n, k, 2)
    # No margin against statics: the geometric planner already cleared the
    # whole curve against them, so inflation would only erase narrow passages.
    static_hit = circles_hit(robot_circles, footprint.radius, static_obstacles)
    obstacle_circles = _predicted_obstacle_circles(tracks, times, t0)
    hit = predicted_hits(robot_circles[:, None], footprint, obstacle_circles, margin)
    free = np.broadcast_to(~static_hit[:, None] & ~hit, (n, len(times)))
    result = [NodeIntervals(i, []) for i in range(n)]
    node_centers = robot_circles.mean(axis=1)  # (n, 2)
    last_centers = [cover.centers[-1].mean(axis=0) for cover in obstacle_circles]
    for i, first, last in zip(*free_runs(free)):
        start = times[first]
        if last == len(times) - 1 and _open_horizon(node_centers[i], footprint, obstacle_circles,
                                                    last_centers, margin):
            end = math.inf
        else:
            end = times[last]
        if end > start:
            result[i].intervals.append(SafeInterval(float(start), float(end)))
    return result


def _open_horizon(node_center: np.ndarray, footprint, obstacle_circles, last_centers,
                  margin: float) -> bool:
    """Whether a node stays free past the horizon: every obstacle has exited
    the node's influence disk by the last sample and is not closing in.
    ``node_center`` is the mean of the node's cover centers and
    ``last_centers`` the mean of each obstacle cover's centers at the last
    sample."""
    for cover, last in zip(obstacle_circles, last_centers):
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
                if eff >= child.end:
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
    """The timing problem of ``optimize_timestamps`` over x = (t_2, ..., t_n), t_1 = 0.

    Objective: w_t * t_n^2 + w_a * sum a_i^2.  ``constraints`` lists the
    contract g(x) >= 0 that a result must meet, in order: dt - DT_MIN,
    v_max - v, a_max - a, a_max + a, t_i - start_i for every node i >= 2, and
    end_i - t_i for every node i >= 2 whose interval end is finite.
    ``linearize`` gives the same problem as the solver reads it: the dt and v
    rows become one linear bound per edge, dt_i >= max(DT_MIN, ds_i / v_max),
    the objective is the weighted sum of squares of the residuals (a, t_n),
    and every row comes with its derivative by the at most three consecutive
    stamps it reads.  With edge durations dt_i and speeds v_i = ds_i/dt_i,
    dv_i/d(dt_i) = -v_i/dt_i, which chains into a_j = (v_{j+1} - v_j)/dt_{j+1}.
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
        self.dt_lo = np.maximum(DT_MIN, self.ds / config.v_max)
        # Row r of ``linearize`` reads stamps cols[r] - 1, cols[r] and
        # cols[r] + 1: the dt rows, a_max - a, a_max + a, the starts and the
        # finite ends, then the residuals a and t_n.
        m = n - 1
        edges, accels = np.arange(m), np.arange(m - 1)
        cols = np.concatenate([edges, accels, accels, edges, self.finite, accels, [m - 1]])
        self.n_constraints = len(cols) - m
        self.index = band_index(cols)
        self.weights = np.append(np.full(m - 1, self.w_a), self.w_t)
        # The bands of the linear rows: dt_i = x_i - x_{i-1}, the bounds and t_n.
        self._dt_bands = np.zeros((3, m))
        self._dt_bands[1] = 1.0
        self._dt_bands[0, 1:] = -1.0
        self._bound_bands = np.zeros((3, m + len(self.finite)))
        self._bound_bands[1, :m] = 1.0
        self._bound_bands[1, m:] = -1.0
        self._time_band = np.array([[0.0], [1.0], [0.0]])

    def profile(self, x):
        """Edge durations, edge speeds and node accelerations at stamps x."""
        dt = np.concatenate(([x[0]], x[1:] - x[:-1]))
        v = self.ds / dt
        return dt, v, (v[1:] - v[:-1]) / dt[1:]

    def objective(self, x) -> float:
        _dt, _v, a = self.profile(x)
        return self.w_t * x[-1] ** 2 + self.w_a * float(a @ a)

    def objective_grad(self, x) -> np.ndarray:
        _g, res, bands = self.linearize(x)
        k = self.n_constraints
        return band_tmul(self.index[:, k:], bands[:, k:], 2.0 * self.weights * res, len(x))

    def linearize(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The constraint values g (g >= 0 wanted) and the objective residuals
        r (objective = sum(weights * r^2)) at x, with the (3, rows) derivative
        bands of both, constraint rows first: band[:, r] holds the derivatives
        by the three consecutive stamps that ``index[:, r]`` places (zero-based
        in x; the first acceleration's stamp -1 is the pinned t_1 and gets 0)."""
        dt, v, a = self.profile(x)
        da_prev, da_next = self._accel_partials(dt, v, a)
        da = np.array([-da_prev, da_prev - da_next, da_next])
        da[0, :1] = 0.0
        g = np.concatenate([dt - self.dt_lo, self.a_max - a, self.a_max + a,
                            x - self.lo, self.hi - x[self.finite]])
        bands = np.concatenate([self._dt_bands, -da, da, self._bound_bands, da,
                                self._time_band], axis=1)
        return g, np.concatenate([a, x[-1:]]), bands

    def accel_curvature(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The second partials of each a_j by (p, q) = (dt_j, dt_{j+1}):
        d2a/dp2, d2a/dpdq and d2a/dq2, from a_j = ds_{j+1}/q^2 - ds_j/(p q)."""
        dt, v, _a = self.profile(x)
        p, q = dt[:-1], dt[1:]
        return (-2.0 * v[:-1] / (p * p * q), -v[:-1] / (p * q * q),
                (6.0 * v[1:] - 2.0 * v[:-1]) / (q * q * q))

    def constraints(self, x) -> np.ndarray:
        dt, v, a = self.profile(x)
        return np.concatenate([dt - DT_MIN, self.v_max - v, self.a_max - a,
                               self.a_max + a, x - self.lo, self.hi - x[self.finite]])

    def feasible(self, x) -> bool:
        return bool(np.all(self.constraints(x) >= -1e-9))

    @staticmethod
    def _accel_partials(dt, v, a):
        """da_j/d(dt_j) and da_j/d(dt_{j+1})."""
        return v[:-1] / dt[:-1] / dt[1:], (-v[1:] / dt[1:] - a) / dt[1:]


def band_index(cols: np.ndarray) -> np.ndarray:
    """(3, rows): where the band entries of rows at stamps ``cols`` - 1, ``cols``
    and ``cols`` + 1 sit in a stamp vector padded with one zero at each end."""
    return np.array([cols, cols + 1, cols + 2])


def band_mul(index: np.ndarray, bands: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """J @ dx for the banded rows ``bands`` (3, rows) at ``index``."""
    pad = np.concatenate(([0.0], dx, [0.0]))
    return (bands * pad[index]).sum(axis=0)


def band_tmul(index: np.ndarray, bands: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """J^T @ y for the banded rows, as m stamp derivatives."""
    return np.bincount(index.ravel(), (bands * y).ravel(), m + 2)[1:m + 1]


def band_sum(index: np.ndarray, diag: np.ndarray, off1: np.ndarray, off2: np.ndarray,
             m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The m x m pentadiagonal sum of symmetric 3x3 blocks, block r on the
    stamps of index[:, r] with diagonal diag[:, r], first superdiagonal
    off1[:, r] and corner off2[r]; returned as its diagonal and first and
    second superdiagonals.  Entries on the pinned stamp -1 or past the last
    stamp drop out."""
    return (np.bincount(index.ravel(), diag.ravel(), m + 2)[1:m + 1],
            np.bincount(index[:2].ravel(), off1.ravel(), m + 2)[1:m],
            np.bincount(index[0], off2, m + 2)[1:m - 1])


def ldl_pentadiagonal(diag, off1, off2):
    """LDL^T of the symmetric pentadiagonal matrix with diagonal ``diag`` and
    superdiagonals ``off1`` (k, k + 1) and ``off2`` (k, k + 2), as scalar
    recurrences over Python floats.  Returns (D, L1, L2) with
    L1[k] = L[k, k - 1] and L2[k] = L[k, k - 2], or None when a pivot is not
    positive and finite."""
    m = len(diag)
    d_ = [0.0] * m
    l1 = [0.0] * (m + 1)
    l2 = [0.0] * (m + 2)
    for k in range(m):
        dk = diag[k]
        if k >= 1:
            dk -= l1[k] * l1[k] * d_[k - 1]
        if k >= 2:
            dk -= l2[k] * l2[k] * d_[k - 2]
        if not 0.0 < dk < math.inf:
            return None
        d_[k] = dk
        if k + 1 < m:
            ek = off1[k]
            if k >= 1:
                ek -= l2[k + 1] * l1[k] * d_[k - 1]
            l1[k + 1] = ek / dk
        if k + 2 < m:
            l2[k + 2] = off2[k] / dk
    return d_, l1, l2


def ldl_solve(factor, b) -> list[float]:
    """Solve L D L^T x = b for the factor of ``ldl_pentadiagonal``."""
    d_, l1, l2 = factor
    m = len(d_)
    y = list(b)
    y1 = y2 = 0.0  # y[k - 1], y[k - 2]
    for k in range(m):
        y1, y2 = y[k] - l1[k] * y1 - l2[k] * y2, y1
        y[k] = y1
    x = [0.0] * (m + 2)
    for k in range(m - 1, -1, -1):
        x[k] = y[k] / d_[k] - l1[k + 1] * x[k + 1] - l2[k + 2] * x[k + 2]
    return x[:m]


class Solution(NamedTuple):
    x: np.ndarray
    nit: int  # interior-point iterations taken


def _step_to_boundary(v: np.ndarray, dv: np.ndarray, tau: float) -> float:
    """The largest step in (0, 1] with v + step * dv >= (1 - tau) * v, for v > 0."""
    worst = float((dv / v).min())
    return 1.0 if worst >= -tau else tau / -worst


def convex_curvature(c, h_pp, h_pq, h_qq):
    """The positive semidefinite part of each 2x2 block c_j * [[h_pp, h_pq],
    [h_pq, h_qq]], chained onto the stamps j - 1, j, j + 1 in ``band_sum``
    form.  A block with eigenvalues lp > 0 > lm keeps
    lp / (lp - lm) * (B - lm I), the part along its positive eigenvector; a
    block with no positive eigenvalue drops out."""
    a, b, d = c * h_pp, c * h_pq, c * h_qq
    mid = 0.5 * (a + d)
    rad = np.sqrt(0.25 * (a - d) * (a - d) + b * b)
    lp, lm = mid + rad, mid - rad
    scale = np.where(lm >= 0.0, 1.0, np.where(lp <= 0.0, 0.0, lp / (2.0 * rad)))
    shift = np.minimum(lm, 0.0)
    a, b, d = scale * (a - shift), scale * b, scale * (d - shift)
    # dt_j = x_j - x_{j-1} and dt_{j+1} = x_{j+1} - x_j.
    return np.array([a, a - 2.0 * b + d, d]), np.array([b - a, b - d]), -b


def minimize(problem: TimingProblem, x0) -> Solution:
    """Primal-dual interior-point solve of ``problem`` from stamps x0.

    Every row g(x) >= 0 of ``problem.linearize`` gets a slack s > 0 with
    g(x) - s = 0 and a multiplier lambda > 0, both started at ``IP_START`` or
    at g(x0) when that is larger, so a start that breaks a row is taken
    through its slack.  Each iteration takes Mehrotra's predictor-corrector
    step (Nocedal & Wright, Numerical Optimization, 2006, ch. 14, 16 and 19),
    with the complementarity target kept above a tenth of ``IP_TOLERANCE``.
    The Hessian is the Gauss-Newton one of the objective,
    2 Jr^T diag(weights) Jr, plus the positive semidefinite part of the
    Lagrangian's curvature in each acceleration (``convex_curvature``): it
    is positive semidefinite, so no inertia correction is needed, and it
    keeps the curvature that a multiplier on an active a_max row adds, whose
    absence makes Gauss-Newton steps oscillate.  Every row reads at most
    three consecutive stamps, so the Newton system H + J^T diag(lambda / s) J
    is pentadiagonal, and positive definite through the dt rows;
    ``ldl_pentadiagonal`` factors it once per iteration for both steps (the
    banded structure of Rao, Wright & Rawlings, JOTA 1998).  A step keeps the
    slacks, the multipliers and the edge durations within
    ``IP_STEP_TO_BOUNDARY`` of zero.  The solve stops when the KKT residual
    (stationarity, g - s and s * lambda, largest entry) is at most
    ``IP_TOLERANCE``, after ``IP_MAX_ITERS`` iterations, or when an iterate
    or a factorization is not finite, and returns the last finite stamps,
    which the caller checks.  No step calls BLAS, so the result has the same
    bits under any BLAS thread count.
    """
    x = np.array(x0, dtype=float)
    m = len(x)
    k = problem.n_constraints
    index = problem.index
    cindex = index[:, :k]
    # The Hessian's blocks: one per row of linearize, then one per a_j.
    hindex = np.concatenate([index, index[:, m:2 * m - 1]], axis=1)
    two_w = 2.0 * problem.weights
    with np.errstate(all="ignore"):
        g, res, bands = problem.linearize(x)
        s = np.maximum(g, IP_START)
        lam = np.full(k, IP_START)
        for nit in range(IP_MAX_ITERS):
            cb = bands[:, :k]
            r_d = band_tmul(index, bands, np.concatenate([-lam, two_w * res]), m)
            r_p = g - s
            comp = s * lam
            kkt = float(np.abs(np.concatenate([r_d, r_p, comp])).max())
            if not kkt > IP_TOLERANCE:  # converged, or not finite
                return Solution(x, nit)
            sigma = lam / s
            wb = bands * np.concatenate([sigma, two_w])
            # The Lagrangian's weight on each a_j's curvature: 2 w_a a_j from
            # the objective, lambda from the a_max - a and a_max + a rows.
            c = two_w[:m - 1] * res[:m - 1] + lam[m:2 * m - 1] - lam[2 * m - 1:3 * m - 2]
            c_diag, c_off1, c_off2 = convex_curvature(c, *problem.accel_curvature(x))
            factor = ldl_pentadiagonal(*(h.tolist() for h in band_sum(
                hindex, np.concatenate([wb * bands, c_diag], axis=1),
                np.concatenate([wb[:2] * bands[1:], c_off1], axis=1),
                np.concatenate([wb[0] * bands[2], c_off2]), m)))
            if factor is None:
                return Solution(x, nit)

            def newton(r_c):
                """The step for complementarity target s * lambda + r_c."""
                rhs = band_tmul(cindex, cb, r_c / s - sigma * r_p, m) - r_d
                dx = np.array(ldl_solve(factor, rhs.tolist()))
                ds = band_mul(cindex, cb, dx) + r_p
                return dx, ds, (r_c - lam * ds) / s

            _dx, ds, dlam = newton(-comp)
            # numpy scalars: an underflowed mu gives a non-finite target (and
            # so a non-finite iterate, which ends the solve), never an exception.
            mu = comp.sum()
            mu_aff = ((s + _step_to_boundary(s, ds, 1.0) * ds)
                      * (lam + _step_to_boundary(lam, dlam, 1.0) * dlam)).sum()
            target = max(mu * (mu_aff / mu) ** 3 / k, 0.1 * IP_TOLERANCE)
            dx, ds, dlam = newton(target - comp - ds * dlam)
            # On the dt rows, dt = g + dt_lo and the step moves it by
            # J dx = ds - r_p.
            step = min(_step_to_boundary(s, ds, IP_STEP_TO_BOUNDARY),
                       _step_to_boundary(g[:m] + problem.dt_lo, ds[:m] - r_p[:m],
                                         IP_STEP_TO_BOUNDARY))
            x_new = x + step * dx
            s = s + step * ds
            lam = lam + _step_to_boundary(lam, dlam, IP_STEP_TO_BOUNDARY) * dlam
            g, res, bands = problem.linearize(x_new)
            if not (np.isfinite(g).all() and np.isfinite(bands).all()):
                return Solution(x, nit + 1)
            x = x_new
    return Solution(x, IP_MAX_ITERS)


def optimize_timestamps(path: Path, seq: IntervalSequence,
                        config: TemporalConfig) -> Trajectory | None:
    """Optimal node timestamps within the chosen intervals.

    Objective: w_t * t_n^2 + w_a * sum a_i^2 with normalization weights
    w_t = 1/t_min^2, w_a = 1/((n-2) a_max^2).  t_1 is pinned to 0.  The
    interior-point ``minimize`` starts from the greedy earliest-arrival
    stamps.  Returns None when no feasible initialization exists or when
    the result breaks ``TimingProblem.constraints``.
    """
    n = len(path.poses)
    if n < 2:
        return None
    init = _feasible_init(path, seq, config)
    if init is None:
        return None
    problem = TimingProblem(path, seq, config)
    x = minimize(problem, init[1:]).x
    if not problem.feasible(x):
        return None
    best = np.concatenate([[0.0], x])
    v, a = velocity_profile(path, best)
    return Trajectory(path, best, v, a)


def validate_trajectory(traj: Trajectory, tracks, static_obstacles, dt: float,
                        footprint: FootprintSpec, t0: float = 0.0) -> bool:
    """Independent dense-time safety oracle for an optimized trajectory.

    Interpolates the robot pose every ``dt`` seconds (linear in arc length
    between node timestamps) and checks it against the static obstacles (a
    ``collision.World`` or a sequence of them) and predicted obstacle poses.
    """
    times = np.arange(0.0, traj.duration + dt / 2.0, dt)
    poses = traj.poses_at(times)
    robot_circles = footprint_circles_batch(footprint, poses)  # (T, k, 2)
    if np.any(circles_hit(robot_circles, footprint.radius, static_obstacles, 0.0)):
        return False
    obstacle_circles = _predicted_obstacle_circles(tracks, times, t0)
    return not np.any(predicted_hits(robot_circles, footprint, obstacle_circles, 0.0))
