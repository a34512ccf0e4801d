"""Constant-velocity Kalman tracking of moving obstacles.

One filter per obstacle with state (x, y, vx, vy), position-only measurements
and one noise variance for both coordinates.  The axes never couple, so the
covariance is two identical per-axis blocks [[p, c], [c, v]]: each filter is
the per-axis alpha-beta form (Kalata, IEEE TAES 1984; Bar-Shalom, Li &
Kirubarajan, 2001), stepped over Python floats with no BLAS call.  Association
is greedy nearest-neighbor under a gating distance, adequate for the handful of
obstacles a scenario contains.  The safe-interval estimation
(``temporal._predicted_obstacle_circles``) extrapolates each track at its
velocity, holding ``track_heading``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .collision import FootprintSpec
from .geometry import normalize_angle

GATE = 2.0  # association gate, m
STALE_TIMEOUT = 1.0  # drop tracks unseen this long, s
INIT_POS_VAR = 0.25  # position variance of a new track, m^2
INIT_VEL_VAR = 4.0  # velocity variance of a new track, m^2/s^2
ACCEL_NOISE = 0.5  # white-acceleration process noise intensity q, m^2/s^3


@dataclass(frozen=True)
class Observation:
    """Position measurement of one obstacle at a given time."""

    position: tuple[float, float]
    timestamp: float
    noise: float  # variance of each coordinate, m^2

    def __post_init__(self):
        if not all(map(math.isfinite, (*self.position, self.timestamp))):
            raise ValueError("observation position and timestamp must be finite, "
                             f"got {self.position} at {self.timestamp}")
        if not 0.0 < self.noise < math.inf:
            raise ValueError("measurement noise must be a finite, positive variance, "
                             f"got {self.noise}")
        object.__setattr__(self, "noise", float(self.noise))


# Flat indices into a 4x4 matrix: the (x, vx) and (y, vy) blocks, the cross-axis terms.
_X_BLOCK, _Y_BLOCK = itemgetter(0, 2, 8, 10), itemgetter(5, 7, 13, 15)
_CROSS_AXIS = itemgetter(1, 3, 4, 6, 9, 11, 12, 14)


def _per_axis_fault(cov: np.ndarray) -> str | None:
    """What keeps ``cov`` from being a finite 4x4 covariance of two equal,
    symmetric, positive-definite per-axis blocks with zero cross-axis terms."""
    if cov.shape != (4, 4):
        return f"must be 4x4, got shape {cov.shape}"
    m = cov.ravel().tolist()
    if not all(map(math.isfinite, m)):
        return "must be finite"
    bx, by = _X_BLOCK(m), _Y_BLOCK(m)
    if bx != by:
        return f"must have equal (x, vx) and (y, vy) blocks, got {bx} and {by}"
    if any(_CROSS_AXIS(m)):
        return "must have zero cross-axis terms"
    p, c, c_t, v = bx
    if not (c == c_t and p > 0.0 and p * v - c * c > 0.0):  # Sylvester's criterion
        return f"must have symmetric positive-definite blocks, got [[{p}, {c}], [{c_t}, {v}]]"
    return None


@dataclass(frozen=True)
class ObstacleTrack:
    """Constant-velocity Kalman state of one moving obstacle."""

    id: int
    state: np.ndarray  # (x, y, vx, vy)
    covariance: np.ndarray  # 4x4, two identical per-axis blocks
    footprint: FootprintSpec
    last_update: float
    last_heading: float = 0.0

    def __post_init__(self):
        state, cov = np.asarray(self.state, dtype=float), np.asarray(self.covariance, dtype=float)
        if state.shape != (4,) or not all(map(math.isfinite, state.tolist())):
            raise ValueError(f"track state must be 4 finite numbers, got {state}")
        if fault := _per_axis_fault(cov):
            raise ValueError(f"track covariance {fault}")
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "covariance", cov)

    @property
    def velocity(self) -> np.ndarray:
        return self.state[2:]

    @property
    def speed(self) -> float:
        return float(np.hypot(*self.state[2:]))


def _per_axis(p: float, c: float, v: float) -> np.ndarray:
    """The 4x4 covariance of two blocks [[p, c], [c, v]], +0.0 elsewhere."""
    return np.array([[p, 0.0, c, 0.0], [0.0, p, 0.0, c], [c, 0.0, v, 0.0], [0.0, c, 0.0, v]])


# Both filters round as the 4x4 products they replace (F P F^T + Q; K = P H^T S^-1,
# (I - K H) P; both symmetrised) do on a BLAS kernel without fused multiply-adds.

def kf_predict(track: ObstacleTrack, dt: float) -> ObstacleTrack:
    """Propagate the CV model forward by dt seconds under white-acceleration
    process noise of intensity q = ``ACCEL_NOISE``: per axis, Q = q G G^T with
    G = (dt^2/2, dt)."""
    if dt < 0.0:
        raise ValueError("dt must be non-negative")
    x, y, vx, vy = track.state.tolist()
    (p, _, c, _), _, (_, _, v, _), _ = track.covariance.tolist()
    h = dt * dt / 2.0
    qh, qdt = ACCEL_NOISE * h, ACCEL_NOISE * dt
    f = c + dt * v
    cov = _per_axis((p + dt * c) + f * dt + qh * h, 0.5 * ((f + qh * dt) + (f + qdt * h)),
                    v + qdt * dt)
    return ObstacleTrack(track.id, np.array([x + dt * vx, y + dt * vy, vx, vy]), cov,
                         track.footprint, track.last_update + dt, track.last_heading)


def kf_update(track: ObstacleTrack, obs: Observation) -> ObstacleTrack:
    """Standard Kalman position update; heading memory refreshed from velocity.
    The innovation variance p + noise is positive, as both terms are."""
    x, y, vx, vy = track.state.tolist()
    (p, _, c, _), _, (_, _, v, _), _ = track.covariance.tolist()
    i = 1.0 / (p + obs.noise)
    kp, kv = p * i, c * i
    ex, ey = obs.position[0] - x, obs.position[1] - y
    vx, vy = vx + kv * ex, vy + kv * ey
    heading = math.atan2(vy, vx) if np.hypot(vx, vy) > 0.1 else track.last_heading
    cov = _per_axis((1.0 - kp) * p, 0.5 * ((1.0 - kp) * c + (-kv * p + c)), -kv * c + v)
    return ObstacleTrack(track.id, np.array([x + kp * ex, y + kp * ey, vx, vy]), cov,
                         track.footprint, obs.timestamp, heading)


def associate(tracks: list[ObstacleTrack], observations: list[Observation], gate: float):
    """Greedy nearest-neighbor matching.

    Returns (pairs, unmatched_tracks, unmatched_observations) where pairs is a
    list of (track_index, observation_index).
    """
    pairs = []
    free_t = set(range(len(tracks)))
    free_o = set(range(len(observations)))
    cands = []
    for ti in free_t:
        x, y = tracks[ti].state[:2].tolist()
        for oi in free_o:
            ox, oy = observations[oi].position
            d = float(np.hypot(x - ox, y - oy))
            if d <= gate:
                cands.append((d, ti, oi))
    for _, ti, oi in sorted(cands):
        if ti in free_t and oi in free_o:
            pairs.append((ti, oi))
            free_t.discard(ti)
            free_o.discard(oi)
    return pairs, sorted(free_t), sorted(free_o)


def track_heading(track: ObstacleTrack) -> float:
    """The heading a track is predicted to hold at any time: its velocity's
    direction when it moves faster than 0.1 m/s, else its last heading,
    wrapped to (-pi, pi]."""
    if track.speed > 0.1:
        return normalize_angle(math.atan2(track.state[3], track.state[2]))
    return normalize_angle(track.last_heading)


class TrackStore:
    """Multi-object track bookkeeping: predict, associate, update, spawn, prune.
    A spawned track gets ``default_footprint``, or a 0.8 m one-circle cover."""

    def __init__(self, default_footprint: FootprintSpec | None = None):
        self.default_footprint = (default_footprint
                                  or FootprintSpec.from_dimensions(0.8, 0.8, single_circle=True))
        self.tracks: list[ObstacleTrack] = []
        self._next_id = 0

    def step(self, observations: list[Observation], now: float) -> None:
        predicted = [kf_predict(t, max(0.0, now - t.last_update)) for t in self.tracks]
        pairs, unmatched_t, unmatched_o = associate(predicted, observations, GATE)
        new_tracks = [kf_update(predicted[ti], observations[oi]) for ti, oi in pairs]
        for ti in unmatched_t:
            # Coast on the last filtered state until the track goes stale.
            if now - self.tracks[ti].last_update <= STALE_TIMEOUT:
                new_tracks.append(self.tracks[ti])
        for oi in unmatched_o:
            obs = observations[oi]
            new_tracks.append(ObstacleTrack(
                self._next_id, np.array([obs.position[0], obs.position[1], 0.0, 0.0]),
                _per_axis(INIT_POS_VAR, 0.0, INIT_VEL_VAR), self.default_footprint,
                obs.timestamp))
            self._next_id += 1
        self.tracks = sorted(new_tracks, key=lambda t: t.id)

    def snapshot(self) -> list[ObstacleTrack]:
        return list(self.tracks)
