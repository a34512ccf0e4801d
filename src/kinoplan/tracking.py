"""Constant-velocity Kalman tracking of moving obstacles.

One filter per obstacle with state (x, y, vx, vy); position-only measurements.
Association is greedy nearest-neighbor under a gating distance, which is
adequate for the handful of obstacles a scenario contains.  Forward prediction
feeds the safe-interval estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .collision import FootprintSpec
from .geometry import Pose, normalize_angle

_H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
_I4 = np.eye(4)
_H.flags.writeable = False
_I4.flags.writeable = False


@dataclass(frozen=True)
class Observation:
    """Position measurement of one obstacle at a given time."""

    position: tuple[float, float]
    timestamp: float
    noise: np.ndarray  # 2x2 covariance

    def __post_init__(self):
        if not all(map(math.isfinite, (*self.position, self.timestamp))):
            raise ValueError("observation position and timestamp must be finite, "
                             f"got {self.position} at {self.timestamp}")
        n = np.asarray(self.noise, dtype=float)
        if n.shape != (2, 2) or not _covariance_2x2(n):
            raise ValueError("measurement noise must be a finite, symmetric, "
                             "positive-definite 2x2 matrix")
        object.__setattr__(self, "noise", n)


def _covariance_2x2(m: np.ndarray) -> bool:
    """Whether the 2x2 matrix [[a, b], [c, d]] is finite, symmetric (b == c) and
    positive definite: a > 0 and a*d - b^2 > 0 (Sylvester's criterion)."""
    (a, b), (c, d) = m.tolist()
    return (all(map(math.isfinite, (a, b, c, d))) and b == c
            and a > 0.0 and a * d - b * b > 0.0)


@dataclass(frozen=True)
class ObstacleTrack:
    """Constant-velocity Kalman state of one moving obstacle."""

    id: int
    state: np.ndarray  # (x, y, vx, vy)
    covariance: np.ndarray  # 4x4
    footprint: FootprintSpec
    last_update: float
    last_heading: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "state", np.asarray(self.state, dtype=float))
        object.__setattr__(self, "covariance", np.asarray(self.covariance, dtype=float))

    @property
    def position(self) -> np.ndarray:
        return self.state[:2]

    @property
    def velocity(self) -> np.ndarray:
        return self.state[2:]

    @property
    def speed(self) -> float:
        return float(np.hypot(*self.state[2:]))


def _transition(dt: float) -> np.ndarray:
    F = np.eye(4)
    F[0, 2] = dt
    F[1, 3] = dt
    return F


def _process_noise(dt: float, q: float) -> np.ndarray:
    # White-acceleration model: Q = q * G G^T with G = [dt^2/2, dt] per axis.
    G = np.array([[dt * dt / 2.0, 0.0], [0.0, dt * dt / 2.0], [dt, 0.0], [0.0, dt]])
    return q * G @ G.T


@lru_cache(maxsize=256)
def _model(dt: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    """F and Q for one (dt, q), read-only: the tracker steps at a handful of
    distinct gaps, so each pair is built once and shared."""
    F, Q = _transition(dt), _process_noise(dt, q)
    F.flags.writeable = Q.flags.writeable = False
    return F, Q


def kf_predict(track: ObstacleTrack, dt: float, q: float = 0.5) -> ObstacleTrack:
    """Propagate the CV model forward by dt seconds."""
    if dt < 0.0:
        raise ValueError("dt must be non-negative")
    F, Q = _model(dt, q)
    state = F @ track.state
    cov = F @ track.covariance @ F.T + Q
    # Exact when the product is already symmetric; otherwise it removes the
    # rounding asymmetry that ``kf_update``'s symmetric test would reject.
    cov = 0.5 * (cov + cov.T)
    return ObstacleTrack(track.id, state, cov, track.footprint, track.last_update + dt,
                         track.last_heading)


def kf_update(track: ObstacleTrack, obs: Observation) -> ObstacleTrack:
    """Standard Kalman position update; heading memory refreshed from velocity."""
    z = np.asarray(obs.position, dtype=float)
    S = _H @ track.covariance @ _H.T + obs.noise
    if not _covariance_2x2(S):
        raise np.linalg.LinAlgError("innovation covariance not positive-definite")
    K = track.covariance @ _H.T @ np.linalg.inv(S)
    state = track.state + K @ (z - _H @ track.state)
    cov = (_I4 - K @ _H) @ track.covariance
    cov = 0.5 * (cov + cov.T)
    heading = track.last_heading
    if np.hypot(state[2], state[3]) > 0.1:
        heading = math.atan2(state[3], state[2])
    return ObstacleTrack(track.id, state, cov, track.footprint, obs.timestamp, heading)


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
        for oi in free_o:
            d = float(np.hypot(*(tracks[ti].position - np.asarray(observations[oi].position))))
            if d <= gate:
                cands.append((d, ti, oi))
    for _, ti, oi in sorted(cands):
        if ti in free_t and oi in free_o:
            pairs.append((ti, oi))
            free_t.discard(ti)
            free_o.discard(oi)
    return pairs, sorted(free_t), sorted(free_o)


def predict_pose(track: ObstacleTrack, t: float) -> tuple[Pose, FootprintSpec]:
    """CV-extrapolated pose at absolute time t >= last_update."""
    if t < track.last_update - 1e-9:
        raise ValueError("prediction time precedes last update")
    dt = t - track.last_update
    x = track.state[0] + track.state[2] * dt
    y = track.state[1] + track.state[3] * dt
    return Pose(x, y, track_heading(track)), track.footprint


def track_heading(track: ObstacleTrack) -> float:
    """The heading ``predict_pose`` gives a track at any time: its velocity's
    direction when it moves faster than 0.1 m/s, else its last heading,
    wrapped to (-pi, pi]."""
    if track.speed > 0.1:
        return normalize_angle(math.atan2(track.state[3], track.state[2]))
    return normalize_angle(track.last_heading)


@dataclass
class TrackerConfig:
    q: float = 0.5  # process noise intensity, m^2/s^3
    gate: float = 2.0  # association gate, m
    stale_timeout: float = 1.0  # drop tracks unseen this long, s
    init_pos_var: float = 0.25
    init_vel_var: float = 4.0
    default_footprint: FootprintSpec | None = None


class TrackStore:
    """Multi-object track bookkeeping: predict, associate, update, spawn, prune."""

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.tracks: list[ObstacleTrack] = []
        self._next_id = 0

    def step(self, observations: list[Observation], now: float) -> None:
        cfg = self.config
        predicted = [kf_predict(t, max(0.0, now - t.last_update), cfg.q) for t in self.tracks]
        pairs, unmatched_t, unmatched_o = associate(predicted, observations, cfg.gate)
        new_tracks = []
        for ti, oi in pairs:
            new_tracks.append(kf_update(predicted[ti], observations[oi]))
        for ti in unmatched_t:
            # Coast on the last filtered state until the track goes stale.
            if now - self.tracks[ti].last_update <= cfg.stale_timeout:
                new_tracks.append(self.tracks[ti])
        for oi in unmatched_o:
            obs = observations[oi]
            fp = cfg.default_footprint or FootprintSpec.from_dimensions(0.8, 0.8, single_circle=True)
            cov = np.diag([cfg.init_pos_var, cfg.init_pos_var, cfg.init_vel_var, cfg.init_vel_var])
            new_tracks.append(ObstacleTrack(
                id=self._next_id,
                state=np.array([obs.position[0], obs.position[1], 0.0, 0.0]),
                covariance=cov,
                footprint=fp,
                last_update=obs.timestamp,
            ))
            self._next_id += 1
        self.tracks = sorted(new_tracks, key=lambda t: t.id)

    def snapshot(self) -> list[ObstacleTrack]:
        return list(self.tracks)
