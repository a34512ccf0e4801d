"""Constant-velocity Kalman tracking of moving obstacles.

One filter per obstacle with state (x, y, vx, vy), position-only measurements
and one noise variance for both coordinates.  The axes never couple, so the
covariance is two identical per-axis blocks [[p, c], [c, v]]: each filter is
the per-axis alpha-beta form (Kalata, IEEE TAES 1984; Bar-Shalom, Li &
Kirubarajan, 2001).  ``TrackStore`` keeps each track's state, block, last
update and heading as Python floats (``_Filter``) and filters them in place,
with no BLAS call.  Association is greedy nearest-neighbor under a gating
distance, adequate for the handful of obstacles a scenario contains.  The
closed loop reads the store's filters alone: planning, revalidation and the
planning events (which keep copies).  ``ObstacleTrack`` is the validated
input form of a track, with a 4x4 covariance, for callers that build tracks
themselves.  The predictions (``temporal._predicted_obstacle_circles``) read
each track's floats from either form, and extrapolate the track at its
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
    def speed(self) -> float:
        return float(np.hypot(*self.state[2:]))

    @property
    def motion(self) -> tuple[float, float, float, float, float, float]:
        """(x, y, vx, vy, last update, ``track_heading``): the floats a
        prediction extrapolates (``temporal._predicted_obstacle_circles``)."""
        return (*self.state.tolist(), self.last_update, track_heading(self))


def track_heading(track: ObstacleTrack) -> float:
    """The heading a track is predicted to hold at any time: its velocity's
    direction when it moves faster than 0.1 m/s, else its last heading,
    wrapped to (-pi, pi]."""
    if track.speed > 0.1:
        return normalize_angle(math.atan2(track.state[3], track.state[2]))
    return normalize_angle(track.last_heading)


class _Filter:
    """One track's filter state as floats, stepped in place: (x, y, vx, vy),
    the per-axis block [[p, c], [c, v]], the last update and the last heading.

    ``predict`` and ``update`` round as the 4x4 products they replace
    (F P F^T + Q; K = P H^T S^-1, (I - K H) P; both symmetrised) do on a BLAS
    kernel without fused multiply-adds.  A prediction holds the last
    heading, wrapped (``motion``).  The store keeps only filters spawned at
    rest or just updated, and ``update`` takes the heading from a velocity
    faster than 0.1 m/s, so that is ``track_heading`` of the same floats.
    """

    __slots__ = ("id", "footprint", "x", "y", "vx", "vy", "p", "c", "v", "last_update",
                 "last_heading")

    def __init__(self, id, footprint, x, y, vx, vy, p, c, v, last_update, last_heading):
        self.id, self.footprint = id, footprint
        self.x, self.y, self.vx, self.vy = x, y, vx, vy
        self.p, self.c, self.v = p, c, v
        self.last_update, self.last_heading = last_update, last_heading

    @property
    def motion(self) -> tuple[float, float, float, float, float, float]:
        """(x, y, vx, vy, last update, heading), as ``ObstacleTrack.motion``."""
        return (self.x, self.y, self.vx, self.vy, self.last_update,
                normalize_angle(self.last_heading))

    def predict(self, dt: float) -> None:
        """Propagate the CV model forward by dt >= 0 seconds under
        white-acceleration process noise of intensity q = ``ACCEL_NOISE``:
        per axis, Q = q G G^T with G = (dt^2/2, dt)."""
        if dt < 0.0:
            raise ValueError("dt must be non-negative")
        p, c, v = self.p, self.c, self.v
        h = dt * dt / 2.0
        qh, qdt = ACCEL_NOISE * h, ACCEL_NOISE * dt
        f = c + dt * v
        self.p = (p + dt * c) + f * dt + qh * h
        self.c = 0.5 * ((f + qh * dt) + (f + qdt * h))
        self.v = v + qdt * dt
        self.x, self.y = self.x + dt * self.vx, self.y + dt * self.vy
        self.last_update += dt

    def update(self, obs: Observation) -> None:
        """Standard Kalman position update; heading memory refreshed from
        velocity.  The innovation variance p + noise is positive, as both
        terms are."""
        p, c, v = self.p, self.c, self.v
        i = 1.0 / (p + obs.noise)
        kp, kv = p * i, c * i
        ex, ey = obs.position[0] - self.x, obs.position[1] - self.y
        vx, vy = self.vx + kv * ex, self.vy + kv * ey
        if np.hypot(vx, vy) > 0.1:
            self.last_heading = math.atan2(vy, vx)
        self.vx, self.vy = vx, vy
        self.p, self.c, self.v = (1.0 - kp) * p, 0.5 * ((1.0 - kp) * c + (-kv * p + c)), \
            -kv * c + v
        self.x, self.y = self.x + kp * ex, self.y + kp * ey
        self.last_update = obs.timestamp


def _associate(positions: list[tuple[float, float]], observations: list[Observation]):
    """Greedy nearest-neighbor matching of track ``positions`` to
    observations within ``GATE``, nearest pair first (ties by track, then
    observation index).

    Returns (pairs, unmatched_tracks, unmatched_observations) where pairs is a
    list of (track_index, observation_index).
    """
    cands = sorted((d, ti, oi) for ti, (x, y) in enumerate(positions)
                   for oi, (ox, oy) in enumerate(obs.position for obs in observations)
                   if (d := float(np.hypot(x - ox, y - oy))) <= GATE)
    pairs, taken_t, taken_o = [], set(), set()
    for _, ti, oi in cands:
        if ti not in taken_t and oi not in taken_o:
            pairs.append((ti, oi))
            taken_t.add(ti)
            taken_o.add(oi)
    return (pairs, [ti for ti in range(len(positions)) if ti not in taken_t],
            [oi for oi in range(len(observations)) if oi not in taken_o])


class TrackStore:
    """Multi-object track bookkeeping: predict, associate, update, spawn, prune.
    A spawned track gets ``default_footprint``, or a 0.8 m one-circle cover.

    ``filters`` holds the live state of each track, in id order, stepped in
    place; predictions read it directly (``temporal._predicted_obstacle_circles``).
    A reader that keeps a track past the next ``step`` keeps a copy.
    """

    def __init__(self, default_footprint: FootprintSpec | None = None):
        self.default_footprint = (default_footprint
                                  or FootprintSpec.from_dimensions(0.8, 0.8, single_circle=True))
        self.filters: list[_Filter] = []
        self._next_id = 0

    def step(self, observations: list[Observation], now: float) -> None:
        """Predict every track to ``now``, associate, and update the matched
        ones; an unmatched track coasts on its last filtered state until it
        goes stale, and an unmatched observation spawns a track."""
        filters = self.filters
        dts = [max(0.0, now - f.last_update) for f in filters]
        positions = [(f.x + dt * f.vx, f.y + dt * f.vy) for f, dt in zip(filters, dts)]
        pairs, unmatched_t, unmatched_o = _associate(positions, observations)
        for ti, oi in pairs:
            filters[ti].predict(dts[ti])
            filters[ti].update(observations[oi])
        coasting = set(unmatched_t)
        kept = [f for ti, f in enumerate(filters)
                if ti not in coasting or now - f.last_update <= STALE_TIMEOUT]
        for oi in unmatched_o:
            obs = observations[oi]
            kept.append(_Filter(self._next_id, self.default_footprint, obs.position[0],
                                obs.position[1], 0.0, 0.0, INIT_POS_VAR, 0.0, INIT_VEL_VAR,
                                obs.timestamp, 0.0))
            self._next_id += 1
        self.filters = kept
