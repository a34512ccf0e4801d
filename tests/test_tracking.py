"""Constant-velocity Kalman tracking and multi-object bookkeeping."""

import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kinoplan
from kinoplan import tracking
from kinoplan.collision import FootprintSpec, footprint_circles
from kinoplan.geometry import Pose
from kinoplan.temporal import _predicted_obstacle_circles
from kinoplan.tracking import (GATE, INIT_POS_VAR, INIT_VEL_VAR, STALE_TIMEOUT, Observation,
                               ObstacleTrack, TrackStore, _associate, _Filter, track_heading)

FP = FootprintSpec.from_dimensions(4.0, 2.0)


def per_axis(p, c, v):
    """The 4x4 covariance of two per-axis blocks [[p, c], [c, v]]."""
    cov = np.zeros((4, 4))
    cov[0::2, 0::2] = cov[1::2, 1::2] = [[p, c], [c, v]]
    return cov


def make_track(state, t=0.0, var=1.0):
    return ObstacleTrack(id=0, state=np.asarray(state, dtype=float),
                         covariance=np.eye(4) * var, footprint=FP, last_update=t)


def obs(x, y, t, sigma=0.1):
    return Observation((x, y), t, sigma**2)


def filter_of(track: ObstacleTrack) -> _Filter:
    """The store's float state of a record."""
    (p, _, c, _), _, (_, _, v, _), _ = track.covariance.tolist()
    return _Filter(track.id, track.footprint, *track.state.tolist(), p, c, v, track.last_update,
                   track.last_heading)


def record_of(f: _Filter) -> ObstacleTrack:
    """A filter's floats as a record, the inverse of ``filter_of``."""
    return ObstacleTrack(f.id, np.array([f.x, f.y, f.vx, f.vy]), per_axis(f.p, f.c, f.v),
                         f.footprint, f.last_update, f.last_heading)


def predicted(track: ObstacleTrack, dt: float) -> ObstacleTrack:
    """``track`` after the store's ``_Filter.predict``."""
    f = filter_of(track)
    f.predict(dt)
    return record_of(f)


def updated(track: ObstacleTrack, observation: Observation) -> ObstacleTrack:
    """``track`` after the store's ``_Filter.update``."""
    f = filter_of(track)
    f.update(observation)
    return record_of(f)


class TestObservation:
    def test_rejects_bad_noise(self):
        with pytest.raises(ValueError, match="finite, positive variance"):
            Observation((0.0, 0.0), 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_noise(self, bad):
        with pytest.raises(ValueError, match="finite, positive variance"):
            Observation((0.0, 0.0), 0.0, bad)

    def test_rejects_indefinite_noise(self):
        for bad in (-1.0, -0.0):
            with pytest.raises(ValueError, match="finite, positive variance"):
                Observation((0.0, 0.0), 0.0, bad)

    def test_keeps_variance_as_float(self):
        noise = Observation((1.0, 2.0), 0.5, np.float64(0.02)).noise
        assert type(noise) is float and noise == 0.02

    @pytest.mark.parametrize("position", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
    def test_rejects_non_finite_position(self, position):
        with pytest.raises(ValueError, match="position"):
            Observation(position, 0.0, 1.0)

    @pytest.mark.parametrize("timestamp", [math.nan, math.inf])
    def test_rejects_non_finite_timestamp(self, timestamp):
        with pytest.raises(ValueError, match="timestamp"):
            Observation((0.0, 0.0), timestamp, 1.0)


def _with(cov, i, j, value):
    cov = cov.copy()
    cov[i, j] = value
    return cov


class TestTrackValidation:
    GOOD = per_axis(0.5, 0.2, 2.0)

    def test_accepts_per_axis_forms(self):
        for cov in (self.GOOD, np.eye(4) * 1e-4, per_axis(0.25, 0.0, 4.0)):
            track = ObstacleTrack(0, [1, 2, 3, 4], cov, FP, 0.0)
            assert track.state.dtype == track.covariance.dtype == np.float64

    @pytest.mark.parametrize("cov,message", [
        (np.eye(2), "be 4x4"),
        (np.eye(4)[:, :3], "be 4x4"),
        (_with(GOOD, 0, 0, math.nan), "be finite"),
        (_with(GOOD, 2, 1, math.inf), "be finite"),
        (_with(GOOD, 3, 3, 2.5), "have equal"),
        (_with(GOOD, 1, 3, 0.1), "have equal"),
        (_with(_with(GOOD, 0, 1, 1e-9), 1, 0, 1e-9), "have zero cross-axis terms"),
        (_with(_with(GOOD, 2, 3, 0.1), 3, 2, 0.1), "have zero cross-axis terms"),
        (_with(GOOD, 0, 3, 0.1), "have zero cross-axis terms"),
        (per_axis(0.5, 0.2, 2.0) + np.array([[0, 0, 0.1, 0], [0, 0, 0, 0.1], [0] * 4, [0] * 4]),
         "have symmetric positive-definite blocks"),
        (per_axis(0.0, 0.0, 1.0), "have symmetric positive-definite blocks"),
        (per_axis(-1.0, 0.0, -1.0), "have symmetric positive-definite blocks"),
        (per_axis(1.0, 1.0, 1.0), "have symmetric positive-definite blocks"),
        (per_axis(1.0, 0.0, 0.0), "have symmetric positive-definite blocks"),
    ])
    def test_rejects_bad_covariance(self, cov, message):
        with pytest.raises(ValueError, match="track covariance must " + message):
            ObstacleTrack(0, np.zeros(4), cov, FP, 0.0)

    @pytest.mark.parametrize("state", [[0.0, math.nan, 0.0, 0.0], [0.0, 0.0, math.inf, 0.0],
                                       [0.0, 0.0, 0.0], np.zeros((2, 2))])
    def test_rejects_bad_state(self, state):
        with pytest.raises(ValueError, match="track state must be 4 finite numbers"):
            ObstacleTrack(0, state, np.eye(4), FP, 0.0)


class TestPredict:
    def test_cv_translation(self):
        t = predicted(make_track([0.0, 0.0, 1.0, 0.0]), 2.0)
        assert t.state == pytest.approx([2.0, 0.0, 1.0, 0.0])

    def test_zero_dt_identity(self):
        t0 = make_track([1.0, 2.0, 0.5, -0.5])
        t1 = predicted(t0, 0.0)
        assert t1.state == pytest.approx(t0.state)
        assert np.trace(t1.covariance) == pytest.approx(np.trace(t0.covariance))

    def test_covariance_grows(self):
        t0 = make_track([0.0, 0.0, 0.0, 0.0])
        t1 = predicted(t0, 1.0)
        assert np.trace(t1.covariance) > np.trace(t0.covariance)

    def test_negative_dt(self):
        with pytest.raises(ValueError):
            predicted(make_track([0.0, 0.0, 0.0, 0.0]), -0.1)


def _bits(*arrays) -> bytes:
    return b"".join(np.asarray(a, dtype=float).tobytes() for a in arrays)


# The textbook 4x4 form of the filter (F P F^T + Q; K = P H^T S^-1, (I - K H) P),
# the reference the scalar per-axis steps must meet.
_H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


def _matrix_predict(state, cov, dt, q):
    F = np.eye(4)
    F[0, 2] = F[1, 3] = dt
    G = np.array([[dt * dt / 2.0, 0.0], [0.0, dt * dt / 2.0], [dt, 0.0], [0.0, dt]])
    P = F @ cov @ F.T + q * G @ G.T
    return F @ state, 0.5 * (P + P.T)


def _matrix_update(state, cov, z, noise):
    S = _H @ cov @ _H.T + noise * np.eye(2)
    K = cov @ _H.T @ np.linalg.inv(S)
    P = (np.eye(4) - K @ _H) @ cov
    return state + K @ (np.asarray(z) - _H @ state), 0.5 * (P + P.T)


def _assert_close(got, want):
    """Equal within 1e-12 of the largest entry."""
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


_per_axis_tracks = st.builds(
    lambda state, p, rho, v, heading: ObstacleTrack(
        id=3, state=np.array(state), covariance=per_axis(p, rho * math.sqrt(p * v), v),
        footprint=FP, last_update=1.25, last_heading=heading),
    st.lists(st.floats(-50.0, 50.0), min_size=4, max_size=4),
    st.floats(1e-3, 10.0), st.floats(-0.95, 0.95), st.floats(1e-3, 10.0),
    st.floats(-3.0, 3.0))


class TestMatrixReference:
    @settings(max_examples=100, deadline=None)
    @given(track=_per_axis_tracks, dt=st.floats(0.0, 5.0), q=st.floats(1e-3, 10.0))
    def test_predict_matches_matrix_form(self, track, dt, q):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(tracking, "ACCEL_NOISE", q)
            got = predicted(track, dt)
        state, cov = _matrix_predict(track.state, track.covariance, dt, q)
        _assert_close(got.state, state)
        _assert_close(got.covariance, cov)
        assert (got.id, got.footprint, got.last_update, got.last_heading) == \
            (3, FP, track.last_update + dt, track.last_heading)

    @settings(max_examples=100, deadline=None)
    @given(track=_per_axis_tracks, noise=st.floats(1e-4, 1.0),
           dz=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
    def test_update_matches_matrix_form(self, track, noise, dz):
        z = (float(track.state[0]) + dz[0], float(track.state[1]) + dz[1])
        got = updated(track, Observation(z, 9.0, noise))
        state, cov = _matrix_update(track.state, track.covariance, z, noise)
        _assert_close(got.state, state)
        _assert_close(got.covariance, cov)
        assert (got.id, got.footprint, got.last_update) == (3, FP, 9.0)
        vx, vy = got.state[2:]
        want_heading = math.atan2(vy, vx) if np.hypot(vx, vy) > 0.1 else track.last_heading
        assert _bits(got.last_heading) == _bits(want_heading)


class TestUpdate:
    def test_zero_innovation_keeps_position(self):
        t = make_track([3.0, 4.0, 1.0, 0.0])
        t2 = updated(t, obs(3.0, 4.0, 0.0))
        assert t2.state[:2] == pytest.approx([3.0, 4.0])

    def test_posterior_between_prior_and_measurement(self):
        t = make_track([0.0, 0.0, 0.0, 0.0])
        t2 = updated(t, obs(1.0, 0.0, 0.0))
        assert 0.0 < t2.state[0] < 1.0

    def test_covariance_shrinks(self):
        t = predicted(make_track([0.0, 0.0, 0.0, 0.0]), 1.0)
        t2 = updated(t, obs(0.0, 0.0, 1.0))
        assert np.trace(t2.covariance[:2, :2]) < np.trace(t.covariance[:2, :2])

    def test_rejects_indefinite_innovation(self):
        """The innovation variance p + noise is positive because the track's
        block and the noise are checked positive when they are built."""
        with pytest.raises(ValueError, match="positive-definite blocks"):
            make_track([0.0, 0.0, 0.0, 0.0], var=-1.0)
        with pytest.raises(ValueError, match="positive variance"):
            obs(0.0, 0.0, 0.0, sigma=0.0)

    def test_random_steps_keep_per_axis_form(self):
        """200 predict/update steps at random gaps: every record of the
        state passes the per-axis check of the constructor, so the blocks
        stay equal and symmetric with zero cross-axis terms."""
        rng = np.random.default_rng(5)
        f = filter_of(make_track([0.0, 0.0, 1.0, 0.3], var=2.0))
        for _ in range(200):
            f.predict(float(rng.uniform(0.01, 0.7)))
            t = record_of(f)
            assert np.array_equal(t.covariance, t.covariance.T)
            z = t.state[:2] + rng.normal(0.0, 0.2, 2)
            f.update(Observation((float(z[0]), float(z[1])), t.last_update, 0.03))
            t = record_of(f)
            assert np.array_equal(t.covariance, t.covariance.T)

    def test_velocity_converges_for_stationary_target(self):
        f = filter_of(make_track([0.0, 0.0, 1.5, -1.0], var=4.0))
        for k in range(50):
            f.predict(0.1)
            f.update(obs(0.0, 0.0, f.last_update))
        assert math.hypot(f.vx, f.vy) < 0.05


class TestAssociate:
    """The store's association of predicted positions (gate ``GATE`` = 2 m)."""

    def test_single_match(self):
        pairs, ut, uo = _associate([(0.0, 0.0)], [obs(0.5, 0.0, 0.0)])
        assert pairs == [(0, 0)] and not ut and not uo

    def test_beyond_gate(self):
        pairs, ut, uo = _associate([(0.0, 0.0)], [obs(5.0, 0.0, 0.0)])
        assert not pairs and ut == [0] and uo == [0]

    def test_two_unambiguous(self):
        observations = [obs(9.8, 0.0, 0.0), obs(0.2, 0.0, 0.0)]
        pairs, ut, uo = _associate([(0.0, 0.0), (10.0, 0.0)], observations)
        assert sorted(pairs) == [(0, 1), (1, 0)]


def predicted_positions(track, times):
    """(T, 2): where the program predicts ``track`` at the absolute ``times``,
    the center of its cover's anchor circle (offset 0)."""
    cover, = _predicted_obstacle_circles([track], np.asarray(times, dtype=float), 0.0)
    return cover.centers[:, cover.anchor]


class TestPredictPose:
    """Constant-velocity prediction as the safe intervals read it
    (``temporal._predicted_obstacle_circles``)."""

    def test_stationary(self):
        t = make_track([2.0, 3.0, 0.0, 0.0])
        assert predicted_positions(t, [0.0, 1.0, 5.0]) == pytest.approx(
            np.array([[2.0, 3.0]] * 3))
        cover, = _predicted_obstacle_circles([t], np.zeros(1), 0.0)
        assert (cover.radius, cover.reach) == (FP.radius, FP.reach)

    def test_cv_extrapolation(self):
        t = make_track([0.0, 0.0, 2.0, 0.0])
        assert predicted_positions(t, [3.0])[0] == pytest.approx([6.0, 0.0])
        assert track_heading(t) == 0.0

    def test_collinear_predictions(self):
        pts = predicted_positions(make_track([1.0, -1.0, 0.7, 0.3]), np.linspace(0.0, 5.0, 11))
        d = np.diff(pts, axis=0)
        cross = d[:-1, 0] * d[1:, 1] - d[:-1, 1] * d[1:, 0]
        assert np.allclose(cross, 0.0, atol=1e-12)

    def test_slow_track_keeps_last_heading(self):
        t = ObstacleTrack(id=0, state=np.array([0.0, 0.0, 0.01, 0.0]),
                          covariance=np.eye(4), footprint=FP, last_update=0.0,
                          last_heading=1.2)
        assert track_heading(t) == pytest.approx(1.2)
        cover, = _predicted_obstacle_circles([t], np.array([4.0]), 0.0)
        (x0, y0), (x1, y1) = cover.centers[0, 0], cover.centers[0, -1]
        assert math.atan2(y1 - y0, x1 - x0) == pytest.approx(1.2)

    @pytest.mark.parametrize("state,heading", [
        ([0.0, 0.0, -2.0, -0.0], 0.0),  # atan2 gives -pi; the pose wraps it to pi
        ([1.0, 2.0, 0.3, 0.9], 0.0),
        ([1.0, 2.0, 0.01, 0.0], 1.2),  # slow: the last heading
        ([1.0, 2.0, 0.0, 0.0], -math.pi),
        ([1.0, 2.0, 0.0, 0.0], 7.0),
    ])
    def test_track_heading_is_the_predicted_heading(self, state, heading):
        """``track_heading`` wraps as a ``Pose`` does, and the cover predicted
        at the last update is the cover at the track's pose with that
        heading, bit for bit."""
        t = ObstacleTrack(id=0, state=np.array(state), covariance=np.eye(4), footprint=FP,
                          last_update=2.0, last_heading=heading)
        raw = math.atan2(state[3], state[2]) if t.speed > 0.1 else heading
        assert _bits(track_heading(t)) == _bits(Pose(0.0, 0.0, raw).theta)
        cover, = _predicted_obstacle_circles([t], np.zeros(1), 2.0)
        at_pose = footprint_circles(FP, Pose(state[0], state[1], track_heading(t)))
        assert _bits(cover.centers[0]) == _bits(at_pose)


class TestTrackStore:
    def test_spawn_match_count(self):
        store = TrackStore(FP)
        # Two obstacles separated far beyond 2x gate.
        for k in range(20):
            t = 0.1 * k
            store.step([obs(0.0 + 0.1 * t, 0.0, t), obs(20.0, 5.0, t)], t)
        assert len(store.filters) == 2
        assert all(f.footprint is FP for f in store.filters)

    def test_stale_tracks_dropped(self):
        store = TrackStore()
        store.step([obs(0.0, 0.0, 0.0)], 0.0)
        assert len(store.filters) == 1
        store.step([], 2.0)  # beyond the 1 s staleness timeout
        assert len(store.filters) == 0

    def test_velocity_estimation_accuracy(self, monkeypatch):
        """CV target, sigma = 0.1 m at 10 Hz: velocity error < 0.1 m/s after
        3 s in at least 95 of 100 seeds.

        The store spawns the track; the filter then runs with q = 0.05: the
        target really is constant-velocity here, so the filter gets a matched
        process noise (the store's q, ``ACCEL_NOISE``, keeps the tracker
        responsive to maneuvers at the cost of steady-state accuracy).
        """
        monkeypatch.setattr(tracking, "ACCEL_NOISE", 0.05)
        passed = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            store = TrackStore(FP)
            vx, vy = 1.0, 0.5
            for k in range(31):
                t = 0.1 * k
                p = np.array([vx * t, vy * t]) + rng.normal(0.0, 0.1, 2)
                observation = Observation((p[0], p[1]), t, 0.01)
                if k == 0:
                    store.step([observation], t)
                    f, = store.filters
                else:
                    f.predict(t - f.last_update)
                    f.update(observation)
            if math.hypot(f.vx - vx, f.vy - vy) < 0.1:
                passed += 1
        assert passed >= 95


# The record-based filter the store replaced, kept as its oracle: every step
# builds a predicted and an updated ``ObstacleTrack`` per track.

def oracle_predict(track: ObstacleTrack, dt: float) -> ObstacleTrack:
    x, y, vx, vy = track.state.tolist()
    (p, _, c, _), _, (_, _, v, _), _ = track.covariance.tolist()
    h = dt * dt / 2.0
    qh, qdt = tracking.ACCEL_NOISE * h, tracking.ACCEL_NOISE * dt
    f = c + dt * v
    cov = per_axis((p + dt * c) + f * dt + qh * h, 0.5 * ((f + qh * dt) + (f + qdt * h)),
                        v + qdt * dt)
    return ObstacleTrack(track.id, np.array([x + dt * vx, y + dt * vy, vx, vy]), cov,
                         track.footprint, track.last_update + dt, track.last_heading)


def oracle_update(track: ObstacleTrack, ob: Observation) -> ObstacleTrack:
    x, y, vx, vy = track.state.tolist()
    (p, _, c, _), _, (_, _, v, _), _ = track.covariance.tolist()
    i = 1.0 / (p + ob.noise)
    kp, kv = p * i, c * i
    ex, ey = ob.position[0] - x, ob.position[1] - y
    vx, vy = vx + kv * ex, vy + kv * ey
    heading = math.atan2(vy, vx) if np.hypot(vx, vy) > 0.1 else track.last_heading
    cov = per_axis((1.0 - kp) * p, 0.5 * ((1.0 - kp) * c + (-kv * p + c)), -kv * c + v)
    return ObstacleTrack(track.id, np.array([x + kp * ex, y + kp * ey, vx, vy]), cov,
                         track.footprint, ob.timestamp, heading)


def oracle_associate(tracks, observations):
    pairs = []
    free_t, free_o = set(range(len(tracks))), set(range(len(observations)))
    cands = []
    for ti in free_t:
        x, y = tracks[ti].state[:2].tolist()
        for oi in free_o:
            ox, oy = observations[oi].position
            d = float(np.hypot(x - ox, y - oy))
            if d <= GATE:
                cands.append((d, ti, oi))
    for _, ti, oi in sorted(cands):
        if ti in free_t and oi in free_o:
            pairs.append((ti, oi))
            free_t.discard(ti)
            free_o.discard(oi)
    return pairs, sorted(free_t), sorted(free_o)


class OracleStore:
    """``TrackStore.step`` over records; counts the tracks it drops."""

    def __init__(self, footprint):
        self.footprint, self.tracks, self.next_id, self.dropped = footprint, [], 0, 0

    def step(self, observations, now):
        predicted = [oracle_predict(t, max(0.0, now - t.last_update)) for t in self.tracks]
        pairs, unmatched_t, unmatched_o = oracle_associate(predicted, observations)
        new_tracks = [oracle_update(predicted[ti], observations[oi]) for ti, oi in pairs]
        for ti in unmatched_t:
            if now - self.tracks[ti].last_update <= STALE_TIMEOUT:
                new_tracks.append(self.tracks[ti])
            else:
                self.dropped += 1
        for oi in unmatched_o:
            ob = observations[oi]
            new_tracks.append(ObstacleTrack(
                self.next_id, np.array([ob.position[0], ob.position[1], 0.0, 0.0]),
                per_axis(INIT_POS_VAR, 0.0, INIT_VEL_VAR), self.footprint, ob.timestamp))
            self.next_id += 1
        self.tracks = sorted(new_tracks, key=lambda t: t.id)


def _record_bits(track: ObstacleTrack):
    """A record's id, footprint and floats, its per-axis block as (p, c, v)."""
    (p, _, c, _), _, (_, _, v, _), _ = track.covariance.tolist()
    return (track.id, track.footprint, track.state.tobytes(), _bits(p, c, v),
            _bits(track.last_update), _bits(track.last_heading))


def _filter_bits(f: _Filter):
    return (f.id, f.footprint, _bits(f.x, f.y, f.vx, f.vy), _bits(f.p, f.c, f.v),
            _bits(f.last_update), _bits(f.last_heading))


@st.composite
def observation_streams(draw):
    """Steps (time, observations) of three constant-velocity targets.  All
    are seen first (spawns); A and B start within one gate of each other;
    A is missed at the second step (a coast); C, 30 m from A and almost
    still, so that A and B (at most 2 m/s for at most 11.2 s) never come
    within a gate of it, is missed at a step that comes ``STALE_TIMEOUT`` +
    0.2 s or more after the one before (a stale drop) and seen at the next
    (a new spawn); any other observation may be missed."""
    n = draw(st.integers(6, 25))
    dts = draw(st.lists(st.floats(0.02, 0.4), min_size=n, max_size=n))
    seen = draw(st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()),
                         min_size=n, max_size=n))
    gap = draw(st.integers(2, n - 2))
    dts[gap] += STALE_TIMEOUT + 0.2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.uniform(-20.0, 20.0, 2)
    angle, apart = rng.uniform(-math.pi, math.pi), rng.uniform(0.2, 0.95 * GATE)
    away = rng.uniform(-math.pi, math.pi)
    starts = [a, a + apart * np.array([math.cos(angle), math.sin(angle)]),
              a + 30.0 * np.array([math.cos(away), math.sin(away)])]
    velocities = rng.uniform(-2.0, 2.0, (3, 2)) * np.array([[rng.choice([0.01, 1.0])],
                                                           [rng.choice([0.01, 1.0])], [0.01]])
    steps, t = [], 0.0
    for k in range(n):
        t += dts[k]
        visible = (True,) * 3 if k == 0 else seen[k]
        visible = (visible[0] and k != 1, visible[1], (visible[2] or k == gap + 1) and k != gap)
        observations = []
        for target in (i for i in range(3) if visible[i]):
            p = starts[target] + velocities[target] * t + rng.normal(0.0, 0.1, 2)
            observations.append(Observation((float(p[0]), float(p[1])), t, 0.01))
        steps.append((t, observations))
    return steps


class TestOracle:
    @settings(max_examples=150, deadline=None)
    @given(steps=observation_streams())
    def test_store_matches_record_filter(self, steps):
        """Stepped side by side through the same observations, the store's
        filters and the record-based filter's records hold bit-equal tracks
        (id, footprint, state, per-axis block, last update, last heading),
        and the covers predicted from the filters and from the records are
        bit-equal."""
        store, oracle = TrackStore(FP), OracleStore(FP)
        times = np.linspace(0.0, 3.0, 7)
        for now, observations in steps:
            store.step(observations, now)
            oracle.step(observations, now)
            assert [_filter_bits(f) for f in store.filters] == \
                [_record_bits(t) for t in oracle.tracks]
            for live, rec in zip(_predicted_obstacle_circles(store.filters, times, now),
                                 _predicted_obstacle_circles(oracle.tracks, times, now),
                                 strict=True):
                assert _bits(live.anchor_x, live.anchor_y, live.centers) == \
                    _bits(rec.anchor_x, rec.anchor_y, rec.centers)
        assert oracle.dropped >= 1 and oracle.next_id > 3


def _dynamic_arch_openblas() -> bool:
    """Whether numpy's BLAS is an OpenBLAS that picks its kernel at run time,
    the only kind that ``OPENBLAS_CORETYPE`` steers."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 has no mode
        return False
    return ("openblas" in blas.get("name", "").lower()
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


_TRACKER_RUN = """
import hashlib, sys
import numpy as np
from kinoplan.tracking import Observation, TrackStore
rng = np.random.default_rng(7)
store, t, digest = TrackStore(), 0.0, hashlib.sha256()
for _ in range(200):
    t += float(rng.uniform(0.05, 0.2))
    observations = []
    for i, (vx, vy) in enumerate(((1.0, 0.5), (-0.7, 0.2))):
        p = np.array([10.0 * i + vx * t, vy * t]) + rng.normal(0.0, 0.05, 2)
        observations.append(Observation((float(p[0]), float(p[1])), t, 0.05**2))
    store.step(observations, t)
    for f in store.filters:
        digest.update(np.array([f.x, f.y, f.vx, f.vy, f.p, f.c, f.v]).tobytes())
print(len(store.filters), digest.hexdigest())
"""


class TestBlasKernel:
    @pytest.mark.skipif(not _dynamic_arch_openblas(),
                        reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
    def test_tracker_bits_independent_of_blas_kernel(self):
        """A 200-step run with noisy observations gives the same state and
        covariance bytes under an FMA kernel (Haswell) and under one without
        (Prescott)."""
        src = str(Path(kinoplan.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        outputs = []
        for core in ("Haswell", "Prescott"):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE=core)
            run = subprocess.run([sys.executable, "-c", _TRACKER_RUN], env=env,
                                 capture_output=True, text=True)
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout)
        assert outputs[0].startswith("2 ") and outputs[0] == outputs[1]


def _golden_traces_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "golden_traces.py"
    spec = importlib.util.spec_from_file_location("golden_traces", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGoldenTool:
    def test_event_lines_read_filters_as_records(self, scenario_runs):
        """``tools/golden_traces.py`` writes each track of the closed loop's
        events, which hold filter copies, as the record built from it: id,
        state, the 4x4 covariance row by row, last update and last heading.
        That layout keeps the event hashes comparable across trees."""
        event_lines = _golden_traces_tool()._event_lines
        events = scenario_runs[("overtake", 0)].events
        assert events and all(isinstance(tr, _Filter) for ev in events for tr in ev.tracks)
        want = [f"track {rec.id} " + " ".join("%.17g" % v for v in (
                    *rec.state, *rec.covariance.ravel(), rec.last_update, rec.last_heading))
                for rec in (record_of(tr) for ev in events for tr in ev.tracks)]
        assert want
        assert [line for line in event_lines(events) if line.startswith("track ")] == want
