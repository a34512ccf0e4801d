"""Constant-velocity Kalman tracking and multi-object bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinoplan.collision import FootprintSpec
from kinoplan.geometry import Pose
from kinoplan.tracking import (_H, Observation, ObstacleTrack, TrackerConfig,
                               TrackStore, _model, _process_noise, _transition,
                               associate, kf_predict, kf_update, predict_pose,
                               track_heading)

FP = FootprintSpec.from_dimensions(4.0, 2.0)


def make_track(state, t=0.0, var=1.0):
    return ObstacleTrack(id=0, state=np.asarray(state, dtype=float),
                         covariance=np.eye(4) * var, footprint=FP, last_update=t)


def obs(x, y, t, sigma=0.1):
    return Observation((x, y), t, np.eye(2) * sigma**2)


class TestObservation:
    def test_rejects_bad_noise(self):
        with pytest.raises(ValueError):
            Observation((0.0, 0.0), 0.0, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            Observation((0.0, 0.0), 0.0, np.eye(3))

    def test_rejects_asymmetric_noise(self):
        # Positive definite by its lower triangle alone, which is all an
        # eigenvalue routine for symmetric matrices reads.
        noise = np.array([[1.0, 5.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            Observation((0.0, 0.0), 0.0, noise)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_noise(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Observation((0.0, 0.0), 0.0, np.diag([bad, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            Observation((0.0, 0.0), 0.0, np.array([[1.0, bad], [bad, 1.0]]))

    @pytest.mark.parametrize("position", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
    def test_rejects_non_finite_position(self, position):
        with pytest.raises(ValueError, match="position"):
            Observation(position, 0.0, np.eye(2))

    @pytest.mark.parametrize("timestamp", [math.nan, math.inf])
    def test_rejects_non_finite_timestamp(self, timestamp):
        with pytest.raises(ValueError, match="timestamp"):
            Observation((0.0, 0.0), timestamp, np.eye(2))

    def test_rejects_indefinite_noise(self):
        with pytest.raises(ValueError):
            Observation((0.0, 0.0), 0.0, np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError):
            Observation((0.0, 0.0), 0.0, np.array([[-1.0, 0.0], [0.0, -1.0]]))

    def test_accepts_correlated_noise(self):
        noise = np.array([[0.02, 0.013], [0.013, 0.03]])
        assert np.array_equal(Observation((1.0, 2.0), 0.5, noise).noise, noise)


class TestPredict:
    def test_cv_translation(self):
        t = kf_predict(make_track([0.0, 0.0, 1.0, 0.0]), 2.0)
        assert t.state == pytest.approx([2.0, 0.0, 1.0, 0.0])

    def test_zero_dt_identity(self):
        t0 = make_track([1.0, 2.0, 0.5, -0.5])
        t1 = kf_predict(t0, 0.0)
        assert t1.state == pytest.approx(t0.state)
        assert np.trace(t1.covariance) == pytest.approx(np.trace(t0.covariance))

    def test_covariance_grows(self):
        t0 = make_track([0.0, 0.0, 0.0, 0.0])
        t1 = kf_predict(t0, 1.0, q=0.5)
        assert np.trace(t1.covariance) > np.trace(t0.covariance)

    def test_negative_dt(self):
        with pytest.raises(ValueError):
            kf_predict(make_track([0.0, 0.0, 0.0, 0.0]), -0.1)


def _bits(*arrays) -> bytes:
    return b"".join(np.asarray(a, dtype=float).tobytes() for a in arrays)


def _track_of(seed, var, heading):
    """A track with a random state and a random positive-definite covariance."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4))
    return ObstacleTrack(id=3, state=rng.normal(0.0, 5.0, 4),
                         covariance=a @ a.T + var * np.eye(4), footprint=FP,
                         last_update=1.25, last_heading=heading)


class TestCachedModel:
    def test_read_only(self):
        F, Q = _model(0.1, 0.5)
        for m in (F, Q):
            assert not m.flags.writeable
            with pytest.raises(ValueError):
                m[0, 0] = 7.0
        assert _model(0.1, 0.5)[0] is F

    @settings(max_examples=60, deadline=None)
    @given(dt=st.floats(0.0, 5.0), q=st.floats(1e-3, 10.0), seed=st.integers(0, 2**32 - 1),
           var=st.floats(0.01, 4.0))
    def test_predict_matches_fresh_matrices(self, dt, q, seed, var):
        """Bit for bit the formulas with F and Q built afresh, as before the cache."""
        track = _track_of(seed, var, 0.4)
        F = _transition(dt)
        cov = F @ track.covariance @ F.T + _process_noise(dt, q)
        want = (F @ track.state, 0.5 * (cov + cov.T))
        got = kf_predict(track, dt, q)
        assert _bits(got.state, got.covariance) == _bits(*want)
        assert (got.id, got.footprint, got.last_update, got.last_heading) == \
            (3, FP, track.last_update + dt, 0.4)

    @settings(max_examples=60, deadline=None)
    @given(dt=st.floats(0.0, 5.0), q=st.floats(1e-3, 10.0), seed=st.integers(0, 2**32 - 1),
           sigma=st.floats(0.01, 1.0), heading=st.floats(-3.0, 3.0))
    def test_update_matches_fresh_identity(self, dt, q, seed, sigma, heading):
        track = kf_predict(_track_of(seed, 1.0, heading), dt, q)
        o = obs(float(track.state[0]) + 0.3, float(track.state[1]) - 0.2, 9.0, sigma)
        S = _H @ track.covariance @ _H.T + o.noise
        K = track.covariance @ _H.T @ np.linalg.inv(S)
        state = track.state + K @ (np.asarray(o.position) - _H @ track.state)
        cov = (np.eye(4) - K @ _H) @ track.covariance
        want_heading = math.atan2(state[3], state[2]) if np.hypot(state[2], state[3]) > 0.1 \
            else heading
        got = kf_update(track, o)
        assert _bits(got.state, got.covariance) == _bits(state, 0.5 * (cov + cov.T))
        assert (got.id, got.footprint, got.last_update) == (3, FP, 9.0)
        assert _bits(got.last_heading) == _bits(want_heading)


class TestUpdate:
    def test_zero_innovation_keeps_position(self):
        t = make_track([3.0, 4.0, 1.0, 0.0])
        t2 = kf_update(t, obs(3.0, 4.0, 0.0))
        assert t2.state[:2] == pytest.approx([3.0, 4.0])

    def test_posterior_between_prior_and_measurement(self):
        t = make_track([0.0, 0.0, 0.0, 0.0])
        t2 = kf_update(t, obs(1.0, 0.0, 0.0))
        assert 0.0 < t2.state[0] < 1.0

    def test_covariance_shrinks(self):
        t = kf_predict(make_track([0.0, 0.0, 0.0, 0.0]), 1.0)
        t2 = kf_update(t, obs(0.0, 0.0, 1.0))
        assert np.trace(t2.covariance[:2, :2]) < np.trace(t.covariance[:2, :2])

    def test_rejects_indefinite_innovation(self):
        t = make_track([0.0, 0.0, 0.0, 0.0], var=-1.0)
        with pytest.raises(np.linalg.LinAlgError):
            kf_update(t, obs(0.0, 0.0, 0.0))

    def test_correlated_noise_keeps_covariance_symmetric(self):
        """Correlated noise couples the axes; the filter must keep passing its
        own symmetric innovation test, so rounding may not leave P asymmetric."""
        rng = np.random.default_rng(5)
        noise = np.array([[0.02, 0.013], [0.013, 0.03]])
        t = make_track([0.0, 0.0, 1.0, 0.3], var=2.0)
        for _ in range(200):
            t = kf_predict(t, float(rng.uniform(0.01, 0.7)))
            assert np.array_equal(t.covariance, t.covariance.T)
            z = t.state[:2] + rng.normal(0.0, 0.2, 2)
            t = kf_update(t, Observation((float(z[0]), float(z[1])), t.last_update, noise))

    def test_velocity_converges_for_stationary_target(self):
        t = make_track([0.0, 0.0, 1.5, -1.0], var=4.0)
        for k in range(50):
            t = kf_predict(t, 0.1)
            t = kf_update(t, obs(0.0, 0.0, t.last_update))
        assert t.speed < 0.05


class TestAssociate:
    def test_single_match(self):
        pairs, ut, uo = associate([make_track([0.0, 0.0, 0.0, 0.0])],
                                  [obs(0.5, 0.0, 0.0)], gate=2.0)
        assert pairs == [(0, 0)] and not ut and not uo

    def test_beyond_gate(self):
        pairs, ut, uo = associate([make_track([0.0, 0.0, 0.0, 0.0])],
                                  [obs(5.0, 0.0, 0.0)], gate=2.0)
        assert not pairs and ut == [0] and uo == [0]

    def test_two_unambiguous(self):
        tracks = [make_track([0.0, 0.0, 0.0, 0.0]), make_track([10.0, 0.0, 0.0, 0.0])]
        observations = [obs(9.8, 0.0, 0.0), obs(0.2, 0.0, 0.0)]
        pairs, ut, uo = associate(tracks, observations, gate=2.0)
        assert sorted(pairs) == [(0, 1), (1, 0)]


class TestPredictPose:
    def test_stationary(self):
        t = make_track([2.0, 3.0, 0.0, 0.0])
        for q in (0.0, 1.0, 5.0):
            pose, fp = predict_pose(t, q)
            assert (pose.x, pose.y) == pytest.approx((2.0, 3.0))
            assert fp is FP

    def test_cv_extrapolation(self):
        pose, _ = predict_pose(make_track([0.0, 0.0, 2.0, 0.0]), 3.0)
        assert (pose.x, pose.y, pose.theta) == pytest.approx((6.0, 0.0, 0.0))

    def test_collinear_predictions(self):
        t = make_track([1.0, -1.0, 0.7, 0.3])
        pts = np.array([predict_pose(t, q)[0].as_array()[:2]
                        for q in np.linspace(0.0, 5.0, 11)])
        d = np.diff(pts, axis=0)
        cross = d[:-1, 0] * d[1:, 1] - d[:-1, 1] * d[1:, 0]
        assert np.allclose(cross, 0.0, atol=1e-12)

    def test_slow_track_keeps_last_heading(self):
        t = ObstacleTrack(id=0, state=np.array([0.0, 0.0, 0.01, 0.0]),
                          covariance=np.eye(4), footprint=FP, last_update=0.0,
                          last_heading=1.2)
        pose, _ = predict_pose(t, 4.0)
        assert pose.theta == pytest.approx(1.2)

    @pytest.mark.parametrize("state,heading", [
        ([0.0, 0.0, -2.0, -0.0], 0.0),  # atan2 gives -pi; the pose wraps it to pi
        ([1.0, 2.0, 0.3, 0.9], 0.0),
        ([1.0, 2.0, 0.01, 0.0], 1.2),  # slow: the last heading
        ([1.0, 2.0, 0.0, 0.0], -math.pi),
        ([1.0, 2.0, 0.0, 0.0], 7.0),
    ])
    def test_track_heading_is_the_predicted_heading(self, state, heading):
        """The heading of the pose that ``predict_pose`` built before it called
        ``track_heading``, bit for bit."""
        t = ObstacleTrack(id=0, state=np.array(state), covariance=np.eye(4), footprint=FP,
                          last_update=2.0, last_heading=heading)
        raw = math.atan2(state[3], state[2]) if t.speed > 0.1 else heading
        assert _bits(track_heading(t)) == _bits(Pose(0.0, 0.0, raw).theta)
        assert _bits(predict_pose(t, 2.5)[0].theta) == _bits(track_heading(t))

    def test_past_query_rejected(self):
        with pytest.raises(ValueError):
            predict_pose(make_track([0.0, 0.0, 0.0, 0.0], t=5.0), 4.0)


class TestTrackStore:
    def test_spawn_match_count(self):
        store = TrackStore(TrackerConfig(default_footprint=FP))
        # Two obstacles separated far beyond 2x gate.
        for k in range(20):
            t = 0.1 * k
            store.step([obs(0.0 + 0.1 * t, 0.0, t), obs(20.0, 5.0, t)], t)
        assert len(store.tracks) == 2
        assert all(tr.footprint is FP for tr in store.tracks)

    def test_stale_tracks_dropped(self):
        store = TrackStore()
        store.step([obs(0.0, 0.0, 0.0)], 0.0)
        assert len(store.tracks) == 1
        store.step([], 2.0)  # beyond the 1 s staleness timeout
        assert len(store.tracks) == 0

    def test_velocity_estimation_accuracy(self):
        """CV target, sigma = 0.1 m at 10 Hz: velocity error < 0.1 m/s after
        3 s in at least 95 of 100 seeds.

        Uses q = 0.05: the target really is constant-velocity here, so the
        filter gets a matched process noise (the larger default q keeps the
        tracker responsive to maneuvers at the cost of steady-state accuracy).
        """
        passed = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            store = TrackStore(TrackerConfig(q=0.05, default_footprint=FP))
            vx, vy = 1.0, 0.5
            for k in range(31):
                t = 0.1 * k
                p = np.array([vx * t, vy * t]) + rng.normal(0.0, 0.1, 2)
                store.step([Observation((p[0], p[1]), t, np.eye(2) * 0.01)], t)
            est = store.tracks[0].velocity
            if math.hypot(est[0] - vx, est[1] - vy) < 0.1:
                passed += 1
        assert passed >= 95
