import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import zvnav
from zvnav.core import GRAVITY, ImuStream
from zvnav.detector import (
    AdaptiveParams,
    DetectorParams,
    detect,
    detect_adaptive,
    per_sample_statistics,
    shoe_statistic,
    shoe_statistics,
)


def stream_of(accel_rows, gyro_rows, rate=125.0):
    n = len(accel_rows)
    t = np.arange(n) / rate
    return ImuStream(t, np.asarray(accel_rows, float), np.asarray(gyro_rows, float), rate)


def stance_window(n=5):
    return stream_of([[0.0, 0.0, GRAVITY]] * n, [[0.0, 0.0, 0.0]] * n)


class TestShoeStatistic:
    def test_perfect_stance_is_zero(self):
        assert shoe_statistic(stance_window(), DetectorParams()) == 0.0

    def test_pure_angular_rate_value(self):
        w = stream_of([[0.0, 0.0, GRAVITY]] * 5, [[0.1, 0.0, 0.0]] * 5)
        expect = 0.1**2 / 0.00174**2  # per-sample gyro energy, identical each sample
        got = shoe_statistic(w, DetectorParams())
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(3302.9, abs=0.1)

    def test_mid_swing_statistic_is_large(self):
        stream, truth = zvnav.simulate(zvnav.gait_preset("walk", duration=10.0), zvnav.NoiseModel(seed=0))
        stats = shoe_statistics(stream, DetectorParams())
        # the window centred in each swing phase
        moving = ~truth.stance
        edges = np.flatnonzero(np.diff(moving.astype(int)))
        starts = edges[moving[edges + 1]] + 1
        ends = edges[~moving[edges + 1]] + 1
        centers = []
        for s in starts:
            e = ends[ends > s]
            if e.size:
                centers.append((s + e[0]) // 2 - 2)
        assert centers
        assert min(stats[c] for c in centers if c < len(stats)) > 1e6

    def test_wrong_window_length_rejected(self):
        with pytest.raises(ValueError):
            shoe_statistic(stance_window(4), DetectorParams())

    def test_degenerate_window_is_infinite(self):
        w = stream_of([[0.0, 0.0, 0.0]] * 5, [[0.0, 0.0, 0.0]] * 5)
        assert shoe_statistic(w, DetectorParams()) == np.inf

    @settings(max_examples=100, deadline=None)
    @given(accel=arrays(np.float64, (5, 3), elements=st.floats(-20.0, 20.0)),
           gyro=arrays(np.float64, (5, 3), elements=st.floats(-10.0, 10.0)),
           phi=arrays(np.float64, 3, elements=st.floats(-4.0, 4.0)))
    def test_rotation_invariance(self, accel, gyro, phi):
        accel = accel + [0, 0, GRAVITY]
        # the gravity direction is the window-mean accel; keep it well defined
        assume(np.linalg.norm(accel.mean(axis=0)) > 1.0)
        base = shoe_statistic(stream_of(accel, gyro), DetectorParams())
        R = zvnav.quat_to_rotation(zvnav.Quaternion.from_rotvec(phi))
        rotated = shoe_statistic(stream_of(accel @ R.T, gyro @ R.T), DetectorParams())
        assert rotated == pytest.approx(base, abs=1e-9 * max(base, 1.0))

    def test_sigma_scaling(self):
        rng = np.random.default_rng(2)
        accel = rng.normal(0, 3, (5, 3)) + [0, 0, GRAVITY]
        gyro = np.zeros((5, 3))
        base = shoe_statistic(stream_of(accel, gyro), DetectorParams())
        doubled = shoe_statistic(stream_of(accel, gyro),
                                 DetectorParams(sigma_a=2 * DetectorParams().sigma_a))
        assert doubled == pytest.approx(base / 4.0, rel=1e-12)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            DetectorParams(W=1)
        with pytest.raises(ValueError):
            DetectorParams(sigma_a=0.0)
        with pytest.raises(ValueError):
            DetectorParams(gamma=-1.0)


class TestDetect:
    def test_stationary_stream_all_true(self):
        s = stance_window(50)
        assert detect(s, DetectorParams(gamma=1e-6)).all()

    def test_stream_shorter_than_window(self):
        with pytest.raises(ValueError):
            detect(stance_window(3), DetectorParams())

    def test_detection_count_monotone_in_gamma(self):
        stream, _ = zvnav.simulate(zvnav.gait_preset("walk", duration=10.0), zvnav.NoiseModel(seed=3))
        counts = []
        prev = None
        for gamma in np.logspace(2, 8, 25):
            flags = detect(stream, DetectorParams(gamma=gamma))
            counts.append(flags.sum())
            if prev is not None:
                # detection sets are nested, not merely growing in count
                assert (prev <= flags).all()
            prev = flags
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_trailing_samples_reuse_last_window(self):
        stream, _ = zvnav.simulate(zvnav.gait_preset("walk", duration=4.0), zvnav.NoiseModel(seed=4))
        params = DetectorParams(gamma=1e5)
        flags = detect(stream, params)
        assert (flags[-4:] == flags[-5]).all()

    def test_reference_walk_threshold_accuracy(self):
        # subject-mean walking threshold on a synthetic walk trial
        stream, truth = zvnav.simulate(zvnav.gait_preset("walk", duration=60.0), zvnav.NoiseModel(seed=7))
        flags = detect(stream, DetectorParams(gamma=0.96e5))
        assert np.mean(flags == truth.stance) >= 0.95


class TestDetectAdaptive:
    def test_constant_labels_match_fixed(self):
        stream, _ = zvnav.simulate(zvnav.gait_preset("walk", duration=6.0), zvnav.NoiseModel(seed=5))
        ap = AdaptiveParams(gamma_walk=1e4, gamma_run=1e6)
        params = DetectorParams()
        walk_like = detect_adaptive(stream, np.zeros(len(stream), int), params, ap)
        run_like = detect_adaptive(stream, np.ones(len(stream), int), params, ap)
        from dataclasses import replace
        assert np.array_equal(walk_like, detect(stream, replace(params, gamma=1e4)))
        assert np.array_equal(run_like, detect(stream, replace(params, gamma=1e6)))

    def test_switching_is_exact_per_sample(self):
        stream, _ = zvnav.simulate(zvnav.gait_preset("run", duration=6.0), zvnav.NoiseModel(seed=6))
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, len(stream))
        ap = AdaptiveParams(gamma_walk=3e5, gamma_run=3e6)
        from dataclasses import replace
        params = DetectorParams()
        adaptive = detect_adaptive(stream, labels, params, ap)
        fixed_walk = detect(stream, replace(params, gamma=ap.gamma_walk))
        fixed_run = detect(stream, replace(params, gamma=ap.gamma_run))
        expected = np.where(labels == 1, fixed_run, fixed_walk)
        assert np.array_equal(adaptive, expected)

    def test_invalid_labels_rejected(self):
        stream, _ = zvnav.simulate(zvnav.gait_preset("walk", duration=2.0), zvnav.NoiseModel(seed=7))
        with pytest.raises(ValueError):
            detect_adaptive(stream, np.full(len(stream), 2), DetectorParams(), AdaptiveParams())
        with pytest.raises(ValueError):
            detect_adaptive(stream, np.zeros(5), DetectorParams(), AdaptiveParams())

    def test_inverted_thresholds_warn(self):
        with pytest.warns(UserWarning):
            AdaptiveParams(gamma_walk=1e6, gamma_run=1e5)


class TestPerSampleStatistics:
    def test_matches_single_window_evaluation(self):
        stream, _ = zvnav.simulate(zvnav.gait_preset("walk", duration=3.0), zvnav.NoiseModel(seed=8))
        params = DetectorParams()
        stats = shoe_statistics(stream, params)
        for n in (0, 17, 100, len(stats) - 1):
            direct = shoe_statistic(stream[n:n + params.W], params)
            assert stats[n] == pytest.approx(direct, rel=1e-12, abs=1e-12)
        ps = per_sample_statistics(stream, params)
        assert ps.shape == (len(stream),)
        assert (ps[-4:] == stats[-1]).all()
