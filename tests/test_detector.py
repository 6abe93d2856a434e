import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zvnav.core import GRAVITY, ImuStream, Quaternion, quat_to_rotation
from zvnav.detector import (
    AdaptiveParams,
    DetectorParams,
    detect,
    detect_adaptive,
    per_sample_statistics,
    shoe_statistics,
)
from zvnav.simulate import NoiseModel, gait_preset, simulate


def stream_of(accel_rows, gyro_rows, rate=125.0):
    n = len(accel_rows)
    t = np.arange(n) / rate
    return ImuStream(t, np.asarray(accel_rows, float), np.asarray(gyro_rows, float))


def stance_window(n=5):
    return stream_of([[0.0, 0.0, GRAVITY]] * n, [[0.0, 0.0, 0.0]] * n)


class TestShoeStatistic:
    def test_perfect_stance_is_zero(self):
        assert shoe_statistics(stance_window(), DetectorParams())[0] == 0.0

    def test_pure_angular_rate_value(self):
        w = stream_of([[0.0, 0.0, GRAVITY]] * 5, [[0.1, 0.0, 0.0]] * 5)
        expect = 0.1**2 / 0.00174**2  # per-sample gyro energy, identical each sample
        got = shoe_statistics(w, DetectorParams())[0]
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(3302.9, abs=0.1)

    def test_mid_swing_statistic_is_large(self):
        stream, truth = simulate([(gait_preset("walk"), 10.0)], NoiseModel(seed=0))
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

    def test_degenerate_window_is_infinite(self):
        w = stream_of([[0.0, 0.0, 0.0]] * 5, [[0.0, 0.0, 0.0]] * 5)
        assert shoe_statistics(w, DetectorParams())[0] == np.inf

    @settings(max_examples=100, deadline=None)
    @given(accel=arrays(np.float64, (5, 3), elements=st.floats(-20.0, 20.0)),
           gyro=arrays(np.float64, (5, 3), elements=st.floats(-10.0, 10.0)),
           phi=arrays(np.float64, 3, elements=st.floats(-4.0, 4.0)))
    def test_rotation_invariance(self, accel, gyro, phi):
        accel = accel + [0, 0, GRAVITY]
        # the gravity direction is the window-mean accel; keep it well defined
        assume(np.linalg.norm(accel.mean(axis=0)) > 1.0)
        base = shoe_statistics(stream_of(accel, gyro), DetectorParams())[0]
        R = quat_to_rotation(Quaternion.from_rotvec(phi))
        rotated = shoe_statistics(stream_of(accel @ R.T, gyro @ R.T), DetectorParams())[0]
        assert rotated == pytest.approx(base, abs=1e-9 * max(base, 1.0))

    def test_sigma_scaling(self):
        rng = np.random.default_rng(2)
        accel = rng.normal(0, 3, (5, 3)) + [0, 0, GRAVITY]
        gyro = np.zeros((5, 3))
        base = shoe_statistics(stream_of(accel, gyro), DetectorParams())[0]
        doubled = shoe_statistics(stream_of(accel, gyro),
                                  DetectorParams(sigma_a=2 * DetectorParams().sigma_a))[0]
        assert doubled == pytest.approx(base / 4.0, rel=1e-12)

    @pytest.mark.parametrize("name", ["sigma_a", "sigma_w"])
    def test_rejects_a_sigma_whose_square_leaves_the_float_range(self, name):
        DetectorParams(**{name: 1e154})
        DetectorParams(**{name: 1e-160})
        for value in (1e155, 1e-170):
            with pytest.raises(ValueError) as info:
                DetectorParams(**{name: value})
            assert str(info.value) == f"{name} = {value:g} is out of range: its square is 0 or inf"

    def test_param_validation(self):
        with pytest.raises(ValueError):
            DetectorParams(window=1)
        with pytest.raises(ValueError):
            DetectorParams(sigma_a=0.0)
        with pytest.raises(ValueError):
            detect(stance_window(50), DetectorParams(), -1.0)

    def test_the_threshold_is_not_a_setting(self):
        # detect takes gamma as an argument; the settings hold only the statistic's weights
        assert [f.name for f in dataclasses.fields(DetectorParams)] == [
            "window", "sigma_a", "sigma_w", "gravity"]


class TestDetect:
    def test_stationary_stream_all_true(self):
        s = stance_window(50)
        assert detect(s, DetectorParams(), 1e-6).all()

    def test_stream_shorter_than_window(self):
        with pytest.raises(ValueError):
            detect(stance_window(3), DetectorParams(), 1e5)

    def test_detection_count_monotone_in_gamma(self):
        stream, _ = simulate([(gait_preset("walk"), 10.0)], NoiseModel(seed=3))
        counts = []
        prev = None
        for gamma in np.logspace(2, 8, 25):
            flags = detect(stream, DetectorParams(), gamma)
            counts.append(flags.sum())
            if prev is not None:
                # detection sets are nested, not merely growing in count
                assert (prev <= flags).all()
            prev = flags
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_trailing_samples_reuse_last_window(self):
        stream, _ = simulate([(gait_preset("walk"), 4.0)], NoiseModel(seed=4))
        flags = detect(stream, DetectorParams(), 1e5)
        assert (flags[-4:] == flags[-5]).all()

    @pytest.mark.parametrize("shape", [(49,), (51,), (50, 1), (1, 50)])
    def test_rejects_a_threshold_of_another_shape(self, shape):
        with pytest.raises(ValueError) as info:
            detect(stance_window(50), DetectorParams(), np.full(shape, 1e5))
        assert str(info.value) == f"gamma of shape {shape} is not one threshold or one per sample"

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0, np.inf])
    def test_rejects_a_per_sample_threshold_not_positive_and_finite(self, bad):
        gamma = np.full(50, 1e5)
        gamma[17] = bad
        with pytest.raises(ValueError) as info:
            detect(stance_window(50), DetectorParams(), gamma)
        assert str(info.value) == "gamma must be positive and finite"

    def test_reference_walk_threshold_accuracy(self):
        # subject-mean walking threshold on a synthetic walk trial
        stream, truth = simulate([(gait_preset("walk"), 60.0)], NoiseModel(seed=7))
        flags = detect(stream, DetectorParams(), 0.96e5)
        assert np.mean(flags == truth.stance) >= 0.95


class TestDetectAdaptive:
    def test_constant_labels_match_fixed(self):
        stream, _ = simulate([(gait_preset("walk"), 6.0)], NoiseModel(seed=5))
        ap = AdaptiveParams(gamma_walk=1e4, gamma_run=1e6)
        params = DetectorParams()
        walk_like = detect_adaptive(stream, np.zeros(len(stream), int), params, ap)
        run_like = detect_adaptive(stream, np.ones(len(stream), int), params, ap)
        assert np.array_equal(walk_like, detect(stream, params, 1e4))
        assert np.array_equal(run_like, detect(stream, params, 1e6))

    def test_switching_is_exact_per_sample(self):
        stream, _ = simulate([(gait_preset("run"), 6.0)], NoiseModel(seed=6))
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, len(stream))
        ap = AdaptiveParams(gamma_walk=3e5, gamma_run=3e6)
        params = DetectorParams()
        adaptive = detect_adaptive(stream, labels, params, ap)
        fixed_walk = detect(stream, params, ap.gamma_walk)
        fixed_run = detect(stream, params, ap.gamma_run)
        expected = np.where(labels == 1, fixed_run, fixed_walk)
        assert np.array_equal(adaptive, expected)

    def test_invalid_labels_rejected(self):
        stream, _ = simulate([(gait_preset("walk"), 2.0)], NoiseModel(seed=7))
        with pytest.raises(ValueError):
            detect_adaptive(stream, np.full(len(stream), 2), DetectorParams(), AdaptiveParams())
        with pytest.raises(ValueError):
            detect_adaptive(stream, np.zeros(5), DetectorParams(), AdaptiveParams())

    def test_inverted_thresholds_warn(self):
        with pytest.warns(UserWarning, match="gamma_walk >= gamma_run") as record:
            AdaptiveParams(gamma_walk=1e6, gamma_run=1e5)
        assert record[0].filename == __file__  # the caller, not the generated __init__


class TestPerSampleStatistics:
    def test_matches_single_window_evaluation(self):
        stream, _ = simulate([(gait_preset("walk"), 3.0)], NoiseModel(seed=8))
        params = DetectorParams()
        stats = shoe_statistics(stream, params)
        for n in (0, 17, 100, len(stats) - 1):
            direct = shoe_statistics(stream[n:n + params.window], params)[0]
            assert stats[n] == pytest.approx(direct, rel=1e-12, abs=1e-12)
        ps = per_sample_statistics(stream, params)
        assert ps.shape == (len(stream),)
        assert (ps[-4:] == stats[-1]).all()


WALK, _ = simulate([(gait_preset("walk"), 2.0)], NoiseModel(seed=9))


@settings(max_examples=40, deadline=None)
@given(exponents=arrays(np.float64, len(WALK), elements=st.floats(2.0, 8.0)),
       exponent=st.floats(2.0, 8.0))
def test_a_per_sample_threshold_is_compared_sample_by_sample(exponents, exponent):
    params = DetectorParams()
    gamma = 10.0 ** exponents
    assert np.array_equal(detect(WALK, params, gamma), per_sample_statistics(WALK, params) < gamma)
    constant = np.full(len(WALK), 10.0 ** exponent)
    assert np.array_equal(detect(WALK, params, constant), detect(WALK, params, 10.0 ** exponent))
