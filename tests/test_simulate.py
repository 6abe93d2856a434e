import math
from dataclasses import replace

import numpy as np
import pytest

from zvnav.core import GRAVITY
from zvnav.detector import DetectorParams, shoe_statistics
from zvnav.ekf import EkfConfig, run_ins
from zvnav.simulate import (
    CLASS_IDS,
    CLASS_NAMES,
    NoiseModel,
    gait_preset,
    simulate,
)

ZERO_NOISE = NoiseModel(accel_noise_std=0.0, gyro_noise_std=0.0, seed=0)


class TestProfiles:
    def test_presets_cover_all_classes(self):
        for name in CLASS_NAMES:
            p = gait_preset(name)
            assert p.class_id == CLASS_IDS[name]

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            gait_preset("moonwalk")

    def test_validation(self):
        with pytest.raises(ValueError):
            replace(gait_preset("walk"), stance_fraction=1.0)
        with pytest.raises(ValueError):
            replace(gait_preset("walk"), cadence=0.0)

    def test_cycle_kinematics(self):
        p = gait_preset("walk")
        assert p.cycle_period == pytest.approx(2.0 / 1.8)
        assert p.advance_per_cycle == pytest.approx(1.4)


class TestSimulateTruth:
    def test_stance_samples_are_exactly_still(self):
        stream, truth = simulate([(gait_preset("walk"), 10.0)], ZERO_NOISE)
        assert np.all(truth.vel[truth.stance] == 0.0)
        # measured specific force during walking stance is exactly gravity
        assert np.allclose(stream.accel[truth.stance], [0.0, 0.0, GRAVITY], atol=1e-12)
        assert np.allclose(stream.gyro[truth.stance], 0.0, atol=1e-12)

    def test_velocity_integrates_to_position(self):
        # trapezoid quadrature of the analytic velocity at a fine rate
        _, truth = simulate([(gait_preset("walk"), 60.0)], ZERO_NOISE, rate_hz=2000.0)
        dt = np.diff(truth.t)[:, None]
        integrated = truth.pos[0] + np.cumsum(0.5 * (truth.vel[1:] + truth.vel[:-1]) * dt, axis=0)
        err = np.max(np.linalg.norm(integrated - truth.pos[1:], axis=1))
        assert err < 1e-6

    def test_stance_fraction_matches_profile(self):
        for name in ("walk", "run"):
            p = gait_preset(name)
            _, truth = simulate([(p, 40.0)], ZERO_NOISE)
            assert np.mean(truth.stance) == pytest.approx(p.stance_fraction, abs=0.01)

    def test_path_advances_along_heading(self):
        heading = 0.7
        _, truth = simulate([(gait_preset("walk", heading=heading), 20.0)], ZERO_NOISE)
        direction = truth.pos[-1][:2]
        assert math.atan2(direction[1], direction[0]) == pytest.approx(heading, abs=1e-6)

    def test_deterministic_under_seed(self):
        a_stream, a_truth = simulate([(gait_preset("run"), 5.0)], NoiseModel(seed=42))
        b_stream, b_truth = simulate([(gait_preset("run"), 5.0)], NoiseModel(seed=42))
        assert np.array_equal(a_stream.accel, b_stream.accel)
        assert np.array_equal(a_stream.gyro, b_stream.gyro)
        assert np.array_equal(a_truth.pos, b_truth.pos)
        c_stream, _ = simulate([(gait_preset("run"), 5.0)], NoiseModel(seed=43))
        assert not np.array_equal(a_stream.accel, c_stream.accel)

    def test_duration_and_rate(self):
        stream, truth = simulate([(gait_preset("walk"), 4.0)], ZERO_NOISE, rate_hz=200.0)
        assert len(stream) == 800
        assert np.array_equal(stream.t, np.arange(800) / 200.0)
        with pytest.raises(ValueError):
            simulate([(gait_preset("walk"), 0.001)], ZERO_NOISE, rate_hz=125.0)


class TestPiecewise:
    def test_walk_then_run_flips_once_at_stance_midpoint(self):
        segments = [
            (gait_preset("walk"), 10.0),
            (gait_preset("run"), 10.0),
        ]
        _, truth = simulate(segments, NoiseModel(seed=2))
        flips = np.flatnonzero(np.diff(truth.labels))
        assert len(flips) == 1
        assert len(truth.transitions) == 1
        k = np.searchsorted(truth.stride_mid_times, truth.transitions[0])
        assert truth.stride_mid_times[k] == pytest.approx(truth.transitions[0])
        # the transition instant lies inside a stance phase
        i = np.searchsorted(truth.t, truth.transitions[0])
        assert truth.stance[min(i, len(truth.stance) - 1)]

    def test_alternating_segments_transition_during_stance(self):
        segments = [(gait_preset("walk"), 8.0), (gait_preset("run"), 8.0)] * 3
        _, truth = simulate(segments, NoiseModel(seed=3))
        assert len(truth.transitions) == 5
        for tt in truth.transitions:
            i = np.searchsorted(truth.t, tt)
            assert truth.stance[min(i, len(truth.stance) - 1)]

    def test_segment_validation(self):
        with pytest.raises(ValueError, match="need at least one segment"):
            simulate([])
        with pytest.raises(ValueError, match="segment duration must be positive and finite"):
            simulate([(gait_preset("walk"), 10.0), (gait_preset("run"), -1.0)])


class TestMeasurementRealism:
    @pytest.mark.parametrize("name,margin", [("walk", 100.0), ("run", 2.0), ("sprint", 2.0)])
    def test_stance_vs_swing_statistic_separation(self, name, margin):
        # quiet walking stance sits two decades below the swing; the faster
        # classes carry midstance tremor by design (that is what defeats a
        # walking-grade threshold), so for them the usable guarantee is a
        # strict gap, not two decades
        params = DetectorParams()
        stream, truth = simulate([(gait_preset(name), 30.0)], NoiseModel(seed=11))
        stats = shoe_statistics(stream, params)
        w = params.window
        all_stance = np.array([truth.stance[i:i + w].all() for i in range(len(stats))])
        all_swing = np.array([(~truth.stance[i:i + w]).all() for i in range(len(stats))])
        assert stats[all_stance].max() * margin <= stats[all_swing].min()

    def test_running_stance_is_not_sensor_still(self):
        stream, truth = simulate([(gait_preset("run"), 20.0)], ZERO_NOISE)
        stance_gyro = np.linalg.norm(stream.gyro[truth.stance], axis=1)
        assert stance_gyro.max() > 1.0
        assert np.all(truth.vel[truth.stance] == 0.0)

    def test_walk_run_windows_separable_by_svm(self, binary_model):
        assert binary_model.train_accuracy >= 0.99

    def test_turns_preserve_ins_consistency(self):
        # a 90-degree turn integrates cleanly with oracle stance flags
        segments = [
            (gait_preset("walk", heading=0.0), 15.0),
            (gait_preset("walk", heading=math.pi / 2), 15.0),
        ]
        stream, truth = simulate(segments, ZERO_NOISE, rate_hz=250.0)
        traj = run_ins(stream, truth.stance, EkfConfig())
        err = np.linalg.norm(traj.pos[-1, :2] - truth.pos[-1, :2])
        assert err < 0.005 * truth.path_length()
