import numpy as np
import pytest

from zvnav.core import ImuStream
from zvnav.detector import DetectorParams, per_sample_statistics
from zvnav.optimize import (
    FBetaConfig,
    MocapStream,
    OptimizationFailedError,
    RUN_BETA_SQ,
    UndefinedRecallError,
    WALK_BETA_SQ,
    align_labels,
    default_gamma_grid,
    f_beta,
    label_zero_velocity,
    optimize_gamma,
)
from zvnav.simulate import NoiseModel, gait_preset, simulate

from conftest import mocap_of


def precision_recall(pred, truth) -> tuple[float, float]:
    """Precision and recall with "stationary" as the positive class, counted
    sample by sample: the reference that ``optimize_gamma``'s sorted sweep
    must reproduce.

    Precision is 1 by convention when nothing was predicted positive.
    """
    pred = np.asarray(pred, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if pred.shape != truth.shape:
        raise ValueError("pred and truth must have equal length")
    n_pos = int(truth.sum())
    if n_pos == 0:
        raise UndefinedRecallError("ground truth contains no stationary samples")
    tp = int((pred & truth).sum())
    fp = int((pred & ~truth).sum())
    precision = tp / (tp + fp) if (tp + fp) > 0 else 1.0
    recall = tp / n_pos
    return precision, recall


class TestLabelZeroVelocity:
    def test_constant_position_all_stationary(self):
        t = np.arange(20) / 100.0
        mocap = MocapStream(t, np.ones((20, 3)))
        labels = label_zero_velocity(mocap, 0.1)
        assert labels.all()

    def test_constant_velocity_all_moving(self):
        t = np.arange(20) / 100.0
        pos = np.outer(t, [1.0, 0.0, 0.0])
        labels = label_zero_velocity(MocapStream(t, pos), 0.1)
        assert not labels.any()

    def test_central_difference_on_known_ramp(self):
        # speed crosses the threshold exactly where the quadratic derivative does
        t = np.arange(50) / 100.0
        pos = np.zeros((50, 3))
        pos[:, 0] = 0.5 * 0.4 * t**2  # accel 0.4, speed 0.4 t
        labels = label_zero_velocity(MocapStream(t, pos), 0.1)
        crossing = 0.1 / 0.4
        expect = (t < crossing)
        # central differences are exact for quadratics at interior points
        assert np.array_equal(labels[1:-1], expect[1:-1])

    def test_simulator_stance_boundaries_match_speed_crossing(self):
        profile = gait_preset("walk")
        _, truth = simulate([(profile, 20.0)], NoiseModel(seed=0))
        labels = label_zero_velocity(MocapStream(truth.t, truth.pos, 125.0), 0.1)
        truth_edges = np.flatnonzero(np.diff(truth.stance.astype(int)))
        label_edges = np.flatnonzero(np.diff(labels.astype(int)))
        assert len(truth_edges) == len(label_edges)
        # the labels extend past the exact stance boundary for as long as the
        # swing speed stays below the threshold; solve the quintic speed
        # profile ramp for the crossing point and allow one sample of grid
        # quantization on top
        swing_time = profile.swing_time
        taus = np.linspace(0, 0.2, 20001)
        speed = 30.0 * taus**2 * (1 - taus) ** 2 * profile.advance_per_cycle / swing_time
        tau_cross = taus[np.searchsorted(speed, 0.1)]
        expected_offset = tau_cross * swing_time * 125.0
        assert np.max(np.abs(truth_edges - label_edges)) <= np.ceil(expected_offset) + 1

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            label_zero_velocity(MocapStream(np.array([0.0, 0.1]), np.zeros((2, 3))), 0.1)


def mocap_at(t):
    """Mocap samples at times ``t``; align_labels reads only their timestamps."""
    return MocapStream(t, np.zeros((len(t), 3)))


class TestAlignLabels:
    def test_identical_grids_identity(self):
        t = np.arange(10) / 125.0
        labels = np.arange(10) % 2 == 0
        stream = ImuStream(t, np.tile([0, 0, 9.81], (10, 1)), np.zeros((10, 3)))
        stationary, valid = align_labels(mocap_at(t), labels, stream)
        assert np.array_equal(stationary, labels)
        assert valid.all()

    def test_rate_mismatch_constant_label(self):
        lt = np.arange(50) / 100.0
        it = np.arange(40) / 125.0
        stream = ImuStream(it, np.tile([0, 0, 9.81], (40, 1)), np.zeros((40, 3)))
        stationary, valid = align_labels(mocap_at(lt), np.ones(50, bool), stream)
        assert stationary[valid].all()

    def test_nearest_neighbour_exhaustive(self):
        rng = np.random.default_rng(1)
        lt = np.sort(rng.uniform(0, 1, 30))
        lt += np.arange(30) * 1e-6  # enforce strict order
        values = rng.integers(0, 2, 30).astype(bool)
        it = np.arange(100) / 125.0
        it = it[(it >= 0) & (it <= 1)]
        stream = ImuStream(it, np.tile([0, 0, 9.81], (len(it), 1)), np.zeros((len(it), 3)))
        stationary, valid = align_labels(mocap_at(lt), values, stream)
        for k, ts in enumerate(it):
            if not valid[k]:
                continue
            nearest = np.argmin(np.abs(lt - ts))
            assert stationary[k] == values[nearest]

    def test_out_of_span_marked_invalid(self):
        lt = np.array([0.5, 0.6, 0.7])
        it = np.arange(125) / 125.0
        stream = ImuStream(it, np.tile([0, 0, 9.81], (125, 1)), np.zeros((125, 3)))
        _, valid = align_labels(mocap_at(lt), np.ones(3, bool), stream)
        assert not valid[it < 0.5].any()
        assert not valid[it > 0.7].any()
        assert valid[(it >= 0.5) & (it <= 0.7)].all()

    def test_one_flag_per_mocap_sample(self):
        it = np.arange(10) / 125.0
        stream = ImuStream(it, np.tile([0, 0, 9.81], (10, 1)), np.zeros((10, 3)))
        with pytest.raises(ValueError, match="one flag per mocap sample"):
            align_labels(mocap_at(it), np.ones(9, bool), stream)

    def test_empty_overlap(self):
        it = np.arange(10) / 125.0
        stream = ImuStream(it, np.tile([0, 0, 9.81], (10, 1)), np.zeros((10, 3)))
        with pytest.raises(ValueError):
            align_labels(mocap_at(np.array([10.0, 11.0])), np.ones(2, bool), stream)


class TestPrecisionRecall:
    def test_perfect_prediction(self):
        truth = np.array([True, False, True, False])
        assert precision_recall(truth, truth) == (1.0, 1.0)

    def test_all_positive_prediction(self):
        truth = np.array([True, True, False, False, False])
        p, r = precision_recall(np.ones(5, bool), truth)
        assert (p, r) == (0.4, 1.0)

    def test_empty_prediction_convention(self):
        truth = np.array([True, False])
        p, r = precision_recall(np.zeros(2, bool), truth)
        assert (p, r) == (1.0, 0.0)

    def test_counting(self):
        pred = np.array([True, True, False, True, False])
        truth = np.array([True, False, True, True, False])
        p, r = precision_recall(pred, truth)
        assert p == pytest.approx(2 / 3)
        assert r == pytest.approx(2 / 3)

    def test_no_positives_in_truth(self):
        with pytest.raises(UndefinedRecallError):
            precision_recall(np.ones(3, bool), np.zeros(3, bool))


class TestFBeta:
    def test_perfect_score(self):
        assert f_beta(1.0, 1.0, 0.16) == 1.0
        assert f_beta(1.0, 1.0, 0.4) == 1.0

    def test_collapses_when_equal(self):
        for x in (0.2, 0.5, 0.9):
            for b2 in (0.16, 0.4, 1.0, 2.0):
                assert f_beta(x, x, b2) == pytest.approx(x, abs=1e-12)

    def test_hand_computed_value(self):
        expect = (1 + 0.16) * 0.8 * 0.6 / (0.16 * 0.8 + 0.6)
        assert expect == pytest.approx(0.764835164835, abs=1e-12)
        assert f_beta(0.8, 0.6, 0.16) == pytest.approx(expect, abs=1e-12)

    def test_zero_case_and_validation(self):
        assert f_beta(0.0, 0.0, 0.16) == 0.0
        with pytest.raises(ValueError):
            f_beta(1.2, 0.5, 0.16)
        with pytest.raises(ValueError):
            f_beta(0.5, 0.5, 0.0)


class TestOptimizeGamma:
    def test_walk_trial_reaches_high_f_beta(self, walk_calibration, optimized_gammas):
        stream, truth = walk_calibration
        curve = optimized_gammas["curve_walk"]
        assert curve.f_beta.max() >= 0.95
        stats = per_sample_statistics(stream, DetectorParams())
        accuracy = np.mean((stats < optimized_gammas["walk"]) == truth.stance)
        assert accuracy >= 0.95

    def test_walk_threshold_below_run_threshold(self, optimized_gammas):
        assert optimized_gammas["walk"] < optimized_gammas["run"]

    def test_single_point_grid(self, walk_calibration):
        stream, truth = walk_calibration
        cfg = FBetaConfig(gamma_grid=np.array([1e5]))
        gamma, curve = optimize_gamma(stream, mocap_of(truth), DetectorParams(), cfg)
        assert gamma == 1e5
        assert len(curve) == 1

    def test_recall_monotone_along_grid(self, optimized_gammas):
        for key in ("curve_walk", "curve_run"):
            curve = optimized_gammas[key]
            assert (np.diff(curve.recall) >= -1e-15).all()
            assert ((curve.precision >= 0) & (curve.precision <= 1)).all()
            assert ((curve.f_beta >= 0) & (curve.f_beta <= 1)).all()

    def test_matches_reference_precision_recall_at_spot_gammas(self, walk_calibration):
        stream, truth = walk_calibration
        mocap = mocap_of(truth)
        cfg = FBetaConfig()
        gamma, curve = optimize_gamma(stream, mocap, DetectorParams(), cfg)
        labels = label_zero_velocity(mocap, cfg.speed_threshold)
        stationary, valid = align_labels(mocap, labels, stream)
        stats = per_sample_statistics(stream, DetectorParams())
        for i in (0, len(curve) // 2, len(curve) - 1):
            g = curve.gamma[i]
            pred = (stats < g)[valid]
            p, r = precision_recall(pred, stationary[valid])
            assert p == pytest.approx(curve.precision[i], abs=1e-12)
            assert r == pytest.approx(curve.recall[i], abs=1e-12)

    def test_curve_f_beta_is_the_public_f_beta(self, optimized_gammas):
        for key, beta_sq in (("curve_walk", WALK_BETA_SQ), ("curve_run", RUN_BETA_SQ)):
            curve = optimized_gammas[key]
            assert np.array_equal(curve.f_beta, f_beta(curve.precision, curve.recall, beta_sq))

    def test_smaller_beta_moves_operating_point_left(self, walk_calibration):
        # tested where the precondition (precision non-increasing) holds
        stream, truth = walk_calibration
        g_small, curve = optimize_gamma(stream, mocap_of(truth), DetectorParams(),
                                        FBetaConfig(beta_sq=0.16))
        assert (np.diff(curve.precision) <= 1e-12).all(), "precondition"
        g_large, _ = optimize_gamma(stream, mocap_of(truth), DetectorParams(),
                                    FBetaConfig(beta_sq=0.4))
        assert g_small <= g_large

    def test_deterministic(self, walk_calibration):
        stream, truth = walk_calibration
        a, _ = optimize_gamma(stream, mocap_of(truth), DetectorParams(), FBetaConfig())
        b, _ = optimize_gamma(stream, mocap_of(truth), DetectorParams(), FBetaConfig())
        assert a == b

    def test_no_stationary_truth_raises(self):
        t = np.arange(125) / 125.0
        pos = np.outer(t, [2.0, 0.0, 0.0])  # always faster than any threshold
        stream, _ = simulate([(gait_preset("walk"), 1.0)], NoiseModel(seed=2))
        with pytest.raises(UndefinedRecallError):
            optimize_gamma(stream, MocapStream(t, pos), DetectorParams(),
                           FBetaConfig(speed_threshold=0.01))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            FBetaConfig(gamma_grid=np.array([1e5, 1e4]))
        with pytest.raises(ValueError):
            FBetaConfig(beta_sq=-1.0)
        grid = default_gamma_grid()
        assert len(grid) == 300
        assert grid[0] == pytest.approx(1e2)
        assert grid[-1] == pytest.approx(1e8)
        assert len(default_gamma_grid(1)) == 1
        for points in (0, -3):
            with pytest.raises(ValueError, match=f"^grid points must be at least 1, not {points}$"):
                default_gamma_grid(points)


class TestOptimizationFailure:
    def test_all_zero_f_beta(self):
        # thresholds so small nothing is ever detected: recall 0 everywhere
        stream, truth = simulate([(gait_preset("walk"), 4.0)], NoiseModel(seed=3))
        mocap = MocapStream(truth.t, truth.pos, 125.0)
        cfg = FBetaConfig(gamma_grid=np.array([1e-9, 2e-9]))
        with pytest.raises(OptimizationFailedError):
            optimize_gamma(stream, mocap, DetectorParams(), cfg)
