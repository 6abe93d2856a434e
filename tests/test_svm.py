import json

import numpy as np
import pytest

import zvnav
from zvnav.core import ImuStream
from zvnav.svm import (
    NormStats,
    TrainingFailedError,
    build_windows,
    classify_stream,
    confusion_matrix,
    load_model,
    model_from_dict,
    model_to_dict,
    predict_batch,
    save_model,
    smooth,
    train,
)

from conftest import RUN, WALK


def lift(points):
    """Embed low-dimensional points into the 6K feature shape (K=1)."""
    points = np.atleast_2d(points)
    out = np.zeros((points.shape[0], 6))
    out[:, :points.shape[1]] = points
    return out


class TestBuildWindows:
    def make_stream(self, n, rate=125.0, seed=0):
        rng = np.random.default_rng(seed)
        t = np.arange(n) / rate
        return ImuStream(t, rng.normal(0, 1, (n, 3)) + [0, 0, 9.81], rng.normal(0, 1, (n, 3)))

    def test_single_window(self):
        w = build_windows(self.make_stream(125), 125, stride=125)
        assert w.shape == (1, 750)

    def test_two_disjoint_windows(self):
        w = build_windows(self.make_stream(250), 125, stride=125)
        assert w.shape == (2, 750)

    def test_interleaved_channel_order(self):
        s = self.make_stream(3)
        w = build_windows(s, 3, stride=1)[0]
        expect = np.concatenate([np.concatenate([s.accel[k], s.gyro[k]]) for k in range(3)])
        assert np.array_equal(w, expect)

    def test_constant_stream_normalizes_to_zero(self):
        n = 130
        t = np.arange(n) / 125.0
        accel = np.tile([1.0, 2.0, 3.0], (n, 1))
        gyro = np.tile([4.0, 5.0, 6.0], (n, 1))
        stream = ImuStream(t, accel, gyro)
        norm = NormStats(np.array([1., 2., 3., 4., 5., 6.]), np.ones(6))
        w = build_windows(stream, 125, stride=1, norm=norm)
        assert np.all(w == 0.0)

    def test_too_short_stream(self):
        with pytest.raises(ValueError):
            build_windows(self.make_stream(100), 125)

    def test_affine_change_of_units_invariant_after_zscore(self):
        # scaling and offsetting raw channels before computing stats leaves
        # the normalized features bit-comparable
        s = self.make_stream(260, seed=1)
        scaled = ImuStream(s.t, s.accel * 3.5 + 1.2, s.gyro * 0.25 - 0.7)
        norm_a = NormStats.from_streams([s])
        norm_b = NormStats.from_streams([scaled])
        wa = build_windows(s, 125, stride=30, norm=norm_a)
        wb = build_windows(scaled, 125, stride=30, norm=norm_b)
        assert np.max(np.abs(wa - wb)) < 1e-12


class TestTrain:
    def test_linearly_separable_clouds(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 0.3, (30, 2)) + [3, 0]
        b = rng.normal(0, 0.3, (30, 2)) + [-3, 0]
        X = lift(np.vstack([a, b]))
        y = np.array([0] * 30 + [1] * 30)
        model = train(X, y, kernel_width=0.5, c_reg=1.0)
        assert model.train_accuracy == 1.0

    def test_xor_with_rbf(self):
        X = lift([[0, 0], [1, 1], [0, 1], [1, 0]])
        y = np.array([0, 0, 1, 1])
        model = train(X, y, kernel_width=1.0, c_reg=10.0)
        assert model.train_accuracy == 1.0

    def test_simulated_walk_run_high_accuracy(self, binary_model, walk_calibration, run_calibration):
        assert binary_model.train_accuracy >= 0.99

    def test_dual_feasibility(self, binary_model):
        for p in binary_model.pairs:
            assert np.all(np.abs(p.alphas) <= binary_model.c_reg + 1e-9)
            assert abs(p.alphas.sum()) < 1e-6
            assert p.kkt_residual <= 1e-3

    def test_degenerate_identical_vectors(self):
        X = np.ones((10, 6))
        y = np.array([0] * 5 + [1] * 5)
        with pytest.raises(TrainingFailedError):
            train(X, y)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            train(np.zeros((4, 6)), np.zeros(4))

    def test_dimension_must_match_window_len(self):
        with pytest.raises(ValueError):
            train(np.zeros((4, 5)), np.array([0, 0, 1, 1]))
        with pytest.raises(ValueError):
            train(np.zeros((4, 12)), np.array([0, 0, 1, 1]), window_len=1)


class TestPredict:
    def test_support_vector_keeps_its_label(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 0.3, (20, 2)) + [2, 0]
        b = rng.normal(0, 0.3, (20, 2)) + [-2, 0]
        X = lift(np.vstack([a, b]))
        y = np.array([3] * 20 + [5] * 20)
        model = train(X, y, kernel_width=0.5)
        sv = model.pairs[0].support_vectors[0]
        deep = lift([[2.0, 0.0]])[0]
        assert predict_batch(model, deep[None])[0] == 3
        assert predict_batch(model, sv[None])[0] in (3, 5)

    def test_boundary_tie_goes_to_smaller_label(self):
        # symmetric two-point problem: the midpoint has decision value 0
        X = lift([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([0, 1])
        model = train(X, y, kernel_width=1.0, c_reg=10.0)
        mid = lift([[0.0, 0.0]])[0]
        f = model.pairs[0].decision(mid[None, :], model.kernel_width)[0]
        assert abs(f) < 1e-9
        assert predict_batch(model, mid[None])[0] == 0

    def test_prediction_invariant_to_support_vector_permutation(self, binary_model):
        rng = np.random.default_rng(2)
        from dataclasses import replace
        pair = binary_model.pairs[0]
        perm = rng.permutation(pair.support_vectors.shape[0])
        shuffled = replace(pair, support_vectors=pair.support_vectors[perm],
                           alphas=pair.alphas[perm])
        model2 = replace(binary_model, pairs=(shuffled,))
        x = pair.support_vectors[:40]
        assert np.array_equal(predict_batch(binary_model, x), predict_batch(model2, x))

    def test_dimension_mismatch(self, binary_model):
        with pytest.raises(ValueError):
            predict_batch(binary_model, np.zeros(10)[None])[0]

    def test_held_out_accuracy_and_balance(self, six_class_model):
        model = six_class_model["model"]
        pred = predict_batch(model, six_class_model["x_test"])
        mat, mean_acc = confusion_matrix(pred, six_class_model["y_test"])
        assert mean_acc >= 0.90
        diag = np.diag(mat)
        assert np.max(np.abs(diag - mean_acc)) <= 0.10


class TestSmooth:
    def test_all_zero(self):
        assert smooth(np.zeros(50, int)).sum() == 0

    def test_three_ones_hit_threshold_exactly(self):
        raw = np.zeros(60, int)
        raw[20:23] = 1
        out = smooth(raw, window=15, threshold=0.2)
        # windows [i, i+15] holding all three ones average exactly 3/15 = 0.2,
        # and the tie resolves to the faster motion
        assert out[7] == 1 and out[8] == 1
        assert out[:7].sum() == 0

    def test_single_spurious_label_suppressed(self):
        raw = np.zeros(100, int)
        raw[50] = 1
        assert smooth(raw, window=15, threshold=0.2).sum() == 0

    def test_monotone_in_raw(self):
        rng = np.random.default_rng(3)
        raw = (rng.random(200) < 0.15).astype(int)
        base = smooth(raw)
        raw2 = raw.copy()
        zero_positions = np.flatnonzero(raw2 == 0)
        raw2[zero_positions[rng.integers(len(zero_positions))]] = 1
        bumped = smooth(raw2)
        assert np.all(bumped >= base)

    def test_transition_flips_within_window(self):
        raw = np.concatenate([np.zeros(100, int), np.ones(100, int)])
        out = smooth(raw, window=15, threshold=0.2)
        flip = int(np.argmax(out))
        assert abs(flip - 100) <= 15

    def test_validation(self):
        with pytest.raises(ValueError):
            smooth(np.array([0, 2, 1]))
        with pytest.raises(ValueError):
            smooth(np.zeros(5, int), window=0)


class TestConfusionMatrix:
    def test_perfect_prediction(self):
        y = np.array([0, 1, 2, 3, 4, 5] * 4)
        mat, acc = confusion_matrix(y, y)
        assert acc == 1.0
        assert np.allclose(np.diag(mat), 1.0)

    def test_half_mislabeled_one_way(self):
        truth = np.array([0] * 10 + [1] * 10)
        pred = truth.copy()
        pred[10:15] = 0
        mat, acc = confusion_matrix(pred, truth, classes=(0, 1))
        assert np.allclose(mat[0], [1.0, 0.0])
        assert np.allclose(mat[1], [0.5, 0.5])
        assert acc == pytest.approx(0.75)

    def test_absent_class_row_is_zero(self):
        truth = np.array([0, 0, 1])
        pred = np.array([0, 0, 1])
        mat, acc = confusion_matrix(pred, truth)
        assert mat[2:].sum() == 0
        assert acc == 1.0


class TestClassifyStream:
    def test_labels_align_to_window_end(self, binary_model, walk_calibration):
        stream, _ = walk_calibration
        labels = classify_stream(binary_model, stream[:1000])
        assert labels.raw.shape == (1000,)
        assert labels.smoothed.shape == (1000,)
        assert set(np.unique(labels.raw)) <= {WALK, RUN}
        # lead-in samples inherit the first decision
        assert (labels.raw[:124] == labels.raw[124]).all()

    def test_pure_walk_stays_walk(self, binary_model, walk_calibration):
        stream, _ = walk_calibration
        labels = classify_stream(binary_model, stream)
        assert np.mean(labels.smoothed == WALK) > 0.99


class TestSerialization:
    def test_round_trip_preserves_predictions(self, binary_model, tmp_path, walk_calibration):
        path = tmp_path / "model.json"
        save_model(binary_model, path)
        loaded = load_model(path)
        stream, _ = walk_calibration
        x = build_windows(stream[:500], 125, stride=40, norm=binary_model.norm_stats)
        assert np.array_equal(predict_batch(binary_model, x), predict_batch(loaded, x))
        assert loaded.classes == binary_model.classes
        assert loaded.window_len == binary_model.window_len

    def test_load_rejects_json_that_is_not_a_model(self, tmp_path):
        path = tmp_path / "markers.json"
        path.write_text(json.dumps({"markers": [], "loop_closure_m": 0.0}))
        with pytest.raises(ValueError, match=r"markers\.json: not an SVM model \(missing field 'pairs'\)"):
            load_model(path)
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match=r"markers\.json: not an SVM model"):
            load_model(path)

    def test_schema_fields(self, binary_model):
        data = model_to_dict(binary_model)
        assert set(data) == {"classes", "pairs", "kernel_width", "c_reg",
                             "norm_mean", "norm_std", "K"}
        assert set(data["pairs"][0]) == {"a", "b", "support_vectors", "alphas", "bias"}
        rebuilt = model_from_dict(data)
        assert rebuilt.kernel_width == binary_model.kernel_width
