import copy
import json
import math
import re
import tracemalloc
import warnings

from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zvnav import svm
from zvnav.core import ImuStream
from zvnav.simulate import NoiseModel, simulate
from zvnav.svm import (
    DECISION_STRIDE,
    KKT_TOLERANCE,
    LabelStream,
    NormStats,
    PairClassifier,
    SvmModel,
    TrainingFailedError,
    build_windows,
    classify_stream,
    load_model,
    model_from_dict,
    model_to_dict,
    predict_batch,
    rbf_kernel,
    save_model,
    smooth,
    train,
    _smo,
)

from conftest import RUN, WALK, confusion_matrix, mixed_segments, small_model_dict


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

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError, match="window_len must be at least 1"):
            build_windows(self.make_stream(10), 0)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_rows_are_normalized_samples_in_time_order(self, data):
        k = data.draw(st.integers(1, 12))
        n = data.draw(st.integers(k, 60))
        stride = data.draw(st.integers(1, 15))
        s = self.make_stream(n, seed=data.draw(st.integers(0, 1000)))
        norm = NormStats(np.arange(6.0), np.linspace(0.5, 3.0, 6))
        w = build_windows(s, k, stride=stride, norm=norm)
        starts = range(0, n - k + 1, stride)
        assert w.shape == (len(starts), 6 * k) and w.flags.c_contiguous
        samples = (np.hstack([s.accel, s.gyro]) - norm.mean) / norm.std
        for row, start in zip(w, starts):
            assert np.array_equal(row, samples[start:start + k].ravel())

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


def reference_kernel(a, b, kernel_width):
    """The whole-array kernel expression that rbf_kernel must reproduce bit for bit."""
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    np.maximum(sq, 0.0, out=sq)
    np.multiply(sq, -kernel_width, out=sq)
    return np.exp(sq, out=sq)


class TestRbfKernel:
    @settings(max_examples=60, deadline=None)
    @given(m=st.sampled_from([1, 255, 256, 257, 700]), n=st.integers(1, 300),
           d=st.sampled_from([1, 6, 37, 750]), same=st.booleans(),
           scale=st.sampled_from([1e-100, 1e-3, 1.0, 30.0, 1e100]),
           kernel_width=st.floats(1e-4, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_whole_array_expression_bit_for_bit(self, m, n, d, same, scale,
                                                            kernel_width, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(m, d)) * scale
        b = a if same else rng.normal(size=(n, d)) * scale
        got, expect = rbf_kernel(a, b, kernel_width), reference_kernel(a, b, kernel_width)
        assert got.shape == expect.shape
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))

    @pytest.mark.parametrize("same", [False, True])
    @pytest.mark.parametrize("bad", [1e160, np.inf, -np.inf, np.nan])
    def test_a_row_whose_norm_is_not_finite_has_kernel_zero(self, same, bad):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(300, 12)), rng.normal(size=(20, 12))
        bad_a, bad_b = [3, 290], [0, 11]
        a[bad_a, 5] = bad
        b[bad_b, 2] = bad
        if same:
            b, bad_b = a, bad_a
        got = rbf_kernel(a, b, 0.1)
        with np.errstate(over="ignore", invalid="ignore"):
            expect = reference_kernel(a, b, 0.1)
        expect[bad_a] = 0.0
        expect[:, bad_b] = 0.0
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))

    # 2,048 K = 125 windows against 614 support vectors, and as a training
    # kernel: beside the output, the (256, n) block of norm sums and the norms
    # measured 1.34 and 4.14 MiB; the whole-array expression took 9.6 and 32 MiB
    @pytest.mark.parametrize("n_b, bound_mib", [(614, 2.0), (None, 5.0)])
    def test_the_output_is_the_only_full_size_array(self, n_b, bound_mib):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(2048, 750))
        b = a if n_b is None else rng.normal(size=(n_b, 750))
        tracemalloc.start()
        try:
            result = rbf_kernel(a, b, 1.0 / 750)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - result.nbytes < bound_mib * 2**20

    def test_matches_pairwise_definition(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(7, 6)), rng.normal(size=(5, 6))
        expect = np.exp(-0.3 * ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
        assert np.max(np.abs(rbf_kernel(a, b, 0.3) - expect)) < 1e-12

    def test_peak_memory_is_twice_the_result(self):
        # a 1,100 x 1,100 training kernel of K = 125 windows
        x = np.random.default_rng(6).normal(size=(1100, 750))
        tracemalloc.start()
        try:
            result = rbf_kernel(x, x, 1.0 / 750)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * result.nbytes


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

    @pytest.mark.parametrize("kernel_width", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_kernel_width_that_is_not_positive_and_finite(self, kernel_width):
        X = lift([[0, 0], [1, 1], [0, 1], [1, 0]])
        with pytest.raises(ValueError, match="kernel_width must be positive and finite"):
            train(X, np.array([0, 0, 1, 1]), kernel_width=kernel_width)

    @pytest.mark.parametrize("c_reg", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_c_reg_that_is_not_positive(self, c_reg):
        X = lift([[0, 0], [1, 1], [0, 1], [1, 0]])
        with pytest.raises(ValueError, match="^c_reg must be positive and finite$"):
            train(X, np.array([0, 0, 1, 1]), c_reg=c_reg)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            train(np.zeros((4, 6)), np.zeros(4))

    def test_dimension_must_match_window_len(self):
        with pytest.raises(ValueError, match="cannot infer window_len from a non-6K dimension"):
            train(np.zeros((4, 5)), np.array([0, 0, 1, 1]))


def smo_reference(K, y, C, tol, max_iter):
    """The solver as first written, kept to pin ``_smo``'s results bit for bit.

    It tracks the dual gradient and rebuilds y*grad and both working sets
    from the labels' signs on every pass.
    """
    n = y.shape[0]
    alpha = np.zeros(n)
    grad = np.ones(n)
    it = 0
    while True:
        yg = y * grad
        up = ((y > 0.0) & (alpha < C)) | ((y < 0.0) & (alpha > 0.0))
        lo = ((y > 0.0) & (alpha > 0.0)) | ((y < 0.0) & (alpha < C))
        if it >= max_iter or not up.any() or not lo.any():
            break
        up_vals = np.where(up, yg, -np.inf)
        lo_vals = np.where(lo, yg, np.inf)
        i = int(np.argmax(up_vals))
        j = int(np.argmin(lo_vals))
        viol = up_vals[i] - lo_vals[j]
        if viol <= tol:
            break
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if eta < 1e-12:
            eta = 1e-12
        lam = viol / eta
        cap_i = C - alpha[i] if y[i] > 0.0 else alpha[i]
        cap_j = alpha[j] if y[j] > 0.0 else C - alpha[j]
        if cap_i < lam:
            lam = cap_i
        if cap_j < lam:
            lam = cap_j
        if lam <= 0.0:
            break
        grad += lam * y * (K[j] - K[i])
        alpha[i] += y[i] * lam
        alpha[j] -= y[j] * lam
        it += 1

    bmax = np.max(yg, where=up, initial=-np.inf)
    bmin = np.min(yg, where=lo, initial=np.inf)
    if np.isinf(bmax) and np.isinf(bmin):
        bias = 0.0
        resid = 0.0
    elif np.isinf(bmax):
        bias = bmin
        resid = 0.0
    elif np.isinf(bmin):
        bias = bmax
        resid = 0.0
    else:
        bias = 0.5 * (bmax + bmin)
        resid = bmax - bmin
    return alpha, bias, resid, it


# below KKT_TOLERANCE / 2, the smallest unclipped step (eta <= 2), so every
# step is clipped and every alpha ends at 0 or C
TINY_C = 1e-4


class TestSolver:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 30), d=st.integers(1, 3),
           kernel_width=st.floats(0.05, 20.0),
           c_reg=st.sampled_from([TINY_C]) | st.floats(0.01, 100.0),
           max_iter=st.sampled_from([100_000]) | st.integers(0, 40))
    @example(data=None, n=12, d=2, kernel_width=1.0, c_reg=TINY_C, max_iter=100_000)
    # two points whose kernel value underflows: one step zeroes y*grad exactly
    @example(data=None, n=2, d=1, kernel_width=20.0, c_reg=2.0, max_iter=100_000)
    def test_matches_the_reference_solver_bit_for_bit(self, data, n, d, kernel_width, c_reg,
                                                       max_iter):
        """Alphas and iteration count match bit for bit; bias and residual match in value.

        Where y*grad is exactly zero, the reference may hold -0.0 where ``_smo``
        holds +0.0, so a zero bias or residual can differ in its sign only.
        """
        if data is None:
            rng = np.random.default_rng(5)
            x = np.array([[0.0], [10.0]]) if n == 2 else rng.normal(size=(n, d))
            y = np.repeat([1.0, -1.0], n // 2)
        else:
            # a coarse grid, so points repeat and kernel rows tie
            x = data.draw(arrays(np.float64, (n, d), elements=st.integers(-6, 6).map(lambda v: v / 2)))
            y = np.where(data.draw(arrays(np.bool_, n)), 1.0, -1.0)
        K = rbf_kernel(x, x, kernel_width)
        alpha, bias, resid, it = _smo(K, y, c_reg, max_iter)
        ref_alpha, ref_bias, ref_resid, ref_it = smo_reference(K, y, c_reg, KKT_TOLERANCE,
                                                               max_iter)
        assert alpha.tobytes() == ref_alpha.tobytes()
        assert (bias, resid) == (ref_bias, ref_resid)
        assert it == ref_it
        if c_reg == TINY_C:
            assert np.all((alpha == 0.0) | (alpha == c_reg))

    def test_train_keeps_the_iteration_count(self, walk_calibration, three_class_model):
        x, y = three_class_data(walk_calibration)
        model = three_class_model
        xp, yp = x[y < 2], np.where(y[y < 2] == 0, 1.0, -1.0)  # pair 0/1, 54 windows
        K = rbf_kernel(xp, xp, model.kernel_width)
        ref_it = smo_reference(K, yp, model.c_reg, KKT_TOLERANCE, 100_000)[3]
        assert ref_it > 0 and model.pairs[0].iterations == ref_it


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


@st.composite
def voting_cases(draw):
    """A 3- or 4-class model of one-vector pairs and rows near its vectors.

    Decisions take few distinct signs over few rows, so vote ties of every
    width are common.
    """
    classes = tuple(sorted(draw(st.sets(st.integers(0, 9), min_size=3, max_size=4))))
    pairs = tuple(
        PairClassifier(a, b, draw(arrays(np.float64, (1, 6), elements=st.sampled_from([-1.0, 1.0]))),
                       np.array([draw(st.sampled_from([-1.0, 1.0]))]),
                       draw(st.sampled_from([-0.5, 0.0, 0.5])))
        for a, b in combinations(classes, 2))
    model = SvmModel(classes, pairs, 0.5, 1.0, NormStats.identity(), 1)
    rows = draw(arrays(np.float64, (draw(st.integers(1, 8)), 6), elements=st.sampled_from([-1.0, 1.0])))
    return model, rows


@settings(max_examples=200, deadline=None)
@given(voting_cases())
def test_vote_tie_break_rules(case):
    # a unique top vote wins; a two-way tie goes to that pair's decision;
    # a wider tie goes to the smallest tied label
    model, rows = case
    decisions = {(p.class_a, p.class_b): p.decision(rows, model.kernel_width) for p in model.pairs}
    pred = predict_batch(model, rows)
    for r in range(rows.shape[0]):
        votes = dict.fromkeys(model.classes, 0)
        for (a, b), f in decisions.items():
            votes[a if f[r] >= 0.0 else b] += 1
        tied = [c for c in model.classes if votes[c] == max(votes.values())]
        if len(tied) == 2:
            expect = tied[0] if decisions[tuple(tied)][r] >= 0.0 else tied[1]
        else:
            expect = min(tied)
        assert pred[r] == expect


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

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_monotone_in_raw_for_any_window_and_threshold(self, data):
        n = data.draw(st.integers(1, 60))
        raw1 = data.draw(arrays(np.int64, n, elements=st.integers(0, 1)))
        raw2 = raw1 | data.draw(arrays(np.int64, n, elements=st.integers(0, 1)))
        window = data.draw(st.integers(1, 80))
        threshold = data.draw(st.floats(-0.5, 1.5))
        assert np.all(smooth(raw1, window, threshold) <= smooth(raw2, window, threshold))

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

    def test_burst_windows_get_the_bias_label_without_a_warning(self, binary_model,
                                                               walk_calibration):
        # 1e160 m/s^2 overflows the squared norm of every window holding it
        stream, _ = walk_calibration
        stream = stream[:1500]
        accel = stream.accel.copy()
        accel[500:503] = 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clean = classify_stream(binary_model, stream)
            burst = classify_stream(binary_model, ImuStream(stream.t, accel, stream.gyro))
        pair = binary_model.pairs[0]
        bias_label = pair.class_a if pair.bias >= 0.0 else pair.class_b
        k = binary_model.window_len
        # a sample is hit when the decided window it holds, one starting at a
        # multiple of DECISION_STRIDE, starts at 500 - K + 1 .. 502
        held = np.maximum(np.arange(len(stream)) - k + 1, 0) // DECISION_STRIDE
        hit = (held * DECISION_STRIDE >= 500 - k + 1) & (held * DECISION_STRIDE <= 502)
        assert np.all(burst.raw[hit] == bias_label)
        assert np.array_equal(burst.raw[~hit], clean.raw[~hit])


def three_class_data(walk_calibration):
    """K=8 windows of one stream in three arbitrary label blocks."""
    stream, _ = walk_calibration
    x = build_windows(stream[:3200], 8, stride=40)
    return x, np.repeat([0, 1, 2], 27)[:x.shape[0]]


@pytest.fixture(scope="module")
def three_class_model(walk_calibration):
    # a cheap model whose votes exercise the multiclass path
    return train(*three_class_data(walk_calibration))


def classify_stream_reference(model, stream):
    """``classify_stream`` as it was at decision stride 1, kept to pin the stride.

    It scores every window, ``CHUNK_WINDOWS`` at a time with consecutive
    chunks sharing K-1 samples; each sample from K-1 on takes the label of the
    window ending at it, and earlier samples take the first decision.
    """
    k = model.window_len
    chunk = svm.CHUNK_WINDOWS
    window_labels = np.concatenate([
        predict_batch(model, build_windows(stream[s:s + chunk + k - 1], k, stride=1,
                                           norm=model.norm_stats))
        for s in range(0, max(len(stream) - k + 1, 1), chunk)
    ])
    lead = np.full(k - 1, window_labels[0], dtype=np.int64)
    raw = np.concatenate([lead, window_labels])

    smoothed = None
    if len(model.classes) == 2:
        sm = smooth((raw == model.classes[1]).astype(np.int64))
        smoothed = np.asarray(model.classes, dtype=np.int64)[sm]
    return LabelStream(raw, smoothed)


@st.composite
def chunked_lengths(draw):
    """A chunk size of 1-9 and a window count that is a multiple of it, +-1."""
    chunk = draw(st.integers(1, 9))
    n_windows = max(1, chunk * draw(st.integers(1, 4)) + draw(st.sampled_from([-1, 0, 1])))
    return chunk, n_windows


@st.composite
def strided_lengths(draw):
    """A decision stride, a chunk size of 1-9 and a stride-1 window count that
    falls on, next to or anywhere between chunk boundaries."""
    stride = draw(st.sampled_from([DECISION_STRIDE, 1, 2, 3, 10]))
    chunk = draw(st.integers(1, 9))
    span = chunk * stride
    n_windows = max(1, span * draw(st.integers(0, 3))
                    + draw(st.sampled_from([-1, 0, 1]) | st.integers(0, span)))
    return stride, chunk, n_windows


class TestChunkedClassification:
    @pytest.mark.parametrize("model_name", ["binary_model", "three_class_model"])
    @settings(max_examples=25, deadline=None)
    @given(case=chunked_lengths(), start=st.integers(0, 4000))
    @example(case=(3, 1), start=0)  # n == K: one window
    def test_chunks_equal_one_batch_over_the_whole_stream(self, request, walk_calibration,
                                                          model_name, case, start):
        model = request.getfixturevalue(model_name)
        chunk, n_windows = case
        stream, _ = walk_calibration
        part = stream[start:start + n_windows + model.window_len - 1]
        whole = predict_batch(model, build_windows(part, model.window_len,
                                                   stride=DECISION_STRIDE,
                                                   norm=model.norm_stats))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("zvnav.svm.CHUNK_WINDOWS", chunk)
            labels = classify_stream(model, part)
        # each decision is held for DECISION_STRIDE samples
        held = np.repeat(whole, DECISION_STRIDE)[:n_windows]
        expect = np.concatenate([np.full(model.window_len - 1, whole[0]), held])
        assert np.array_equal(labels.raw, expect)
        if len(model.classes) == 2:
            binary = (expect == model.classes[1]).astype(np.int64)
            assert np.array_equal(labels.smoothed, np.asarray(model.classes)[smooth(binary)])
        else:
            assert labels.smoothed is None

    @pytest.mark.parametrize("model_name", ["binary_model", "three_class_model"])
    @settings(max_examples=40, deadline=None)
    @given(case=strided_lengths(), start=st.integers(0, 4000))
    @example(case=(DECISION_STRIDE, 2, 1), start=0)  # n == K
    @example(case=(DECISION_STRIDE, 2, 2), start=0)  # n == K + 1
    def test_held_labels_match_the_stride_1_reference(self, request, walk_calibration,
                                                      model_name, case, start):
        """Decided samples keep the reference's label; each is held for at most s samples.

        Decision stride 1 reproduces the reference exactly, raw and smoothed.
        """
        model = request.getfixturevalue(model_name)
        stride, chunk, n_windows = case
        k = model.window_len
        stream, _ = walk_calibration
        part = stream[start:start + n_windows + k - 1]
        ref = classify_stream_reference(model, part)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("zvnav.svm.CHUNK_WINDOWS", chunk)
            mp.setattr("zvnav.svm.DECISION_STRIDE", stride)
            labels = classify_stream(model, part)
            mp.setattr("zvnav.svm.DECISION_STRIDE", 1)
            every = classify_stream(model, part)

        decided = np.arange(k - 1, len(part), stride)
        assert np.array_equal(labels.raw[decided], ref.raw[decided])
        # samples before K-1 take the first decision; later ones hold the
        # latest decided sample at or before them, at most stride - 1 back
        held_from = np.maximum(decided.searchsorted(np.arange(len(part)), "right") - 1, 0)
        assert np.all(np.arange(len(part))[k - 1:] - decided[held_from[k - 1:]] < stride)
        assert np.array_equal(labels.raw, labels.raw[decided][held_from])

        assert np.array_equal(every.raw, ref.raw)
        if ref.smoothed is None:
            assert every.smoothed is None and labels.smoothed is None
        else:
            assert np.array_equal(every.smoothed, ref.smoothed)

    def test_peak_memory_is_bounded_by_the_chunk(self, binary_model):
        # one 59 s mixed trial, 7,375 samples; classifying its stride-1
        # windows as one batch peaks near 150 MB (43.5 MB of windows plus the
        # kernel rows of ~600 support vectors), one chunk of 2,048 windows at
        # 23.6 MB; its 1,451 decided windows at stride 5 peak at 17.1 MB
        stream, _ = simulate(mixed_segments(), NoiseModel(seed=43))
        tracemalloc.start()
        try:
            classify_stream(binary_model, stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60e6


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

    @pytest.mark.parametrize("damage, message", [
        (lambda d: d["norm_mean"].__setitem__(1, math.nan), "channel means must be finite"),
        (lambda d: d["pairs"][0]["support_vectors"][2].__setitem__(4, math.inf),
         "pair 0/2: support vectors, alphas and bias must be finite"),
        (lambda d: d["pairs"][0]["alphas"].__setitem__(0, math.nan),
         "pair 0/2: support vectors, alphas and bias must be finite"),
        (lambda d: d["pairs"][0].update(bias=math.nan),
         "pair 0/2: support vectors, alphas and bias must be finite"),
        (lambda d: d["pairs"][0]["alphas"].pop(), r"pair 0/2: (\d+) alphas for (?!\1)\d+ support vectors"),
        (lambda d: [row.pop() for row in d["pairs"][0]["support_vectors"]],
         r"pair 0/2: support vectors must have 6\*K = 6 columns"),
        (lambda d: d["pairs"][0].update(b=1), r"pair 0/1: class not in classes \[0, 2\]"),
    ], ids=["norm-mean-nan", "support-vector-inf", "alpha-nan", "bias-nan", "alphas-short",
            "support-vectors-narrow", "class-not-listed"])
    def test_load_rejects_what_train_never_writes(self, tmp_path, damage, message):
        data = copy.deepcopy(small_model_dict())
        damage(data)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert re.fullmatch(re.escape(f"{path}: ") + message, str(info.value)), str(info.value)

    def test_schema_fields(self, binary_model):
        data = model_to_dict(binary_model)
        assert set(data) == {"classes", "pairs", "kernel_width", "c_reg",
                             "norm_mean", "norm_std", "K"}
        assert set(data["pairs"][0]) == {"a", "b", "support_vectors", "alphas", "bias"}
        rebuilt = model_from_dict(data)
        assert rebuilt.kernel_width == binary_model.kernel_width
