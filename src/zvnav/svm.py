"""Windowed SVM motion classification with an RBF kernel, trained from scratch.

Feature vectors are K consecutive IMU samples flattened in time order,
6 channels per sample: [a_k, w_k, a_{k+1}, w_{k+1}, ...]. Channels are
z-scored with training-set statistics that are stored in the model, so
prediction normalizes exactly like training.

Multiclass uses one-vs-one binary machines, each solved by sequential
minimal optimization on the maximal-violating-pair rule; prediction is by
majority vote with ties resolved by the tied pair's direct decision, then by
the smaller label index. Binary label sequences are smoothed with a mean
filter whose sub-0.5 threshold deliberately biases transitions toward the
faster motion.

Class-pair machines are independent (parallelizable); trained models are
immutable and predictions are pure.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import ImuStream, read_json_object, write_json

DEFAULT_WINDOW_LEN = 125
DEFAULT_SMOOTH_WINDOW = 15
DEFAULT_SMOOTH_THRESHOLD = 0.2
KKT_TOLERANCE = 1e-3
CHUNK_WINDOWS = 2048
_KERNEL_BLOCK = 256


class TrainingFailedError(RuntimeError):
    """The dual solver could not reach a valid solution."""


@dataclass(frozen=True, eq=False)
class NormStats:
    """Per-channel mean and standard deviation of the 6 IMU channels."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=np.float64)
        s = np.asarray(self.std, dtype=np.float64)
        if m.shape != (6,) or s.shape != (6,):
            raise ValueError("norm stats must hold 6 channel values")
        if np.any(s <= 0):
            raise ValueError("channel standard deviations must be positive")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "std", s)

    @classmethod
    def identity(cls) -> "NormStats":
        return cls(np.zeros(6), np.ones(6))

    @classmethod
    def from_streams(cls, streams) -> "NormStats":
        data = np.concatenate([np.hstack([s.accel, s.gyro]) for s in streams], axis=0)
        return cls(data.mean(axis=0), data.std(axis=0))


def build_windows(stream: ImuStream, window_len: int = DEFAULT_WINDOW_LEN,
                  stride: int = 1, norm: NormStats | None = None) -> np.ndarray:
    """Stack feature windows at offsets 0, stride, 2*stride, ...

    Returns an array of shape (n_windows, 6*window_len); each row is one
    window, samples in time order with accel channels before gyro channels
    at every timestep. Channels are z-scored when ``norm`` is given.
    """
    if window_len < 1:
        raise ValueError("window_len must be at least 1")
    n = len(stream)
    if n < window_len:
        raise ValueError(f"stream holds {n} samples, fewer than K={window_len}")
    if stride < 1:
        raise ValueError("stride must be at least 1")
    data = np.hstack([stream.accel, stream.gyro])
    if norm is not None:
        data = (data - norm.mean) / norm.std
    starts = np.arange(0, n - window_len + 1, stride)
    # the fancy index makes the one copy, (m, K, 6) in C order
    windows = sliding_window_view(data, (window_len, 6))[starts, 0]
    return windows.reshape(starts.shape[0], 6 * window_len)


# ---------------------------------------------------------------------------
# kernel and solver
# ---------------------------------------------------------------------------


def _row_norms_sq(x: np.ndarray) -> np.ndarray:
    """||x_i||^2 per row, summed ``_KERNEL_BLOCK`` rows at a time."""
    return np.concatenate([np.sum(blk * blk, axis=1)
                           for blk in np.split(x, range(_KERNEL_BLOCK, len(x), _KERNEL_BLOCK))])


def rbf_kernel(a: np.ndarray, b: np.ndarray, kernel_width: float) -> np.ndarray:
    """exp(-kernel_width * ||a_i - b_j||^2) for all row pairs.

    The distances are (||a_i||^2 + ||b_j||^2) - 2 a_i.b_j, rounded exactly
    like that whole-array expression, but the Gram product is the only
    (m, n) array: the norms and their sums are formed ``_KERNEL_BLOCK`` rows
    at a time. A row of ``a`` or ``b`` whose squared norm is not finite has
    kernel value 0 against every row, so a decision on it is the bias alone.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        na = _row_norms_sq(a)
        nb = na if b is a else _row_norms_sq(b)
        sq = a @ b.T
        np.multiply(sq, 2.0, out=sq)
        for s in range(0, len(a), _KERNEL_BLOCK):
            blk = slice(s, s + _KERNEL_BLOCK)
            np.subtract(na[blk, None] + nb[None, :], sq[blk], out=sq[blk])
        np.maximum(sq, 0.0, out=sq)
        np.multiply(sq, -kernel_width, out=sq)
        np.exp(sq, out=sq)
    sq[~np.isfinite(na)] = 0.0
    sq[:, ~np.isfinite(nb)] = 0.0
    return sq


def _smo(K, y, C, tol, max_iter):
    """Maximal-violating-pair SMO on a precomputed kernel matrix.

    Maximizes sum(alpha) - 0.5 aQa with 0 <= alpha <= C and sum(alpha*y) = 0.
    Returns raw alphas, the bias, the final KKT violation and the iteration
    count. grad tracks d/dalpha of the dual objective (starts at 1). The
    loop exits only at its head or before it changes alpha, so the final
    masks and y*grad also give the bias.
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

    # bias from the final violating-pair criteria; also the KKT residual
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


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PairClassifier:
    """One binary machine of the one-vs-one ensemble.

    ``alphas`` are the signed dual coefficients alpha_i * y_i with y = +1 for
    ``class_a`` (the smaller label); the decision value for x is
    sum_i alphas_i k(sv_i, x) + bias, non-negative meaning class_a.
    """

    class_a: int
    class_b: int
    support_vectors: np.ndarray
    alphas: np.ndarray
    bias: float
    kkt_residual: float = 0.0

    def decision(self, x: np.ndarray, kernel_width: float) -> np.ndarray:
        k = rbf_kernel(np.atleast_2d(x), self.support_vectors, kernel_width)
        return k @ self.alphas + self.bias


@dataclass(frozen=True, eq=False)
class SvmModel:
    classes: tuple[int, ...]
    pairs: tuple[PairClassifier, ...]
    kernel_width: float
    c_reg: float
    norm_stats: NormStats
    window_len: int
    train_accuracy: float | None = field(default=None, compare=False)

    @property
    def dim(self) -> int:
        return 6 * self.window_len


def train(windows: np.ndarray, labels, kernel_width: float | None = None,
          c_reg: float = 1.0, norm_stats: NormStats | None = None,
          window_len: int | None = None) -> SvmModel:
    """Train a one-vs-one RBF SVM on labeled feature windows.

    ``kernel_width`` defaults to the inverse feature dimension. Each pair is
    solved to KKT tolerance ``KKT_TOLERANCE``; the signed dual coefficients per pair
    stay in [-C, C] and sum to zero. Training accuracy is stored on the model.
    """
    X = np.asarray(windows, dtype=np.float64)
    y_all = np.asarray(labels)
    if X.ndim != 2 or X.shape[0] != y_all.shape[0]:
        raise ValueError("windows must be (n, d) with one label per row")
    classes = tuple(sorted(int(c) for c in np.unique(y_all)))
    if len(classes) < 2:
        raise ValueError("training needs at least two classes")
    d = X.shape[1]
    if window_len is None:
        if d % 6 != 0:
            raise ValueError("cannot infer window_len from a non-6K dimension")
        window_len = d // 6
    elif d != 6 * window_len:
        raise ValueError("feature dimension must equal 6 * window_len")
    if kernel_width is None:
        kernel_width = 1.0 / d
    if not 0 < kernel_width < np.inf:
        raise ValueError("kernel_width must be positive and finite")
    if not c_reg > 0:
        raise ValueError("c_reg must be positive")
    max_iter = max(200 * X.shape[0], 100_000)

    pairs = []
    for a, b in combinations(classes, 2):
        mask = (y_all == a) | (y_all == b)
        Xp = X[mask]
        yp = np.where(y_all[mask] == a, 1.0, -1.0)
        if np.all(Xp == Xp[0]):
            raise TrainingFailedError(
                f"classes {a}/{b}: all training vectors identical across labels"
            )
        Kmat = rbf_kernel(Xp, Xp, kernel_width)
        alpha, bias, resid, _ = _smo(Kmat, yp, float(c_reg), KKT_TOLERANCE, max_iter)
        if resid > KKT_TOLERANCE:
            raise TrainingFailedError(
                f"classes {a}/{b}: solver stalled with KKT violation {resid:.3g}"
            )
        sv = alpha > 1e-12
        if not np.any(sv):
            raise TrainingFailedError(f"classes {a}/{b}: no support vectors found")
        pairs.append(PairClassifier(
            class_a=a, class_b=b,
            support_vectors=Xp[sv].copy(),
            alphas=(alpha * yp)[sv],
            bias=float(bias),
            kkt_residual=float(resid),
        ))

    model = SvmModel(
        classes=classes, pairs=tuple(pairs), kernel_width=float(kernel_width),
        c_reg=float(c_reg), norm_stats=norm_stats or NormStats.identity(),
        window_len=int(window_len),
    )
    acc = float(np.mean(predict_batch(model, X) == y_all.astype(int)))
    object.__setattr__(model, "train_accuracy", acc)
    return model


def predict_batch(model: SvmModel, windows: np.ndarray) -> np.ndarray:
    """Predicted label per row by one-vs-one voting (deterministic).

    A unique top vote wins; a two-way tie goes to that pair's decision; a
    wider tie goes to the smallest tied label.
    """
    X = np.atleast_2d(np.asarray(windows, dtype=np.float64))
    if X.shape[1] != model.dim:
        raise ValueError(f"feature dimension {X.shape[1]} != model dimension {model.dim}")
    m = X.shape[0]
    cls_index = {c: i for i, c in enumerate(model.classes)}
    votes = np.zeros((m, len(model.classes)), dtype=np.int64)
    decisions = []
    for p in model.pairs:
        f = p.decision(X, model.kernel_width)
        ia, ib = cls_index[p.class_a], cls_index[p.class_b]
        decisions.append((p, ia, ib, f))
        wins_a = f >= 0.0
        votes[wins_a, ia] += 1
        votes[~wins_a, ib] += 1

    classes = np.asarray(model.classes, dtype=np.int64)
    tied = votes == votes.max(axis=1, keepdims=True)
    out = np.where(tied, classes, classes.max()).min(axis=1)
    two = tied.sum(axis=1) == 2
    for p, ia, ib, f in decisions:
        rows = two & tied[:, ia] & tied[:, ib]
        out[rows] = np.where(f[rows] >= 0.0, p.class_a, p.class_b)
    return out


# ---------------------------------------------------------------------------
# label post-processing
# ---------------------------------------------------------------------------


def smooth(raw, window: int = DEFAULT_SMOOTH_WINDOW,
           threshold: float = DEFAULT_SMOOTH_THRESHOLD) -> np.ndarray:
    """Mean-filter a binary label sequence, biased toward label 1 on ties.

    y_bar_i = 1 iff sum(raw[i .. i+window]) / window >= threshold; the sum
    runs over window+1 inclusive terms with divisor window. Trailing indices
    use the shrinking available window (m terms over m-1, one term over
    one). A threshold below 0.5 makes transitions resolve to the faster
    motion, protecting the first running steps from a walking-grade
    threshold.
    """
    raw = np.asarray(raw)
    if raw.ndim != 1:
        raise ValueError("raw must be a 1-d label sequence")
    if not np.all((raw == 0) | (raw == 1)):
        raise ValueError("smoothing is defined for binary labels only")
    if window < 1:
        raise ValueError("window must be at least 1")
    n = raw.shape[0]
    idx = np.arange(n)
    csum = np.concatenate([[0], np.cumsum(raw, dtype=np.int64)])
    hi = np.minimum(idx + window, n - 1)
    sums = csum[hi + 1] - csum[idx]
    divisor = np.maximum(hi - idx, 1)
    return (sums / divisor >= threshold).astype(np.int64)


def confusion_matrix(pred, truth, classes=tuple(range(6))) -> tuple[np.ndarray, float]:
    """Row-normalized confusion matrix (rows = truth) and mean accuracy.

    Rows of absent classes stay zero; the mean accuracy averages the diagonal
    over the classes present in the truth.
    """
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape:
        raise ValueError("pred and truth must have equal length")
    classes = tuple(classes)
    k = len(classes)
    index = {c: i for i, c in enumerate(classes)}
    mat = np.zeros((k, k))
    for tr, pr in zip(truth, pred):
        mat[index[int(tr)], index[int(pr)]] += 1
    row_sums = mat.sum(axis=1)
    present = row_sums > 0
    mat[present] /= row_sums[present, None]
    mean_acc = float(np.mean(np.diag(mat)[present])) if present.any() else 0.0
    return mat, mean_acc


@dataclass(frozen=True, eq=False)
class LabelStream:
    """Per-sample motion labels: raw SVM output and the smoothed sequence."""

    raw: np.ndarray
    smoothed: np.ndarray | None


def classify_stream(model: SvmModel, stream: ImuStream) -> LabelStream:
    """Per-sample labels for a stream, windows aligned to their last sample.

    Each sample from index K-1 on receives the label of the window ending at
    it (one decision per sample, imposing a one-window lag behind the true
    motion); earlier samples inherit the first decision. For binary models
    the smoothed sequence is the labels mean-filtered with
    ``DEFAULT_SMOOTH_WINDOW`` and ``DEFAULT_SMOOTH_THRESHOLD``; for more
    classes it is None.

    Windows are built and scored ``CHUNK_WINDOWS`` at a time, consecutive
    chunks sharing K-1 samples, so memory is bounded by one chunk of windows
    and its kernel rows, not by the stream length. The pipeline's inherent
    latency is K-1 samples of window lag plus the ``DEFAULT_SMOOTH_WINDOW``-sample
    look-ahead of the smoother.
    """
    k = model.window_len
    chunk = CHUNK_WINDOWS
    # a stream shorter than K still makes one call, so build_windows rejects it
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


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def model_to_dict(model: SvmModel) -> dict:
    return {
        "classes": list(model.classes),
        "pairs": [
            {
                "a": p.class_a,
                "b": p.class_b,
                "support_vectors": p.support_vectors.tolist(),
                "alphas": p.alphas.tolist(),
                "bias": p.bias,
            }
            for p in model.pairs
        ],
        "kernel_width": model.kernel_width,
        "c_reg": model.c_reg,
        "norm_mean": model.norm_stats.mean.tolist(),
        "norm_std": model.norm_stats.std.tolist(),
        "K": model.window_len,
    }


def model_from_dict(data: dict) -> SvmModel:
    pairs = tuple(
        PairClassifier(
            class_a=int(p["a"]), class_b=int(p["b"]),
            support_vectors=np.asarray(p["support_vectors"], dtype=np.float64),
            alphas=np.asarray(p["alphas"], dtype=np.float64),
            bias=float(p["bias"]),
        )
        for p in data["pairs"]
    )
    return SvmModel(
        classes=tuple(int(c) for c in data["classes"]),
        pairs=pairs,
        kernel_width=float(data["kernel_width"]),
        c_reg=float(data["c_reg"]),
        norm_stats=NormStats(np.asarray(data["norm_mean"]), np.asarray(data["norm_std"])),
        window_len=int(data["K"]),
    )


def save_model(model: SvmModel, path) -> None:
    write_json(path, model_to_dict(model))


def load_model(path) -> SvmModel:
    return read_json_object(path, "an SVM model", model_from_dict)
