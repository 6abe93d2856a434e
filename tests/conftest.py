import functools
import math

import numpy as np
import pytest

from zvnav.detector import AdaptiveParams, DetectorParams
from zvnav.ekf import EkfConfig
from zvnav.optimize import FBetaConfig, MocapStream, RUN_BETA_SQ, RUN_SPEED_THRESHOLD, optimize_gamma
from zvnav.simulate import CLASS_IDS, CLASS_NAMES, NoiseModel, gait_preset, simulate
from zvnav.svm import NormStats, build_windows, model_to_dict, train

WALK = CLASS_IDS["walk"]
RUN = CLASS_IDS["run"]


def out_and_back(motion, total_s):
    """Out-and-back trial segments: half outbound, half after a reversal."""
    half = total_s / 2.0
    return [
        (gait_preset(motion, heading=0.0), half),
        (gait_preset(motion, heading=math.pi), half),
    ]


def mixed_segments():
    """Alternating walk/run out-and-back trial, turns during walking."""
    return [
        (gait_preset("walk", heading=0.0), 15.0),
        (gait_preset("run", heading=0.0), 15.0),
        (gait_preset("walk", heading=math.pi), 15.0),
        (gait_preset("run", heading=math.pi), 14.0),
    ]


@functools.cache
def small_model_dict():
    """The file contents of a K=1 model of classes 0 and 2, trained on eight points.

    Shared between calls: change a deep copy."""
    X = np.random.default_rng(0).normal(size=(8, 6))
    return model_to_dict(train(X, np.repeat([0, 2], 4)))


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


def mocap_of(truth, rate_hz=125.0):
    return MocapStream(truth.t, truth.pos, rate_hz)


@pytest.fixture(scope="session")
def walk_calibration():
    return simulate(out_and_back("walk", 64.0), NoiseModel(seed=31))


@pytest.fixture(scope="session")
def run_calibration():
    return simulate(out_and_back("run", 64.0), NoiseModel(seed=32))


@pytest.fixture(scope="session")
def optimized_gammas(walk_calibration, run_calibration):
    sw, tw = walk_calibration
    sr, tr = run_calibration
    gw, curve_w = optimize_gamma(sw, mocap_of(tw), DetectorParams(), FBetaConfig())
    gr, curve_r = optimize_gamma(
        sr, mocap_of(tr), DetectorParams(),
        FBetaConfig(beta_sq=RUN_BETA_SQ, speed_threshold=RUN_SPEED_THRESHOLD),
    )
    return {"walk": gw, "run": gr, "curve_walk": curve_w, "curve_run": curve_r}


@pytest.fixture(scope="session")
def binary_model(walk_calibration, run_calibration):
    sw, _ = walk_calibration
    sr, _ = run_calibration
    norm = NormStats.from_streams([sw, sr])
    xw = build_windows(sw, 125, stride=14, norm=norm)[:550]
    xr = build_windows(sr, 125, stride=14, norm=norm)[:550]
    windows = np.vstack([xw, xr])
    labels = np.array([WALK] * len(xw) + [RUN] * len(xr))
    return train(windows, labels, norm_stats=norm)


@pytest.fixture(scope="session")
def adaptive_setup(binary_model, optimized_gammas):
    return {
        "model": binary_model,
        "gammas": AdaptiveParams(optimized_gammas["walk"], optimized_gammas["run"]),
        "detector": DetectorParams(),
        "ekf": EkfConfig(),
    }


@pytest.fixture(scope="session")
def six_class_streams():
    train_streams = {
        m: simulate([(gait_preset(m), 62.0)], NoiseModel(seed=500 + i))[0]
        for i, m in enumerate(CLASS_NAMES)
    }
    test_streams = {
        m: simulate([(gait_preset(m), 62.0)], NoiseModel(seed=600 + i))[0]
        for i, m in enumerate(CLASS_NAMES)
    }
    return train_streams, test_streams


def class_windows(streams, norm, per_class, stride):
    xs, ys = [], []
    for name, stream in streams.items():
        w = build_windows(stream, 125, stride=stride, norm=norm)[:per_class]
        xs.append(w)
        ys.append(np.full(w.shape[0], CLASS_IDS[name]))
    return np.vstack(xs), np.concatenate(ys)


@pytest.fixture(scope="session")
def six_class_model(six_class_streams):
    train_streams, test_streams = six_class_streams
    norm = NormStats.from_streams(list(train_streams.values()))
    x_train, y_train = class_windows(train_streams, norm, per_class=300, stride=24)
    x_test, y_test = class_windows(test_streams, norm, per_class=300, stride=24)
    model = train(x_train, y_train, norm_stats=norm)
    return {"model": model, "x_test": x_test, "y_test": y_test}
