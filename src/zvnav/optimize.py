"""Detector threshold selection from motion-capture ground truth.

Zero-velocity ground truth is generated by numerically differentiating
motion-capture foot positions (central differences) and thresholding the
speed; the detector threshold is then swept over a grid, scoring precision
and recall of the stationary class at each value, and the gamma maximizing
the F-beta score is returned. beta^2 < 1 favours precision over recall.

Grid evaluation is embarrassingly parallel in principle; here each gamma is
scored from two sorted statistic arrays, which is just as fast and exactly
reproduces per-gamma counting.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ImuStream, require_positive
from .detector import DetectorParams, per_sample_statistics

# per-motion defaults for ground-truth labeling and the F-score weight
WALK_BETA_SQ = 0.16
RUN_BETA_SQ = 0.4
WALK_SPEED_THRESHOLD = 0.1
RUN_SPEED_THRESHOLD = 0.25

GAMMA_GRID_LO = 1e2
GAMMA_GRID_HI = 1e8
GAMMA_GRID_POINTS = 300


class UndefinedRecallError(ValueError):
    """Ground truth contains no stationary samples, so recall is undefined."""


class OptimizationFailedError(RuntimeError):
    """Every grid threshold scored zero; the sweep found no operating point."""


def default_gamma_grid(points: int = GAMMA_GRID_POINTS) -> np.ndarray:
    return np.logspace(np.log10(GAMMA_GRID_LO), np.log10(GAMMA_GRID_HI), points)


@dataclass(frozen=True, eq=False)
class MocapStream:
    """Timestamped foot positions from a motion-capture system."""

    t: np.ndarray
    pos: np.ndarray
    rate_hz: float | None = None

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.float64)
        p = np.asarray(self.pos, dtype=np.float64)
        if t.ndim != 1 or p.shape != (t.shape[0], 3):
            raise ValueError("t must be (n,) and pos (n, 3)")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(p))):
            raise ValueError("mocap values must be finite")
        if t.shape[0] >= 2 and np.any(np.diff(t) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "pos", p)

    def __len__(self) -> int:
        return self.t.shape[0]


@dataclass(frozen=True, eq=False)
class FBetaConfig:
    """Sweep configuration: F weight, labeling speed threshold, gamma grid."""

    beta_sq: float = WALK_BETA_SQ
    speed_threshold: float = WALK_SPEED_THRESHOLD
    gamma_grid: np.ndarray = field(default_factory=default_gamma_grid)

    def __post_init__(self):
        require_positive(self, "beta_sq", "speed_threshold")
        grid = np.asarray(self.gamma_grid, dtype=np.float64)
        if grid.size < 1 or np.any(grid <= 0):
            raise ValueError("gamma grid must be non-empty and positive")
        if grid.size >= 2 and np.any(np.diff(grid) <= 0):
            raise ValueError("gamma grid must be strictly increasing")
        object.__setattr__(self, "gamma_grid", grid)


@dataclass(frozen=True, eq=False)
class PrCurve:
    """Precision/recall/F-beta along the (increasing) gamma grid."""

    gamma: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f_beta: np.ndarray

    def __len__(self) -> int:
        return self.gamma.shape[0]


def label_zero_velocity(mocap: MocapStream, speed_threshold: float) -> np.ndarray:
    """Stationary flag of each mocap sample, from thresholded foot speed.

    Speed at interior samples is the central difference
    (p[i+1] - p[i-1]) / (t[i+1] - t[i-1]); the endpoints use one-sided
    differences.
    """
    if len(mocap) < 3:
        raise ValueError("need at least 3 mocap samples to differentiate")
    t, p = mocap.t, mocap.pos
    vel = np.empty_like(p)
    vel[1:-1] = (p[2:] - p[:-2]) / (t[2:] - t[:-2])[:, None]
    vel[0] = (p[1] - p[0]) / (t[1] - t[0])
    vel[-1] = (p[-1] - p[-2]) / (t[-1] - t[-2])
    return np.linalg.norm(vel, axis=1) < speed_threshold


def align_labels(mocap: MocapStream, stationary: np.ndarray,
                 imu: ImuStream) -> tuple[np.ndarray, np.ndarray]:
    """Each IMU sample's flag from the nearest mocap sample, and a validity mask.

    Samples outside the mocap time span are marked invalid and excluded from
    scoring rather than treated as moving.
    """
    lt = mocap.t
    if len(stationary) != len(lt):
        raise ValueError("stationary must hold one flag per mocap sample")
    if imu.t[-1] < lt[0] or imu.t[0] > lt[-1]:
        raise ValueError("label and IMU time ranges do not overlap")
    right = np.searchsorted(lt, imu.t)
    left = np.clip(right - 1, 0, len(lt) - 1)
    right = np.clip(right, 0, len(lt) - 1)
    pick_right = np.abs(lt[right] - imu.t) < np.abs(imu.t - lt[left])
    nearest = np.where(pick_right, right, left)
    valid = (imu.t >= lt[0]) & (imu.t <= lt[-1])
    return stationary[nearest], valid


def precision_recall(pred, truth) -> tuple[float, float]:
    """Precision and recall with "stationary" as the positive class.

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


def f_beta(p, r, beta_sq: float):
    """F-beta score (1 + b2) p r / (b2 p + r) of floats or arrays; 0 where p = r = 0."""
    p = np.asarray(p, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if not (np.all((p >= 0.0) & (p <= 1.0)) and np.all((r >= 0.0) & (r <= 1.0))):
        raise ValueError("precision and recall must lie in [0, 1]")
    if beta_sq <= 0:
        raise ValueError("beta_sq must be positive")
    denom = beta_sq * p + r
    fb = np.where(denom > 0, (1.0 + beta_sq) * p * r / np.where(denom > 0, denom, 1.0), 0.0)
    return float(fb) if fb.ndim == 0 else fb


def optimize_gamma(imu: ImuStream, mocap: MocapStream, detector: DetectorParams,
                   cfg: FBetaConfig) -> tuple[float, PrCurve]:
    """Sweep the grid and return the F-beta-optimal gamma plus the full curve.

    ``detector.gamma`` is ignored; only the window and sigmas matter here.
    Ties resolve to the smallest gamma. Deterministic given grid and data.
    """
    labels = label_zero_velocity(mocap, cfg.speed_threshold)
    stationary, valid = align_labels(mocap, labels, imu)
    stats = per_sample_statistics(imu, detector)

    s = stats[valid]
    truth = stationary[valid]
    n_pos = int(truth.sum())
    if n_pos == 0:
        raise UndefinedRecallError("ground truth contains no stationary samples")

    pos_sorted = np.sort(s[truth])
    neg_sorted = np.sort(s[~truth])
    grid = cfg.gamma_grid
    tp = np.searchsorted(pos_sorted, grid, side="left").astype(np.float64)
    fp = np.searchsorted(neg_sorted, grid, side="left").astype(np.float64)
    predicted = tp + fp
    precision = np.where(predicted > 0, tp / np.where(predicted > 0, predicted, 1.0), 1.0)
    recall = tp / n_pos
    fb = f_beta(precision, recall, cfg.beta_sq)

    if np.all(fb == 0.0):
        raise OptimizationFailedError("F-beta is zero across the whole grid")
    best = int(np.argmax(fb))  # first max: smallest gamma on ties
    curve = PrCurve(grid.copy(), precision, recall, fb)
    return float(grid[best]), curve
