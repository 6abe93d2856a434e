"""Zero-velocity detection from windowed inertial energy.

The statistic for the window of W samples starting at n is

    T_n = (1/W) sum_k [ ||a_k - g * a_bar/||a_bar|| ||^2 / sigma_a^2
                        + ||w_k||^2 / sigma_w^2 ]

where a_bar is the window sample-mean acceleration; subtracting a vector of
magnitude g along the mean-accel direction removes gravity without needing a
global orientation estimate. Sample n is flagged stationary when T_n falls
below the threshold gamma.

The window for sample n is causal-forward, covering samples [n, n+W-1]; the
trailing W-1 samples reuse the last computable window. sigma_a and sigma_w
act as fixed tuning weights, not estimated sensor noise, so gamma values are
only meaningful relative to them.

All functions are pure and trivially parallel across trials or thresholds.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import GRAVITY, ImuStream, require_positive

DEFAULT_WINDOW = 5
DEFAULT_SIGMA_A = 0.01
DEFAULT_SIGMA_W = 0.00174
# subject-mean optimized thresholds; sensible starting points for real logs
DEFAULT_GAMMA_WALK = 0.96e5
DEFAULT_GAMMA_RUN = 13.11e5


@dataclass(frozen=True)
class DetectorParams:
    """Window size, tuning sigmas, gravity magnitude and threshold."""

    W: int = DEFAULT_WINDOW
    sigma_a: float = DEFAULT_SIGMA_A
    sigma_w: float = DEFAULT_SIGMA_W
    g: float = GRAVITY
    gamma: float = DEFAULT_GAMMA_WALK

    def __post_init__(self):
        if self.W < 2:
            raise ValueError("W must be at least 2")
        require_positive(self, "sigma_a", "sigma_w", "g", "gamma")


@dataclass(frozen=True)
class AdaptiveParams:
    """Per-motion thresholds switched by the classified motion label."""

    gamma_walk: float = DEFAULT_GAMMA_WALK
    gamma_run: float = DEFAULT_GAMMA_RUN

    def __post_init__(self):
        require_positive(self, "gamma_walk", "gamma_run")
        if self.gamma_walk >= self.gamma_run:
            warnings.warn(
                "gamma_walk >= gamma_run; optimized walking thresholds are "
                "normally far below running thresholds",
                stacklevel=2,
            )


def _window_statistics(accel_w: np.ndarray, gyro_w: np.ndarray,
                       params: DetectorParams) -> np.ndarray:
    """Statistics for stacked windows, shape (m, W, 3) each."""
    W = params.W
    # a window whose energy overflows gets inf or NaN, so it is never stationary
    with np.errstate(over="ignore", invalid="ignore"):
        mean_a = accel_w.mean(axis=1)                  # (m, 3)
        norm_mean = np.linalg.norm(mean_a, axis=1)     # (m,)
        safe = np.where(norm_mean > 0, norm_mean, 1.0)
        unit = mean_a / safe[:, None]
        dev = accel_w - (params.g * unit)[:, None, :]
        acc_term = np.einsum("ijk,ijk->i", dev, dev)
        gyr_term = np.einsum("ijk,ijk->i", gyro_w, gyro_w)
        stats = (acc_term / params.sigma_a**2 + gyr_term / params.sigma_w**2) / W
    # zero mean specific force means free fall, never midstance
    stats[norm_mean == 0] = np.inf
    return stats


def shoe_statistic(window: ImuStream, params: DetectorParams) -> float:
    """Statistic of one W-sample window.

    Returns +inf for the degenerate window whose mean specific force is zero
    (the gravity direction is undefined there, and free fall is never
    midstance).
    """
    if len(window) != params.W:
        raise ValueError(f"window must hold exactly W={params.W} samples")
    return float(_window_statistics(window.accel[None], window.gyro[None], params)[0])


def shoe_statistics(stream: ImuStream, params: DetectorParams) -> np.ndarray:
    """Statistic for every full window; length ``len(stream) - W + 1``."""
    n = len(stream)
    if n < params.W:
        raise ValueError(f"stream holds {n} samples, fewer than W={params.W}")
    accel_w = sliding_window_view(stream.accel, params.W, axis=0).transpose(0, 2, 1)
    gyro_w = sliding_window_view(stream.gyro, params.W, axis=0).transpose(0, 2, 1)
    return _window_statistics(accel_w, gyro_w, params)


def per_sample_statistics(stream: ImuStream, params: DetectorParams) -> np.ndarray:
    """Window statistic attributed to each sample (trailing samples reuse
    the last computable window)."""
    stats = shoe_statistics(stream, params)
    idx = np.minimum(np.arange(len(stream)), stats.shape[0] - 1)
    return stats[idx]


def detect(stream: ImuStream, params: DetectorParams) -> np.ndarray:
    """Stationary flag per sample: statistic below ``params.gamma``."""
    return per_sample_statistics(stream, params) < params.gamma


def detect_adaptive(stream: ImuStream, motion, params: DetectorParams,
                    adaptive: AdaptiveParams) -> np.ndarray:
    """Detection with the threshold switched per sample by motion label.

    ``motion`` holds one smoothed binary label per sample: 0 selects
    ``gamma_walk``, 1 selects ``gamma_run``. With a constant label the result
    is identical to :func:`detect` at that threshold.
    """
    motion = np.asarray(motion)
    if motion.shape != (len(stream),):
        raise ValueError("motion must hold one label per stream sample")
    if not np.all((motion == 0) | (motion == 1)):
        raise ValueError("motion labels must be 0 or 1")
    gamma = np.where(motion == 1, adaptive.gamma_run, adaptive.gamma_walk)
    return per_sample_statistics(stream, params) < gamma
