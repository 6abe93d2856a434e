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
    """Window size W, tuning sigmas and gravity magnitude g; the threshold is ``detect``'s."""

    window: int = DEFAULT_WINDOW
    sigma_a: float = DEFAULT_SIGMA_A
    sigma_w: float = DEFAULT_SIGMA_W
    gravity: float = GRAVITY

    def __post_init__(self):
        if self.window < 2:
            raise ValueError("window must be at least 2")
        require_positive(self, "sigma_a", "sigma_w", "gravity")
        for name, value in (("sigma_a", self.sigma_a), ("sigma_w", self.sigma_w)):
            if not 0.0 < value * value < np.inf:  # the statistic divides by the square
                raise ValueError(f"{name} = {value:g} is out of range: its square is 0 or inf")


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
                stacklevel=3,  # past the generated __init__, to the caller
            )


def _window_statistics(accel_w: np.ndarray, gyro_w: np.ndarray,
                       params: DetectorParams) -> np.ndarray:
    """Statistics for stacked windows, shape (m, W, 3) each."""
    # a window whose energy overflows gets inf or NaN, so it is never stationary
    with np.errstate(over="ignore", invalid="ignore"):
        mean_a = accel_w.mean(axis=1)                  # (m, 3)
        norm_mean = np.linalg.norm(mean_a, axis=1)     # (m,)
        safe = np.where(norm_mean > 0, norm_mean, 1.0)
        unit = mean_a / safe[:, None]
        dev = accel_w - (params.gravity * unit)[:, None, :]
        acc_term = np.einsum("ijk,ijk->i", dev, dev)
        gyr_term = np.einsum("ijk,ijk->i", gyro_w, gyro_w)
        stats = (acc_term / params.sigma_a**2 + gyr_term / params.sigma_w**2) / params.window
    # zero mean specific force means free fall, never midstance
    stats[norm_mean == 0] = np.inf
    return stats


def shoe_statistics(stream: ImuStream, params: DetectorParams) -> np.ndarray:
    """Statistic for every full window; length ``len(stream) - W + 1``."""
    n = len(stream)
    if n < params.window:
        raise ValueError(f"stream holds {n} samples, fewer than window={params.window}")
    accel_w = sliding_window_view(stream.accel, params.window, axis=0).transpose(0, 2, 1)
    gyro_w = sliding_window_view(stream.gyro, params.window, axis=0).transpose(0, 2, 1)
    return _window_statistics(accel_w, gyro_w, params)


def per_sample_statistics(stream: ImuStream, params: DetectorParams) -> np.ndarray:
    """Window statistic attributed to each sample (trailing samples reuse
    the last computable window)."""
    stats = shoe_statistics(stream, params)
    idx = np.minimum(np.arange(len(stream)), stats.shape[0] - 1)
    return stats[idx]


def detect(stream: ImuStream, params: DetectorParams, gamma: float | np.ndarray) -> np.ndarray:
    """Stationary flag per sample: statistic below ``gamma``, one positive finite
    threshold or one per sample."""
    if np.ndim(gamma) and np.shape(gamma) != (len(stream),):
        raise ValueError(f"gamma of shape {np.shape(gamma)} is not one threshold or one per sample")
    require_positive({"gamma": gamma})
    return per_sample_statistics(stream, params) < gamma


def detect_adaptive(stream: ImuStream, motion, params: DetectorParams,
                    adaptive: AdaptiveParams) -> np.ndarray:
    """:func:`detect` at ``gamma_walk`` where ``motion`` is 0 and ``gamma_run`` where it is 1.

    Nothing in the package calls it: ``evaluate.adaptive_gamma`` gives ``detect``
    the switched threshold. It stays while the benchmark's span table names it."""
    motion = np.asarray(motion)
    if motion.shape != (len(stream),):
        raise ValueError("motion must hold one label per stream sample")
    if not np.all((motion == 0) | (motion == 1)):
        raise ValueError("motion labels must be 0 or 1")
    return detect(stream, params, np.where(motion == 1, adaptive.gamma_run, adaptive.gamma_walk))
