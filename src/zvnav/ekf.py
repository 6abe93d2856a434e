"""Strapdown inertial propagation with an error-state EKF and zero-velocity updates.

The nominal state is position, velocity and a unit quaternion; the filter
tracks a 9-dimensional error state [dp, dv, dtheta] (no sensor biases).
The attitude error is a navigation-frame perturbation applied multiplicatively
on the left: q_true = dq(dtheta) * q_hat.

Discrete propagation is deliberately first order and position-before-velocity:

    p_k = p_{k-1} + v_{k-1} dt
    v_k = v_{k-1} + (R(q_{k-1}) f_k + g_vec) dt
    q_k = q_{k-1} * exp(gyro_k dt / 2)

with f the measured specific force and g_vec the (downward) gravity vector.
A zero-velocity update fuses the pseudo-measurement z = 0 of velocity with
H = [0 I 0] and R = sigma_zupt^2 I, using the Joseph-form covariance update;
the covariance is re-symmetrized after every step.

The step kernels are ``propagate`` and ``zupt_update``: pure functions over
plain arrays (p, v, q, P) that return new arrays. ``run_ins`` loops them over
a stream and is itself pure, so independent trials can run in parallel.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ImuStream,
    Quaternion,
    _quat_from_rotvec,
    _quat_mul,
    _quat_normalize,
    _rotmat_from_quat,
    _skew,
    gravity_vector,
    GRAVITY,
)


@dataclass(frozen=True, eq=False)
class EkfConfig:
    """Filter noise levels, gravity and initial state.

    The detector's fixed tuning sigmas double as the default process-noise
    scale; none of these defaults claim to be measured sensor statistics.
    """

    sigma_accel: float = 0.01 * GRAVITY
    sigma_gyro: float = 0.00174
    sigma_zupt: float = 0.01
    g: np.ndarray = field(default_factory=gravity_vector)
    p0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    v0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    init_pos_std: float = 1e-3
    init_vel_std: float = 1e-2
    init_att_std: float = 1e-2

    def __post_init__(self):
        for name in ("sigma_accel", "sigma_gyro", "sigma_zupt",
                     "init_pos_std", "init_vel_std", "init_att_std"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        object.__setattr__(self, "g", np.asarray(self.g, dtype=np.float64))
        object.__setattr__(self, "p0", np.asarray(self.p0, dtype=np.float64))
        object.__setattr__(self, "v0", np.asarray(self.v0, dtype=np.float64))

    def initial_covariance(self) -> np.ndarray:
        d = np.concatenate([
            np.full(3, self.init_pos_std**2),
            np.full(3, self.init_vel_std**2),
            np.full(3, self.init_att_std**2),
        ])
        return np.diag(d)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def propagate(p, v, q, P, accel, gyro, dt, g, sig_a, sig_g):
    """Advance position, velocity, quaternion and covariance by one IMU sample."""
    R = _rotmat_from_quat(q)
    f_nav = R @ accel
    p_new = p + v * dt
    v_new = v + (f_nav + g) * dt
    q_new = _quat_normalize(_quat_mul(q, _quat_from_rotvec(gyro * dt)))

    F = np.eye(9)
    for i in range(3):
        F[i, 3 + i] = dt
    S = _skew(f_nav)
    for i in range(3):
        for j in range(3):
            F[3 + i, 6 + j] = -S[i, j] * dt

    P_new = F @ P @ F.T
    qa = (sig_a * dt) ** 2
    qg = (sig_g * dt) ** 2
    for i in range(3):
        P_new[3 + i, 3 + i] += qa
        P_new[6 + i, 6 + i] += qg
    P_new = 0.5 * (P_new + P_new.T)
    return p_new, v_new, q_new, P_new


def zupt_update(p, v, q, P, sigma_zupt):
    """Fuse one zero-velocity pseudo-measurement and inject the correction."""
    r = sigma_zupt * sigma_zupt
    S = P[3:6, 3:6].copy()
    for i in range(3):
        S[i, i] += r
    K = P[:, 3:6] @ np.linalg.inv(S)
    dx = K @ (-v)

    p_new = p + dx[0:3]
    v_new = v + dx[3:6]
    q_new = _quat_normalize(_quat_mul(_quat_from_rotvec(dx[6:9]), q))

    IKH = np.eye(9)
    IKH[:, 3:6] -= K
    P_new = IKH @ P @ IKH.T + r * (K @ K.T)
    P_new = 0.5 * (P_new + P_new.T)
    return p_new, v_new, q_new, P_new


def _ins_loop(t, accel, gyro, zv, p0, v0, q0, P0, g, sig_a, sig_g, sig_z):
    n = t.shape[0]
    out_p = np.empty((n, 3))
    out_v = np.empty((n, 3))
    out_q = np.empty((n, 4))
    p = p0.copy()
    v = v0.copy()
    q = q0.copy()
    P = P0.copy()
    if zv[0]:
        p, v, q, P = zupt_update(p, v, q, P, sig_z)
    out_p[0] = p
    out_v[0] = v
    out_q[0] = q
    for k in range(1, n):
        dt = t[k] - t[k - 1]
        p, v, q, P = propagate(p, v, q, P, accel[k], gyro[k], dt, g, sig_a, sig_g)
        if zv[k]:
            p, v, q, P = zupt_update(p, v, q, P, sig_z)
        out_p[k] = p
        out_v[k] = v
        out_q[k] = q
    return out_p, out_v, out_q


def level_from_accel(mean_accel) -> Quaternion:
    """Roll/pitch attitude from a mean stationary specific-force reading.

    Returns the minimal (zero-yaw) rotation mapping the measured mean accel
    direction onto +z, so that gravity is vertical in the navigation frame.
    """
    a = np.asarray(mean_accel, dtype=np.float64)
    norm = np.linalg.norm(a)
    if norm == 0:
        raise ValueError("mean accel must be non-zero to level from")
    u = a / norm
    target = np.array([0.0, 0.0, 1.0])
    axis = np.cross(u, target)
    s = np.linalg.norm(axis)
    c = float(u @ target)
    if s < 1e-12:
        if c > 0:
            return Quaternion.identity()
        return Quaternion.from_rotvec([math.pi, 0.0, 0.0])
    angle = math.atan2(s, c)
    return Quaternion.from_rotvec(axis / s * angle)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Timestamped navigation states with the applied zero-velocity flags."""

    t: np.ndarray
    pos: np.ndarray
    vel: np.ndarray
    quat: np.ndarray
    zupt: np.ndarray

    def __post_init__(self):
        n = self.t.shape[0]
        if self.pos.shape != (n, 3) or self.vel.shape != (n, 3) \
                or self.quat.shape != (n, 4) or self.zupt.shape != (n,):
            raise ValueError("inconsistent trajectory array shapes")

    def __len__(self) -> int:
        return self.t.shape[0]


def run_ins(stream: ImuStream, zv, cfg: EkfConfig | None = None) -> Trajectory:
    """Run the zero-velocity-aided INS over a stream.

    ``zv`` is one stationary flag per sample; the update is applied at every
    flagged sample. Initial roll/pitch is leveled from the mean accel of the
    first contiguous stationary run inside the first second (falling back,
    with a warning, to the first 50 samples); initial yaw is zero.
    """
    cfg = cfg or EkfConfig()
    zv = np.asarray(zv, dtype=bool)
    if zv.shape != (len(stream),):
        raise ValueError("zv must hold one flag per stream sample")

    first_second = stream.t <= stream.t[0] + 1.0
    idx = np.flatnonzero(zv & first_second)
    if idx.size > 0:
        i0 = i1 = idx[0]
        while i1 + 1 < len(stream) and zv[i1 + 1]:
            i1 += 1
        mean_accel = stream.accel[i0:i1 + 1].mean(axis=0)
    else:
        warnings.warn(
            "no stationary samples in the first second; leveling from the first 50 samples",
            stacklevel=2,
        )
        mean_accel = stream.accel[:min(50, len(stream))].mean(axis=0)

    q0 = level_from_accel(mean_accel)
    pos, vel, quat = _ins_loop(
        stream.t, stream.accel, stream.gyro, zv,
        cfg.p0, cfg.v0, q0.as_array(), cfg.initial_covariance(),
        cfg.g, cfg.sigma_accel, cfg.sigma_gyro, cfg.sigma_zupt,
    )
    return Trajectory(stream.t.copy(), pos, vel, quat, zv.copy())
