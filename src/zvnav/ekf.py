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

The step kernels are ``propagate`` and ``zupt_update``: pure functions that
take p, v and q as float tuples (or arrays) and the 9x9 covariance P as an
array, and return new ones, with p, v and q as tuples of Python floats.
Scalar arithmetic stays on Python floats; numpy runs only the matrix
products R @ accel, F @ P @ F.T, P[:, 3:6] @ inv(S), K @ (-v),
IKH @ P @ IKH.T and K @ K.T. Those stay BLAS products, because a
hand-written sum rounds differently in the last bits. ``run_ins`` loops the
kernels over a stream and is itself pure, so independent passes can run in
parallel: ``evaluate.run_trial`` runs its two fixed-threshold passes in
forked child processes beside the adaptive one.
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
    gravity_vector,
    GRAVITY,
)


@dataclass(frozen=True, eq=False)
class EkfConfig:
    """Filter noise levels, gravity and initial uncertainty.

    The filter always starts at rest at the origin. The detector's fixed
    tuning sigmas double as the default process-noise scale; none of these
    defaults claim to be measured sensor statistics.
    """

    sigma_accel: float = 0.01 * GRAVITY
    sigma_gyro: float = 0.00174
    sigma_zupt: float = 0.01
    g: np.ndarray = field(default_factory=gravity_vector)
    init_pos_std: float = 1e-3
    init_vel_std: float = 1e-2
    init_att_std: float = 1e-2

    def __post_init__(self):
        for name in ("sigma_accel", "sigma_gyro", "sigma_zupt",
                     "init_pos_std", "init_vel_std", "init_att_std"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        object.__setattr__(self, "g", np.asarray(self.g, dtype=np.float64))

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


_EYE9 = np.eye(9)


def propagate(p, v, q, P, accel, gyro, dt, g, sig_a, sig_g):
    """Advance position, velocity, quaternion and covariance by one IMU sample."""
    p0, p1, p2 = p
    v0, v1, v2 = v
    g0, g1, g2 = g
    f0, f1, f2 = (_rotmat_from_quat(q) @ accel).tolist()
    p_new = (p0 + v0 * dt, p1 + v1 * dt, p2 + v2 * dt)
    v_new = (v0 + (f0 + g0) * dt, v1 + (f1 + g1) * dt, v2 + (f2 + g2) * dt)
    w0, w1, w2 = gyro
    q_new = _quat_normalize(_quat_mul(q, _quat_from_rotvec((w0 * dt, w1 * dt, w2 * dt))))

    # F = I + [[0, I dt, 0], [0, 0, -[f_nav]x dt], [0, 0, 0]]; the zero
    # diagonal of -[f_nav]x dt is -0.0 * dt, as the product of the skew matrix
    F = _EYE9.copy()
    F[0, 3] = F[1, 4] = F[2, 5] = dt
    z = -0.0 * dt
    F[3:6, 6:9] = ((z, f2 * dt, -f1 * dt),
                   (-f2 * dt, z, f0 * dt),
                   (f1 * dt, -f0 * dt, z))

    P_new = F @ P @ F.T
    qa = (sig_a * dt) ** 2
    qg = (sig_g * dt) ** 2
    P_new[3, 3] += qa
    P_new[4, 4] += qa
    P_new[5, 5] += qa
    P_new[6, 6] += qg
    P_new[7, 7] += qg
    P_new[8, 8] += qg
    P_new = 0.5 * (P_new + P_new.T)
    return p_new, v_new, q_new, P_new


def zupt_update(p, v, q, P, sigma_zupt):
    """Fuse one zero-velocity pseudo-measurement and inject the correction."""
    r = sigma_zupt * sigma_zupt
    S = P[3:6, 3:6].copy()
    S[0, 0] += r
    S[1, 1] += r
    S[2, 2] += r
    K = P[:, 3:6] @ np.linalg.inv(S)
    v0, v1, v2 = v
    d0, d1, d2, d3, d4, d5, d6, d7, d8 = (K @ np.array((-v0, -v1, -v2))).tolist()

    p0, p1, p2 = p
    p_new = (p0 + d0, p1 + d1, p2 + d2)
    v_new = (v0 + d3, v1 + d4, v2 + d5)
    q_new = _quat_normalize(_quat_mul(_quat_from_rotvec((d6, d7, d8)), q))

    IKH = _EYE9.copy()
    IKH[:, 3:6] -= K
    P_new = IKH @ P @ IKH.T + r * (K @ K.T)
    P_new = 0.5 * (P_new + P_new.T)
    return p_new, v_new, q_new, P_new


def _ins_loop(t, accel, gyro, zv, q0, P0, g, sig_a, sig_g, sig_z):
    # gyro and dt become floats one sample at a time: whole-array .tolist()
    # copies leave ~2 MB of freed Python objects behind, raising peak RSS
    n = t.shape[0]
    dts = np.diff(t)
    zv = zv.tolist()
    g = g.tolist()
    out = np.empty((n, 10))
    p, v, q, P = (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), tuple(q0.tolist()), P0
    if zv[0]:
        p, v, q, P = zupt_update(p, v, q, P, sig_z)
    out[0] = p + v + q
    for k in range(1, n):
        dt = dts.item(k - 1)
        p, v, q, P = propagate(p, v, q, P, accel[k], gyro[k].tolist(), dt, g, sig_a, sig_g)
        if zv[k]:
            p, v, q, P = zupt_update(p, v, q, P, sig_z)
        out[k] = p + v + q
    return out[:, 0:3], out[:, 3:6], out[:, 6:10]


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
        q0.as_array(), cfg.initial_covariance(),
        cfg.g, cfg.sigma_accel, cfg.sigma_gyro, cfg.sigma_zupt,
    )
    return Trajectory(stream.t.copy(), pos, vel, quat, zv.copy())
