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

The step kernels are ``propagate`` and ``zupt_update``: they take p, v and q
as float tuples (or arrays), the 9x9 covariance P and a ``Workspace`` of
scratch arrays (F, R, F P F^T, S, I - KH), and return new p, v, q and P,
with p, v and q as tuples of Python floats. ``run_ins`` makes one workspace
per call and reuses it for every sample; no scratch lives at module level.
Scalar arithmetic stays on Python floats; numpy runs only the matrix
products R @ accel, F @ P @ F.T, P[:, 3:6] @ inv(S), K @ (-v),
IKH @ P @ IKH.T and K @ K.T, with the operands, shapes and layouts that new
arrays would have. Those stay BLAS products, because a hand-written sum
rounds differently in the last bits. ``run_ins`` is pure, so independent
passes can run in parallel: ``evaluate.score_flags`` runs all its passes but
the last in one forked child process beside the last. It is also causal: on
a prefix of the stream that holds its ``leveling_samples``, it gives the
whole stream's states bit for bit, which is how ``score_flags`` runs the
child's passes only as far as the triggers.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ImuStream,
    _quat_from_rotvec,
    _quat_mul,
    _quat_normalize,
    _rotmat_entries,
    gravity_vector,
    require_positive,
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
    gravity: np.ndarray = field(default_factory=gravity_vector)
    init_pos_std: float = 1e-3
    init_vel_std: float = 1e-2
    init_att_std: float = 1e-2

    def __post_init__(self):
        for name in ("sigma_accel", "sigma_gyro", "sigma_zupt",
                     "init_pos_std", "init_vel_std", "init_att_std"):
            require_positive(self, name)
            value = getattr(self, name)
            # the filter squares each one, and a float ** that overflows raises
            if math.isinf(value * value):
                raise ValueError(f"{name} = {value:g} is too large: its square overflows")
        gravity = np.asarray(self.gravity, dtype=np.float64)
        if not np.all(np.isfinite(gravity)):
            raise ValueError("gravity must be finite")
        object.__setattr__(self, "gravity", gravity)

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


_EYE9_V = np.eye(9)[:, 3:6]  # the constant part of I - KH's velocity columns
_EYE9_V.flags.writeable = False
# np.linalg.inv's gufunc without the wrapper's checks: a singular S gives NaNs
_inv = np.linalg._umath_linalg.inv


class Workspace:
    """The step kernels' scratch arrays and flat memoryviews of their entries.

    F and I - KH keep their constant entries between steps. One sequence of
    steps owns a workspace; threads never share one."""

    def __init__(self):
        self.F, self.R, self.FPF, self.S, self.IKH = (
            np.eye(9), np.empty((3, 3)), np.empty((9, 9)), np.empty((3, 3)), np.eye(9))
        self.F_flat, self.R_flat, self.FPF_flat, self.S_flat = (
            memoryview(a).cast("B").cast("d") for a in (self.F, self.R, self.FPF, self.S))
        self.IKH_V = self.IKH[:, 3:6]


def propagate(p, v, q, P, accel, gyro, dt, g, sig_a, sig_g, ws):
    """Advance position, velocity, quaternion and covariance by one IMU sample."""
    p0, p1, p2 = p
    v0, v1, v2 = v
    g0, g1, g2 = g
    m = ws.R_flat
    m[0], m[1], m[2], m[3], m[4], m[5], m[6], m[7], m[8] = _rotmat_entries(q)
    f0, f1, f2 = (ws.R @ accel).tolist()
    p_new = (p0 + v0 * dt, p1 + v1 * dt, p2 + v2 * dt)
    v_new = (v0 + (f0 + g0) * dt, v1 + (f1 + g1) * dt, v2 + (f2 + g2) * dt)
    w0, w1, w2 = gyro
    q_new = _quat_normalize(_quat_mul(q, _quat_from_rotvec((w0 * dt, w1 * dt, w2 * dt))))

    # F = I + [[0, I dt, 0], [0, 0, -[f_nav]x dt], [0, 0, 0]]; the zero
    # diagonal of -[f_nav]x dt is -0.0 * dt, as the product of the skew matrix
    m = ws.F_flat
    z = -0.0 * dt
    m[3] = m[13] = m[23] = dt
    m[33], m[34], m[35] = z, f2 * dt, -f1 * dt
    m[42], m[43], m[44] = -f2 * dt, z, f0 * dt
    m[51], m[52], m[53] = f1 * dt, -f0 * dt, z

    np.matmul(ws.F @ P, ws.F.T, out=ws.FPF)
    qa = (sig_a * dt) ** 2
    qg = (sig_g * dt) ** 2
    m = ws.FPF_flat
    m[30], m[40], m[50] = m[30] + qa, m[40] + qa, m[50] + qa
    m[60], m[70], m[80] = m[60] + qg, m[70] + qg, m[80] + qg
    return p_new, v_new, q_new, 0.5 * (ws.FPF + ws.FPF.T)


def zupt_update(p, v, q, P, sigma_zupt, ws):
    """Fuse one zero-velocity pseudo-measurement and inject the correction."""
    r = sigma_zupt * sigma_zupt
    ws.S[...] = P[3:6, 3:6]
    m = ws.S_flat
    m[0], m[4], m[8] = m[0] + r, m[4] + r, m[8] + r
    K = P[:, 3:6] @ _inv(ws.S, signature="d->d")
    v0, v1, v2 = v
    d0, d1, d2, d3, d4, d5, d6, d7, d8 = (K @ np.array((-v0, -v1, -v2))).tolist()

    p0, p1, p2 = p
    p_new = (p0 + d0, p1 + d1, p2 + d2)
    v_new = (v0 + d3, v1 + d4, v2 + d5)
    q_new = _quat_normalize(_quat_mul(_quat_from_rotvec((d6, d7, d8)), q))

    np.subtract(_EYE9_V, K, out=ws.IKH_V)
    P_new = ws.IKH @ P @ ws.IKH.T + r * (K @ K.T)
    return p_new, v_new, q_new, 0.5 * (P_new + P_new.T)


def _ins_loop(t, accel, gyro, zv, q0, P0, g, sig_a, sig_g, sig_z):
    # gyro and dt become floats one sample at a time: whole-array .tolist()
    # copies leave ~2 MB of freed Python objects behind, raising peak RSS
    n = t.shape[0]
    dts = np.diff(t)
    zv = zv.tolist()
    g = g.tolist()
    out = np.empty((n, 10))
    ws = Workspace()
    p, v, q, P = (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), q0, P0
    k = 0
    # a diverging filter overflows: numpy stays silent, and the check below reports it
    with np.errstate(all="ignore"):
        try:
            if zv[0]:
                p, v, q, P = zupt_update(p, v, q, P, sig_z, ws)
            out[0] = p + v + q
            for k in range(1, n):
                dt = dts.item(k - 1)
                p, v, q, P = propagate(p, v, q, P, accel[k], gyro[k].tolist(), dt, g,
                                       sig_a, sig_g, ws)
                if zv[k]:
                    p, v, q, P = zupt_update(p, v, q, P, sig_z, ws)
                out[k] = p + v + q
        # math.sin of an infinite rotation angle; (sigma * dt) ** 2 at a low sample rate
        except (ValueError, OverflowError):
            out[k:] = math.nan
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if bad.size:
        raise ValueError(f"the filter diverged: its state is not finite at t = {t[bad[0]]:.3f} s")
    return out[:, 0:3], out[:, 3:6], out[:, 6:10]


def level_from_accel(mean_accel) -> tuple:
    """Roll/pitch attitude from a mean stationary specific-force reading.

    Returns the minimal (zero-yaw) rotation mapping the measured mean accel
    direction onto +z, so that gravity is vertical in the navigation frame,
    as a (w, x, y, z) tuple of floats like the filter state.
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
            return 1.0, 0.0, 0.0, 0.0
        return _quat_from_rotvec((math.pi, 0.0, 0.0))
    angle = math.atan2(s, c)
    return _quat_from_rotvec((axis / s * angle).tolist())


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


def leveling_samples(t: np.ndarray, zv: np.ndarray) -> tuple[slice, bool]:
    """The samples ``run_ins`` levels from, and whether they are flagged stationary.

    They are the first contiguous stationary run that starts inside the
    first second, followed past it for as long as the flags hold; without
    one, the first 50 samples. A prefix of the stream that holds them levels
    alike.
    """
    idx = np.flatnonzero(zv & (t <= t[0] + 1.0))
    if idx.size == 0:
        return slice(0, min(50, t.shape[0])), False
    i0 = i1 = idx[0]
    while i1 + 1 < t.shape[0] and zv[i1 + 1]:
        i1 += 1
    return slice(i0, i1 + 1), True


def run_ins(stream: ImuStream, zv, cfg: EkfConfig | None = None) -> Trajectory:
    """Run the zero-velocity-aided INS over a stream.

    ``zv`` is one stationary flag per sample; the update is applied at every
    flagged sample. Initial roll/pitch is leveled from the mean accel of
    ``leveling_samples`` (warning when they fall back to the first 50
    samples); initial yaw is zero. A state that is not finite, from a
    diverging filter, raises ``ValueError``.
    """
    cfg = cfg or EkfConfig()
    zv = np.asarray(zv, dtype=bool)
    if zv.shape != (len(stream),):
        raise ValueError("zv must hold one flag per stream sample")

    span, stationary = leveling_samples(stream.t, zv)
    if not stationary:
        warnings.warn(
            "no stationary samples in the first second; leveling from the first 50 samples",
            stacklevel=2,
        )

    q0 = level_from_accel(stream.accel[span].mean(axis=0))
    pos, vel, quat = _ins_loop(
        stream.t, stream.accel, stream.gyro, zv,
        q0, cfg.initial_covariance(),
        cfg.gravity, cfg.sigma_accel, cfg.sigma_gyro, cfg.sigma_zupt,
    )
    return Trajectory(stream.t.copy(), pos, vel, quat, zv.copy())
