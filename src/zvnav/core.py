"""Shared math and sensor-data types: quaternions, rigid transforms, IMU streams.

Conventions used throughout the package:

- Quaternions are Hamilton, scalar-first (w, x, y, z) and represent the
  body-to-navigation rotation: ``R(q) @ v_body`` is the vector in the
  navigation frame.
- The navigation frame is z-up; gravity points down,
  ``g_vec = (0, 0, -9.80665)`` by default.
- All types are immutable values and all operations are pure functions, so
  they are safe to share between threads.
- The EKF step state is floats: the quaternion helpers below take any
  sequence of floats (a numpy array included), use ``math`` and return
  tuples of floats. Only ``_rotmat_from_quat`` returns an array, the operand
  of the EKF's ``R @ accel`` product.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


GRAVITY = 9.80665


def gravity_vector(magnitude: float = GRAVITY) -> np.ndarray:
    """Gravity acceleration vector in the z-up navigation frame."""
    return np.array([0.0, 0.0, -magnitude])


class StepTooLargeError(ValueError):
    """A single-step incremental rotation reached or exceeded pi radians.

    Usually a symptom of sensor dropout or a wrong sampling period.
    """


# ---------------------------------------------------------------------------
# float-level kernels, shared by the EKF hot loop
# ---------------------------------------------------------------------------


def _quat_normalize(q):
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return w / n, x / n, y / n, z / n


def _quat_mul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def _quat_from_rotvec(phi):
    x, y, z = phi
    angle = math.sqrt(x * x + y * y + z * z)
    if angle < 1e-12:
        # first order; renormalized below
        return _quat_normalize((1.0, 0.5 * x, 0.5 * y, 0.5 * z))
    half = 0.5 * angle
    s = math.sin(half) / angle
    return _quat_normalize((math.cos(half), x * s, y * s, z * s))


def _rotmat_from_quat(q) -> np.ndarray:
    w, x, y, z = q
    return np.array([
        [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
        [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
        [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
    ])


# ---------------------------------------------------------------------------
# quaternion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Quaternion:
    """Unit-norm oriented quaternion, Hamilton convention, scalar first."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        comps = (self.w, self.x, self.y, self.z)
        if not all(math.isfinite(c) for c in comps):
            raise ValueError("quaternion components must be finite")
        if all(c == 0.0 for c in comps):
            raise ValueError("quaternion must have non-zero norm")

    @classmethod
    def identity(cls) -> "Quaternion":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_array(cls, q: np.ndarray) -> "Quaternion":
        return cls(float(q[0]), float(q[1]), float(q[2]), float(q[3]))

    @classmethod
    def from_rotvec(cls, phi) -> "Quaternion":
        """Exact exponential map of a rotation vector (axis * angle, rad)."""
        phi = np.asarray(phi, dtype=np.float64)
        return cls.from_array(_quat_from_rotvec(phi))

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    @property
    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def normalized(self) -> "Quaternion":
        return Quaternion.from_array(_quat_normalize(self.as_array()))


def quat_to_rotation(q: Quaternion) -> np.ndarray:
    """Rotation matrix of ``q`` (normalized internally), mapping body to nav."""
    arr = q.as_array()
    if not np.all(np.isfinite(arr)):
        raise ValueError("quaternion components must be finite")
    return _rotmat_from_quat(_quat_normalize(arr))


def omega_update(q_prev: Quaternion, phi) -> Quaternion:
    """Advance ``q_prev`` by the body-frame incremental rotation ``phi``.

    ``phi`` is an axis-angle rotation vector (rad), typically gyro * dt for
    one sampling step. Uses the exact axis-angle quaternion rather than a
    first-order 4x4 update; the result is renormalized, so arbitrarily long
    update chains keep unit norm.

    Raises
    ------
    StepTooLargeError
        If ``|phi| >= pi``; one integration step should never rotate that
        far, so this signals sensor dropout or a wrong sampling period.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (3,):
        raise ValueError("phi must be a 3-vector")
    if not np.all(np.isfinite(phi)):
        raise ValueError("phi must be finite")
    angle = float(np.linalg.norm(phi))
    if angle >= math.pi:
        raise StepTooLargeError(f"|phi| = {angle:.6f} rad >= pi in one step")
    out = _quat_mul(q_prev.as_array(), _quat_from_rotvec(phi))
    return Quaternion.from_array(_quat_normalize(out))


# ---------------------------------------------------------------------------
# rigid transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Se3Transform:
    """Rigid transform: ``apply(p) = rotation @ p + translation``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        if R.shape != (3, 3) or t.shape != (3,):
            raise ValueError("rotation must be 3x3 and translation a 3-vector")
        if not (np.all(np.isfinite(R)) and np.all(np.isfinite(t))):
            raise ValueError("transform entries must be finite")
        if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-9:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > 1e-9:
            raise ValueError("rotation must have determinant +1")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "Se3Transform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points) -> np.ndarray:
        """Apply to one point (3,) or a stack of points (..., 3)."""
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation

    def inverse(self) -> "Se3Transform":
        Rt = self.rotation.T
        return Se3Transform(Rt, -Rt @ self.translation)


def se3_compose(a: Se3Transform, b: Se3Transform) -> Se3Transform:
    """Composition ``a o b``: applying the result equals applying b, then a."""
    return Se3Transform(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


# ---------------------------------------------------------------------------
# sensor data
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ImuStream:
    """Ordered 6-axis IMU samples at a nominal fixed rate (125 Hz default).

    Timestamps must be strictly increasing with jitter relative to the
    nominal period below ``jitter_tol`` (fraction of dt). Integration always
    uses the measured per-sample dt, not the nominal one.
    """

    t: np.ndarray
    accel: np.ndarray
    gyro: np.ndarray
    rate_hz: float = 125.0
    jitter_tol: float = 0.1

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.float64)
        a = np.asarray(self.accel, dtype=np.float64)
        w = np.asarray(self.gyro, dtype=np.float64)
        n = t.shape[0]
        if n < 1:
            raise ValueError("stream must contain at least one sample")
        if a.shape != (n, 3) or w.shape != (n, 3):
            raise ValueError("accel and gyro must have shape (n, 3)")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(a)) and np.all(np.isfinite(w))):
            raise ValueError("stream values must be finite")
        if self.rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        if n >= 2:
            dts = np.diff(t)
            if np.any(dts <= 0):
                raise ValueError("timestamps must be strictly increasing")
            if np.max(np.abs(dts - self.dt)) > self.jitter_tol * self.dt:
                raise ValueError(
                    "timestamp jitter exceeds tolerance "
                    f"({self.jitter_tol:.0%} of the nominal period)"
                )
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "accel", a)
        object.__setattr__(self, "gyro", w)

    @property
    def dt(self) -> float:
        """Nominal sampling period."""
        return 1.0 / self.rate_hz

    def __len__(self) -> int:
        return self.t.shape[0]

    def __getitem__(self, key) -> "ImuStream":
        if not isinstance(key, slice):
            raise TypeError("index streams with slices; read one sample from .t, .accel and .gyro")
        return ImuStream(self.t[key], self.accel[key], self.gyro[key], self.rate_hz, self.jitter_tol)


@dataclass(frozen=True, eq=False)
class ZvLabelStream:
    """Timestamped zero-velocity ground-truth labels."""

    t: np.ndarray
    stationary: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.float64)
        s = np.asarray(self.stationary, dtype=bool)
        if t.ndim != 1 or s.shape != t.shape:
            raise ValueError("t and stationary must be 1-d arrays of equal length")
        if t.shape[0] >= 2 and np.any(np.diff(t) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "stationary", s)

    def __len__(self) -> int:
        return self.t.shape[0]
