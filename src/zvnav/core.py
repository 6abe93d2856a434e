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
  tuples of floats. ``_rotmat_entries`` returns the rotation matrix as nine
  floats, which the EKF writes into the R of its workspace and
  ``quat_to_rotation`` into a new array. ``_quat_mul`` is plain arithmetic, so
  it also multiplies a stack: give it component arrays and it returns them.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


GRAVITY = 9.80665


def gravity_vector(magnitude: float = GRAVITY) -> np.ndarray:
    """Gravity acceleration vector in the z-up navigation frame."""
    return np.array([0.0, 0.0, -magnitude])


def require_positive(obj, *names: str) -> None:
    """Fail naming the first of ``obj``'s fields ``names``, or of a dict's entries,
    that is not positive and finite; an array fails if any element does."""
    values = obj.items() if isinstance(obj, dict) else ((n, getattr(obj, n)) for n in names)
    for name, value in values:
        if not np.all((0 < value) & (value < math.inf)):
            raise ValueError(f"{name} must be positive and finite")


def read_json_object(path, what: str, parse=dict):
    """``parse`` of a JSON file's top-level object, which should be ``what``.

    Bad JSON, a non-object, a missing key or a rejected value fails naming the file."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: not {what} (expected a JSON object)")
    try:
        return parse(data)
    except KeyError as exc:
        raise ValueError(f"{path}: not {what} (missing field '{exc.args[0]}')") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_json(path, data) -> None:
    """Write ``data`` as the text of ``json.dumps(data, sort_keys=True, indent=1)``.

    json encodes with ``indent`` in pure Python, one element at a time; here
    a list of finite floats is joined in one call, which is most of a model
    file. The pieces are written without joining them into one string, and
    all are made before the file is opened, so a value that cannot be
    encoded leaves no file. Non-finite floats, ``-0.0``, empty containers,
    non-string keys and unsupported types give the same text or the same
    ``TypeError``.
    """
    with Path(path).open("w") as f:
        f.writelines(list(_json_pieces(data, "\n")))


def _json_scalar(value) -> str | None:
    if isinstance(value, str):
        return json.encoder.encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    return None


def _json_key(key) -> str:
    if not isinstance(key, str):
        text = _json_scalar(key)
        if text is None:
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        key = text
    return json.encoder.encode_basestring_ascii(key)


def _json_pieces(value, newline: str):
    """The text of ``value``, in pieces; its nested lines start with ``newline`` and one space."""
    text = _json_scalar(value)
    if text is not None:
        yield text
        return
    inner = newline + " "
    sep = "," + inner
    if isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
            return
        if all(type(v) is float for v in value):
            body = sep.join(map(float.__repr__, value))
            if "n" not in body:  # finite: repr gives 'nan' and 'inf', json 'NaN' and 'Infinity'
                yield "[" + inner + body + newline + "]"
                return
        for k, v in enumerate(value):
            yield sep if k else "[" + inner
            yield from _json_pieces(v, inner)
        yield newline + "]"
    elif isinstance(value, dict):
        if not value:
            yield "{}"
            return
        for k, (key, v) in enumerate(sorted(value.items())):
            yield (sep if k else "{" + inner) + _json_key(key) + ": "
            yield from _json_pieces(v, inner)
        yield newline + "}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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


def _rotmat_entries(q) -> tuple:
    """Row-major entries of the rotation matrix of the unit quaternion ``q``."""
    w, x, y, z = q
    return (1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y),
            2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x),
            2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y))


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


def quat_to_rotation(q: Quaternion) -> np.ndarray:
    """Rotation matrix of ``q`` (normalized internally), mapping body to nav."""
    arr = q.as_array()
    if not np.all(np.isfinite(arr)):
        raise ValueError("quaternion components must be finite")
    return np.array(_rotmat_entries(_quat_normalize(arr))).reshape(3, 3)


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
    """Ordered 6-axis IMU samples: at least one, finite, at strictly increasing times.

    A stream states no rate; integration uses the measured per-sample step.
    How regular a log's steps must be is ``io.read_imu_csv``'s rule.
    """

    t: np.ndarray
    accel: np.ndarray
    gyro: np.ndarray

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
        if np.any(np.diff(t) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "accel", a)
        object.__setattr__(self, "gyro", w)

    def __len__(self) -> int:
        return self.t.shape[0]

    def __getitem__(self, key) -> "ImuStream":
        if not isinstance(key, slice):
            raise TypeError("index streams with slices; read one sample from .t, .accel and .gyro")
        return ImuStream(self.t[key], self.accel[key], self.gyro[key])
