"""File formats: CSV logs, survey/map/report JSON, key-value config files.

Each CSV format is one row of ``CSV_FORMATS``: its header, the widths of its
float column groups, and the dtypes of the integer columns after them.
``_write_csv`` and ``_read_csv`` take and give one array per group, in that
order: 1-d for width 1, else (n, width). Floats are written with ``repr``
(shortest round-trip form) and integer or bool columns as ints, so equal
inputs give byte-identical files and a read returns the written values.

An IMU log states no rate. ``read_imu_csv`` holds the one rule on how
regular its timestamps must be: every step within ``JITTER_TOLERANCE`` of
the median step. Config keys are the rows of ``CONFIG_TABLE``:
(key, target, cast), each key the name of the target's field it sets.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import ImuStream, gravity_vector, read_json_object, write_json
from .detector import DetectorParams
from .ekf import EkfConfig, Trajectory
from .evaluate import TriggerLog
from .optimize import MocapStream, PrCurve
from .survey import MarkerMap, MarkerObservation

CSV_FORMATS = {
    "imu": ("t,ax,ay,az,wx,wy,wz", (1, 3, 3), ()),
    "mocap": ("t,x,y,z", (1, 3), ()),
    "trajectory": ("t,px,py,pz,vx,vy,vz,qw,qx,qy,qz,zupt", (1, 3, 3, 4), (bool,)),
    "detect": ("t,stationary", (1,), (bool,)),
    "pr_curve": ("gamma,precision,recall,f_beta", (1, 1, 1, 1), ()),
    "predict": ("t,y_raw,y_smooth", (1,), (np.int64, np.int64)),
    "truth": ("t,x,y,z,vx,vy,vz,stance,class", (1, 3, 3), (bool, np.int64)),
    "trigger": ("t,marker_id", (1,), (np.int64,)),
}
# largest accepted deviation of an IMU log's timestamp step from its median step, per median step
JITTER_TOLERANCE = 0.1


def _write_csv(path, fmt: str, *columns) -> None:
    header, widths, ints = CSV_FORMATS[fmt]
    rows = np.column_stack(columns[:len(widths)]).astype(np.float64, copy=False).tolist()
    if ints:
        int_rows = np.column_stack(columns[len(widths):]).astype(np.int64).tolist()
        rows = [f + i for f, i in zip(rows, int_rows)]
    lines = [header]
    lines.extend(",".join(map(repr, row)) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def _read_csv(path, fmt: str) -> list[np.ndarray]:
    """A format's columns; a malformed line, or a value an integer or bool column
    cannot hold, fails naming its 1-based number."""
    header, widths, ints = CSV_FORMATS[fmt]
    text = Path(path).read_text()
    lines = text.strip().splitlines()
    if not lines or lines[0].strip() != header:
        raise ValueError(f"{path}: expected header '{header}'")
    names = header.split(",")
    body_line = 2 + text[:len(text) - len(text.lstrip())].count("\n")
    try:
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        data = np.array(rows) if rows else np.empty((0, len(names)))
    except ValueError:
        data = None
    if data is None or data.shape[1:] != (len(names),):
        raise ValueError(_malformed_line(path, lines[1:], len(names), body_line))
    columns, col = [], 0
    for w in widths:
        columns.append(data[:, col] if w == 1 else data[:, col:col + w])
        col += w
    for k, dtype in enumerate(ints, start=col):
        for lineno, value in enumerate(data[:, k].tolist(), start=body_line):
            try:
                if dtype is bool and value not in (0, 1):
                    raise ValueError("not 0 or 1")
                if not -2**63 <= _whole_number(value) < 2**63:
                    raise ValueError("out of the int64 range")
            except (ValueError, OverflowError) as exc:  # int() of infinity
                raise ValueError(f"{path}, line {lineno}: {names[k]} = {value!r}: {exc}") from None
        columns.append(data[:, k].astype(dtype))
    return columns


def _read_log(path, fmt: str, make):
    """``make`` of a format's columns; a value ``make`` rejects fails naming the file."""
    columns = _read_csv(path, fmt)
    try:
        return make(*columns)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _malformed_line(path, lines, width: int, first_lineno: int) -> str:
    for lineno, line in enumerate(lines, start=first_lineno):
        fields = line.split(",")
        if len(fields) != width:
            return f"{path}, line {lineno}: expected {width} fields, found {len(fields)}"
        for v in fields:
            try:
                float(v)
            except ValueError:
                return f"{path}, line {lineno}: cannot read {v.strip()!r} as a number"
    return f"{path}: malformed CSV body"


# --- CSV logs -----------------------------------------------------------------


def write_imu_csv(path, stream: ImuStream) -> None:
    _write_csv(path, "imu", stream.t, stream.accel, stream.gyro)


def read_imu_csv(path) -> ImuStream:
    """An IMU log whose every timestamp step lies within ``JITTER_TOLERANCE`` of the median step."""
    stream = _read_log(path, "imu", ImuStream)
    if len(stream) >= 2:
        steps = np.diff(stream.t)
        median = np.median(steps)
        if np.max(np.abs(steps - median)) > JITTER_TOLERANCE * median:
            raise ValueError(f"{path}: timestamp jitter exceeds tolerance "
                             f"({JITTER_TOLERANCE:.0%} of the median step)")
    return stream


def write_mocap_csv(path, mocap: MocapStream) -> None:
    _write_csv(path, "mocap", mocap.t, mocap.pos)


def read_mocap_csv(path) -> MocapStream:
    return _read_log(path, "mocap", MocapStream)


def write_trajectory_csv(path, traj: Trajectory) -> None:
    _write_csv(path, "trajectory", traj.t, traj.pos, traj.vel, traj.quat, traj.zupt)


def read_trajectory_csv(path) -> Trajectory:
    return Trajectory(*_read_csv(path, "trajectory"))


def write_detect_csv(path, t: np.ndarray, stationary: np.ndarray) -> None:
    _write_csv(path, "detect", t, stationary)


def write_pr_curve_csv(path, curve: PrCurve) -> None:
    _write_csv(path, "pr_curve", curve.gamma, curve.precision, curve.recall, curve.f_beta)


def write_predict_csv(path, t: np.ndarray, raw: np.ndarray, smoothed) -> None:
    _write_csv(path, "predict", t, raw, raw if smoothed is None else smoothed)


def write_truth_csv(path, truth) -> None:
    _write_csv(path, "truth", truth.t, truth.pos, truth.vel, truth.stance, truth.labels)


def read_truth_csv(path) -> dict:
    return dict(zip(("t", "pos", "vel", "stance", "labels"), _read_csv(path, "truth")))


def write_trigger_csv(path, triggers: TriggerLog) -> None:
    _write_csv(path, "trigger", triggers.t, triggers.marker_ids)


def read_trigger_csv(path) -> TriggerLog:
    return _read_log(path, "trigger", TriggerLog)


# --- markers, surveys ------------------------------------------------------------


def write_marker_map_json(path, marker_map: MarkerMap) -> None:
    data = {
        "markers": [
            {"id": int(mid), "pos": [float(v) for v in marker_map.positions[i]]}
            for i, mid in enumerate(marker_map.marker_ids)
        ],
        "loop_closure_m": float(marker_map.loop_closure_m),
        "path_length_m": float(marker_map.path_length_m),
    }
    write_json(path, data)


def read_marker_map_json(path) -> MarkerMap:
    return read_json_object(path, "a marker map", _marker_map_from_dict)


def _marker_map_from_dict(data: dict) -> MarkerMap:
    ids = tuple(int(m["id"]) for m in data["markers"])
    pos = np.array([m["pos"] for m in data["markers"]], dtype=np.float64)
    return MarkerMap(ids, pos, float(data["loop_closure_m"]), float(data["path_length_m"]))


def read_survey_json(path) -> list[list[MarkerObservation]]:
    """Stations with their marker observations, in file order."""
    return read_json_object(path, "a survey", _stations_from_dict)


def _stations_from_dict(data: dict) -> list[list[MarkerObservation]]:
    stations = []
    for st in data["stations"]:
        sid = int(st["station_id"])
        obs = [
            MarkerObservation(int(o["marker_id"]), np.asarray(o["points"], dtype=np.float64), sid)
            for o in st["observations"]
        ]
        stations.append(obs)
    return stations


def write_survey_json(path, stations) -> None:
    data = {
        "stations": [
            {
                "station_id": int(obs[0].station_id),
                "observations": [
                    {"marker_id": int(o.marker_id), "points": o.points.tolist()}
                    for o in obs
                ],
            }
            for obs in stations
        ]
    }
    write_json(path, data)


# --- key-value config ---------------------------------------------------------


def _whole_number(value: float) -> int:
    whole = int(value)  # NaN and infinity fail here
    if whole != value:
        raise ValueError("not a whole number")
    return whole


# One row per field a config key sets: (key, target, cast); the key is the
# field's name. ``gravity`` sets two, the detector's magnitude and the
# filter's gravity vector.
CONFIG_TABLE = (
    ("window", DetectorParams, _whole_number),
    ("sigma_a", DetectorParams, float),
    ("sigma_w", DetectorParams, float),
    ("gravity", DetectorParams, float),
    ("gravity", EkfConfig, gravity_vector),
    ("sigma_accel", EkfConfig, float),
    ("sigma_gyro", EkfConfig, float),
    ("sigma_zupt", EkfConfig, float),
    ("init_pos_std", EkfConfig, float),
    ("init_vel_std", EkfConfig, float),
    ("init_att_std", EkfConfig, float),
)
CONFIG_KEYS = tuple(dict.fromkeys(key for key, *_ in CONFIG_TABLE))


def load_config(path) -> dict[str, float]:
    """Parse a ``key = value`` text config; '#' starts a comment.

    Every key must be one of ``CONFIG_KEYS`` and appear once, so a misspelt
    or repeated key fails instead of silently leaving another value in place.
    """
    out: dict[str, float] = {}
    for lineno, raw_line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}, line {lineno}"
        if "=" not in line:
            raise ValueError(f"{where}: config line without '=': {raw_line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"{where}: unknown config key {key!r} "
                             f"(known keys: {', '.join(CONFIG_KEYS)})")
        if key in out:
            raise ValueError(f"{where}: config key {key!r} is set again")
        try:
            out[key] = float(value)
        except ValueError:
            raise ValueError(f"{where}: cannot read {value!r} as a number") from None
    return out
