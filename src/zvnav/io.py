"""File formats: CSV logs, survey/map/report JSON, key-value config files.

Floats are written with ``repr`` (shortest round-trip form), so identical
inputs always produce byte-identical files.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import ImuStream
from .ekf import Trajectory
from .evaluate import TriggerLog
from .optimize import MocapStream, PrCurve
from .survey import MarkerMap, MarkerObservation

IMU_HEADER = "t,ax,ay,az,wx,wy,wz"
MOCAP_HEADER = "t,x,y,z"
TRAJECTORY_HEADER = "t,px,py,pz,vx,vy,vz,qw,qx,qy,qz,zupt"
DETECT_HEADER = "t,stationary"
PR_CURVE_HEADER = "gamma,precision,recall,f_beta"
PREDICT_HEADER = "t,y_raw,y_smooth"
TRUTH_HEADER = "t,x,y,z,vx,vy,vz,stance,class"
TRIGGER_HEADER = "t,marker_id"


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def _read_csv(path, header: str) -> np.ndarray:
    """Numeric body of a CSV file; a malformed line fails naming its 1-based number."""
    text = Path(path).read_text()
    lines = text.strip().splitlines()
    if not lines or lines[0].strip() != header:
        raise ValueError(f"{path}: expected header '{header}'")
    width = len(header.split(","))
    if len(lines) == 1:
        return np.empty((0, width))
    try:
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        if data.shape[1:] == (width,):
            return data
    except ValueError:
        pass
    header_line = 1 + text[:len(text) - len(text.lstrip())].count("\n")
    raise ValueError(_malformed_line(path, lines[1:], width, header_line + 1))


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


# --- IMU / mocap logs -------------------------------------------------------


def write_imu_csv(path, stream: ImuStream) -> None:
    rows = (
        [_fmt(stream.t[i])] + [_fmt(v) for v in stream.accel[i]] + [_fmt(v) for v in stream.gyro[i]]
        for i in range(len(stream))
    )
    _write_csv(path, IMU_HEADER, rows)


def read_imu_csv(path, rate_hz: float | None = None, jitter_tol: float = 0.1) -> ImuStream:
    data = _read_csv(path, IMU_HEADER)
    if data.shape[0] < 1:
        raise ValueError(f"{path}: empty IMU log")
    t = data[:, 0]
    dts = np.diff(t)
    if np.any(dts <= 0):
        raise ValueError(f"{path}: timestamps must be strictly increasing")
    if rate_hz is None:
        rate_hz = 1.0 / float(np.median(dts)) if t.shape[0] >= 2 else 125.0
    try:
        return ImuStream(t, data[:, 1:4], data[:, 4:7], rate_hz, jitter_tol)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_mocap_csv(path, mocap: MocapStream) -> None:
    rows = (
        [_fmt(mocap.t[i])] + [_fmt(v) for v in mocap.pos[i]]
        for i in range(len(mocap))
    )
    _write_csv(path, MOCAP_HEADER, rows)


def read_mocap_csv(path) -> MocapStream:
    data = _read_csv(path, MOCAP_HEADER)
    return MocapStream(data[:, 0], data[:, 1:4])


# --- trajectories and detector output ---------------------------------------


def write_trajectory_csv(path, traj: Trajectory) -> None:
    rows = (
        [_fmt(traj.t[i])]
        + [_fmt(v) for v in traj.pos[i]]
        + [_fmt(v) for v in traj.vel[i]]
        + [_fmt(v) for v in traj.quat[i]]
        + [str(int(traj.zupt[i]))]
        for i in range(len(traj))
    )
    _write_csv(path, TRAJECTORY_HEADER, rows)


def read_trajectory_csv(path) -> Trajectory:
    data = _read_csv(path, TRAJECTORY_HEADER)
    return Trajectory(
        data[:, 0], data[:, 1:4], data[:, 4:7], data[:, 7:11],
        data[:, 11].astype(bool),
    )


def write_detect_csv(path, t: np.ndarray, stationary: np.ndarray) -> None:
    rows = ([_fmt(t[i]), str(int(stationary[i]))] for i in range(t.shape[0]))
    _write_csv(path, DETECT_HEADER, rows)


def write_pr_curve_csv(path, curve: PrCurve) -> None:
    rows = (
        [_fmt(curve.gamma[i]), _fmt(curve.precision[i]), _fmt(curve.recall[i]), _fmt(curve.f_beta[i])]
        for i in range(len(curve))
    )
    _write_csv(path, PR_CURVE_HEADER, rows)


def write_predict_csv(path, t: np.ndarray, raw: np.ndarray, smoothed) -> None:
    sm = raw if smoothed is None else smoothed
    rows = ([_fmt(t[i]), str(int(raw[i])), str(int(sm[i]))] for i in range(t.shape[0]))
    _write_csv(path, PREDICT_HEADER, rows)


# --- simulator truth ---------------------------------------------------------


def write_truth_csv(path, truth) -> None:
    rows = (
        [_fmt(truth.t[i])]
        + [_fmt(v) for v in truth.pos[i]]
        + [_fmt(v) for v in truth.vel[i]]
        + [str(int(truth.stance[i])), str(int(truth.labels[i]))]
        for i in range(truth.t.shape[0])
    )
    _write_csv(path, TRUTH_HEADER, rows)


def read_truth_csv(path) -> dict:
    data = _read_csv(path, TRUTH_HEADER)
    return {
        "t": data[:, 0],
        "pos": data[:, 1:4],
        "vel": data[:, 4:7],
        "stance": data[:, 7].astype(bool),
        "labels": data[:, 8].astype(np.int64),
    }


# --- triggers, markers, surveys ----------------------------------------------


def write_trigger_csv(path, triggers: TriggerLog) -> None:
    rows = ([_fmt(triggers.t[i]), str(int(triggers.marker_ids[i]))] for i in range(len(triggers)))
    _write_csv(path, TRIGGER_HEADER, rows)


def read_trigger_csv(path) -> TriggerLog:
    data = _read_csv(path, TRIGGER_HEADER)
    return TriggerLog(data[:, 0], data[:, 1].astype(np.int64))


def write_marker_map_json(path, marker_map: MarkerMap) -> None:
    data = {
        "markers": [
            {"id": int(mid), "pos": [float(v) for v in marker_map.positions[i]]}
            for i, mid in enumerate(marker_map.marker_ids)
        ],
        "loop_closure_m": float(marker_map.loop_closure_m),
        "path_length_m": float(marker_map.path_length_m),
    }
    Path(path).write_text(json.dumps(data, sort_keys=True, indent=1))


def read_marker_map_json(path) -> MarkerMap:
    data = json.loads(Path(path).read_text())
    ids = tuple(int(m["id"]) for m in data["markers"])
    pos = np.array([m["pos"] for m in data["markers"]], dtype=np.float64)
    return MarkerMap(ids, pos, float(data["loop_closure_m"]), float(data["path_length_m"]))


def read_survey_json(path) -> list[list[MarkerObservation]]:
    """Stations with their marker observations, in file order."""
    data = json.loads(Path(path).read_text())
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
    Path(path).write_text(json.dumps(data, sort_keys=True, indent=1))


# --- key-value config ---------------------------------------------------------


CONFIG_KEYS = (
    "window", "sigma_a", "sigma_w", "gamma", "gravity", "sigma_accel", "sigma_gyro",
    "sigma_zupt", "init_pos_std", "init_vel_std", "init_att_std", "rate_hz",
)


def load_config(path) -> dict[str, float]:
    """Parse a ``key = value`` text config; '#' starts a comment.

    Every key must be one of ``CONFIG_KEYS``, so a misspelt key fails
    instead of silently leaving its default in place.
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
        try:
            out[key] = float(value)
        except ValueError:
            raise ValueError(f"{where}: cannot read {value!r} as a number") from None
    return out
