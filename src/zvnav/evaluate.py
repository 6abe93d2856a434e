"""Trial evaluation: map-frame alignment, furthest-point error, method comparison.

An INS trajectory starts with arbitrary yaw, so it is registered to the
surveyed marker map with a rigid 2-D transform (yaw plus translation)
computed from the first two trigger-time positions against their markers.
Position error is then the 2-D distance between the trajectory at a trigger
timestamp (linearly interpolated between samples) and the surveyed marker;
the headline number is taken at the marker farthest from the origin along
the surveyed chain, where symmetric step-length errors cannot cancel the way
they do at loop closure.

``run_trial`` compares the two fixed thresholds against the adaptive
detector on one stream. Trials are independent and parallelizable; reports
are deterministic given inputs and seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import ImuStream, Quaternion
from .detector import AdaptiveParams, DetectorParams, detect, detect_adaptive
from .ekf import EkfConfig, Trajectory, run_ins
from .simulate import GaitTruth
from .survey import MarkerMap
from .svm import SvmModel, classify_motion

METHOD_WALK = "gamma_walk"
METHOD_RUN = "gamma_run"
METHOD_ADAPT = "gamma_adapt"


@dataclass(frozen=True, eq=False)
class TriggerLog:
    """Handheld trigger events: a timestamp per marker pass."""

    t: np.ndarray
    marker_ids: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.float64)
        ids = np.asarray(self.marker_ids, dtype=np.int64)
        if t.ndim != 1 or ids.shape != t.shape:
            raise ValueError("t and marker_ids must be 1-d arrays of equal length")
        if t.shape[0] >= 2 and np.any(np.diff(t) <= 0):
            raise ValueError("trigger timestamps must be strictly increasing")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "marker_ids", ids)

    def __len__(self) -> int:
        return self.t.shape[0]


@dataclass(frozen=True, eq=False)
class TrialReport:
    """Furthest-point and per-marker errors per thresholding method."""

    furthest_errors: dict
    per_marker_errors: dict
    svm_accuracy: float | None
    path_length: float

    def to_dict(self) -> dict:
        return {
            "furthest_point_error_m": {k: float(v) for k, v in self.furthest_errors.items()},
            "per_marker_error_m": {
                method: {str(mid): float(e) for mid, e in errors.items()}
                for method, errors in self.per_marker_errors.items()
            },
            "svm_accuracy": None if self.svm_accuracy is None else float(self.svm_accuracy),
            "path_length_m": float(self.path_length),
        }


def _interp_xy(traj: Trajectory, time: float) -> np.ndarray:
    if time < traj.t[0] or time > traj.t[-1]:
        raise ValueError(f"trigger time {time:.3f}s lies outside the trajectory span")
    x = np.interp(time, traj.t, traj.pos[:, 0])
    y = np.interp(time, traj.t, traj.pos[:, 1])
    return np.array([x, y])


def align_trajectory(traj: Trajectory, triggers: TriggerLog,
                     marker_map: MarkerMap) -> Trajectory:
    """Register a trajectory to the map frame with a rigid 2-D transform.

    The yaw and translation are fixed by the first two trigger-time
    trajectory positions against their surveyed markers; the whole
    trajectory (positions, velocities, attitude yaw) is transformed.
    """
    if len(triggers) < 2:
        raise ValueError("need at least two trigger events to align")
    a1 = _interp_xy(traj, float(triggers.t[0]))
    a2 = _interp_xy(traj, float(triggers.t[1]))
    m1 = marker_map.position_of(int(triggers.marker_ids[0]))[:2]
    m2 = marker_map.position_of(int(triggers.marker_ids[1]))[:2]

    va = a2 - a1
    vm = m2 - m1
    yaw = math.atan2(vm[1], vm[0]) - math.atan2(va[1], va[0])
    c, s = math.cos(yaw), math.sin(yaw)
    R2 = np.array([[c, -s], [s, c]])
    t2 = m1 - R2 @ a1

    pos = traj.pos.copy()
    pos[:, :2] = traj.pos[:, :2] @ R2.T + t2
    vel = traj.vel.copy()
    vel[:, :2] = traj.vel[:, :2] @ R2.T
    w, z = Quaternion.from_rotvec([0.0, 0.0, yaw]).as_array()[[0, 3]]
    q = traj.quat
    quat = np.column_stack([
        w * q[:, 0] - z * q[:, 3],
        w * q[:, 1] - z * q[:, 2],
        w * q[:, 2] + z * q[:, 1],
        w * q[:, 3] + z * q[:, 0],
    ])
    return Trajectory(traj.t.copy(), pos, vel, quat, traj.zupt.copy())


def _farthest_marker(marker_map: MarkerMap) -> int:
    """Marker farthest from the origin along the surveyed chain."""
    cum = np.concatenate([
        [0.0], np.cumsum(np.linalg.norm(np.diff(marker_map.positions, axis=0), axis=1)),
    ])
    return int(marker_map.marker_ids[int(np.argmax(cum))])


def furthest_point_error(traj: Trajectory, triggers: TriggerLog,
                         marker_map: MarkerMap) -> float:
    """2-D error at the farthest surveyed marker, at its trigger time."""
    target = _farthest_marker(marker_map)
    hits = np.flatnonzero(triggers.marker_ids == target)
    if hits.size == 0:
        raise ValueError(f"no trigger recorded for the farthest marker {target}")
    at = _interp_xy(traj, float(triggers.t[hits[0]]))
    return float(np.linalg.norm(at - marker_map.position_of(target)[:2]))


def per_marker_errors(traj: Trajectory, triggers: TriggerLog,
                      marker_map: MarkerMap) -> dict:
    """Mean 2-D error per marker over that marker's trigger events."""
    errors: dict[int, list[float]] = {}
    for time, mid in zip(triggers.t, triggers.marker_ids):
        at = _interp_xy(traj, float(time))
        err = float(np.linalg.norm(at - marker_map.position_of(int(mid))[:2]))
        errors.setdefault(int(mid), []).append(err)
    return {mid: float(np.mean(v)) for mid, v in errors.items()}


def run_trial(stream: ImuStream, model: SvmModel, gammas: AdaptiveParams,
              detector: DetectorParams, ekf_cfg: EkfConfig,
              triggers: TriggerLog, marker_map: MarkerMap,
              class_truth=None, smooth_window: int = 15,
              smooth_threshold: float = 0.2) -> TrialReport:
    """Classify, detect with three thresholding methods, run the INS, score.

    ``class_truth`` (per-sample class ids, optional) is compared against the
    smoothed classifier output for the reported SVM accuracy. The model must
    be binary; its second class is treated as the faster motion when
    switching thresholds.
    """
    if class_truth is not None:
        class_truth = np.asarray(class_truth)
        if class_truth.shape != (len(stream),):
            raise ValueError(f"class_truth holds {class_truth.size} labels for "
                             f"{len(stream)} samples; it must hold one per sample")
    labels, binary = classify_motion(model, stream, smooth_window, smooth_threshold)

    zv_by_method = {
        METHOD_WALK: detect(stream, replace(detector, gamma=gammas.gamma_walk)),
        METHOD_RUN: detect(stream, replace(detector, gamma=gammas.gamma_run)),
        METHOD_ADAPT: detect_adaptive(stream, binary, detector, gammas),
    }

    furthest = {}
    per_marker = {}
    path_length = 0.0
    for method, zv in zv_by_method.items():
        traj = align_trajectory(run_ins(stream, zv, ekf_cfg), triggers, marker_map)
        furthest[method] = furthest_point_error(traj, triggers, marker_map)
        per_marker[method] = per_marker_errors(traj, triggers, marker_map)
        if method == METHOD_ADAPT:
            path_length = float(
                np.linalg.norm(np.diff(traj.pos[:, :2], axis=0), axis=1).sum()
            )

    svm_accuracy = None if class_truth is None else float(np.mean(labels.smoothed == class_truth))
    return TrialReport(furthest, per_marker, svm_accuracy, path_length)


def marker_layout_from_truth(truth: GaitTruth, every: int = 10) -> tuple[MarkerMap, TriggerLog]:
    """Synthetic survey for a simulated trial: markers on outbound anchors.

    Places a marker every ``every`` strides along the outbound leg (up to the
    anchor farthest from the origin) and a trigger at the stance midpoint on
    each, where the foot sits exactly on the marker.
    """
    if every < 1:
        raise ValueError("every must be at least 1")
    horiz = np.linalg.norm(truth.stride_anchors[:, :2], axis=1)
    turn = int(np.argmax(horiz))
    if turn < 1:
        raise ValueError("trajectory never leaves the origin; cannot place markers")
    sel = list(range(0, turn, every))
    if sel[-1] != turn:
        sel.append(turn)
    sel = [k for k in sel if truth.stride_mid_times[k] <= truth.t[-1]]
    positions = truth.stride_anchors[sel].copy()
    positions -= positions[0]
    marker_map = MarkerMap(
        tuple(range(len(sel))), positions,
        loop_closure_m=0.0,
        path_length_m=float(np.linalg.norm(np.diff(positions, axis=0), axis=1).sum()),
    )
    triggers = TriggerLog(truth.stride_mid_times[sel], np.arange(len(sel)))
    return marker_map, triggers
