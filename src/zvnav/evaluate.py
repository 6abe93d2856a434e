"""Trial evaluation: map-frame alignment, furthest-point error, method comparison.

An INS trajectory starts with arbitrary yaw, so it is registered to the
surveyed marker map with a rigid 2-D transform (yaw plus translation)
computed from the first two trigger-time positions against their markers.
Position error is then the 2-D distance between the trajectory at a trigger
timestamp (linearly interpolated between samples) and the surveyed marker;
the headline number is taken at the marker farthest from the origin along
the surveyed chain, where symmetric step-length errors cannot cancel the way
they do at loop closure.

``adaptive_zupts`` is the paper's detector, its threshold switched by the
classified motion. ``run_trial`` compares the two fixed thresholds against
it on one stream. Its three INS passes are independent and pure, so after
classifying and detecting it forks one child process per fixed threshold
and runs the adaptive pass itself meanwhile; the children inherit their
inputs through ``fork`` and send back only their scores. The adaptive pass
covers the whole stream; a fixed pass, read only at the trigger times, stops
at the first sample at or after the last one. The report is the one a serial
loop over whole passes would give, and is deterministic given inputs and
seed. ``fork`` makes this POSIX-only.
"""
from __future__ import annotations

import math
import multiprocessing
import traceback
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import ImuStream
from .detector import AdaptiveParams, DetectorParams, detect, detect_adaptive
from .ekf import EkfConfig, Trajectory, leveling_samples, run_ins
from .simulate import GaitTruth
from .survey import MarkerMap
from .svm import LabelStream, SvmModel, classify_stream

METHOD_WALK = "gamma_walk"
METHOD_RUN = "gamma_run"
METHOD_ADAPT = "gamma_adapt"
DEFAULT_MARKER_EVERY = 10


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
    trajectory positions against their surveyed markers. Only the positions
    are transformed, as scoring reads nothing else; velocities and attitudes
    pass through unchanged.
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
    return replace(traj, pos=pos)


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


def check_triggers(stream: ImuStream, triggers: TriggerLog, marker_map: MarkerMap) -> None:
    """Fail unless every trigger names a surveyed marker at a time inside the stream.

    Also fails when the triggers cannot align a trajectory or never pass the
    farthest marker: the checks every ``run_trial`` pass would fail.
    """
    if len(triggers) < 2:
        raise ValueError("need at least two trigger events to align")
    for time, mid in zip(triggers.t.tolist(), triggers.marker_ids.tolist()):
        marker_map.position_of(mid)
        if not stream.t[0] <= time <= stream.t[-1]:
            raise ValueError(f"trigger time {time:.3f}s lies outside the IMU log span "
                             f"({stream.t[0]:.3f}s to {stream.t[-1]:.3f}s)")
    target = _farthest_marker(marker_map)
    if target not in triggers.marker_ids:
        raise ValueError(f"no trigger recorded for the farthest marker {target}")


def _score(stream, zv, ekf_cfg, triggers, marker_map) -> tuple[float, dict, float]:
    """One method's furthest-point error, per-marker errors and 2-D path length."""
    traj = align_trajectory(run_ins(stream, zv, ekf_cfg), triggers, marker_map)
    path_length = float(np.linalg.norm(np.diff(traj.pos[:, :2], axis=0), axis=1).sum())
    return (furthest_point_error(traj, triggers, marker_map),
            per_marker_errors(traj, triggers, marker_map), path_length)


def _recorded_score(*args) -> tuple:
    """``_score``'s result or exception, with the warnings it raised: (result, exc, warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return _score(*args), None, [w.message for w in caught]
        except Exception as exc:
            return None, exc, [w.message for w in caught]


def _score_in_child(conn, *args) -> None:
    result, exc, caught = _recorded_score(*args)
    if exc is not None:
        exc.add_note("in a forked scoring process:\n"
                     + "".join(traceback.format_tb(exc.__traceback__)))
    conn.send((result, exc, caught))
    conn.close()


def _received(child, conn, method: str) -> tuple:
    try:
        return conn.recv()
    except EOFError:
        child.join()
        raise RuntimeError(f"the {method} scoring process exited with code "
                           f"{child.exitcode} before sending its scores") from None


def adaptive_zupts(stream: ImuStream, model: SvmModel, detector: DetectorParams,
                   gammas: AdaptiveParams) -> tuple[LabelStream, np.ndarray]:
    """Motion labels, and stationary flags thresholded at ``gammas.gamma_run`` where
    the binary model's smoothed label is its second (faster) class, else at ``gamma_walk``."""
    if len(model.classes) != 2:
        raise ValueError("adaptive thresholding needs a binary (two-class) model; "
                         f"this one has {len(model.classes)} classes")
    labels = classify_stream(model, stream)
    return labels, detect_adaptive(stream, labels.smoothed == model.classes[1], detector, gammas)


def run_trial(stream: ImuStream, model: SvmModel, gammas: AdaptiveParams,
              detector: DetectorParams, ekf_cfg: EkfConfig,
              triggers: TriggerLog, marker_map: MarkerMap,
              class_truth=None) -> TrialReport:
    """Classify, detect with three thresholding methods, run the INS, score.

    ``class_truth`` (per-sample class ids, optional) is compared against the
    smoothed classifier output for the reported SVM accuracy. The model must
    be binary; its second class is treated as the faster motion when
    switching thresholds.

    The two fixed-threshold passes run in forked child processes while this
    process runs the adaptive one; every child is joined before returning or
    raising. Each pass's warnings are issued again here, then its exception
    raised, in walk, run, adapt order.

    The adaptive pass, which gives the path length, covers the whole stream.
    A fixed pass covers the samples up to the first one at or after the last
    trigger, and at least its ``ekf.leveling_samples``; its scores are those
    of the whole pass. So a fixed pass that would diverge only after the last
    trigger does not fail the trial: the adaptive pass's error is raised, if
    it diverges there too.
    """
    if class_truth is not None:
        class_truth = np.asarray(class_truth)
        if class_truth.shape != (len(stream),):
            raise ValueError(f"class_truth holds {class_truth.size} labels for "
                             f"{len(stream)} samples; it must hold one per sample")
    check_triggers(stream, triggers, marker_map)
    labels, adaptive_flags = adaptive_zupts(stream, model, detector, gammas)

    zv_by_method = {
        METHOD_WALK: detect(stream, replace(detector, gamma=gammas.gamma_walk)),
        METHOD_RUN: detect(stream, replace(detector, gamma=gammas.gamma_run)),
        METHOD_ADAPT: adaptive_flags,
    }

    # np.interp reads a trigger from the samples either side of it, or from the
    # sample on it, so nothing after the first sample at or after the last one
    scored = int(np.searchsorted(stream.t, triggers.t[-1])) + 1
    fork = multiprocessing.get_context("fork")
    children = {}
    try:
        for method in (METHOD_WALK, METHOD_RUN):
            zv = zv_by_method[method]
            end = max(scored, leveling_samples(stream.t, zv)[0].stop)
            conn, child_conn = fork.Pipe(duplex=False)
            child = fork.Process(target=_score_in_child, args=(
                child_conn, stream[:end], zv[:end], ekf_cfg, triggers, marker_map))
            with child_conn:
                child.start()
            children[method] = (child, conn)
        adaptive = _recorded_score(stream, zv_by_method[METHOD_ADAPT], ekf_cfg,
                                   triggers, marker_map)
        outcomes = {method: _received(child, conn, method)
                    for method, (child, conn) in children.items()}
        outcomes[METHOD_ADAPT] = adaptive
    finally:
        for child, conn in children.values():
            conn.close()
            child.join()

    for _, exc, caught in outcomes.values():
        for message in caught:
            warnings.warn(message, stacklevel=2)
        if exc is not None:
            raise exc
    furthest = {method: result[0] for method, (result, _, _) in outcomes.items()}
    per_marker = {method: result[1] for method, (result, _, _) in outcomes.items()}
    svm_accuracy = None if class_truth is None else float(np.mean(labels.smoothed == class_truth))
    return TrialReport(furthest, per_marker, svm_accuracy, outcomes[METHOD_ADAPT][0][2])


def marker_layout_from_truth(truth: GaitTruth, every: int = DEFAULT_MARKER_EVERY
                             ) -> tuple[MarkerMap, TriggerLog]:
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
