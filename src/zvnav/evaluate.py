"""Trial evaluation: map-frame alignment, furthest-point error, method comparison.

An INS trajectory starts with arbitrary yaw, so it is registered to the
surveyed marker map with a rigid 2-D transform (yaw plus translation)
computed from the first two trigger-time positions against their markers.
Position error is then the 2-D distance between the trajectory at a trigger
timestamp (linearly interpolated between samples) and the surveyed marker.
The headline number, the furthest-point error, is taken at the marker with
the largest cumulative distance along the surveyed chain: the sum of the 3-D
distances between consecutive markers in map order, from the first marker.
That is not the marker farthest from the start: on a layout with a return
leg it is the last one. Symmetric step-length errors cannot cancel there the
way they do at loop closure.

``adaptive_gamma`` is the paper's detector threshold, switched per sample by
the classified motion. ``score_flags`` scores the INS over any named ZUPT flag
sets; ``run_trial`` scores the two fixed thresholds and the switched one.
Every pass stops just after the last trigger. A set whose flags match the
last set's up to some sample shares the last set's states up to there, so
the scorer steps that stretch once, then each set from where it leaves; one
forked child, inheriting its inputs, runs the other sets and sends back only
their scores. The report is the one a serial loop over whole passes would
give, and is deterministic given inputs and seed. ``fork`` makes this
POSIX-only.
"""
from __future__ import annotations

import math
import multiprocessing
import traceback
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import ImuStream
from .detector import AdaptiveParams, DetectorParams, per_sample_statistics
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
        if not np.all(np.isfinite(t)):
            raise ValueError("trigger timestamps must be finite")
        if np.any(np.diff(t) <= 0):
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

    def to_dict(self) -> dict:
        return {
            "furthest_point_error_m": {k: float(v) for k, v in self.furthest_errors.items()},
            "per_marker_error_m": {
                method: {str(mid): float(e) for mid, e in errors.items()}
                for method, errors in self.per_marker_errors.items()
            },
            "svm_accuracy": None if self.svm_accuracy is None else float(self.svm_accuracy),
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
    """The marker with the largest cumulative distance along the surveyed chain.

    The distance is summed over consecutive markers in map order, in 3-D,
    from the first marker; of markers at equal distance, the first. It is not
    the marker farthest from the start.
    """
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
    farthest marker: the checks every ``score_flags`` pass would fail. Each
    public entry point runs it once: ``cli.eval_trial`` to name the triggers
    file, ``run_trial`` before classifying, ``score_flags`` before forking.
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


def _score(traj, triggers, marker_map) -> tuple[float, dict]:
    """One pass's furthest-point error and per-marker errors."""
    traj = align_trajectory(traj, triggers, marker_map)
    return (furthest_point_error(traj, triggers, marker_map),
            per_marker_errors(traj, triggers, marker_map))


def _recorded(fn, *args, **kwargs) -> tuple:
    """``fn``'s result or exception, with the warnings it raised: (result, exc, warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return fn(*args, **kwargs), None, [w.message for w in caught]
        except Exception as exc:
            return None, exc, [w.message for w in caught]


def _scored(steps, triggers, marker_map) -> tuple:
    """A pass's (scores, exception, warnings) from the ``_recorded`` ``run_ins`` calls
    that stepped its consecutive pieces."""
    caught = [message for _, _, messages in steps for message in messages]
    for _, exc, _ in steps:
        if exc is not None:
            return None, exc, caught
    pieces = [piece for piece, _, _ in steps]
    traj = pieces[0] if len(pieces) == 1 else Trajectory(*(
        np.concatenate([getattr(piece, name) for piece in pieces])
        for name in ("t", "pos", "vel", "quat", "zupt")))
    result, exc, messages = _recorded(_score, traj, triggers, marker_map)
    return result, exc, caught + messages


def adaptive_gamma(stream: ImuStream, model: SvmModel,
                   gammas: AdaptiveParams) -> tuple[LabelStream, np.ndarray]:
    """Motion labels, and each sample's detector threshold: ``gammas.gamma_run`` where
    the binary model's smoothed label is its second (faster) class, else ``gamma_walk``."""
    if len(model.classes) != 2:
        raise ValueError("adaptive thresholding needs a binary (two-class) model; "
                         f"this one has {len(model.classes)} classes")
    labels = classify_stream(model, stream)
    faster = labels.smoothed == model.classes[1]
    return labels, np.where(faster, gammas.gamma_run, gammas.gamma_walk)


def score_flags(stream: ImuStream, flags_by_name: dict, ekf_cfg: EkfConfig,
                triggers: TriggerLog, marker_map: MarkerMap) -> TrialReport:
    """Run the INS over each named set of ZUPT flags and score it against the markers.

    The report holds each set's errors, in ``flags_by_name`` order. Each
    set's pass runs only up to the first sample at or after the last
    trigger, and through its ``leveling_samples``, which gives the whole
    pass's scores. A set that levels from the same samples as the last set,
    and has the same flags through them and the flag after them, joins the
    last set's family: its states equal the last set's up to the first
    sample d where its flags differ, so it is stepped only from d, continuing
    the last set's pass. The family runs here; one forked child runs the
    other sets in order, and there is no child when there are none. The child
    is joined before returning or raising; its death raises
    ``RuntimeError``. Each set's warnings are issued again here, then its
    exception raised, in ``flags_by_name`` order, as a serial loop over whole
    passes would; the child's carry a note with their traceback.
    """
    if not flags_by_name:
        raise ValueError("need at least one flag set to score")
    flags = {name: np.asarray(zv, dtype=bool) for name, zv in flags_by_name.items()}
    for name, zv in flags.items():
        if zv.shape != (len(stream),):
            raise ValueError(f"flag set {name!r} must hold one flag per stream sample")
    check_triggers(stream, triggers, marker_map)
    *others, last = flags
    levels = {name: leveling_samples(stream.t, zv) for name, zv in flags.items()}
    # np.interp reads a trigger from the samples either side of it, or from the
    # sample on it, so nothing after the first sample at or after the last one
    scored = int(np.searchsorted(stream.t, triggers.t[-1])) + 1
    ends = {name: max(scored, span.stop) for name, (span, _) in levels.items()}
    end = ends[last]
    # the family: the last set and each member, by the sample its own steps start at
    resume = {last: end}
    for name in others:
        differ = flags[name][:end] != flags[last][:end]
        d = int(np.argmax(differ)) if differ.any() else end
        if levels[name] == levels[last] and (d > levels[last][0].stop or d == end):
            resume[name] = d
    forked = [name for name in others if name not in resume]

    def score_family() -> dict:
        # the last set's pass, in pieces cut where members leave it
        cuts = sorted({0, *resume.values()})
        steps, piece = [], None
        for a, b in zip(cuts, cuts[1:]):
            steps.append(_recorded(run_ins, stream[a:b], flags[last][a:b], ekf_cfg, start=piece))
            piece, exc, _ = steps[-1]
            if exc is not None:
                break
        outcomes = {}
        for name, d in resume.items():
            shared = steps[:cuts.index(d)]
            if d < end and all(exc is None for _, exc, _ in shared):
                shared.append(_recorded(run_ins, stream[d:end], flags[name][d:end], ekf_cfg,
                                        start=shared[-1][0]))
            outcomes[name] = _scored(shared, triggers, marker_map)
        return outcomes

    def score_forked(conn) -> None:
        outcomes = [_scored([_recorded(run_ins, stream[:ends[name]], flags[name][:ends[name]],
                                       ekf_cfg)], triggers, marker_map) for name in forked]
        for exc in (exc for _, exc, _ in outcomes if exc is not None):
            exc.add_note("in a forked scoring process:\n"
                         + "".join(traceback.format_tb(exc.__traceback__)))
        conn.send(outcomes)

    outcomes, child = {}, None
    try:
        if forked:
            fork = multiprocessing.get_context("fork")
            conn, child_conn = fork.Pipe(duplex=False)
            child = fork.Process(target=score_forked, args=(child_conn,))
            with child_conn:
                child.start()
        family = score_family()
        if child is not None:
            try:
                outcomes = dict(zip(forked, conn.recv()))
            except EOFError:
                child.join()
                raise RuntimeError(f"the process scoring {', '.join(forked)} exited with code "
                                   f"{child.exitcode} before sending its scores") from None
    finally:
        if child is not None:
            conn.close()
            child.join()

    outcomes.update(family)
    for _, exc, caught in (outcomes[name] for name in flags):
        for message in caught:
            warnings.warn(message, stacklevel=2)
        if exc is not None:
            raise exc
    furthest, per_marker = zip(*(outcomes[name][0] for name in flags))
    return TrialReport(dict(zip(flags, furthest)), dict(zip(flags, per_marker)), None)


def run_trial(stream: ImuStream, model: SvmModel, gammas: AdaptiveParams,
              detector: DetectorParams, ekf_cfg: EkfConfig,
              triggers: TriggerLog, marker_map: MarkerMap,
              class_truth=None) -> TrialReport:
    """Classify, threshold one detector statistic three ways, and ``score_flags`` them.

    ``class_truth`` (per-sample class ids, optional) is compared against the
    smoothed classifier output for the reported SVM accuracy. The model must
    be binary; its second class is treated as the faster motion when
    switching thresholds. The adaptive method is scored last, in this process.
    """
    if class_truth is not None:
        class_truth = np.asarray(class_truth)
        if class_truth.shape != (len(stream),):
            raise ValueError(f"class_truth holds {class_truth.size} labels for "
                             f"{len(stream)} samples; it must hold one per sample")
    check_triggers(stream, triggers, marker_map)
    labels, gamma_adapt = adaptive_gamma(stream, model, gammas)
    stats = per_sample_statistics(stream, detector)
    report = score_flags(stream, {
        METHOD_WALK: stats < gammas.gamma_walk,
        METHOD_RUN: stats < gammas.gamma_run,
        METHOD_ADAPT: stats < gamma_adapt,
    }, ekf_cfg, triggers, marker_map)
    svm_accuracy = None if class_truth is None else float(np.mean(labels.smoothed == class_truth))
    return replace(report, svm_accuracy=svm_accuracy)


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
