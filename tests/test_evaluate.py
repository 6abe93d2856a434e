import json
import math
import multiprocessing
import os
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zvnav.core import ImuStream
from zvnav.detector import detect
from zvnav.evaluate import (
    TrialReport,
    TriggerLog,
    adaptive_zupts,
    align_trajectory,
    furthest_point_error,
    marker_layout_from_truth,
    per_marker_errors,
    run_trial,
    score_flags,
)
from zvnav.ekf import Trajectory, leveling_samples, run_ins
from zvnav.simulate import NoiseModel, simulate
from zvnav.survey import MarkerMap

from conftest import mixed_segments, out_and_back

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def straight_map(n=4, spacing=10.0):
    ids = tuple(range(n))
    pos = np.zeros((n, 3))
    pos[:, 0] = spacing * np.arange(n)
    return MarkerMap(ids, pos, 0.0, spacing * (n - 1))


def serial_report(whole, triggers, marker_map, svm_accuracy=None):
    """The report of a serial loop over whole passes: ``whole`` maps each set's
    name to its whole-log trajectory, in order."""
    aligned = {name: align_trajectory(traj, triggers, marker_map) for name, traj in whole.items()}
    return TrialReport(
        {name: furthest_point_error(traj, triggers, marker_map) for name, traj in aligned.items()},
        {name: per_marker_errors(traj, triggers, marker_map) for name, traj in aligned.items()},
        svm_accuracy)


def same_report(a, b):
    # json.dumps keeps key order and writes floats by repr: equal text is
    # equal values in equal order
    return json.dumps(a.to_dict()) == json.dumps(b.to_dict())


def straight_trajectory(n=1000, speed=1.0, rate=125.0):
    t = np.arange(n) / rate
    pos = np.zeros((n, 3))
    pos[:, 0] = speed * t
    vel = np.tile([speed, 0.0, 0.0], (n, 1))
    quat = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    return Trajectory(t, pos, vel, quat, np.zeros(n, bool))


class TestAlignTrajectory:
    def triggers_for(self, marker_map, speed=1.0):
        times = marker_map.positions[:, 0] / speed
        return TriggerLog(times, np.arange(len(marker_map.marker_ids)))

    def test_already_aligned_is_identity(self):
        traj = straight_trajectory(4000)
        marker_map = straight_map()
        triggers = self.triggers_for(marker_map)
        out = align_trajectory(traj, triggers, marker_map)
        assert np.max(np.abs(out.pos - traj.pos)) < 1e-9

    def test_yaw_offset_recovered_exactly(self):
        traj = straight_trajectory(4000)
        marker_map = straight_map()
        triggers = self.triggers_for(marker_map)
        yaw = math.pi / 2
        c, s = math.cos(yaw), math.sin(yaw)
        rotated_pos = traj.pos.copy()
        rotated_pos[:, 0] = c * traj.pos[:, 0] - s * traj.pos[:, 1]
        rotated_pos[:, 1] = s * traj.pos[:, 0] + c * traj.pos[:, 1]
        rotated = Trajectory(traj.t, rotated_pos + [3.0, -2.0, 0.0], traj.vel, traj.quat, traj.zupt)
        out = align_trajectory(rotated, triggers, marker_map)
        assert np.max(np.abs(out.pos[:, :2] - traj.pos[:, :2])) < 1e-9

    @given(st.floats(-math.pi, math.pi), st.integers(0, 2**32 - 1))
    def test_velocity_and_attitude_pass_through_unchanged(self, yaw, seed):
        # a straight walk heading -yaw against markers along x: the alignment
        # yaw is ``yaw``, the positions turn by Rz(yaw), and nothing else changes
        rng = np.random.default_rng(seed)
        n = 400
        t = np.arange(n) / 125.0
        heading = np.array([math.cos(-yaw), math.sin(-yaw), 0.0])
        quat = rng.normal(size=(n, 4))
        quat /= np.linalg.norm(quat, axis=1)[:, None]
        traj = Trajectory(t, np.outer(t, heading), rng.normal(size=(n, 3)), quat,
                          rng.random(n) < 0.3)
        marker_map = straight_map(3, 1.0)
        out = align_trajectory(traj, self.triggers_for(marker_map), marker_map)
        c, s = math.cos(yaw), math.sin(yaw)
        Rz = np.array([[c, -s], [s, c]])
        assert np.max(np.abs(out.pos[:, :2] - traj.pos[:, :2] @ Rz.T)) < 1e-12
        for name in ("t", "vel", "quat", "zupt"):
            assert np.array_equal(getattr(out, name), getattr(traj, name)), name

    def test_needs_two_triggers(self):
        traj = straight_trajectory()
        marker_map = straight_map()
        with pytest.raises(ValueError):
            align_trajectory(traj, TriggerLog(np.array([1.0]), np.array([0])), marker_map)

    def test_trigger_outside_span_rejected(self):
        traj = straight_trajectory(100)
        marker_map = straight_map(2, 1.0)
        with pytest.raises(ValueError):
            align_trajectory(traj, TriggerLog(np.array([0.1, 99.0]), np.array([0, 1])), marker_map)


class TestFurthestPointError:
    def test_perfect_trajectory(self):
        traj = straight_trajectory(4000)
        marker_map = straight_map()
        triggers = TriggerLog(marker_map.positions[:, 0], np.arange(4))
        assert furthest_point_error(traj, triggers, marker_map) < 1e-9

    def test_constant_offset_is_measured(self):
        traj = straight_trajectory(4000)
        shifted = Trajectory(traj.t, traj.pos + [1.0, 0.0, 0.0], traj.vel, traj.quat, traj.zupt)
        marker_map = straight_map()
        triggers = TriggerLog(marker_map.positions[:, 0], np.arange(4))
        assert furthest_point_error(shifted, triggers, marker_map) == pytest.approx(1.0, abs=1e-9)

    def test_farthest_marker_is_along_the_chain(self):
        # chain that bends back: the far marker by path is not the last by index distance
        ids = (0, 1, 2)
        pos = np.array([[0.0, 0, 0], [10.0, 0, 0], [5.0, 8.0, 0.0]])
        marker_map = MarkerMap(ids, pos, 0.0, 19.4)
        traj = straight_trajectory(4000)
        triggers = TriggerLog(np.array([1.0, 5.0, 9.0]), np.array([0, 1, 2]))
        # cumulative path distance picks marker 2
        err = furthest_point_error(traj, triggers, marker_map)
        at = np.array([np.interp(9.0, traj.t, traj.pos[:, 0]), 0.0])
        assert err == pytest.approx(np.linalg.norm(at - pos[2, :2]), abs=1e-12)

    def test_a_return_leg_puts_the_furthest_point_at_the_chain_end(self):
        # out along x to 30 m and back to 10 m, 1.4 m to the side: marker 3 is
        # the farthest from the start, marker 5 the farthest along the chain
        ids = tuple(range(6))
        pos = np.array([[0.0, 0, 0], [10.0, 0, 0], [20.0, 0, 0], [30.0, 0, 0],
                        [20.0, 1.4, 0], [10.0, 1.4, 0]])
        marker_map = MarkerMap(ids, pos, 0.0, 50.1)
        traj = straight_trajectory(4000)
        triggers = TriggerLog(np.array([0.0, 10.0, 20.0, 30.0]), np.array([0, 1, 2, 3]))
        with pytest.raises(ValueError, match="^no trigger recorded for the farthest marker 5$"):
            furthest_point_error(traj, triggers, marker_map)
        triggers = TriggerLog(np.array([0.0, 10.0, 20.0, 30.0, 31.0]), np.array([0, 1, 2, 3, 5]))
        at = np.array([np.interp(31.0, traj.t, traj.pos[:, 0]), 0.0])
        assert furthest_point_error(traj, triggers, marker_map) == pytest.approx(
            np.linalg.norm(at - pos[5, :2]), abs=1e-12)

    def test_missing_trigger_for_far_marker(self):
        traj = straight_trajectory(4000)
        marker_map = straight_map()
        triggers = TriggerLog(np.array([1e-3, 10.0]), np.array([0, 1]))
        with pytest.raises(ValueError):
            furthest_point_error(traj, triggers, marker_map)

    def test_invariant_to_joint_rigid_motion(self):
        rng = np.random.default_rng(0)
        traj = straight_trajectory(4000)
        noisy = Trajectory(traj.t, traj.pos + rng.normal(0, 0.2, traj.pos.shape),
                           traj.vel, traj.quat, traj.zupt)
        marker_map = straight_map()
        triggers = TriggerLog(marker_map.positions[:, 0], np.arange(4))
        base = furthest_point_error(noisy, triggers, marker_map)

        yaw, shift = 0.8, np.array([5.0, -7.0])
        c, s = math.cos(yaw), math.sin(yaw)
        R = np.array([[c, -s], [s, c]])

        def moved_xy(points):
            return points[:, :2] @ R.T + shift

        # re-anchor at the moved marker 0 so the map invariant still holds;
        # all pairwise 2-D distances are untouched
        anchor = moved_xy(marker_map.positions)[0]
        map_pos = marker_map.positions.copy()
        map_pos[:, :2] = moved_xy(marker_map.positions) - anchor
        traj_pos = noisy.pos.copy()
        traj_pos[:, :2] = moved_xy(noisy.pos) - anchor
        remapped = MarkerMap(marker_map.marker_ids, map_pos, 0.0, marker_map.path_length_m)
        moved_traj = Trajectory(noisy.t, traj_pos, noisy.vel, noisy.quat, noisy.zupt)
        assert furthest_point_error(moved_traj, triggers, remapped) == pytest.approx(base, abs=1e-9)


class TestMarkerLayout:
    def test_markers_sit_on_outbound_anchors(self):
        _, truth = simulate(out_and_back("walk", 40.0), NoiseModel(seed=1))
        marker_map, triggers = marker_layout_from_truth(truth, every=5)
        assert np.allclose(marker_map.positions[0], 0.0)
        assert len(triggers) == len(marker_map.marker_ids)
        # the trigger-time truth position coincides with the marker
        for tt, mid in zip(triggers.t, triggers.marker_ids):
            i = np.argmin(np.abs(truth.t - tt))
            assert np.linalg.norm(truth.pos[i] - marker_map.position_of(int(mid))) < 0.01

    def test_far_marker_is_turnaround(self):
        _, truth = simulate(out_and_back("walk", 40.0), NoiseModel(seed=2))
        marker_map, _ = marker_layout_from_truth(truth, every=5)
        horiz = np.linalg.norm(marker_map.positions[:, :2], axis=1)
        assert np.argmax(horiz) == len(horiz) - 1


class TestRunTrial:
    def test_switching_exactness_inside_trial(self, adaptive_setup):
        stream, truth = simulate(mixed_segments(), NoiseModel(seed=50))
        model = adaptive_setup["model"]
        gammas = adaptive_setup["gammas"]
        det = adaptive_setup["detector"]
        labels, adaptive = adaptive_zupts(stream, model, det, gammas)
        faster = labels.smoothed == model.classes[1]
        assert faster.any() and not faster.all()
        fw = detect(stream, det, gammas.gamma_walk)
        fr = detect(stream, det, gammas.gamma_run)
        assert np.array_equal(adaptive, np.where(faster, fr, fw))

    def test_report_structure_and_determinism(self, adaptive_setup):
        stream, truth = simulate(mixed_segments(), NoiseModel(seed=51))
        marker_map, triggers = marker_layout_from_truth(truth, every=10)
        kwargs = dict(
            stream=stream, model=adaptive_setup["model"], gammas=adaptive_setup["gammas"],
            detector=adaptive_setup["detector"], ekf_cfg=adaptive_setup["ekf"],
            triggers=triggers, marker_map=marker_map, class_truth=truth.labels,
        )
        a = run_trial(**kwargs)
        b = run_trial(**kwargs)
        assert a.furthest_errors == b.furthest_errors
        assert set(a.furthest_errors) == {"gamma_walk", "gamma_run", "gamma_adapt"}
        assert a.svm_accuracy == b.svm_accuracy
        assert a.svm_accuracy > 0.9
        d = a.to_dict()
        assert set(d) == {"furthest_point_error_m", "per_marker_error_m", "svm_accuracy"}

    def test_needs_binary_model(self, six_class_model, adaptive_setup):
        stream, truth = simulate(mixed_segments(), NoiseModel(seed=52))
        marker_map, triggers = marker_layout_from_truth(truth, every=10)
        with pytest.raises(ValueError):
            run_trial(stream, six_class_model["model"], adaptive_setup["gammas"],
                      adaptive_setup["detector"], adaptive_setup["ekf"], triggers, marker_map)

    def test_short_class_truth_fails_before_the_ins_passes(self, adaptive_setup, monkeypatch):
        stream, truth = simulate(mixed_segments(), NoiseModel(seed=54))
        marker_map, triggers = marker_layout_from_truth(truth, every=10)

        def no_ins(*args, **kwargs):
            raise AssertionError("run_ins called before class_truth was checked")

        monkeypatch.setattr("zvnav.evaluate.run_ins", no_ins)
        with pytest.raises(ValueError, match=f"class_truth holds 2500 labels for {len(stream)} "
                                             "samples; it must hold one per sample"):
            run_trial(stream, adaptive_setup["model"], adaptive_setup["gammas"],
                      adaptive_setup["detector"], adaptive_setup["ekf"], triggers, marker_map,
                      class_truth=truth.labels[:2500])

    def test_per_marker_errors_cover_all_triggered_markers(self, adaptive_setup):
        stream, truth = simulate(out_and_back("walk", 30.0), NoiseModel(seed=53))
        marker_map, triggers = marker_layout_from_truth(truth, every=6)
        traj = run_ins(stream, truth.stance, adaptive_setup["ekf"])
        aligned = align_trajectory(traj, triggers, marker_map)
        errors = per_marker_errors(aligned, triggers, marker_map)
        assert set(errors) == set(int(m) for m in triggers.marker_ids)
        assert all(v >= 0 for v in errors.values())

    @pytest.mark.parametrize("trigger_t, marker_ids, message", [
        ([1.0, 5.0, 9.0], [0, 1, 99], "marker 99 is not in the marker map"),
        ([1.0, 5.0, 80.0], [0, 1, 2],
         r"trigger time 80.000s lies outside the IMU log span \(0.000s to 58.992s\)"),
    ])
    def test_bad_trigger_fails_before_classifying(self, adaptive_setup, monkeypatch,
                                                  trigger_t, marker_ids, message):
        stream, _ = simulate(mixed_segments(), NoiseModel(seed=56))

        def no_classify(*args, **kwargs):
            raise AssertionError("classified before the triggers were checked")

        monkeypatch.setattr("zvnav.evaluate.classify_stream", no_classify)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_trial(stream, adaptive_setup["model"], adaptive_setup["gammas"],
                      adaptive_setup["detector"], adaptive_setup["ekf"],
                      TriggerLog(np.array(trigger_t), np.array(marker_ids)), straight_map(3))


class PassFailed(Exception):
    """Raised by a patched ``run_ins``; a module-level class, so a child can pickle it."""


class PassInterrupted(BaseException):
    """Escapes the per-pass ``except Exception``, as an interrupt would."""


class TestParallelRunTrial:
    """``score_flags`` runs the last set and its family here and the other sets in one
    forked child; forks inherit monkeypatches."""

    @pytest.fixture(scope="class")
    def trial(self):
        stream, truth = simulate(mixed_segments(), NoiseModel(seed=57))
        marker_map, triggers = marker_layout_from_truth(truth, every=10)
        return stream, truth, marker_map, triggers

    @staticmethod
    def run(trial, setup):
        stream, truth, marker_map, triggers = trial
        return run_trial(stream, setup["model"], setup["gammas"], setup["detector"],
                         setup["ekf"], triggers, marker_map, class_truth=truth.labels)

    @staticmethod
    def flags(trial, setup):
        stream = trial[0]
        det, gammas = setup["detector"], setup["gammas"]
        labels, adaptive = adaptive_zupts(stream, setup["model"], det, gammas)
        flags = {
            "gamma_walk": detect(stream, det, gammas.gamma_walk),
            "gamma_run": detect(stream, det, gammas.gamma_run),
            "gamma_adapt": adaptive,
        }
        return labels, flags

    @pytest.fixture(scope="class")
    def whole_passes(self, trial, adaptive_setup):
        """Per log: its stream, labels, and every method's whole-log trajectory.

        "spun" is the trial with the foot spinning through its first second,
        so that no method flags a stationary sample there."""
        stream = trial[0]
        gyro = stream.gyro.copy()
        gyro[:130, 2] += 6.0
        logs = {}
        for name, log in [("still", stream), ("spun", ImuStream(stream.t, stream.accel, gyro))]:
            labels, flags = self.flags((log,), adaptive_setup)
            logs[name] = log, labels, {method: run_ins(log, zv, adaptive_setup["ekf"])
                                       for method, zv in flags.items()}
        assert all(leveling_samples(traj.t, traj.zupt)[1]
                   for traj in logs["still"][2].values())
        assert not any(leveling_samples(traj.t, traj.zupt)[1]
                       for traj in logs["spun"][2].values())
        return logs

    # A layout: the log, the samples its triggers fall in ("log": all of
    # them; "level": those both fixed passes level from), and per trigger
    # its place in that span (0 to 1) and whether it sits on a sample time.
    # The farthest marker is triggered by the trigger at far_at.
    @settings(max_examples=6, deadline=None)
    @given(log=st.sampled_from(["still", "spun"]), span=st.sampled_from(["log", "level"]),
           places=st.lists(st.tuples(st.floats(0.0, 1.0), st.booleans()),
                           min_size=2, max_size=6),
           far_at=st.integers(0, 5), ids_seed=st.integers(0, 2**32 - 1))
    @example(log="still", span="log", places=[(0.0, True), (0.3, False)], far_at=1, ids_seed=0)
    @example(log="still", span="log", places=[(0.2, False), (1.0, True)], far_at=1, ids_seed=1)
    @example(log="still", span="log", places=[(0.1, False), (0.45, True)], far_at=1, ids_seed=2)
    @example(log="still", span="level", places=[(0.0, True), (0.4, False), (1.0, True)],
             far_at=2, ids_seed=3)
    @example(log="spun", span="level", places=[(0.1, False), (0.6, True)], far_at=0, ids_seed=4)
    @example(log="spun", span="log", places=[(0.05, False), (0.5, True)], far_at=1, ids_seed=5)
    def test_report_equals_a_serial_loop(self, trial, whole_passes, adaptive_setup,
                                         log, span, places, far_at, ids_seed):
        _, truth, marker_map, _ = trial
        stream, labels, whole = whole_passes[log]
        if span == "log":
            last = len(stream) - 1
        else:
            last = min(leveling_samples(stream.t, whole[m].zupt)[0].stop
                       for m in ("gamma_walk", "gamma_run")) - 1
        at = [round(p * last) if on_sample else p * last for p, on_sample in places]
        times = np.unique(np.interp(at, np.arange(len(stream)), stream.t))
        assume(len(times) >= 2)
        ids = np.random.default_rng(ids_seed).choice(marker_map.marker_ids, len(times))
        ids[far_at % len(times)] = marker_map.marker_ids[-1]
        triggers = TriggerLog(times, ids)

        serial = serial_report(whole, triggers, marker_map,
                               float(np.mean(labels.smoothed == truth.labels)))
        report = self.run((stream, truth, marker_map, triggers), adaptive_setup)
        assert same_report(report, serial)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failing, raised", [
        (("gamma_walk",), "gamma_walk"),
        (("gamma_run", "gamma_adapt"), "gamma_run"),
        (("gamma_walk", "gamma_run", "gamma_adapt"), "gamma_walk"),
        (("gamma_adapt",), "gamma_adapt"),
    ])
    def test_first_failing_pass_raises_in_the_caller(self, trial, adaptive_setup, monkeypatch,
                                                     failing, raised):
        stream, _, _, triggers = trial
        _, flags = self.flags(trial, adaptive_setup)
        # every pass runs only up to the last trigger; the flags tell the
        # passes apart over that span too
        scored = int(np.searchsorted(stream.t, triggers.t[-1])) + 1
        for end in (len(stream), scored):
            assert not any(np.array_equal(flags[a][:end], flags[b][:end])
                           for a, b in [("gamma_walk", "gamma_run"),
                                        ("gamma_walk", "gamma_adapt"),
                                        ("gamma_run", "gamma_adapt")])

        # a call fails when the flags of the samples it steps are a failing
        # method's alone: a piece the adaptive and walk passes share fails neither
        def failing_ins(piece, zv, cfg=None, *, start=None):
            at = int(np.searchsorted(stream.t, piece.t[0]))
            owners = [m for m, f in flags.items() if np.array_equal(zv, f[at:at + len(zv)])]
            if len(owners) == 1 and owners[0] in failing:
                raise PassFailed(f"{owners[0]} pass failed")
            return run_ins(piece, zv, cfg, start=start)

        monkeypatch.setattr("zvnav.evaluate.run_ins", failing_ins)
        with pytest.raises(PassFailed) as err:
            self.run(trial, adaptive_setup)
        assert str(err.value) == f"{raised} pass failed"
        assert multiprocessing.active_children() == []

    @staticmethod
    def burst(stream, at):
        accel = stream.accel.copy()
        accel[at:at + 3] = 1e160
        return ImuStream(stream.t, accel, stream.gyro)

    def divergence_messages(self, stream, setup):
        _, flags = self.flags((stream,), setup)
        messages = {}
        for method, zv in flags.items():
            with pytest.raises(ValueError, match="the filter diverged") as err:
                run_ins(stream, zv, setup["ekf"])
            messages[method] = str(err.value)
        return messages

    def test_a_diverging_pass_raises_in_walk_run_adapt_order(self, trial, adaptive_setup):
        stream, truth, marker_map, triggers = trial
        burst = self.burst(stream, 500)
        messages = self.divergence_messages(burst, adaptive_setup)
        assert messages["gamma_walk"] not in (messages["gamma_run"], messages["gamma_adapt"])
        with pytest.raises(ValueError) as err:
            self.run((burst, truth, marker_map, triggers), adaptive_setup)
        assert str(err.value) == messages["gamma_walk"]
        assert multiprocessing.active_children() == []

    def test_a_burst_after_the_last_trigger_fails_no_pass(self, trial, adaptive_setup):
        stream, truth, marker_map, triggers = trial
        at = int(np.searchsorted(stream.t, triggers.t[-1])) + 500
        burst = self.burst(stream, at)
        # every whole-log pass diverges, but every pass stops before the burst
        self.divergence_messages(burst, adaptive_setup)
        scores = [self.run((log, truth, marker_map, triggers), adaptive_setup).to_dict()
                  for log in (stream, burst)]
        for key in ("furthest_point_error_m", "per_marker_error_m"):
            assert json.dumps(scores[0][key]) == json.dumps(scores[1][key])
        assert multiprocessing.active_children() == []

    def test_children_are_joined_when_the_callers_pass_is_interrupted(
            self, trial, adaptive_setup, monkeypatch):
        _, flags = self.flags(trial, adaptive_setup)

        # the first piece of the adaptive pass, which the caller steps first
        def interrupted_ins(stream, zv, cfg=None, *, start=None):
            if start is None and np.array_equal(zv, flags["gamma_adapt"][:len(zv)]):
                raise PassInterrupted
            return run_ins(stream, zv, cfg, start=start)

        monkeypatch.setattr("zvnav.evaluate.run_ins", interrupted_ins)
        with pytest.raises(PassInterrupted):
            self.run(trial, adaptive_setup)
        # the children were still inside their INS passes when this was raised
        assert multiprocessing.active_children() == []

    def test_warning_of_a_fixed_pass_reaches_the_caller(self, trial, adaptive_setup,
                                                        monkeypatch):
        gamma_walk = adaptive_setup["gammas"].gamma_walk

        def late_first_stance(stream, params, gamma):
            flags = detect(stream, params, gamma)
            if gamma == gamma_walk:
                flags[stream.t <= stream.t[0] + 1.0] = False
            return flags

        monkeypatch.setattr("zvnav.evaluate.detect", late_first_stance)
        with pytest.warns(UserWarning, match="no stationary samples in the first second") as rec:
            self.run(trial, adaptive_setup)
        assert sum("first second" in str(w.message) for w in rec) == 1
        assert multiprocessing.active_children() == []

    def test_the_caller_steps_the_shared_prefix_once(self, trial, adaptive_setup, monkeypatch,
                                                     tmp_path):
        # the benchmark's tracer sees only this process's calls
        stream, _, _, triggers = trial
        _, flags = self.flags(trial, adaptive_setup)
        end = int(np.searchsorted(stream.t, triggers.t[-1])) + 1
        d = int(np.argmax(flags["gamma_walk"] != flags["gamma_adapt"]))
        assert leveling_samples(stream.t, flags["gamma_walk"])[0].stop < d < end
        calls = tmp_path / "calls"

        def recording_ins(piece, zv, cfg=None, *, start=None):
            at = int(np.searchsorted(stream.t, piece.t[0]))
            owners = [m for m, f in flags.items() if np.array_equal(zv, f[at:at + len(zv)])]
            with calls.open("a") as f:
                f.write(f"{os.getpid()} {'+'.join(owners)} {at} {at + len(piece)}\n")
            return run_ins(piece, zv, cfg, start=start)

        monkeypatch.setattr("zvnav.evaluate.run_ins", recording_ins)
        self.run(trial, adaptive_setup)
        caller = [line.split()[1:] for line in calls.read_text().splitlines()
                  if line.split()[0] == str(os.getpid())]
        child = [line.split()[1:] for line in calls.read_text().splitlines()
                 if line.split()[0] != str(os.getpid())]
        # walk and adapt share their flags and states up to d
        assert caller == [["gamma_walk+gamma_adapt", "0", str(d)],
                          ["gamma_adapt", str(d), str(end)], ["gamma_walk", str(d), str(end)]]
        assert child == [["gamma_run", "0", str(end)]]

    @settings(max_examples=5, deadline=None)
    @given(picks=st.lists(st.sampled_from(["gamma_walk", "gamma_run", "gamma_adapt"])
                          | st.integers(0, 2**32 - 1), min_size=1, max_size=5))
    @example(picks=["gamma_adapt"])
    @example(picks=["gamma_walk", 0, "gamma_adapt", 1, "gamma_walk"])
    def test_scores_equal_a_serial_loop(self, trial, whole_passes, adaptive_setup, picks):
        # each pick is a method's flags or a random mask drawn from a seed
        _, _, marker_map, triggers = trial
        stream, _, whole = whole_passes["still"]
        flags, serial = {}, {}
        for i, pick in enumerate(picks):
            name = f"{i} {pick}"
            if isinstance(pick, str):
                flags[name], serial[name] = whole[pick].zupt, whole[pick]
            else:
                flags[name] = np.random.default_rng(pick).random(len(stream)) < 0.3
                serial[name] = run_ins(stream, flags[name], adaptive_setup["ekf"])
        report = score_flags(stream, flags, adaptive_setup["ekf"], triggers, marker_map)
        assert same_report(report, serial_report(serial, triggers, marker_map))
        assert multiprocessing.active_children() == []

    @settings(max_examples=4, deadline=None)
    @given(log=st.sampled_from(["still", "spun"]),
           leaves=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3), burst=st.booleans())
    @example(log="still", leaves=[0.0, 1.0], burst=False)
    @example(log="spun", leaves=[0.0, 0.5], burst=True)
    @example(log="still", leaves=[0.5, 0.5], burst=False)
    def test_sets_sharing_the_last_sets_prefix_score_as_a_serial_loop(
            self, trial, whole_passes, adaptive_setup, log, leaves, burst):
        # each member has the last set's flags up to a sample d between the
        # first it may leave them at (0.0) and the end of the scored span (1.0):
        # the one after the leveling samples, or in the spun log, where the last
        # set levels from the first 50 samples, the first after the first second
        _, _, marker_map, triggers = trial
        stream, _, whole = whole_passes[log]
        last = whole["gamma_adapt"].zupt
        first = leveling_samples(stream.t, last)[0].stop + 1
        if log == "spun":
            first = int(np.searchsorted(stream.t, stream.t[0] + 1.0, side="right"))
        end = int(np.searchsorted(stream.t, triggers.t[-1])) + 1
        flags, starts = {}, []
        for i, leave in enumerate(leaves):
            d = first + round(leave * (end - first))
            zv = last.copy()
            zv[d:] = np.random.default_rng(i).random(len(stream) - d) < 0.3
            zv[d] = not last[d]
            flags[f"{i} leaves at {d}"] = zv
            starts.append(d)
        flags["gamma_adapt"] = last
        if burst:  # from the last sample every member shares with the last set
            stream = self.burst(stream, first - 1)

        cfg, caller, stepped = adaptive_setup["ekf"], os.getpid(), []

        def recording_ins(piece, zv, cfg=None, *, start=None):
            stepped.append((os.getpid(), len(piece)))
            return run_ins(piece, zv, cfg, start=start)

        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            patch.setattr("zvnav.evaluate.run_ins", recording_ins)
            if burst:
                with pytest.raises(ValueError) as err:
                    score_flags(stream, flags, cfg, triggers, marker_map)
                with pytest.raises(ValueError) as serial_err:
                    run_ins(stream, flags[next(iter(flags))], cfg)
                assert str(err.value) == str(serial_err.value)
            else:
                report = score_flags(stream, flags, cfg, triggers, marker_map)
                serial = {name: run_ins(stream, zv, cfg) for name, zv in flags.items()}
                assert same_report(report, serial_report(serial, triggers, marker_map))
                # no child: the last set's pass is stepped once, and each member from its d
                assert stepped == [(caller, n) for n in np.diff(sorted({0, end, *starts}))] \
                    + [(caller, end - d) for d in starts if d < end]
        # each set's fallback warning, from score_flags and again from the serial
        # passes; score_flags issues no warning of a set after the first that fails
        per_run = 0 if log == "still" else 1 if burst else len(flags)
        assert sum("first second" in str(w.message) for w in rec) == 2 * per_run
        assert multiprocessing.active_children() == []

    def test_five_flag_sets_fork_one_child(self, trial, whole_passes, adaptive_setup,
                                           monkeypatch, tmp_path):
        _, _, marker_map, triggers = trial
        stream, _, whole = whole_passes["still"]
        pids = tmp_path / "pids"

        def recording_ins(*args, **kwargs):
            with pids.open("a") as f:
                f.write(f"{os.getpid()}\n")
            return run_ins(*args, **kwargs)

        monkeypatch.setattr("zvnav.evaluate.run_ins", recording_ins)
        flags = {name: traj.zupt for name, traj in whole.items()}
        flags.update(walk_again=flags["gamma_walk"], run_again=flags["gamma_run"])
        score_flags(stream, flags, adaptive_setup["ekf"], triggers, marker_map)
        # the last set, run_again, levels from other samples than walk and adapt;
        # its pass is gamma_run's too, so the caller steps it once
        recorded = pids.read_text().split()
        assert len(recorded) == 4 and len(set(recorded)) == 2
        assert recorded.count(str(os.getpid())) == 1
        assert multiprocessing.active_children() == []

    def test_a_child_that_dies_is_a_runtime_error(self, trial, whole_passes, adaptive_setup,
                                                  monkeypatch):
        _, _, marker_map, triggers = trial
        stream, _, whole = whole_passes["still"]
        caller = os.getpid()

        def dying_ins(*args, **kwargs):
            if os.getpid() != caller:
                os._exit(3)
            return run_ins(*args, **kwargs)

        monkeypatch.setattr("zvnav.evaluate.run_ins", dying_ins)
        flags = {name: traj.zupt for name, traj in whole.items()}
        with pytest.raises(RuntimeError, match="^the process scoring gamma_run exited "
                                               "with code 3 before sending its scores$"):
            score_flags(stream, flags, adaptive_setup["ekf"], triggers, marker_map)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("extra, trigger_t, message", [
        (None, 1.0, "need at least one flag set to score"),
        (1, 1.0, "flag set 'bad' must hold one flag per stream sample"),
        (-1, 1.0, "flag set 'bad' must hold one flag per stream sample"),
        (0, 80.0, r"trigger time 80.000s lies outside the IMU log span \(0.000s to 58.992s\)"),
    ])
    def test_bad_input_fails_before_any_pass(self, trial, adaptive_setup, monkeypatch,
                                             extra, trigger_t, message):
        stream = trial[0]

        def no_ins(*args, **kwargs):
            raise AssertionError("run_ins called before the inputs were checked")

        monkeypatch.setattr("zvnav.evaluate.run_ins", no_ins)
        n = len(stream)
        flags = {} if extra is None else {"good": np.ones(n, bool), "bad": np.ones(n + extra, bool)}
        triggers = TriggerLog(np.array([0.5, trigger_t]), np.array([0, 1]))
        with pytest.raises(ValueError, match=f"^{message}$"):
            score_flags(stream, flags, adaptive_setup["ekf"], triggers, straight_map(2))
        assert multiprocessing.active_children() == []
