"""The two benchmark workloads, each driven through zvnav's public API.

A workload's ``setup(seed, workdir, tracer)`` builds every input from the seed (the program
only ever sees those inputs) and returns a ``Case``: the cycle of op inputs,
the IMU samples one op consumes, ``run(item)`` (the timed operation),
``check(item, result)`` (validity checks, not paper claims) and
``finish(records)`` (checks across ops, appended to the records' problems,
and the accuracy figures it returns).

Functions are looked up on their zvnav module at call time, so spans bound
into those modules see every call.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np
from click.testing import CliRunner

from zvnav import cli, core, detector, ekf, evaluate, io as zio, optimize, survey, svm

# the package re-exports the function simulate.simulate under the module's name
simulate = importlib.import_module("zvnav.simulate")

WINDOW_LEN = 125
BINARY_STRIDE = 14
BINARY_PER_CLASS = 550        # 1,100 windows, as the acceptance fixture
ADAPTIVE_TRIALS = 4           # distinct mixed trials per cycle
MARKER_EVERY = 10


@dataclass
class Case:
    inputs: list
    samples_per_op: int
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], list]
    finish: Callable[[list], dict] = lambda records: {}
    cleanup: Callable[[], None] = lambda: None
    facts: dict = field(default_factory=dict)


@dataclass
class Record:
    """One attempted operation."""

    index: int
    item: Any
    seconds: float
    result: Any = None
    problems: list = field(default_factory=list)


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(1, 2**31 - 1, size=n)]


def _out_and_back(motion: str, total_s: float):
    return [(simulate.gait_preset(motion, heading=0.0), total_s / 2.0),
            (simulate.gait_preset(motion, heading=math.pi), total_s / 2.0)]


def _mixed_segments():
    """59 s alternating walk/run, out and back, turning while walking."""
    return [(simulate.gait_preset("walk", heading=0.0), 15.0),
            (simulate.gait_preset("run", heading=0.0), 15.0),
            (simulate.gait_preset("walk", heading=math.pi), 15.0),
            (simulate.gait_preset("run", heading=math.pi), 14.0)]


def _mocap(truth):
    return optimize.MocapStream(truth.t, truth.pos, 125.0)


def _walk_fbeta():
    return optimize.FBetaConfig()


def _run_fbeta():
    return optimize.FBetaConfig(beta_sq=optimize.RUN_BETA_SQ,
                                speed_threshold=optimize.RUN_SPEED_THRESHOLD)


def _binary_windows(walk_stream, run_stream):
    norm = svm.NormStats.from_streams([walk_stream, run_stream])
    xw = svm.build_windows(walk_stream, WINDOW_LEN, BINARY_STRIDE, norm)[:BINARY_PER_CLASS]
    xr = svm.build_windows(run_stream, WINDOW_LEN, BINARY_STRIDE, norm)[:BINARY_PER_CLASS]
    labels = np.array([simulate.CLASS_IDS["walk"]] * len(xw) + [simulate.CLASS_IDS["run"]] * len(xr))
    return np.vstack([xw, xr]), labels, norm


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


def _scored_every_marker(per_marker: dict, marker_map) -> bool:
    return (set(per_marker) == set(marker_map.marker_ids)
            and _finite(list(per_marker.values())))


def _sim_mixed_trial(seed: int):
    stream, truth = simulate.simulate(_mixed_segments(), simulate.NoiseModel(seed=seed))
    marker_map, triggers = evaluate.marker_layout_from_truth(truth, every=MARKER_EVERY)
    return stream, truth, marker_map, triggers


# ---------------------------------------------------------------------------
# adaptive_trial: the paper's headline path, run_trial on mixed trials
# ---------------------------------------------------------------------------


def adaptive_trial(seed: int, workdir: Path, tracer) -> Case:
    s = _seeds(seed, 2 + ADAPTIVE_TRIALS)
    walk_stream, walk_truth = simulate.simulate(_out_and_back("walk", 64.0),
                                                simulate.NoiseModel(seed=s[0]))
    run_stream, run_truth = simulate.simulate(_out_and_back("run", 64.0),
                                              simulate.NoiseModel(seed=s[1]))
    gamma_walk, _ = optimize.optimize_gamma(walk_stream, _mocap(walk_truth),
                                            detector.DetectorParams(), _walk_fbeta())
    gamma_run, _ = optimize.optimize_gamma(run_stream, _mocap(run_truth),
                                           detector.DetectorParams(), _run_fbeta())
    windows, labels, norm = _binary_windows(walk_stream, run_stream)
    model = svm.train(windows, labels, norm_stats=norm)
    gammas = detector.AdaptiveParams(gamma_walk, gamma_run)
    trials = [_sim_mixed_trial(k) for k in s[2:]]

    def run(trial):
        stream, truth, marker_map, triggers = trial
        return evaluate.run_trial(stream, model, gammas, detector.DetectorParams(),
                                  ekf.EkfConfig(), triggers, marker_map,
                                  class_truth=truth.labels)

    def check(trial, report):
        _, _, marker_map, _ = trial
        problems = []
        if not _finite(list(report.furthest_errors.values())):
            problems.append("non-finite furthest-point error")
        for method, per_marker in report.per_marker_errors.items():
            if not _scored_every_marker(per_marker, marker_map):
                problems.append(f"{method}: not every marker scored with a finite error")
        if report.svm_accuracy is None or not 0.0 <= report.svm_accuracy <= 1.0:
            problems.append(f"svm accuracy {report.svm_accuracy!r} outside [0, 1]")
        return problems

    def finish(records):
        reports = [r.result for r in records if r.result is not None]
        if not reports:
            return {}
        return {
            "fpe_m": float(np.median([r.furthest_errors["gamma_adapt"] for r in reports])),
            "fpe_walk_only_m": float(np.median([r.furthest_errors["gamma_walk"] for r in reports])),
            "fpe_run_only_m": float(np.median([r.furthest_errors["gamma_run"] for r in reports])),
            "svm_acc": float(np.mean([r.svm_accuracy for r in reports])),
        }

    n_sv = sum(p.support_vectors.shape[0] for p in model.pairs)
    return Case(trials, len(trials[0][0]), run, check, finish,
                facts={"gamma_walk": gamma_walk, "gamma_run": gamma_run,
                       "train_windows": int(windows.shape[0]), "support_vectors": int(n_sv),
                       "trial_samples": len(trials[0][0])})


# ---------------------------------------------------------------------------
# cli_walkthrough: README steps 1-6 plus survey map, in process
# ---------------------------------------------------------------------------


def _write_survey(path: Path, seed: int) -> None:
    """Stations observing adjacent floor tags, forward then reverse pass."""
    rng = np.random.default_rng(seed)
    template = survey.tag_template()
    poses = [core.Se3Transform.identity()]
    for i in range(1, 6):
        R = core.quat_to_rotation(core.Quaternion.from_rotvec([0, 0, rng.uniform(-0.2, 0.2)]))
        poses.append(core.Se3Transform(R, np.array([15.0 * i, rng.uniform(-1, 1), 0.0])))

    def station(k, station_id):
        R = core.quat_to_rotation(core.Quaternion.from_rotvec(rng.normal(size=3)))
        pose = core.Se3Transform(R, rng.normal(size=3) * 4)
        return [survey.MarkerObservation(j, pose.apply(poses[j].apply(template)), station_id)
                for j in (k, k + 1)]

    stations = [station(k, k) for k in range(len(poses) - 1)]
    stations += [station(k, 100 + k) for k in range(len(poses) - 1)]
    zio.write_survey_json(path, stations)


def _gamma_opt(output: str) -> float:
    return float(output.split("gamma_opt = ", 1)[1].split()[0])


CSV_OUTPUTS = ("walk.csv", "walk_truth.csv", "walk_mocap.csv", "run.csv", "run_truth.csv",
               "run_mocap.csv", "walk_pr.csv", "run_pr.csv", "labels.csv", "mixed.csv",
               "mixed_truth.csv", "triggers.csv", "traj_walkgamma.csv", "traj_adaptive.csv")
JSON_OUTPUTS = ("model.json", "markers.json", "gammas.json", "report.json", "map.json")


def cli_walkthrough(seed: int, workdir: Path, tracer) -> Case:
    s = _seeds(seed, 4)
    fixtures = Path(tempfile.mkdtemp(prefix="cli-fixtures-", dir=workdir))
    survey_path = fixtures / "survey.json"
    _write_survey(survey_path, s[3])
    runner = CliRunner()
    digests: dict = {}

    def invoke(command, args, steps):
        start = time.perf_counter()
        with tracer.span(f"cli.{command}"):
            result = runner.invoke(cli.main, [str(a) for a in args])
        steps.append({"command": command, "exit_code": result.exit_code,
                      "seconds": time.perf_counter() - start, "output": result.output,
                      "error": None if result.exception is None else repr(result.exception)})
        if result.exit_code != 0:
            raise RuntimeError(f"{command} exited {result.exit_code}: "
                               f"{result.output.strip()[-300:]} {steps[-1]['error']}")
        return result.output

    def run(_):
        d = Path(tempfile.mkdtemp(prefix="cli-op-", dir=workdir))
        steps: list = []
        try:
            for motion, sim_seed in (("walk", s[0]), ("run", s[1])):
                invoke("sim_gait", ["sim", "gait", "--motion", motion, "--duration", 60,
                                    "--seed", sim_seed, "--out", d / f"{motion}.csv",
                                    "--truth", d / f"{motion}_truth.csv",
                                    "--mocap-out", d / f"{motion}_mocap.csv"], steps)
            gammas = {}
            for motion in ("walk", "run"):
                out = invoke("zv_optimize", ["zv", "optimize", "--imu", d / f"{motion}.csv",
                                             "--mocap", d / f"{motion}_mocap.csv",
                                             "--motion", motion,
                                             "--curve-out", d / f"{motion}_pr.csv"], steps)
                gammas[motion] = _gamma_opt(out)
            (d / "trials").mkdir()
            shutil.copy(d / "walk.csv", d / "trials")
            shutil.copy(d / "run.csv", d / "trials")
            invoke("classify_train", ["classify", "train", "--trials", d / "trials",
                                      "--out", d / "model.json", "--classes", "0,2"], steps)
            invoke("classify_predict", ["classify", "predict", "--imu", d / "run.csv",
                                        "--model", d / "model.json",
                                        "--out", d / "labels.csv"], steps)
            invoke("sim_gait", ["sim", "gait", "--segments",
                                "walk:15,run:15,walk:15:3.14159,run:14:3.14159",
                                "--seed", s[2], "--out", d / "mixed.csv",
                                "--truth", d / "mixed_truth.csv",
                                "--markers-out", d / "markers.json",
                                "--triggers-out", d / "triggers.csv"], steps)
            invoke("ins_run", ["ins", "run", "--imu", d / "mixed.csv",
                               "--gamma", repr(gammas["walk"]),
                               "--out", d / "traj_walkgamma.csv"], steps)
            invoke("ins_run", ["ins", "run", "--imu", d / "mixed.csv", "--adaptive",
                               "--model", d / "model.json",
                               "--gamma-walk", repr(gammas["walk"]),
                               "--gamma-run", repr(gammas["run"]),
                               "--out", d / "traj_adaptive.csv"], steps)
            (d / "gammas.json").write_text(json.dumps({"gamma_walk": gammas["walk"],
                                                       "gamma_run": gammas["run"]}))
            invoke("eval_trial", ["eval", "trial", "--imu", d / "mixed.csv",
                                  "--model", d / "model.json", "--gammas", d / "gammas.json",
                                  "--triggers", d / "triggers.csv",
                                  "--markers", d / "markers.json",
                                  "--truth", d / "mixed_truth.csv",
                                  "--report", d / "report.json"], steps)
            invoke("survey_map", ["survey", "map", "--observations", survey_path,
                                  "--out", d / "map.json"], steps)
            return {"dir": d, "steps": steps, "gammas": gammas}
        except BaseException:
            shutil.rmtree(d, ignore_errors=True)
            raise

    def check(_, out):
        d = out["dir"]
        try:
            return _check_outputs(d, digests)
        finally:
            out["report"] = _read_json(d / "report.json")
            shutil.rmtree(d, ignore_errors=True)

    def finish(records):
        reports = [r.result["report"] for r in records
                   if r.result is not None and r.result.get("report")]
        if not reports:
            return {}
        return {
            "fpe_m": float(np.median([r["furthest_point_error_m"]["gamma_adapt"] for r in reports])),
            "svm_acc": float(np.median([r["svm_accuracy"] for r in reports])),
        }

    return Case([None], 7500 + 7500 + 7375, run, check, finish,
                cleanup=lambda: shutil.rmtree(fixtures, ignore_errors=True))


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _check_outputs(d: Path, digests: dict) -> list:
    """Every output parses, and repeats byte for byte across ops of one run."""
    problems = []
    current = {}
    for name in CSV_OUTPUTS + JSON_OUTPUTS:
        path = d / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        current[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    if problems:
        return problems
    if not digests:
        for name in CSV_OUTPUTS:
            rows = np.loadtxt(d / name, delimiter=",", skiprows=1, ndmin=2)
            if rows.shape[0] == 0 or not _finite(rows):
                problems.append(f"{name}: empty or non-finite rows")
        for name in JSON_OUTPUTS:
            if _read_json(d / name) is None:
                problems.append(f"{name}: not valid JSON")
        report = _read_json(d / "report.json") or {}
        errors = report.get("furthest_point_error_m", {})
        if set(errors) != {"gamma_walk", "gamma_run", "gamma_adapt"} or not _finite(
                list(errors.values())):
            problems.append("report.json: furthest-point errors missing or non-finite")
        if not problems:
            digests.update(current)
        return problems
    changed = sorted(n for n in current if current[n] != digests.get(n))
    if changed:
        problems.append(f"outputs differ from the first op: {', '.join(changed)}")
    return problems


WORKLOADS = {
    "adaptive_trial": adaptive_trial,
    "cli_walkthrough": cli_walkthrough,
}
