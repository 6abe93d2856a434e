"""Command line toolkit.

The six command groups (zv, classify, sim, survey, ins, eval) live under one
``zvnav`` entry point, e.g. ``zvnav zv detect ...`` or ``zvnav eval trial ...``.
Shared EKF/detector settings can come from a ``key = value`` config file
(--config), and from there only: no option is named like a config key. Its
keys are the settings' field names, listed with their targets in
``io.CONFIG_TABLE``; ``_configure`` applies them. Detection thresholds are
arguments, never settings: ``--gamma``, ``--gamma-walk``/``--gamma-run``
or ``--gammas``. Bad input files, config files,
models or option values, and a gamma sweep or SVM fit that finds no
solution, end a command with a one-line error rather than a traceback.
"""
from __future__ import annotations

import errno
import math
import os
from pathlib import Path

import click
import numpy as np

from . import io as zio
from .core import read_json_object, require_positive, write_json
from .detector import DEFAULT_GAMMA_WALK, AdaptiveParams, DetectorParams, detect
from .ekf import EkfConfig, run_ins
from .evaluate import (DEFAULT_MARKER_EVERY, adaptive_gamma, check_triggers,
                       marker_layout_from_truth, run_trial)
from .optimize import (
    GAMMA_GRID_POINTS,
    FBetaConfig,
    MocapStream,
    OptimizationFailedError,
    RUN_BETA_SQ,
    RUN_SPEED_THRESHOLD,
    WALK_BETA_SQ,
    WALK_SPEED_THRESHOLD,
    default_gamma_grid,
    optimize_gamma,
)
from .simulate import (CLASS_IDS, CLASS_NAMES, DEFAULT_DURATION, DEFAULT_RATE_HZ, NoiseModel,
                       gait_preset, simulate)
from .survey import DEFAULT_TAG_SIDE, build_map, tag_template
from .svm import (
    DEFAULT_C_REG,
    DEFAULT_WINDOW_LEN,
    NormStats,
    TrainingFailedError,
    build_windows,
    classify_stream,
    load_model,
    predict_batch,
    save_model,
    train,
)


def _settings(values: dict) -> tuple[DetectorParams, EkfConfig]:
    """The ``io.CONFIG_TABLE`` targets, each field set from the same-named key in ``values``."""
    fields = {DetectorParams: {}, EkfConfig: {}}
    for key, target, cast in zio.CONFIG_TABLE:
        if key in values:
            try:
                fields[target][key] = cast(values[key])
            except (ValueError, OverflowError) as exc:  # int() of NaN or infinity
                raise ValueError(f"{key} = {values[key]:g}: {exc}") from None
    return DetectorParams(**fields[DetectorParams]), EkfConfig(**fields[EkfConfig])


def _configure(imu, config_path):
    """A command's IMU log, and its detector and filter settings: the defaults, then
    the config file's values. A value that a setting rejects fails naming the file."""
    cfg = zio.load_config(config_path) if config_path else {}
    try:
        settings = _settings(cfg)
    except ValueError as exc:
        raise ValueError(f"{config_path}: {exc}") from None
    return (zio.read_imu_csv(imu), *settings)


def _load_model(model_path, imu, stream):
    """The SVM model file; a log shorter than the model's window fails naming the log."""
    model = load_model(model_path)
    if len(stream) < model.window_len:
        raise ValueError(f"{imu}: {len(stream)} samples, fewer than the model's "
                         f"window K={model.window_len}")
    return model


def _check_output(path) -> None:
    """Fail as opening ``path`` to write would if it is a directory or its directory is missing."""
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    if not path.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))


class _Group(click.Group):
    """Reports bad input data, a file it cannot open and a failed sweep or fit as one line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError, OptimizationFailedError, TrainingFailedError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Group)
def main():
    """Adaptive zero-velocity-aided inertial navigation toolkit."""


# --- zv ------------------------------------------------------------------


@main.group()
def zv():
    """Zero-velocity detection and threshold optimization."""


@zv.command("detect")
@click.option("--imu", required=True, type=click.Path(exists=True))
@click.option("--gamma", type=float, default=DEFAULT_GAMMA_WALK, show_default=True,
              help="Detection threshold.")
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--out", required=True, type=click.Path())
def zv_detect(imu, gamma, config, out):
    """Flag stationary samples; writes a t,stationary CSV."""
    stream, params, _ = _configure(imu, config)
    flags = detect(stream, params, gamma)
    zio.write_detect_csv(out, stream.t, flags)
    click.echo(f"{int(flags.sum())} of {len(stream)} samples stationary (gamma={gamma:g})")


@zv.command("optimize")
@click.option("--imu", required=True, type=click.Path(exists=True))
@click.option("--mocap", required=True, type=click.Path(exists=True))
@click.option("--motion", required=True, type=click.Choice(["walk", "run"]))
@click.option("--beta2", type=float, default=None, help="F-score beta^2 weight.")
@click.option("--speed-threshold", type=float, default=None,
              help="Ground-truth labeling speed threshold, m/s.")
@click.option("--grid-points", type=int, default=GAMMA_GRID_POINTS)
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--curve-out", type=click.Path(), default=None,
              help="Write the gamma,precision,recall,f_beta curve CSV here.")
def zv_optimize(imu, mocap, motion, beta2, speed_threshold, grid_points, config, curve_out):
    """Sweep gamma against mocap ground truth and print the optimum."""
    stream, detector, _ = _configure(imu, config)
    if beta2 is None:
        beta2 = WALK_BETA_SQ if motion == "walk" else RUN_BETA_SQ
    if speed_threshold is None:
        speed_threshold = WALK_SPEED_THRESHOLD if motion == "walk" else RUN_SPEED_THRESHOLD
    mocap_stream = zio.read_mocap_csv(mocap)
    fcfg = FBetaConfig(beta_sq=beta2, speed_threshold=speed_threshold,
                       gamma_grid=default_gamma_grid(grid_points))
    gamma_opt, curve = optimize_gamma(stream, mocap_stream, detector, fcfg)
    if curve_out:
        zio.write_pr_curve_csv(curve_out, curve)
    best = int(np.argmax(curve.f_beta))
    click.echo(f"gamma_opt = {gamma_opt!r} (F_beta = {curve.f_beta[best]:.4f}, "
               f"P = {curve.precision[best]:.4f}, R = {curve.recall[best]:.4f})")


# --- classify --------------------------------------------------------------


def _class_of_filename(name: str) -> int | None:
    stem = Path(name).stem.lower()
    for cls_name, cls_id in CLASS_IDS.items():
        if stem.startswith(cls_name):
            return cls_id
    if stem[:1].isdigit() and (len(stem) == 1 or not stem[1].isdigit()):
        return int(stem[0])
    return None


def _class_id(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"--classes: {text.strip()!r} is not an integer class id") from None


@main.group()
def classify():
    """SVM motion classification."""


@classify.command("train")
@click.option("--trials", required=True, type=click.Path(exists=True, file_okay=False),
              help="Directory of per-motion IMU CSVs named <class>*.csv "
                   "(walk, jog, run, sprint, crouch, ladder or a digit prefix).")
@click.option("--out", required=True, type=click.Path())
@click.option("--classes", default=None,
              help="Comma-separated class ids to train on, e.g. '0,2'.")
@click.option("--trim", type=click.IntRange(min=0), default=1000, show_default=True,
              help="Samples dropped from each end of every trial.")
@click.option("--window-len", type=click.IntRange(min=1), default=DEFAULT_WINDOW_LEN,
              show_default=True)
@click.option("--stride", type=click.IntRange(min=1), default=15, show_default=True)
@click.option("--kernel-width", type=float, default=None,
              help="RBF width; defaults to 1/(6*window-len).")
@click.option("--c-reg", type=float, default=DEFAULT_C_REG, show_default=True)
def classify_train(trials, out, classes, trim, window_len, stride, kernel_width, c_reg):
    """Train on the first half of each trial, evaluate on the second."""
    wanted = None if classes is None else {_class_id(c) for c in classes.split(",")}
    files = sorted(Path(trials).glob("*.csv"))
    per_class: dict[int, list] = {}
    for f in files:
        cls = _class_of_filename(f.name)
        if cls is None or (wanted is not None and cls not in wanted):
            continue
        stream = zio.read_imu_csv(f)
        half = (len(stream) - 2 * trim) // 2
        if half < window_len:
            short = f"{f.name}: too short for --trim {trim}"
            raise ValueError(short if half < 1 else f"{short}: a half holds {half} samples, "
                                                    f"fewer than --window-len {window_len}")
        stream = stream[trim:len(stream) - trim]
        per_class.setdefault(cls, []).append(stream)
    if len(per_class) < 2:
        raise ValueError(f"{trials}: need trials from at least two classes")

    train_streams, test_streams = {}, {}
    for cls, streams in per_class.items():
        train_streams[cls] = [s[: len(s) // 2] for s in streams]
        test_streams[cls] = [s[len(s) // 2:] for s in streams]

    norm = NormStats.from_streams([s for ss in train_streams.values() for s in ss])

    def windows_of(split):
        xs, ys = [], []
        for cls, streams in sorted(split.items()):
            for s in streams:
                w = build_windows(s, window_len, stride, norm)
                xs.append(w)
                ys.append(np.full(w.shape[0], cls))
        return np.vstack(xs), np.concatenate(ys)

    X_train, y_train = windows_of(train_streams)
    X_test, y_test = windows_of(test_streams)
    model = train(X_train, y_train, kernel_width=kernel_width, c_reg=c_reg, norm_stats=norm)
    save_model(model, out)

    test_acc = float(np.mean(predict_batch(model, X_test) == y_test))
    click.echo(f"trained on {X_train.shape[0]} windows, classes {sorted(per_class)}")
    click.echo(f"train accuracy = {model.train_accuracy:.4f}, test accuracy = {test_acc:.4f}")


@classify.command("predict")
@click.option("--imu", required=True, type=click.Path(exists=True))
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
def classify_predict(imu, model_path, out):
    """Per-sample motion labels; writes a t,y_raw,y_smooth CSV."""
    stream = zio.read_imu_csv(imu)
    model = _load_model(model_path, imu, stream)
    labels = classify_stream(model, stream)
    zio.write_predict_csv(out, stream.t, labels.raw, labels.smoothed)
    click.echo(f"classified {len(stream)} samples with classes {list(model.classes)}")


# --- sim -------------------------------------------------------------------


def _parse_segments(text: str):
    """``--segments`` as (profile, duration) pairs; a malformed segment fails naming it."""
    segments = []
    for part in text.split(","):
        segment = part.strip()
        name, *numbers = segment.split(":")
        if len(numbers) not in (1, 2):
            raise ValueError(f"--segments: {segment!r}: expected name:duration[:heading_rad]")
        values = []
        for v in numbers:
            try:
                values.append(float(v))
            except ValueError:
                raise ValueError(f"--segments: {segment!r}: cannot read {v!r} as a number") from None
        segments.append((gait_preset(name, *values[1:]), values[0]))
    return segments


@main.group()
def sim():
    """Synthetic gait generation."""


@sim.command("gait")
@click.option("--motion", default="walk", type=click.Choice(list(CLASS_NAMES)))
@click.option("--duration", type=float, default=DEFAULT_DURATION, show_default=True)
@click.option("--segments", default=None,
              help="Piecewise trial, e.g. 'walk:20,run:20,walk:20:3.1416' "
                   "(name:duration[:heading_rad]); overrides --motion/--duration.")
@click.option("--seed", type=int, default=NoiseModel.seed, show_default=True)
@click.option("--rate", type=float, default=DEFAULT_RATE_HZ, show_default=True)
@click.option("--accel-noise", type=float, default=NoiseModel.accel_noise_std, show_default=True)
@click.option("--gyro-noise", type=float, default=NoiseModel.gyro_noise_std, show_default=True)
@click.option("--out", required=True, type=click.Path(), help="IMU CSV output.")
@click.option("--truth", "truth_out", required=True, type=click.Path(),
              help="Truth CSV output (t,x,y,z,vx,vy,vz,stance,class).")
@click.option("--mocap-out", type=click.Path(), default=None,
              help="Also write truth positions as a mocap t,x,y,z CSV.")
@click.option("--markers-out", type=click.Path(), default=None,
              help="Write a synthetic surveyed marker map JSON.")
@click.option("--triggers-out", type=click.Path(), default=None,
              help="Write synthetic trigger timestamps (t,marker_id CSV).")
@click.option("--marker-every", type=click.IntRange(min=1), default=DEFAULT_MARKER_EVERY,
              show_default=True,
              help="Strides between synthetic markers.")
def sim_gait(motion, duration, segments, seed, rate, accel_noise, gyro_noise,
             out, truth_out, mocap_out, markers_out, triggers_out, marker_every):
    """Generate a gait trial: IMU log plus exact ground truth."""
    noise = NoiseModel(accel_noise_std=accel_noise, gyro_noise_std=gyro_noise, seed=seed)
    plan = _parse_segments(segments) if segments else [(gait_preset(motion), duration)]
    stream, truth = simulate(plan, noise, rate)
    marker_map = triggers = None
    if markers_out or triggers_out:
        marker_map, triggers = marker_layout_from_truth(truth, marker_every)
    writes = [(path, write, data) for path, write, data in [
        (out, zio.write_imu_csv, stream),
        (truth_out, zio.write_truth_csv, truth),
        (mocap_out, zio.write_mocap_csv, MocapStream(truth.t, truth.pos, rate)),
        (markers_out, zio.write_marker_map_json, marker_map),
        (triggers_out, zio.write_trigger_csv, triggers),
    ] if path]
    for path, _, _ in writes:
        _check_output(path)
    for path, write, data in writes:
        write(path, data)
    click.echo(f"simulated {len(stream)} samples "
               f"({truth.path_length():.1f} m path, seed {seed})")


# --- survey ------------------------------------------------------------------


@main.group()
def survey():
    """Marker map surveying."""


@survey.command("map")
@click.option("--observations", required=True, type=click.Path(exists=True),
              help="Survey JSON: stations each observing two adjacent markers. "
                   "A repeated marker pair feeds the reverse chain for loop closure.")
@click.option("--out", required=True, type=click.Path())
@click.option("--side", type=float, default=DEFAULT_TAG_SIDE, show_default=True,
              help="Tag side length for the template, m.")
def survey_map(observations, out, side):
    """Compound surveyed frame pairs into one marker map."""
    require_positive({"--side": side})
    stations = zio.read_survey_json(observations)
    try:
        marker_map = build_map(stations, tag_template(side))
    except ValueError as exc:
        raise ValueError(f"{observations}: {exc}") from None
    zio.write_marker_map_json(out, marker_map)
    click.echo(f"{len(marker_map.marker_ids)} markers, "
               f"loop closure {marker_map.loop_closure_m:.4f} m over "
               f"{marker_map.path_length_m:.1f} m")


# --- ins ---------------------------------------------------------------------


@main.group()
def ins():
    """Zero-velocity-aided inertial navigation."""


@ins.command("run")
@click.option("--imu", required=True, type=click.Path(exists=True))
@click.option("--gamma", type=float, default=None, help="Fixed detection threshold.")
@click.option("--adaptive", is_flag=True, help="Switch thresholds by classified motion.")
@click.option("--model", "model_path", type=click.Path(exists=True), default=None)
@click.option("--gamma-walk", type=float, default=None)
@click.option("--gamma-run", type=float, default=None)
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--out", required=True, type=click.Path())
def ins_run(imu, gamma, adaptive, model_path, gamma_walk, gamma_run, config, out):
    """Run the INS with a fixed or adaptive threshold; writes a trajectory CSV."""
    thresholds = {"--gamma": gamma, "--model": model_path,
                  "--gamma-walk": gamma_walk, "--gamma-run": gamma_run}
    needed = ("--model", "--gamma-walk", "--gamma-run") if adaptive else ("--gamma",)
    unused = [flag for flag, value in thresholds.items()
              if value is not None and flag not in needed]
    if unused:
        raise click.UsageError(f"{', '.join(unused)}: not used "
                               f"{'with' if adaptive else 'without'} --adaptive")
    if any(thresholds[flag] is None for flag in needed):
        raise click.UsageError("--adaptive needs --model, --gamma-walk and --gamma-run"
                               if adaptive else "give --gamma, or use --adaptive")
    stream, detector, ekf_cfg = _configure(imu, config)

    if adaptive:
        _, gamma = adaptive_gamma(stream, _load_model(model_path, imu, stream),
                                  AdaptiveParams(gamma_walk, gamma_run))
    flags = detect(stream, detector, gamma)
    traj = run_ins(stream, flags, ekf_cfg)
    zio.write_trajectory_csv(out, traj)
    end = traj.pos[-1]
    click.echo(f"{int(flags.sum())} zero-velocity updates; "
               f"final position ({end[0]:.3f}, {end[1]:.3f}, {end[2]:.3f}) m")


# --- eval ----------------------------------------------------------------------


@main.group(name="eval")
def eval_group():
    """Trial scoring against surveyed markers."""


def _read_gammas(path) -> AdaptiveParams:
    """The ``--gammas`` JSON; bad JSON or a missing or bad value fails naming the file.
    A value that is not a JSON number, a bool or a string included, is a bad value."""
    def parse(data):
        values = {}
        for key in ("gamma_walk", "gamma_run"):
            value = data[key]
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            try:
                values[key] = float(value) if number else math.nan  # AdaptiveParams names the key
            except OverflowError:  # an integer beyond the float range
                values[key] = math.inf
        return AdaptiveParams(**values)
    return read_json_object(path, "a thresholds file", parse)


@eval_group.command("trial")
@click.option("--imu", required=True, type=click.Path(exists=True))
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--gammas", required=True, type=click.Path(exists=True),
              help='JSON {"gamma_walk": ..., "gamma_run": ...}.')
@click.option("--triggers", required=True, type=click.Path(exists=True))
@click.option("--markers", required=True, type=click.Path(exists=True))
@click.option("--truth", "truth_path", type=click.Path(exists=True), default=None,
              help="Truth CSV for SVM accuracy scoring.")
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--report", required=True, type=click.Path())
def eval_trial(imu, model_path, gammas, triggers, markers, truth_path, config, report):
    """Score fixed-walk, fixed-run and adaptive thresholding on one trial."""
    stream, detector, ekf_cfg = _configure(imu, config)
    model = _load_model(model_path, imu, stream)
    adaptive = _read_gammas(gammas)
    trigger_log = zio.read_trigger_csv(triggers)
    marker_map = zio.read_marker_map_json(markers)
    try:
        check_triggers(stream, trigger_log, marker_map)
    except ValueError as exc:
        raise ValueError(f"{triggers}: {exc}") from None
    class_truth = zio.read_truth_csv(truth_path)["labels"] if truth_path else None
    if class_truth is not None and len(class_truth) != len(stream):
        raise click.ClickException(f"{truth_path}: {len(class_truth)} labels for the "
                                   f"{len(stream)} samples of {imu}")

    result = run_trial(stream, model, adaptive, detector, ekf_cfg,
                       trigger_log, marker_map, class_truth=class_truth)
    write_json(report, result.to_dict())
    for method, err in result.furthest_errors.items():
        click.echo(f"{method}: furthest-point error {err:.3f} m")
    if result.svm_accuracy is not None:
        click.echo(f"svm accuracy {result.svm_accuracy:.4f}")


if __name__ == "__main__":
    main()
