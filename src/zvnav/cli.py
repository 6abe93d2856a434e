"""Command line toolkit.

The six command groups (zv, classify, sim, survey, ins, eval) live under one
``zvnav`` entry point, e.g. ``zvnav zv detect ...`` or ``zvnav eval trial ...``.
Shared EKF/detector defaults can come from a ``key = value`` config file
(--config). ``io.CONFIG_TABLE`` maps each key to the field it sets and
``_configure`` applies it; a flag named like a key overrides the config
value. Bad input files, config files, models or option values, and a gamma
sweep or SVM fit that finds no solution, end a command with a one-line error
rather than a traceback.
"""
from __future__ import annotations

import math
from pathlib import Path

import click
import numpy as np

from . import io as zio
from .core import DEFAULT_RATE_HZ, ImuStream, read_json_object, write_json
from .detector import AdaptiveParams, DetectorParams, detect
from .ekf import EkfConfig, run_ins
from .evaluate import (DEFAULT_MARKER_EVERY, adaptive_zupts, check_triggers,
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
from .simulate import CLASS_IDS, CLASS_NAMES, DEFAULT_DURATION, NoiseModel, gait_preset, simulate
from .survey import DEFAULT_TAG_SIDE, build_map, frame_to_frame, tag_template
from .svm import (
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


def _settings(values: dict) -> tuple[DetectorParams, EkfConfig, dict]:
    """The ``io.CONFIG_TABLE`` targets, set from the table keys in ``values``.

    The ``ImuStream`` target comes back as ``read_imu_csv`` keyword arguments.
    """
    fields = {DetectorParams: {}, EkfConfig: {}, ImuStream: {}}
    for key, target, name, cast in zio.CONFIG_TABLE:
        if key in values:
            fields[target][name] = cast(values[key])
    return (DetectorParams(**fields[DetectorParams]), EkfConfig(**fields[EkfConfig]),
            fields[ImuStream])


def _configure(imu, config_path, **flags):
    """A command's IMU log, detector and filter settings, and the config keys set.

    Settings are the defaults, then the config file's values, then the flags
    given; ``flags`` are the command's options named like config keys. The
    config values are applied on their own first, the ``ImuStream`` ones to a
    one-sample stream, so a value that a target rejects fails naming the file.
    """
    cfg = zio.load_config(config_path) if config_path else {}
    try:
        _, _, imu_opts = _settings(cfg)
        ImuStream(np.zeros(1), np.zeros((1, 3)), np.zeros((1, 3)), **imu_opts)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{config_path}: {exc}") from None
    given = {**cfg, **{key: v for key, v in flags.items() if v is not None}}
    detector, ekf_cfg, imu_opts = _settings(given)
    return zio.read_imu_csv(imu, **imu_opts), detector, ekf_cfg, given


class _Group(click.Group):
    """Reports bad input data, and a sweep or fit that found no solution, as one-line errors."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OptimizationFailedError, TrainingFailedError) as exc:
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
@click.option("--gamma", type=float, default=None, help="Detection threshold.")
@click.option("--window", type=int, default=None)
@click.option("--sigma-a", type=float, default=None)
@click.option("--sigma-w", type=float, default=None)
@click.option("--gravity", type=float, default=None)
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--out", required=True, type=click.Path())
def zv_detect(imu, gamma, window, sigma_a, sigma_w, gravity, config, out):
    """Flag stationary samples; writes a t,stationary CSV."""
    stream, params, _, _ = _configure(imu, config, window=window, sigma_a=sigma_a,
                                      sigma_w=sigma_w, gravity=gravity, gamma=gamma)
    flags = detect(stream, params)
    zio.write_detect_csv(out, stream.t, flags)
    click.echo(f"{int(flags.sum())} of {len(stream)} samples stationary (gamma={params.gamma:g})")


@zv.command("optimize")
@click.option("--imu", required=True, type=click.Path(exists=True))
@click.option("--mocap", required=True, type=click.Path(exists=True))
@click.option("--motion", required=True, type=click.Choice(["walk", "run"]))
@click.option("--beta2", type=float, default=None, help="F-score beta^2 weight.")
@click.option("--speed-threshold", type=float, default=None,
              help="Ground-truth labeling speed threshold, m/s.")
@click.option("--grid-points", type=int, default=GAMMA_GRID_POINTS)
@click.option("--window", type=int, default=None)
@click.option("--sigma-a", type=float, default=None)
@click.option("--sigma-w", type=float, default=None)
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--curve-out", type=click.Path(), default=None,
              help="Write the gamma,precision,recall,f_beta curve CSV here.")
def zv_optimize(imu, mocap, motion, beta2, speed_threshold, grid_points,
                window, sigma_a, sigma_w, config, curve_out):
    """Sweep gamma against mocap ground truth and print the optimum."""
    stream, detector, _, _ = _configure(imu, config, window=window, sigma_a=sigma_a,
                                        sigma_w=sigma_w)
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
@click.option("--window-len", type=int, default=DEFAULT_WINDOW_LEN, show_default=True)
@click.option("--stride", type=int, default=15, show_default=True)
@click.option("--kernel-width", type=float, default=None,
              help="RBF width; defaults to 1/(6*window-len).")
@click.option("--c-reg", type=float, default=1.0, show_default=True)
def classify_train(trials, out, classes, trim, window_len, stride, kernel_width, c_reg):
    """Train on the first half of each trial, evaluate on the second."""
    wanted = None if classes is None else {int(c) for c in classes.split(",")}
    files = sorted(Path(trials).glob("*.csv"))
    per_class: dict[int, list] = {}
    for f in files:
        cls = _class_of_filename(f.name)
        if cls is None or (wanted is not None and cls not in wanted):
            continue
        stream = zio.read_imu_csv(f)
        if trim > 0:
            if len(stream) <= 2 * trim:
                raise click.UsageError(f"{f.name}: too short for --trim {trim}")
            stream = stream[trim:len(stream) - trim]
        per_class.setdefault(cls, []).append(stream)
    if len(per_class) < 2:
        raise click.UsageError("need trials from at least two classes")

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
    model = train(X_train, y_train, kernel_width=kernel_width, c_reg=c_reg,
                  norm_stats=norm, window_len=window_len)
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
    model = load_model(model_path)
    stream = zio.read_imu_csv(imu)
    labels = classify_stream(model, stream)
    zio.write_predict_csv(out, stream.t, labels.raw, labels.smoothed)
    click.echo(f"classified {len(stream)} samples with classes {list(model.classes)}")


# --- sim -------------------------------------------------------------------


def _parse_segments(text: str):
    segments = []
    for part in text.split(","):
        fields = part.strip().split(":")
        if len(fields) not in (2, 3):
            raise click.UsageError("segments look like 'walk:20' or 'walk:20:3.1416'")
        name, dur = fields[0], float(fields[1])
        profile = gait_preset(name, heading=float(fields[2]) if len(fields) == 3 else 0.0)
        segments.append((profile, dur))
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
@click.option("--seed", type=int, default=0, show_default=True)
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
@click.option("--marker-every", type=int, default=DEFAULT_MARKER_EVERY, show_default=True,
              help="Strides between synthetic markers.")
def sim_gait(motion, duration, segments, seed, rate, accel_noise, gyro_noise,
             out, truth_out, mocap_out, markers_out, triggers_out, marker_every):
    """Generate a gait trial: IMU log plus exact ground truth."""
    noise = NoiseModel(accel_noise_std=accel_noise, gyro_noise_std=gyro_noise, seed=seed)
    if segments:
        stream, truth = simulate(_parse_segments(segments), noise, rate)
    else:
        stream, truth = simulate(gait_preset(motion, duration=duration), noise, rate)
    zio.write_imu_csv(out, stream)
    zio.write_truth_csv(truth_out, truth)
    if mocap_out:
        zio.write_mocap_csv(mocap_out, MocapStream(truth.t, truth.pos, rate))
    if markers_out or triggers_out:
        marker_map, triggers = marker_layout_from_truth(truth, marker_every)
        if markers_out:
            zio.write_marker_map_json(markers_out, marker_map)
        if triggers_out:
            zio.write_trigger_csv(triggers_out, triggers)
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
    stations = zio.read_survey_json(observations)
    template = tag_template(side)
    forward: dict[tuple[int, int], object] = {}
    reverse: dict[tuple[int, int], object] = {}
    for obs in stations:
        if len(obs) != 2:
            raise click.UsageError("each station must observe exactly two markers")
        lo, hi = sorted(obs, key=lambda o: o.marker_id)
        if hi.marker_id != lo.marker_id + 1:
            raise click.UsageError("stations must observe adjacent marker ids")
        pair = (lo.marker_id, hi.marker_id)
        transform = frame_to_frame(lo, hi, template)
        if pair not in forward:
            forward[pair] = transform
        elif pair not in reverse:
            reverse[pair] = transform
        else:
            raise click.UsageError(f"marker pair {pair} surveyed more than twice")
    pairs = sorted(forward)
    if pairs != [(i, i + 1) for i in range(len(pairs))]:
        raise click.UsageError("surveyed pairs must form a contiguous chain from marker 0")
    fwd_chain = [forward[p] for p in pairs]
    rev_chain = [reverse[p] for p in pairs] if len(reverse) == len(forward) else None
    marker_map = build_map(fwd_chain, rev_chain)
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
    stream, detector, ekf_cfg, given = _configure(imu, config, gamma=gamma)

    if adaptive:
        if model_path is None or gamma_walk is None or gamma_run is None:
            raise click.UsageError("--adaptive needs --model, --gamma-walk and --gamma-run")
        _, flags = adaptive_zupts(stream, load_model(model_path), detector,
                                  AdaptiveParams(gamma_walk, gamma_run))
    else:
        if "gamma" not in given:
            raise click.UsageError("give --gamma (or a config value), or use --adaptive")
        flags = detect(stream, detector)

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
    """The ``--gammas`` JSON; bad JSON or a missing or bad value fails naming the file."""
    data = read_json_object(path, "a thresholds file")
    values = {}
    for key in ("gamma_walk", "gamma_run"):
        if key not in data:
            raise click.ClickException(f"{path}: missing key '{key}'")
        try:
            values[key] = float(data[key])
        except (TypeError, ValueError):
            values[key] = math.nan
        if not 0 < values[key] < math.inf:
            raise click.ClickException(f"{path}: '{key}' must be a positive number, "
                                       f"not {data[key]!r}")
    return AdaptiveParams(**values)


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
    stream, detector, ekf_cfg, _ = _configure(imu, config)
    model = load_model(model_path)
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
