import importlib
import inspect
import json
import math
import pkgutil
import re
import warnings
from unittest import mock

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import zvnav
from zvnav import cli
from zvnav import io as zio
from zvnav.cli import _Group, main
from zvnav.core import ImuStream
from zvnav.detector import AdaptiveParams, DetectorParams, detect
from zvnav.evaluate import adaptive_gamma, marker_layout_from_truth
from zvnav.optimize import default_gamma_grid
from zvnav.simulate import DEFAULT_DURATION, NoiseModel, simulate
from zvnav.survey import tag_template
from zvnav.svm import build_windows, load_model, save_model, train

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def run_cli(args):
    runner = CliRunner()
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def cli_error(args) -> str:
    """Run a command that must fail with a one-line error; return that line."""
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.output
    return lines[0]


def usage_error(args) -> str:
    """Run a command that click rejects before it runs; return its last line, the error."""
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    return result.output.strip().splitlines()[-1]


def rerun_identical(args, outputs):
    """Run a command twice and require byte-identical output files."""
    first = {}
    run_cli(args)
    for path in outputs:
        first[path] = path.read_bytes()
        path.unlink()
    run_cli(args)
    for path in outputs:
        assert path.read_bytes() == first[path], f"{path.name} not reproducible"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared CLI artifacts: simulated trials, a trained model, survey files."""
    root = tmp_path_factory.mktemp("cli")

    run_cli(["sim", "gait", "--motion", "walk", "--duration", "20", "--seed", "7",
             "--out", str(root / "walk.csv"), "--truth", str(root / "walk_truth.csv"),
             "--mocap-out", str(root / "walk_mocap.csv")])
    run_cli(["sim", "gait", "--motion", "run", "--duration", "20", "--seed", "8",
             "--out", str(root / "run.csv"), "--truth", str(root / "run_truth.csv"),
             "--mocap-out", str(root / "run_mocap.csv")])

    trials = root / "trials"
    trials.mkdir()
    (trials / "walk_a.csv").write_bytes((root / "walk.csv").read_bytes())
    (trials / "run_a.csv").write_bytes((root / "run.csv").read_bytes())

    run_cli(["classify", "train", "--trials", str(trials), "--out", str(root / "model.json"),
             "--classes", "0,2", "--trim", "100", "--stride", "10"])

    run_cli(["sim", "gait", "--segments", "walk:12,run:12,walk:12:3.14159,run:12:3.14159",
             "--seed", "9", "--out", str(root / "mixed.csv"),
             "--truth", str(root / "mixed_truth.csv"),
             "--markers-out", str(root / "markers.json"),
             "--triggers-out", str(root / "triggers.csv"),
             "--marker-every", "8"])

    (root / "gammas.json").write_text(json.dumps({"gamma_walk": 3.4e5, "gamma_run": 6.9e6}))
    return root


class TestSimGait:
    def test_outputs_exist_with_expected_formats(self, workdir):
        stream = zio.read_imu_csv(workdir / "walk.csv")
        assert len(stream) == 2500
        truth = zio.read_truth_csv(workdir / "walk_truth.csv")
        assert truth["pos"].shape == (2500, 3)
        markers = zio.read_marker_map_json(workdir / "markers.json")
        triggers = zio.read_trigger_csv(workdir / "triggers.csv")
        assert len(markers.marker_ids) == len(triggers)

    def test_deterministic(self, tmp_path):
        out, truth = tmp_path / "imu.csv", tmp_path / "truth.csv"
        rerun_identical(["sim", "gait", "--motion", "walk", "--duration", "5", "--seed", "3",
                         "--out", str(out), "--truth", str(truth)], [out, truth])

    @pytest.mark.parametrize("args, message", [
        (["--duration", "inf"], "segment duration must be positive and finite"),
        (["--duration", "nan"], "segment duration must be positive and finite"),
        (["--rate", "inf"], "rate_hz must be positive and finite"),
        (["--rate", "nan"], "rate_hz must be positive and finite"),
        (["--segments", "walk:inf"], "segment duration must be positive and finite"),
        (["--segments", "walk:nan"], "segment duration must be positive and finite"),
        (["--segments", "walk:10:inf"], "heading must be finite"),
        (["--segments", "walk:10:nan"], "heading must be finite"),
        (["--segments", "walk:abc"], "--segments: 'walk:abc': cannot read 'abc' as a number"),
        (["--segments", "walk:5:"], "--segments: 'walk:5:': cannot read '' as a number"),
        (["--segments", "walk:5,run"],
         "--segments: 'run': expected name:duration[:heading_rad]"),
        (["--segments", "walk:5:0:1"],
         "--segments: 'walk:5:0:1': expected name:duration[:heading_rad]"),
        (["--accel-noise", "nan"], "accel_noise_std must be non-negative and finite"),
        (["--gyro-noise", "inf"], "gyro_noise_std must be non-negative and finite"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_a_non_finite_input_is_a_one_line_error(self, tmp_path, args, message):
        out = tmp_path / "imu.csv"
        line = cli_error(["sim", "gait", *args, "--out", str(out),
                          "--truth", str(tmp_path / "truth.csv")])
        assert line == f"Error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--mocap-out", "--markers-out", "--triggers-out"])
    def test_an_unwritable_later_output_writes_no_file(self, tmp_path, option):
        bad = tmp_path / "nodir" / "out"
        line = cli_error(["sim", "gait", "--duration", "5", "--out", str(tmp_path / "imu.csv"),
                          "--truth", str(tmp_path / "truth.csv"), option, str(bad)])
        assert line == f"Error: [Errno 2] No such file or directory: '{bad}'"
        assert list(tmp_path.iterdir()) == []

    def test_marker_every_below_one_is_a_usage_error_naming_it(self, tmp_path):
        out = tmp_path / "imu.csv"
        line = usage_error(["sim", "gait", "--duration", "5", "--out", str(out),
                            "--truth", str(tmp_path / "truth.csv"),
                            "--markers-out", str(tmp_path / "markers.json"),
                            "--marker-every", "0"])
        assert line == "Error: Invalid value for '--marker-every': 0 is not in the range x>=1."
        assert not out.exists()


class TestZv:
    def test_detect_writes_flags(self, workdir, tmp_path):
        out = tmp_path / "flags.csv"
        run_cli(["zv", "detect", "--imu", str(workdir / "walk.csv"),
                 "--gamma", "340000", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "t,stationary"
        flags = np.array([int(l.split(",")[1]) for l in lines[1:]])
        truth = zio.read_truth_csv(workdir / "walk_truth.csv")
        assert np.mean((flags == 1) == truth["stance"]) > 0.9

    def test_detect_deterministic(self, workdir, tmp_path):
        out = tmp_path / "flags.csv"
        rerun_identical(["zv", "detect", "--imu", str(workdir / "walk.csv"),
                         "--gamma", "340000", "--out", str(out)], [out])

    def test_a_config_gamma_is_an_unknown_key(self, workdir, tmp_path):
        # the threshold is an argument (--gamma), not a setting
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("window = 5\ngamma = 1e5\n")
        line = cli_error(["zv", "detect", "--imu", str(workdir / "walk.csv"),
                          "--config", str(cfg), "--out", str(tmp_path / "flags.csv")])
        assert line.startswith(f"Error: {cfg}, line 2: unknown config key 'gamma'")
        assert not (tmp_path / "flags.csv").exists()

    @pytest.mark.parametrize("gamma", ["nan", "inf", "-inf", "0", "-1"])
    def test_detect_rejects_a_gamma_that_is_not_positive_and_finite(self, workdir, tmp_path,
                                                                     gamma):
        line = cli_error(["zv", "detect", "--imu", str(workdir / "walk.csv"), "--gamma", gamma,
                          "--out", str(tmp_path / "flags.csv")])
        assert line == "Error: gamma must be positive and finite"
        assert not (tmp_path / "flags.csv").exists()

    def test_detect_rejects_unknown_config_key(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("window = 5\nsigma_zup = 5\n")
        line = cli_error(["zv", "detect", "--imu", str(workdir / "walk.csv"),
                          "--config", str(cfg), "--out", str(tmp_path / "flags.csv")])
        assert str(cfg) in line and "line 2" in line and "'sigma_zup'" in line
        assert not (tmp_path / "flags.csv").exists()

    def test_the_log_rate_is_not_a_config_key(self, workdir, tmp_path):
        # an IMU log states no rate, and no setting gives it one
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("rate_hz = 125\n")
        line = cli_error(["zv", "detect", "--imu", str(workdir / "walk.csv"),
                          "--config", str(cfg), "--out", str(tmp_path / "flags.csv")])
        assert line.startswith(f"Error: {cfg}, line 1: unknown config key 'rate_hz'")

    @pytest.mark.parametrize("command, flag, value", [
        ("detect", "--window", "5"),
        ("optimize", "--sigma-a", "0.01"),
    ], ids=["detect-window", "optimize-sigma-a"])
    def test_a_config_key_is_no_flag(self, workdir, tmp_path, command, flag, value):
        # detector settings come from --config alone
        out = tmp_path / "out.csv"
        args = {"detect": ["--out", str(out)],
                "optimize": ["--mocap", str(workdir / "walk_mocap.csv"), "--motion", "walk",
                             "--curve-out", str(out)]}[command]
        line = usage_error(["zv", command, "--imu", str(workdir / "walk.csv"), *args,
                            flag, value])
        assert line == f"Error: No such option '{flag}'."
        assert not out.exists()

    def test_detect_reports_malformed_csv_line(self, workdir, tmp_path):
        imu = tmp_path / "imu.csv"
        lines = (workdir / "walk.csv").read_text().splitlines()
        lines[3] = lines[3].replace(lines[3].split(",")[2], "0.0x16")
        imu.write_text("\n".join(lines) + "\n")
        line = cli_error(["zv", "detect", "--imu", str(imu), "--gamma", "340000",
                          "--out", str(tmp_path / "flags.csv")])
        assert str(imu) in line and "line 4" in line and "'0.0x16'" in line

    def test_detect_names_file_of_a_log_with_a_dropped_sample(self, workdir, tmp_path):
        imu = tmp_path / "dropped.csv"
        lines = (workdir / "mixed.csv").read_text().splitlines()
        del lines[99]
        imu.write_text("\n".join(lines) + "\n")
        line = cli_error(["zv", "detect", "--imu", str(imu), "--gamma", "340000",
                          "--out", str(tmp_path / "flags.csv")])
        assert line == f"Error: {imu}: timestamp jitter exceeds tolerance (10% of the median step)"

    def test_detect_rejects_repeated_timestamps(self, tmp_path):
        imu = tmp_path / "repeated.csv"
        imu.write_text("t,ax,ay,az,wx,wy,wz\n" + "0,0,0,9.8,0,0,0\n" * 3)
        line = cli_error(["zv", "detect", "--imu", str(imu), "--gamma", "340000",
                          "--out", str(tmp_path / "flags.csv")])
        assert line == f"Error: {imu}: timestamps must be strictly increasing"

    def test_optimize_prints_gamma_and_writes_curve(self, workdir, tmp_path):
        curve = tmp_path / "curve.csv"
        result = run_cli(["zv", "optimize", "--imu", str(workdir / "walk.csv"),
                          "--mocap", str(workdir / "walk_mocap.csv"), "--motion", "walk",
                          "--curve-out", str(curve)])
        assert "gamma_opt" in result.output
        assert curve.read_text().splitlines()[0] == "gamma,precision,recall,f_beta"

    def test_optimize_reports_a_grid_that_finds_no_operating_point(self, workdir):
        # one grid point, gamma = 100, flags no sample stationary
        line = cli_error(["zv", "optimize", "--imu", str(workdir / "run.csv"),
                          "--mocap", str(workdir / "run_mocap.csv"), "--motion", "run",
                          "--grid-points", "1"])
        assert line == "Error: F-beta is zero across the whole grid"

    def test_optimize_rejects_a_grid_without_points(self, workdir):
        line = cli_error(["zv", "optimize", "--imu", str(workdir / "walk.csv"),
                          "--mocap", str(workdir / "walk_mocap.csv"), "--motion", "walk",
                          "--grid-points", "-3"])
        assert line == "Error: grid points must be at least 1, not -3"

    def test_optimize_deterministic(self, workdir, tmp_path):
        curve = tmp_path / "curve.csv"
        rerun_identical(["zv", "optimize", "--imu", str(workdir / "walk.csv"),
                         "--mocap", str(workdir / "walk_mocap.csv"), "--motion", "walk",
                         "--curve-out", str(curve)], [curve])


class TestClassify:
    def test_train_writes_schema_model(self, workdir):
        data = json.loads((workdir / "model.json").read_text())
        assert set(data["classes"]) == {0, 2}
        assert data["K"] == 125
        assert set(data["pairs"][0]) == {"a", "b", "support_vectors", "alphas", "bias"}

    def test_train_deterministic(self, workdir, tmp_path):
        out = tmp_path / "model.json"
        rerun_identical(["classify", "train", "--trials", str(workdir / "trials"),
                         "--out", str(out), "--trim", "100", "--stride", "10"], [out])

    @pytest.mark.parametrize("flag, value, message", [
        ("--window-len", "0", "Invalid value for '--window-len': 0 is not in the range x>=1."),
        ("--stride", "0", "Invalid value for '--stride': 0 is not in the range x>=1."),
        ("--kernel-width", "0", "kernel_width must be positive and finite"),
        ("--kernel-width", "-1", "kernel_width must be positive and finite"),
        ("--c-reg", "inf", "c_reg must be positive and finite"),
        ("--classes", "0,a", "--classes: 'a' is not an integer class id"),
    ], ids=["window-len-0", "stride-0", "kernel-width-0", "kernel-width-negative", "c-reg-inf",
            "classes-a"])
    def test_train_rejects_flag_out_of_range(self, workdir, tmp_path, flag, value, message):
        # an integer below its range is click's usage error, which names the option
        args = ["classify", "train", "--trials", str(workdir / "trials"),
                "--out", str(tmp_path / "model.json"), "--trim", "100", "--stride", "10",
                flag, value]
        line = usage_error(args) if message.startswith("Invalid value") else cli_error(args)
        assert line == f"Error: {message}"
        assert not (tmp_path / "model.json").exists()

    def test_train_rejects_negative_trim(self, workdir, tmp_path):
        result = CliRunner().invoke(main, ["classify", "train", "--trials", str(workdir / "trials"),
                                           "--out", str(tmp_path / "model.json"), "--trim", "-5"])
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--trim'" in result.output
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("args, message", [
        (["--trim", "1250"], "run_a.csv: too short for --trim 1250"),
        (["--trim", "1200"], "run_a.csv: too short for --trim 1200: a half holds 50 samples, "
                             "fewer than --window-len 125"),
        (["--classes", "0"], "{trials}: need trials from at least two classes"),
    ], ids=["too-short-for-trim", "halves-shorter-than-window", "one-class"])
    def test_train_data_error_is_a_one_line_error(self, workdir, tmp_path, args, message):
        trials = workdir / "trials"
        line = cli_error(["classify", "train", "--trials", str(trials),
                          "--out", str(tmp_path / "model.json"), "--stride", "10", *args])
        assert line == "Error: " + message.format(trials=trials)
        assert not (tmp_path / "model.json").exists()

    def test_predict_labels_walk_as_walk(self, workdir, tmp_path):
        out = tmp_path / "labels.csv"
        run_cli(["classify", "predict", "--imu", str(workdir / "walk.csv"),
                 "--model", str(workdir / "model.json"), "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "t,y_raw,y_smooth"
        smooth = np.array([int(l.split(",")[2]) for l in lines[1:]])
        assert np.mean(smooth == 0) > 0.95

    def test_predict_rejects_a_json_that_is_not_a_model(self, workdir, tmp_path):
        markers = workdir / "markers.json"
        line = cli_error(["classify", "predict", "--imu", str(workdir / "walk.csv"),
                          "--model", str(markers), "--out", str(tmp_path / "labels.csv")])
        assert line == f"Error: {markers}: not an SVM model (missing field 'pairs')"

    def test_predict_deterministic(self, workdir, tmp_path):
        out = tmp_path / "labels.csv"
        rerun_identical(["classify", "predict", "--imu", str(workdir / "run.csv"),
                         "--model", str(workdir / "model.json"), "--out", str(out)], [out])


# damaged copies of a trained model file, and the error each gives
MODEL_DAMAGE = {
    "kernel-width-negative": ({"kernel_width": -1.0}, "kernel_width must be positive and finite"),
    "kernel-width-nan": ({"kernel_width": math.nan}, "kernel_width must be positive and finite"),
    "c-reg-inf": ({"c_reg": math.inf}, "c_reg must be positive and finite"),
    "norm-std-nan": ({"norm_std": [1.0, 1.0, math.nan, 1.0, 1.0, 1.0]},
                     "channel standard deviations must be positive and finite"),
    "bias-nan": ({"bias": math.nan}, "pair 0/2: support vectors, alphas and bias must be finite"),
}


def model_command(workdir, command, imu, model, out):
    """The arguments of a command that runs a model file on an IMU log."""
    imu, model, out = str(imu), str(model), str(out)
    return {
        "classify predict": ["classify", "predict", "--imu", imu, "--out", out],
        "ins run": ["ins", "run", "--imu", imu, "--adaptive", "--gamma-walk", "340000",
                    "--gamma-run", "6900000", "--out", out],
        "eval trial": ["eval", "trial", "--imu", imu, "--gammas", str(workdir / "gammas.json"),
                       "--triggers", str(workdir / "triggers.csv"),
                       "--markers", str(workdir / "markers.json"), "--report", out],
    }[command] + ["--model", model]


MODEL_COMMANDS = ["classify predict", "ins run", "eval trial"]


@pytest.mark.parametrize("command", MODEL_COMMANDS)
@pytest.mark.parametrize("damage", list(MODEL_DAMAGE))
def test_a_damaged_model_file_is_a_one_line_error_naming_it(workdir, tmp_path, command, damage):
    fields, message = MODEL_DAMAGE[damage]
    data = json.loads((workdir / "model.json").read_text())
    target = data["pairs"][0] if "bias" in fields else data
    target.update(fields)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(data))
    args = model_command(workdir, command, workdir / "mixed.csv", model, tmp_path / "out")
    assert cli_error(args) == f"Error: {model}: {message}"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", MODEL_COMMANDS)
def test_a_log_shorter_than_the_model_window_is_a_one_line_error_naming_it(workdir, tmp_path,
                                                                          command):
    imu = tmp_path / "short.csv"
    zio.write_imu_csv(imu, zio.read_imu_csv(workdir / "mixed.csv")[:100])
    args = model_command(workdir, command, imu, workdir / "model.json", tmp_path / "out")
    assert cli_error(args) == f"Error: {imu}: 100 samples, fewer than the model's window K=125"
    assert not (tmp_path / "out").exists()


class TestSurvey:
    @pytest.fixture()
    def survey_json(self, tmp_path):
        from zvnav.core import Quaternion, Se3Transform, quat_to_rotation
        from zvnav.survey import MarkerObservation, tag_template
        rng = np.random.default_rng(12)
        template = tag_template()
        poses = [Se3Transform.identity()]
        for i in range(1, 4):
            R = quat_to_rotation(Quaternion.from_rotvec([0, 0, rng.uniform(-0.2, 0.2)]))
            poses.append(Se3Transform(R, np.array([15.0 * i, rng.uniform(-1, 1), 0.0])))

        def obs_pair(k, station_id):
            phi = rng.normal(size=3)
            R = quat_to_rotation(Quaternion.from_rotvec(phi))
            station = Se3Transform(R, rng.normal(size=3) * 4)
            return [
                MarkerObservation(k, station.apply(poses[k].apply(template)), station_id),
                MarkerObservation(k + 1, station.apply(poses[k + 1].apply(template)), station_id),
            ]

        stations = [obs_pair(k, k) for k in range(3)]          # forward pass
        stations += [obs_pair(k, 100 + k) for k in range(3)]   # reverse pass
        path = tmp_path / "survey.json"
        zio.write_survey_json(path, stations)
        return path, np.array([p.translation for p in poses])

    def test_map_recovers_marker_positions(self, survey_json, tmp_path):
        path, true_positions = survey_json
        out = tmp_path / "map.json"
        result = run_cli(["survey", "map", "--observations", str(path), "--out", str(out)])
        assert "loop closure" in result.output
        marker_map = zio.read_marker_map_json(out)
        assert np.max(np.abs(marker_map.positions - true_positions)) < 1e-9
        assert marker_map.loop_closure_m < 1e-9

    def test_a_forward_only_survey_has_no_loop_closure(self, survey_json, tmp_path):
        path, true_positions = survey_json
        data = json.loads(path.read_text())
        del data["stations"][3:]
        path.write_text(json.dumps(data))
        out = tmp_path / "map.json"
        result = run_cli(["survey", "map", "--observations", str(path), "--out", str(out)])
        assert result.output == "4 markers, loop closure 0.0000 m over 45.1 m\n"
        assert np.max(np.abs(zio.read_marker_map_json(out).positions - true_positions)) < 1e-9

    def test_map_deterministic(self, survey_json, tmp_path):
        path, _ = survey_json
        out = tmp_path / "map.json"
        rerun_identical(["survey", "map", "--observations", str(path), "--out", str(out)], [out])

    @pytest.mark.parametrize("side", ["0", "-0.28", "nan", "inf"])
    def test_a_side_that_is_not_positive_and_finite_is_a_one_line_error(self, survey_json,
                                                                       tmp_path, side):
        path, _ = survey_json
        out = tmp_path / "map.json"
        line = cli_error(["survey", "map", "--observations", str(path), "--out", str(out),
                          "--side", side])
        assert line == "Error: --side must be positive and finite"
        assert not out.exists()

    def test_observations_without_their_key(self, workdir, tmp_path):
        # a marker map handed over in place of a survey
        markers = workdir / "markers.json"
        line = cli_error(["survey", "map", "--observations", str(markers),
                          "--out", str(tmp_path / "map.json")])
        assert line == f"Error: {markers}: not a survey (missing field 'stations')"


    @pytest.mark.parametrize("damage, message", [
        (lambda st: st[0].update(observations=st[0]["observations"][:1]),
         "each station must observe exactly two markers"),
        (lambda st: st[0]["observations"][1].update(marker_id=2),
         "stations must observe adjacent marker ids"),
        (lambda st: st.append(st[0]), "marker pair (0, 1) surveyed more than twice"),
        # both stations that survey the pair (0, 1)
        (lambda st: [st.pop(3), st.pop(0)],
         "surveyed pairs must form a contiguous chain from marker 0"),
        # the last reverse station, which surveys the pair (2, 3)
        (lambda st: st.pop(), "the reverse pass lacks marker pair (2, 3)"),
        (lambda st: st.clear(), "the survey holds no stations"),
        (lambda st: st[0]["observations"][0].update(points=[[i, 0.0, 0.0] for i in range(5)]),
         "source points are collinear or coincident"),
    ], ids=["one-marker", "not-adjacent", "three-times", "no-marker-0", "partial-reverse",
            "no-stations", "collinear-tag"])
    def test_a_broken_chain_is_a_one_line_error_naming_the_file(self, survey_json, tmp_path,
                                                               damage, message):
        path, _ = survey_json
        data = json.loads(path.read_text())
        damage(data["stations"])
        path.write_text(json.dumps(data))
        out = tmp_path / "map.json"
        line = cli_error(["survey", "map", "--observations", str(path), "--out", str(out)])
        assert line == f"Error: {path}: {message}"
        assert not out.exists()


class TestInsRun:
    def test_fixed_threshold(self, workdir, tmp_path):
        out = tmp_path / "traj.csv"
        run_cli(["ins", "run", "--imu", str(workdir / "walk.csv"),
                 "--gamma", "340000", "--out", str(out)])
        traj = zio.read_trajectory_csv(out)
        truth = zio.read_truth_csv(workdir / "walk_truth.csv")
        err = np.linalg.norm(traj.pos[-1, :2] - truth["pos"][-1, :2])
        assert err < 0.5

    def test_adaptive_needs_model(self, workdir, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["ins", "run", "--imu", str(workdir / "walk.csv"),
                                      "--adaptive", "--out", str(tmp_path / "t.csv")])
        assert result.exit_code != 0

    @pytest.mark.parametrize("flags, message", [
        ("--adaptive --gamma 3.4e5 --model MODEL --gamma-walk 3.4e5 --gamma-run 6.9e6",
         "--gamma: not used with --adaptive"),
        ("--gamma 3.4e5 --model MODEL", "--model: not used without --adaptive"),
        ("--gamma 3.4e5 --gamma-walk 3.4e5", "--gamma-walk: not used without --adaptive"),
        ("--gamma 3.4e5 --gamma-run 6.9e6", "--gamma-run: not used without --adaptive"),
        ("--gamma-walk 3.4e5 --gamma-run 6.9e6",
         "--gamma-walk, --gamma-run: not used without --adaptive"),
        ("--adaptive --gamma-walk 3.4e5 --gamma-run 6.9e6",
         "--adaptive needs --model, --gamma-walk and --gamma-run"),
        ("", "give --gamma, or use --adaptive"),
    ], ids=["adaptive-gamma", "fixed-model", "fixed-gamma-walk", "fixed-gamma-run",
            "gammas-without-adaptive", "adaptive-without-model", "no-threshold"])
    def test_every_threshold_flag_given_is_used(self, workdir, tmp_path, flags, message):
        out = tmp_path / "traj.csv"
        flags = flags.replace("MODEL", str(workdir / "model.json")).split()
        line = usage_error(["ins", "run", "--imu", str(workdir / "mixed.csv"), *flags,
                            "--out", str(out)])
        assert line == f"Error: {message}"
        assert not out.exists()

    def test_adaptive_rejects_multiclass_model(self, workdir, tmp_path):
        rng = np.random.default_rng(4)
        x = np.vstack([rng.normal(c, 0.3, (10, 30)) for c in (-1.0, 0.0, 1.0)])
        model = tmp_path / "three.json"
        save_model(train(x, np.repeat([0, 1, 2], 10)), model)
        line = cli_error(["ins", "run", "--imu", str(workdir / "mixed.csv"), "--adaptive",
                          "--model", str(model), "--gamma-walk", "340000",
                          "--gamma-run", "6900000", "--out", str(tmp_path / "t.csv")])
        assert "binary" in line and "3 classes" in line

    def test_adaptive_runs(self, workdir, tmp_path):
        out = tmp_path / "traj.csv"
        run_cli(["ins", "run", "--imu", str(workdir / "mixed.csv"), "--adaptive",
                 "--model", str(workdir / "model.json"),
                 "--gamma-walk", "340000", "--gamma-run", "6900000",
                 "--out", str(out)])
        assert zio.read_trajectory_csv(out).pos.shape[0] == 6000

    def test_adaptive_zupts_are_those_of_adaptive_gamma(self, workdir, tmp_path):
        out = tmp_path / "traj.csv"
        run_cli(["ins", "run", "--imu", str(workdir / "mixed.csv"), "--adaptive",
                 "--model", str(workdir / "model.json"),
                 "--gamma-walk", "340000", "--gamma-run", "6900000", "--out", str(out)])
        stream = zio.read_imu_csv(workdir / "mixed.csv")
        _, gamma = adaptive_gamma(stream, load_model(workdir / "model.json"),
                                  AdaptiveParams(340000.0, 6900000.0))
        flags = detect(stream, DetectorParams(), gamma)
        assert 0 < flags.sum() < flags.size
        assert np.array_equal(zio.read_trajectory_csv(out).zupt, flags)

    @pytest.mark.parametrize("setting, message", [
        ("window = 1", "window must be at least 2"),
        ("sigma_zupt = -1", "sigma_zupt must be positive and finite"),
        ("window = 1e400", "window = inf: cannot convert float infinity to integer"),
        ("window = 5.5", "window = 5.5: not a whole number"),
        ("init_att_std = 1e200", "init_att_std = 1e+200 is too large: its square overflows"),
        ("sigma_accel = 1e200", "sigma_accel = 1e+200 is too large: its square overflows"),
        ("sigma_a = nan", "sigma_a must be positive and finite"),
        ("gravity = nan", "gravity must be positive and finite"),
        ("sigma_zupt = nan", "sigma_zupt must be positive and finite"),
    ])
    def test_config_value_error_names_the_file(self, workdir, tmp_path, setting, message):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(setting + "\n")
        line = cli_error(["ins", "run", "--imu", str(workdir / "walk.csv"), "--gamma", "340000",
                          "--config", str(cfg), "--out", str(tmp_path / "traj.csv")])
        assert line == f"Error: {cfg}: {message}"

    def test_a_diverging_filter_is_a_one_line_error_and_writes_no_file(self, workdir, tmp_path):
        stream = zio.read_imu_csv(workdir / "walk.csv")
        accel = stream.accel.copy()
        accel[200:203] = 1e160
        imu = tmp_path / "burst.csv"
        zio.write_imu_csv(imu, ImuStream(stream.t, accel, stream.gyro))
        out = tmp_path / "traj.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            line = cli_error(["ins", "run", "--imu", str(imu), "--gamma", "1e5",
                              "--out", str(out)])
        assert re.fullmatch(r"Error: the filter diverged: its state is not finite "
                            r"at t = \d+\.\d{3} s", line), line
        assert not out.exists()

    def test_run_deterministic(self, workdir, tmp_path):
        out = tmp_path / "traj.csv"
        rerun_identical(["ins", "run", "--imu", str(workdir / "walk.csv"),
                         "--gamma", "340000", "--out", str(out)], [out])


class TestEvalTrial:
    def args(self, workdir, report):
        return ["eval", "trial", "--imu", str(workdir / "mixed.csv"),
                "--model", str(workdir / "model.json"),
                "--gammas", str(workdir / "gammas.json"),
                "--triggers", str(workdir / "triggers.csv"),
                "--markers", str(workdir / "markers.json"),
                "--truth", str(workdir / "mixed_truth.csv"),
                "--report", str(report)]

    def test_report_contents(self, workdir, tmp_path):
        report = tmp_path / "report.json"
        result = run_cli(self.args(workdir, report))
        assert "furthest-point error" in result.output
        data = json.loads(report.read_text())
        assert set(data["furthest_point_error_m"]) == {"gamma_walk", "gamma_run", "gamma_adapt"}
        assert data["svm_accuracy"] > 0.8
        assert set(data) == {"furthest_point_error_m", "per_marker_error_m", "svm_accuracy"}

    def test_gammas_missing_a_key(self, workdir, tmp_path):
        gammas = tmp_path / "gammas.json"
        gammas.write_text(json.dumps({"gamma_walk": 3.4e5}))
        args = self.args(workdir, tmp_path / "report.json")
        args[args.index("--gammas") + 1] = str(gammas)
        line = cli_error(args)
        assert line == f"Error: {gammas}: not a thresholds file (missing field 'gamma_run')"
        assert not (tmp_path / "report.json").exists()

    def test_gammas_value_not_a_number(self, workdir, tmp_path):
        gammas = tmp_path / "gammas.json"
        gammas.write_text(json.dumps({"gamma_walk": 1e5, "gamma_run": "x"}))
        args = self.args(workdir, tmp_path / "report.json")
        args[args.index("--gammas") + 1] = str(gammas)
        line = cli_error(args)
        assert line == f"Error: {gammas}: gamma_run must be positive and finite"

    @pytest.mark.parametrize("text, key", [
        ('{"gamma_walk": true, "gamma_run": 6.9e6}', "gamma_walk"),
        ('{"gamma_walk": 3.4e5, "gamma_run": "5e6"}', "gamma_run"),
        ('{"gamma_walk": 3.4e5, "gamma_run": [5e6]}', "gamma_run"),
        ('{"gamma_walk": 3.4e5, "gamma_run": 1' + "0" * 400 + "}", "gamma_run"),
    ], ids=["bool", "string", "list", "integer-beyond-float"])
    def test_gammas_value_not_a_json_number(self, workdir, tmp_path, text, key):
        gammas = tmp_path / "gammas.json"
        gammas.write_text(text)
        args = self.args(workdir, tmp_path / "report.json")
        args[args.index("--gammas") + 1] = str(gammas)
        assert cli_error(args) == f"Error: {gammas}: {key} must be positive and finite"

    @pytest.mark.parametrize("text, message", [
        ('{"gamma_walk": 3.4e5,', "not valid JSON (Expecting property name"),
        ("7", "not a thresholds file (expected a JSON object)"),
    ])
    def test_gammas_not_a_json_object(self, workdir, tmp_path, text, message):
        gammas = tmp_path / "gammas.json"
        gammas.write_text(text)
        args = self.args(workdir, tmp_path / "report.json")
        args[args.index("--gammas") + 1] = str(gammas)
        assert cli_error(args).startswith(f"Error: {gammas}: {message}")

    def test_markers_without_their_key(self, workdir, tmp_path):
        markers = tmp_path / "x.json"
        markers.write_text('{"a": 1}')
        args = self.args(workdir, tmp_path / "report.json")
        args[args.index("--markers") + 1] = str(markers)
        line = cli_error(args)
        assert line == f"Error: {markers}: not a marker map (missing field 'markers')"

    def test_truth_shorter_than_the_log(self, workdir, tmp_path):
        truth = tmp_path / "short_truth.csv"
        lines = (workdir / "mixed_truth.csv").read_text().splitlines()
        truth.write_text("\n".join(lines[:2501]) + "\n")
        args = self.args(workdir, tmp_path / "report.json")
        args[args.index("--truth") + 1] = str(truth)
        line = cli_error(args)
        imu = workdir / "mixed.csv"
        assert line == f"Error: {truth}: 2500 labels for the 6000 samples of {imu}"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("row, message", [
        ("1.0,99", "marker 99 is not in the marker map"),
        ("80.0,1", "trigger time 80.000s lies outside the IMU log span (0.000s to 47.992s)"),
    ])
    def test_bad_trigger_names_the_triggers_file(self, workdir, tmp_path, row, message):
        triggers = tmp_path / "triggers.csv"
        lines = (workdir / "triggers.csv").read_text().splitlines()
        triggers.write_text("\n".join(lines[:2] + [row]) + "\n")
        args = self.args(workdir, tmp_path / "report.json")
        args[args.index("--triggers") + 1] = str(triggers)
        assert cli_error(args) == f"Error: {triggers}: {message}"
        assert not (tmp_path / "report.json").exists()

    def test_eval_deterministic(self, workdir, tmp_path):
        report = tmp_path / "report.json"
        rerun_identical(self.args(workdir, report), [report])


def detect_settings(workdir, config):
    """The (DetectorParams, EkfConfig) that ``zv detect --config`` built, or its one-line error."""
    built, real = [], cli._settings

    def recording(values):
        built.append(real(values))
        return built[-1]

    with mock.patch.object(cli, "_settings", recording):
        result = CliRunner().invoke(main, ["zv", "detect", "--imu", str(workdir / "walk.csv"),
                                           "--config", str(config),
                                           "--out", str(workdir / "detect.csv")])
    if result.exit_code == 0:
        (built_once,) = built
        return built_once
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
    (line,) = result.output.strip().splitlines()
    return line


@settings(max_examples=80, deadline=None)
@given(data=st.data(), row=st.sampled_from(zio.CONFIG_TABLE))
def test_a_config_key_sets_the_field_of_that_name(workdir, data, row):
    key, target, cast = row
    # a window longer than the 2,500-sample log fails in the detector, not in the settings
    value = data.draw(st.integers(-3, 40) | st.sampled_from([math.nan, math.inf, 2.5])
                      if key == "window" else st.floats() | st.integers(-3, 40))
    cfg = workdir / "hypothesis_cfg.txt"
    cfg.write_text(f"{key} = {value!r}\n")
    from_config = detect_settings(workdir, cfg)
    if isinstance(from_config, str):
        assert from_config.startswith(f"Error: {cfg}: ") and key in from_config
        return
    detector, ekf_cfg = from_config
    assert np.array_equal(getattr(detector if target is DetectorParams else ekf_cfg, key),
                          cast(value))


def test_no_option_is_named_like_a_config_key():
    # a setting has one source, the config file
    for group in main.commands.values():
        for command in group.commands.values():
            assert not {p.name for p in command.params} & set(zio.CONFIG_KEYS), command.name
    for command in ("detect", "optimize"):
        help_text = CliRunner().invoke(main, ["zv", command, "--help"]).output
        assert not {"--window", "--sigma-a", "--sigma-w", "--gravity"} & set(help_text.split())


@pytest.mark.parametrize("command, option, library_default", [
    ("classify train", "--c-reg", inspect.signature(train).parameters["c_reg"].default),
    ("classify train", "--window-len",
     inspect.signature(build_windows).parameters["window_len"].default),
    ("sim gait", "--seed", NoiseModel().seed),
    ("sim gait", "--accel-noise", NoiseModel().accel_noise_std),
    ("sim gait", "--gyro-noise", NoiseModel().gyro_noise_std),
    ("sim gait", "--duration", DEFAULT_DURATION),
    ("sim gait", "--rate", inspect.signature(simulate).parameters["rate_hz"].default),
    ("sim gait", "--marker-every",
     inspect.signature(marker_layout_from_truth).parameters["every"].default),
    ("zv optimize", "--grid-points",
     inspect.signature(default_gamma_grid).parameters["points"].default),
    ("survey map", "--side", inspect.signature(tag_template).parameters["side"].default),
])
def test_a_cli_default_is_its_library_default(command, option, library_default):
    group, name = command.split()
    (param,) = [p for p in main.commands[group].commands[name].params if option in p.opts]
    assert param.default == library_default


@pytest.mark.parametrize("out_kind", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", ["sim gait", "classify predict"])
def test_an_output_path_that_cannot_be_written_is_a_one_line_error(workdir, tmp_path,
                                                                   command, out_kind):
    out = tmp_path / "nodir" / "out.csv" if out_kind == "missing-directory" else tmp_path
    args = {"sim gait": ["--motion", "walk", "--duration", "5",
                         "--truth", str(tmp_path / "truth.csv")],
            "classify predict": ["--imu", str(workdir / "walk.csv"),
                                 "--model", str(workdir / "model.json")]}[command]
    line = cli_error([*command.split(), *args, "--out", str(out)])
    assert line.startswith("Error: [Errno ") and line.endswith(f": '{out}'")


def test_module_entry_point():
    import subprocess, sys
    result = subprocess.run([sys.executable, "-m", "zvnav", "--help"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "zv" in result.stdout and "classify" in result.stdout


def zvnav_exceptions():
    """Every exception class defined in a zvnav module."""
    found = []
    for info in pkgutil.iter_modules(zvnav.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"zvnav.{info.name}")
        found += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                  if issubclass(cls, BaseException) and cls.__module__ == module.__name__]
    return found


def test_exception_list_is_complete():
    names = {cls.__name__ for cls in zvnav_exceptions()}
    assert {"OptimizationFailedError", "RankDeficientError", "TrainingFailedError",
            "UndefinedRecallError"} <= names


@pytest.mark.parametrize("error", zvnav_exceptions(), ids=lambda cls: cls.__name__)
def test_group_reports_each_library_error_as_one_line(error):
    @click.group(cls=_Group)
    def group():
        pass

    @group.command()
    def fail():
        raise error("what went wrong")

    result = CliRunner().invoke(group, ["fail"])
    assert result.exit_code == 1, result.output
    assert result.output == "Error: what went wrong\n"
