import importlib
import inspect
import json
import pkgutil
import re
import warnings

import click
import numpy as np
import pytest
from click.testing import CliRunner

import zvnav
from zvnav import io as zio
from zvnav.cli import _Group, main
from zvnav.core import ImuStream
from zvnav.detector import AdaptiveParams, DetectorParams
from zvnav.evaluate import adaptive_zupts
from zvnav.svm import load_model, save_model, train

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

    def test_detect_config_file_with_flag_override(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("gamma = 1e-9\nwindow = 5\n")
        out_low = tmp_path / "low.csv"
        run_cli(["zv", "detect", "--imu", str(workdir / "walk.csv"),
                 "--config", str(cfg), "--out", str(out_low)])
        n_low = sum(l.split(",")[1] == "1" for l in out_low.read_text().splitlines()[1:])
        assert n_low == 0  # config gamma used
        out_hi = tmp_path / "hi.csv"
        run_cli(["zv", "detect", "--imu", str(workdir / "walk.csv"),
                 "--config", str(cfg), "--gamma", "340000", "--out", str(out_hi)])
        n_hi = sum(l.split(",")[1] == "1" for l in out_hi.read_text().splitlines()[1:])
        assert n_hi > 0  # flag overrides config

    def test_detect_rejects_unknown_config_key(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("window = 5\nsigma_zup = 5\n")
        line = cli_error(["zv", "detect", "--imu", str(workdir / "walk.csv"),
                          "--config", str(cfg), "--out", str(tmp_path / "flags.csv")])
        assert str(cfg) in line and "line 2" in line and "'sigma_zup'" in line
        assert not (tmp_path / "flags.csv").exists()

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
        assert line == f"Error: {imu}: timestamp jitter exceeds tolerance (10% of the nominal period)"

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
        ("--window-len", "0", "window_len must be at least 1"),
        ("--kernel-width", "0", "kernel_width must be positive and finite"),
        ("--kernel-width", "-1", "kernel_width must be positive and finite"),
    ], ids=["window-len-0", "kernel-width-0", "kernel-width-negative"])
    def test_train_rejects_flag_out_of_range(self, workdir, tmp_path, flag, value, message):
        line = cli_error(["classify", "train", "--trials", str(workdir / "trials"),
                          "--out", str(tmp_path / "model.json"), "--trim", "100",
                          "--stride", "10", flag, value])
        assert line == f"Error: {message}"

    def test_train_rejects_negative_trim(self, workdir, tmp_path):
        result = CliRunner().invoke(main, ["classify", "train", "--trials", str(workdir / "trials"),
                                           "--out", str(tmp_path / "model.json"), "--trim", "-5"])
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--trim'" in result.output
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

    def test_map_deterministic(self, survey_json, tmp_path):
        path, _ = survey_json
        out = tmp_path / "map.json"
        rerun_identical(["survey", "map", "--observations", str(path), "--out", str(out)], [out])

    def test_observations_without_their_key(self, workdir, tmp_path):
        # a marker map handed over in place of a survey
        markers = workdir / "markers.json"
        line = cli_error(["survey", "map", "--observations", str(markers),
                          "--out", str(tmp_path / "map.json")])
        assert line == f"Error: {markers}: not a survey (missing field 'stations')"


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

    def test_adaptive_zupts_are_those_of_adaptive_zupts(self, workdir, tmp_path):
        out = tmp_path / "traj.csv"
        run_cli(["ins", "run", "--imu", str(workdir / "mixed.csv"), "--adaptive",
                 "--model", str(workdir / "model.json"),
                 "--gamma-walk", "340000", "--gamma-run", "6900000", "--out", str(out)])
        labels, flags = adaptive_zupts(zio.read_imu_csv(workdir / "mixed.csv"),
                                       load_model(workdir / "model.json"), DetectorParams(),
                                       AdaptiveParams(340000.0, 6900000.0))
        assert 0 < flags.sum() < flags.size
        assert np.array_equal(zio.read_trajectory_csv(out).zupt, flags)

    @pytest.mark.parametrize("setting, message", [
        ("window = 1", "W must be at least 2"),
        ("sigma_zupt = -1", "sigma_zupt must be positive"),
        ("window = 1e400", "cannot convert float infinity to integer"),
        ("rate_hz = -1", "rate_hz must be positive and finite"),
        ("rate_hz = nan", "rate_hz must be positive and finite"),
        ("rate_hz = inf", "rate_hz must be positive and finite"),
        ("init_att_std = 1e200", "init_att_std = 1e+200 is too large: its square overflows"),
        ("sigma_accel = 1e200", "sigma_accel = 1e+200 is too large: its square overflows"),
        ("gamma = nan", "gamma must be positive and finite"),
        ("gamma = inf", "gamma must be positive and finite"),
        ("sigma_a = nan", "sigma_a must be positive and finite"),
        ("gravity = nan", "g must be positive and finite"),
        ("sigma_zupt = nan", "sigma_zupt must be positive"),
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
        assert data["path_length_m"] > 0

    def test_gammas_missing_a_key(self, workdir, tmp_path):
        gammas = tmp_path / "gammas.json"
        gammas.write_text(json.dumps({"gamma_walk": 3.4e5}))
        args = self.args(workdir, tmp_path / "report.json")
        args[args.index("--gammas") + 1] = str(gammas)
        line = cli_error(args)
        assert line == f"Error: {gammas}: missing key 'gamma_run'"
        assert not (tmp_path / "report.json").exists()

    def test_gammas_value_not_a_number(self, workdir, tmp_path):
        gammas = tmp_path / "gammas.json"
        gammas.write_text(json.dumps({"gamma_walk": 1e5, "gamma_run": "x"}))
        args = self.args(workdir, tmp_path / "report.json")
        args[args.index("--gammas") + 1] = str(gammas)
        line = cli_error(args)
        assert line == f"Error: {gammas}: 'gamma_run' must be a positive number, not 'x'"

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
