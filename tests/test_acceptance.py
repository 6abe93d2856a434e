"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Quantitative bounds run against the built-in synthetic gait oracle with fixed
seeds; run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines and measured values.
"""
import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from zvnav.cli import main as cli_main
from zvnav.core import Quaternion
from zvnav.detector import DetectorParams, per_sample_statistics
from zvnav.ekf import EkfConfig, Workspace, propagate, run_ins, zupt_update
from zvnav.evaluate import marker_layout_from_truth, run_trial
from zvnav.optimize import (
    FBetaConfig,
    MocapStream,
    RUN_BETA_SQ,
    RUN_SPEED_THRESHOLD,
    f_beta,
    optimize_gamma,
)
from zvnav.simulate import NoiseModel, gait_preset, simulate
from zvnav.survey import build_map, tag_template, umeyama_align
from zvnav.svm import build_windows, predict_batch, smooth, train, NormStats

from conftest import confusion_matrix, mixed_segments, out_and_back
from test_survey import random_transform, synthetic_survey

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

_SUITE_START = time.perf_counter()


def report(criterion, ok, detail):
    print(f"\nCRITERION {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_01_detector_optimizer_closed_loop():
    stream, truth = simulate([(gait_preset("walk"), 60.0)],
                                   NoiseModel(seed=7))
    start = time.perf_counter()
    gamma, curve = optimize_gamma(stream, MocapStream(truth.t, truth.pos, 125.0),
                                  DetectorParams(), FBetaConfig(beta_sq=0.16, speed_threshold=0.1))
    elapsed = time.perf_counter() - start
    best_f = float(curve.f_beta.max())
    accuracy = float(np.mean((per_sample_statistics(stream, DetectorParams()) < gamma)
                             == truth.stance))
    ok = best_f >= 0.95 and accuracy >= 0.95 and elapsed < 10.0
    report(1, ok, f"gamma={gamma:.4g}, F_beta={best_f:.4f} >= 0.95, "
                  f"stance accuracy={accuracy:.4f} >= 0.95, runtime={elapsed:.2f}s < 10s")


def test_criterion_02_threshold_ordering_over_seeds():
    wins = 0
    pairs = []
    for seed in range(10):
        sw, tw = simulate([(gait_preset("walk"), 30.0)],
                                NoiseModel(seed=1000 + seed))
        sr, tr = simulate([(gait_preset("run"), 30.0)],
                                NoiseModel(seed=2000 + seed))
        gw, _ = optimize_gamma(sw, MocapStream(tw.t, tw.pos, 125.0), DetectorParams(),
                               FBetaConfig())
        gr, _ = optimize_gamma(sr, MocapStream(tr.t, tr.pos, 125.0), DetectorParams(),
                               FBetaConfig(beta_sq=RUN_BETA_SQ,
                                           speed_threshold=RUN_SPEED_THRESHOLD))
        wins += int(gr > gw)
        pairs.append((gw, gr))
    ok = wins == 10
    report(2, ok, f"gamma_run > gamma_walk in {wins}/10 paired trials "
                  f"(example pair: {pairs[0][0]:.3g} < {pairs[0][1]:.3g})")


def test_criterion_03_zupt_efficacy():
    stream, truth = simulate([(gait_preset("walk"), 60.0)],
                                   NoiseModel(seed=9))
    path = truth.path_length()
    aided = run_ins(stream, truth.stance, EkfConfig())
    err_aided = float(np.linalg.norm(aided.pos[-1, :2] - truth.pos[-1, :2]))
    free = run_ins(stream, np.zeros(len(stream), bool), EkfConfig())
    err_free = float(np.linalg.norm(free.pos[-1, :2] - truth.pos[-1, :2]))
    ok = err_aided < 0.01 * path and err_free >= 10.0 * err_aided
    report(3, ok, f"aided={err_aided:.3f}m = {100 * err_aided / path:.3f}% of {path:.1f}m < 1%, "
                  f"unaided={err_free:.1f}m = {err_free / max(err_aided, 1e-12):.0f}x aided >= 10x")


def test_criterion_04_ekf_numerics_over_1e4_steps():
    stream, truth = simulate([(gait_preset("walk"), 80.0)],
                                   NoiseModel(seed=12))
    assert len(stream) == 10000
    cfg = EkfConfig()
    p, v, q = np.zeros(3), np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0])
    P = cfg.initial_covariance()
    ws = Workspace()
    worst_sym = 0.0
    worst_eig = np.inf
    worst_norm = 0.0
    for k in range(1, 10001):
        p, v, q, P = propagate(p, v, q, P, stream.accel[k - 1], stream.gyro[k - 1], 1 / 125,
                               cfg.gravity, cfg.sigma_accel, cfg.sigma_gyro, ws)
        if truth.stance[k - 1]:
            p, v, q, P = zupt_update(p, v, q, P, cfg.sigma_zupt, ws)
        worst_sym = max(worst_sym, float(np.max(np.abs(P - P.T))))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(P)[0]))
        worst_norm = max(worst_norm, abs(Quaternion.from_array(q).norm - 1.0))
    ok = worst_sym < 1e-9 and worst_eig > -1e-12 and worst_norm < 1e-9
    report(4, ok, f"max asymmetry={worst_sym:.2e} < 1e-9, "
                  f"min eigenvalue={worst_eig:.2e} > -1e-12, "
                  f"max quaternion norm drift={worst_norm:.2e} < 1e-9 over 1e4 steps")


def test_criterion_05_f_beta_unit_exactness():
    cases = [
        (0.8, 0.6, 0.16, (1 + 0.16) * 0.8 * 0.6 / (0.16 * 0.8 + 0.6)),
        (1.0, 1.0, 0.16, 1.0),
        (1.0, 1.0, 0.4, 1.0),
        (0.5, 0.5, 0.4, 0.5),
        (0.3, 0.9, 1.0, 2 * 0.3 * 0.9 / (0.3 + 0.9)),
        (0.0, 0.0, 0.16, 0.0),
    ]
    worst = max(abs(f_beta(p, r, b) - expect) for p, r, b, expect in cases)
    check = abs(f_beta(0.8, 0.6, 0.16) - 0.7648351648351648) < 1e-12
    ok = worst < 1e-12 and check
    report(5, ok, f"max |error|={worst:.2e} < 1e-12 over {len(cases)} hand-computed cases "
                  f"(incl. 0.764835...)")


def test_criterion_06_svm_binary_and_six_class(six_class_model):
    norm_streams = {}
    for name, seed in (("walk", 21), ("run", 22)):
        norm_streams[name], _ = simulate([(gait_preset(name), 62.0)],
                                               NoiseModel(seed=seed))
    norm = NormStats.from_streams(list(norm_streams.values()))

    def windows(name, seed):
        stream, _ = simulate([(gait_preset(name), 62.0)],
                                   NoiseModel(seed=seed))
        return build_windows(stream, 125, stride=14, norm=norm)[:500]

    x_train = np.vstack([windows("walk", 21), windows("run", 22)])
    y_train = np.array([0] * 500 + [2] * 500)
    x_test = np.vstack([windows("walk", 23), windows("run", 24)])
    y_test = np.array([0] * 500 + [2] * 500)
    model = train(x_train, y_train, norm_stats=norm)
    binary_acc = float(np.mean(predict_batch(model, x_test) == y_test))
    binary_kkt = max(p.kkt_residual for p in model.pairs)

    six = six_class_model
    mat, six_acc = confusion_matrix(predict_batch(six["model"], six["x_test"]), six["y_test"])
    six_kkt = max(p.kkt_residual for p in six["model"].pairs)

    ok = binary_acc >= 0.99 and six_acc >= 0.90 and binary_kkt <= 1e-3 and six_kkt <= 1e-3
    report(6, ok, f"binary walk/run test accuracy={binary_acc:.4f} >= 0.99 "
                  f"(500/class train+test), six-class mean diagonal={six_acc:.4f} >= 0.90, "
                  f"max SMO KKT residual={max(binary_kkt, six_kkt):.2e} <= 1e-3")


def test_criterion_07_smoothing_rules():
    spurious = np.zeros(100, int)
    spurious[50] = 1
    suppressed = smooth(spurious, window=15, threshold=0.2).sum() == 0

    transition = np.concatenate([np.zeros(80, int), np.ones(80, int)])
    smoothed = smooth(transition, window=15, threshold=0.2)
    flip = int(np.argmax(smoothed))
    within = abs(flip - 80) <= 15 and smoothed[80:].all()

    boundary = np.zeros(40, int)
    boundary[20:23] = 1  # three labels inside a 15-wide window: mean exactly 0.2
    tie_to_run = smooth(boundary, window=15, threshold=0.2)[8] == 1

    ok = suppressed and within and tie_to_run
    report(7, ok, f"single spurious label suppressed={suppressed}, "
                  f"transition flip offset |{flip}-80|={abs(flip - 80)} <= 15 samples, "
                  f"exact 0.2 tie resolves to run={tie_to_run}")


def test_criterion_08_survey_precision():
    rng = np.random.default_rng(42)
    _, stations = synthetic_survey(rng)
    marker_map = build_map(stations, tag_template())
    closure_ok = marker_map.loop_closure_m < 1e-9

    src = rng.normal(size=(5, 3))
    T = random_transform(rng, 5.0)
    res = umeyama_align(src, T.apply(src))
    recover_ok = (np.max(np.abs(res.transform.rotation - T.rotation)) < 1e-9
                  and np.max(np.abs(res.transform.translation - T.translation)) < 1e-9)

    template = tag_template()
    errors = np.empty(1000)
    for i in range(1000):
        M = random_transform(rng, 3.0)
        noisy = M.apply(template) + rng.normal(0, 1e-3, (5, 3))
        errors[i] = np.linalg.norm(umeyama_align(template, noisy).transform.translation
                                   - M.translation)
    p99 = float(np.percentile(errors, 99))
    noise_ok = p99 < 3e-3

    ok = closure_ok and recover_ok and noise_ok
    report(8, ok, f"noiseless 6-marker loop closure={marker_map.loop_closure_m:.2e}m < 1e-9, "
                  f"exact SE(3) recovery to 1e-9={recover_ok}, "
                  f"1mm-noise translation error p99={p99 * 1000:.2f}mm < 3mm over 1000 seeds")


def test_criterion_09_adaptive_end_to_end(adaptive_setup):
    setup = adaptive_setup

    def trial(segments, seed):
        stream, truth = simulate(segments, NoiseModel(seed=seed))
        marker_map, triggers = marker_layout_from_truth(truth, every=10)
        return run_trial(stream, setup["model"], setup["gammas"], setup["detector"],
                         setup["ekf"], triggers, marker_map, class_truth=truth.labels)

    walk = trial(out_and_back("walk", 60.0), 41).furthest_errors
    run_errors = trial(out_and_back("run", 60.0), 42).furthest_errors
    mixed = trial(mixed_segments(), 43).furthest_errors

    rel_walk = abs(walk["gamma_adapt"] - walk["gamma_walk"]) / walk["gamma_walk"]
    run_ratio = run_errors["gamma_walk"] / run_errors["gamma_run"]
    adapt_best = mixed["gamma_adapt"] <= min(mixed["gamma_walk"], mixed["gamma_run"])

    ok = rel_walk <= 0.05 and run_ratio >= 10.0 and adapt_best
    report(9, ok,
           f"(a) pure walk |adapt-walk| rel={rel_walk:.4f} <= 0.05; "
           f"(b) pure run walk/run error ratio={run_ratio:.1f} >= 10 "
           f"({run_errors['gamma_walk']:.1f}m vs {run_errors['gamma_run']:.2f}m); "
           f"(c) mixed adapt={mixed['gamma_adapt']:.2f}m <= "
           f"min({mixed['gamma_walk']:.2f}, {mixed['gamma_run']:.2f})m")


def test_criterion_10_cli_determinism(tmp_path):
    runner = CliRunner()

    def run(args):
        result = runner.invoke(cli_main, args, catch_exceptions=False)
        assert result.exit_code == 0, result.output
        return result

    def twice(args, outputs):
        run(args)
        first = {p: p.read_bytes() for p in outputs}
        for p in outputs:
            p.unlink()
        run(args)
        return all(p.read_bytes() == first[p] for p in outputs)

    imu = tmp_path / "imu.csv"
    truth = tmp_path / "truth.csv"
    mocap = tmp_path / "mocap.csv"
    markers = tmp_path / "markers.json"
    triggers = tmp_path / "triggers.csv"
    sim_ok = twice(["sim", "gait", "--segments", "walk:10,run:10", "--seed", "5",
                    "--out", str(imu), "--truth", str(truth), "--mocap-out", str(mocap),
                    "--markers-out", str(markers), "--triggers-out", str(triggers),
                    "--marker-every", "6"],
                   [imu, truth, mocap, markers, triggers])

    flags = tmp_path / "flags.csv"
    detect_ok = twice(["zv", "detect", "--imu", str(imu), "--gamma", "340000",
                       "--out", str(flags)], [flags])

    curve = tmp_path / "curve.csv"
    optimize_ok = twice(["zv", "optimize", "--imu", str(imu), "--mocap", str(mocap),
                         "--motion", "walk", "--curve-out", str(curve)], [curve])

    trials = tmp_path / "trials"
    trials.mkdir()
    (trials / "walk_t.csv").write_bytes(imu.read_bytes())
    run(["sim", "gait", "--motion", "run", "--duration", "20", "--seed", "6",
         "--out", str(trials / "run_t.csv"), "--truth", str(tmp_path / "rt.csv")])
    model = tmp_path / "model.json"
    train_ok = twice(["classify", "train", "--trials", str(trials), "--out", str(model),
                      "--trim", "100", "--stride", "10"], [model])

    labels = tmp_path / "labels.csv"
    predict_ok = twice(["classify", "predict", "--imu", str(imu), "--model", str(model),
                        "--out", str(labels)], [labels])

    traj = tmp_path / "traj.csv"
    ins_ok = twice(["ins", "run", "--imu", str(imu), "--adaptive", "--model", str(model),
                    "--gamma-walk", "340000", "--gamma-run", "6900000",
                    "--out", str(traj)], [traj])

    gammas = tmp_path / "gammas.json"
    gammas.write_text(json.dumps({"gamma_walk": 3.4e5, "gamma_run": 6.9e6}))
    rpt = tmp_path / "report.json"
    eval_ok = twice(["eval", "trial", "--imu", str(imu), "--model", str(model),
                     "--gammas", str(gammas), "--triggers", str(triggers),
                     "--markers", str(markers), "--truth", str(truth),
                     "--report", str(rpt)], [rpt])

    checks = {
        "sim gait": sim_ok, "zv detect": detect_ok, "zv optimize": optimize_ok,
        "classify train": train_ok, "classify predict": predict_ok,
        "ins run": ins_ok, "eval trial": eval_ok,
    }
    ok = all(checks.values())
    report(10, ok, "byte-identical reruns: "
           + ", ".join(f"{name}={'yes' if good else 'NO'}" for name, good in checks.items()))


def test_acceptance_suite_runtime_budget():
    elapsed = time.perf_counter() - _SUITE_START
    ok = elapsed < 120.0
    report("runtime", ok, f"acceptance module wall time {elapsed:.1f}s < 120s")
