"""Spans around the public functions of zvnav, recorded from outside the package.

``SPAN_TABLE`` lists (layer, module, function, counter) entries. ``Tracer.install``
wraps each listed function once and binds the wrapper into every ``zvnav``
module whose namespace holds the original object, so ``evaluate.run_ins`` and
``cli.run_ins`` (two bindings of ``ekf.run_ins``) are both traced. A listed
name that a module no longer defines is reported as absent; it never raises.

Spans are kept in memory: layer, function, start, end, parent span and the
counts the entry's counter derives from the call's arguments and result.
A layer's self time is its span's duration minus its direct children's.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np


def _count_file_bytes(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    return {"bytes": os.path.getsize(path)} if path is not None and os.path.exists(path) else {}


def _count_ins(args, kwargs, result):
    zv = kwargs.get("zv", args[1] if len(args) > 1 else None)
    return {"samples": len(result), "zupts": int(np.count_nonzero(np.asarray(zv, dtype=bool)))}


def _count_detector(args, kwargs, result):
    stream = kwargs.get("stream", args[0])
    return {"samples": len(stream)}


def _count_grid(args, kwargs, result):
    cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None)
    return {"grid_points": int(len(cfg.gamma_grid))}


def _count_windows(args, kwargs, result):
    return {"windows": int(result.shape[0]), "bytes": int(result.nbytes)}


def _count_predict(args, kwargs, result):
    model = kwargs.get("model", args[0])
    n_sv = sum(int(p.support_vectors.shape[0]) for p in model.pairs)
    return {"windows": int(result.shape[0]), "kernel_evals": int(result.shape[0]) * n_sv}


def _count_train(args, kwargs, result):
    labels = kwargs.get("labels", args[1] if len(args) > 1 else None)
    _, per_class = np.unique(np.asarray(labels), return_counts=True)
    pair_sizes = [int(a + b) for a, b in itertools.combinations(per_class, 2)]
    return {
        "kernel_entries": sum(n * n for n in pair_sizes),
        "pair_vectors": sum(pair_sizes),
        "support_vectors": sum(int(p.support_vectors.shape[0]) for p in result.pairs),
    }


def _count_simulate(args, kwargs, result):
    return {"samples": len(result[0])}


_READERS = ("read_imu_csv", "read_mocap_csv", "read_trajectory_csv", "read_truth_csv",
            "read_trigger_csv", "read_marker_map_json", "read_survey_json", "load_config")
_WRITERS = ("write_imu_csv", "write_mocap_csv", "write_trajectory_csv", "write_detect_csv",
            "write_pr_curve_csv", "write_predict_csv", "write_truth_csv", "write_trigger_csv",
            "write_marker_map_json", "write_survey_json")

# (layer, zvnav module, public function, counter). `core` has no layer: its
# quaternion and stream helpers run inside `ekf` and `simulate`.
SPAN_TABLE = (
    ("ekf.run_ins", "ekf", "run_ins", _count_ins),
    ("detector", "detector", "detect", _count_detector),
    ("detector", "detector", "detect_adaptive", _count_detector),
    ("detector", "detector", "per_sample_statistics", _count_detector),
    ("detector", "detector", "shoe_statistics", _count_detector),
    ("optimize.optimize_gamma", "optimize", "optimize_gamma", _count_grid),
    ("svm.train", "svm", "train", _count_train),
    ("svm.rbf_kernel", "svm", "rbf_kernel", None),
    ("svm.predict_batch", "svm", "predict_batch", _count_predict),
    ("svm.classify_stream", "svm", "classify_stream", None),
    ("svm.build_windows", "svm", "build_windows", _count_windows),
    ("svm.load_model", "svm", "load_model", None),
    ("svm.save_model", "svm", "save_model", None),
    ("evaluate.run_trial", "evaluate", "run_trial", None),
    ("evaluate.score", "evaluate", "align_trajectory", None),
    ("evaluate.score", "evaluate", "furthest_point_error", None),
    ("evaluate.score", "evaluate", "per_marker_errors", None),
    ("simulate", "simulate", "simulate", _count_simulate),
    ("survey.build_map", "survey", "build_map", None),
    ("survey.frame_to_frame", "survey", "frame_to_frame", None),
    *(("io.read", "io", name, _count_file_bytes) for name in _READERS),
    *(("io.write", "io", name, _count_file_bytes) for name in _WRITERS),
)

CLI_COMMANDS = ("sim_gait", "zv_optimize", "classify_train", "classify_predict",
                "ins_run", "eval_trial", "survey_map")


@dataclass
class Span:
    layer: str
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps the span table's functions while installed; records spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    @property
    def active(self) -> bool:
        return bool(self._bindings)

    def install(self) -> None:
        if self.active:
            return
        self.absent = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "zvnav" or name.startswith("zvnav."))]
        for layer, module_name, func_name, counter in SPAN_TABLE:
            try:
                module = importlib.import_module(f"zvnav.{module_name}")
            except ImportError:
                module = None
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrap(layer, original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._bindings.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings = []

    def clear(self) -> None:
        self.spans = []

    def _open(self, layer: str, name: str) -> Span:
        span = Span(layer, name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(layer, fn.__name__)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def span(self, layer: str):
        """A span the benchmark opens itself (one per CLI command); no-op when idle."""
        if not self.active:
            yield
            return
        span = self._open(layer, layer)
        try:
            yield
        finally:
            self._close(span)


def _self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from one set of spans.

    A span nested in a span of its own layer (``detect`` calling
    ``per_sample_statistics``) is part of its parent's work and is not
    counted again.
    """
    self_s = _self_times(spans)
    outer = [s.parent < 0 or spans[s.parent].layer != s.layer for s in spans]
    agg: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        if not outer[i]:
            continue
        a = agg.setdefault(s.layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        a["calls"] += 1
        a["busy_s"] += s.duration
        a["self_s"] += self_s[i]
        for k, v in s.counts.items():
            a[k] = a.get(k, 0) + v

    kernel_under_train = sum(s.duration for s in spans if s.layer == "svm.rbf_kernel"
                             and s.parent >= 0 and spans[s.parent].layer == "svm.train")

    def get(layer, key):
        return agg.get(layer, {}).get(key, 0)

    ins_samples = get("ekf.run_ins", "samples")
    pair_vectors = get("svm.train", "pair_vectors")
    m = {
        "ekf.run_ins.calls": get("ekf.run_ins", "calls"),
        "ekf.run_ins.busy_s": get("ekf.run_ins", "busy_s"),
        "ekf.run_ins.samples": ins_samples,
        "ekf.run_ins.zupts": get("ekf.run_ins", "zupts"),
        "ekf.run_ins.us_per_sample":
            get("ekf.run_ins", "busy_s") / ins_samples * 1e6 if ins_samples else 0.0,
        "ekf.run_ins.zupt_frac": get("ekf.run_ins", "zupts") / ins_samples if ins_samples else 0.0,
        "svm.predict_batch.busy_s": get("svm.predict_batch", "busy_s"),
        "svm.predict_batch.windows": get("svm.predict_batch", "windows"),
        "svm.predict_batch.kernel_evals": get("svm.predict_batch", "kernel_evals"),
        "svm.classify_stream.busy_s": get("svm.classify_stream", "busy_s"),
        "svm.train.calls": get("svm.train", "calls"),
        "svm.train.busy_s": get("svm.train", "busy_s"),
        "svm.train.kernel_entries": get("svm.train", "kernel_entries"),
        "svm.train.support_vectors": get("svm.train", "support_vectors"),
        "svm.train.sv_ratio":
            get("svm.train", "support_vectors") / pair_vectors if pair_vectors else 0.0,
        "svm.train.kernel_s": kernel_under_train,
        # SMO time: train's self time, i.e. minus its rbf_kernel and predict_batch children
        "svm.train.solver_s": get("svm.train", "self_s"),
        "svm.build_windows.busy_s": get("svm.build_windows", "busy_s"),
        "svm.build_windows.windows": get("svm.build_windows", "windows"),
        "svm.build_windows.bytes": get("svm.build_windows", "bytes"),
        "svm.load_model.busy_s": get("svm.load_model", "busy_s"),
        "svm.save_model.busy_s": get("svm.save_model", "busy_s"),
        "detector.calls": get("detector", "calls"),
        "detector.busy_s": get("detector", "busy_s"),
        "detector.samples": get("detector", "samples"),
        "optimize.optimize_gamma.calls": get("optimize.optimize_gamma", "calls"),
        "optimize.optimize_gamma.busy_s": get("optimize.optimize_gamma", "busy_s"),
        "optimize.optimize_gamma.grid_points": get("optimize.optimize_gamma", "grid_points"),
        "evaluate.run_trial.busy_s": get("evaluate.run_trial", "busy_s"),
        "evaluate.run_trial.self_s": get("evaluate.run_trial", "self_s"),
        "evaluate.score.busy_s": get("evaluate.score", "busy_s"),
        "simulate.busy_s": get("simulate", "busy_s"),
        "simulate.samples": get("simulate", "samples"),
        "io.read.busy_s": get("io.read", "busy_s"),
        "io.read.bytes": get("io.read", "bytes"),
        "io.write.busy_s": get("io.write", "busy_s"),
        "io.write.bytes": get("io.write", "bytes"),
        "survey.build_map.busy_s": get("survey.build_map", "busy_s"),
        "survey.frame_to_frame.calls": get("survey.frame_to_frame", "calls"),
    }
    for command in CLI_COMMANDS:
        m[f"cli.{command}.wall_s"] = get(f"cli.{command}", "busy_s")
    m["cli.self_s"] = sum(get(f"cli.{command}", "self_s") for command in CLI_COMMANDS)
    return m


def tracing_overhead(untraced: list[float], traced: list[float]) -> float:
    """Traced minus untraced median op time, both taken over the same inputs."""
    return statistics.median(traced) - statistics.median(untraced) if traced else 0.0
