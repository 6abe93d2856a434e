#!/usr/bin/env python3
"""zvnav benchmark: two workloads against the public API, one closed-loop client.

    python3 perfbench/run.py --workload adaptive_trial --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/steady.py

Run from the repository root; zvnav is imported from ``src/`` of that checkout.
One process issues one operation at a time and starts the next only after the
previous one has finished. BLAS threads are capped at the number of usable
cores before numpy loads.

``--trace 0`` sets up the workload several times (``setup_s`` is the median
import time of zvnav over several fresh interpreters plus the median set-up),
then runs one untimed warm-up operation, then operations for ``--seconds``,
and reports the end-to-end metrics named in BENCHMARK.json. ``--trace 1`` sets up
once, binds spans around zvnav's public functions (see tracing.py), runs every
input of the workload's cycle once traced (the per-layer counts come from this
fixed set of work, so they repeat exactly for a seed), then alternates
untraced and traced operations on the same inputs for the rest of the time to
measure the tracing overhead. Every operation's outputs are checked; a raised
exception or failed check counts as failed and the run goes on.

The last line of standard output is one JSON object (correct, attempted,
failed, metrics). A results file with the machine record, accuracy figures,
problems and the workload's stored predictions goes to ``perfbench/out/``.
``--workload all`` runs every workload untraced and traced in child processes,
prints each end-to-end metric with its unit, and checks the traced runs
against the workload design and the predictions stored in design.json.
steady.py measures run-to-run spread.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> None:
    """Cap BLAS threads at the usable cores; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = NPROC
        os.environ[var] = str(min(max(current, 1), NPROC))


def import_zvnav() -> float:
    """Import zvnav from this checkout's src/ and return the seconds it took."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import zvnav  # noqa: F401
    import zvnav.cli  # noqa: F401
    import zvnav.io  # noqa: F401
    seconds = time.perf_counter() - start
    if not Path(zvnav.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"zvnav was imported from {zvnav.__file__}, not from {src}")
    return seconds


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
                "import zvnav, zvnav.cli, zvnav.io; print(time.perf_counter() - start)")


def fresh_import_seconds() -> list[float]:
    """Import times of zvnav, each in a fresh interpreter with the same environment."""
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout))
    return times


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _blas() -> dict:
    """BLAS library numpy was built with, and the thread count it runs with."""
    import ctypes

    import numpy as np

    info = {"library": None, "threads": None, "thread_cap": int(os.environ["OPENBLAS_NUM_THREADS"])}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def machine(seed: int) -> dict:
    import importlib.util
    import platform

    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": NPROC,
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _attempt(case, index, item):
    from workloads import Record

    start = time.perf_counter()
    try:
        result = case.run(item)
    except Exception as exc:  # an operation that raises counts as failed; the run goes on
        return Record(index, item, time.perf_counter() - start, problems=[f"raised {exc!r}"])
    record = Record(index, item, time.perf_counter() - start, result)
    try:
        record.problems.extend(case.check(item, result))
    except Exception as exc:
        record.problems.append(f"check raised {exc!r}")
    return record


def run_untraced(name: str, seed: int, seconds: float, workdir: Path, first_import_s: float):
    from tracing import Tracer
    from workloads import WORKLOADS

    import_times = fresh_import_seconds()
    setup_times = []
    case = None
    for _ in range(SETUP_REPEATS):
        if case is not None:
            case.cleanup()
            case = None
        start = time.perf_counter()
        case = WORKLOADS[name](seed, workdir, Tracer())
        setup_times.append(time.perf_counter() - start)

    # one untimed warm-up op; it is still checked and counted as attempted
    records = [_attempt(case, 0, case.inputs[0])]
    deadline = time.perf_counter() + seconds
    while len(records) < 2 or time.perf_counter() < deadline:
        i = len(records)
        records.append(_attempt(case, i, case.inputs[i % len(case.inputs)]))
    quality = case.finish(records)
    case.cleanup()

    times = [r.seconds for r in records[1:]]
    metrics = {
        "setup_s": statistics.median(import_times) + statistics.median(setup_times),
        "op_s_p50": statistics.median(times),
        "samples_per_s": case.samples_per_op * len(times) / sum(times),
        "peak_rss_mb": _peak_rss_mb(),
    }
    extra = {"first_import_s": first_import_s, "import_runs_s": import_times,
             "setup_runs_s": setup_times}
    return case, records, metrics, quality, extra


def run_traced(name: str, seed: int, seconds: float, workdir: Path):
    from tracing import Tracer, layer_metrics, tracing_overhead
    from workloads import WORKLOADS

    tracer = Tracer()
    case = WORKLOADS[name](seed, workdir, tracer)
    deadline = time.perf_counter() + seconds

    tracer.install()
    census = [_attempt(case, i, item) for i, item in enumerate(case.inputs)]
    tracer.uninstall()
    metrics = layer_metrics(tracer.spans)
    tracer.clear()

    untraced, traced = [], []
    while not untraced or time.perf_counter() < deadline:
        index = len(census) + 2 * len(untraced)
        item = case.inputs[len(untraced) % len(case.inputs)]
        untraced.append(_attempt(case, index, item))
        tracer.install()
        traced.append(_attempt(case, index + 1, item))
        tracer.uninstall()
        tracer.clear()
    records = census + [r for pair in zip(untraced, traced) for r in pair]
    quality = case.finish(records)
    case.cleanup()

    traced_times = [r.seconds for r in traced]
    metrics.update({
        "trace.ops": len(census),
        "trace.wall_s": sum(r.seconds for r in census),
        "trace.op_s_p50": statistics.median(traced_times),
        "trace.overhead_s": tracing_overhead([r.seconds for r in untraced], traced_times),
    })
    return case, records, metrics, quality, {"absent": tracer.absent}


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def design() -> dict:
    return json.loads((HERE / "design.json").read_text())


def run_one(args) -> int:
    cap_blas_threads()
    try:
        import_s = import_zvnav()
    except ImportError as exc:
        print(f"cannot import zvnav from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")
    sys.path.insert(0, str(HERE))
    spec = benchmark_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload!r}")

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            case, records, metrics, quality, extra = run_traced(
                args.workload, args.seed, args.seconds, workdir)
        else:
            case, records, metrics, quality, extra = run_untraced(
                args.workload, args.seed, args.seconds, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"metrics named in BENCHMARK.json but not measured: {missing}")
    failed = sum(1 for r in records if r.problems)
    stored = design()
    kinds = stored["metric_kinds"]
    line = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    results = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine(args.seed),
        "fail_frac": failed / len(records),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"],
                                "kind": kinds.get(m["name"], "timed")} for m in wanted},
        "quality": quality,
        "facts": case.facts,
        "op_seconds": [r.seconds for r in records],
        "problems": [f"op {r.index}: {p}" for r in records for p in r.problems][:50],
        "design": stored["workloads"][args.workload],
        **extra,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=1, default=str))

    for m in wanted:
        print(f"{args.workload:16s} {m['name']:34s} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(f"{args.workload:16s} {'fail_frac':34s} {failed / len(records):>14.6g} "
          f"({failed} of {len(records)})")
    for key, value in quality.items():
        print(f"{args.workload:16s} {key:34s} {value:>14.6g}")
    for problem in results["problems"][:10]:
        print(f"problem: {problem}", file=sys.stderr)
    for name in extra.get("absent", []):
        print(f"absent from zvnav, not traced: {name}", file=sys.stderr)
    print(json.dumps(line))
    return 0


def design_checks(per_layer: dict, predictions: list) -> list[tuple[str, bool]]:
    """The traced runs against the workload design and predictions in design.json."""
    def value(workload, name):
        return per_layer[workload].get(name, {}).get("value", 0)

    checks = []
    for p in predictions:
        for workload in p["moves_on"]:
            if workload in per_layer:
                checks.append((f"{p['id']}: runs in {workload}",
                               any(value(workload, m) != 0 for m in p["metrics"])))
        for workload in p["no_change_on"]:
            if workload in per_layer:
                nonzero = [m for m in p["metrics"] if value(workload, m) != 0]
                checks.append((f"{p['id']}: every metric is 0 in {workload}"
                               + (f" (nonzero: {', '.join(nonzero)})" if nonzero else ""),
                               not nonzero))
    if "cli_walkthrough" in per_layer:
        zero = [k for k, v in per_layer["cli_walkthrough"].items()
                if k.startswith(("io.", "cli.")) and v["value"] == 0]
        checks.append(("every io.* and cli.* metric is nonzero in cli_walkthrough"
                       + (f" (zero: {', '.join(zero)})" if zero else ""), not zero))
    return checks


def run_all(args) -> int:
    spec = benchmark_spec()
    results: dict = {"end_to_end": {}, "per_layer": {}, "fail_frac": {}}
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{workload} trace {trace}: exit {proc.returncode}")
                status = 1
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            results["end_to_end" if trace == 0 else "per_layer"][workload] = line["metrics"]
            results["fail_frac"][f"{workload}/trace{trace}"] = line["failed"] / line["attempted"]
            print(proc.stdout.rsplit("\n", 2)[0] if trace == 0 else
                  f"{workload:16s} traced: {line['attempted']} ops, {line['failed']} failed")
            status |= int(not line["correct"])

    print("\ntracing overhead (traced minus untraced op_s_p50):")
    for workload, metrics in results["per_layer"].items():
        untraced = results["end_to_end"].get(workload, {}).get("op_s_p50", {}).get("value")
        paired = metrics["trace.overhead_s"]["value"]
        across = metrics["trace.op_s_p50"]["value"] - untraced if untraced else float("nan")
        print(f"  {workload:16s} paired in the traced run {paired:+.4f} s; "
              f"across the two runs {across:+.4f} s")
    print("\ndesign checks:")
    for text, ok in design_checks(results["per_layer"], design()["predictions"]):
        print(f"  {'PASS' if ok else 'FAIL'}  {text}")
        status |= int(not ok)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"all-seed{args.seed}.json").write_text(json.dumps(results, indent=1))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long to measure; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
