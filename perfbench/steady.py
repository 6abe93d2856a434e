#!/usr/bin/env python3
"""Check that the benchmark is steady enough to judge a change with.

    python3 perfbench/steady.py

For every workload in BENCHMARK.json, runs the benchmark untraced once per
seed (seeds 1-10), in two sets over the same seeds. For each end-to-end
metric it takes the distance between the first and third quartiles of a
set's values as a share of their median: that spread should stay within a
third of the metric's bound (the target, reported) and fails the check when
it exceeds the bound. The second set's median must lie within the bound of
the first set's, in either direction. Each workload then runs traced twice on
seed 1, and every 'computed' and 'counted' per-layer metric (design.json)
must repeat exactly.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
SETS = 2


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    line["wall_s"] = wall
    return line


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def worse_by(first: float, later: float, better: str) -> float:
    return (later - first) / first if better == "lower" else (first - later) / first


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kinds = json.loads((HERE / "design.json").read_text())["metric_kinds"]
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    ok = True
    report: dict = {"seconds": seconds, "seeds": SEEDS, "sets": [], "repeat": {}}

    medians: dict = {}
    for set_index in range(SETS):
        lines = {w: [] for w in workloads}
        for seed in SEEDS:
            for w in workloads:
                line = run(w, seed, seconds, 0)
                lines[w].append(line)
                if not line["correct"]:
                    print(f"set {set_index + 1} {w} seed {seed}: {line['failed']} of "
                          f"{line['attempted']} ops failed")
                    ok = False
        report["sets"].append(lines)
        print(f"\nset {set_index + 1}: {len(SEEDS)} seeds x {seconds} s; "
              f"longest run {max(l['wall_s'] for ls in lines.values() for l in ls):.1f} s")
        for w in workloads:
            for m in spec["end_to_end"]:
                values = [l["metrics"][m["name"]]["value"] for l in lines[w]]
                median, sp = spread(values)
                target = m["bound"] / 3
                verdict = ("ok" if sp <= target
                           else "over target" if sp <= m["bound"] else "OVER BOUND")
                ok &= sp <= m["bound"]
                drift = ""
                if set_index == 0:
                    medians[(w, m["name"])] = median
                else:
                    d = worse_by(medians[(w, m["name"])], median, m["better"])
                    drift = f"  worse than set 1 by {d:+.3f} (within +-{m['bound']})"
                    ok &= abs(d) <= m["bound"]
                print(f"  {w:16s} {m['name']:14s} median {median:12.6g} {m['unit']:4s} "
                      f"IQR/median {sp:.4f} (target {target:.4f}) {verdict}{drift}")

    print(f"\ntraced twice on seed {SEEDS[0]}: computed and counted metrics must repeat")
    for w in workloads:
        a, b = (run(w, SEEDS[0], seconds, 1) for _ in range(2))
        exact = [k for k in kinds if k in a["metrics"]]
        differ = [k for k in exact if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        report["repeat"][w] = {"first": a, "second": b, "differ": differ}
        ok &= not differ and a["correct"] and b["correct"]
        print(f"  {w:16s} {len(exact)} exact metrics, "
              f"{'all repeat' if not differ else 'DIFFER: ' + ', '.join(differ)}")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{int(time.time())}.json").write_text(json.dumps(report, indent=1))
    print(f"\n{'STEADY' if ok else 'NOT STEADY'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
