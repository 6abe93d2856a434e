"""Digest of the README walkthrough: a sha256 for every file and stdout it makes.

Runs README steps 1-6, then ``zv detect --imu mixed.csv --gamma 3.4e5``, in
a new or empty directory through ``zvnav.cli.main``, and prints one
``sha256  name`` line per output file (``trials/`` copies included) and one
per command's stdout. Two runs whose lines are equal made the same bytes.
It exits non-zero, naming the command, if a step fails.

Compare a parent commit with a change by running this script twice, with
each checkout's ``src`` first on ``PYTHONPATH``:

    PYTHONPATH=../parent/src python tools/walkthrough_digest.py /tmp/a > parent.txt
    PYTHONPATH=src python tools/walkthrough_digest.py /tmp/b > change.txt
    diff parent.txt change.txt

The ``zvnav`` package it ran is named on stderr.
"""
from __future__ import annotations

import contextlib
import hashlib
import shutil
import sys
from pathlib import Path

from click.testing import CliRunner

import zvnav
from zvnav.cli import main as zvnav_main

GAMMAS_JSON = '{"gamma_walk": 3.4e5, "gamma_run": 7.2e6}\n'

# README steps 1-6 and one zv detect, in order; each a zvnav command line
COMMANDS = (
    "sim gait --motion walk --duration 60 --seed 7 "
    "--out walk.csv --truth walk_truth.csv --mocap-out walk_mocap.csv",
    "sim gait --motion run --duration 60 --seed 8 "
    "--out run.csv --truth run_truth.csv --mocap-out run_mocap.csv",
    "zv optimize --imu walk.csv --mocap walk_mocap.csv --motion walk --curve-out walk_pr.csv",
    "zv optimize --imu run.csv --mocap run_mocap.csv --motion run --curve-out run_pr.csv",
    "classify train --trials trials --out model.json --classes 0,2",
    "classify predict --imu run.csv --model model.json --out labels.csv",
    "sim gait --segments walk:15,run:15,walk:15:3.14159,run:14:3.14159 --seed 9 "
    "--out mixed.csv --truth mixed_truth.csv --markers-out markers.json "
    "--triggers-out triggers.csv",
    "ins run --imu mixed.csv --gamma 3.4e5 --out traj_walkgamma.csv",
    "ins run --imu mixed.csv --adaptive --model model.json "
    "--gamma-walk 3.4e5 --gamma-run 7.2e6 --out traj_adaptive.csv",
    "eval trial --imu mixed.csv --model model.json --gammas gammas.json "
    "--triggers triggers.csv --markers markers.json --truth mixed_truth.csv "
    "--report report.json",
    "zv detect --imu mixed.csv --gamma 3.4e5 --out detect.csv",
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def walkthrough(directory) -> list[str]:
    """Run the walkthrough in ``directory``, made if missing; its digest lines.

    Fails with ``RuntimeError`` if the directory holds anything or a command fails.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if any(directory.iterdir()):
        raise RuntimeError(f"{directory}: not empty")
    runner = CliRunner()
    lines = []
    with contextlib.chdir(directory):
        for number, command in enumerate(COMMANDS, start=1):
            if command.startswith("classify train"):  # step 3's mkdir and cp
                Path("trials").mkdir()
                shutil.copy("walk.csv", "trials")
                shutil.copy("run.csv", "trials")
            if command.startswith("eval trial"):  # step 6's echo
                Path("gammas.json").write_text(GAMMAS_JSON)
            result = runner.invoke(zvnav_main, command.split())
            if result.exit_code != 0:
                raise RuntimeError(f"zvnav {command}: exit code {result.exit_code}\n"
                                   f"{result.output}{result.exception!r}")
            name = " ".join(command.split()[:2])
            lines.append(f"{_sha256(result.stdout_bytes)}  stdout {number:02d} {name}")
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        lines.append(f"{_sha256(path.read_bytes())}  {path.relative_to(directory).as_posix()}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(f"usage: {Path(__file__).name} DIRECTORY", file=sys.stderr)
        return 2
    print(f"zvnav from {Path(zvnav.__file__).parent}", file=sys.stderr)
    try:
        lines = walkthrough(argv[0])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
