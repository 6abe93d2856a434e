"""``tools/walkthrough_digest.py``: the README walkthrough, digested file by file."""
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "walkthrough_digest.py"
spec = importlib.util.spec_from_file_location("walkthrough_digest", SCRIPT)
digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digest)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

FILES = ["detect.csv", "gammas.json", "labels.csv", "markers.json", "mixed.csv",
         "mixed_truth.csv", "model.json", "report.json", "run.csv", "run_mocap.csv",
         "run_pr.csv", "run_truth.csv", "traj_adaptive.csv", "traj_walkgamma.csv",
         "trials/run.csv", "trials/walk.csv", "triggers.csv", "walk.csv", "walk_mocap.csv",
         "walk_pr.csv", "walk_truth.csv"]


def test_two_runs_digest_the_same_files_and_stdout(tmp_path):
    first = digest.walkthrough(tmp_path / "a")
    assert digest.walkthrough(tmp_path / "b") == first
    names = [line.split("  ", 1)[1] for line in first]
    assert names[:11] == [f"stdout {n:02d} {' '.join(command.split()[:2])}"
                          for n, command in enumerate(digest.COMMANDS, start=1)]
    assert names[11:] == FILES
    # a copied file digests like its original
    sha = {name: line.split()[0] for line, name in zip(first, names)}
    assert sha["trials/walk.csv"] == sha["walk.csv"] and sha["trials/run.csv"] == sha["run.csv"]


def test_a_directory_that_holds_files_or_a_failing_step_exits_non_zero(tmp_path, capsys,
                                                                       monkeypatch):
    (tmp_path / "old.csv").write_text("")
    assert digest.main([str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {tmp_path}: not empty"
    monkeypatch.setattr(digest, "COMMANDS", ("zv detect --imu missing.csv --out detect.csv",))
    assert digest.main([str(tmp_path / "empty")]) == 1
    assert "zvnav zv detect --imu missing.csv" in capsys.readouterr().err
