"""Smoke runs of the scripts under scripts/, each in its own interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import semivar
from semivar.claims import REGISTRY

SRC = Path(semivar.__file__).resolve().parent.parent
SCRIPTS = SRC.parent / "scripts"


def _run(script, *argv):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )


def test_run_survey(tmp_path):
    out = tmp_path / "survey.jsonl"
    proc = _run("run_survey.py", "--orders", "1,2", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    # a header, then one row per claim
    rows = [line.split()[0] for line in proc.stdout.splitlines()[1:30]]
    assert rows == sorted(REGISTRY) and len(rows) == 29
    assert "9 tables, 412 results" in proc.stdout
    assert out.exists()


def test_find_counterexamples():
    proc = _run("find_counterexamples.py", "--max-order", "2")
    assert proc.returncode == 0, proc.stderr
    assert "NOT CONFIRMED" not in proc.stdout
    assert "confirmed" in proc.stdout
