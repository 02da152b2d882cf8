"""Smoke tests: both experiment scripts run against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("run_survey.py", "--n", "5"), "bound violations: 0"),
        (("locate_f1.py",), "candidates: 2"),
    ],
)
def test_script_runs(argv, expected):
    assert expected in run_script(*argv).splitlines()
