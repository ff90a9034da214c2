"""Smoke tests for the public surface: the demo scripts and ``__all__``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gapdet

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    res = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_every_public_name_resolves():
    missing = [name for name in gapdet.__all__ if not hasattr(gapdet, name)]
    assert missing == []
