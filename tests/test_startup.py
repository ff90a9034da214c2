"""Start-up contract: no path of the library loads scipy.

The sine, cubic-sine and rank-structured kernels need numpy alone: Ai is
a numpy trapezoid rule, the Hastings-McLeod solve sweeps its tridiagonal
Newton systems in plain Python, and its profile is a numpy Hermite
interpolant.  scipy is a test dependency only, for oracles.  Each
check runs in a fresh interpreter, so nothing an earlier test imported can
hide a module-level import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PROBED = ("scipy.special", "scipy.linalg", "scipy.interpolate", "scipy.integrate")


def _loaded_after(code: str) -> list:
    # the module list is the last line printed, after anything the code prints
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps(sorted(m for m in {PROBED!r} if m in sys.modules)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert _loaded_after("import gapdet") == []


@pytest.mark.parametrize("argv", [
    ["verify", "--formula", "dyson", "--s", "5"],
    ["verify", "--formula", "theorem2", "--s", "2"],
])
def test_trig_verify_loads_no_scipy(argv):
    code = f"from gapdet import cli\nassert cli.main({argv!r}) == 0"
    assert _loaded_after(code) == []


def test_hastings_mcleod_solve_loads_no_scipy():
    assert _loaded_after("import gapdet\ngapdet.solve_hm()") == []


@pytest.mark.parametrize("argv", [
    ["verify", "--formula", "logsasy", "--x", "0", "--s", "1.8"],
    ["verify", "--formula", "logxasy", "--x", "1", "--s", "1.6"],
    ["verify", "--formula", "theorem1", "--x", "0", "--s", "1.8"],
    ["det", "--kernel", "pii", "--x", "0", "--s", "1.8"],
])
def test_pii_request_loads_no_scipy(argv):
    code = f"from gapdet import cli\nassert cli.main({argv!r}) == 0"
    assert _loaded_after(code) == []
