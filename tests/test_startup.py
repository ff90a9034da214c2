"""Start-up contract: scipy loads only on the paths that call it.

The sine and cubic-sine kernels need numpy alone; ``scipy.special`` and
``scipy.linalg`` are imported at the first Airy call or Hastings-McLeod
solve, and ``scipy.integrate`` only by the lambda-ray cross-check route.
No gapdet path imports ``scipy.interpolate``: the Hastings-McLeod profile
is interpolated with numpy, so a PII request loads neither of the last two.
Each check runs in a fresh interpreter, so nothing an earlier test
imported can hide a module-level import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SCIPY = ("scipy.special", "scipy.linalg")
PROBED = SCIPY + ("scipy.interpolate", "scipy.integrate")


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


def test_hastings_mcleod_solve_loads_scipy():
    assert _loaded_after("import gapdet\ngapdet.solve_hm()") == sorted(SCIPY)


def test_pii_verify_loads_neither_interpolate_nor_integrate():
    argv = ["verify", "--formula", "logsasy", "--x", "0", "--s", "1.8"]
    code = f"from gapdet import cli\nassert cli.main({argv!r}) == 0"
    loaded = _loaded_after(code)
    assert "scipy.interpolate" not in loaded and "scipy.integrate" not in loaded
