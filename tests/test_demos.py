"""Smoke tests for the public surface: the demo scripts and ``__all__``."""

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gapdet

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PACKAGE = ROOT / "src" / "gapdet"


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


def test_no_public_signature_carries_a_test_hook():
    # Tests reach their special states through fixtures and monkeypatching,
    # so no public callable takes an underscore parameter, and a field is
    # built from its x, its profile and its tolerance alone.
    hooks = []
    for name in gapdet.__all__:
        obj = getattr(gapdet, name)
        if not callable(obj):
            continue
        if isinstance(obj, type) and issubclass(obj, Exception) and "__init__" not in vars(obj):
            continue                        # the builtin's (*args), no signature to read
        hooks += [f"{name}({p})" for p in inspect.signature(obj).parameters if p.startswith("_")]
    assert hooks == []
    init = tuple(f.name for f in dataclasses.fields(gapdet.PsiField) if f.init)
    assert init == ("x", "hm", "tol")


def _names_in_code(path: Path) -> set:
    # identifiers the code reads, not words in its docstrings or comments
    return {getattr(node, "id", getattr(node, "attr", None))
            for node in ast.walk(ast.parse(path.read_text()))}


def test_every_public_function_has_a_caller_outside_tests():
    # A public function that only the tests call belongs in tests/: each one
    # is read by a demo or by a library module other than its own.
    read = {p: _names_in_code(p) for p in [*PACKAGE.glob("*.py"), *DEMOS]}
    orphans = []
    for name in gapdet.__all__:
        obj = getattr(gapdet, name)
        if inspect.isfunction(obj):
            home = PACKAGE / f"{obj.__module__.rsplit('.', 1)[-1]}.py"
            if not any(name in read[p] for p in read if p != home):
                orphans.append(name)
    assert orphans == []


def test_every_public_method_has_a_reader_outside_tests():
    # The same rule for the public methods and properties of the exported
    # classes: each is read as an attribute by a demo or a library module.
    read = set()
    for path in [*PACKAGE.glob("*.py"), *DEMOS]:
        read |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute)}
    orphans = []
    for name in gapdet.__all__:
        obj = getattr(gapdet, name)
        if isinstance(obj, type):
            orphans += [f"{name}.{attr}" for attr, member in vars(obj).items()
                        if not attr.startswith("_") and attr not in read
                        and (inspect.isfunction(member) or isinstance(member, property))]
    assert orphans == []
