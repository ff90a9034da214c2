"""The benchmark's tracer wraps gapdet names by module and attribute; every
one of them must exist, or a traced benchmark run crashes at patch time."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_names_resolve_on_gapdet():
    spec = importlib.util.spec_from_file_location("gapdet_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    pairs = {(mod, attr) for mod, attr, _ in tracer.SPANNED + tracer.COUNTED}
    assert pairs
    missing = sorted(f"gapdet.{mod}.{attr}" for mod, attr in pairs
                     if not callable(getattr(importlib.import_module(f"gapdet.{mod}"), attr, None)))
    assert missing == []
