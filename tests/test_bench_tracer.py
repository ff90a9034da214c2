"""The benchmark's tracer wraps gapdet names by module and attribute; every
one of them must exist, or a traced benchmark run crashes at patch time, and
what it reads off their arguments and results must still be there."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("gapdet_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_names_resolve_on_gapdet():
    tracer = _load_tracer()
    pairs = {(mod, attr) for mod, attr, _ in tracer.SPANNED + tracer.COUNTED}
    assert pairs
    missing = sorted(f"gapdet.{mod}.{attr}" for mod, attr in pairs
                     if not callable(getattr(importlib.import_module(f"gapdet.{mod}"), attr, None)))
    assert missing == []


def test_tracer_counts_a_pii_ladder(hm):
    # The tracer reads the column cache and psi_columns' return value; a
    # ladder at (x, s) = (0, 1.0) stops at n = 64 after marching its first
    # two rungs' 96 nodes up front and asking for them again per rung.  The
    # ladder is looked up on its module after install, as the benchmark does.
    tracer_mod = _load_tracer()
    from gapdet import PII, PsiField, fredholm

    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        with tracer.span("eval"):
            fredholm.log_det_converged(PII(x=0.0, field=PsiField(x=0.0, hm=hm)), 1.0)
    finally:
        tracer.uninstall()
    m = {k: v for k, (v, _) in tracer_mod.layer_metrics(tracer).items()}
    assert m["psi.lambdas_requested"] == 192
    assert m["psi.lambdas_marched"] == 96
    assert m["fredholm.log_det.calls"] == 2
    assert m["mpnum.log_det_lu.n3_sum"] == 32 ** 3 + 64 ** 3
