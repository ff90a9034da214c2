"""The benchmark's tracer wraps gapdet names by module and attribute; every
one of them must exist, or a traced benchmark run crashes at patch time, and
what it reads off their arguments and results must still be there."""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
    # ladder at (x, s) = (0, 1.0) stops at n = 64 after marching the 48
    # non-negative nodes of its first two rungs up front and asking for all
    # 96 nodes again per rung, and it eliminates each rung as one stack of
    # its two half-size blocks, one log_det_lu call per rung.  The tracer
    # reads a call's n as len(args[0]), which for a stack is its depth, 2.
    # The ladder is looked up on its module after install, as the benchmark
    # does.
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
    assert m["psi.lambdas_marched"] == 48
    assert m["fredholm.log_det.calls"] == 2
    assert m["mpnum.log_det_lu.calls"] == 2
    assert m["mpnum.log_det_lu.n3_sum"] == 2 * 2 ** 3


def test_tracer_counts_ladders_on_a_shared_field(hm):
    # A ladder empties its field's cache before its first march, and the
    # tracer counts marched columns as the cache's growth over each
    # psi_columns call, so two ladders on one field count what they count
    # on fresh fields: 48 columns at s = 1.8 (n = 64), 112 at s = 2.0
    # (n = 128), one per non-negative node.
    tracer_mod = _load_tracer()
    from gapdet import PII, PsiField, fredholm

    def marched(runs):
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            with tracer.span("eval"):
                for field, s in runs:
                    fredholm.log_det_converged(PII(x=1.0, field=field), s)
        finally:
            tracer.uninstall()
        return tracer_mod.layer_metrics(tracer)["psi.lambdas_marched"][0]

    fresh = [marched([(PsiField(x=1.0, hm=hm), s)]) for s in (1.8, 2.0)]
    assert fresh == [48, 112]
    shared = PsiField(x=1.0, hm=hm)
    assert marched([(shared, 1.8), (shared, 2.0)]) == sum(fresh)


# one cheap verify request per formula, and the spans it must open
_TRACED_REQUESTS = {
    "dyson": ("--s 4", {"asympt.dyson_sine_prediction", "fredholm.log_det_converged"}),
    "theorem1": ("--s 1.0", {"asympt.theorem1_prediction", "fredholm.log_det_converged",
                             "painleve2.solve_hm"}),
    "theorem2": ("--s 1.6", {"asympt.theorem2_prediction", "fredholm.log_det_converged"}),
    "logsasy": ("--kernel csin --s 1.0", {"asympt.logsasy_prediction", "fredholm.dlogdet_ds"}),
    "logxasy": ("--s 1.0", {"asympt.logxasy_prediction", "fredholm.dlogdet_dx",
                            "painleve2.solve_hm"}),
    "fcet": ("--kernel csin", {"asympt.fcet_fit", "fredholm.log_det_converged"}),
}


@pytest.mark.parametrize("formula", _TRACED_REQUESTS)
def test_traced_cli_reaches_the_library(capsys, formula):
    # The tracer patches gapdet.cli's module-level names after import, so a
    # verify request sees the patched slopes and predictions only if it
    # looks them up when it runs; a function object stored at import would
    # drop those spans from a traced cli_slopes run without an error.
    flags, spans = _TRACED_REQUESTS[formula]
    tracer_mod = _load_tracer()
    from gapdet import cli

    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        code = cli.main(["verify", "--formula", formula, *flags.split()])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == cli.EXIT_OK
    names = {sp["name"] for sp in tracer.spans}
    assert spans <= names
    assert ("painleve2.solve_hm" in names) == ("painleve2.solve_hm" in spans)
