"""In-memory spans around gapdet's public functions, for the traced run.

Each wrapper is installed at the module attribute its caller looks up (for
example ``gapdet.fredholm.log_det_lu``, which is what ``log_det`` calls), so
the package itself is not edited.  A span records its name, parent, start,
end and the time covered by its children; self time is the difference.
The scalar Airy calls are too frequent for one span each: they add to a
counter and to the covered time of the span that is open around them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  Several attributes may carry one name
# because each caller holds its own reference to the function.
SPANNED = (
    ("fredholm", "log_det_lu", "mpnum.log_det_lu"),
    ("mpnum", "gauss_legendre", "mpnum.gauss_legendre"),
    ("fredholm", "gauss_legendre", "mpnum.gauss_legendre"),
    ("painleve2", "gauss_legendre", "mpnum.gauss_legendre"),
    ("cli", "gauss_legendre", "mpnum.gauss_legendre"),
    ("painleve2", "solve_hm", "painleve2.solve_hm"),
    ("cli", "solve_hm", "painleve2.solve_hm"),
    ("kernels", "psi_columns", "psi.psi_columns"),
    ("psi", "psi_columns", "psi.psi_columns"),
    ("cli", "psi_columns", "psi.psi_columns"),
    ("fredholm", "kernel_matrix", "kernels.kernel_matrix"),
    ("cli", "kernel_matrix", "kernels.kernel_matrix"),
    ("fredholm", "log_det", "fredholm.log_det"),
    ("cli", "log_det", "fredholm.log_det"),
    ("fredholm", "log_det_converged", "fredholm.log_det_converged"),
    ("cli", "log_det_converged", "fredholm.log_det_converged"),
    ("cli", "dlogdet_ds", "fredholm.dlogdet_ds"),
    ("cli", "dlogdet_dx", "fredholm.dlogdet_dx"),
) + tuple(
    (mod, fn, "asympt." + fn)
    for mod in ("asympt", "cli")
    for fn in ("dyson_sine_prediction", "theorem1_prediction", "theorem2_prediction",
               "logsasy_prediction", "logxasy_prediction", "fcet_fit")
)

COUNTED = (
    ("psi", "airy_ai", "specfun.airy_ai"),
    ("painleve2", "airy_ai", "specfun.airy_ai"),
    ("painleve2", "airy_ai_prime", "specfun.airy_ai_prime"),
)


def _note_psi_columns(args):
    field = args[0]
    before = len(field.cache)

    def after(span, result):
        span["attrs"] = {"requested": len(result), "marched": len(field.cache) - before}
    return after


def _note_result(attr_fn):
    def pre(args):
        return lambda span, result: span.__setitem__("attrs", attr_fn(args, result))
    return pre


NOTES = {
    "psi.psi_columns": _note_psi_columns,
    "mpnum.log_det_lu": _note_result(lambda a, r: {"n": int(len(a[0]))}),
    "kernels.kernel_matrix": _note_result(lambda a, r: {"entries": int(r.size)}),
    "painleve2.solve_hm": _note_result(lambda a, r: {"newton_iters": int(r.iterations)}),
    "fredholm.log_det_converged": _note_result(lambda a, r: {"converged": bool(r.converged)}),
}


class Tracer:
    """Spans and counters of one process, kept in memory until dumped."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self._patches = []

    def open(self, name):
        span = {"id": len(self.spans), "parent": self._stack[-1]["id"] if self._stack else None,
                "name": name, "start": time.perf_counter(), "end": None, "covered": 0.0}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")
        if self._stack:
            self._stack[-1]["covered"] += span["end"] - span["start"]

    def span(self, name):
        tracer = self

        class _Ctx:
            def __enter__(self):
                self.span = tracer.open(name)
                return self.span

            def __exit__(self, *exc):
                tracer.close(self.span)
                return False
        return _Ctx()

    def _spanned(self, orig, name):
        note = NOTES.get(name)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            after = note(args) if note else None
            span = self.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.close(span)
            if after:
                after(span, result)
            return result
        return wrapper

    def _counted(self, orig, name):
        counters = self.counters
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                dt = clock() - t0
                counters[name + ".calls"] += 1
                counters[name + ".s"] += dt
                if stack:
                    stack[-1]["covered"] += dt
                    stack[-1].setdefault("counted", {}).setdefault(name, 0.0)
                    stack[-1]["counted"][name] += dt
        return wrapper

    def install(self):
        """Wrap every listed attribute of the gapdet submodules imported so far."""
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for mod_name, attr, name in table:
                mod = sys.modules.get("gapdet." + mod_name)
                if mod is None:
                    continue
                orig = getattr(mod, attr)
                setattr(mod, attr, make(orig, name))
                self._patches.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def dump(self):
        return {"spans": self.spans, "counters": dict(self.counters)}


def adopt(tracer: Tracer, parent: dict, child: dict):
    """Graft a child process's dump under ``parent`` (an open span).

    Child clocks are not comparable with the parent's, so grafted spans keep
    their own start and end; only durations and nesting are used.
    """
    offset = len(tracer.spans)
    for sp in child["spans"]:
        sp = dict(sp, id=sp["id"] + offset, proc="child")
        if sp["parent"] is None:
            sp["parent"] = parent["id"]
            parent["covered"] += sp["end"] - sp["start"]
        else:
            sp["parent"] += offset
        tracer.spans.append(sp)
    for key, val in child["counters"].items():
        tracer.counters[key] += val


def write_spans(path, spans):
    with open(path, "w", encoding="ascii") as fh:
        for sp in spans:
            fh.write(json.dumps(sp, sort_keys=True) + "\n")


LAYERS = ("mpnum", "specfun", "painleve2", "psi", "kernels", "fredholm", "asympt", "cli")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced run.

    The per-function metrics cover the whole run, set-up included.  The
    ``self_s.<layer>`` metrics split evaluation wall time (``trace.eval_s``)
    by self time; what no layer claims is ``self_s.unclaimed``, which is
    process start-up for CLI requests and the benchmark's own loop otherwise.
    """
    spans = tracer.spans
    by_id = {sp["id"]: sp for sp in spans}
    root_of = {}
    for sp in spans:
        p = sp
        while p["parent"] is not None:
            p = by_id[p["parent"]]
        root_of[sp["id"]] = p

    def named(name):
        return [sp for sp in spans if sp["name"] == name]

    def dur(sp):
        return sp["end"] - sp["start"]

    def total(name):
        return sum(dur(sp) for sp in named(name))

    def self_total(name):
        return sum(dur(sp) - sp["covered"] for sp in named(name))

    def attr_sum(name, key):
        return sum(sp.get("attrs", {}).get(key, 0) for sp in named(name))

    def parent_name(sp):
        return by_id[sp["parent"]]["name"] if sp["parent"] is not None else None

    ladders = named("fredholm.log_det_converged")
    slopes = named("fredholm.dlogdet_ds") + named("fredholm.dlogdet_dx")
    rungs = [sp for sp in named("fredholm.log_det") if parent_name(sp) == "fredholm.log_det_converged"]
    requested = attr_sum("psi.psi_columns", "requested")
    marched = attr_sum("psi.psi_columns", "marched")
    evals = named("eval")
    eval_wall = sum(dur(sp) for sp in evals)

    shares = dict.fromkeys(LAYERS + ("unclaimed",), 0.0)
    for sp in spans:
        if root_of[sp["id"]]["name"] != "eval":
            continue
        label = "unclaimed" if sp["name"] == "eval" else sp["name"].split(".")[0]
        shares[label] += dur(sp) - sp["covered"]
        for counted, t in sp.get("counted", {}).items():
            shares[counted.split(".")[0]] += t

    c = tracer.counters
    m = {
        "trace.eval_s": (eval_wall, "s"),
        "mpnum.log_det_lu.calls": (len(named("mpnum.log_det_lu")), "count"),
        "mpnum.log_det_lu.s": (total("mpnum.log_det_lu"), "s"),
        "mpnum.log_det_lu.n3_sum": (sum(sp["attrs"]["n"] ** 3 for sp in named("mpnum.log_det_lu")), "count"),
        "mpnum.gauss_legendre.calls": (len(named("mpnum.gauss_legendre")), "count"),
        "mpnum.gauss_legendre.s": (total("mpnum.gauss_legendre"), "s"),
        "specfun.airy_ai.calls": (int(c.get("specfun.airy_ai.calls", 0)), "count"),
        "specfun.airy_ai.s": (c.get("specfun.airy_ai.s", 0.0), "s"),
        "painleve2.solve_hm.calls": (len(named("painleve2.solve_hm")), "count"),
        "painleve2.solve_hm.s": (total("painleve2.solve_hm"), "s"),
        "painleve2.solve_hm.newton_iters": (attr_sum("painleve2.solve_hm", "newton_iters"), "count"),
        "psi.psi_columns.calls": (len(named("psi.psi_columns")), "count"),
        "psi.psi_columns.self_s": (self_total("psi.psi_columns"), "s"),
        "psi.lambdas_requested": (requested, "count"),
        "psi.lambdas_marched": (marched, "count"),
        "psi.cache_hit_ratio": (1.0 - marched / requested if requested else 0.0, "ratio"),
        "kernels.kernel_matrix.calls": (len(named("kernels.kernel_matrix")), "count"),
        "kernels.kernel_matrix.self_s": (self_total("kernels.kernel_matrix"), "s"),
        "kernels.kernel_matrix.entries": (attr_sum("kernels.kernel_matrix", "entries"), "count"),
        "fredholm.log_det.calls": (len(named("fredholm.log_det")), "count"),
        "fredholm.log_det.self_s": (self_total("fredholm.log_det"), "s"),
        "fredholm.log_det_converged.s": (total("fredholm.log_det_converged"), "s"),
        "fredholm.rungs_per_ladder": (len(rungs) / len(ladders) if ladders else 0.0, "ratio"),
        "fredholm.converged_share": (
            sum(sp["attrs"]["converged"] for sp in ladders) / len(ladders) if ladders else 0.0, "ratio"),
        "fredholm.dlogdet_ds.s": (total("fredholm.dlogdet_ds"), "s"),
        "fredholm.dlogdet_dx.s": (total("fredholm.dlogdet_dx"), "s"),
        "fredholm.ladders_per_slope": (
            sum(parent_name(sp) in ("fredholm.dlogdet_ds", "fredholm.dlogdet_dx") for sp in ladders)
            / len(slopes) if slopes else 0.0, "ratio"),
        "asympt.s": (sum(total(n) for n in {sp["name"] for sp in spans} if n.startswith("asympt.")), "s"),
        "cli.main.s": (total("cli.main"), "s"),
        "cli.startup_s": (shares["unclaimed"] if named("cli.main") else 0.0, "s"),
    }
    for label in LAYERS:
        m["self_s." + label] = (shares[label], "s")
    m["self_s.unclaimed"] = (shares["unclaimed"], "s")
    return m


def exact_counts(metrics: dict) -> dict:
    """The counts that must repeat exactly for one seed and one source tree."""
    keys = {
        "rungs": "fredholm.log_det.calls",
        "lambdas_marched": "psi.lambdas_marched",
        "airy_ai_calls": "specfun.airy_ai.calls",
        "n3_sum": "mpnum.log_det_lu.n3_sum",
        "newton_iters": "painleve2.solve_hm.newton_iters",
    }
    return {k: metrics[v][0] for k, v in keys.items()}
