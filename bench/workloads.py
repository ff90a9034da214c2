"""The three benchmark workloads: how each draws its inputs from a seed,
runs one evaluation through gapdet's public functions, and checks it.

All three are closed loops with one caller.  Inputs come in blocks and a
run always finishes the block it started, so every run sees the same mix of
cheap and costly inputs:

* ``trig_sweep``: blocks of one ladder each; a run holds about a hundred.
* ``pii_sweep``: the 21-point grid is split into three blocks of seven, each
  holding every s once.  The x assignment was chosen so the blocks have
  close total, median and 90th-percentile ladder times at this commit;
  the seed orders the blocks and the points inside them.
* ``cli_slopes``: six blocks, each with one ``logsasy`` and one ``logxasy``
  request (one at x = 0 and one at x = 1, s paired so that the two slopes
  make the same number of Airy calls, which depends on s alone) and the
  same six cheap requests: ``dyson`` at every s of ``DYSON_S`` and
  ``theorem2`` at every s of ``CLI_S``, its x drawn from the seed.  The six
  blocks cover the twelve slope requests once.  With two slopes among eight
  requests the median is set by the cheap requests (start-up), away from
  the slowest of them, and the 90th percentile by the slopes.  One cheap
  request runs untimed before the loop, so the first timed child does not
  pay for a cold start the others skip.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

PII_X = (-1.0, 0.0, 1.0)
PII_S = (1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0)
CLI_X = (0.0, 1.0)
CLI_S = (1.6, 1.8, 2.0)
SLOPE_H = 1e-3

# x index into PII_X for each s of PII_S, one row per block
PII_BLOCKS = (
    (0, 0, 1, 1, 0, 0, 1),
    (1, 1, 0, 0, 2, 1, 0),
    (2, 2, 2, 2, 1, 2, 2),
)
# (s at x = 0, s at x = 1) for the two slope requests of a cli block
CLI_PAIRS = ((1.6, 2.0), (1.8, 1.8), (2.0, 1.6))
DYSON_S = (4.0, 5.0, 6.0)

TRIG_TOL = 1e-6
PII_TOL = 1e-4
SLOPE_TOL = 1e-3

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"


def grid_key(x: float, s: float) -> str:
    return f"{x:g},{s:g}"


def load_refs() -> dict:
    return json.loads((BENCH / "refs.json").read_text())


def child_env() -> dict:
    """Environment for gapdet child processes: source tree, one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class TrigSweep:
    """Sine and cubic-sine ladders: elimination-bound, no march, no Airy."""

    name = "trig_sweep"
    needs_hm = False
    trace_blocks = 200
    warmup = ()

    def __init__(self, seed, gapdet, hm, tracer=None):
        self.g = gapdet
        self.rng = random.Random(seed)
        self._rules = {}

    def blocks(self):
        i = 0
        while True:
            r = self.rng
            if i % 2 == 0:
                item = {"kernel": "sine", "t": 0.0, "x": r.uniform(0.5, 1.0), "s": r.uniform(1.0, 8.0)}
            else:
                item = {"kernel": "csin", "t": r.uniform(0.0, 1.0), "x": r.uniform(0.0, 2.0),
                        "s": r.uniform(1.0, 2.1)}
            i += 1
            yield [item]

    def replay(self, items):
        return items

    def evaluate(self, item, span=None):
        k, asympt, fredholm = self.g.kernels, self.g.asympt, self.g.fredholm
        if item["kernel"] == "sine":
            spec = k.Sine(x=item["x"])
            pred = asympt.dyson_sine_prediction(item["s"], item["x"]).value
        else:
            spec = k.CubicSine(t=item["t"], x=item["x"])
            pred = asympt.theorem2_prediction(item["s"], item["x"]).value
        ev = fredholm.log_det_converged(spec, item["s"])
        return {"n": ev.n, "log_det": float(ev.log_det), "converged": bool(ev.converged),
                "predicted": pred}

    def _rule(self, n):
        """numpy's leggauss nodes after two Newton steps in long double, with
        long-double weights, rounded to binary64.  leggauss's own weights are
        too coarse where I - K is nearly singular: at CubicSine(0.973, 1.996),
        s = 2.034, n = 128 they move log det by 1.3e-6 and at CubicSine(1, 2),
        s = 2.1, n = 256 by 6e-8, against a 40-digit mpmath determinant that
        gapdet matches to 3e-9 and 1.1e-7; this rule matches it to 5e-9 and
        8e-8.  Where long double is binary64 the refinement gains little."""
        import numpy as np

        if n not in self._rules:
            z = np.polynomial.legendre.leggauss(n)[0].astype(np.longdouble)
            for newton in (True, True, False):
                p0, p1 = np.ones_like(z), z
                for j in range(1, n):
                    p0, p1 = p1, ((2 * j + 1) * z * p1 - j * p0) / (j + 1)
                dp = n * (p0 - z * p1) / (1 - z * z)
                if newton:
                    z = z - p1 / dp
            self._rules[n] = z.astype(float), (2 / ((1 - z * z) * dp * dp)).astype(float)
        return self._rules[n]

    def check(self, item, out):
        """Independent numpy Nystrom value at the ladder's final order."""
        import numpy as np

        n = out["n"]
        nodes, weights = self._rule(n)
        s, t, x = item["s"], item["t"], item["x"]
        lam = s * nodes
        d = lam[:, None] - lam[None, :]
        g = (4.0 / 3.0) * t * (lam[:, None] ** 2 + lam[:, None] * lam[None, :] + lam[None, :] ** 2) + x
        off = np.where(d == 0.0, 1.0, d)
        k = np.where(d == 0.0, (4.0 * t * lam[:, None] ** 2 + x) / math.pi,
                     np.sin(d * g) / (math.pi * off))
        sw = np.sqrt(s * weights)
        sign, logabs = np.linalg.slogdet(np.eye(n) - sw[:, None] * k * sw[None, :])
        err = abs(logabs - out["log_det"])
        return bool(sign > 0 and err <= TRIG_TOL), f"numpy slogdet gap {err:.3e}"


class PiiSweep:
    """Rank-structured ladders on the fixed grid: bound by the column march."""

    name = "pii_sweep"
    needs_hm = True
    trace_blocks = 1
    warmup = ()

    def __init__(self, seed, gapdet, hm, tracer=None):
        self.g = gapdet
        self.hm = hm
        self.rng = random.Random(seed)
        self.refs = load_refs()["pii_log_det"]

    def _fields(self):
        """One PsiField per x, shared by every s drawn at that x in a pass."""
        return {x: self.g.psi.PsiField(x=x, hm=self.hm) for x in PII_X}

    def blocks(self):
        while True:
            fields = self._fields()
            for b in self.rng.sample(range(len(PII_BLOCKS)), len(PII_BLOCKS)):
                pts = [(PII_X[xi], s) for xi, s in zip(PII_BLOCKS[b], PII_S)]
                yield [{"x": x, "s": s, "field": fields[x]} for x, s in self.rng.sample(pts, len(pts))]

    def replay(self, items):
        fields = self._fields()
        return [dict(it, field=fields[it["x"]]) for it in items]

    def evaluate(self, item, span=None):
        x, s = item["x"], item["s"]
        spec = self.g.kernels.PII(x=x, field=item["field"])
        ev = self.g.fredholm.log_det_converged(spec, s)
        pred = self.g.asympt.theorem1_prediction(s, x, self.hm).value
        return {"n": ev.n, "log_det": float(ev.log_det), "converged": bool(ev.converged),
                "predicted": pred}

    def check(self, item, out):
        err = abs(out["log_det"] - self.refs[grid_key(item["x"], item["s"])])
        return err <= PII_TOL, f"reference gap {err:.3e}"


class CliSlopes:
    """Fresh ``gapdet verify`` processes: start-up and the slope ladders."""

    name = "cli_slopes"
    needs_hm = True
    trace_blocks = 1
    warmup = ({"formula": "dyson", "x": 1.0, "s": 5.0},)
    timeout_s = 150.0

    def __init__(self, seed, gapdet, hm, tracer=None):
        self.rng = random.Random(seed)
        self.refs = load_refs()["slopes"]
        self.tracer = tracer
        self.seed = seed
        self.count = 0
        (OUT / "tmp").mkdir(parents=True, exist_ok=True)

    def blocks(self):
        blocks = [(pair, swap) for pair in CLI_PAIRS for swap in (False, True)]
        while True:
            for pair, swap in self.rng.sample(blocks, len(blocks)):
                formulas = ("logxasy", "logsasy") if swap else ("logsasy", "logxasy")
                reqs = [{"formula": f, "x": x, "s": s} for f, x, s in zip(formulas, CLI_X, pair)]
                reqs += [{"formula": "dyson", "x": 1.0, "s": s} for s in DYSON_S]
                reqs += [{"formula": "theorem2", "x": self.rng.choice(CLI_X), "s": s} for s in CLI_S]
                yield self.rng.sample(reqs, len(reqs))

    def replay(self, items):
        return items

    def evaluate(self, item, span=None):
        self.count += 1
        out_csv = OUT / "tmp" / f"{self.name}-s{self.seed}-{self.count}.csv"
        argv = ["verify", "--formula", item["formula"], "--x", repr(item["x"]),
                "--s", repr(item["s"]), "--out", str(out_csv)]
        if span is None:
            cmd = [sys.executable, "-m", "gapdet.cli", *argv]
        else:
            trace_json = out_csv.with_suffix(".trace.json")
            cmd = [sys.executable, str(BENCH / "driver.py"), str(trace_json), *argv]
        proc = subprocess.Popen(cmd, env=child_env(), cwd=str(ROOT),
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=self.timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if span is not None:
            from tracer import adopt

            adopt(self.tracer, span, json.loads(trace_json.read_text()))
            trace_json.unlink()
        rows = []
        if proc.returncode == 0:
            with open(out_csv, newline="", encoding="ascii") as fh:
                rows = list(csv.DictReader(fh))
            out_csv.unlink()
        return {"returncode": proc.returncode, "stderr": err.strip()[-300:], "rows": rows}

    def check(self, item, out):
        if out["returncode"] != 0:
            return False, f"exit {out['returncode']}: {out['stderr']}"
        rows = out["rows"]
        if not rows or any(r["pass"] != "true" for r in rows):
            return False, f"rows {rows}"
        if item["formula"] not in self.refs:
            return True, "pass=true"
        err = abs(float(rows[0]["computed"]) - self.refs[item["formula"]][grid_key(item["x"], item["s"])])
        return err <= SLOPE_TOL, f"pass=true, slope reference gap {err:.3e}"


WORKLOADS = {w.name: w for w in (TrigSweep, PiiSweep, CliSlopes)}
