"""gapdet benchmark: one command, three workloads, every output checked.

    python3 bench/run.py --workload {trig_sweep,pii_sweep,cli_slopes}
                         --seed N --seconds S --trace {0,1}

Run it from the repository root; it imports gapdet from ``src/`` and writes
only under ``bench/out/``.  With ``--trace 0`` it runs a closed loop with one
caller for at least S seconds, finishing the input block it is in, and
prints the end-to-end metrics.  With ``--trace 1`` it runs the seed's first
block(s), a fixed input list so that counts repeat exactly, with wrappers
around each layer, and prints the per-layer metrics.  Either way a
workload's warm-up requests run untimed first and are checked like the
rest, and the last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import OUT, ROOT, SRC, WORKLOADS, child_env  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
RULE_ORDERS = (32, 64, 128, 256)
SETUP_PROBES = 2       # extra fresh-process set-ups; setup_s is the median of 1 + this
START_CAP_S = 110.0    # no new evaluation starts after this, so a run ends well inside 180 s
REPLAY_MIN_S = 2.0     # untraced replay length for the tracing-overhead ratio


def pin_threads():
    """One thread everywhere: the benchmark is a single closed-loop caller."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("GAPDET_THREADS", None)


def setup(workload, tracer=None):
    """Import, the Hastings-McLeod solve where needed, and cold rules for
    every ladder order.  The determinant layer keeps its own rule cache, so
    the first ladder of a run builds its rules again, as a user's does."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import gapdet

    if tracer is not None:
        tracer.install()
        span = tracer.open("setup")
    hm = gapdet.painleve2.solve_hm() if workload.needs_hm else None
    for n in RULE_ORDERS:
        gapdet.mpnum.gauss_legendre(n)
    if tracer is not None:
        tracer.close(span)
    return gapdet, hm, time.perf_counter() - t0


def setup_probe(name):
    """Time a set-up in a fresh interpreter, as a user's process pays it."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--setup-probe"]
    res = subprocess.run(cmd, env=child_env(), cwd=str(ROOT), capture_output=True,
                         text=True, timeout=120, check=True)
    return float(res.stdout.strip().splitlines()[-1])


def run_one(wl, item, tracer=None):
    span = tracer.open("eval") if tracer is not None else None
    t0 = time.perf_counter()
    try:
        out, error = wl.evaluate(item, span), None
    except Exception as exc:  # a failed evaluation is counted, not fatal
        out, error = None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if span is not None:
        tracer.close(span)
    shown = {k: v for k, v in item.items() if k != "field"}
    return {"item": item, "input": shown, "out": out, "error": error, "seconds": dt}


def warm_up(wl):
    """The workload's untimed requests; checked, but kept out of every timing."""
    return [run_one(wl, dict(item)) for item in wl.warmup]


def timed_loop(wl, seconds):
    records = []
    t0 = time.perf_counter()
    for block in wl.blocks():
        for item in block:
            if time.perf_counter() - t0 > START_CAP_S:
                break
            records.append(run_one(wl, item))
        if time.perf_counter() - t0 >= seconds:
            break
    return records, time.perf_counter() - t0


def traced_loop(wl, tracer):
    blocks = wl.blocks()
    items = [it for _ in range(wl.trace_blocks) for it in next(blocks)]
    records = [run_one(wl, it, tracer) for it in items]
    tracer.uninstall()
    replay = []
    for it in wl.replay(items):
        replay.append(run_one(wl, it))
        if sum(r["seconds"] for r in replay) >= REPLAY_MIN_S:
            break
    traced = sum(r["seconds"] for r in records[:len(replay)])
    untraced = sum(r["seconds"] for r in replay)
    return records, traced / untraced - 1.0


def check_all(wl, records):
    for r in records:
        if r["error"] is not None:
            r["ok"], r["detail"] = False, r["error"]
        else:
            r["ok"], r["detail"] = wl.check(r["item"], r["out"])
    return sum(not r["ok"] for r in records)


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "gapdet").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def env_stamp(load_start):
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS + ("GAPDET_THREADS",)},
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
    }


def peak_rss_mb(wl):
    """This process's peak, or for CLI requests the largest child's."""
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_slopes" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(records, warm, loop_s, setup_s, rss_mb):
    """Timings come from the timed loop alone; ``pass_share`` also counts
    the untimed warm-up requests."""
    secs = [r["seconds"] for r in records]
    checked = warm + records
    return {
        "evals_per_s": (sum(r["ok"] for r in records) / loop_s, "1/s"),
        "eval_s.p50": (statistics.median(secs), "s"),
        "eval_s.p90": (quantile(secs, 0.9), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "pass_share": (sum(r["ok"] for r in checked) / len(checked), "ratio"),
    }


def count_flags(name, seed, counts, src_sha):
    """Compare exact counts with earlier runs of the same source tree."""
    flags = []
    seen = OUT / f"counts-{name}-s{seed}.json"
    earlier = []
    if seen.is_file():
        earlier.append(("earlier run", json.loads(seen.read_text())))
    base = json.loads((BENCH / "baseline.json").read_text()) if (BENCH / "baseline.json").is_file() else {}
    committed = base.get("counts", {}).get(name, {}).get(str(seed))
    if committed is not None:
        earlier.append(("committed baseline", {"src_sha256": base.get("src_sha256"), "counts": committed}))
    for label, rec in earlier:
        if rec.get("src_sha256") != src_sha:
            continue
        for key, val in counts.items():
            if rec["counts"].get(key) != val:
                flags.append(f"{key} = {val}, {label} had {rec['counts'].get(key)}")
    seen.write_text(json.dumps({"src_sha256": src_sha, "counts": counts}))
    return flags


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "gapdet" / "__init__.py").is_file():
        print(f"bench: no gapdet package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    pin_threads()
    wl_cls = WORKLOADS[args.workload]
    if args.setup_probe:
        print(setup(wl_cls)[2])
        return 0

    OUT.mkdir(exist_ok=True)
    load_start = os.getloadavg()[0]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    gapdet, hm, setup_s = setup(wl_cls, tracer)
    wl = wl_cls(args.seed, gapdet, hm, tracer)
    tag = f"{wl.name}-s{args.seed}-trace{args.trace}"

    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    warm = warm_up(wl)
    if args.trace:
        from tracer import exact_counts, layer_metrics, write_spans

        records, overhead = traced_loop(wl, tracer)
        failed = check_all(wl, warm + records)
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_share"] = (overhead, "ratio")
        counts = exact_counts(metrics)
        src_sha = src_digest()
        flags = count_flags(wl.name, args.seed, counts, src_sha)
        metrics["trace.count_mismatches"] = (len(flags), "count")
        report.update(counts=counts, count_flags=flags)
        write_spans(OUT / f"spans-{wl.name}-s{args.seed}.jsonl", tracer.spans)
        for flag in flags:
            print(f"FLAG: count changed between runs of identical code: {flag}")
    else:
        records, loop_s = timed_loop(wl, args.seconds)
        rss_mb = peak_rss_mb(wl)
        failed = check_all(wl, warm + records)
        setups = [setup_s] + [setup_probe(wl.name) for _ in range(SETUP_PROBES)]
        metrics = end_to_end(records, warm, loop_s, statistics.median(setups), rss_mb)
        report.update(loop_s=loop_s, setup_samples=setups)

    for r in warm:
        r["warmup"] = True
    records = warm + records
    report["env"] = env_stamp(load_start)
    report["records"] = [{k: v for k, v in r.items() if k != "item"} for r in records]
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1, default=str))

    for r in records:
        if not r["ok"]:
            print(f"FAILED {r['input']}: {r['detail']}")
    print(f"{wl.name} seed {args.seed}: {len(records)} evaluations, {failed} failed")
    for k, (v, u) in metrics.items():
        print(f"  {k} = {v:.6g} {u}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
