"""The preproj benchmark.

    python3 perfbench/run.py --workload hh0_wild --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from ./src, never
from an installed copy, and the run fails (exit 1, no result line) when
./src/preproj is missing.  The seed decides the inputs only; their digest is
printed, and each set-up child must reproduce it.

Untraced (--trace 0): repeats whole passes of the workload until the next one
would overrun --seconds, then prints the end-to-end metrics:

  setup_s       median over SETUP_SPAWNS fresh interpreters of the time from
                spawn until `import preproj` is done and the inputs are built
  wall_s        median pass time: every answer of the workload computed
  peak_rss_mb   peak resident memory of this process

Both modes also print the median and 90th percentile latency of single
LatticeSolver.order_of calls (at least 100 a pass); the traced run reports
them as per-layer metrics.

Traced (--trace 1): alternates untraced and traced passes, prints the
per-layer metrics (summed self time of the spans around each layer's calls,
work counts, tracing overhead) and writes every span, with a breakdown by
degree, to .perfbench_out/trace-<workload>-<seed>.json.

Every time is in seconds at a reference speed (see speed.py).  Every pass's
answers are checked against references outside the timed region; a wrong
answer, an exception or the run's time budget running out is a failed
check, and error_rate = failed / attempted.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from speed import BudgetExceeded, SpeedClock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_SPAWNS = 7
# no pass may still be running this long after start, so a run ends well
# inside three minutes even when a pass hangs
BUDGET_S = 150

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
LAYER_TIMES = ["quiver", "rewrite.complete", "rewrite.normal_count",
               "homology.ambient", "homology.relations", "homology.classes",
               "intlinalg.snf", "intlinalg.lattice", "intlinalg.order_of",
               "series", "necklace"]
# metric -> (span name, summed span attribute)
LAYER_COUNTS = {"rewrite.complete.rules": ("rewrite.complete", "rules"),
                "homology.ambient.keys": ("homology.ambient", "keys"),
                "homology.relations.rows": ("homology.relations", "rows"),
                "homology.relations.nnz": ("homology.relations", "nnz"),
                "intlinalg.lattice.journal_ops": ("intlinalg.lattice", "journal_ops")}
PER_LAYER = {**{f"{name}.s": "s" for name in LAYER_TIMES},
             **{name: "count" for name in LAYER_COUNTS},
             "intlinalg.order_of.p50_ms": "ms", "intlinalg.order_of.p90_ms": "ms",
             "intlinalg.snf.useful_ratio": "ratio", "trace.overhead_s": "s"}


def load_preproj():
    init = os.path.join(SRC, "preproj", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: {init} not found; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import preproj
    if os.path.abspath(preproj.__file__) != init:
        raise SystemExit(f"perfbench: imported {preproj.__file__}, expected {init}")


def time_setup(args, digest):
    """Seconds from spawning a fresh interpreter until it has built the
    inputs, and whether it built the same ones."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        t1 = time.perf_counter()
        child.stdout.read()
        child.wait(timeout=60)
    return t1 - t0, child.returncode == 0 and line.split() == ["ready", digest]


def measure(w, inp, seconds, trace, clock, tally):
    """Run passes; returns (pass records, tracer).

    A record holds the pass's wall time, whether it was traced, `scale`, the
    factor from its seconds to reference seconds, and the order-query
    latencies, already in reference seconds.  The queries run in one batch
    that takes a fraction of the pass, and the host's speed can change within
    a pass, so they are scaled by the probes taken around the batch."""
    from spans import NullTracer, Tracer

    null, tracer = NullTracer(clock.now), Tracer(clock.now) if trace else None
    records = []
    ref = {}
    start = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        tr = tracer if traced else null
        if traced:
            tracer.run = k
        rec = {"traced": traced, "latencies": []}
        ans = None
        t0 = clock.now()
        try:
            with clock:
                ans = w.run_pass(inp, tr, rec["latencies"])
        except BudgetExceeded:
            print(f"pass {k}: budget of {BUDGET_S} s ran out", file=sys.stderr)
            tally.add("budget", False)
        except Exception:
            traceback.print_exc()
            tally.add("exception", False)
        rec["wall"] = clock.now() - t0
        rec["scale"] = clock.scale()
        if rec["latencies"]:
            f = clock.scale_between(rec["latencies"][0][0], sum(rec["latencies"][-1]))
            rec["latencies"] = [dt * f for _, dt in rec["latencies"]]
        records.append(rec)
        if time.perf_counter() > clock.deadline:
            break
        if ans is not None:
            try:
                results = w.check(inp, ans, ref)
            except Exception:
                traceback.print_exc()
                results = [("check raised", False)]
            for name, ok in results:
                tally.add(name, ok)
        k += 1
        if k >= (2 if trace else 1) and time.perf_counter() - start + rec["wall"] > seconds:
            break
    return records, tracer


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED check: {name}", file=sys.stderr)


def end_to_end(setups, records):
    return {"setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall"] * r["scale"] for r in records if not r["traced"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def query_latency(records):
    """(p50, p90, count) of single order_of calls in ms, taken per pass and
    the median over passes.  Per-layer metrics, not end-to-end ones: on
    identity_sweep, whose queries take about 0.1 ms, they spread 21% from
    run to run on a shared 2-vCPU host, too much for a regression bound."""
    lats = [r["latencies"] for r in records if not r["traced"] and len(r["latencies"]) >= 2]
    if not lats:
        return None
    deciles = [statistics.quantiles([x * 1e3 for x in lat], n=10) for lat in lats]
    return (statistics.median(q[4] for q in deciles), statistics.median(q[8] for q in deciles),
            sum(map(len, lats)))


def per_layer(tracer, records):
    from spans import by_degree, layer_counts, layer_seconds

    scale = {k: r["scale"] for k, r in enumerate(records)}
    # no traced pass when the budget ran out in the first one (correct is false)
    runs = sorted({s["run"] for s in tracer.spans}) or [None]
    per_run = [{name: secs * scale.get(r, 1.0) for name, secs in layer_seconds(tracer.spans, r).items()}
               for r in runs]
    out = {f"{name}.s": statistics.median(secs.get(name, 0.0) for secs in per_run)
           for name in LAYER_TIMES}
    counts = layer_counts(tracer.spans, runs[-1])
    for metric, key in LAYER_COUNTS.items():
        out[metric] = counts.get(key, 0)
    out["intlinalg.order_of.p50_ms"], out["intlinalg.order_of.p90_ms"], _ = \
        query_latency(records) or (0.0, 0.0, 0)
    rows = counts.get(("intlinalg.snf", "rows"), 0)
    out["intlinalg.snf.useful_ratio"] = counts.get(("intlinalg.snf", "rank"), 0) / rows if rows else 0.0
    walls = {t: [r["wall"] * r["scale"] for r in records if r["traced"] == t] for t in (False, True)}
    out["trace.overhead_s"] = (statistics.median(walls[True]) - statistics.median(walls[False])
                               if all(walls.values()) else 0.0)
    return out, {"per_run_self_s": dict(zip(runs, per_run)),
                 "by_degree_self_s": by_degree(tracer.spans)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "small"), default="full",
                    help="small: reduced degrees, for the benchmark's own tests")
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print 'ready <digest>' and exit")
    args = ap.parse_args(argv)
    clock = SpeedClock(time.perf_counter() + BUDGET_S)

    load_preproj()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    spec, inp = w.make_inputs(args.seed, args.scale)
    inp["spec"] = spec
    digest = hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:16]
    if args.setup_only:
        print("ready", digest, flush=True)
        return 0
    print(f"inputs: workload={args.workload} seed={args.seed} scale={args.scale} digest={digest}")

    tally = Tally()
    setups = []
    for _ in range(SETUP_SPAWNS):
        mark = len(clock.probes)
        clock.probe()
        secs, same = time_setup(args, digest)
        clock.probe()
        setups.append(secs * clock.scale(since=mark))
        tally.add("set-up child reproduces the input digest", same)
    records, tracer = measure(w, inp, args.seconds, args.trace == 1, clock, tally)

    if args.trace:
        metrics, detail = per_layer(tracer, records)
        units = PER_LAYER
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "digest": digest,
                       "passes": [{k: r[k] for k in ("traced", "wall", "scale")} for r in records],
                       "metrics": metrics, **detail, "spans": tracer.spans}, f)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = end_to_end(setups, records)
        units = END_TO_END
    walls = [r["wall"] for r in records if not r["traced"]]
    print(f"passes: {len(walls)} untraced, {len(records) - len(walls)} traced; "
          f"set-up spawns: {len(setups)}")
    print(f"untraced pass wall time as measured: median {statistics.median(walls):.4g} s, "
          f"range {min(walls):.4g}-{max(walls):.4g} s; speed factor to the reference: "
          f"median {statistics.median(r['scale'] for r in records):.4g}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    q = query_latency(records)
    if q:
        print(f"{'order_of latency':32s} p50 {q[0]:.4g} ms, p90 {q[1]:.4g} ms ({q[2]} calls)")
    print(f"{'error_rate':32s} {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} checks failed)")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
