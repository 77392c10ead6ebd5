"""Benchmark of the cnoidal-kdv CLI: four workloads, closed loop, one client.

    python3 perfbench/run.py --workload field_tau --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`.  The loop drives `cnoidal_kdv.cli.main([...])` in-process:
each op starts when the previous one returns.  The op list of a workload is a
cycle built from `--seed` (`workloads.py`); one warm-up op runs first, then
whole cycles repeat until `--seconds` have passed.  BLAS and OpenMP run one
thread.  After the timed pass every op's output is checked (`checks.py`).

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
from a second pass with spans around the package's public functions
(`tracing.py`), after an untraced pass of the same length that gives the
tracing overhead.  The last line of stdout is the result object with the
gated metrics; the line before it carries diagnostics: all six end-to-end
metrics with units (op_p50_ms, op_tail_ms and fail_frac are reported, not
gated), the tail percentile and its sample count, each failure with its reason, and the
environment.  Working files go to `.perfbench/` in the checkout.

Every failed op counts in `failed`.  `correct` is false if any failure is
`unexpected` (`checks.py`): only a failure that the recording commit already
showed on the same config (the known tau defects, verifications that did
not pass) leaves it true, so those show in fail_frac and ok_ops_per_s while
any new wrong output fails the run.

A second seed for checking a claimed gain on inputs not used while writing
the change: 7919.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402  (pins BLAS threads before numpy loads)
import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER, Tracer, layer_metrics  # noqa: E402

# setup_s is the median of this many fresh imports; one import varies by
# 20-30% on a shared 2-core host
SETUP_REPEATS = 9
CLAIM_SEED = 7919
# end-to-end metrics gated by BENCHMARK.json.  op_p50_ms, op_tail_ms and
# fail_frac go with the diagnostics: on a shared 2-core host the latency
# quantiles of ten seeded runs spread by 10-20% of their median (the host's
# speed drifts between runs), and fail_frac is 0 on gas_ndr and tracker.
GATED = ("setup_s", "ok_ops_per_s", "peak_rss_mb")


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 samples above its rank."""
    return math.floor(100 * (n - 10) / n) if n > 10 else 0


def nearest_rank(sorted_values, p: int) -> float:
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


class Pass:
    """Whole cycles of the op list until `seconds` have passed."""

    def __init__(self, runner, ops, paths, seconds, tracer=None):
        self.execs = []            # (op index, seconds, output digest)
        self.outputs = {}          # (op index, digest) -> Result
        self.cycles = []           # span index range of each cycle
        self.labels = [op.label for op in ops]
        spans = tracer.spans if tracer else []
        t0 = time.perf_counter()
        while True:
            lo = len(spans)
            for i, op in enumerate(ops):
                res = runner.run(op, paths[i])
                d = harness.digest(f"{res.code}\0{res.exc}\0{res.out}\0{res.err}")
                self.outputs.setdefault((i, d), res)
                self.execs.append((i, res.seconds, d))
            self.cycles.append((lo, len(spans)))
            if time.perf_counter() - t0 >= seconds:
                break
        self.elapsed = time.perf_counter() - t0


def verdicts(ops, outputs) -> dict:
    """(op index, digest) -> None or (kind, reason), for each distinct output."""
    out = {}
    for (i, d), res in sorted(outputs.items()):
        if res.exc is not None:
            out[(i, d)] = ("unexpected", res.exc)
            continue
        try:
            out[(i, d)] = checks.judge(ops[i], res.code, res.out, res.err)
        except (ValueError, IndexError, TypeError, ArithmeticError) as exc:
            out[(i, d)] = ("unexpected", f"check failed: {type(exc).__name__}: {exc}")
    return out


def tally(execs, ops, judged) -> dict:
    """label -> {kind, reason, count} over the failed executions."""
    failures = {}
    for i, _, d in execs:
        v = judged[(i, d)]
        if v is not None:
            failures.setdefault(ops[i].label, {"kind": v[0], "reason": v[1], "count": 0})
            failures[ops[i].label]["count"] += 1
    return failures


def is_correct(failures: dict) -> bool:
    return all(v["kind"] == "known" for v in failures.values())


def end_to_end(run: Pass, judged: dict, setup: list[float], rss_mb: float) -> tuple[dict, dict]:
    lat = sorted(s for _, s, _ in run.execs)
    n = len(lat)
    ok = sum(1 for i, _, d in run.execs if judged[(i, d)] is None)
    p = tail_percentile(n)
    values = {
        "setup_s": (statistics.median(setup), "s"),
        "ok_ops_per_s": (ok / run.elapsed, "ops/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (nearest_rank(lat, p) * 1e3, "ms"),
        "fail_frac": ((n - ok) / n, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    by_op = {}
    for i, sec, _ in run.execs:
        by_op.setdefault(i, []).append(sec * 1e3)
    diag = {"all_end_to_end": metrics, "tail_percentile": p, "samples": n,
            "setup_runs_s": setup,
            "op_median_ms": {run.labels[i]: statistics.median(v) for i, v in sorted(by_op.items())}}
    return {k: metrics[k] for k in GATED}, diag


def per_layer(tracer: Tracer, run: Pass, untraced: Pass, judged: dict) -> tuple[dict, dict]:
    per_cycle = [layer_metrics(tracer.spans, lo, hi) for lo, hi in run.cycles]
    first, bases = per_cycle[0]
    values = {}
    for key in first:
        series = [m[key] for m, _ in per_cycle]
        values[key] = statistics.median(series) if PER_LAYER[key][0] == "s" else first[key]
    counts_repeat = all(m[k] == first[k] for m, _ in per_cycle for k in first
                        if PER_LAYER[k][0] != "s")

    def rate(p: Pass) -> float:
        return sum(1 for i, _, d in p.execs if judged[(i, d)] is None) / p.elapsed

    base_rate, traced_rate = rate(untraced), rate(run)
    values["trace.overhead_frac"] = 1.0 - traced_rate / base_rate if base_rate else 0.0
    metrics = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in values.items()}
    diag = {"bases": bases, "counts_repeat_across_cycles": counts_repeat,
            "traced_cycles": len(run.cycles),
            "ok_ops_per_s_untraced": base_rate, "ok_ops_per_s_traced": traced_rate}
    return metrics, diag


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        harness.import_package(ROOT)
        env = harness.environment(harness.check_thread_pins())
    except harness.BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    ops = workloads.build_ops(args.workload, args.seed)
    runner = harness.Runner(harness.work_dir(ROOT, f"{args.workload}-{args.seed}"))
    paths = [runner.write_config(op, f"{i:02d}") for i, op in enumerate(ops)]
    setup = [] if args.trace else harness.setup_seconds(ROOT, SETUP_REPEATS)
    runner.run(ops[0], paths[0])                         # warm-up, untimed

    tracer = None
    if args.trace:
        untraced = Pass(runner, ops, paths, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            run = Pass(runner, ops, paths, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        passes = [untraced, run]
    else:
        run = Pass(runner, ops, paths, args.seconds)
        passes = [run]

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # before the checks
    outputs = {k: v for p in passes for k, v in p.outputs.items()}
    judged = verdicts(ops, outputs)
    if args.trace:
        metrics, diag = per_layer(tracer, run, untraced, judged)
        tracer.write(harness.work_dir(ROOT, "spans") / f"{args.workload}-{args.seed}.tsv")
    else:
        metrics, diag = end_to_end(run, judged, setup, rss_mb)

    execs = [e for p in passes for e in p.execs]
    failures = tally(execs, ops, judged)
    diag.update({"workload": args.workload, "seed": args.seed, "claim_seed": CLAIM_SEED,
                 "ops_per_cycle": len(ops), "cycles": len(run.cycles),
                 "elapsed_s": run.elapsed, "failures": failures, "environment": env})
    with open(harness.work_dir(ROOT, "latencies") / f"{args.workload}-{args.seed}.json", "w") as fh:
        json.dump([[ops[i].label, sec] for i, sec, _ in run.execs], fh)
    print(json.dumps({"diagnostics": diag}))
    print(json.dumps({"correct": is_correct(failures), "attempted": len(execs),
                      "failed": sum(v["count"] for v in failures.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
