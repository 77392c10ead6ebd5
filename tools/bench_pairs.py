"""Alternating before/after pairs of the benchmark on this checkout and another one.

    python3 tools/bench_pairs.py --parent DIR --workload W [W ...]
                                 --seeds S [S ...] [--seconds 20] [--out BENCH.json]

DIR is another checkout of the repository, e.g. the parent commit made with
`git clone` or `git archive <rev> | tar -x -C DIR`.  For each workload and
seed, `perfbench/run.py --workload W --seed S --seconds T` runs once for each
checkout, one after the other, as a subprocess with BLAS and OpenMP pinned to
one thread; the side that goes first alternates from pair to pair, so a drift
in the host's speed does not favour either side.  Each run starts from a fresh
copy of the files run.py reads (its checkout's `src/` and `perfbench/`, without
bytecode caches) in a new temporary directory, so neither side runs from the
working tree and both run from paths of the same length.  Each run has
PYTHONDONTWRITEBYTECODE=1 and a fresh, empty PYTHONPYCACHEPREFIX, so neither
side reads a bytecode cache that its checkout happens to hold: both compile
their sources at import, and setup_s compares like with like.  Nothing of the
benchmark is imported.

For each gated metric of BENCHMARK.json (its `end_to_end` list) it prints
each side's median and quartiles over the pairs, the number of pairs this
checkout wins (better in the metric's direction), and this checkout's median
worsening (the relative change of the medians, counted positive in the
metric's bad direction) and whether it lies within or beyond the metric's
`bound`.  For each side it prints correctness and the failed share of ops
(failed / attempted), and flags a larger share on this checkout.  For each op
class (an op's label without its trailing member number) it prints each side's
median op time, taken over the per-op medians (`op_median_ms` of run.py's
diagnostics line) of every run, and their ratio, so a report shows where a
change in throughput lands.  The pairs, medians, quartiles, per-class times,
seeds, host, bytecode setting and copy setting go to the JSON file named by --out.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BYTECODE = "PYTHONDONTWRITEBYTECODE=1 and a fresh empty PYTHONPYCACHEPREFIX per run"
COPIED = ("src", "perfbench")           # what run.py reads of a checkout
CHECKOUT = "src/ and perfbench/ of each side copied into a fresh temporary directory per run"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from a fresh copy of checkout: its result object plus the run's
    environment and op times."""
    with tempfile.TemporaryDirectory(prefix="bench-run-") as tmp:
        copy, cache = Path(tmp) / "checkout", Path(tmp) / "pycache"
        for name in COPIED:
            shutil.copytree(checkout / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, str(copy / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=str(cache),
                   **{name: "1" for name in PINNED})
        proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"run.py failed in {checkout} ({workload}, seed {seed}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    diagnostics = json.loads(lines[-2])["diagnostics"]
    result["environment"] = diagnostics["environment"]      # the host
    result["op_median_ms"] = diagnostics["op_median_ms"]
    return result


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def git_revision(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    dirty = subprocess.run(["git", "-C", str(checkout), "status", "--porcelain"],
                           capture_output=True, text=True).stdout.strip()
    return proc.stdout.strip() + ("+uncommitted" if dirty else "")


def measure(parent: Path, workload: str, seeds: list[int], seconds: float, gated: list) -> dict:
    pairs = []
    for k, seed in enumerate(seeds):
        order = ("change", "parent") if k % 2 == 0 else ("parent", "change")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            res = run_once(ROOT if side == "change" else parent, workload, seed, seconds)
            pair[side] = {"correct": res["correct"], "attempted": res["attempted"],
                          "failed": res["failed"], "op_median_ms": res["op_median_ms"],
                          **{m["name"]: res["metrics"][m["name"]]["value"] for m in gated}}
            environment = res["environment"]
        pairs.append(pair)
        print(f"{workload} seed {seed}: " + "  ".join(
            f"{m['name']} {pair['parent'][m['name']]:.4g} -> {pair['change'][m['name']]:.4g}"
            for m in gated), flush=True)
    summary = {}
    for m in gated:
        name, higher = m["name"], m["better"] == "higher"
        sides = {side: [p[side][name] for p in pairs] for side in ("change", "parent")}
        wins = sum((c > p) if higher else (c < p) for c, p in zip(sides["change"], sides["parent"]))
        summary[name] = {"better": m["better"], "bound": m["bound"], "wins": wins,
                         "pairs": len(pairs),
                         **{side: spread(v) for side, v in sides.items()}}
        ratio = summary[name]["change"]["median"] / summary[name]["parent"]["median"]
        summary[name]["median_ratio"] = ratio
        summary[name]["worsening"] = 1.0 - ratio if higher else ratio - 1.0
    by_class = {}
    for p in pairs:
        for side in ("change", "parent"):
            for label, ms in p[side]["op_median_ms"].items():
                by_class.setdefault(label.rsplit("-", 1)[0], {"change": [], "parent": []})[side].append(ms)
    classes = {}
    for cls, sides in sorted(by_class.items()):
        med = {side: statistics.median(v) for side, v in sides.items() if v}
        if len(med) == 2:
            classes[cls] = {"parent_ms": med["parent"], "change_ms": med["change"],
                            "ratio": med["change"] / med["parent"], "samples": len(sides["change"])}
    checks = {side: {"all_correct": all(p[side]["correct"] for p in pairs),
                     "failed": sum(p[side]["failed"] for p in pairs),
                     "attempted": sum(p[side]["attempted"] for p in pairs)}
              for side in ("change", "parent")}
    return {"seeds": seeds, "pairs": pairs, "summary": summary, "op_classes": classes,
            "checks": checks, "environment": environment}


def report(workload: str, result: dict) -> None:
    print(f"\n{workload}: {len(result['pairs'])} pairs")
    for name, s in result["summary"].items():
        c, p = s["change"], s["parent"]
        print(f"  {name:14s} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]  "
              f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  "
              f"x{s['median_ratio']:.3f}  wins {s['wins']}/{s['pairs']} ({s['better']} is better)")
        verdict = "within" if s["worsening"] <= s["bound"] else "BEYOND"
        print(f"  {'':14s} median worsening {s['worsening']:+.3f}, {verdict} its bound "
              f"{s['bound']}")
    print(f"  {'op class':22s} {'parent ms':>10s} {'change ms':>10s}  ratio")
    for cls, c in result["op_classes"].items():
        print(f"  {cls:22s} {c['parent_ms']:10.3f} {c['change_ms']:10.3f}  x{c['ratio']:.3f}")
    share = {side: c["failed"] / c["attempted"] if c["attempted"] else 0.0
             for side, c in result["checks"].items()}
    for side, c in result["checks"].items():
        print(f"  {side}: all correct {c['all_correct']}, failed {c['failed']} of "
              f"{c['attempted']} ({share[side]:.2%})")
    if share["change"] > share["parent"]:
        print("  the change fails a LARGER share of ops than the parent")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--workload", required=True, nargs="+")
    ap.add_argument("--seeds", required=True, nargs="+", type=int)
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH.json")
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("need at least two seeds for quartiles")
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        ap.error(f"{parent} holds no perfbench/run.py")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    out = {"created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
           "change_revision": git_revision(ROOT), "parent_revision": git_revision(parent),
           "seconds_per_run": seconds, "bytecode": BYTECODE, "checkout": CHECKOUT,
           "host": None, "workloads": {}}
    for workload in args.workload:
        result = measure(parent, workload, args.seeds, seconds, spec["end_to_end"])
        out["host"] = result.pop("environment")
        out["workloads"][workload] = result
        report(workload, result)
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
