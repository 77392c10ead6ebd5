"""Wall time of the README's CLI commands, each a fresh process, on this checkout and another.

    python3 tools/cli_walltime.py --parent DIR

DIR is another checkout of the repository, e.g. the parent commit made with
`git clone` or `git archive <rev> | tar -x -C DIR`.  Each command of the
README's CLI examples, plus `verify` on verify_all.json, runs as
`python -m cnoidal_kdv.cli ...` with that checkout's `src/` alone on
PYTHONPATH, BLAS and OpenMP pinned to one thread, PYTHONDONTWRITEBYTECODE=1
and a fresh, empty PYTHONPYCACHEPREFIX, so each run compiles its side's
sources whatever bytecode caches the checkouts or the shell's setting hold,
as in tools/bench_pairs.py; the first printed line says so.  Both sides read
this checkout's demo configs, and `eval` writes to stdout rather than to
--out, so every command's output can be compared.  Each command runs PAIRS
times on each side, and the side that goes first alternates from pair to
pair.  Per command it prints each side's median [quartiles] wall time in
seconds, the number of pairs in which this checkout was faster, and whether
stdout and the exit code were identical on every run.  Nothing of the
benchmark is imported.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "demos" / "configs"
COMMANDS = [
    ("eval", "bright_eval.json"),
    ("verify", "pde_check.json"),
    ("verify", "montecarlo.json"),
    ("dynamics", "dynamics_shifts.json"),
    ("gas", "gas_hot.json", "--double-nodes"),
    ("verify", "verify_all.json"),
]
PAIRS = 10
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_once(checkout: Path, command: tuple) -> tuple[float, int, bytes]:
    """(seconds, exit code, stdout) of one CLI process on checkout's src/."""
    cmd = [sys.executable, "-m", "cnoidal_kdv.cli", command[0],
           "--config", str(CONFIGS / command[1]), *command[2:]]
    with tempfile.TemporaryDirectory(prefix="cli-walltime-") as cache:
        env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPYCACHEPREFIX=cache, **{name: "1" for name in PINNED})
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True)
        seconds = time.perf_counter() - start
    return seconds, proc.returncode, proc.stdout


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path)
    args = ap.parse_args()
    sides = {"change": ROOT, "parent": args.parent.resolve()}
    print("# each run: PYTHONDONTWRITEBYTECODE=1, a fresh empty PYTHONPYCACHEPREFIX, "
          f"{', '.join(PINNED)}=1")
    print(f"{'command':<36} {'parent_s [q1, q3]':>22} {'change_s [q1, q3]':>22} "
          f"{'ratio':>6} {'wins':>5}  identical")
    for command in COMMANDS:
        times = {side: [] for side in sides}
        outputs = {side: set() for side in sides}
        for k in range(PAIRS):
            for side in (("change", "parent") if k % 2 == 0 else ("parent", "change")):
                seconds, code, out = run_once(sides[side], command)
                times[side].append(seconds)
                outputs[side].add((code, out))
        (p1, parent_s, p3), (c1, change_s, c3) = (
            statistics.quantiles(times[side], n=4, method="inclusive")
            for side in ("parent", "change"))
        wins = sum(c < p for c, p in zip(times["change"], times["parent"]))
        identical = len(outputs["parent"] | outputs["change"]) == 1
        print(f"{' '.join(command):<36} {parent_s:7.3f} [{p1:.3f}, {p3:.3f}] "
              f"{change_s:7.3f} [{c1:.3f}, {c3:.3f}] {change_s / parent_s:6.3f} "
              f"{wins:>2}/{PAIRS}  {identical}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
