"""Compare two checkouts' CLI outputs on every pool member of the benchmark.

    python3 tools/pool_diff.py --parent DIR [--workload W ...]
                               [--require-identical W [W ...]]

DIR is another checkout of the repository, e.g. the parent commit made with
`git archive <rev> | tar -x -C DIR`.  Every member of
`perfbench/reference/<workload>.json` runs through `cnoidal_kdv.cli.main`
in-process, once with the package under this checkout's `src/` and once with
the one under `DIR/src/`, each side in its own interpreter with BLAS pinned to
one thread.  Both sides read the same config files, so paths in messages agree.

For each workload it prints the number of members whose stdout, stderr and
exit code are byte-identical on both sides, and, over the members checked
against a recorded output, the worst margin of `perfbench/checks.py`'s
`check_reference` on this checkout's outputs: the largest |value - recorded|
over the tolerance that check allows, so a margin below 1 passes.  The
members checked against the oracle instead (`field_tau`'s eval members) are
judged as the benchmark judges them (`checks.judge`, which runs
`check_field`): it prints how many pass and
the worst margin |u - oracle| / (U_TOL max(1, |oracle|)) over their sample
points, oracle values the pool does not record being computed once.  Members
that differ or fail a check are listed.  The exit code is 1 if any member
fails `check_reference` or fails the oracle check in a way the benchmark
counts as `unexpected`, or if a member of a workload named by
`--require-identical` differs from the parent in any byte (those workloads
are run even when `--workload` leaves them out), else 0.  Only imports the
benchmark's modules; the work files go to `.perfbench/pool_diff/`.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import harness  # noqa: E402  (pins BLAS threads before numpy loads)
import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402


def pool_ops(workload: str) -> list:
    """Every pool member of a workload as an op, labelled as the benchmark labels it."""
    ops = []
    for cls, members in workloads.load_pool(workload).items():
        for j, m in enumerate(members):
            ops.append(workloads.Op(
                label=f"{cls}-{j}", command=m["command"], cfg=m["cfg"],
                args=list(m.get("args", [])), check=m.get("check", "reference"),
                ref_code=m["code"], ref_out=m.get("out"),
                samples=m.get("samples", []), defect=m.get("defect")))
    return ops


def dump(root: Path, config_dir: Path, names: list[str], out_path: Path) -> None:
    """Run every pool op with the package of root; write {workload: {label: result}}."""
    harness.check_thread_pins()
    harness.import_package(root)
    runner = harness.Runner(config_dir)
    results = {}
    for name in names:
        results[name] = {}
        for op in pool_ops(name):
            res = runner.run(op, str(config_dir / f"{name}-{op.label}.json"))
            results[name][op.label] = [res.code, res.out, res.err, res.exc]
    out_path.write_text(json.dumps(results))


def _ratio(a, b, atol: float) -> float:
    if isinstance(a, (bool, str)) or isinstance(b, (bool, str)) or (
            isinstance(b, float) and math.isinf(b)):
        return 0.0 if a == b else math.inf
    return abs(a - b) / (atol + checks.RTOL * abs(b))


def reference_margin(op, code, out: str) -> tuple[float, str]:
    """(largest |value - recorded| / tolerance, its cell) over the cells check_reference compares."""
    if code != op.ref_code:
        return math.inf, "exit code"
    try:
        cols, rows, footer = checks.parse_csv(out)
        _, rrows, rfooter = checks.parse_csv(op.ref_out)
    except ValueError:          # no table on either side: an error message
        return (0.0 if out == op.ref_out else math.inf), "output"
    if len(rows) != len(rrows) or set(footer) != set(rfooter):
        return math.inf, "shape"
    cells = []
    for j, name in enumerate(cols):
        atol = checks._scale(r[j] for r in rrows)
        cells += [(_ratio(row[j], ref[j], atol), f"row {i} {name}")
                  for i, (row, ref) in enumerate(zip(rows, rrows))]
    cells += [(_ratio(footer[key], ref, checks._scale([ref])), key)
              for key, ref in rfooter.items()]
    return max(cells, default=(0.0, "-"), key=lambda c: c[0])


def oracle_margin(op, code, out: str, err: str) -> float:
    """Largest |u - oracle| / (U_TOL max(1, |oracle|)) over the sample points of an eval op.

    inf if the op gave no finite u.  Oracle values at points the pool does not
    record are computed here and added to op.samples, where check_field finds
    them.
    """
    failure, points = checks.read_field(op, code, out, err)
    if failure:
        return math.inf
    known = {(x, t): u for x, t, u in op.samples}
    missing = [(x, t) for x, t, _ in points if (x, t) not in known]
    if missing:
        values = oracle.reference_u(op.cfg, missing)
        known.update(zip(missing, values))
        op.samples = op.samples + [[x, t, v] for (x, t), v in zip(missing, values)]
    return max(abs(u - known[(x, t)]) / (checks.U_TOL * max(1.0, abs(known[(x, t)])))
               for x, t, u in points)


def compare(name: str, mine: dict, theirs: dict) -> tuple[list[str], list[str], int, bool]:
    """(summary lines, per-member notes, number of check failures, all identical) of one workload."""
    ops = pool_ops(name)
    identical = sum(mine[op.label] == theirs[op.label] for op in ops)
    notes, failures = [], 0
    worst, worst_where, checked = 0.0, "-", 0
    judged, passed, oracle_worst, oracle_where = 0, 0, 0.0, "-"
    for op in ops:
        code, out, err, exc = mine[op.label]
        if mine[op.label] != theirs[op.label]:
            notes.append(f"  {name} {op.label}: output differs from the parent")
        if op.check != "reference":
            judged += 1
            margin = oracle_margin(op, code, out, err)
            if margin > oracle_worst or oracle_where == "-":
                oracle_worst, oracle_where = margin, op.label
            verdict = ("unexpected", exc) if exc else checks.judge(op, code, out, err)
            if verdict is None:
                passed += 1
                continue
            failures += verdict[0] == "unexpected"
            notes.append(f"  {name} {op.label}: oracle check fails ({verdict[0]}): {verdict[1]}")
            continue
        checked += 1
        reason = exc or checks.check_reference(op, code, out)
        if reason:
            failures += 1
            notes.append(f"  {name} {op.label}: check_reference fails: {reason}")
        margin, cell = reference_margin(op, code, out)
        if margin > worst or worst_where == "-":
            worst, worst_where = margin, f"{op.label}: {cell}"
    lines = [f"{name:<11} {len(ops):>7} {identical:>9} {checked:>7} {failures:>8} "
             f"{worst:>12.3g} ({worst_where})"]
    if judged:
        lines.append(f"{name:<11} oracle: {passed}/{judged} pass, worst margin "
                     f"{oracle_worst:.3g} ({oracle_where})")
    return lines, notes, failures, identical == len(ops)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="the checkout to compare against")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--require-identical", nargs="+", default=[], metavar="W",
                        choices=workloads.WORKLOADS,
                        help="exit 1 unless every member of these workloads is "
                             "byte-identical to the parent")
    parser.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--configs", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    names = args.workload or list(workloads.WORKLOADS)
    names += [n for n in args.require_identical if n not in names]
    if args.dump:
        dump(args.dump, args.configs, names, args.out)
        return 0
    if args.parent is None or not (args.parent / "src" / "cnoidal_kdv").is_dir():
        parser.error("--parent must be a checkout with src/cnoidal_kdv")

    work = harness.work_dir(ROOT, "pool_diff")
    runner = harness.Runner(work)
    for name in names:
        for op in pool_ops(name):
            runner.write_config(op, f"{name}-{op.label}")
    outputs = []
    for side, root in (("change", ROOT), ("parent", args.parent.resolve())):
        out_path = work / f"{side}.json"
        subprocess.run([sys.executable, __file__, "--dump", str(root), "--configs", str(work),
                        "--out", str(out_path), *sum((["--workload", n] for n in names), [])],
                       check=True)
        outputs.append(json.loads(out_path.read_text()))

    print(f"{'workload':<11} {'members':>7} {'identical':>9} {'checked':>7} {'failures':>8} "
          f"{'worst_margin':>12} (member: cell)")
    all_notes, total_failures, moved = [], 0, []
    for name in names:
        lines, notes, failures, identical = compare(name, outputs[0][name], outputs[1][name])
        print("\n".join(lines))
        all_notes += notes
        total_failures += failures
        if name in args.require_identical and not identical:
            moved.append(name)
    for note in all_notes:
        print(note)
    if moved:
        print(f"not byte-identical to the parent: {', '.join(moved)}")
    return 1 if total_failures or moved else 0


if __name__ == "__main__":
    sys.exit(main())
