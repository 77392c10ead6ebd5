"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layer_metrics, self_times  # noqa: E402

harness.import_package(HERE.parent)


def _corrupt(text: str) -> str:
    """Scale the first real number after the first two columns of row one by 1.001."""
    lines = text.splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    cells = lines[k].rstrip("\n").split(",")
    for j in range(2, len(cells)):
        try:
            cells[j] = repr(float(cells[j]) * 1.001 + 1e-3)
            break
        except ValueError:
            continue
    lines[k] = ",".join(cells) + "\n"
    return "".join(lines)


def test_configs_are_deterministic_per_seed():
    for w in workloads.WORKLOADS:
        a = workloads.build_ops(w, 5)
        b = workloads.build_ops(w, 5)
        assert [(o.label, o.command, o.cfg, o.args) for o in a] == \
               [(o.label, o.command, o.cfg, o.args) for o in b]
        c = workloads.build_ops(w, 6)
        assert [(o.label, o.cfg) for o in a] != [(o.label, o.cfg) for o in c]
        counts, failing = {}, []
        for ops in (a, c):
            counts = {}
            for op in ops:
                cls = op.label.rsplit("-", 1)[0]
                counts[cls] = counts.get(cls, 0) + 1
            assert counts == dict(workloads.CYCLES[w])
            failing.append(sum(1 for op in ops if op.ref_code != 0 or op.defect))
        assert failing[0] == failing[1]


def test_recorded_output_passes_and_corrupted_output_fails(tmp_path):
    for w in workloads.CYCLES:
        op = next(o for o in workloads.build_ops(w, 3) if o.check == "reference" and o.ref_out)
        assert checks.check_reference(op, op.ref_code, op.ref_out) is None
        assert checks.check_reference(op, op.ref_code, _corrupt(op.ref_out)) is not None
        assert checks.check_reference(op, 3, op.ref_out) is not None


def _judge(tmp_path, monkeypatch, ops, corrupt=()):
    """Failures of one pass over ops, the outputs of the ops in corrupt corrupted."""
    runner = harness.Runner(tmp_path)
    paths = [runner.write_config(op, f"{i}") for i, op in enumerate(ops)]
    real_run = harness.Runner.run

    def corrupting(self, op, path):
        res = real_run(self, op, path)
        if any(op is c for c in corrupt):
            res.out = _corrupt(res.out)
        return res

    monkeypatch.setattr(harness.Runner, "run", corrupting)
    one = run.Pass(runner, ops, paths, 0.0)
    return run.tally(one.execs, ops, run.verdicts(ops, one.outputs))


def test_corrupted_output_is_counted_as_failed(tmp_path, monkeypatch):
    ops = [op for op in workloads.build_ops("tracker", 2) if op.label.startswith("velocity")][:2]
    ops += [op for op in workloads.build_ops("field_tau", 2) if "N1-hot" in op.label][:1]
    assert ops[2].check == "oracle" and ops[2].defect is None
    failures = _judge(tmp_path, monkeypatch, ops, corrupt=ops[1:])
    assert set(failures) == {ops[1].label, ops[2].label}
    assert failures[ops[1].label]["kind"] == "unexpected"
    assert failures[ops[2].label]["kind"] == "unexpected"
    assert sum(v["count"] for v in failures.values()) == 2
    assert not run.is_correct(failures)
    assert not run.is_correct(_judge(tmp_path, monkeypatch, ops[2:], corrupt=ops[2:]))


def test_recorded_defects_count_as_failed_but_known(tmp_path, monkeypatch):
    pool = workloads.load_pool("field_tau")
    picks = [("eval-N8-hot", next(j for j, m in enumerate(pool["eval-N8-hot"]) if m["defect"])),
             ("eval-N12-hot", next(j for j, m in enumerate(pool["eval-N12-hot"]) if m["code"] == 3)),
             ("pde-N4-mixed", next(j for j, m in enumerate(pool["pde-N4-mixed"]) if m["code"] == 4))]
    ops = []
    for cls, j in picks:
        m = pool[cls][j]
        ops.append(workloads.Op(label=f"{cls}-{j}", command=m["command"], cfg=m["cfg"],
                                check=m.get("check", "reference"), ref_code=m["code"],
                                ref_out=m.get("out"), samples=m.get("samples", []),
                                defect=m.get("defect")))
    failures = _judge(tmp_path, monkeypatch, ops)
    assert set(failures) == {op.label for op in ops}
    assert {v["kind"] for v in failures.values()} == {"known"}
    assert run.is_correct(failures)


def test_span_self_times_add_up_to_op_wall_time(tmp_path):
    op = [o for o in workloads.build_ops("tracker", 4) if o.label.startswith("velocity")][0]
    runner = harness.Runner(tmp_path)
    path = runner.write_config(op, "op")
    untraced = min(runner.run(op, path).seconds for _ in range(3))
    tracer = Tracer()
    tracer.install()
    try:
        walls = []
        for _ in range(3):
            lo = len(tracer.spans)
            res = runner.run(op, path)
            walls.append((res.seconds, lo, len(tracer.spans)))
    finally:
        tracer.uninstall()
    wall, lo, hi = min(walls)
    assert tracer.spans[lo][:2] == ["cli", "main"]
    total_self = sum(self_times(tracer.spans, lo, hi))
    root = tracer.spans[lo][4] - tracer.spans[lo][3]
    assert abs(total_self - root) < 1e-9
    overhead = max(wall - untraced, 0.0) + 1e-3
    assert 0.0 <= wall - total_self <= overhead


def test_traced_counts_repeat_and_names_are_rebound(tmp_path):
    ops = [o for o in workloads.build_ops("gas_ndr", 1) if o.label.startswith("hot64-")][:1]
    ops += [o for o in workloads.build_ops("tracker", 1) if o.label.startswith("track32")]
    runner = harness.Runner(tmp_path)
    paths = [runner.write_config(op, f"{i}") for i, op in enumerate(ops)]
    tracer = Tracer()
    tracer.install()
    try:
        from cnoidal_kdv import gas, tau
        assert gas.theta1 is sys.modules["cnoidal_kdv.elliptic"].theta1
        assert hasattr(tau.theta3, "__wrapped__") and hasattr(gas.theta1, "__wrapped__")
        first = run.Pass(runner, ops, paths, 0.0, tracer)
        second = run.Pass(runner, ops, paths, 0.0, tracer)
    finally:
        tracer.uninstall()
    assert not hasattr(sys.modules["cnoidal_kdv.tau"].theta3, "__wrapped__")
    a, _ = layer_metrics(tracer.spans, *first.cycles[0])
    b, _ = layer_metrics(tracer.spans, *second.cycles[0])
    counts = [k for k in a if not k.endswith("self_s")]
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["gas.kernel_builds_per_solve"] == 2.0
    assert a["dynamics.track_phase.calls"] == 32
    assert a["elliptic.theta.scalar_calls"] > 0 and a["elliptic.weierstrass.calls"] > 0


def test_tail_percentile_leaves_ten_samples_beyond():
    def beyond(n, p):
        return n - max(1, -(-p * n // 100))

    for n in (11, 20, 57, 100, 1000):
        p = run.tail_percentile(n)
        assert beyond(n, p) >= 10
        assert p == 99 or beyond(n, p + 1) < 10
