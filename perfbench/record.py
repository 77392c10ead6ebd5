"""Record the config pools and reference outputs of the pool workloads.

    python3 perfbench/record.py [field_tau mc_riemann gas_ndr tracker]

Writes `perfbench/reference/<workload>.json`: for each op class, a list of
configs with what the package at the recording commit did on them.  Every
draw is kept, whatever its exit code: ops record their exit code and output;
`field_tau` eval ops record instead the high-precision oracle's u at their
sample points and, if the package's u failed there, that failure as a known
defect.  The pools come from a fixed master seed, so recording twice gives
the same configs.  Rerun only to re-baseline the benchmark, never to make a
changed program pass.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402  (pins BLAS threads before numpy loads)
import checks  # noqa: E402
import oracle  # noqa: E402
from workloads import CURVE, CYCLES, FIELD_SLOTS, REFERENCE_DIR, Op, field_class  # noqa: E402

MASTER_SEED = 20221003
SPARE = 4          # pool members per class beyond the ops a cycle takes


def _soliton(rng: random.Random, cool: bool, by_b: bool) -> dict:
    """A seeded soliton, beta in (0.05, 0.45), x-shift in [-5, 5].

    Solitons given by the physical point b are drawn in b on the hot
    (b < e3) or cool (e2 < b < e1) part of the spectrum.
    """
    shift = round(rng.uniform(-5.0, 5.0), 6)
    if by_b:
        b = rng.uniform(1.1, 1.9) if cool else rng.uniform(-9.0, -3.3)
        return {"b": round(b, 6), "x_shift": shift}
    return {"beta": round(rng.uniform(0.05, 0.45), 6),
            "kind": "cool" if cool else "hot", "x_shift": shift}


def _field_class(slot, rng):
    command, n, n_cool, n_b, nx, nt = slot[:6]
    sols = [_soliton(rng, k < n_cool, k < n_b) for k in range(n)]
    if command == "eval":
        grid = {"xmin": -20.0, "xmax": 20.0, "nx": nx, "tmin": 0.0, "tmax": 0.5, "nt": nt}
        return "eval", {"curve": CURVE, "solitons": sols, "grid": grid}, []
    grid = {"xmin": -10.0, "xmax": 10.0, "nx": nx, "tmin": -0.25, "tmax": 0.25, "nt": nt}
    return "verify", {"curve": CURVE, "solitons": sols, "grid": grid,
                      "verify": {"which": "pde"}}, []


def _beta(rng, lo=0.1, hi=0.4):
    return round(rng.uniform(lo, hi), 6)


def _mc_cfg(rng, n, radius, trials, which="montecarlo"):
    sols = [{"beta": _beta(rng), "kind": "cool" if k % 2 else "hot"} for k in range(n)]
    cfg = {"curve": CURVE, "solitons": sols,
           "grid": {"xmin": -5.0, "xmax": 5.0, "nx": 41, "tmin": 0.0, "tmax": 0.0, "nt": 1},
           "radius": radius, "seed": rng.randrange(1, 10**6)}
    if which == "montecarlo":
        cfg["verify"] = {"which": "montecarlo", "epsilons": [1e-2, 1e-3, 1e-4],
                         "trials": trials}
    else:
        cfg["verify"] = {"which": "degeneration", "epsilons": [1e-2, 1e-4, 1e-6]}
    return "verify", cfg, []


def _mc_class(cls, rng):
    if cls == "mc_g4r3":
        return _mc_cfg(rng, 3, 3, 10)
    if cls == "mc_g3r4":
        return _mc_cfg(rng, 2, 4, 10)
    if cls == "mc_g2r6":
        return _mc_cfg(rng, 1, 6, 20)
    if cls == "degeneration":
        n, radius = rng.choice([(1, 6), (2, 5), (2, 4), (3, 3)])
        return _mc_cfg(rng, n, radius, 0, which="degeneration")
    if cls == "fay":
        cfg = {"curve": CURVE, "verify": {"which": "fay", "fay_n": 3, "trials": 20},
               "seed": rng.randrange(1, 10**6)}
        return "verify", cfg, []
    raise KeyError(cls)


def _gas_class(cls, rng):
    hot = {"kind": "hot", "lo": round(rng.uniform(0.1, 0.2), 6),
           "hi": round(rng.uniform(0.3, 0.42), 6)}
    cool = {"kind": "cool", "lo": round(rng.uniform(0.1, 0.2), 6),
            "hi": round(rng.uniform(0.3, 0.42), 6)}
    sigma = round(rng.uniform(0.5, 2.0), 6)
    support, nodes, args = [hot], 64, []
    if cls == "hotcool64":
        support = [hot, cool]
    elif cls == "hot64_double":
        args = ["--double-nodes"]
    elif cls == "hot128":
        nodes = 128
    elif cls != "hot64":
        raise KeyError(cls)
    return "gas", {"curve": CURVE, "gas": {"support": support, "sigma": sigma,
                                           "nodes": nodes}}, args


def _track_period(beta, kind):
    from cnoidal_kdv import dynamics, elliptic

    curve = elliptic.half_periods(CURVE["e1"], CURVE["e2"], CURVE["e3"])
    chi = 1 if kind == "cool" else 0
    point = elliptic.JacobianPoint(beta=beta + chi * curve.tau / 2.0, chi=chi)
    return abs(curve.period_x / dynamics.group_velocity(point, curve))


def _tracker_class(cls, rng, index):
    grid0 = {"xmin": -1.0, "xmax": 1.0, "nx": 2, "tmin": 0.0, "tmax": 0.0, "nt": 1}
    if cls.startswith("track"):
        nt = int(cls[5:])
        kind = "cool" if index % 2 else "hot"
        beta = _beta(rng)
        period = _track_period(beta, kind)
        grid = dict(grid0, tmax=period * (nt - 1) / nt, nt=nt)
        cfg = {"curve": CURVE, "solitons": [{"beta": beta, "kind": kind}], "grid": grid,
               "dynamics": {"mode": "track", "norming": round(rng.uniform(0.5, 2.0), 6)}}
        return "dynamics", cfg, []
    if cls == "velocity":
        # the acceptance points (hot 0.30, cool 0.24) plus a seeded b-soliton
        b = rng.uniform(-9.0, -3.3) if index % 2 else rng.uniform(1.1, 1.9)
        sols = [{"beta": 0.30, "kind": "hot"}, {"beta": 0.24, "kind": "cool"},
                {"b": round(b, 6)}]
        return "dynamics", {"curve": CURVE, "solitons": sols, "grid": grid0,
                            "dynamics": {"mode": "velocity"}}, []
    if cls == "shifts":
        sols = [{"beta": _beta(rng, 0.1, 0.2), "kind": "hot"},
                {"beta": _beta(rng, 0.25, 0.4), "kind": "hot"},
                {"beta": _beta(rng, 0.1, 0.4), "kind": "cool"}]
        return "dynamics", {"curve": CURVE, "solitons": sols, "grid": grid0,
                            "dynamics": {"mode": "shifts"}}, []
    if cls == "shifts_accept":
        sols = [{"beta": 0.25, "kind": "cool"}, {"beta": 0.36, "kind": "cool"}]
        return "dynamics", {"curve": CURVE, "solitons": sols, "grid": grid0,
                            "dynamics": {"mode": "shifts"}}, []
    raise KeyError(cls)


def pool_configs(workload: str) -> dict:
    """Configs per class: the ops a cycle takes plus SPARE, every draw kept."""
    rng = random.Random(f"{workload}:{MASTER_SEED}")
    slots = {field_class(slot): slot for slot in FIELD_SLOTS}
    classes = {}
    for cls, count in CYCLES[workload]:
        members = []
        for index in range(1 if cls == "shifts_accept" else count + SPARE):
            if workload == "field_tau":
                members.append(_field_class(slots[cls], rng))
            elif workload == "mc_riemann":
                members.append(_mc_class(cls, rng))
            elif workload == "gas_ndr":
                members.append(_gas_class(cls, rng))
            else:
                members.append(_tracker_class(cls, rng, index))
        classes[cls] = members
    return classes


def _oracle_record(op, res) -> dict:
    """Oracle samples of an eval op and the failure of the package's u, if any."""
    failure, points = checks.read_field(op, res.code, res.out, res.err)
    if failure and not failure[0]:
        raise RuntimeError(f"{op.label}: {failure[1]}")
    refs = oracle.reference_u(op.cfg, [(x, t) for x, t, _ in points]) if points else []
    defect = failure[1] if failure else checks.mismatch(points, refs)
    return {"check": "oracle", "samples": [[x, t, r] for (x, t, _), r in zip(points, refs)],
            "defect": defect}


def record(workload: str) -> None:
    runner = harness.Runner(harness.work_dir(HERE.parent, f"record-{workload}"))
    classes = {}
    for cls, members in pool_configs(workload).items():
        out = []
        for j, (command, cfg, args) in enumerate(members):
            op = Op(label=f"{cls}-{j}", command=command, cfg=cfg, args=args)
            res = runner.run(op, runner.write_config(op, op.label))
            if res.exc is not None:
                raise RuntimeError(f"{op.label} raised {res.exc}")
            entry = {"command": command, "cfg": cfg, "args": args, "code": res.code}
            if command == "eval":
                entry.update(_oracle_record(op, res))
                note = entry["defect"] or ""
            else:
                entry["out"] = res.out
                note = res.err.strip()[:80] if res.code else ""
            out.append(entry)
            print(f"{workload} {op.label}: exit {res.code}, {res.seconds:.3f} s {note}",
                  flush=True)
        classes[cls] = out
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(REFERENCE_DIR / f"{workload}.json", "w") as fh:
        json.dump({"master_seed": MASTER_SEED, "classes": classes}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    harness.import_package(HERE.parent)
    for name in sys.argv[1:] or list(CYCLES):
        record(name)
