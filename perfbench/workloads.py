"""Seeded op lists for the four workloads.

An op is one `cnoidal-kdv` CLI command on one JSON config.  A workload is a
cycle of ops that the closed loop repeats; the cycle's composition (how many
ops of each class) is fixed, and the seed picks the inputs.

Every workload picks its configs from a pool stored in
`reference/<workload>.json` (`record.py`): for each op class, configs drawn
from a fixed master seed, every draw kept, with what the package at the
recording commit did on it.  The seed chooses which pool members fill each
slot of the cycle and the order of the cycle.  From each class a cycle takes
the pool's share of members that failed at the recording commit, rounded
half up: the share of failing ops, and with it ok_ops_per_s, then stays the
same from seed to seed instead of swinging by a third with the draw.

* `field_tau` eval ops carry oracle values of u at a few points and the
  failure the recording commit showed on them, if any (the known
  inaccuracy of the double-precision tau function); its `verify pde` ops
  and the other workloads' ops carry the recorded exit code and output.

The class counts put a run of equal-cost ops at the median and at the tail
percentile of the latency distribution, so both read steadily from seed to
seed.  Members of one class differ in cost by 10-20%, so `field_tau` and
`gas_ndr` take four (a few classes two) per class, which averages the seed's
choice over more members.  See `BENCHMARK.json` for why each workload exists.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

CURVE = {"e1": 2.0, "e2": 1.0, "e3": -3.0}

WORKLOADS = ("field_tau", "mc_riemann", "gas_ndr", "tracker")

# field_tau classes: (command, N, cool solitons, solitons given by b, nx, nt, copies)
FIELD_SLOTS = [
    ("eval", 1, 0, 0, 800, 1, 4),
    ("eval", 1, 0, 1, 600, 1, 4),
    ("eval", 2, 1, 0, 800, 1, 4),
    ("eval", 2, 0, 1, 600, 2, 4),
    ("eval", 4, 0, 0, 600, 1, 4),
    ("eval", 4, 2, 1, 600, 1, 4),
    ("eval", 6, 0, 0, 500, 1, 4),
    ("eval", 6, 3, 1, 500, 1, 4),
    ("eval", 8, 0, 0, 400, 1, 4),
    ("eval", 8, 4, 0, 400, 1, 4),
    ("eval", 12, 0, 0, 400, 1, 2),
    ("eval", 12, 6, 0, 400, 1, 2),
    ("pde", 2, 1, 0, 400, 24, 4),
    ("pde", 2, 0, 1, 400, 24, 2),
    ("pde", 4, 2, 0, 400, 64, 2),
]


def field_class(slot) -> str:
    command, n, n_cool, n_b = slot[:4]
    return f"{command}-N{n}-{'mixed' if n_cool else 'hot'}{'-b' if n_b else ''}"


# (class, ops of that class per cycle)
CYCLES = {
    "field_tau": [(field_class(slot), slot[-1]) for slot in FIELD_SLOTS],
    "mc_riemann": [("mc_g4r3", 4), ("mc_g3r4", 2), ("mc_g2r6", 2),
                   ("degeneration", 4), ("fay", 2)],
    "gas_ndr": [("hot64", 4), ("hotcool64", 2), ("hot64_double", 2), ("hot128", 2)],
    "tracker": [("track64", 1), ("track48", 4), ("track32", 1),
                ("velocity", 4), ("shifts", 3), ("shifts_accept", 1)],
}


@dataclass
class Op:
    """One CLI invocation: `cnoidal-kdv <command> --config <file> <args>`."""

    label: str
    command: str
    cfg: dict
    args: list = field(default_factory=list)
    check: str = "reference"          # "reference" or "oracle"
    ref_code: int | None = None
    ref_out: str | None = None        # recorded output ("reference" ops)
    samples: list = field(default_factory=list)   # [x, t, u_oracle] ("oracle" ops)
    defect: str | None = None         # failure recorded at the recording commit


def load_pool(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)["classes"]


def recorded_failure(member: dict) -> bool:
    return member["code"] != 0 or bool(member.get("defect"))


def build_ops(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    pool = load_pool(workload)
    ops = []
    for cls, count in CYCLES[workload]:
        members = pool[cls]
        bad = [j for j, m in enumerate(members) if recorded_failure(m)]
        good = [j for j, m in enumerate(members) if not recorded_failure(m)]
        k = math.floor(count * len(bad) / len(members) + 0.5)
        for j in rng.sample(bad, k) + rng.sample(good, count - k):
            m = members[j]
            ops.append(Op(label=f"{cls}-{j}", command=m["command"], cfg=m["cfg"],
                          args=list(m.get("args", [])), check=m.get("check", "reference"),
                          ref_code=m["code"], ref_out=m.get("out"),
                          samples=m.get("samples", []), defect=m.get("defect")))
    rng.shuffle(ops)
    return ops
