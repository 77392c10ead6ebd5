"""Correctness gate: every op's output is checked after the timed pass.

* Ops with a recorded output (`mc_riemann`, `gas_ndr`, `tracker` and the
  `verify pde` ops of `field_tau`) must reproduce the exit code and output
  recorded for their config, cell by cell, within `RTOL` and a per-column
  absolute floor, and must also meet the package's own gates where the
  output carries them (`eos_residual < 1e-6`, the acceptance velocities and
  shifts on the `(2, 1, -3)` curve).
* `field_tau` eval ops are compared with the high-precision tau oracle at a
  few points: at each t the x of largest |u - u_background| in the op's own
  output, plus xmin and a seeded x at the first t.  Oracle values recorded
  with the pool are reused; points a changed output moves to are computed.

A failed check has a kind.  `known` is a failure the recording commit already
showed on that config: an eval whose u was off the oracle, not finite or
stopped by a tau error, that fails in one of those ways again; or an op whose
recorded exit code is not 0 (a verification that did not pass) and that
reproduces it.  Anything else is `unexpected`: a crash, a wrong exit code, a
mismatch with a recorded output, or a numeric failure of an eval that the
recording commit got right.  Both kinds count as failed ops; only
`unexpected` makes a run incorrect.
"""

from __future__ import annotations

import math
import random

import oracle

RTOL = 1e-8                 # relative tolerance against recorded outputs
ATOL_SCALE = 1e-10          # absolute floor, times (1 + max |column|)
U_TOL = 1e-6                # |u - u_oracle| <= U_TOL * max(1, |u_oracle|)
EOS_GATE = 1e-6
TAU_ERRORS = ("NonRealTau", "PhaseOverflow", "BackgroundThetaZero")

# acceptance values on the (2, 1, -3) curve: (beta, kind) -> (value, tolerance)
ACCEPT_VELOCITY = {(0.30, "hot"): (6.8273, 1e-3), (0.24, "cool"): (-8.99139, 1e-3)}
ACCEPT_SHIFT = {(0.36, "cool"): (22.878, 1e-2), (0.25, "cool"): (-17.32, 1e-2)}


def _value(cell: str):
    if cell in ("True", "False"):
        return cell == "True"
    for kind in (float, complex):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def parse_csv(text: str) -> tuple[list[str], list[list], dict]:
    """(columns, rows, footer) of the CLI's CSV output."""
    columns, rows, footer = None, [], {}
    for line in text.splitlines():
        if line.startswith("# ") and " = " in line:
            key, val = line[2:].split(" = ", 1)
            footer[key] = _value(val)
        elif line.startswith("#") or not line:
            continue
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([_value(c) for c in line.split(",")])
    if columns is None:
        raise ValueError("no column header in output")
    return columns, rows, footer


def _close(a, b, atol: float) -> bool:
    if isinstance(b, (bool, str)) or isinstance(a, (bool, str)):
        return a == b
    if isinstance(b, float) and math.isinf(b):
        return a == b
    return abs(a - b) <= atol + RTOL * abs(b)


def _scale(values) -> float:
    nums = [abs(v) for v in values
            if isinstance(v, (int, float, complex)) and not isinstance(v, bool)
            and math.isfinite(abs(v))]
    return ATOL_SCALE * (1.0 + max(nums, default=0.0))


def _beta_kind(row):
    return (round(row[0].real, 6), row[1])


def check_reference(op, code: int | None, out: str) -> str | None:
    """None if the output matches the recorded one, else the reason."""
    if code != op.ref_code:
        return f"exit code {code}, recorded {op.ref_code}"
    cols, rows, footer = parse_csv(out)
    rcols, rrows, rfooter = parse_csv(op.ref_out)
    if cols != rcols or len(rows) != len(rrows) or set(footer) != set(rfooter):
        return "output shape differs from the recorded one"
    for j, name in enumerate(cols):
        atol = _scale(r[j] for r in rrows)
        for i, (row, ref) in enumerate(zip(rows, rrows)):
            if not _close(row[j], ref[j], atol):
                return f"row {i} {name} = {row[j]!r}, recorded {ref[j]!r}"
    for key, ref in rfooter.items():
        if not _close(footer[key], ref, _scale([ref])):
            return f"{key} = {footer[key]!r}, recorded {ref!r}"
    if "eos_residual" in footer and not footer["eos_residual"] < EOS_GATE:
        return f"eos_residual {footer['eos_residual']} >= {EOS_GATE}"
    if op.command == "dynamics" and cols[0] == "beta":
        accept, column = (ACCEPT_VELOCITY, 2) if "P" in cols else (ACCEPT_SHIFT, 3)
        keys = [_beta_kind(row) for row in rows]
        # total shifts depend on every partner, so only the acceptance pair itself
        if accept is ACCEPT_VELOCITY or set(keys) == set(ACCEPT_SHIFT):
            for key, row in zip(keys, rows):
                want = accept.get(key)
                if want and abs(row[column] - want[0]) >= want[1]:
                    return f"acceptance value {row[column]} vs {want[0]} at {key}"
    return None


def _tau_error(code: int | None, err: str) -> str | None:
    """Reason if the op ended in one of the tau function's own errors."""
    if code == 3 and err.startswith(TAU_ERRORS):
        return err.strip().splitlines()[0]
    return None


def read_field(op, code, out, err) -> tuple[tuple[bool, str] | None, list]:
    """(failure, points) of an eval op's output.

    failure is (numeric, reason) if the op gave no finite u, numeric being
    true for a tau error or a non-finite u; otherwise None, and points are
    the sample points (x, t, u) with the package's u.
    """
    reason = _tau_error(code, err)
    if reason:
        return (True, reason), []
    if code != 0:
        return (False, f"exit code {code}: {err.strip()[:200]}"), []
    cols, rows, _ = parse_csv(out)
    if cols[:3] != ["x", "t", "u"]:
        return (False, f"columns {cols}"), []
    if any(not (isinstance(r[2], float) and math.isfinite(r[2])) for r in rows):
        return (True, "u is not finite"), []
    by_t = {}
    for row in rows:
        by_t.setdefault(row[1], []).append((row[0], row[2]))
    points = []
    pick = random.Random(f"sample:{op.label}")
    for k, (t, pts) in enumerate(sorted(by_t.items())):
        xs = [x for x, _ in pts]
        bg = oracle.background_u(op.cfg, xs)
        dev = [abs(u - b) for (_, u), b in zip(pts, bg)]
        idx = {max(range(len(dev)), key=dev.__getitem__)}
        if k == 0:
            idx |= {0, pick.randrange(1, len(xs) - 1)}
        points += [(xs[i], t, pts[i][1]) for i in sorted(idx)]
    return None, points


def mismatch(points, refs) -> str | None:
    """Reason if the package's u at points differs from the oracle values refs."""
    for (x, t, u), ref in zip(points, refs):
        if abs(u - ref) > U_TOL * max(1.0, abs(ref)):
            return f"u({x:.6g}, {t:.6g}) = {u:.10g}, oracle {ref:.10g}"
    return None


def check_field(op, code, out, err) -> tuple[bool, str] | None:
    """(numeric, reason) if an eval op's u is not the oracle's, else None."""
    failure, points = read_field(op, code, out, err)
    if failure:
        return failure
    known = {(x, t): u for x, t, u in op.samples}
    missing = [(x, t) for x, t, _ in points if (x, t) not in known]
    if missing:
        known.update(zip(missing, oracle.reference_u(op.cfg, missing)))
    reason = mismatch(points, [known[(x, t)] for x, t, _ in points])
    return (True, reason) if reason else None


def judge(op, code, out, err) -> tuple[str, str] | None:
    """(kind, reason) if the op failed, else None; kinds as in the module doc."""
    if op.check == "reference":
        reason = check_reference(op, code, out)
        if reason:
            return "unexpected", reason
        return ("known", f"exit code {code}, as recorded") if code != 0 else None
    failure = check_field(op, code, out, err)
    if failure is None:
        return None
    numeric, reason = failure
    return ("known" if numeric and op.defect else "unexpected"), reason
