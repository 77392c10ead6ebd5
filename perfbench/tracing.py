"""Spans around the public functions of the package's modules.

`Tracer.install` wraps every public module-level function of `cli`,
`elliptic`, `tau`, `riemann`, `dynamics` and `gas`, and rebinds the wrapper
under every name that refers to the function in any `cnoidal_kdv` module
(`tau.theta3`, `gas.theta1`, `cli.invert_wp`, ...), so calls between modules
land in spans too.  Spans are kept in memory as
`[layer, name, parent, start, end, size, extra, raised]`.

A span's self time is its duration minus the time its child spans cover.
Each per-function metric (`elliptic.theta`, `gas.kernel_matrix`, ...) also
takes the self time of the unnamed helpers of the same module it calls, so
that e.g. the rows `kernel_matrix` builds through `kernel_row` count as
kernel-matrix time; a layer's self time is the sum over all its spans.
"""

from __future__ import annotations

import inspect
import sys
import time

import numpy as np

LAYERS = ("cli", "elliptic", "tau", "riemann", "dynamics", "gas")

NAMED = {
    ("elliptic", "theta1"): "elliptic.theta",
    ("elliptic", "theta3"): "elliptic.theta",
    ("elliptic", "weierstrass"): "elliptic.weierstrass",
    ("elliptic", "invert_wp"): "elliptic.invert_wp",
    ("dynamics", "track_phase"): "dynamics.track_phase",
    ("gas", "kernel_matrix"): "gas.kernel_matrix",
    ("gas", "ndr_solve"): "gas.ndr_solve",
    ("gas", "equation_of_state_residual"): "gas.eos",
}

# per-layer metric -> (unit, the end-to-end metric and workload it should move)
PER_LAYER = {
    "cli.self_s": ("s", "op_p50_ms on field_tau (eval renders nx*nt rows); about nil on mc_riemann"),
    "elliptic.self_s": ("s", "every workload; the sum over the theta, Weierstrass and inversion spans"),
    "elliptic.theta.calls": ("count", "ok_ops_per_s on tracker and field_tau; nothing on mc_riemann"),
    "elliptic.theta.scalar_calls": ("count", "ok_ops_per_s on tracker"),
    "elliptic.theta.points": ("count", "ok_ops_per_s on field_tau"),
    "elliptic.theta.self_s": ("s", "ok_ops_per_s on tracker and field_tau; nothing on mc_riemann"),
    "elliptic.weierstrass.calls": ("count", "ok_ops_per_s on gas_ndr (one RHS and one s0 per node) and tracker"),
    "elliptic.weierstrass.self_s": ("s", "ok_ops_per_s on gas_ndr and tracker"),
    "elliptic.invert_wp.calls": ("count", "op_p50_ms on field_tau (ops with b solitons)"),
    "elliptic.invert_wp.self_s": ("s", "op_p50_ms on field_tau (ops with b solitons)"),
    "tau.self_s": ("s", "ok_ops_per_s and op_tail_ms on field_tau (N >= 6)"),
    "tau.x_points": ("count", "ok_ops_per_s and op_tail_ms on field_tau"),
    "tau.errors": ("count", "ok_ops_per_s on field_tau (NonRealTau and friends)"),
    "riemann.self_s": ("s", "every end-to-end metric on mc_riemann, nothing elsewhere"),
    "riemann.trials": ("count", "every end-to-end metric on mc_riemann"),
    "riemann.lattice_terms": ("count", "every end-to-end metric on mc_riemann (lattice x stencil x t)"),
    "riemann.working_set_mb": ("MB", "op_tail_ms on mc_riemann (largest lattice x stencil array)"),
    "dynamics.self_s": ("s", "ok_ops_per_s on tracker"),
    "dynamics.track_phase.calls": ("count", "ok_ops_per_s on tracker"),
    "dynamics.theta_calls_per_track": ("ratio", "ok_ops_per_s on tracker; base dynamics.track_phase.calls"),
    "gas.self_s": ("s", "every end-to-end metric on gas_ndr"),
    "gas.kernel_matrix.self_s": ("s", "ok_ops_per_s on gas_ndr"),
    "gas.ndr_solve.self_s": ("s", "ok_ops_per_s on gas_ndr"),
    "gas.eos.self_s": ("s", "ok_ops_per_s on gas_ndr"),
    "gas.kernel_builds_per_solve": ("ratio", "ok_ops_per_s on gas_ndr; base gas ndr_solve calls"),
    "trace.overhead_frac": ("ratio", "none: 1 - traced / untraced ok_ops_per_s"),
}

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _lattice_points(spec, radius) -> int:
    return (2 * int(radius) + 1) ** (len(spec.spectrum) + 1)


def _theta(args, kwargs):
    beta = _arg(args, kwargs, 0, "beta")
    return int(np.size(beta)), int(np.ndim(beta) == 0)


def _grid(args, kwargs):
    return int(np.size(_arg(args, kwargs, 1, "xs"))), 0


def _field(args, kwargs):
    return int(np.size(_arg(args, kwargs, 1, "xs")) * np.size(_arg(args, kwargs, 2, "ts"))), 0


def _finite_gap(args, kwargs):
    lattice = _lattice_points(_arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 4, "radius"))
    stencil = 5 * int(np.size(_arg(args, kwargs, 2, "xs")))
    nt = int(np.size(_arg(args, kwargs, 3, "ts")))
    return lattice * stencil * nt, lattice * stencil * 16      # complex128 bytes


def _degeneration(args, kwargs):
    return _lattice_points(_arg(args, kwargs, 1, "spec"), _arg(args, kwargs, 2, "radius")), 0


# (layer, function) -> work size of one call, (size, extra)
MEASURES = {
    ("elliptic", "theta1"): _theta,
    ("elliptic", "theta3"): _theta,
    ("tau", "u_grid"): _grid,
    ("tau", "tau_grid"): _grid,
    ("tau", "u_field"): _field,
    ("riemann", "finite_gap_solution"): _finite_gap,
    ("riemann", "degeneration_residual"): _degeneration,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        measure = MEASURES.get((layer, name))
        clock = time.perf_counter

        def traced(*args, **kwargs):
            size, extra = measure(args, kwargs) if measure else (0, 0)
            span = [layer, name, stack[-1] if stack else -1, 0.0, 0.0, size, extra, False]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[7] = True
                raise
            finally:
                span[4] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"cnoidal_kdv.{layer}"]
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(layer, name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "cnoidal_kdv" and not mod_name.startswith("cnoidal_kdv."):
                continue
            for name, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, name, wrappers[val])
                    self._restore.append((mod, name, val))

    def uninstall(self) -> None:
        for mod, name, val in reversed(self._restore):
            setattr(mod, name, val)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index\tparent\tlayer\tname\tstart\tend\tsize\textra\traised\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[2]}\t{s[0]}\t{s[1]}\t{s[3]!r}\t{s[4]!r}\t"
                         f"{s[5]}\t{s[6]}\t{int(s[7])}\n")


def self_times(spans, lo: int, hi: int) -> list[float]:
    """Self time of spans[lo:hi]; a span's children all lie in the same range."""
    own = [s[4] - s[3] for s in spans[lo:hi]]
    for i in range(lo, hi):
        parent = spans[i][2]
        if parent >= lo:
            own[parent - lo] -= spans[i][4] - spans[i][3]
    return own


def layer_metrics(spans, lo: int, hi: int) -> tuple[dict, dict]:
    """(metrics, ratio bases) of the spans recorded in spans[lo:hi]."""
    own = self_times(spans, lo, hi)
    out = {k: 0.0 for k in PER_LAYER if k != "trace.overhead_frac"}
    bucket = [None] * (hi - lo)
    in_track = [False] * (hi - lo)
    calls = {}
    for k in range(hi - lo):
        layer, name, parent, _, _, size, extra, raised = spans[lo + k]
        up = parent - lo if parent >= lo else None
        same = up is not None and spans[parent][0] == layer
        bucket[k] = NAMED.get((layer, name)) or (bucket[up] if same else None)
        in_track[k] = name == "track_phase" or (up is not None and in_track[up])
        out[f"{layer}.self_s"] += own[k]
        if bucket[k]:
            out[f"{bucket[k]}.self_s"] = out.get(f"{bucket[k]}.self_s", 0.0) + own[k]
        key = NAMED.get((layer, name), f"{layer}.{name}")
        calls[key] = calls.get(key, 0) + 1
        if key == "elliptic.theta":
            out["elliptic.theta.points"] += size
            out["elliptic.theta.scalar_calls"] += extra
            if in_track[k]:
                calls["theta_in_track"] = calls.get("theta_in_track", 0) + 1
        elif layer == "tau":
            out["tau.x_points"] += size
            if raised and not same:
                out["tau.errors"] += 1
        elif name == "finite_gap_solution" or name == "degeneration_residual":
            out["riemann.lattice_terms"] += size
            out["riemann.working_set_mb"] = max(out["riemann.working_set_mb"], extra / 1e6)
    out["elliptic.theta.calls"] = calls.get("elliptic.theta", 0)
    out["elliptic.weierstrass.calls"] = calls.get("elliptic.weierstrass", 0)
    out["elliptic.invert_wp.calls"] = calls.get("elliptic.invert_wp", 0)
    out["riemann.trials"] = calls.get("riemann.random_phase_trial", 0)
    tracks = calls.get("dynamics.track_phase", 0)
    out["dynamics.track_phase.calls"] = tracks
    out["dynamics.theta_calls_per_track"] = calls.get("theta_in_track", 0) / tracks if tracks else 0.0
    solves = calls.get("gas.ndr_solve", 0)
    out["gas.kernel_builds_per_solve"] = calls.get("gas.kernel_matrix", 0) / solves if solves else 0.0
    bases = {"dynamics.track_phase.calls": tracks, "gas.ndr_solve.calls": solves}
    return {k: int(out[k]) if PER_LAYER[k][0] == "count" else out[k]
            for k in PER_LAYER if k in out}, bases
