"""Command-line front end: JSON config in, CSV or JSON out.

    cnoidal-kdv <eval|verify|dynamics|gas> --config FILE
                [--out FILE] [--format csv|json] [--seed N] [--radius N]
                [--tol X] [--double-nodes]

Exit codes: 0 ok, 2 config error, 3 numeric failure (module error name on
stderr), 4 verification check failed.  Output is deterministic for a fixed
config and seed: no timestamps, floats rendered with 17 significant digits,
and the header block echoes the resolved configuration and tool version.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

import numpy as np

from . import __version__
from . import dynamics, gas, riemann, tau
from .elliptic import JacobianPoint, half_periods, invert_wp
from .errors import CnoidalKdvError

_DEFAULT_EPS = {"degeneration": [1e-2, 1e-4, 1e-6], "montecarlo": [1e-2, 1e-3, 1e-4]}
_DEFAULT_TOL = {"pde": 1e-3, "degeneration": 1e-5, "fay": 1e-9}


class ConfigError(Exception):
    pass


def _number(lo: float = -np.inf, hi: float = np.inf):
    """Reader of a finite number inside the open interval (lo, hi); a bool is refused."""
    def read(value) -> float:
        if isinstance(value, bool):
            raise ValueError(f"{value!r} is not a number")
        v = float(value)
        if not np.isfinite(v):
            raise ValueError(f"{v} is not finite")
        if not lo < v < hi:
            raise ValueError(f"{v} is outside ({lo}, {hi})")
        return v
    return read


def _whole(lo: int):
    """Reader of a whole number of at least lo; a bool or a fractional number is refused."""
    def read(value) -> int:
        n = int(value)
        if isinstance(value, bool) or isinstance(value, float) and n != value or n < lo:
            raise ValueError(f"{value!r} is not a whole number of at least {lo}")
        return n
    return read


def _choice(*options: str):
    """Reader of one of the strings options."""
    def read(value) -> str:
        if not isinstance(value, str) or value not in options:
            raise ValueError(f"{value!r} is not {'|'.join(options)}")
        return value
    return read


_KIND = (_choice("hot", "cool"), "hot")

# Every config key.  A dict is a section, a one-element list a list of such
# entries, anything else a leaf reader; (entry, default) makes the key
# optional.  An absent section without a default is read as {}.
_SCHEMA = {
    "curve": {"e1": _number(), "e2": _number(), "e3": _number()},
    "solitons": ([{"b": (_number(), None), "beta": (_number(0.0, 0.5), None),
                   "kind": _KIND, "x_shift": (_number(), 0.0)}], []),
    "x0": (_number(), 0.0),
    "grid": ({"xmin": _number(), "xmax": _number(), "nx": _whole(2),
              "tmin": _number(), "tmax": _number(), "nt": _whole(1)}, None),
    "radius": (_whole(1), 6),
    "seed": (_whole(0), 0),
    "verify": {"which": (_choice("pde", "degeneration", "fay", "montecarlo"), None),
               "epsilons": ([_number(0.0, 1.0)], None),
               "trials": (_whole(1), None), "fay_n": (_whole(1), 3)},
    "dynamics": {"mode": (_choice("velocity", "shifts", "track"), "velocity"),
                 "norming": (_number(0.0), 1.0)},
    "gas": {"support": ([{"kind": _KIND, "lo": (_number(), None), "hi": (_number(), None),
                          "b_lo": (_number(), None), "b_hi": (_number(), None)}], []),
            "sigma": (_number(), 1.0), "nodes": (_whole(8), 64)},
}


def _check(value, schema, name: str = ""):
    """value read through schema, defaults filled in; a ConfigError names the first bad key."""
    if isinstance(schema, list):
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list")
        return [_check(item, schema[0], f"{name}[{i}]") for i, item in enumerate(value)]
    if not isinstance(schema, dict):
        try:
            return schema(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    if not isinstance(value, dict):
        raise ConfigError(f"{name or 'config'} must be a JSON object")
    prefix = f"{name}." if name else ""
    unknown = sorted(value.keys() - schema.keys())
    if unknown:
        raise ConfigError(f"unknown key {', '.join(prefix + key for key in unknown)}")
    out = {}
    for key, entry in schema.items():
        if isinstance(entry, tuple):
            out[key] = _check(value[key], entry[0], prefix + key) if key in value else entry[1]
        elif key in value or isinstance(entry, dict):
            out[key] = _check(value.get(key, {}), entry, prefix + key)
        else:
            raise ConfigError(f"config needs {prefix}{key}")
    return out


def _flag_or_key(cfg: dict, args, key: str):
    """The --key flag read through the key's reader if given, else cfg[key]."""
    flag = getattr(args, key)
    return cfg[key] if flag is None else _check(flag, _SCHEMA[key][0], f"--{key}")


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{v:.17g}"
    if isinstance(v, complex):
        return f"{v.real:.17g}{v.imag:+.17g}j"
    return str(v)


def _load_config(path: str) -> tuple[dict, dict]:
    """The config document as written, and its values read through _SCHEMA."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return doc, _check(doc, _SCHEMA)


def _build_curve(cfg: dict):
    return half_periods(**cfg["curve"])


def _build_spectrum(cfg: dict, curve):
    points = []
    for sol in cfg["solitons"]:
        if sol["b"] is not None:
            point = invert_wp(sol["b"], curve)
        elif sol["beta"] is not None:
            chi = 1 if sol["kind"] == "cool" else 0
            point = JacobianPoint(beta=sol["beta"] + chi * curve.tau / 2.0, chi=chi)
        else:
            raise ConfigError("each soliton needs 'b' or 'beta'+'kind'")
        points.append((point, sol["x_shift"]))
    return tau.spectrum_from_points(curve, points, x0=cfg["x0"])


def _grid(cfg: dict):
    g = cfg["grid"]
    if g is None:
        raise ConfigError("config needs a 'grid' entry")
    xs = np.linspace(g["xmin"], g["xmax"], g["nx"])
    ts = np.linspace(g["tmin"], g["tmax"], g["nt"]) if g["nt"] > 1 else np.array([g["tmin"]])
    return xs, ts


class Report:
    """Accumulates runs of rows held by column, then renders CSV (with # comments) or JSON.

    A run is a list of columns: an array or a list, one cell per row, or
    one cell shared by every row of the run (at least one column is an
    array or a list).  Every cell renders as _fmt renders it; a float
    array's cells go through "%.17g", which gives the same text.
    """

    def __init__(self, command: str, cfg: dict, columns: list[str]):
        self.command = command
        self.cfg = cfg
        self.columns = columns
        self.runs: list[list] = []
        self.footer: dict = {}

    def render(self, fmt: str) -> str:
        if fmt == "json":
            doc = {
                "tool": "cnoidal-kdv",
                "version": __version__,
                "command": self.command,
                "config": self.cfg,
                "columns": self.columns,
                "rows": [[_fmt(v) for v in row] for run in self.runs for row in zip(*(
                    c.tolist() if isinstance(c, np.ndarray) else
                    c if isinstance(c, list) else itertools.repeat(c) for c in run))],
                "footer": {k: _fmt(v) for k, v in self.footer.items()},
            }
            return json.dumps(doc, indent=2, sort_keys=True) + "\n"
        lines = [f"# cnoidal-kdv {__version__} command={self.command}",
                 f"# config: {json.dumps(self.cfg, sort_keys=True)}", ",".join(self.columns)]
        # one % per run: a float array fills "%.17g" slots, any other column "%s"
        # slots with its cells' _fmt text, and a shared cell's text, each % doubled
        # (so never a slot), is part of the format
        for run in self.runs:
            slots = ["%.17g" if isinstance(c, np.ndarray) and c.dtype.kind == "f" else
                     "%s" if isinstance(c, (np.ndarray, list)) else _fmt(c).replace("%", "%%")
                     for c in run]
            columns = [c if slot == "%.17g" else [_fmt(v) for v in c]
                       for c, slot in zip(run, slots) if slot in ("%.17g", "%s")]
            if len(columns[0]):
                cells = (np.column_stack(columns).ravel().tolist() if "%s" not in slots else
                         [v for row in zip(*columns) for v in row])
                lines.append("\n".join([",".join(slots)] * len(columns[0])) % tuple(cells))
        lines += [f"# {k} = {_fmt(v)}" for k, v in self.footer.items()]
        return "\n".join(lines) + "\n"


def cmd_eval(doc: dict, cfg: dict, args) -> tuple[Report, int]:
    ctx = tau.build_context(_build_spectrum(cfg, _build_curve(cfg)))
    xs, ts = _grid(cfg)
    rep = Report("eval", doc, ["x", "t", "u", "tau", "detG"])
    rep.runs += [[xs, t, *rows] for t, rows in zip(ts.tolist(), tau._eval_rows(ctx, xs, ts))]
    return rep, 0


def _verify_pde(cfg, ctx, tol, seed, args):
    xs, ts = _grid(cfg)
    if ts.size < 2:
        raise ConfigError("pde verification needs grid.nt >= 2")
    resid = tau.kdv_residual(ctx, (xs[0], xs[-1]), xs.size, (ts[0], ts[-1]), ts.size)
    ok = resid < tol
    return [("pde", f"nx={xs.size};nt={ts.size}", resid, tol, ok)], ok


def _lattice_inputs(cfg: dict, args, n: int) -> tuple[list, int]:
    """verify.epsilons and the radius of the genus n + 1 lattice sums, checked."""
    eps_list = cfg["verify"]["epsilons"]
    eps_list = _DEFAULT_EPS[cfg["verify"]["which"]] if eps_list is None else eps_list
    if not eps_list:
        raise ConfigError("verify.epsilons must not be empty")
    radius = _flag_or_key(cfg, args, "radius")
    if (2 * radius + 1) ** (n + 1) > riemann._LATTICE_MAX:
        raise ConfigError(f"radius = {radius}: lattice box (2*{radius}+1)^{n + 1} too large")
    return eps_list, radius


def _verify_degeneration(cfg, ctx, tol, seed, args):
    spectrum = ctx.spectrum
    n = len(spectrum)
    eps_list, radius = _lattice_inputs(cfg, args, n)
    rng = np.random.default_rng(seed)
    psis = 1j * rng.uniform(-0.5, 0.5, size=n)
    beta = rng.uniform(0.0, 1.0)
    x_phase = np.concatenate([psis, [beta]])
    resids = riemann._degeneration_residuals(x_phase, spectrum, eps_list, radius)
    rows = [("degeneration", f"epsilon={_fmt(eps)}", resid, tol, resid < tol)
            for eps, resid in zip(eps_list, resids)]
    monotone = all(a > b for a, b in zip(resids, resids[1:]))
    rows.append(("degeneration", "monotone-decreasing", float(not monotone), 0.5, monotone))
    return rows, monotone and resids[-1] < tol


def _verify_fay(cfg, ctx, tol, seed, args):
    n = cfg["verify"]["fay_n"]
    trials = cfg["verify"]["trials"] or 50
    rng = np.random.default_rng(seed)
    draws = [(rng.uniform(0, 1, n) + 1j * rng.uniform(0, 0.3, n),
              rng.uniform(0, 1, n) + 1j * rng.uniform(0, 0.3, n),
              rng.uniform(0, 1) + 0.1j) for _ in range(trials)]
    xs, xh, e_pts = (np.array(side) for side in zip(*draws))
    worst = max([0.0, *riemann._fay_residuals(n, xs, xh, e_pts, ctx.curve).tolist()])
    ok = worst < tol
    return [("fay", f"n={n};trials={trials}", worst, tol, ok)], ok


def _verify_montecarlo(cfg, ctx, tol, seed, args):
    eps_list, radius = _lattice_inputs(cfg, args, len(ctx.spectrum))
    trials = cfg["verify"]["trials"] or 200
    xs, ts = _grid(cfg)
    means = riemann.random_phase_mc(ctx.spectrum, eps_list, trials, seed,
                                    xs, [float(ts[0])], radius)
    rows = [("montecarlo", f"epsilon={_fmt(eps)};trials={trials}", float(mean), np.inf, True)
            for eps, mean in zip(eps_list, means)]
    monotone = all(a > b for a, b in zip(means, means[1:]))
    rows.append(("montecarlo", "monotone-decreasing", float(not monotone), 0.5, monotone))
    return rows, monotone


def cmd_verify(doc: dict, cfg: dict, args) -> tuple[Report, int]:
    which = cfg["verify"]["which"]
    if which is None:
        raise ConfigError("config needs verify.which")
    ctx = tau.build_context(_build_spectrum(cfg, _build_curve(cfg)))
    seed = _flag_or_key(cfg, args, "seed")
    tol = args.tol if args.tol is not None else _DEFAULT_TOL.get(which, 1e-9)
    rep = Report("verify", doc, ["check", "parameters", "residual", "tolerance", "pass"])
    check = {"pde": _verify_pde, "degeneration": _verify_degeneration,
             "fay": _verify_fay, "montecarlo": _verify_montecarlo}[which]
    rows, ok = check(cfg, ctx, tol, seed, args)
    rep.runs.append([list(column) for column in zip(*rows)])
    return rep, 0 if ok else 4


def cmd_dynamics(doc: dict, cfg: dict, args) -> tuple[Report, int]:
    mode = cfg["dynamics"]["mode"]
    curve = _build_curve(cfg)
    spectrum = _build_spectrum(cfg, curve)
    columns = [spectrum.beta, [pt.kind for pt in spectrum.points]]
    if mode == "velocity":
        rep = Report("dynamics", doc, ["beta", "kind", "V", "P", "E"])
        # P and E with +0.0 real parts (1j * energy alone gives -0.0 where energy < 0)
        rep.runs.append(columns + [spectrum.velocity, 1j * spectrum.p,
                                   0.0 + 1j * spectrum.energy])
    elif mode == "shifts":
        rep = Report("dynamics", doc, ["beta", "kind", "V", "total_shift"])
        rep.runs.append(columns + [spectrum.velocity, dynamics.total_shift_schedule(spectrum)])
    else:
        if len(spectrum) != 1:
            raise ConfigError("track mode needs exactly one soliton")
        _, ts = _grid(cfg)
        phis = dynamics.track_phase(spectrum.points[0], curve, cfg["dynamics"]["norming"], ts)
        rep = Report("dynamics", doc, ["t", "Phi"])
        rep.runs.append([ts, phis])
    return rep, 0


def _gas_model_from_config(cfg: dict, curve, nodes: int):
    intervals = []
    try:                # the intervals and the model check their own bounds
        for iv in cfg["gas"]["support"]:
            physical = iv["b_lo"] is not None
            lo, hi = (iv["b_lo"], iv["b_hi"]) if physical else (iv["lo"], iv["hi"])
            if lo is None or hi is None:
                raise ConfigError("each gas.support entry needs lo and hi, or b_lo and b_hi")
            intervals.append(gas.interval_from_physical(curve, lo, hi) if physical else
                             gas.GasInterval(1 if iv["kind"] == "cool" else 0, lo, hi))
        if not intervals:
            raise ConfigError("gas.support must not be empty")
        return gas.build_model(curve, intervals, cfg["gas"]["sigma"], nodes)
    except ValueError as exc:
        raise ConfigError(f"gas: {exc}") from exc


def cmd_gas(doc: dict, cfg: dict, args) -> tuple[Report, int]:
    curve = _build_curve(cfg)
    model = gas.ndr_solve(_gas_model_from_config(cfg, curve, cfg["gas"]["nodes"]))
    rep = Report("gas", doc, ["eta", "u", "v", "s", "s0"])
    rep.runs.append([model.betas, model.solved_u, model.solved_v, model.speeds,
                     gas.free_speeds(model)])
    rep.footer["k_tilde"], rep.footer["w_tilde"] = gas.carrier_quantities(model)
    rep.footer["eos_residual"] = gas.equation_of_state_residual(model)
    if args.double_nodes:
        fine = gas.ndr_solve(_gas_model_from_config(
            cfg, curve, 2 * (model.n_per_interval - 1) + 1))
        delta = float(np.max(np.abs(fine.solved_u[::2] - model.solved_u)))
        rep.footer["double_nodes_delta"] = delta
    return rep, 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(prog="cnoidal-kdv", description=__doc__)
    parser.add_argument("command", choices=["eval", "verify", "dynamics", "gas"])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--radius", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--double-nodes", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    handlers = {"eval": cmd_eval, "verify": cmd_verify,
                "dynamics": cmd_dynamics, "gas": cmd_gas}
    try:
        doc, cfg = _load_config(args.config)
        rep, code = handlers[args.command](doc, cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CnoidalKdvError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    text = rep.render(args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
