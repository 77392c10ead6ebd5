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
import contextlib
import functools
import itertools
import json
import sys

import numpy as np

from . import __version__
from . import dynamics, gas, riemann, tau
from .elliptic import JacobianPoint, half_periods, invert_wp
from .errors import CnoidalKdvError, InvalidNorming

_DEFAULT_EPS_DEGEN = [1e-2, 1e-4, 1e-6]
_DEFAULT_EPS_MC = [1e-2, 1e-3, 1e-4]
_DEFAULT_TOL = {"pde": 1e-3, "degeneration": 1e-5, "fay": 1e-9}


class ConfigError(Exception):
    pass


@contextlib.contextmanager
def _reading(name: str):
    """Re-raise a missing key or an unusable value read inside as a ConfigError."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{name} entry missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _section(cfg: dict, key: str) -> dict:
    """cfg[key] as a JSON object, {} when absent."""
    section = cfg.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"'{key}' must be a JSON object")
    return section


def _objects(section: dict, key: str) -> list[dict]:
    """section[key] as a list of JSON objects, [] when absent."""
    items = section.get(key, [])
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise ConfigError(f"'{key}' must be a list of JSON objects")
    return items


def _whole(value, name: str) -> int:
    """value as an int; a bool or a number with a fractional part is a ConfigError."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{name} = {value!r} must be a whole number")
    with _reading(name):
        return int(value)


def _count(vcfg: dict, key: str, default: int) -> int:
    """verify.<key> as an integer of at least 1."""
    n = _whole(vcfg.get(key, default), f"verify.{key}")
    if n < 1:
        raise ConfigError(f"verify.{key} = {n} must be at least 1")
    return n


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{v:.17g}"
    if isinstance(v, complex):
        return f"{v.real:.17g}{v.imag:+.17g}j"
    return str(v)


def _row_format(types: tuple) -> tuple[str, bool]:
    """A CSV row's % format for these cell types, and whether every cell is a float.

    "%.17g" renders a float (numpy float64 included) as _fmt does; every
    other cell goes through _fmt into a "%s" slot.
    """
    floats = [issubclass(t, float) for t in types]
    return ",".join("%.17g" if f else "%s" for f in floats), all(floats)


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict) or "curve" not in cfg:
        raise ConfigError("config must be a JSON object with a 'curve' entry")
    return cfg


def _build_curve(cfg: dict):
    with _reading("curve"):
        e1, e2, e3 = (float(cfg["curve"][k]) for k in ("e1", "e2", "e3"))
    return half_periods(e1, e2, e3)


def _finite(value, name: str) -> float:
    with _reading(name):
        v = float(value)
    if not np.isfinite(v):
        raise ConfigError(f"{name} = {v} is not finite")
    return v


def _build_spectrum(cfg: dict, curve):
    points = []
    for sol in _objects(cfg, "solitons"):
        x_shift = _finite(sol.get("x_shift", 0.0), "soliton x_shift")
        if "b" in sol:
            points.append((invert_wp(_finite(sol["b"], "soliton b"), curve), x_shift))
        elif "beta" in sol:
            kind = sol.get("kind", "hot")
            if kind not in ("hot", "cool"):
                raise ConfigError(f"unknown soliton kind {kind!r}")
            r = _finite(sol["beta"], "soliton beta")
            if not 0.0 < r < 0.5:
                raise ConfigError(f"soliton beta = {r} outside (0, 1/2)")
            chi = 1 if kind == "cool" else 0
            beta = r + chi * curve.tau / 2.0
            points.append((JacobianPoint(beta=beta, chi=chi), x_shift))
        else:
            raise ConfigError("each soliton needs 'b' or 'beta'+'kind'")
    x0 = _finite(cfg.get("x0", 0.0), "x0")
    return tau.spectrum_from_points(curve, points, x0=x0)


def _grid(cfg: dict):
    g = cfg.get("grid")
    if g is None:
        raise ConfigError("config needs a 'grid' entry")
    with _reading("grid"):
        xmin, xmax, nx = float(g["xmin"]), float(g["xmax"]), _whole(g["nx"], "grid.nx")
        tmin, tmax, nt = float(g["tmin"]), float(g["tmax"]), _whole(g["nt"], "grid.nt")
    if nx < 2 or nt < 1:
        raise ConfigError("grid needs nx >= 2 and nt >= 1")
    if not np.all(np.isfinite([xmin, xmax, tmin, tmax])):
        raise ConfigError("grid bounds must be finite")
    xs = np.linspace(xmin, xmax, nx)
    ts = np.linspace(tmin, tmax, nt) if nt > 1 else np.array([tmin])
    return xs, ts


class Report:
    """Accumulates rows, then renders CSV (with # comments) or JSON."""

    def __init__(self, command: str, cfg: dict, columns: list[str]):
        self.command = command
        self.cfg = cfg
        self.columns = columns
        self.rows: list[list] = []
        self.footer: dict = {}

    def add(self, *row) -> None:
        self.rows.append(list(row))

    def render(self, fmt: str) -> str:
        if fmt == "json":
            doc = {
                "tool": "cnoidal-kdv",
                "version": __version__,
                "command": self.command,
                "config": self.cfg,
                "columns": self.columns,
                "rows": [[_fmt(v) for v in row] for row in self.rows],
                "footer": {k: _fmt(v) for k, v in self.footer.items()},
            }
            return json.dumps(doc, indent=2, sort_keys=True) + "\n"
        lines = [
            f"# cnoidal-kdv {__version__} command={self.command}",
            f"# config: {json.dumps(self.cfg, sort_keys=True)}",
        ]
        lines.append(",".join(self.columns))
        # one % per run of rows whose cells have the same types
        for types, run in itertools.groupby(self.rows, key=lambda row: tuple(map(type, row))):
            run = list(run)
            fmt, all_float = _row_format(types)
            cells = [v for row in run for v in row]
            if not all_float:
                cells = [v if isinstance(v, float) else _fmt(v) for v in cells]
            lines.append("\n".join([fmt] * len(run)) % tuple(cells))
        for k, v in self.footer.items():
            lines.append(f"# {k} = {_fmt(v)}")
        return "\n".join(lines) + "\n"


def cmd_eval(cfg: dict, args) -> tuple[Report, int]:
    curve = _build_curve(cfg)
    spectrum = _build_spectrum(cfg, curve)
    ctx = tau.build_context(curve, spectrum)
    xs, ts = _grid(cfg)
    rep = Report("eval", cfg, ["x", "t", "u", "tau", "detG"])
    x_cells = xs.tolist()
    for t, (u_row, tau_row, det_row) in zip(ts.tolist(), tau._eval_rows(ctx, xs, ts)):
        rep.rows += map(list, zip(x_cells, itertools.repeat(t), u_row.tolist(),
                                  tau_row.tolist(), det_row.tolist()))
    return rep, 0


def _verify_pde(cfg, ctx, tol, rep):
    xs, ts = _grid(cfg)
    if ts.size < 2:
        raise ConfigError("pde verification needs grid.nt >= 2")
    resid = tau.kdv_residual(ctx, (xs[0], xs[-1]), xs.size, (ts[0], ts[-1]), ts.size)
    ok = resid < tol
    rep.add("pde", f"nx={xs.size};nt={ts.size}", resid, tol, ok)
    return ok


def _lattice_inputs(cfg: dict, vcfg: dict, args, n: int,
                    default_eps: list) -> tuple[list, int]:
    """verify.epsilons and the radius of the genus n + 1 lattice sums, checked."""
    eps_list = vcfg.get("epsilons", default_eps)
    with _reading("verify.epsilons"):
        if not eps_list or not all(0.0 < float(eps) < 1.0 for eps in eps_list):
            raise ConfigError("verify.epsilons must be a non-empty list in (0, 1)")
    radius = args.radius if args.radius is not None else _whole(cfg.get("radius", 6), "radius")
    if radius < 0 or (2 * radius + 1) ** (n + 1) > riemann._LATTICE_MAX:
        raise ConfigError(f"radius = {radius}: lattice box (2*{radius}+1)^{n + 1} too large")
    return eps_list, radius


def _verify_degeneration(cfg, vcfg, ctx, tol, rng, args, rep):
    spectrum = ctx.spectrum
    n = len(spectrum)
    eps_list, radius = _lattice_inputs(cfg, vcfg, args, n, _DEFAULT_EPS_DEGEN)
    psis = 1j * rng.uniform(-0.5, 0.5, size=n)
    beta = rng.uniform(0.0, 1.0)
    x_phase = np.concatenate([psis, [beta]])
    resids = riemann._degeneration_residuals(x_phase, spectrum, eps_list, radius)
    for eps, resid in zip(eps_list, resids):
        rep.add("degeneration", f"epsilon={_fmt(float(eps))}", resid, tol, resid < tol)
    monotone = all(a > b for a, b in zip(resids, resids[1:]))
    rep.add("degeneration", "monotone-decreasing", float(not monotone), 0.5, monotone)
    return monotone and resids[-1] < tol


def _verify_fay(vcfg, curve, tol, rng, rep):
    n = _count(vcfg, "fay_n", 3)
    trials = _count(vcfg, "trials", 50)
    draws = [(rng.uniform(0, 1, n) + 1j * rng.uniform(0, 0.3, n),
              rng.uniform(0, 1, n) + 1j * rng.uniform(0, 0.3, n),
              rng.uniform(0, 1) + 0.1j) for _ in range(trials)]
    xs, xh, e_pts = (np.array(side) for side in zip(*draws))
    worst = max([0.0, *riemann._fay_residuals(n, xs, xh, e_pts, curve).tolist()])
    ok = worst < tol
    rep.add("fay", f"n={n};trials={trials}", worst, tol, ok)
    return ok


def _verify_montecarlo(cfg, vcfg, ctx, rng_seed, args, rep):
    eps_list, radius = _lattice_inputs(cfg, vcfg, args, len(ctx.spectrum), _DEFAULT_EPS_MC)
    trials = _count(vcfg, "trials", 200)
    xs, ts = _grid(cfg)
    means = riemann.random_phase_mc(ctx.spectrum, eps_list, trials, rng_seed,
                                    xs, [float(ts[0])], radius)
    for eps, mean in zip(eps_list, means):
        rep.add("montecarlo", f"epsilon={_fmt(float(eps))};trials={trials}",
                float(mean), np.inf, True)
    monotone = all(a > b for a, b in zip(means, means[1:]))
    rep.add("montecarlo", "monotone-decreasing", float(not monotone), 0.5, monotone)
    return monotone


def cmd_verify(cfg: dict, args) -> tuple[Report, int]:
    vcfg = _section(cfg, "verify")
    which = vcfg.get("which")
    if which not in ("pde", "degeneration", "fay", "montecarlo"):
        raise ConfigError("verify.which must be pde|degeneration|fay|montecarlo")
    curve = _build_curve(cfg)
    ctx = tau.build_context(curve, _build_spectrum(cfg, curve))
    with _reading("seed"):
        seed = args.seed if args.seed is not None else _whole(cfg.get("seed", 0), "seed")
        rng = np.random.default_rng(seed)
    tol = args.tol if args.tol is not None else _DEFAULT_TOL.get(which, 1e-9)
    rep = Report("verify", cfg, ["check", "parameters", "residual", "tolerance", "pass"])
    if which == "pde":
        ok = _verify_pde(cfg, ctx, tol, rep)
    elif which == "degeneration":
        ok = _verify_degeneration(cfg, vcfg, ctx, tol, rng, args, rep)
    elif which == "fay":
        ok = _verify_fay(vcfg, curve, tol, rng, rep)
    else:
        ok = _verify_montecarlo(cfg, vcfg, ctx, seed, args, rep)
    return rep, 0 if ok else 4


def cmd_dynamics(cfg: dict, args) -> tuple[Report, int]:
    dcfg = _section(cfg, "dynamics")
    mode = dcfg.get("mode", "velocity")
    curve = _build_curve(cfg)
    spectrum = _build_spectrum(cfg, curve)
    if mode == "velocity":
        rep = Report("dynamics", cfg, ["beta", "kind", "V", "P", "E"])
        for e in spectrum.entries:
            v = dynamics.group_velocity(e.point, curve)
            rep.add(e.beta, e.point.kind, v, e.P, e.E)
        return rep, 0
    if mode == "shifts":
        sched = dynamics.total_shift_schedule(spectrum)
        rep = Report("dynamics", cfg, ["beta", "kind", "V", "total_shift"])
        for e, s in zip(spectrum.entries, sched):
            rep.add(e.beta, e.point.kind, e.velocity, s)
        return rep, 0
    if mode == "track":
        if len(spectrum) != 1:
            raise ConfigError("track mode needs exactly one soliton")
        with _reading("dynamics.norming"):
            norming = float(dcfg.get("norming", 1.0))
        _, ts = _grid(cfg)
        try:
            phis = dynamics.track_phase(spectrum.entries[0].point, curve, norming, ts)
        except InvalidNorming as exc:
            raise ConfigError(f"dynamics.norming: {exc}") from exc
        rep = Report("dynamics", cfg, ["t", "Phi"])
        for t, phi in zip(ts, phis):
            rep.add(float(t), float(phi))
        return rep, 0
    raise ConfigError("dynamics.mode must be velocity|shifts|track")


def _gas_model_from_config(cfg: dict, curve, nodes_override=None):
    if "gas" not in cfg:
        raise ConfigError("config needs a 'gas' entry")
    gcfg = _section(cfg, "gas")
    intervals = []
    for iv in _objects(gcfg, "support"):
        with _reading("gas.support"):            # an interval checks its own ends
            if "b_lo" in iv:
                intervals.append(gas.interval_from_physical(
                    curve, float(iv["b_lo"]), float(iv["b_hi"])))
                continue
            kind = iv.get("kind", "hot")
            if kind not in ("hot", "cool"):
                raise ConfigError(f"unknown support kind {kind!r}")
            intervals.append(gas.GasInterval(1 if kind == "cool" else 0,
                                             float(iv["lo"]), float(iv["hi"])))
    if not intervals:
        raise ConfigError("gas.support must not be empty")
    with _reading("gas"):                        # the node count and the sign of sigma
        nodes = nodes_override or _whole(gcfg.get("nodes", 64), "gas.nodes")
        return gas.build_model(curve, intervals, float(gcfg.get("sigma", 1.0)), nodes)


def cmd_gas(cfg: dict, args) -> tuple[Report, int]:
    curve = _build_curve(cfg)
    model = gas.ndr_solve(_gas_model_from_config(cfg, curve))
    rep = Report("gas", cfg, ["eta", "u", "v", "s", "s0"])
    columns = (model.betas, model.solved_u, model.solved_v, model.speeds,
               gas.free_speeds(model))
    rep.rows += map(list, zip(*(col.tolist() for col in columns)))
    rep.footer["k_tilde"], rep.footer["w_tilde"] = gas.carrier_quantities(model)
    rep.footer["eos_residual"] = gas.equation_of_state_residual(model)
    if args.double_nodes:
        fine = gas.ndr_solve(_gas_model_from_config(
            cfg, curve, nodes_override=2 * (model.n_per_interval - 1) + 1))
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
        cfg = _load_config(args.config)
        rep, code = handlers[args.command](cfg, args)
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
