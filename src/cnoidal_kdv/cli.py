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


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{v:.17g}"
    if isinstance(v, complex):
        return f"{v.real:.17g}{v.imag:+.17g}j"
    return str(v)


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
    cv = cfg["curve"]
    try:
        return half_periods(float(cv["e1"]), float(cv["e2"]), float(cv["e3"]))
    except KeyError as exc:
        raise ConfigError(f"curve entry missing {exc}") from exc


def _build_spectrum(cfg: dict, curve):
    points = []
    for sol in cfg.get("solitons", []):
        x_shift = float(sol.get("x_shift", 0.0))
        if "b" in sol:
            points.append((invert_wp(float(sol["b"]), curve), x_shift))
        elif "beta" in sol:
            kind = sol.get("kind", "hot")
            if kind not in ("hot", "cool"):
                raise ConfigError(f"unknown soliton kind {kind!r}")
            r = float(sol["beta"])
            if not 0.0 < r < 0.5:
                raise ConfigError(f"soliton beta = {r} outside (0, 1/2)")
            chi = 1 if kind == "cool" else 0
            beta = r + chi * curve.tau / 2.0
            points.append((JacobianPoint(beta=beta, chi=chi), x_shift))
        else:
            raise ConfigError("each soliton needs 'b' or 'beta'+'kind'")
    x0 = float(cfg.get("x0", 0.0))
    return tau.spectrum_from_points(curve, points, x0=x0)


def _grid(cfg: dict):
    g = cfg.get("grid")
    if g is None:
        raise ConfigError("config needs a 'grid' entry")
    try:
        xmin, xmax, nx = float(g["xmin"]), float(g["xmax"]), int(g["nx"])
        tmin, tmax, nt = float(g["tmin"]), float(g["tmax"]), int(g["nt"])
    except KeyError as exc:
        raise ConfigError(f"grid entry missing {exc}") from exc
    if nx < 2 or nt < 1:
        raise ConfigError("grid needs nx >= 2 and nt >= 1")
    for v in (xmin, xmax, tmin, tmax):
        if not np.isfinite(v):
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
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        for k, v in self.footer.items():
            lines.append(f"# {k} = {_fmt(v)}")
        return "\n".join(lines) + "\n"


def cmd_eval(cfg: dict, args) -> tuple[Report, int]:
    curve = _build_curve(cfg)
    spectrum = _build_spectrum(cfg, curve)
    ctx = tau.build_context(curve, spectrum)
    xs, ts = _grid(cfg)
    rep = Report("eval", cfg, ["x", "t", "u", "tau", "detG"])
    for t in ts:
        u_row = tau.u_grid(ctx, xs, float(t))
        tau_row, det_row = tau.tau_grid(ctx, xs, float(t))
        for x, u, tv, dv in zip(xs, u_row, tau_row, det_row):
            rep.add(x, float(t), u, tv, dv)
    return rep, 0


def _verify_pde(cfg, ctx, tol, rep):
    xs, ts = _grid(cfg)
    if ts.size < 2:
        raise ConfigError("pde verification needs grid.nt >= 2")
    resid = tau.kdv_residual(ctx, (xs[0], xs[-1]), xs.size, (ts[0], ts[-1]), ts.size)
    ok = resid < tol
    rep.add("pde", f"nx={xs.size};nt={ts.size}", resid, tol, ok)
    return ok


def _verify_degeneration(cfg, ctx, tol, rng, radius, rep):
    spectrum = ctx.spectrum
    n = len(spectrum)
    eps_list = cfg.get("verify", {}).get("epsilons", _DEFAULT_EPS_DEGEN)
    psis = 1j * rng.uniform(-0.5, 0.5, size=n)
    beta = rng.uniform(0.0, 1.0)
    x_phase = np.concatenate([psis, [beta]])
    resids = []
    for eps in eps_list:
        spec = riemann.DegenerationSpec(epsilon=float(eps), spectrum=spectrum)
        resids.append(riemann.degeneration_residual(x_phase, spec, radius))
        rep.add("degeneration", f"epsilon={_fmt(float(eps))}", resids[-1], tol,
                resids[-1] < tol)
    monotone = all(a > b for a, b in zip(resids, resids[1:]))
    rep.add("degeneration", "monotone-decreasing", float(not monotone), 0.5, monotone)
    return monotone and resids[-1] < tol


def _verify_fay(cfg, curve, tol, rng, rep):
    vcfg = cfg.get("verify", {})
    n = int(vcfg.get("fay_n", 3))
    trials = int(vcfg.get("trials", 50))
    worst = 0.0
    for _ in range(trials):
        xs = rng.uniform(0, 1, n) + 1j * rng.uniform(0, 0.3, n)
        xh = rng.uniform(0, 1, n) + 1j * rng.uniform(0, 0.3, n)
        e_pt = rng.uniform(0, 1) + 0.1j
        worst = max(worst, riemann.fay_residual(n, xs, xh, e_pt, curve))
    ok = worst < tol
    rep.add("fay", f"n={n};trials={trials}", worst, tol, ok)
    return ok


def _verify_montecarlo(cfg, ctx, rng_seed, radius, rep):
    vcfg = cfg.get("verify", {})
    eps_list = vcfg.get("epsilons", _DEFAULT_EPS_MC)
    trials = int(vcfg.get("trials", 200))
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
    which = cfg.get("verify", {}).get("which")
    if which not in ("pde", "degeneration", "fay", "montecarlo"):
        raise ConfigError("verify.which must be pde|degeneration|fay|montecarlo")
    curve = _build_curve(cfg)
    spectrum = _build_spectrum(cfg, curve)
    ctx = tau.build_context(curve, spectrum)
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    radius = args.radius if args.radius is not None else int(cfg.get("radius", 6))
    rng = np.random.default_rng(seed)
    tol = args.tol if args.tol is not None else _DEFAULT_TOL.get(which, 1e-9)
    rep = Report("verify", cfg, ["check", "parameters", "residual", "tolerance", "pass"])
    if which == "pde":
        ok = _verify_pde(cfg, ctx, tol, rep)
    elif which == "degeneration":
        ok = _verify_degeneration(cfg, ctx, tol, rng, radius, rep)
    elif which == "fay":
        ok = _verify_fay(cfg, curve, tol, rng, rep)
    else:
        ok = _verify_montecarlo(cfg, ctx, seed, radius, rep)
    return rep, 0 if ok else 4


def cmd_dynamics(cfg: dict, args) -> tuple[Report, int]:
    mode = cfg.get("dynamics", {}).get("mode", "velocity")
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
        try:
            norming = float(cfg.get("dynamics", {}).get("norming", 1.0))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"dynamics.norming: {exc}") from exc
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
    gcfg = cfg.get("gas")
    if gcfg is None:
        raise ConfigError("config needs a 'gas' entry")
    intervals = []
    for iv in gcfg.get("support", []):
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
    nodes = nodes_override or int(gcfg.get("nodes", 64))
    sigma = float(gcfg.get("sigma", 1.0))
    return gas.build_model(curve, intervals, sigma, nodes)


def cmd_gas(cfg: dict, args) -> tuple[Report, int]:
    curve = _build_curve(cfg)
    model = gas.ndr_solve(_gas_model_from_config(cfg, curve))
    speeds = model.speeds
    s0 = gas.free_speeds(model)
    rep = Report("gas", cfg, ["eta", "u", "v", "s", "s0"])
    for i in range(model.nodes_r.size):
        rep.add(model.jacobian_point(i).beta, model.solved_u[i], model.solved_v[i],
                speeds[i], s0[i])
    k_t, w_t = gas.carrier_quantities(model)
    rep.footer["k_tilde"] = k_t
    rep.footer["w_tilde"] = w_t
    rep.footer["eos_residual"] = gas.equation_of_state_residual(model)
    if args.double_nodes:
        fine = gas.ndr_solve(_gas_model_from_config(
            cfg, curve, nodes_override=2 * (model.n_per_interval - 1) + 1))
        delta = float(np.max(np.abs(fine.solved_u[::2] - model.solved_u)))
        rep.footer["double_nodes_delta"] = delta
    return rep, 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cnoidal-kdv", description=__doc__)
    parser.add_argument("command", choices=["eval", "verify", "dynamics", "gas"])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--radius", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--double-nodes", action="store_true")
    args = parser.parse_args(argv)

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
