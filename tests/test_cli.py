"""Exit-code contract, determinism, and column semantics of the CLI."""

import argparse
import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cnoidal_kdv import cli
from cnoidal_kdv import tau as tu
from cnoidal_kdv.errors import CnoidalKdvError
from oracles import eval_oracle_cases, render_rows

BASE_CURVE = {"e1": 2.0, "e2": 1.0, "e3": -3.0}
# a CLI subprocess imports the package these tests import, installed or not
CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])))


def run_cli(tmp_path, cfg, *args):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    cmd = [sys.executable, "-m", "cnoidal_kdv.cli", *args[:1],
           "--config", str(path), *args[1:]]
    return subprocess.run(cmd, capture_output=True, text=True, env=CLI_ENV)


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def cnoidal_cfg(nx=200, nt=1, xmax=10.0, tmax=0.0):
    return {
        "curve": BASE_CURVE,
        "solitons": [],
        "grid": {"xmin": -xmax, "xmax": xmax, "nx": nx,
                 "tmin": 0.0, "tmax": tmax, "nt": nt},
    }


class TestEval:
    def test_cnoidal_u_periodic(self, tmp_path, curve):
        period = curve.period_x
        nx = 601
        cfg = cnoidal_cfg(nx=nx, xmax=3 * period)
        res = run_cli(tmp_path, cfg, "eval")
        assert res.returncode == 0
        header, rows = parse_csv(res.stdout)
        assert header == ["x", "t", "u", "tau", "detG"]
        xs = np.array([float(r[0]) for r in rows])
        us = np.array([float(r[2]) for r in rows])
        # resample u at x and x + period via interpolation
        shifted = np.interp(xs[xs <= xs.max() - period] + period, xs, us)
        base = us[xs <= xs.max() - period]
        assert np.max(np.abs(shifted - base)) < 1e-4

    def test_bright_travels_ten_units(self, tmp_path, curve, sp_bright):
        v = sp_bright.velocity[0]
        cfg = {
            "curve": BASE_CURVE,
            "solitons": [{"beta": 0.30, "kind": "hot"}],
            "grid": {"xmin": -16.0, "xmax": 16.0, "nx": 1601,
                     "tmin": -10.0 / abs(v), "tmax": 10.0 / abs(v), "nt": 3},
        }
        res = run_cli(tmp_path, cfg, "eval")
        assert res.returncode == 0
        _, rows = parse_csv(res.stdout)
        data = np.array([[float(c) for c in r] for r in rows])
        centers = []
        for t in sorted(set(data[:, 1])):
            block = data[data[:, 1] == t]
            centers.append(block[np.argmax(block[:, 2]), 0])
        # u-field argmax tracks the core up to background-phase jitter of
        # about half a background period per snapshot; the 10.0 +- 0.1
        # statement is checked through the phase tracker in the acceptance
        # suite, this is the field-level counterpart
        assert abs((centers[1] - centers[0]) - 10.0) < 1.5
        assert abs((centers[2] - centers[1]) - 10.0) < 1.5

    def test_dimbright_opposite_directions(self, tmp_path, sp_dimbright):
        by_kind = {pt.kind: v for pt, v in zip(sp_dimbright.points, sp_dimbright.velocity)}
        v_hot = by_kind["hot"]
        t_end = 30.0 / v_hot
        cfg = {
            "curve": BASE_CURVE,
            "solitons": [{"beta": 0.24, "kind": "cool"}, {"beta": 0.30, "kind": "hot"}],
            "grid": {"xmin": -60.0, "xmax": 45.0, "nx": 2101,
                     "tmin": -t_end, "tmax": t_end, "nt": 2},
        }
        res = run_cli(tmp_path, cfg, "eval")
        assert res.returncode == 0
        _, rows = parse_csv(res.stdout)
        data = np.array([[float(c) for c in r] for r in rows])
        ts = sorted(set(data[:, 1]))
        v_cool = by_kind["cool"]
        for t, sign in ((ts[0], -1.0), (ts[1], 1.0)):
            block = data[data[:, 1] == t]
            hot_core = block[np.argmax(block[:, 2]), 0]
            assert abs(hot_core - sign * 30.0) < 1.5
            # the dim soliton suppresses the local oscillation maxima near
            # its core (which moved the other way); the mirror position shows
            # the unsuppressed background
            dim_region = block[np.abs(block[:, 0] - v_cool * t) < 3.0]
            mirror = block[np.abs(block[:, 0] + v_cool * t) < 3.0]
            assert np.max(dim_region[:, 2]) < 0.85
            assert np.max(mirror[:, 2]) > 0.95

    def test_deterministic_output(self, tmp_path):
        cfg = cnoidal_cfg(nx=40)
        a = run_cli(tmp_path, cfg, "eval", "--seed", "3")
        b = run_cli(tmp_path, cfg, "eval", "--seed", "3")
        assert a.stdout == b.stdout

    def test_json_format(self, tmp_path):
        cfg = cnoidal_cfg(nx=8)
        res = run_cli(tmp_path, cfg, "eval", "--format", "json")
        doc = json.loads(res.stdout)
        assert doc["columns"] == ["x", "t", "u", "tau", "detG"]
        assert len(doc["rows"]) == 8
        assert doc["version"]

    def test_out_file(self, tmp_path):
        cfg = cnoidal_cfg(nx=8)
        out = tmp_path / "result.csv"
        res = run_cli(tmp_path, cfg, "eval", "--out", str(out))
        assert res.returncode == 0 and res.stdout == ""
        assert out.read_text().startswith("# cnoidal-kdv")


def three_soliton_cfg(nt=2):
    return {"curve": BASE_CURVE,
            "solitons": [{"beta": 0.30, "kind": "hot", "x_shift": -1.5},
                         {"beta": 0.24, "kind": "cool"},
                         {"b": -4.0, "x_shift": 2.0}],
            "grid": {"xmin": -8.0, "xmax": 8.0, "nx": 41, "tmin": -0.5, "tmax": 0.5, "nt": nt}}


class TestEvalPath:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_rows_match_u_grid_and_tau_grid(self, tmp_path, capsys, n):
        # tau and det(1+G) are tau_grid's bytes and u the subset sum's (u_grid's);
        # the stencil u_field agrees to its own truncation
        cfg = three_soliton_cfg()
        cfg["solitons"] = cfg["solitons"][:n]
        path = tmp_path / "eval.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["eval", "--config", str(path)]) == 0
        rows = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
        _, cfg = cli._load_config(str(path))
        curve = cli._build_curve(cfg)
        sp = cli._build_spectrum(cfg, curve)
        xs, ts = cli._grid(cfg)
        want = []
        for t in ts:
            u_row = tu.u_grid(sp, xs, float(t))
            tau_row, det_row = tu.tau_grid(sp, xs, float(t))
            want += [",".join(cli._fmt(v) for v in (x, float(t), u, tv, dv))
                     for x, u, tv, dv in zip(xs, u_row, tau_row, det_row)]
            stencil = tu.u_field(sp, xs, [float(t)])[0]
            assert np.max(np.abs(u_row - stencil)) < 1e-7
        assert rows[1:] == want

    def test_one_subset_setup_per_op(self, tmp_path, capsys, monkeypatch, series_calls,
                                     grid_calls):
        cfg = three_soliton_cfg(nt=2)
        path = tmp_path / "eval.json"
        path.write_text(json.dumps(cfg))
        _, cfg = cli._load_config(str(path))
        curve = cli._build_curve(cfg)
        cli._build_spectrum(cfg, curve)
        spectrum_passes = len(series_calls)
        setups = []
        original = tu._subset_tables
        monkeypatch.setattr(tu, "_a_tensor", lambda *args: pytest.fail("A tensor built"))
        monkeypatch.setattr(tu, "_subset_tables",
                            lambda spectrum: setups.append(1) or original(spectrum))
        grid_calls.clear()
        assert cli.main(["eval", "--config", str(path)]) == 0
        capsys.readouterr()
        # one subset setup and its one theta1 table for both t, and no theta
        # series pass beyond those that build the spectrum
        assert setups == [1] and len(grid_calls) == 1
        assert len(series_calls) == 2 * spectrum_passes

    def test_csv_rows_match_cellwise_fmt(self):
        values = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 1e-310,
                  2.2250738585072014e-308, 0.1, -1.5e300, 1.0 / 3.0]
        rep = cli.Report("eval", {"k": 1}, ["a", "b", "c", "d", "e"])
        rep.runs.append([values, [np.float64(v) for v in values],
                         [np.float64(-v) for v in values], [0.5] * 11, [2.0] * 11])
        rep.runs.append([[np.float32(1.5), "pde"], [1 + 2j, "nx=4;nt=2%s"],
                         [np.complex128(1 - 1j), np.float64(3.0)], [True, np.int64(7)],
                         [None, False]])
        rep.footer["k_tilde"] = np.float64(0.25)
        lines = rep.render("csv").splitlines()
        rows = [row for run in rep.runs for row in zip(*run)]
        assert lines[3:3 + len(rows)] == [",".join(cli._fmt(v) for v in row) for row in rows]
        assert lines[-1] == "# k_tilde = 0.25"

    @pytest.mark.parametrize("nt", [1, 2])
    def test_runs_render_as_their_rows(self, nt):
        # columns (float arrays, lists of cells, shared cells) give the bytes of
        # the same cells handed over row by row, in CSV and JSON: inf, -0.0,
        # subnormals and either side of %g's switches at 1e-5 and 1e17, and
        # complex, str, bool and None cells
        values = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 1e-310,
                           2.2250738585072014e-308, 9.999999999999999e-06, 1e-05,
                           1.0000000000000001e-05, 9.999999999999998e16, 1e17,
                           1.0000000000000002e17, 0.1, 1.0 / 3.0, -1.5e300])
        cells = np.empty(values.size, dtype=complex)
        cells.real, cells.imag = values, values[::-1]
        words = ["hot", "cool", "100%", "%s", "a,b"]
        runs = []
        for j, t in enumerate([9.999999999999999e-06, 1e17][:nt]):
            x, u, tv, dv = (np.roll(values, j + shift) for shift in range(4))
            runs.append([x, t, -u, tv, dv])
            runs.append([x, np.roll(cells, j), [bool(v > 0) for v in u], "50%", dv])
            runs.append([[words[(k + j) % 5] for k in range(values.size)], np.bool_(j),
                         (-u).tolist(), [np.float64(v) for v in tv], [None] * values.size])
        runs.append([[], 1.0, [], [], []])
        rows = []
        for run in runs:
            size = max(len(c) for c in run if isinstance(c, (np.ndarray, list)))
            rows += zip(*(c.tolist() if isinstance(c, np.ndarray) else
                          c if isinstance(c, list) else [c] * size for c in run))
        rep = cli.Report("eval", {"k": 1}, ["x", "t", "u", "tau", "detG"])
        rep.runs = runs
        rep.footer["delta"] = -0.0
        for fmt in ("csv", "json"):
            assert rep.render(fmt) == render_rows("eval", {"k": 1}, rep.columns, rows,
                                                  rep.footer, fmt)
        assert len(rep.render("csv").splitlines()) == 4 + 3 * nt * values.size


class TestVerify:
    def test_fay_passes(self, tmp_path):
        cfg = {"curve": BASE_CURVE,
               "grid": {"xmin": -1, "xmax": 1, "nx": 2, "tmin": 0, "tmax": 0, "nt": 1},
               "verify": {"which": "fay", "fay_n": 3, "trials": 50}, "seed": 1}
        res = run_cli(tmp_path, cfg, "verify")
        assert res.returncode == 0
        _, rows = parse_csv(res.stdout)
        assert float(rows[0][2]) < 1e-9

    def test_fay_gate_enforced(self, tmp_path):
        cfg = {"curve": BASE_CURVE,
               "grid": {"xmin": -1, "xmax": 1, "nx": 2, "tmin": 0, "tmax": 0, "nt": 1},
               "verify": {"which": "fay", "fay_n": 4, "trials": 10}, "seed": 1}
        res = run_cli(tmp_path, cfg, "verify", "--tol", "1e-22")
        assert res.returncode == 4

    def test_pde_cnoidal(self, tmp_path, curve):
        nx = int(round(20.0 / (curve.period_x / 64.0))) + 1
        cfg = {"curve": BASE_CURVE, "solitons": [],
               "grid": {"xmin": -10, "xmax": 10, "nx": nx,
                        "tmin": -0.1, "tmax": 0.1, "nt": 21},
               "verify": {"which": "pde"}}
        res = run_cli(tmp_path, cfg, "verify", "--tol", "1e-4")
        assert res.returncode == 0

    def test_montecarlo_small(self, tmp_path):
        cfg = {"curve": BASE_CURVE,
               "solitons": [{"beta": 0.30, "kind": "hot"}, {"beta": 0.24, "kind": "cool"}],
               "grid": {"xmin": -5, "xmax": 5, "nx": 21, "tmin": 0, "tmax": 0, "nt": 1},
               "verify": {"which": "montecarlo", "epsilons": [1e-2, 1e-3, 1e-4],
                          "trials": 8},
               "seed": 7}
        res = run_cli(tmp_path, cfg, "verify")
        assert res.returncode == 0
        _, rows = parse_csv(res.stdout)
        means = [float(r[2]) for r in rows if r[1].startswith("epsilon")]
        assert means[0] > means[1] > means[2]

    def test_degeneration_monotone_column(self, tmp_path):
        cfg = {"curve": BASE_CURVE,
               "solitons": [{"beta": 0.30, "kind": "hot"}],
               "grid": {"xmin": -1, "xmax": 1, "nx": 2, "tmin": 0, "tmax": 0, "nt": 1},
               "verify": {"which": "degeneration", "epsilons": [1e-2, 1e-4, 1e-6]},
               "seed": 5}
        res = run_cli(tmp_path, cfg, "verify")
        assert res.returncode == 0
        _, rows = parse_csv(res.stdout)
        resids = [float(r[2]) for r in rows if r[1].startswith("epsilon")]
        assert resids[0] > resids[1] > resids[2]

    def test_degeneration_one_fredholm_factor_per_op(self, tmp_path, capsys, monkeypatch):
        from cnoidal_kdv import riemann
        calls = []

        def counting(*args, _fn=riemann.fredholm_factor):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(riemann, "fredholm_factor", counting)
        cfg = {"curve": BASE_CURVE,
               "solitons": [{"beta": 0.30, "kind": "hot"}, {"beta": 0.24, "kind": "cool"}],
               "grid": {"xmin": -1, "xmax": 1, "nx": 2, "tmin": 0, "tmax": 0, "nt": 1},
               "verify": {"which": "degeneration", "epsilons": [1e-2, 1e-3, 1e-4, 1e-6]},
               "seed": 5}
        path = tmp_path / "degeneration.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["verify", "--config", str(path)]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert sum(r[1].startswith("epsilon") for r in rows) == 4
        assert len(calls) == 1


class TestDynamics:
    def test_velocity_mode(self, tmp_path):
        cfg = {"curve": BASE_CURVE,
               "solitons": [{"beta": 0.24, "kind": "cool"}],
               "grid": {"xmin": -1, "xmax": 1, "nx": 2, "tmin": 0, "tmax": 0, "nt": 1},
               "dynamics": {"mode": "velocity"}}
        res = run_cli(tmp_path, cfg, "dynamics")
        assert res.returncode == 0
        _, rows = parse_csv(res.stdout)
        assert rows[0][1] == "cool"
        assert abs(float(rows[0][2]) - (-8.99139)) < 1e-3

    def test_velocity_mode_p_and_e_bytes(self, tmp_path):
        # P and E print with a +0.0 real part: a hot soliton's E lies in i R_-,
        # where 1j * Im E alone would print -0-10.508789300754623j
        cfg = {"curve": BASE_CURVE, "solitons": ONE_HOT, "dynamics": {"mode": "velocity"}}
        row = ["0.29999999999999999+0j", "hot", "6.8273864540001545",
               "0+1.5392111420025947j", "0-10.508789300754623j"]
        code, out, _ = run_main(tmp_path / "config.json", "dynamics", cfg)
        assert code == 0 and out.splitlines()[3:] == [",".join(row)]
        path = tmp_path / "config.json"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["dynamics", "--config", str(path), "--format", "json"]) == 0
        assert json.loads(out.getvalue())["rows"] == [row]

    @pytest.mark.parametrize("soliton", [{"beta": 0.30, "kind": "hot"},
                                         {"beta": 0.24, "kind": "cool"}])
    def test_velocity_and_shifts_modes_print_one_v(self, tmp_path, soliton):
        # both modes print the spectrum's V = -E/P, digit for digit
        texts = {}
        for mode in ("velocity", "shifts"):
            cfg = {"curve": BASE_CURVE, "solitons": [soliton], "dynamics": {"mode": mode}}
            code, out, _ = run_main(tmp_path / f"{mode}.json", "dynamics", cfg)
            header, rows = parse_csv(out)
            assert code == 0 and header[2] == "V"
            texts[mode] = rows[0][2]
        assert texts["velocity"] == texts["shifts"]

    def test_shifts_mode(self, tmp_path):
        cfg = {"curve": BASE_CURVE,
               "solitons": [{"beta": 0.25, "kind": "cool"}, {"beta": 0.36, "kind": "cool"}],
               "grid": {"xmin": -1, "xmax": 1, "nx": 2, "tmin": 0, "tmax": 0, "nt": 1},
               "dynamics": {"mode": "shifts"}}
        res = run_cli(tmp_path, cfg, "dynamics")
        assert res.returncode == 0
        _, rows = parse_csv(res.stdout)
        shifts = {float(r[0].split("+")[0]): float(r[3]) for r in rows}
        assert abs(shifts[0.25] - (-17.32)) < 1e-2
        assert abs(shifts[0.36] - 22.878) < 1e-2

    def test_track_mode_zero_mean(self, tmp_path, curve, sp_bright):
        v = sp_bright.velocity[0]
        period = curve.period_x / v
        n = 64
        cfg = {"curve": BASE_CURVE,
               "solitons": [{"beta": 0.30, "kind": "hot"}],
               "grid": {"xmin": -1, "xmax": 1, "nx": 2,
                        "tmin": 0.5 * period / n, "tmax": period * (1 - 0.5 / n), "nt": n},
               "dynamics": {"mode": "track", "norming": 1.0}}
        res = run_cli(tmp_path, cfg, "dynamics")
        assert res.returncode == 0
        _, rows = parse_csv(res.stdout)
        phis = np.array([float(r[1]) for r in rows])
        assert abs(np.mean(phis)) < 1e-4


class TestGasCommand:
    def test_dilute_speeds(self, tmp_path):
        cfg = {"curve": BASE_CURVE,
               "gas": {"support": [{"kind": "hot", "lo": 0.15, "hi": 0.40}],
                       "sigma": 1e6, "nodes": 48}}
        res = run_cli(tmp_path, cfg, "gas")
        assert res.returncode == 0
        _, rows = parse_csv(res.stdout)
        for r in rows:
            assert abs(float(r[3]) - float(r[4])) < 1e-4

    def test_zero_density_footer(self, tmp_path, curve):
        cfg = {"curve": BASE_CURVE,
               "gas": {"support": [{"kind": "hot", "lo": 0.2, "hi": 0.3}],
                       "sigma": 1e12, "nodes": 16}}
        res = run_cli(tmp_path, cfg, "gas")
        footer = {ln.split(" = ")[0][2:]: float(ln.split(" = ")[1])
                  for ln in res.stdout.splitlines() if ln.startswith("# ")
                  and " = " in ln}
        expect = 2.0 * np.pi / (2.0 * abs(curve.varpi3))
        assert abs(footer["k_tilde"] - expect) < 1e-9
        assert abs(footer["w_tilde"]) < 1e-9

    def test_double_nodes_flag(self, tmp_path):
        cfg = {"curve": BASE_CURVE,
               "gas": {"support": [{"kind": "hot", "lo": 0.2, "hi": 0.3}],
                       "sigma": 1.0, "nodes": 33}}
        res = run_cli(tmp_path, cfg, "gas", "--double-nodes")
        assert res.returncode == 0
        assert "double_nodes_delta" in res.stdout
        delta = [float(ln.split(" = ")[1]) for ln in res.stdout.splitlines()
                 if ln.startswith("# double_nodes_delta")][0]
        assert 0.0 < delta < 1e-3


def gas_cfg(support=None, **gas):
    support = support or [{"kind": "hot", "lo": 0.2, "hi": 0.3}]
    return {"curve": BASE_CURVE, "gas": {"support": support, "sigma": 1.0, "nodes": 16, **gas}}


def verify_cfg(n, **verify):
    solitons = [{"beta": 0.30, "kind": "hot"}, {"beta": 0.24, "kind": "cool"},
                {"beta": 0.20, "kind": "hot"}]
    return {"curve": BASE_CURVE, "solitons": solitons[:n],
            "grid": {"xmin": -1, "xmax": 1, "nx": 2, "tmin": 0, "tmax": 0, "nt": 1},
            "verify": {"which": "degeneration", **verify}, "seed": 1}


class TestExitCodes:
    def test_missing_config(self, tmp_path):
        cmd = [sys.executable, "-m", "cnoidal_kdv.cli", "eval",
               "--config", str(tmp_path / "absent.json")]
        assert subprocess.run(cmd, capture_output=True, env=CLI_ENV).returncode == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        cmd = [sys.executable, "-m", "cnoidal_kdv.cli", "eval", "--config", str(path)]
        assert subprocess.run(cmd, capture_output=True, env=CLI_ENV).returncode == 2

    def test_bad_grid(self, tmp_path):
        cfg = cnoidal_cfg()
        cfg["grid"]["nx"] = 1
        assert run_cli(tmp_path, cfg, "eval").returncode == 2

    def test_numeric_error_names_module_error(self, tmp_path):
        cfg = cnoidal_cfg(nx=8)
        cfg["solitons"] = [{"b": 0.0}]  # inside the band gap
        res = run_cli(tmp_path, cfg, "eval")
        assert res.returncode == 3
        assert "SpectrumInGap" in res.stderr

    @pytest.mark.parametrize("key", ["b", "beta", "x_shift", "x0"])
    def test_non_finite_spectrum_value(self, tmp_path, capsys, key):
        cfg = cnoidal_cfg(nx=8)
        cfg["solitons"] = [{"beta": 0.30, "kind": "hot"}]
        if key == "x0":
            cfg["x0"] = float("nan")
        else:
            cfg["solitons"][0][key] = float("nan")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["eval", "--config", str(path)]) == 2
        assert "is not finite" in capsys.readouterr().err

    def test_pair_overflow_rows_are_finite(self, tmp_path, capsys):
        # at t = 0.5 the largest phase exponent is 507 and ln det(1 + G)
        # reaches 1035: u is the oracle's, and a tau or detG cell is inf only
        # where its logarithm exceeds ln(DBL_MAX), never nan (det(1 + G) once
        # printed 391 nan rows with exit 0, then raised PhaseOverflow)
        doc = {"curve": BASE_CURVE,
               "solitons": [{"b": -3.592068, "x_shift": 3.84852},
                            {"beta": 0.056844, "kind": "hot", "x_shift": -4.43772}],
               "grid": {"xmin": -20.0, "xmax": 20.0, "nx": 600,
                        "tmin": 0.0, "tmax": 0.5, "nt": 2}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["eval", "--config", str(path)]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        data = np.array([[float(c) for c in r] for r in rows])
        assert not np.any(np.isnan(data))
        _, cfg = cli._load_config(str(path))
        curve = cli._build_curve(cfg)
        sp = cli._build_spectrum(cfg, curve)
        xs, ts = cli._grid(cfg)
        log_max = np.log(np.finfo(float).max)
        for k, t in enumerate(ts):
            _, log_tau, log_det = next(tu._subset_sums(sp, xs, [float(t)]))
            block = data[k * xs.size:(k + 1) * xs.size]
            assert np.array_equal(np.isinf(block[:, 3]), log_tau > log_max)
            assert np.array_equal(np.isinf(block[:, 4]), log_det > log_max)
        assert np.any(np.isinf(data[:, 4])) and np.max(log_det) > 1000.0
        # the benchmark's pool member eval-N2-hot-b-6, with oracle values at
        # xmin, a seeded x and the largest |u - u_background| of each t
        (pool_cfg, samples), = [case[1:] for case in eval_oracle_cases()
                                if case[0] == "eval-N2-hot-b-6"]
        assert pool_cfg == doc and len(samples) == 4
        for x, t, want in samples:
            u = data[(data[:, 0] == x) & (data[:, 1] == t), 2]
            assert abs(u[0] - want) <= 1e-13 * max(1.0, abs(want))

    def test_seventeen_solitons_refused_at_once(self, tmp_path, capsys):
        # the subset sum takes at most 16 solitons; 17 used to run the dense path
        cfg = cnoidal_cfg(nx=400)
        cfg["solitons"] = [{"beta": 0.06 + 0.022 * k, "kind": "hot"} for k in range(17)]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        start = time.perf_counter()
        assert cli.main(["eval", "--config", str(path)]) == 3
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("TooManySolitons")

    def test_far_montecarlo_grid_overflows_at_once(self, tmp_path, capsys):
        # the demo config with xmin = -1e9: its span holds 2.5e7 lattice blocks of
        # which 41 hold points, and a scan of every block took about 42 s
        cfg = json.loads((Path(__file__).resolve().parents[1]
                          / "demos/configs/montecarlo.json").read_text())
        cfg["grid"]["xmin"] = -1e9
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        start = time.perf_counter()
        assert cli.main(["verify", "--config", str(path)]) == 3
        assert time.perf_counter() - start < 5.0
        assert capsys.readouterr().err.startswith("PhaseOverflow")

    def test_track_mode_needs_one_soliton(self, tmp_path):
        cfg = {"curve": BASE_CURVE,
               "solitons": [{"beta": 0.25, "kind": "cool"}, {"beta": 0.36, "kind": "cool"}],
               "grid": {"xmin": -1, "xmax": 1, "nx": 2, "tmin": 0, "tmax": 1, "nt": 3},
               "dynamics": {"mode": "track"}}
        assert run_cli(tmp_path, cfg, "dynamics").returncode == 2

    def test_verify_failure_is_4(self, tmp_path):
        cfg = {"curve": BASE_CURVE,
               "grid": {"xmin": -1, "xmax": 1, "nx": 2, "tmin": 0, "tmax": 0, "nt": 1},
               "verify": {"which": "fay", "fay_n": 2, "trials": 5}, "seed": 1}
        res = run_cli(tmp_path, cfg, "verify", "--tol", "1e-25")
        assert res.returncode == 4

    @pytest.mark.parametrize("command, cfg", [
        pytest.param("gas", gas_cfg([{"kind": "hot", "lo": 0.3, "hi": 0.2}]), id="lo>hi"),
        pytest.param("gas", gas_cfg(nodes=4), id="nodes=4"),
        pytest.param("gas", gas_cfg(sigma=-1), id="sigma<0"),
        pytest.param("gas", gas_cfg([{"kind": "hot", "lo": 0.2}]), id="no-hi"),
        pytest.param("gas", gas_cfg([{"b_lo": -4.0, "b_hi": -5.0}]), id="b_lo>b_hi"),
        pytest.param("verify", verify_cfg(1, epsilons=[2.0]), id="epsilon=2"),
        pytest.param("verify", verify_cfg(1, epsilons=[]), id="no-epsilons"),
        pytest.param("verify", dict(verify_cfg(3), radius=400), id="radius=400"),
        pytest.param("eval", dict(cnoidal_cfg(), grid=dict(cnoidal_cfg()["grid"], nx="a")),
                     id="nx=a"),
        pytest.param("verify", dict(verify_cfg(1, which="fay"), seed="a"), id="seed=a"),
        pytest.param("verify", dict(verify_cfg(1, which="fay"), seed=-1), id="seed=-1"),
        pytest.param("verify", verify_cfg(1, which="fay", trials="a"), id="trials=a"),
        pytest.param("verify", verify_cfg(1, which="fay", fay_n="a"), id="fay_n=a"),
        pytest.param("verify", verify_cfg(1, which="fay", fay_n=0), id="fay_n=0"),
        pytest.param("verify", verify_cfg(1, which="fay", trials=0), id="fay-trials=0"),
        pytest.param("verify", verify_cfg(1, which="montecarlo", trials=0), id="mc-trials=0"),
        pytest.param("verify", verify_cfg(1, which="fay", fay_n=2.9), id="fay_n=2.9"),
        pytest.param("verify", verify_cfg(1, which="fay", trials=1.5), id="trials=1.5"),
        pytest.param("verify", verify_cfg(1, which="fay", fay_n=True), id="fay_n=true"),
        pytest.param("verify", dict(verify_cfg(1, which="fay"), seed=1.5), id="seed=1.5"),
        pytest.param("verify", dict(verify_cfg(1), radius=2.5), id="radius=2.5"),
        # radius 0 once divided by a zero rate, and the NaN passed the reality gate
        pytest.param("verify", dict(verify_cfg(1, which="montecarlo"), radius=0),
                     id="radius=0"),
        pytest.param("eval", dict(cnoidal_cfg(), grid=dict(cnoidal_cfg()["grid"], nx=2.5)),
                     id="nx=2.5"),
        pytest.param("verify", dict(verify_cfg(1), verify=3), id="verify=3"),
        pytest.param("eval", dict(cnoidal_cfg(), solitons=[{"b": "a"}]), id="b=a"),
        pytest.param("eval", dict(cnoidal_cfg(), solitons=3), id="solitons=3"),
        pytest.param("eval", dict(cnoidal_cfg(), solitons=[3]), id="solitons=[3]"),
        pytest.param("dynamics", dict(cnoidal_cfg(), dynamics=3), id="dynamics=3"),
        pytest.param("gas", dict(gas_cfg(), gas=3), id="gas=3"),
        pytest.param("gas", gas_cfg(3), id="support=3"),
        pytest.param("gas", gas_cfg(nodes=64.7), id="nodes=64.7"),
        pytest.param("gas", gas_cfg(nodes=True), id="nodes=true"),
        pytest.param("eval", dict(cnoidal_cfg(), curve=dict(BASE_CURVE, e1=float("nan"))),
                     id="e1=nan"),
        pytest.param("gas", gas_cfg(sigma=float("inf")), id="sigma=inf"),
        # float(True) is 1.0: a JSON bool is not a number
        pytest.param("eval", dict(cnoidal_cfg(), x0=True), id="x0=true"),
        pytest.param("eval", dict(cnoidal_cfg(), solitons=[{"beta": 0.3, "x_shift": True}]),
                     id="x_shift=true"),
        pytest.param("dynamics", dict(cnoidal_cfg(), solitons=[{"beta": 0.3}],
                                      dynamics={"mode": "velocity", "norming": True}),
                     id="norming=true"),
        # keys their command does not read
        pytest.param("eval", dict(cnoidal_cfg(), radius="a"), id="eval-radius=a"),
        pytest.param("dynamics", dict(cnoidal_cfg(), grid=dict(cnoidal_cfg()["grid"], nx="a"),
                                      dynamics={"mode": "velocity"}), id="velocity-nx=a"),
    ])
    def test_malformed_config_is_config_error(self, tmp_path, capsys, command, cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert cli.main([command, "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error:")

    def test_radius_flag_below_one_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(verify_cfg(1, which="montecarlo")))
        assert cli.main(["verify", "--config", str(path), "--radius", "0"]) == 2
        assert capsys.readouterr().err.startswith("config error: --radius")

    def test_parser_built_once(self, tmp_path, capsys, monkeypatch):
        built = []

        def counting(*args, _build=argparse.ArgumentParser, **kwargs):
            built.append(_build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli, "argparse", types.SimpleNamespace(ArgumentParser=counting))
        cli._parser.cache_clear()
        try:
            path = tmp_path / "velocity.json"
            path.write_text(json.dumps({"curve": BASE_CURVE,
                                        "solitons": [{"beta": 0.30, "kind": "hot"}]}))
            assert cli.main(["dynamics", "--config", str(path)]) == 0
            assert cli.main(["dynamics", "--config", str(path)]) == 0
            assert len(built) == 1
            capsys.readouterr()
            # a usage error still exits through argparse
            with pytest.raises(SystemExit) as exc:
                cli.main(["dynamics"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: cnoidal-kdv")
            assert "the following arguments are required: --config" in err
            assert len(built) == 1
        finally:
            cli._parser.cache_clear()


def track_cfg(nt, norming=1.0):
    return {"curve": BASE_CURVE,
            "solitons": [{"beta": 0.30, "kind": "hot"}],
            "grid": {"xmin": -1, "xmax": 1, "nx": 2, "tmin": -2.0, "tmax": 2.0, "nt": nt},
            "dynamics": {"mode": "track", "norming": norming}}


class TestTrackOp:
    def test_theta3_calls_do_not_grow_with_nt(self, tmp_path, capsys, theta_calls,
                                              grid_calls):
        counts = []
        for nt in (8, 64):
            path = tmp_path / f"track{nt}.json"
            path.write_text(json.dumps(track_cfg(nt)))
            theta_calls.clear()
            grid_calls.clear()
            assert cli.main(["dynamics", "--config", str(path)]) == 0
            _, rows = parse_csv(capsys.readouterr().out)
            assert len(rows) == nt
            counts.append((theta_calls.count("theta3"), len(grid_calls)))
        # theta3 comes from table grids only, a bounded number of them whatever nt
        assert all(series == 0 and 0 < grids <= 20 for series, grids in counts)

    @pytest.mark.parametrize("norming", [0, -1, "nan"])
    def test_bad_norming_is_config_error(self, tmp_path, capsys, norming):
        path = tmp_path / "track.json"
        path.write_text(json.dumps(track_cfg(4, norming)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["dynamics", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: dynamics.norming")


def schema_paths(schema, path=()):
    """Every key path of a config schema: sections, leaves, and entry 0 of each list."""
    for key, entry in schema.items():
        sub = entry[0] if isinstance(entry, tuple) else entry
        yield path + (key,)
        if isinstance(sub, list):
            yield path + (key, 0)
            if isinstance(sub[0], dict):
                yield from schema_paths(sub[0], path + (key, 0))
        elif isinstance(sub, dict):
            yield from schema_paths(sub, path + (key,))


def with_value(cfg, path, value):
    """A copy of cfg with value at path; missing sections and list entries are made."""
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key, nxt in zip(path, path[1:]):
        empty = [] if isinstance(nxt, int) else {}
        if isinstance(node, list):
            if not node:
                node.append(empty)
            node = node[key]
        else:
            node = node.setdefault(key, empty)
    if isinstance(node, list) and not node:
        node.append(value)
    else:
        node[path[-1]] = value
    return cfg


SCHEMA_PATHS = list(schema_paths(cli._SCHEMA))
HOSTILE = [None, "a", True, 2.5, -1, 0, [], {}, -1e9, float("nan"), float("inf")]
SMALL_GRID = {"xmin": -1.0, "xmax": 1.0, "nx": 8, "tmin": 0.0, "tmax": 0.0, "nt": 1}
ONE_HOT = [{"beta": 0.30, "kind": "hot"}]
FUZZ_BASES = {
    "eval": ("eval", {"curve": BASE_CURVE, "solitons": ONE_HOT, "grid": SMALL_GRID}),
    "pde": ("verify", {"curve": BASE_CURVE, "solitons": ONE_HOT,
                       "grid": dict(SMALL_GRID, nx=65, tmax=0.01, nt=3),
                       "verify": {"which": "pde"}}),
    "degeneration": ("verify", {"curve": BASE_CURVE, "solitons": ONE_HOT, "radius": 2,
                                "verify": {"which": "degeneration", "epsilons": [1e-2, 1e-3]}}),
    "fay": ("verify", {"curve": BASE_CURVE, "seed": 1,
                       "verify": {"which": "fay", "fay_n": 2, "trials": 2}}),
    "montecarlo": ("verify", {"curve": BASE_CURVE, "solitons": ONE_HOT, "radius": 2,
                              "grid": dict(SMALL_GRID, nx=4),
                              "verify": {"which": "montecarlo", "epsilons": [1e-2],
                                         "trials": 2}}),
    "velocity": ("dynamics", {"curve": BASE_CURVE, "solitons": ONE_HOT}),
    "shifts": ("dynamics", {"curve": BASE_CURVE, "dynamics": {"mode": "shifts"},
                            "solitons": [{"beta": 0.25, "kind": "cool"},
                                         {"beta": 0.36, "kind": "cool"}]}),
    "track": ("dynamics", {"curve": BASE_CURVE, "solitons": ONE_HOT,
                           "grid": dict(SMALL_GRID, tmax=1.0, nt=4),
                           "dynamics": {"mode": "track"}}),
    "gas": ("gas", {"curve": BASE_CURVE,
                    "gas": {"support": [{"kind": "hot", "lo": 0.2, "hi": 0.3}], "nodes": 8}}),
}


def error_names(cls=CnoidalKdvError):
    return {cls.__name__}.union(*(error_names(sub) for sub in cls.__subclasses__()))


def run_main(path, command, cfg):
    """cli.main on cfg in-process, warnings left unraised as at the CLI: (code, out, err)."""
    path.write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        code = cli.main([command, "--config", str(path)])
    return code, out.getvalue(), err.getvalue()


class TestConfigSchema:
    @pytest.mark.parametrize("base", FUZZ_BASES)
    def test_fuzz_bases_pass(self, tmp_path, base):
        assert run_main(tmp_path / "config.json", *FUZZ_BASES[base])[0] == 0

    @settings(derandomize=True, max_examples=400, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(base=st.sampled_from(sorted(FUZZ_BASES)), path=st.sampled_from(SCHEMA_PATHS),
           value=st.sampled_from(HOSTILE))
    def test_hostile_value_exits_cleanly(self, tmp_path, base, path, value):
        command, cfg = FUZZ_BASES[base]
        code, _, err = run_main(tmp_path / "config.json", command, with_value(cfg, path, value))
        assert code in (0, 2, 3, 4)
        first = err.splitlines()[0] if err else ""
        if code == 2:
            assert first.startswith("config error:")
        if code == 3:
            assert first.split(":")[0] in error_names()

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_tol_flag_read_as_a_positive_number(self, tmp_path, monkeypatch, capsys, tol):
        # these ran the whole verification: exit 4, or every check passed at inf
        monkeypatch.setattr(cli, "_build_spectrum", lambda *args: pytest.fail("numerics ran"))
        config = Path(__file__).resolve().parents[1] / "demos/configs/verify_all.json"
        assert cli.main(["verify", "--config", str(config), "--tol", tol]) == 2
        assert capsys.readouterr().err.startswith("config error: --tol: ")

    def test_unknown_key_is_named(self, tmp_path):
        # a misspelt sigma used to solve at the default sigma = 1 with exit 0
        cfg = json.loads((Path(__file__).resolve().parents[1]
                          / "demos/configs/gas_hot.json").read_text())
        cfg["gas"]["sigam"] = cfg["gas"].pop("sigma")
        code, out, err = run_main(tmp_path / "config.json", "gas", cfg)
        assert (code, out) == (2, "")
        assert err == "config error: unknown key gas.sigam\n"

    def test_numeric_strings_read_and_echoed_as_written(self, tmp_path):
        cfg = cnoidal_cfg(nx=8)
        cfg["grid"].update(nx="8", xmax="10")
        code, out, _ = run_main(tmp_path / "config.json", "eval", cfg)
        assert code == 0
        assert f"# config: {json.dumps(cfg, sort_keys=True)}" in out.splitlines()
        want = run_main(tmp_path / "config.json", "eval", cnoidal_cfg(nx=8))[1]
        assert out.splitlines()[2:] == want.splitlines()[2:]

    @pytest.mark.parametrize("grid", [dict(tmin=0.5, tmax=0.5), dict(xmin=2.0, xmax=2.0)],
                             ids=["tmin=tmax", "xmin=xmax"])
    def test_zero_span_pde_grid_is_numeric_error(self, tmp_path, grid):
        # used to print a nan residual and exit 4
        command, cfg = FUZZ_BASES["pde"]
        cfg = dict(cfg, grid=dict(cfg["grid"], **grid))
        code, out, err = run_main(tmp_path / "config.json", command, cfg)
        assert (code, out) == (3, "")
        assert err.startswith("GridTooCoarse: zero-span grid")
