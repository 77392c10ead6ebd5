"""Exit-code contract, determinism, and column semantics of the CLI."""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cnoidal_kdv import cli

BASE_CURVE = {"e1": 2.0, "e2": 1.0, "e3": -3.0}


def run_cli(tmp_path, cfg, *args):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    cmd = [sys.executable, "-m", "cnoidal_kdv.cli", *args[:1],
           "--config", str(path), *args[1:]]
    return subprocess.run(cmd, capture_output=True, text=True)


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

    def test_bright_travels_ten_units(self, tmp_path, curve, ctx_bright):
        v = ctx_bright.spectrum.entries[0].velocity
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

    def test_dimbright_opposite_directions(self, tmp_path, ctx_dimbright):
        by_kind = {e.point.kind: e for e in ctx_dimbright.spectrum.entries}
        v_hot = by_kind["hot"].velocity
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
        v_cool = by_kind["cool"].velocity
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

    def test_track_mode_zero_mean(self, tmp_path, curve, ctx_bright):
        v = ctx_bright.spectrum.entries[0].velocity
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


class TestExitCodes:
    def test_missing_config(self, tmp_path):
        cmd = [sys.executable, "-m", "cnoidal_kdv.cli", "eval",
               "--config", str(tmp_path / "absent.json")]
        assert subprocess.run(cmd, capture_output=True).returncode == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        cmd = [sys.executable, "-m", "cnoidal_kdv.cli", "eval", "--config", str(path)]
        assert subprocess.run(cmd, capture_output=True).returncode == 2

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


def track_cfg(nt, norming=1.0):
    return {"curve": BASE_CURVE,
            "solitons": [{"beta": 0.30, "kind": "hot"}],
            "grid": {"xmin": -1, "xmax": 1, "nx": 2, "tmin": -2.0, "tmax": 2.0, "nt": nt},
            "dynamics": {"mode": "track", "norming": norming}}


class TestTrackOp:
    def test_theta3_calls_do_not_grow_with_nt(self, tmp_path, capsys, theta_calls):
        counts = []
        for nt in (8, 64):
            path = tmp_path / f"track{nt}.json"
            path.write_text(json.dumps(track_cfg(nt)))
            theta_calls.clear()
            assert cli.main(["dynamics", "--config", str(path)]) == 0
            _, rows = parse_csv(capsys.readouterr().out)
            assert len(rows) == nt
            counts.append(theta_calls.count("theta3"))
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("norming", [0, -1, "nan"])
    def test_bad_norming_is_config_error(self, tmp_path, capsys, norming):
        path = tmp_path / "track.json"
        path.write_text(json.dumps(track_cfg(4, norming)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["dynamics", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: dynamics.norming")
