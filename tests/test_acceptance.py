"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import time

import numpy as np
from scipy.signal import argrelextrema

from cnoidal_kdv import dynamics as dy
from cnoidal_kdv import elliptic as el
from cnoidal_kdv import gas
from cnoidal_kdv import riemann as rm
from cnoidal_kdv import tau as tu


def gate(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_half_periods():
    el.half_periods(2.0, 1.0, -3.0)  # warm up
    reps = 200
    t0 = time.perf_counter()
    for _ in range(reps):
        c = el.half_periods(2.0, 1.0, -3.0)
    per_call = (time.perf_counter() - t0) / reps
    err = max(abs(c.varpi1 - 1.009452),
              abs(c.varpi3 - (-0.742206j)),
              abs(c.tau - 1.36007j))
    ok = err < 1e-5 and per_call < 1e-3
    gate(1, "half-periods", ok, f"max err {err:.2e}, {per_call * 1e6:.0f} us/call")


def test_criterion_2_velocities_and_inversion(curve, dim_point, bright_point):
    v_dim = dy.group_velocity(dim_point, curve)
    v_bright = dy.group_velocity(bright_point, curve)
    err_v = max(abs(v_dim - (-8.99139)), abs(v_bright - 6.8273))
    c_val = el.wp_on_segment(dim_point, curve)
    b_val = el.wp_on_segment(bright_point, curve)
    err_fwd = max(abs(c_val - 1.50356), abs(b_val - (-5.3595)))
    back_c = el.invert_wp(1.50356, curve)
    back_b = el.invert_wp(-5.3595, curve)
    err_back = max(abs(back_c.beta - dim_point.beta), abs(back_b.beta - bright_point.beta))
    ok = err_v < 1e-3 and err_fwd < 1e-3 and err_back < 1e-3
    gate(2, "velocities+inversion", ok,
         f"V err {err_v:.2e}, wp err {err_fwd:.2e}, inv err {err_back:.2e}")


def test_criterion_3_scattering_shifts(curve):
    t0 = time.perf_counter()
    slow = el.JacobianPoint(0.25 + curve.tau / 2, 1)
    fast = el.JacobianPoint(0.36 + curve.tau / 2, 1)
    v_slow = dy.group_velocity(slow, curve)
    v_fast = dy.group_velocity(fast, curve)
    d_fast, d_slow = dy.pair_shifts(fast, slow, curve)
    elapsed = time.perf_counter() - t0
    err_v = max(abs(v_slow - (-8.94427)), abs(v_fast - (-8.4810443)))
    err_d = max(abs(d_slow - (-17.32)), abs(d_fast - 22.878))
    ok = err_v < 1e-4 and err_d < 1e-2 and elapsed < 1.0
    gate(3, "scattering shifts", ok,
         f"V err {err_v:.2e}, shift err {err_d:.2e}, {elapsed:.3f} s")


def test_criterion_4_soliton_transport(curve, dim_point, bright_point):
    # the tracked center is x(t) = V t + Phi(t); Phi oscillates within each
    # tracking period (amplitude 0.47 for the dim soliton, whose |P| is
    # small), so the displacement is measured through the period-averaged
    # center, the same average the shift theory uses; the instantaneous
    # value is reported alongside
    details = []
    ok = True
    for pt, direction in ((bright_point, +1.0), (dim_point, -1.0)):
        v = dy.group_velocity(pt, curve)
        t1 = 10.0 / abs(v)
        t_per = abs(dy.track_soliton(pt, curve).period_T)

        def mean_center(t_start, n=64):
            ts = t_start + (np.arange(n) + 0.5) * t_per / n
            return float(np.mean(v * ts + dy.track_phase(pt, curve, 1.0, ts))) - v * t_per / 2.0

        moved = mean_center(t1) - mean_center(0.0)
        instant = (v * t1 + dy.track_phase(pt, curve, 1.0, t1)
                   - dy.track_phase(pt, curve, 1.0, 0.0))
        ok = ok and abs(moved - direction * 10.0) < 0.1
        details.append(f"{pt.kind} moved {moved:+.4f} (instantaneous {instant:+.3f})")
    gate(4, "soliton transport", ok, "; ".join(details))


def test_criterion_5_pde_residual(curve, sp_cnoidal, sp_bright, sp_dimbright):
    nx = int(round(20.0 / (curve.period_x / 64.0))) + 1
    details = []
    ok = True
    for label, sp in (("N=0", sp_cnoidal), ("N=1", sp_bright), ("N=2", sp_dimbright)):
        t0 = time.perf_counter()
        resid = tu.kdv_residual(sp, (-10.0, 10.0), nx, (-1.0, 1.0), 2001)
        elapsed = time.perf_counter() - t0
        ok = ok and resid < 1e-3 and elapsed < 30.0
        details.append(f"{label}: {resid:.2e} in {elapsed:.1f}s")
    gate(5, "pde residual", ok, "; ".join(details))


def test_criterion_6_degeneration(curve, bright_point, dim_point):
    rng = np.random.default_rng(11)
    details = []
    ok = True
    for label, pts in (("N=1", [(bright_point, 0.0)]),
                       ("N=2", [(bright_point, 0.0), (dim_point, 0.0)])):
        sp = tu.spectrum_from_points(curve, pts)
        n = len(sp)
        x_phase = np.concatenate([1j * rng.uniform(-0.4, 0.4, n), [rng.uniform(0, 1)]])
        resids = [rm.degeneration_residual(
            x_phase, rm.DegenerationSpec(eps, sp), radius=6)
            for eps in (1e-2, 1e-4, 1e-6)]
        monotone = resids[0] > resids[1] > resids[2]
        ok = ok and monotone and resids[2] < 1e-5
        details.append(f"{label}: {resids[0]:.1e} > {resids[1]:.1e} > {resids[2]:.1e}")
    gate(6, "degeneration", ok, "; ".join(details))


def test_criterion_7_fay(curve):
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        xs = rng.uniform(0, 1, n) + 1j * rng.uniform(0, 0.3, n)
        xh = rng.uniform(0, 1, n) + 1j * rng.uniform(0, 0.3, n)
        e_pt = rng.uniform(0, 1) + 1j * rng.uniform(0.05, 0.3)
        worst = max(worst, rm.fay_residual(n, xs, xh, e_pt, curve))
    gate(7, "fay identity", worst < 1e-9, f"worst residual {worst:.2e}")


def test_criterion_8_trace_envelope(curve, sp_dim):
    c_val = sp_dim.b[0]
    far = np.concatenate([np.linspace(-130, -80, 8001), np.linspace(80, 130, 8001)])
    u_far = tu.u_grid(sp_dim, far, 0.0)
    err_max = abs(np.max(u_far) - curve.e1 / 2.0)
    err_min = abs(np.min(u_far) - curve.e2 / 2.0)

    v = sp_dim.velocity[0]
    extrema = []
    for t in np.linspace(0.0, curve.period_x / abs(v), 60):
        xs = np.linspace(v * t - 2.5, v * t + 2.5, 1500)
        u = tu.u_grid(sp_dim, xs, float(t))
        for idx in (argrelextrema(u, np.greater)[0], argrelextrema(u, np.less)[0]):
            extrema.extend(u[idx])
    extrema = np.array(extrema)
    d_dip1 = np.min(np.abs(extrema - (curve.e1 + curve.e2 - c_val) / 2.0))
    d_dip2 = np.min(np.abs(extrema - c_val / 2.0))
    ok = max(err_max, err_min) < 1e-3 and max(d_dip1, d_dip2) < 1e-3
    gate(8, "trace envelope", ok,
         f"max/min err {err_max:.1e}/{err_min:.1e}, dip dists {d_dip1:.1e}/{d_dip2:.1e}")


def test_criterion_9_random_phase_convergence(curve, bright_point, dim_point):
    t0 = time.perf_counter()
    sp = tu.spectrum_from_points(curve, [(bright_point, 0.0), (dim_point, 0.0)])
    xs = np.linspace(-5.0, 5.0, 41)
    means = rm.random_phase_mc(sp, [1e-2, 1e-3, 1e-4], 200, 2024, xs, [0.0], radius=6)
    elapsed = time.perf_counter() - t0
    ok = means[0] > means[1] > means[2] and elapsed < 300.0
    gate(9, "random-phase convergence", ok,
         f"means {means[0]:.4f} > {means[1]:.4f} > {means[2]:.4f}, {elapsed:.0f}s")


def test_criterion_10_gas_ndr(curve):
    dilute = gas.ndr_solve(gas.build_model(
        curve, [gas.GasInterval(0, 0.15, 0.40)], 1e6, 64))
    s0 = gas.free_speeds(dilute)
    err_dilute = float(np.max(np.abs(dilute.speeds - s0)))

    moderate = gas.ndr_solve(gas.build_model(
        curve, [gas.GasInterval(0, 0.15, 0.40)], 1.0, 64))
    eos = gas.equation_of_state_residual(moderate)

    coarse = gas.ndr_solve(gas.build_model(
        curve, [gas.GasInterval(0, 0.2, 0.3)], 1.0, 257))
    fine = gas.ndr_solve(gas.build_model(
        curve, [gas.GasInterval(0, 0.2, 0.3)], 1.0, 513))
    delta = float(np.max(np.abs(fine.solved_u[::2] - coarse.solved_u)))

    ok = err_dilute < 1e-4 and eos < 1e-6 and delta < 1e-6
    gate(10, "gas NDR", ok,
         f"dilute {err_dilute:.2e}, eos {eos:.2e}, doubling {delta:.2e}")
