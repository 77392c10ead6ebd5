"""Spectrum construction, G matrix, tau function, u field, PDE residual."""

import dataclasses

import numpy as np
import pytest
from scipy.signal import argrelextrema

from cnoidal_kdv import cli
from cnoidal_kdv import elliptic as el
from cnoidal_kdv import fd
from cnoidal_kdv import riemann as rm
from cnoidal_kdv import tau as tu
from cnoidal_kdv.errors import (
    DuplicateSpectralPoint,
    GridTooCoarse,
    PhaseOverflow,
    TooManySolitons,
)
from oracles import (a_tensor_loop, eval_oracle_cases, norming_constants_loop,
                     single_soliton_two_term, subset_block_cells, u_grid_stencil)


class TestSpectrum:
    def test_carrier_momentum(self, ctx_cnoidal):
        # -i pi / (2 varpi3) with varpi3 ~ -0.742206 i
        assert ctx_cnoidal.P_carrier > 0
        assert abs(ctx_cnoidal.P_carrier - np.pi / (2 * 0.7422062367)) < 1e-6

    def test_quad_const_real(self, ctx_cnoidal):
        z3 = el.zeta_half_period(ctx_cnoidal.curve)
        quad = z3 / (8.0 * ctx_cnoidal.curve.varpi3)
        assert abs(quad.imag) <= 1e-12
        assert abs(ctx_cnoidal.quad_const - quad.real) == 0.0

    def test_momentum_classes(self, ctx_dimbright):
        sp = ctx_dimbright.spectrum
        for pt, p, energy in zip(sp.points, sp.p, sp.energy):
            P, E = tu.quasi_momentum(pt, sp.curve), tu.quasi_energy(pt, sp.curve)
            assert abs(P.real) <= 1e-12 and P.imag > 0 and P.imag == p
            assert abs(E.real) <= 1e-12 and E.imag == energy
        # measured energy sign classes: hot in i R_-, cool in i R_+
        by_kind = {pt.kind: energy for pt, energy in zip(sp.points, sp.energy)}
        assert by_kind["hot"] < 0
        assert by_kind["cool"] > 0

    def test_momentum_two_forms_agree(self, curve):
        rng = np.random.default_rng(7)
        for _ in range(10):
            chi = int(rng.integers(0, 2))
            pt = el.JacobianPoint(rng.uniform(0.05, 0.45) + chi * curve.tau / 2, chi)
            a = tu.quasi_momentum(pt, curve)
            b = el._zeta_form(pt.beta, pt.chi, curve)[0]
            assert abs(a - b) < 1e-10

    def test_single_soliton_norming(self, curve, bright_point):
        sp = tu.spectrum_from_points(curve, [(bright_point, 0.0)])
        c_expected = abs(el.theta1(bright_point.mu(), curve.tau))
        assert abs(sp.norming[0] - c_expected) < 1e-14
        assert sp.norming[0] > 0

    def test_background_shift(self, ctx_dimbright):
        sp = ctx_dimbright.spectrum
        mus = [pt.mu() for pt in sp.points]
        assert abs(sp.background_shift_A - 0.5 * sum(mus)) < 1e-15
        assert sp.mu.tolist() == mus

    def test_duplicate_rejected(self, curve):
        with pytest.raises(DuplicateSpectralPoint):
            tu.build_spectrum(curve, [(-5.0, 0.0), (-5.0, 1.0)])

    def test_first_offending_point_named(self, curve):
        # pairs (0, 3) and (1, 2) coincide; the row-by-row scan meets (0, 3) first
        with pytest.raises(DuplicateSpectralPoint, match=r"^b_0 = b_3 = -5.0$"):
            tu.build_spectrum(curve, [(-5.0, 0.0), (-4.0, 0.0), (-4.0, 0.0), (-5.0, 0.0)])
        pts = [el.JacobianPoint(b + 0j, 0) for b in (0.15, 0.22, 0.22, 0.15)]
        with pytest.raises(DuplicateSpectralPoint, match="^beta_0 and beta_3 coincide$"):
            tu.spectrum_from_points(curve, [(pt, 0.0) for pt in pts])
        # the first point off its segment is named, whichever check it fails
        pts = [el.JacobianPoint(0.2 + 0j, 0), el.JacobianPoint(0.3 + 0.1j, 0),
               el.JacobianPoint(0.7 + 0j, 0)]
        with pytest.raises(ValueError, match=r"^Im\(beta\) = 0.1 off the hot segment$"):
            tu.spectrum_from_points(curve, [(pt, 0.0) for pt in pts])
        with pytest.raises(ValueError, match=r"^Re\(beta\) = 0.7 outside"):
            tu.spectrum_from_points(curve, [(pt, 0.0) for pt in pts[::-1]])

    def test_arrays_are_read_only(self, ctx_dimbright):
        sp = ctx_dimbright.spectrum
        names = ("beta", "beta_star", "b", "p", "energy", "norming", "x_shift")
        for name in names:
            with pytest.raises(ValueError, match="read-only"):
                getattr(sp, name)[0] = 1.0
        # dataclasses.replace hands over arrays that the spectrum copies
        handed = np.array([2.0, 3.0])
        copy = dataclasses.replace(sp, p=handed)
        handed[0] = 5.0
        assert copy.p.tolist() == [2.0, 3.0] and not copy.p.flags.writeable
        assert [getattr(copy, name).dtype.kind for name in names] == ["c", "c"] + ["f"] * 5

    def test_context_on_another_curve_raises(self, curve, bright_point):
        # u_grid read x - x0 through the context's curve and the subset
        # tables through the spectrum's: 1.5597 instead of 1.6798 at x = 0
        sp = tu.spectrum_from_points(curve, [(bright_point, 0.0)])
        with pytest.raises(ValueError, match="curve"):
            tu.build_context(el.half_periods(1.5, 1.0, -2.5), sp)
        ctx = tu.build_context(el.half_periods(2.0, 1.0, -3.0), sp)     # an equal curve
        assert ctx.curve is sp.curve
        assert abs(tu.u_grid(ctx, np.array([0.0]), 0.0)[0] - 1.6798) < 1e-4

    def test_build_from_physical_points(self, curve):
        sp = tu.build_spectrum(curve, [(-5.3595, 0.0), (1.50356, 0.0)], x0=0.0)
        assert sp.points[0].kind == "hot"
        assert sp.points[1].kind == "cool"
        assert abs(sp.beta[0].real - 0.30) < 1e-3


class TestGMatrix:
    def test_phases_real_positive(self, ctx_dimbright):
        g = tu.g_matrix(ctx_dimbright, 0.7, 0.3)
        # diagonal entries are positive reals (phases exp(i pi psi) are real)
        assert np.all(np.diag(g).real > 0)
        assert np.max(np.abs(np.diag(g).imag)) < 1e-12

    def test_single_soliton_two_term_form(self, curve, ctx_dim):
        sp = ctx_dim.spectrum
        xs = np.linspace(-8, 8, 100)
        for x in xs:
            lhs = 1.0 + tu.g_matrix(ctx_dim, float(x), 0.0)[0, 0]
            rhs = single_soliton_two_term(
                curve, sp.mu[0], sp.p[0], sp.energy[0], sp.background_shift_A, float(x), 0.0)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_diagonal_decay_right(self, ctx_dimbright):
        g20 = np.abs(np.diag(tu.g_matrix(ctx_dimbright, 20.0, 0.0)))
        g60 = np.abs(np.diag(tu.g_matrix(ctx_dimbright, 60.0, 0.0)))
        assert np.all(g60 < g20)
        assert np.all(g60 < 1e-2)

    def test_from_phases_matches_xt_matrix(self, ctx_dimbright):
        # g_matrix_from_phases at the phases of (x, t) is G(x, t)
        sp = ctx_dimbright.spectrum
        x, t = 0.7, 0.3
        expo = tu._phase_exponents(ctx_dimbright, np.array([x]), t)[0]
        beta = float(tu._background_phase(ctx_dimbright, np.array([x]))[0])
        g = tu.g_matrix_from_phases(sp, expo / (1j * np.pi), beta + sp.background_shift_A)
        want = tu.g_matrix(ctx_dimbright, x, t)
        assert np.max(np.abs(g - want)) <= 1e-13 * np.max(np.abs(want))

    def test_phase_overflow_guard(self, ctx_bright):
        with pytest.raises(PhaseOverflow):
            tu.g_matrix(ctx_bright, -1e4, 0.0)

    def test_phase_overflow_guard_rejects_nan(self, curve, bright_point):
        # a NaN exponent fails every comparison; it must not pass the guard
        sp = tu.spectrum_from_points(curve, [(bright_point, float("nan"))])
        with pytest.raises(PhaseOverflow):
            tu.u_grid(tu.build_context(curve, sp), np.linspace(-1.0, 1.0, 5), 0.0)


class TestTau:
    def test_cnoidal_tau(self, ctx_cnoidal, curve):
        xs = np.array([-3.3, 0.4, 7.1])
        tau, _ = tu.tau_grid(ctx_cnoidal, xs, 0.0)
        for x, value in zip(xs, tau):
            expect = (np.exp(-ctx_cnoidal.quad_const * x * x)
                      * el.theta3(x / (4 * abs(curve.varpi3)), curve.tau).real)
            assert abs(value - expect) <= 1e-13 * abs(expect)

    def test_positive_on_dimbright_sweep(self, ctx_dimbright):
        xs = np.linspace(-20, 20, 250)
        for t in np.linspace(-5, 5, 40):
            vals, _ = tu.tau_grid(ctx_dimbright, xs, float(t))
            assert np.min(vals) > 0.0

    def test_det_at_least_one(self, ctx_dimbright):
        # every principal minor is positive and the empty one is 1
        xs = np.linspace(-30, 30, 400)
        for t in (-2.0, 0.0, 2.0):
            _, det = tu.tau_grid(ctx_dimbright, xs, t)
            assert np.min(det) >= 1.0 - 1e-9


class TestUField:
    def test_cnoidal_wave(self, ctx_cnoidal, curve):
        xs = np.linspace(-10, 10, 2000)
        u = tu.u_grid(ctx_cnoidal, xs, 0.0)
        period = curve.period_x
        assert period > 0
        u_shift = tu.u_grid(ctx_cnoidal, xs + period, 0.0)
        assert np.max(np.abs(u - u_shift)) < 1e-8
        # trace-formula range [e2/2, e1/2]
        assert abs(np.max(u) - curve.e1 / 2.0) < 1e-5
        assert abs(np.min(u) - curve.e2 / 2.0) < 1e-5

    def test_background_is_cnoidal_reference(self, ctx_cnoidal, curve):
        # the same cnoidal wave from tau (complex y) and riemann (real y)
        xs = np.linspace(-10, 10, 301)
        u_bg = tu.u_background(ctx_cnoidal, xs) + 4.0 * ctx_cnoidal.quad_const
        assert np.max(np.abs(u_bg - rm.cnoidal_reference(curve, xs))) <= 1e-12

    def test_reality(self, ctx_dimbright):
        xs = np.linspace(-12, 12, 200)
        for t in (-1.0, 0.5):
            u = tu.u_grid(ctx_dimbright, xs, t)
            assert np.all(np.isfinite(u))
            assert np.all(np.abs(u) < 50)

    def test_dim_envelope_critical_values(self, curve, ctx_dim):
        # the four critical values of the dented cnoidal wave: background
        # extremes far away, dip envelope values near the core
        c_val = ctx_dim.spectrum.b[0]
        far = np.concatenate([np.linspace(-130, -80, 8001), np.linspace(80, 130, 8001)])
        u_far = tu.u_grid(ctx_dim, far, 0.0)
        assert abs(np.max(u_far) - curve.e1 / 2.0) < 1e-3
        assert abs(np.min(u_far) - curve.e2 / 2.0) < 1e-3

        v = ctx_dim.spectrum.velocity[0]
        period_t = curve.period_x / abs(v)
        extrema = []
        for t in np.linspace(0.0, period_t, 60):
            xc = v * t
            xs = np.linspace(xc - 2.5, xc + 2.5, 1500)
            u = tu.u_grid(ctx_dim, xs, float(t))
            for idx in (argrelextrema(u, np.greater)[0], argrelextrema(u, np.less)[0]):
                extrema.extend(u[idx])
        extrema = np.array(extrema)
        for target in ((curve.e1 + curve.e2 - c_val) / 2.0, c_val / 2.0):
            assert np.min(np.abs(extrema - target)) < 1e-3

    def test_shift_covariance(self, curve, bright_point):
        # moving x_shift by delta == scaling the norming constant by e^{|P| delta};
        # checked at tau/determinant level (stronger than the u level, whose
        # equality is limited only by the FD second-derivative noise floor)
        delta = 0.37
        sp_shift = tu.spectrum_from_points(curve, [(bright_point, delta)])
        base = tu.spectrum_from_points(curve, [(bright_point, 0.0)])
        sp_scaled = dataclasses.replace(base, norming=base.norming * np.exp(base.p * delta))
        ctx_a = tu.build_context(curve, sp_shift)
        ctx_b = tu.build_context(curve, sp_scaled)
        xs = np.linspace(-5, 5, 50)
        _, det_a = tu.tau_grid(ctx_a, xs, 0.4)
        _, det_b = tu.tau_grid(ctx_b, xs, 0.4)
        assert np.max(np.abs(det_a - det_b) / det_a) < 1e-12
        assert np.max(np.abs(tu.u_grid(ctx_a, xs, 0.4) - tu.u_grid(ctx_b, xs, 0.4))) < 1e-8

    def test_asymptotic_background_phases(self, curve, ctx_bright):
        # u tends to the cnoidal wave with phase -A on the right and
        # -A + mu_1 on the left (conveyer-belt remark), windows |x| in [20, 30]
        sp = ctx_bright.spectrum
        shift_a = sp.background_shift_A
        mu1 = sp.mu[0]
        w3a = abs(curve.varpi3)

        def cnoidal(xs, phase):
            y = xs / (4.0 * w3a) + phase
            t0 = el.theta3(y, curve.tau)
            t1 = el.theta3(y, curve.tau, 1)
            t2 = el.theta3(y, curve.tau, 2)
            return ((t2 / t0 - (t1 / t0) ** 2).real / (8.0 * w3a * w3a)
                    - 4.0 * ctx_bright.quad_const)

        xs_r = np.linspace(20, 30, 120)
        assert np.max(np.abs(tu.u_grid(ctx_bright, xs_r, 0.0)
                             - cnoidal(xs_r, -shift_a))) < 1e-4
        xs_l = np.linspace(-30, -20, 120)
        assert np.max(np.abs(tu.u_grid(ctx_bright, xs_l, 0.0)
                             - cnoidal(xs_l, -shift_a + mu1))) < 1e-4

    def test_free_soliton_limit_profile(self, curve):
        # a very energetic hot soliton approaches the sech^2 profile
        b = -3000.0
        sp = tu.build_spectrum(curve, [(b, 0.0)])
        ctx = tu.build_context(curve, sp)
        p = sp.p[0]
        xs = np.linspace(-0.15, 0.15, 1001)
        u = tu.u_grid(ctx, xs, 0.0)
        u_bg = tu.u_background(ctx, xs)
        prof = u - u_bg
        amp = np.max(prof)
        assert abs(amp - abs(b) / 2.0) < 0.01 * abs(b) / 2.0
        x_core = xs[np.argmax(prof)]
        sech2 = amp / np.cosh(0.5 * p * (xs - x_core)) ** 2
        assert np.max(np.abs(prof - sech2)) < 0.01 * amp

    def test_galilean_boost_field_solves_kdv(self, ctx_bright, curve):
        # u(x - 2vt, t) + v/3 is the solution for branch points e_i + v/3;
        # verify it still satisfies the KdV residual operator
        v = 0.3
        dx = curve.period_x / 64.0
        dt = 5e-3
        nx, nt = 150, 9
        xs = -3.0 + dx * np.arange(-3, nx + 3)
        ts = -dt * 2 + dt * np.arange(nt + 4)
        u = np.empty((ts.size, xs.size))
        for i, t in enumerate(ts):
            u[i] = tu.u_grid(ctx_bright, xs - 2.0 * v * t, float(t)) + v / 3.0
        u_t = fd.first_derivative_axis(u, dt, axis=0)
        u_x = fd.first_derivative_axis(u, dx, axis=1)[2:-2]
        u_xxx = fd.third_derivative_axis(u, dx, axis=1)[2:-2]
        resid = u_t[:, 3:-3] + u_xxx + 6.0 * u[2:-2, 3:-3] * u_x[:, 1:-1]
        assert np.max(np.abs(resid)) < 1e-3


def mixed_points(curve, n):
    """n Jacobian points, hot and cool alternating, at distinct real parts."""
    rs = np.linspace(0.08, 0.44, n)
    return [el.JacobianPoint(r + (k % 2) * curve.tau / 2.0, k % 2) for k, r in enumerate(rs)]


class TestBatchedThetaKeepsBits:
    """The batched theta1 passes give what one scalar call per value gave."""

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_norming_constants(self, curve, dim_point, bright_point, n):
        for points in (mixed_points(curve, n), [dim_point, bright_point][:n]):
            got = tu.spectrum_from_points(curve, [(p, 0.0) for p in points]).norming
            assert got.tobytes() == norming_constants_loop(points, curve).tobytes()

    def test_quasi_momentum(self, curve, dim_point, bright_point):
        # orders (0, 1) only; the previous form read d1 of the four-order pass
        for pt in [dim_point, bright_point, *mixed_points(curve, 8)]:
            d1, _, _ = el.log_theta1_derivatives(pt.beta, curve.tau)
            before = d1 / (2.0 * curve.varpi3) + pt.chi * 1j * np.pi / (2.0 * curve.varpi3)
            assert tu.quasi_momentum(pt, curve) == before

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
    def test_u_grid_keeps_the_per_t_stencil_bits(self, curve, n):
        # u_field's row at t, which the verify pde gate reads, keeps the bytes of
        # the per-t stencil formula (u_grid, once that row, is the subset sum's)
        sp = tu.spectrum_from_points(curve, [(p, 0.5 - k) for k, p in enumerate(mixed_points(curve, n))])
        ctx = tu.build_context(curve, sp)
        xs = np.linspace(-6.0, 6.0, 97)
        for t in (0.0, 0.3):
            assert tu.u_field(ctx, xs, [t])[0].tobytes() == u_grid_stencil(ctx, xs, t).tobytes()

    def test_u_grid_on_a_hot_n6_spectrum_is_the_oracle_u(self, curve):
        # the dense stencil read u = 1.4605592 at x = -2.55, t = 0.3 on this
        # spectrum, without an error; the values are perfbench/oracle.py's
        hot = [(0.175695, -2.631895), (0.390382, 0.82162), (0.178239, -0.668731),
               (0.293715, -3.402611), (0.370373, -3.86328), (0.267368, 0.167402)]
        sp = tu.spectrum_from_points(curve, [(el.JacobianPoint(b + 0j, 0), s) for b, s in hot])
        xs = np.array([-2.55, -1.0, 0.0])
        want = np.array([1.4603098673588768, 0.6314098123733747, 2.2002249516122516])
        u = tu.u_grid(tu.build_context(curve, sp), xs, 0.3)
        assert np.max(np.abs(u - want) / np.maximum(1.0, np.abs(want))) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_a_tensor(self, curve, n):
        sp = tu.spectrum_from_points(curve, [(p, 0.0) for p in mixed_points(curve, n)])
        ybg = np.linspace(-1.3, 1.3, 37)
        assert tu._a_tensor(sp, ybg).tobytes() == a_tensor_loop(sp, ybg).tobytes()

    def test_spectrum_b_and_e_keep_their_bits(self, curve):
        # b and E share one weierstrass pass; b was wp_on_segment's, E quasi_energy's
        for pt in mixed_points(curve, 6):
            sp = tu.spectrum_from_points(curve, [(pt, 0.0)])
            assert sp.b.tobytes() == np.float64(el.wp_on_segment(pt, curve)).tobytes()
            wpp = el.weierstrass(2.0 * curve.varpi3 * pt.beta, curve)[1]
            assert sp.energy.tobytes() == np.float64((-0.5 * wpp).imag).tobytes()

    def test_spectrum_makes_one_norming_pass(self, curve, series_orders, theta_calls):
        points = mixed_points(curve, 3)
        el.zeta_half_period(curve)          # cached on the curve
        series_orders.clear()
        theta_calls.clear()
        tu.spectrum_from_points(curve, [(p, 0.0) for p in points])
        # one order-0 pass over all N(2N - 1) norming theta1 values, then per
        # point quasi_momentum (0, 1) and one weierstrass pass (0..3) for b and E
        assert series_orders == [0] + [(0, 1), (0, 1, 2, 3)] * 3
        assert theta_calls == []


def pool_context(label: str):
    """TauContext and grid of a field_tau eval pool member, read as the CLI reads it."""
    cfg = next(cfg for name, cfg, _ in eval_oracle_cases() if name == label)
    cfg = cli._check(cfg, cli._SCHEMA)
    curve = cli._build_curve(cfg)
    return tu.build_context(curve, cli._build_spectrum(cfg, curve)), *cli._grid(cfg)


class TestPrunedSubsets:
    @pytest.fixture(scope="class")
    def member12(self):
        return pool_context("eval-N12-mixed-1")

    def test_n12_member_sums_fewer_subsets_than_all(self, member12):
        ctx, xs, ts = member12
        before = dict(tu._SUBSET_TERMS)
        list(tu._eval_rows(ctx, xs, ts))
        every, summed = (tu._SUBSET_TERMS[key] - before[key] for key in ("all", "summed"))
        assert every == 2 ** 12 * 25            # subsets x blocks of 16 points, one t
        assert 0 < summed < every

    def test_failed_certificate_sums_every_subset(self, member12, monkeypatch):
        ctx, xs, _ = member12
        ts = [0.0, 0.5]
        pruned = list(tu._subset_sums(ctx, xs, ts))
        monkeypatch.setattr(el, "_KEEP_LOG", -np.inf)          # every subset kept
        every = list(tu._subset_sums(ctx, xs, ts))
        monkeypatch.setattr(el, "_KEEP_LOG", np.inf)           # none kept, so none certified
        before = tu._SUBSET_TERMS["summed"]
        fallback = list(tu._subset_sums(ctx, xs, ts))
        assert tu._SUBSET_TERMS["summed"] - before == 2 ** 12 * 25 * 2
        for got, want in zip(fallback, every):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        for (u, log_tau, _), (u_all, log_tau_all, _) in zip(pruned, every):
            assert np.max(np.abs(u - u_all)) <= 1e-14 * np.max(np.abs(u_all))
            assert np.max(np.abs(log_tau - log_tau_all)) <= 1e-14 * np.max(np.abs(log_tau_all))

    # summed subsets x blocks of _SUBSET_TERMS on the N = 12 pool members as the
    # (subsets, points) kernel summed them in blocks of 2^15 cells (8 points):
    # the (points, subsets) one keeps the pruning, so at that budget it sums
    # exactly as many, and in its own blocks of 2^16 cells no smaller share
    N12_SUMMED = {"eval-N12-hot-0": 59425, "eval-N12-hot-1": 50197, "eval-N12-hot-2": 52436,
                  "eval-N12-hot-3": 52153, "eval-N12-hot-4": 62219, "eval-N12-hot-5": 94510,
                  "eval-N12-mixed-0": 105185, "eval-N12-mixed-1": 165316,
                  "eval-N12-mixed-2": 65721, "eval-N12-mixed-3": 54185,
                  "eval-N12-mixed-4": 118598, "eval-N12-mixed-5": 103142}

    @pytest.mark.parametrize("label", sorted(N12_SUMMED))
    def test_n12_members_sum_the_recorded_subsets(self, label, monkeypatch):
        ctx, xs, ts = pool_context(label)
        counts = []
        for cells in (tu._SUBSET_CELLS, 2 ** 15):
            monkeypatch.setattr(tu, "_SUBSET_CELLS", cells)
            before = dict(tu._SUBSET_TERMS)
            list(tu._subset_sums(ctx, xs, ts))
            counts.append({key: tu._SUBSET_TERMS[key] - before[key] for key in ("all", "summed")})
        assert counts[1] == {"all": 2 ** 12 * 50, "summed": self.N12_SUMMED[label]}
        assert counts[0]["all"] == 2 ** 12 * 25
        assert counts[0]["summed"] / counts[0]["all"] >= self.N12_SUMMED[label] / (2 ** 12 * 50)

    def test_stale_workspace_changes_no_byte(self, member12, monkeypatch):
        # _subset_block writes every buffer of its workspace before reading it:
        # one filled with NaN for the N = 12 member, then the same one, left as
        # that member left it, for an N = 8 member give a fresh workspace's bytes
        members = [member12, pool_context("eval-N8-mixed-0")]
        original, sizes = tu._subset_block, []
        monkeypatch.setattr(tu, "_subset_block", lambda *args: sizes.append(
            [buffer.size for buffer in args[-1]]) or original(*args))
        fresh = [list(tu._subset_sums(ctx, xs, ts)) for ctx, xs, ts in members]
        shared = tuple(np.full(max(size), np.nan) for size in zip(*sizes))
        monkeypatch.setattr(tu, "_subset_block", lambda *args: original(*args[:-1], shared))
        for (ctx, xs, ts), want in zip(members, fresh):
            got = list(tu._subset_sums(ctx, xs, ts))
            assert len(got) == len(want)
            for row, want_row in zip(got, want):
                assert all(a.tobytes() == b.tobytes() for a, b in zip(row, want_row))
            assert not np.all(np.isnan(shared[0]))

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("given", ["beta", "b"])
    def test_det_is_the_dense_determinant(self, curve, n, given):
        # hot and cool alternate; with b, every soliton comes through invert_wp
        points = mixed_points(curve, n)
        if given == "b":
            points = [el.invert_wp(el.wp_on_segment(p, curve) + 0.01, curve) for p in points]
        sp = tu.spectrum_from_points(curve, [(p, 1.5 - 0.6 * k) for k, p in enumerate(points)])
        ctx = tu.build_context(curve, sp)
        xs = np.linspace(-3.0, 3.0, 25)
        for t in (0.0, 0.3):
            _, det = tu.tau_grid(ctx, xs, t)
            dense = [np.linalg.det(np.eye(n) + tu.g_matrix(ctx, x, t)).real for x in xs]
            assert np.max(np.abs(det / dense - 1.0)) <= 1e-13

    @pytest.mark.parametrize("label", [case[0] for case in eval_oracle_cases()])
    def test_sums_match_the_cell_kernel(self, label, monkeypatch):
        # the per-point centring keeps u at the per-cell kernel's rounding; one
        # centre per block moved u on eval-N8-hot-3 by 1.6e-12 max(1, |u|)
        ctx, xs, ts = pool_context(label)
        got = list(tu._subset_sums(ctx, xs, ts))
        monkeypatch.setattr(tu, "_subset_block", subset_block_cells)
        for (u, log_tau, _), (u_cells, log_tau_cells, _) in zip(got, tu._subset_sums(ctx, xs, ts)):
            assert np.max(np.abs(u - u_cells) / np.maximum(1.0, np.abs(u_cells))) <= 1e-13
            assert np.max(np.abs(log_tau - log_tau_cells)
                          / np.maximum(1.0, np.abs(log_tau_cells))) <= 1e-14

    def test_cap_refused_before_any_work(self, curve, monkeypatch):
        sp = tu.spectrum_from_points(curve, [(p, 0.0) for p in mixed_points(curve, 17)])
        ctx = tu.build_context(curve, sp)
        monkeypatch.setattr(tu, "_theta_grid", lambda *args: pytest.fail("theta table built"))
        with pytest.raises(TooManySolitons, match="at most 16"):
            tu.tau_grid(ctx, np.linspace(-1.0, 1.0, 5), 0.0)


@pytest.fixture(scope="module")
def ctx3(curve):
    # moderate |P| values keep every soliton resolvable at period/64
    pts = [(el.JacobianPoint(0.28 + 0j, 0), 0.0),
           (el.JacobianPoint(0.42 + 0j, 0), 0.0),
           (el.JacobianPoint(0.27 + curve.tau / 2, 1), 0.0)]
    return tu.build_context(curve, tu.spectrum_from_points(curve, pts))


class TestThreeSolitons:
    def test_generic_det_path_matches_minor_expansion(self, ctx3):
        # N = 3 exercises the stacked-determinant branch; compare with the
        # Fredholm (principal-minor) expansion assembled by hand
        x, t = 0.9, 0.4
        g = tu.g_matrix(ctx3, x, t)
        expansion = 1.0 + np.trace(g)
        for i in range(3):
            for j in range(i + 1, 3):
                expansion += g[i, i] * g[j, j] - g[i, j] * g[j, i]
        expansion += np.linalg.det(g)
        det = tu._det_one_plus_g(ctx3, np.array([x]), t)[0]
        assert abs(det - expansion) <= 1e-12 * abs(det)

    @pytest.mark.parametrize("n", [3, 4, 6])
    @pytest.mark.parametrize("given", ["beta", "b"])
    def test_logdet_builds_one_plus_g_in_place(self, curve, n, given):
        # the stencil's 1 + G is G's stack with 1.0 added to its diagonals in
        # place: the bytes of the eye-plus-product form it replaced
        points = mixed_points(curve, n)
        if given == "b":
            points = [el.invert_wp(el.wp_on_segment(p, curve) + 0.01, curve) for p in points]
        sp = tu.spectrum_from_points(curve, [(p, 1.5 - 0.6 * k) for k, p in enumerate(points)])
        ctx = tu.build_context(curve, sp)
        xs = np.linspace(-3.0, 3.0, 25)
        a = tu._a_tensor(sp, tu._background_phase(ctx, xs))
        for t in (0.0, 0.3):
            d = np.sqrt(sp.norming)[None, :] * np.exp(tu._phase_exponents(ctx, xs, t))
            want = np.linalg.slogdet(np.eye(n)[None] + a * d[:, :, None] * d[:, None, :])[1]
            assert tu._logdet_one_plus_g(ctx, xs, t).tobytes() == want.tobytes()
            assert tu._logdet_one_plus_g(ctx, xs, t, a=a).tobytes() == want.tobytes()

    def test_logdet_slogdet_consistent(self, ctx3):
        xs = np.linspace(-6, 6, 31)
        ld = tu._logdet_one_plus_g(ctx3, xs, 0.3)
        det = tu._det_one_plus_g(ctx3, xs, 0.3)
        assert np.max(np.abs(ld - np.log(det))) < 1e-12

    def test_kdv_residual(self, ctx3, curve):
        nx = int(round(12.0 / (curve.period_x / 64.0))) + 1
        resid = tu.kdv_residual(ctx3, (-6, 6), nx, (-0.1, 0.1), 21)
        assert resid < 1e-3

    def test_u_real_and_finite(self, ctx3):
        u = tu.u_field(ctx3, np.linspace(-15, 15, 301), [-1.0, 0.0, 1.0])
        assert np.all(np.isfinite(u))


class TestDerivativeModes:
    def test_analytic_logdet_derivative_vs_fd(self, ctx_dimbright):
        # optional analytic cross-check: trace((1+G)^{-1} dG/dx)
        h = 1e-5
        for x, t in ((0.7, 0.3), (-2.1, -0.4), (3.3, 1.0)):
            an = tu.logdet_x_analytic(ctx_dimbright, x, t)
            ld = np.log(tu._det_one_plus_g(ctx_dimbright, np.array([x - h, x + h]), t))
            assert abs(an - (ld[1] - ld[0]) / (2 * h)) < 1e-8


class TestKdvResidual:
    def test_stencils_annihilate_constants(self):
        zero = np.zeros((12, 12))
        assert np.max(np.abs(fd.first_derivative_axis(zero, 0.1, 0))) == 0.0
        assert np.max(np.abs(fd.third_derivative_axis(zero, 0.1, 1))) == 0.0
        const = np.full((12, 12), 3.7)
        assert np.max(np.abs(fd.first_derivative_axis(const, 0.1, 0))) < 1e-12
        assert np.max(np.abs(fd.third_derivative_axis(const, 0.1, 1))) < 1e-11

    def test_cnoidal(self, ctx_cnoidal, curve):
        nx = int(round(20.0 / (curve.period_x / 64.0))) + 1
        resid = tu.kdv_residual(ctx_cnoidal, (-10, 10), nx, (-1, 1), 201)
        assert resid < 1e-4

    def test_single_bright(self, ctx_bright, curve):
        nx = int(round(20.0 / (curve.period_x / 64.0))) + 1
        resid = tu.kdv_residual(ctx_bright, (-10, 10), nx, (-1, 1), 201)
        assert resid < 1e-3

    def test_grid_too_coarse(self, ctx_cnoidal):
        with pytest.raises(GridTooCoarse):
            tu.kdv_residual(ctx_cnoidal, (-10, 10), 20, (-1, 1), 11)

    @pytest.mark.parametrize("x_span, t_span", [((-1, 1), (0.5, 0.5)), ((2, 2), (-1, 1))],
                             ids=["dt=0", "dx=0"])
    def test_zero_span_grid_raises(self, ctx_cnoidal, x_span, t_span, monkeypatch):
        # a zero step used to give a nan residual; the check runs before any u is taken
        monkeypatch.setattr(tu, "u_field", lambda *args: pytest.fail("u_field called"))
        with pytest.raises(GridTooCoarse, match="zero-span"):
            tu.kdv_residual(ctx_cnoidal, x_span, 40, t_span, 3)
