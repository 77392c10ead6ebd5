"""Interaction kernel, NDR solver, equation of state, carrier, tracer."""

import dataclasses
import json

import mpmath
import numpy as np
import pytest

from cnoidal_kdv import cli
from cnoidal_kdv import dynamics as dy
from cnoidal_kdv import elliptic as el
from cnoidal_kdv import gas
from cnoidal_kdv import tau as tu
from cnoidal_kdv.errors import (
    DiagonalSingularity,
    NegativeDensityWarning,
    SingularSystem,
    ZeroDensityNode,
)
from oracles import hat_log_integrals_loop, kernel_row_loop, mp_theta


def hot_model(curve, sigma=1.0, nodes=64, lo=0.15, hi=0.40):
    return gas.build_model(curve, [gas.GasInterval(0, lo, hi)], sigma, nodes)


class TestKernel:
    def test_symmetric(self, curve):
        rng = np.random.default_rng(0)
        for chi1, chi2 in ((0, 0), (1, 1), (0, 1)):
            for _ in range(4):
                a = el.JacobianPoint(rng.uniform(0.05, 0.45) + chi1 * curve.tau / 2, chi1)
                b = el.JacobianPoint(rng.uniform(0.05, 0.45) + chi2 * curve.tau / 2, chi2)
                if abs(a.beta - b.beta) < 1e-3:
                    continue
                k_ab = gas.interaction_kernel(a, b, curve)
                k_ba = gas.interaction_kernel(b, a, curve)
                assert abs(k_ab - k_ba) < 1e-12

    def test_log_singularity_subtracted_remainder_bounded(self, curve):
        eta = el.JacobianPoint(0.27 + 0j, 0)
        th1p0 = el.theta1(0.0, curve.tau, 1).real
        vals = []
        for gap in (1e-2, 1e-4, 1e-6, 1e-8):
            beta = el.JacobianPoint(0.27 + gap + 0j, 0)
            k = gas.interaction_kernel(eta, beta, curve)
            vals.append(k - np.log(gap))
        assert np.max(np.abs(vals)) < 10.0
        limit = np.log(th1p0) - np.log(abs(el.theta1(
            eta.beta - eta.star(curve.tau), curve.tau)))
        assert abs(vals[-1] - limit) < 1e-6

    def test_diagonal_rejected(self, curve):
        pt = el.JacobianPoint(0.3 + 0j, 0)
        with pytest.raises(DiagonalSingularity):
            gas.interaction_kernel(pt, pt, curve)

    def test_matches_pair_shift_structure(self, curve):
        # K(eta, beta) = -(|P(eta)|/2) Delta_1 if eta is the faster soliton,
        # +(|P(eta)|/2) Delta_2 if the slower
        rng = np.random.default_rng(1)
        done = 0
        while done < 10:
            chi1, chi2 = rng.integers(0, 2, 2)
            eta = el.JacobianPoint(rng.uniform(0.05, 0.45) + chi1 * curve.tau / 2, int(chi1))
            beta = el.JacobianPoint(rng.uniform(0.05, 0.45) + chi2 * curve.tau / 2, int(chi2))
            if abs(eta.beta - beta.beta) < 5e-3:
                continue
            k = gas.interaction_kernel(eta, beta, curve)
            p = tu.quasi_momentum(eta, curve).imag
            if dy.group_velocity(eta, curve) > dy.group_velocity(beta, curve):
                d1, _ = dy.pair_shifts(eta, beta, curve)
                assert abs(k + 0.5 * p * d1) < 1e-10
            else:
                _, d2 = dy.pair_shifts(beta, eta, curve)
                assert abs(k - 0.5 * p * d2) < 1e-10
            done += 1


def kernel_models(curve):
    return {
        "hot": hot_model(curve, nodes=40),
        "cool": gas.build_model(curve, [gas.GasInterval(1, 0.12, 0.41)], 1.0, 36),
        "hot+cool": gas.build_model(
            curve, [gas.GasInterval(0, 0.2, 0.3), gas.GasInterval(1, 0.2, 0.3),
                    gas.GasInterval(0, 0.35, 0.45)], 1.0, 24),
    }


def assert_close_rel(actual, expected, rtol=1e-13):
    np.testing.assert_allclose(actual, expected, rtol=rtol,
                               atol=rtol * np.max(np.abs(expected)))


class TestKernelAssembly:
    """The array-built Nystrom kernel against the row-by-row oracle."""

    @pytest.mark.parametrize("kind", ["hot", "cool", "hot+cool"])
    def test_matrix_matches_row_oracle(self, curve, kind):
        m = kernel_models(curve)[kind]
        oracle = np.stack([kernel_row_loop(m, m.jacobian_point(i))
                           for i in range(m.nodes_r.size)])
        assert_close_rel(gas.kernel_matrix(m), oracle)

    def test_row_matches_row_oracle(self, curve):
        # two points between nodes (hot and cool) and one on a node
        m = kernel_models(curve)["hot+cool"]
        h = m.nodes_r[1] - m.nodes_r[0]
        for eta in (el.JacobianPoint(m.nodes_r[5] + 0.37 * h + 0j, 0),
                    el.JacobianPoint(m.nodes_r[30] + 0.5 * h + curve.tau / 2.0, 1),
                    m.jacobian_point(30)):
            assert_close_rel(gas.kernel_row(m, eta), kernel_row_loop(m, eta))

    @pytest.mark.parametrize("kind", ["hot", "cool", "hot+cool"])
    def test_theta_grid_matches_series(self, curve, kind):
        # the kernel's grid: nodes against nodes and stars; 1e-13 relative away
        # from the zeros of theta1 (the diagonal)
        m = kernel_models(curve)[kind]
        a = m.betas
        b = np.concatenate([a, 1.0 - a + m.nodes_chi * curve.tau])
        ref = el.theta1(a[:, None] - b, curve.tau)
        grid = el._theta_grid(True, a, b, curve.tau)
        away = np.abs(ref) > 1e-3 * np.max(np.abs(ref))
        assert np.all(np.abs(grid - ref)[away] <= 1e-13 * np.abs(ref)[away])
        assert np.max(np.abs(grid - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_matrix_makes_no_theta_call(self, curve, theta_calls):
        m = kernel_models(curve)["hot+cool"]
        gas.kernel_matrix(m)    # the per-curve theta1'(0) and zeta(varpi3) are cached
        theta_calls.clear()
        gas.kernel_matrix(m)
        assert theta_calls == []

    @pytest.mark.parametrize("gap", [0.0, 1e-12, 1e-9, 1e-6, 1e-4, "h/2"])
    def test_row_near_node_matches_mpmath(self, curve, gap):
        # the row's smooth part, ln|theta1(eta - beta)/(eta - beta)| on the
        # segment minus ln|theta1(eta - beta*)|, at node k or just off it;
        # on the node the first part is ln theta1'(0)
        m = hot_model(curve)
        k = 20
        h = m.nodes_r[1] - m.nodes_r[0]
        eta = el.JacobianPoint(m.nodes_r[k] + (0.5 * h if gap == "h/2" else gap) + 0j, 0)
        row = gas.kernel_row(m, eta)
        smooth = (row - gas._hat_log_integrals(m.nodes_r, eta.beta.real)[0]) / m.weights
        z = eta.beta - m.betas
        stars = 1.0 - m.betas
        with mpmath.workdps(30):
            ref = [np.log(abs(mp_theta(1, 1, 0.0, curve.tau)) if zj == 0
                          else abs(mp_theta(1, 0, zj, curve.tau)) / abs(zj))
                   - np.log(abs(mp_theta(1, 0, eta.beta - sj, curve.tau)))
                   for zj, sj in zip(z, stars)]
        np.testing.assert_allclose(smooth, ref, rtol=0.0, atol=2e-14)

    def test_hat_integrals(self):
        nodes = np.linspace(0.2, 0.3, 17)
        h = nodes[1] - nodes[0]
        points = [nodes[0], nodes[6], nodes[-1], nodes[3] + 0.25 * h, 0.21 + 1e-9]
        rows = gas._hat_log_integrals(nodes, np.array(points))
        assert rows.shape == (len(points), nodes.size)
        for row, x0 in zip(rows, points):
            assert_close_rel(row, hat_log_integrals_loop(nodes, x0))

    def test_hat_integrals_exact_for_constants(self):
        # the hats sum to one, so the row sums to int_lo^hi ln|x0 - r| dr
        nodes = np.linspace(0.2, 0.3, 17)
        x0 = nodes[4] + 0.3 * (nodes[1] - nodes[0])
        a, b = nodes[0] - x0, nodes[-1] - x0
        exact = b * (np.log(abs(b)) - 1.0) - a * (np.log(abs(a)) - 1.0)
        assert abs(gas._hat_log_integrals(nodes, x0).sum() - exact) < 1e-14


class TestSharedKernel:
    def test_solve_keeps_its_kernel(self, curve):
        m = hot_model(curve, nodes=24)
        assert m.kernel is None
        solved = gas.ndr_solve(m)
        np.testing.assert_array_equal(solved.kernel, gas.kernel_matrix(m))
        assert "kernel" not in repr(solved)

    def test_cli_builds_one_kernel_per_solve(self, curve, tmp_path, monkeypatch, capsys):
        calls = []
        build = gas.kernel_matrix

        def counting(model):
            calls.append(model.nodes_r.size)
            return build(model)

        monkeypatch.setattr(gas, "kernel_matrix", counting)
        cfg = {"curve": {"e1": 2.0, "e2": 1.0, "e3": -3.0},
               "gas": {"support": [{"kind": "hot", "lo": 0.2, "hi": 0.3}],
                       "sigma": 1.0, "nodes": 17}}
        path = tmp_path / "gas.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["gas", "--config", str(path), "--double-nodes"]) == 0
        assert "eos_residual" in capsys.readouterr().out
        assert calls == [17, 33]

    def test_resolve_after_replacing_curve(self, curve):
        # a solved model copied onto another curve carries stale kernel and
        # node terms; solving it again must rebuild both
        other = el.half_periods(1.0, 0.2, -1.2)
        moved = gas.ndr_solve(dataclasses.replace(gas.ndr_solve(hot_model(curve, nodes=24)),
                                                  curve=other))
        fresh = gas.ndr_solve(hot_model(other, nodes=24))
        np.testing.assert_array_equal(moved.solved_u, fresh.solved_u)
        np.testing.assert_array_equal(gas.free_speeds(moved), gas.free_speeds(fresh))
        assert gas.equation_of_state_residual(moved) == gas.equation_of_state_residual(fresh)

    def test_eos_without_kept_kernel(self, curve):
        m = gas.ndr_solve(hot_model(curve, nodes=24))
        fresh = dataclasses.replace(m, kernel=None)
        assert abs(gas.equation_of_state_residual(fresh)
                   - gas.equation_of_state_residual(m)) < 1e-14
        dead = dataclasses.replace(fresh, solved_u=np.zeros_like(m.solved_u))
        with pytest.raises(ZeroDensityNode):
            gas.equation_of_state_residual(dead)

    def test_stacked_solve_matches_separate_solves(self, curve):
        m = gas.build_model(curve, [gas.GasInterval(0, 0.2, 0.3),
                                    gas.GasInterval(1, 0.2, 0.3)], 0.7, 20)
        solved = gas.ndr_solve(m)
        mat = gas.kernel_matrix(m) + np.diag(m.sigma)
        rhs = gas._rhs_vectors(m)
        assert_close_rel(solved.solved_u, np.linalg.solve(mat, rhs[:, 0]), 1e-12)
        assert_close_rel(solved.solved_v, np.linalg.solve(mat, rhs[:, 1]), 1e-12)


class TestFreeSpeed:
    def test_equals_group_velocity(self, curve):
        m = gas.build_model(curve, [gas.GasInterval(0, 0.05, 0.45),
                                    gas.GasInterval(1, 0.05, 0.45)], 1.0, 10)
        s0 = gas.free_speeds(m)
        for i in range(m.nodes_r.size):
            assert abs(s0[i] - dy.group_velocity(m.jacobian_point(i), curve)) < 1e-12

    def test_bright_value(self, curve, bright_point):
        assert abs(dy.group_velocity(bright_point, curve) - 6.8273) < 1e-3

    def test_cool_negative(self, curve):
        # nodes at linspace(0.03, 0.47, 20) on the cool segment
        m = gas.build_model(curve, [gas.GasInterval(1, 0.03, 0.47)], 1.0, 20)
        assert np.all(gas.free_speeds(m) < 0)


class TestNdrSolve:
    def test_dilute_limit(self, curve):
        m = gas.ndr_solve(hot_model(curve, sigma=1e6))
        s0 = gas.free_speeds(m)
        assert np.max(np.abs(m.speeds - s0)) < 1e-4
        assert np.min(m.solved_u) > 0

    def test_rhs_sign_structure(self, curve):
        m = gas.ndr_solve(hot_model(curve, sigma=2.0))
        # u-equation RHS is |P|/2 > 0, hence u > 0 through the M-matrix solve
        assert np.min(m.solved_u) > 0

    def test_tiny_support_single_soliton(self, curve):
        m = gas.ndr_solve(gas.build_model(
            curve, [gas.GasInterval(0, 0.2495, 0.2505)], 1.0, 33))
        mid = 16
        s0 = gas.free_speeds(m)[mid]
        assert abs(m.speeds[mid] - s0) < 1e-3

    def test_node_doubling_small_change(self, curve):
        coarse = gas.ndr_solve(hot_model(curve, nodes=257, lo=0.2, hi=0.3))
        fine = gas.ndr_solve(hot_model(curve, nodes=513, lo=0.2, hi=0.3))
        assert np.max(np.abs(fine.solved_u[::2] - coarse.solved_u)) < 1e-6

    def test_refinement_contraction(self, curve):
        # uniform-node product quadrature contracts like h^2 ln(1/h): the
        # solution of the log-kernel equation has log-singular derivatives at
        # the support endpoints, so the clean factor 4 is reduced by the
        # logarithm; at these resolutions the measured factor is ~3.4
        sols = [gas.ndr_solve(hot_model(curve, nodes=n, lo=0.2, hi=0.3)).solved_u
                for n in (65, 129, 257)]
        d1 = np.max(np.abs(sols[1][::2] - sols[0]))
        d2 = np.max(np.abs(sols[2][::2] - sols[1]))
        print(f"refinement contraction: {d1 / d2:.3f}")
        assert d1 / d2 > 3.0

    def test_monotone_screening(self, curve):
        rng = np.random.default_rng(3)
        for _ in range(5):
            lo = rng.uniform(0.08, 0.3)
            hi = lo + rng.uniform(0.05, 0.15)
            chi = int(rng.integers(0, 2))
            s1 = rng.uniform(0.3, 2.0)
            bump = rng.uniform(0.1, 1.5)
            m1 = gas.ndr_solve(gas.build_model(
                curve, [gas.GasInterval(chi, lo, hi)], s1, 33))
            m2 = gas.ndr_solve(gas.build_model(
                curve, [gas.GasInterval(chi, lo, hi)], s1 + bump, 33))
            assert np.all(m2.solved_u <= m1.solved_u + 1e-12)

    def test_mixed_support(self, curve):
        m = gas.ndr_solve(gas.build_model(
            curve,
            [gas.GasInterval(0, 0.2, 0.3), gas.GasInterval(1, 0.2, 0.3)],
            1.0, 32))
        assert np.min(m.solved_u) > 0
        hot_nodes = m.nodes_chi == 0
        assert np.all(m.speeds[hot_nodes] > 0)
        assert np.all(m.speeds[~hot_nodes] < 0)

    def test_gas_op_makes_one_weierstrass_call(self, tmp_path, weierstrass_calls, capsys):
        # the solve keeps the node terms for the free speeds and the equation of state
        cfg = {"curve": {"e1": 2.0, "e2": 1.0, "e3": -3.0},
               "gas": {"support": [{"kind": "hot", "lo": 0.15, "hi": 0.40}],
                       "sigma": 1.0, "nodes": 32}}
        path = tmp_path / "gas.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["gas", "--config", str(path)]) == 0
        assert "eos_residual" in capsys.readouterr().out
        assert len(weierstrass_calls) == 1

    def test_singular_system_rejected(self, curve):
        iv = gas.GasInterval(0, 0.2, 0.3)
        with pytest.raises(SingularSystem, match="is singular"):
            gas.ndr_solve(gas.build_model(curve, [iv, iv], 0.0, 16))


def ndr_matrix(model):
    return gas.kernel_matrix(model) + np.diag(model.sigma)


@pytest.fixture
def solve_widths(monkeypatch):
    """Column counts of the right-hand sides passed to np.linalg.solve."""
    widths = []

    def recording(a, b, _solve=np.linalg.solve):
        widths.append(b.shape[1])
        return _solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    return widths


class TestConditionGate:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 1e6])
    def test_bound_above_condition_number(self, curve, sigma):
        m = ndr_matrix(hot_model(curve, sigma=sigma))
        assert np.linalg.cond(m, 1) <= gas._cond_bound(m) < np.inf

    def test_bound_above_condition_number_hot_cool(self, curve):
        m = ndr_matrix(gas.build_model(
            curve, [gas.GasInterval(0, 0.15, 0.40), gas.GasInterval(1, 0.15, 0.40)], 1.0, 64))
        assert np.linalg.cond(m, 1) <= gas._cond_bound(m) < np.inf

    def test_dominant_model_solves_once_for_its_rhs(self, curve, solve_widths):
        gas.ndr_solve(hot_model(curve, sigma=1.0))
        assert solve_widths == [2]

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    def test_exact_path_solves(self, curve, sigma, solve_widths):
        # not column dominant (f = 19.6 and 5.96; k1 = 195 and 112); gases this
        # dense have u < 0 somewhere
        model = hot_model(curve, sigma=sigma)
        assert gas._cond_bound(ndr_matrix(model)) == np.inf
        with pytest.warns(NegativeDensityWarning):
            solved = gas.ndr_solve(model)
        assert solve_widths == [2 + 64]
        assert np.all(np.isfinite(solved.solved_u)) and np.all(np.isfinite(solved.solved_v))

    @pytest.mark.parametrize("sigma", [1.0, 0.0], ids=["dominant", "not-dominant"])
    def test_both_paths_raise_above_cap(self, curve, sigma, monkeypatch):
        monkeypatch.setattr(gas, "_COND_LIMIT", 1.5)
        with pytest.raises(SingularSystem, match="condition"):
            gas.ndr_solve(hot_model(curve, sigma=sigma))


class TestEquationOfState:
    def test_moderate_density(self, curve):
        m = gas.ndr_solve(hot_model(curve, sigma=1.0, nodes=64))
        assert gas.equation_of_state_residual(m) < 1e-6

    def test_dilute(self, curve):
        m = gas.ndr_solve(hot_model(curve, sigma=1e6, nodes=32))
        assert gas.equation_of_state_residual(m) < 1e-4

    def test_zero_density_rejected(self, curve):
        m = gas.ndr_solve(hot_model(curve, nodes=16))
        dead = dataclasses.replace(m, solved_u=np.zeros_like(m.solved_u))
        with pytest.raises(ZeroDensityNode):
            gas.equation_of_state_residual(dead)


class TestCarrier:
    def test_empty_gas(self, curve):
        m = gas.ndr_solve(hot_model(curve, nodes=16))
        empty = dataclasses.replace(m, solved_u=np.zeros_like(m.solved_u),
                                    solved_v=np.zeros_like(m.solved_v))
        k, w = gas.carrier_quantities(empty)
        assert abs(k - 2.0 * np.pi / (2.0 * abs(curve.varpi3))) < 1e-14
        assert w == 0.0

    def test_k_real_positive(self, curve):
        # holds for the moderate-to-dilute models exercised by the suite;
        # super-dense gases (sigma well below 1) can drive k_tilde negative
        for sigma in (1.0, 3.0, 10.0, 1e6):
            m = gas.ndr_solve(hot_model(curve, sigma=sigma, nodes=32))
            k, _ = gas.carrier_quantities(m)
            assert k > 0

    def test_odd_integrand_quadrature(self, curve):
        # mu(beta) = beta - beta^star is odd under r -> 1 - r; its trapezoid
        # quadrature against an even density over a symmetric grid vanishes
        rs = np.linspace(0.2, 0.8, 121)
        w = np.full(rs.size, rs[1] - rs[0])
        w[0] = w[-1] = 0.5 * (rs[1] - rs[0])
        mu = 2.0 * rs - 1.0
        even = np.cosh(rs - 0.5)
        assert abs(np.sum(w * mu * even)) < 1e-14


class TestTracer:
    def test_unit_bump_matches_pair_shift(self, curve):
        center, width = 0.36, 0.004
        m = gas.build_model(curve, [gas.GasInterval(1, 0.355, 0.365)], 1.0, 64)
        dens = np.maximum(0.0, 1.0 - np.abs(m.nodes_r - center) / width) / width
        eta = el.JacobianPoint(0.25 + curve.tau / 2, 1)
        s_val = gas.tracer_shift(m, dens, eta)
        fast = el.JacobianPoint(center + curve.tau / 2, 1)
        _, d_slow = dy.pair_shifts(fast, eta, curve)
        assert abs(s_val - d_slow) / abs(d_slow) < 0.05

    def test_pushed_back_sign(self, curve):
        # slow hot tracer among faster hot partners: uniformly pushed back
        m = gas.build_model(curve, [gas.GasInterval(0, 0.1, 0.2)], 1.0, 48)
        dens = np.ones(m.nodes_r.size)
        eta = el.JacobianPoint(0.45 + 0j, 0)
        assert gas.tracer_shift(m, dens, eta) < 0

    def test_zero_density(self, curve):
        m = gas.build_model(curve, [gas.GasInterval(0, 0.1, 0.2)], 1.0, 24)
        eta = el.JacobianPoint(0.45 + 0j, 0)
        assert gas.tracer_shift(m, np.zeros(m.nodes_r.size), eta) == 0.0

    def test_background_rate_matches_discrete_shift(self, curve):
        # A/N of an N-soliton spectrum drawn from a density matches the
        # integral rate for that density
        m = gas.build_model(curve, [gas.GasInterval(0, 0.2, 0.3)], 1.0, 33)
        dens = np.full(m.nodes_r.size, 10.0)  # flat, mass = 10 * 0.1 = 1
        rate = gas.background_shift_rate(m, dens)
        rs = np.linspace(0.2, 0.3, 12)
        sp = tu.spectrum_from_points(
            curve, [(el.JacobianPoint(r + 0j, 0), 0.0) for r in rs])
        discrete = sp.background_shift_A / len(rs)
        assert abs(rate - discrete) < 5e-3

    def test_interval_from_physical(self, curve):
        hot = gas.interval_from_physical(curve, -30.0, -10.0)
        assert hot.chi == 0
        assert abs(el.wp_on_segment(hot.lo, curve) - (-30.0)) < 1e-8
        assert abs(el.wp_on_segment(hot.hi, curve) - (-10.0)) < 1e-8
        cool = gas.interval_from_physical(curve, 1.2, 1.8)
        assert cool.chi == 1 and cool.lo < cool.hi
        ends = sorted([el.wp_on_segment(cool.lo + curve.tau / 2, curve),
                       el.wp_on_segment(cool.hi + curve.tau / 2, curve)])
        assert abs(ends[0] - 1.2) < 1e-8 and abs(ends[1] - 1.8) < 1e-8
        with pytest.raises(ValueError):
            gas.interval_from_physical(curve, -10.0, 1.5)

    def test_physical_density_conversion(self, curve):
        m = gas.build_model(curve, [gas.GasInterval(0, 0.2, 0.3)], 1.0, 65)
        phys = gas.density_from_physical(m, lambda b: 1.0)
        # mass in beta equals |db/dbeta| integrated: wp(2 w3 0.2) - wp(2 w3 0.3)
        mass = np.sum(m.weights * phys)
        span = abs(el.wp_on_segment(0.3, curve) - el.wp_on_segment(0.2, curve))
        assert abs(mass - span) / span < 1e-3
