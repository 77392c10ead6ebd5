"""Lattice theta sums, synthetic period matrices, degeneration and Fay checks."""

import itertools

import numpy as np
import pytest

from cnoidal_kdv import elliptic as el
from cnoidal_kdv import riemann as rm
from cnoidal_kdv import tau as tu
from cnoidal_kdv.errors import (
    CoincidentSolitons,
    SingularConfiguration,
    TruncationInsufficient,
)
from oracles import fay_sides_loop, hotcool_offdiagonal


@pytest.fixture(scope="module")
def spectrum2(curve, dim_point, bright_point):
    return tu.spectrum_from_points(curve, [(bright_point, 0.0), (dim_point, 0.0)])


@pytest.fixture(scope="module")
def spectrum1(curve, bright_point):
    return tu.spectrum_from_points(curve, [(bright_point, 0.0)])


class TestPeriodMatrix:
    def test_blocks(self, curve, spectrum2):
        spec = rm.DegenerationSpec(epsilon=1e-3, spectrum=spectrum2)
        pm = rm.degenerate_period_matrix(spec)
        assert pm.dim == 3
        assert np.max(np.abs(pm.omega - pm.omega.T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(pm.omega.imag)) > 0
        assert abs(pm.corner - curve.tau) == 0
        # hot mu = 2 beta - 1 = -0.4 at beta = 0.3
        assert abs(pm.block_mu[0] - (-0.4)) < 1e-14
        assert abs(pm.block_b[0, 0] - 1j * np.log(1e3)) < 1e-14

    def test_offdiagonal_vs_hotcool_display(self, curve, spectrum2):
        spec = rm.DegenerationSpec(epsilon=1e-3, spectrum=spectrum2)
        pm = rm.degenerate_period_matrix(spec)
        beta_hot, beta_cool = spectrum2.beta
        oracle = hotcool_offdiagonal(beta_hot, beta_cool, curve)
        assert abs(pm.block_b[1, 0] - oracle) < 1e-12
        assert abs(pm.block_b[0, 1] - pm.block_b[1, 0]) == 0.0

    def test_coincident_rejected(self, curve, bright_point):
        # the spectrum builder has its own duplicate gate, so inject the
        # near-coincident entry directly to exercise the period-matrix guard
        import dataclasses
        other = el.JacobianPoint(beta=0.35 + 0j, chi=0)
        sp = tu.spectrum_from_points(curve, [(bright_point, 0.0), (other, 0.0)])
        sp_bad = dataclasses.replace(sp, beta=[sp.beta[0], bright_point.beta + 5e-11])
        with pytest.raises(CoincidentSolitons):
            rm.degenerate_period_matrix(rm.DegenerationSpec(1e-3, sp_bad))


class TestLatticeSum:
    def test_lattice_rows_in_product_order(self):
        for dim, radius in ((1, 1), (2, 3), (3, 2), (4, 1)):
            rng = range(-radius, radius + 1)
            expect = np.array(list(itertools.product(rng, repeat=dim)), dtype=float)
            assert np.array_equal(rm._lattice(dim, radius), expect)

    def test_dim1_is_theta3(self, curve):
        om = np.array([[curve.tau]])
        for b in (0.3, 0.1 + 0.2j, -0.7):
            v, tail = rm.theta_lattice_sum(np.array([b]), om, radius=8)
            assert abs(v - el.theta3(b, curve.tau)) < 1e-12
            assert tail < 1e-12

    def test_even(self, curve, spectrum2):
        pm = rm.degenerate_period_matrix(rm.DegenerationSpec(1e-2, spectrum2))
        rng = np.random.default_rng(0)
        x = rng.normal(size=3) * 0.4 + 1j * rng.normal(size=3) * 0.15
        a, _ = rm.theta_lattice_sum(x, pm, radius=8)
        b, _ = rm.theta_lattice_sum(-x, pm, radius=8)
        assert abs(a - b) <= 1e-12 * abs(a)

    def test_quasi_periodicity_resummation(self, curve, spectrum2):
        pm = rm.degenerate_period_matrix(rm.DegenerationSpec(1e-2, spectrum2))
        rng = np.random.default_rng(1)
        x = rng.normal(size=3) * 0.3 + 1j * rng.normal(size=3) * 0.1
        for k in range(3):
            lhs, _ = rm.theta_lattice_sum(x + pm.omega[k], pm, radius=10)
            base, _ = rm.theta_lattice_sum(x, pm, radius=10)
            rhs = np.exp(-1j * np.pi * pm.omega[k, k] - 2j * np.pi * x[k]) * base
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_block_diagonal_factorizes(self, curve):
        om = np.array([[2.0j, 0.0], [0.0, curve.tau]])
        x = np.array([0.21 + 0.05j, -0.4 + 0.1j])
        v, _ = rm.theta_lattice_sum(x, om, radius=8)
        prod = (rm.theta_lattice_sum(x[:1], om[:1, :1], radius=8)[0]
                * rm.theta_lattice_sum(x[1:], om[1:, 1:], radius=8)[0])
        assert abs(v - prod) <= 1e-12 * abs(prod)

    def test_tail_bound_monotone_in_radius(self, curve, spectrum2):
        pm = rm.degenerate_period_matrix(rm.DegenerationSpec(1e-2, spectrum2))
        x = np.array([0.1j, -0.2j, 0.37])
        tails = [rm.theta_lattice_sum(x, pm, radius=r)[1] for r in (2, 4, 6, 8)]
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    def test_truncation_gate(self, curve, spectrum2):
        pm = rm.degenerate_period_matrix(rm.DegenerationSpec(1e-2, spectrum2))
        x = np.array([0.1j, -0.2j, 0.37])
        with pytest.raises(TruncationInsufficient):
            rm.theta_lattice_sum(x, pm, radius=1, tol=1e-30)


class TestDegeneration:
    def test_empty_spectrum_residual_zero(self, curve):
        sp = tu.build_spectrum(curve, [])
        spec = rm.DegenerationSpec(epsilon=1e-4, spectrum=sp)
        assert rm.degeneration_residual(np.array([0.3]), spec, radius=6) == 0.0

    def test_factorization_identity(self, curve, spectrum1, spectrum2):
        # restricted lattice sum == det(1+G) theta3(beta - A): the Fay plus
        # Fredholm-expansion identity behind the determinant formula; the
        # N = 3 case exercises the third-order minors
        spectrum3 = tu.spectrum_from_points(
            curve, [(el.JacobianPoint(0.18 + 0j, 0), 0.0),
                    (el.JacobianPoint(0.34 + 0j, 0), 0.0),
                    (el.JacobianPoint(0.27 + curve.tau / 2, 1), 0.0)])
        rng = np.random.default_rng(2)
        for sp in (spectrum1, spectrum2, spectrum3):
            n = len(sp)
            pm = rm.degenerate_period_matrix(rm.DegenerationSpec(1e-3, sp))
            psis = 1j * rng.uniform(-0.5, 0.5, n)
            beta = rng.uniform(0, 1)
            x = np.concatenate([psis, [beta]])
            restricted, _ = rm._half_period_split_sums(x, [pm.omega], n,
                                                       rm._split_lattice(n + 1, n, 6))
            det_side = tu.fredholm_factor(sp, psis, beta)
            assert abs(restricted - det_side) <= 1e-11 * (1 + abs(det_side))

    def test_single_hot_monotone(self, spectrum1):
        x = np.array([0.2j, 0.13])
        resids = []
        for eps in (1e-2, 1e-4, 1e-6):
            spec = rm.DegenerationSpec(epsilon=eps, spectrum=spectrum1)
            resids.append(rm.degeneration_residual(x, spec, radius=6))
        assert resids[0] > resids[1] > resids[2]
        assert resids[2] < 1e-6
        # decrease rate tracks the eps^(2 pi) suppression of the nearest
        # excluded lattice shell; log the measured rate
        rate = np.log(resids[0] / resids[1]) / np.log(1e-4 / 1e-2)
        print(f"degeneration decrease rate: eps^{-rate:.3f}")
        assert 5.0 < -rate < 8.0

    def test_two_soliton_random_phases(self, spectrum2):
        rng = np.random.default_rng(3)
        spec = rm.DegenerationSpec(epsilon=1e-6, spectrum=spectrum2)
        for _ in range(5):
            x = np.array([1j * rng.uniform(-0.5, 0.5),
                          1j * rng.uniform(-0.5, 0.5),
                          rng.uniform(0, 1)])
            assert rm.degeneration_residual(x, spec, radius=6) < 1e-5

    def test_residuals_match_one_epsilon_at_a_time(self, spectrum2):
        x = np.array([0.13j, -0.27j, 0.61])
        epsilons = [1e-2, 1e-4, 1e-6]
        together = rm._degeneration_residuals(x, spectrum2, epsilons, radius=6)
        alone = [rm.degeneration_residual(x, rm.DegenerationSpec(eps, spectrum2), radius=6)
                 for eps in epsilons]
        assert together == alone

    def test_restricted_sum_is_epsilon_free(self, spectrum2):
        # with the soliton diagonal dropped the {0,1}^N rows read the same bits
        # at every epsilon, so one restricted sum serves them all
        x = np.array([0.13j, -0.27j, 0.61])
        boxes = rm._split_lattice(3, 2, 6)
        omegas = [rm.degenerate_period_matrix(rm.DegenerationSpec(eps, spectrum2)).omega
                  for eps in (1e-2, 1e-4, 1e-6)]
        restricted, complements = rm._half_period_split_sums(x, omegas, 2, boxes)
        for omega, complement in zip(omegas, complements):
            assert rm._half_period_split_sums(x, [omega], 2, boxes) == (restricted, [complement])
        assert len(set(complements)) == 3

    def test_residuals_reject_bad_epsilon(self, spectrum2):
        with pytest.raises(ValueError, match="epsilon"):
            rm._degeneration_residuals(np.array([0.1j, 0.2j, 0.3]), spectrum2, [1e-2, 2.0], 6)

    def test_relabeling_invariance(self, curve, dim_point, bright_point):
        sp_a = tu.spectrum_from_points(curve, [(bright_point, 0.0), (dim_point, 0.0)])
        sp_b = tu.spectrum_from_points(curve, [(dim_point, 0.0), (bright_point, 0.0)])
        psis = np.array([0.11j, -0.21j])
        beta = 0.37
        r_a = rm.degeneration_residual(np.array([*psis, beta]),
                                       rm.DegenerationSpec(1e-2, sp_a), radius=6)
        r_b = rm.degeneration_residual(np.array([*psis[::-1], beta]),
                                       rm.DegenerationSpec(1e-2, sp_b), radius=6)
        assert abs(r_a - r_b) <= 1e-12 * max(r_a, r_b) + 1e-30


class TestFay:
    def test_n1_trivial(self, curve):
        assert rm.fay_residual(1, [0.31 + 0.1j], [0.87 + 0.05j], 0.4 + 0.1j, curve) < 1e-14

    def test_random_configurations(self, curve):
        rng = np.random.default_rng(4)
        for n, tol in ((2, 1e-10), (3, 1e-9), (4, 1e-9)):
            for _ in range(10):
                xs = rng.uniform(0, 1, n) + 1j * rng.uniform(0, 0.3, n)
                xh = rng.uniform(0, 1, n) + 1j * rng.uniform(0, 0.3, n)
                e_pt = rng.uniform(0, 1) + 0.1j
                assert rm.fay_residual(n, xs, xh, e_pt, curve) < tol

    def test_translation_invariance(self, curve):
        rng = np.random.default_rng(5)
        xs = rng.uniform(0, 1, 2) + 0.05j
        xh = rng.uniform(0, 1, 2) + 0.12j
        e_pt = 0.4 + 0.15j
        shift = 0.234 - 0.06j
        r0 = rm.fay_residual(2, xs, xh, e_pt, curve)
        r1 = rm.fay_residual(2, xs + shift, xh + shift, e_pt, curve)
        assert abs(r0 - r1) < 1e-10

    def test_singular_configuration(self, curve):
        with pytest.raises(SingularConfiguration):
            rm.fay_residual(1, [0.3 + 0.1j], [0.3 + 0.1j], 0.4, curve)

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_batch_matches_per_trial_loop(self, curve, n):
        rng = np.random.default_rng(8)
        xs = rng.uniform(0, 1, (12, n)) + 1j * rng.uniform(0, 0.3, (12, n))
        xh = rng.uniform(0, 1, (12, n)) + 1j * rng.uniform(0, 0.3, (12, n))
        e_pts = rng.uniform(0, 1, 12) + 0.1j
        got = rm._fay_residuals(n, xs, xh, e_pts, curve)
        assert got.shape == (12,)
        for r, x, y, e in zip(got, xs, xh, e_pts):
            lhs, rhs = fay_sides_loop(n, x, y, e, curve)
            assert abs(r - abs(lhs - rhs)) <= 1e-15 * max(abs(lhs), abs(rhs))

    def test_batch_raises_as_first_singular_trial(self, curve):
        # trial 1 has theta1(x - xhat) = 0, trial 2 theta3(E) = 0: the loop meets trial 1 first
        xs = np.array([[0.2 + 0.1j], [0.3 + 0.1j], [0.6 + 0.1j]])
        xh = np.array([[0.7 + 0.2j], [0.3 + 0.1j], [0.1 + 0.05j]])
        e_pts = np.array([0.4 + 0.1j, 0.4 + 0.1j, 0.5 + curve.tau / 2.0])
        with pytest.raises(SingularConfiguration, match="theta1"):
            rm._fay_residuals(1, xs, xh, e_pts, curve)
        with pytest.raises(SingularConfiguration, match="theta3"):
            rm._fay_residuals(1, xs[[0, 2]], xh[[0, 2]], e_pts[[0, 2]], curve)


class TestRandomPhase:
    def test_zero_phases_show_soliton(self, spectrum2):
        spec = rm.DegenerationSpec(epsilon=1e-6, spectrum=spectrum2)
        xs = np.linspace(-5, 5, 41)
        dev = rm.random_phase_trial(spec, np.zeros(2), xs, [0.0], radius=6)
        assert dev > 0.5  # the solitonic disturbance sits on the grid

    def test_full_phases_suppress_soliton(self, spectrum2):
        spec = rm.DegenerationSpec(epsilon=1e-6, spectrum=spectrum2)
        xs = np.linspace(-5, 5, 41)
        dev = rm.random_phase_trial(spec, np.array([1.0, 1.0]), xs, [0.0], radius=6)
        assert dev < 1e-3

    def test_finite_gap_matches_soliton_solution(self, curve, spectrum2):
        # phi = 0 at small epsilon reproduces u from the tau formula
        spec = rm.DegenerationSpec(epsilon=1e-6, spectrum=spectrum2)
        xs = np.linspace(-3, 3, 25)
        u_big = rm.finite_gap_solution(spec, np.zeros(2), xs, [0.2], radius=6)[0]
        # the same constant gauge
        u_det = tu.u_grid(spectrum2, xs, 0.2) + 4.0 * spectrum2.curve.quad_const
        assert np.max(np.abs(u_big - u_det)) < 1e-6

    def test_mc_means_decrease(self, spectrum2):
        xs = np.linspace(-5, 5, 41)
        means = rm.random_phase_mc(spectrum2, [1e-2, 1e-3, 1e-4], 24, 42, xs, [0.0], 6)
        assert means[0] > means[1] > means[2]
