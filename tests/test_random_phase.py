"""The random-phase lattice sum over all draws at once, and the pair arrays."""

import dataclasses

import numpy as np
import pytest

from cnoidal_kdv import elliptic as el
from cnoidal_kdv import riemann as rm
from cnoidal_kdv import tau as tu
from cnoidal_kdv.errors import CoincidentSolitons, PhaseOverflow
from oracles import finite_gap_solution_loop, finite_gap_theta_loop


@pytest.fixture(scope="module")
def spectrum2(curve, dim_point, bright_point):
    return tu.spectrum_from_points(curve, [(bright_point, 0.0), (dim_point, 0.0)])


@pytest.fixture
def block_counts(monkeypatch):
    """Number of x blocks of each factored lattice sum, in call order."""
    counts = []
    split = rm._x_blocks

    def counting(*args):
        blocks = split(*args)
        counts.append(len(blocks))
        return blocks

    monkeypatch.setattr(rm, "_x_blocks", counting)
    return counts


class TestBatchedPhases:
    # On [-80, 80] the loop's single exponents reach the hundreds and its own
    # u is off a 40-digit box sum by up to 7.4e-8 (x = -76, t = 0.3, eps =
    # 1e-2, first draw), where the factored sum is off by 2.7e-8.
    @pytest.mark.parametrize("xs, blocks, u_tol", [(np.linspace(-5, 5, 41), 1, 1e-7),
                                                   (np.linspace(-80, 80, 81), 3, 2e-7)])
    def test_matches_per_draw_loop(self, spectrum2, block_counts, xs, blocks, u_tol):
        phis = np.random.default_rng(6).uniform(-1.0, 1.0, size=(3, 2))
        ts = np.array([0.0, 0.3])
        h = 1e-3 * spectrum2.curve.period_x
        x_st = (xs[:, None] + h * np.arange(-2, 3)[None, :]).ravel()
        for eps in (1e-2, 1e-4):
            spec = rm.DegenerationSpec(eps, spectrum2)
            theta = rm._finite_gap_theta(spec, phis, xs, h, ts, 6)
            u_big = rm.finite_gap_solution(spec, phis, xs, ts, 6)
            assert u_big.shape == (3, 2, xs.size)
            for k, phi in enumerate(phis):
                for i, t in enumerate(ts):
                    ref = finite_gap_theta_loop(spec, phi, x_st, t, 6)
                    assert np.max(np.abs(theta[k, i].ravel() - ref) / np.abs(ref)) < 1e-12
                ref_u = finite_gap_solution_loop(spec, phi, xs, ts, 6)
                assert np.max(np.abs(u_big[k] - ref_u)) < u_tol
        assert block_counts == [blocks] * 4

    def test_one_draw_is_first_row(self, spectrum2):
        spec = rm.DegenerationSpec(1e-3, spectrum2)
        xs = np.linspace(-3, 3, 13)
        one = rm.finite_gap_solution(spec, np.array([0.2, -0.4]), xs, [0.0, 0.1], 6)
        many = rm.finite_gap_solution(spec, np.array([[0.2, -0.4]]), xs, [0.0, 0.1], 6)
        assert one.shape == (2, 13) and many.shape == (1, 2, 13)
        assert np.array_equal(one, many[0])
        with pytest.raises(ValueError):
            rm.finite_gap_solution(spec, np.zeros(3), xs, [0.0], 6)

    def test_mc_is_mean_of_trials(self, spectrum2):
        xs = np.linspace(-5, 5, 21)
        epsilons = [1e-2, 1e-3]
        means = rm.random_phase_mc(spectrum2, epsilons, 5, 11, xs, [0.0], 5)
        phis = np.random.default_rng(11).uniform(-1.0, 1.0, size=(5, 2))
        for eps, mean in zip(epsilons, means):
            spec = rm.DegenerationSpec(eps, spectrum2)
            devs = [rm.random_phase_trial(spec, phi, xs, [0.0], 5) for phi in phis]
            # one draw or five sum Theta in a different order; the stencil
            # turns an ulp of ln Theta into a few 1e-10 of u
            assert abs(mean - np.mean(devs)) <= 1e-8

    @pytest.mark.parametrize("trials", [1, 9])
    def test_one_lattice_sum_per_epsilon(self, spectrum2, trials, monkeypatch):
        shapes = []
        solve = rm.finite_gap_solution

        def counting(spec, phi, *args):
            shapes.append(np.shape(phi))
            return solve(spec, phi, *args)

        monkeypatch.setattr(rm, "finite_gap_solution", counting)
        rm.random_phase_mc(spectrum2, [1e-2, 1e-3, 1e-4], trials, 3,
                           np.linspace(-2, 2, 9), [0.0], 4)
        assert shapes == [(trials, 2)] * 3

    def test_overflow_raises_phase_overflow(self, spectrum2):
        # the box sum overflows at |x| = 200; this used to return NaN u
        spec = rm.DegenerationSpec(1e-2, spectrum2)
        with pytest.raises(PhaseOverflow):
            rm.finite_gap_solution(spec, np.array([0.3, -0.2]),
                                   np.linspace(-200, 200, 41), [0.0], 6)


class TestPairArrays:
    def test_offdiagonal_matches_pair_loop(self, curve):
        sp = tu.spectrum_from_points(
            curve, [(el.JacobianPoint(0.18 + 0j, 0), 0.0),
                    (el.JacobianPoint(0.34 + 0j, 0), 0.0),
                    (el.JacobianPoint(0.27 + curve.tau / 2, 1), 0.0),
                    (el.JacobianPoint(0.12 + curve.tau / 2, 1), 0.0)])
        b = rm.degenerate_period_matrix(rm.DegenerationSpec(1e-3, sp)).block_b
        for l in range(4):
            for j in range(l + 1, 4):
                e_l, e_j = sp.entries[l], sp.entries[j]
                ratio = abs(el.theta1(e_j.beta - e_l.beta, curve.tau)
                            / el.theta1(e_j.beta - e_l.beta_star, curve.tau))
                want = np.log(ratio) / (1j * np.pi)
                # absolute: an ulp of the ratio near 1 is an ulp of its log
                assert abs(b[l, j] - want) <= 1e-15
                assert b[j, l] == b[l, j]

    def test_first_coincident_pair_named(self, curve):
        # pairs (0, 3) and (1, 2) coincide; the row-by-row scan meets (0, 3) first
        betas = (0.15, 0.22, 0.31, 0.38)
        sp = tu.spectrum_from_points(curve, [(el.JacobianPoint(b + 0j, 0), 0.0) for b in betas])
        e = sp.entries
        bad = (e[0], e[1], dataclasses.replace(e[2], beta=e[1].beta + 5e-11),
               dataclasses.replace(e[3], beta=e[0].beta - 5e-11))
        with pytest.raises(CoincidentSolitons, match="beta_3 and beta_0"):
            rm.degenerate_period_matrix(
                rm.DegenerationSpec(1e-3, dataclasses.replace(sp, entries=bad)))
