"""The random-phase lattice sum over all draws at once, and the pair arrays."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from cnoidal_kdv import cli
from cnoidal_kdv import elliptic as el
from cnoidal_kdv import riemann as rm
from cnoidal_kdv import tau as tu
from cnoidal_kdv.errors import CoincidentSolitons, NonRealTau, PhaseOverflow
from oracles import (
    finite_gap_solution_loop,
    finite_gap_theta_loop,
    finite_gap_u_mp,
    x_blocks_every_block,
)


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
        tables = rm._x_tables(spectrum2, xs, 6, rm._pinched_blocks(spectrum2))
        rate = np.max(np.abs(tables.rate))
        for eps in (1e-2, 1e-4):
            spec = rm.DegenerationSpec(eps, spectrum2)
            omega = rm.degenerate_period_matrix(spec).omega
            theta = rm._finite_gap_theta(omega, spectrum2, phis, ts, tables)
            u_big = rm.finite_gap_solution(spec, phis, xs, ts, 6)
            assert theta.shape == (3, 3, 2, xs.size) and u_big.shape == (3, 2, xs.size)
            for k, phi in enumerate(phis):
                for i, t in enumerate(ts):
                    scale = np.abs(finite_gap_theta_loop(spec, phi, xs, t, 6))
                    for order in range(3):
                        # Theta' and Theta'' vanish at the extrema of Theta: measure
                        # each against |Theta| times its rate scale
                        ref = finite_gap_theta_loop(spec, phi, xs, t, 6, order)
                        err = np.abs(theta[order, k, i] - ref) / (scale * rate ** order)
                        assert np.max(err) < 1e-12
                ref_u = finite_gap_solution_loop(spec, phi, xs, ts, 6)
                assert np.max(np.abs(u_big[k] - ref_u)) < u_tol
        assert block_counts == [blocks] * 3

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
            # one draw or five sum Theta in a different order
            assert abs(mean - np.mean(devs)) <= 1e-8

    @pytest.mark.parametrize("trials", [1, 9])
    @pytest.mark.parametrize("epsilons", [[1e-2], [1e-2, 1e-3, 1e-4]])
    def test_one_x_table_per_op(self, spectrum2, block_counts, trials, epsilons):
        # the lattice and its E tables are shared by every epsilon of the op
        rm.random_phase_mc(spectrum2, epsilons, trials, 3, np.linspace(-2, 2, 9), [0.0], 4)
        assert block_counts == [1]

    def test_overflow_raises_phase_overflow(self, spectrum2):
        # the box sum overflows at |x| = 200; this used to return NaN u
        spec = rm.DegenerationSpec(1e-2, spectrum2)
        with pytest.raises(PhaseOverflow):
            rm.finite_gap_solution(spec, np.array([0.3, -0.2]),
                                   np.linspace(-200, 200, 41), [0.0], 6)


class TestClosedFormU:
    @pytest.mark.parametrize("genus, radius", [(2, 6), (3, 4)])
    def test_matches_mp_box_sum(self, curve, bright_point, dim_point, genus, radius):
        # the same box summed in 40 digits; a D2 stencil of ln Theta is off by 1e-10 to 1.1e-9 here
        points = [(bright_point, 0.0), (dim_point, 0.0)][:genus - 1]
        sp = tu.spectrum_from_points(curve, points)
        phi = np.array([0.37, -0.61])[:genus - 1]
        xs = np.array([-3.7, 0.4, 2.9])
        for eps, t in ((1e-2, 0.0), (1e-4, 0.3)):
            spec = rm.DegenerationSpec(eps, sp)
            u = rm.finite_gap_solution(spec, phi, xs, [t], radius)[0]
            want = np.array([finite_gap_u_mp(spec, phi, x, t, radius) for x in xs])
            assert np.max(np.abs(u - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("order", [1, 2])
    def test_derivative_reality_gate_scales_with_theta(self, spectrum2, order):
        # Theta^(k) is zero where Theta peaks, so its imaginary part is measured
        # against |Theta| rate^k, not against Theta^(k) itself
        tables = rm._x_tables(spectrum2, np.linspace(-2.0, 2.0, 5), 4, rm._pinched_blocks(spectrum2))
        rate = np.max(np.abs(tables.rate))
        theta = np.zeros((3, 1, 1, 5), dtype=complex)
        theta[0] = 2.0
        theta[order, ..., 3] = 0.5e-8j * 2.0 * rate ** order
        rm._finite_gap_u(theta, tables)
        theta[order, ..., 3] *= 4.0
        with pytest.raises(NonRealTau):
            rm._finite_gap_u(theta, tables)


class TestPrunedRows:
    @pytest.fixture(scope="class")
    def spectrum3(self, curve):
        return tu.spectrum_from_points(
            curve, [(el.JacobianPoint(0.14 + 0j, 0), 0.0),
                    (el.JacobianPoint(0.36 + curve.tau / 2, 1), 0.0),
                    (el.JacobianPoint(0.30 + 0j, 0), 0.0)])

    def test_genus4_sums_fewer_rows_than_the_box(self, spectrum3):
        before = dict(rm._LATTICE_TERMS)
        rm.random_phase_mc(spectrum3, [1e-2, 1e-4], 10, 5, np.linspace(-5, 5, 41), [0.0], 3)
        every, summed = (rm._LATTICE_TERMS[key] - before[key] for key in ("all", "summed"))
        assert every == 7 ** 4 * 10 * 2       # rows x draws x epsilons, one block, one t
        assert 0 < summed < every

    def test_failed_certificate_sums_every_row(self, spectrum3, monkeypatch):
        xs = np.linspace(-5, 5, 41)
        tables = rm._x_tables(spectrum3, xs, 3, rm._pinched_blocks(spectrum3))
        omega = rm.degenerate_period_matrix(rm.DegenerationSpec(1e-3, spectrum3)).omega
        phis = np.random.default_rng(8).uniform(-1.0, 1.0, size=(4, 3))
        ts = np.array([0.0, 0.2])
        pruned = rm._finite_gap_theta(omega, spectrum3, phis, ts, tables)
        monkeypatch.setattr(el, "_KEEP_LOG", -np.inf)        # every row kept
        every = rm._finite_gap_theta(omega, spectrum3, phis, ts, tables)
        monkeypatch.setattr(el, "_KEEP_LOG", np.inf)         # none kept, so none certified
        before = rm._LATTICE_TERMS["summed"]
        fallback = rm._finite_gap_theta(omega, spectrum3, phis, ts, tables)
        assert rm._LATTICE_TERMS["summed"] - before == 7 ** 4 * 4 * 2
        assert np.array_equal(fallback, every)
        rate = np.max(np.abs(tables.rate))
        for k in range(3):
            err = np.abs(pruned[k] - every[k]) / (np.abs(every[0]) * rate ** k)
            assert np.max(err) < 1e-14

    # rows x draws x epsilons of _LATTICE_TERMS over each Monte Carlo pool
    # member's op, as the pruned lattice sum summed them when its block
    # half-width came from the steepest row's E table (one block each)
    MC_SUMMED = {"mc_g4r3-0": 19830, "mc_g4r3-1": 10510, "mc_g4r3-2": 9110,
                 "mc_g4r3-3": 10560, "mc_g4r3-4": 11920, "mc_g4r3-5": 15520,
                 "mc_g4r3-6": 8160, "mc_g4r3-7": 12180, "mc_g3r4-0": 2940,
                 "mc_g3r4-1": 3500, "mc_g3r4-2": 3330, "mc_g3r4-3": 3500,
                 "mc_g3r4-4": 2840, "mc_g3r4-5": 3520, "mc_g2r6-0": 2020,
                 "mc_g2r6-1": 2760, "mc_g2r6-2": 2760, "mc_g2r6-3": 2020,
                 "mc_g2r6-4": 2340, "mc_g2r6-5": 2220}
    MC_ALL = {"mc_g4r3": 7 ** 4 * 10 * 3, "mc_g3r4": 9 ** 3 * 10 * 3, "mc_g2r6": 13 ** 2 * 20 * 3}

    @pytest.mark.parametrize("label", sorted(MC_SUMMED))
    def test_mc_members_sum_the_recorded_rows(self, label, tmp_path, capsys):
        pool = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "mc_riemann.json"
        cls, j = label.rsplit("-", 1)
        member = json.loads(pool.read_text())["classes"][cls][int(j)]
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(member["cfg"]))
        before = dict(rm._LATTICE_TERMS)
        cli.main([member["command"], "--config", str(path), *member.get("args", [])])
        capsys.readouterr()
        counts = {key: rm._LATTICE_TERMS[key] - before[key] for key in ("all", "summed")}
        assert counts == {"all": self.MC_ALL[cls], "summed": self.MC_SUMMED[label]}

    def test_radius_below_one_refused(self, spectrum2):
        spec = rm.DegenerationSpec(1e-2, spectrum2)
        with pytest.raises(ValueError, match="radius must be >= 1"):
            rm.finite_gap_solution(spec, np.zeros(2), np.linspace(-1, 1, 5), [0.0], 0)


class TestXBlocks:
    @pytest.mark.parametrize("xs, reach", [
        (np.linspace(-80.0, 80.0, 81), 22.0),
        # two clusters with a span of empty blocks between them
        (np.concatenate([np.linspace(-1e5, -1e5 + 30.0, 20), np.linspace(0.0, 50.0, 21)]), 8.0),
        # unsorted points: each index set keeps its points in the order of xs
        (np.random.default_rng(2).uniform(-40.0, 40.0, 57), 5.0),
    ])
    def test_same_sets_as_every_block_scan(self, xs, reach):
        got = rm._x_blocks(xs, reach)
        want = x_blocks_every_block(xs, reach)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


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
                ratio = abs(el.theta1(sp.beta[j] - sp.beta[l], curve.tau)
                            / el.theta1(sp.beta[j] - sp.beta_star[l], curve.tau))
                want = np.log(ratio) / (1j * np.pi)
                # absolute: an ulp of the ratio near 1 is an ulp of its log
                assert abs(b[l, j] - want) <= 1e-15
                assert b[j, l] == b[l, j]

    def test_first_coincident_pair_named(self, curve):
        # pairs (0, 3) and (1, 2) coincide; the row-by-row scan meets (0, 3) first
        betas = (0.15, 0.22, 0.31, 0.38)
        sp = tu.spectrum_from_points(curve, [(el.JacobianPoint(b + 0j, 0), 0.0) for b in betas])
        b = sp.beta
        bad = [b[0], b[1], b[1] + 5e-11, b[0] - 5e-11]
        with pytest.raises(CoincidentSolitons, match="beta_3 and beta_0"):
            rm.degenerate_period_matrix(
                rm.DegenerationSpec(1e-3, dataclasses.replace(sp, beta=bad)))
