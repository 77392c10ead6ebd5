"""Velocities, tracking, pair shifts, schedules, background-phase probe."""

import numpy as np
import pytest

from cnoidal_kdv import dynamics as dy
from cnoidal_kdv import elliptic as el
from cnoidal_kdv import tau as tu
from cnoidal_kdv.errors import (
    BranchPointLimit,
    EqualVelocities,
    FitDiverged,
    InvalidNorming,
    UnorderedVelocities,
)
from oracles import track_phase_bisection


class TestGroupVelocity:
    def test_paper_values(self, curve, dim_point, bright_point):
        assert abs(dy.group_velocity(dim_point, curve) - (-8.99139)) < 1e-3
        assert abs(dy.group_velocity(bright_point, curve) - 6.8273) < 1e-3

    def test_sign_classes(self, curve):
        for r in np.linspace(0.02, 0.48, 25):
            assert dy.group_velocity(el.JacobianPoint(r + 0j, 0), curve) > 0
            assert dy.group_velocity(
                el.JacobianPoint(r + curve.tau / 2, 1), curve) < 0

    def test_free_limit(self, curve):
        b = -3000.0  # |b| = 10^3 |e3|
        pt = el.invert_wp(b, curve)
        v = dy.group_velocity(pt, curve)
        assert abs(v / abs(b) - 1.0) < 0.01

    def test_ordering_stable_under_rescaling(self, curve):
        lam = 2.0
        scaled = el.half_periods(lam**2 * 2, lam**2 * 1, lam**2 * -3)
        rng = np.random.default_rng(0)
        pts = []
        for _ in range(8):
            chi = int(rng.integers(0, 2))
            pts.append(el.JacobianPoint(rng.uniform(0.05, 0.45)
                                        + chi * curve.tau / 2, chi))
        v_base = [dy.group_velocity(p, curve) for p in pts]
        v_scaled = [dy.group_velocity(p, scaled) for p in pts]
        assert np.array_equal(np.argsort(v_base), np.argsort(v_scaled))

    def test_branch_point_guard(self, curve):
        with pytest.raises(BranchPointLimit):
            dy.group_velocity(el.JacobianPoint(1e-10 + 0j, 0), curve)

    def test_tracked_soliton_invariants(self, curve, dim_point, bright_point):
        for pt in (dim_point, bright_point):
            tracked = dy.track_soliton(pt, curve)
            assert (tracked.V > 0) == (pt.chi == 0)
            assert tracked.P_abs > 0
            assert abs(tracked.period_T - curve.period_x / tracked.V) == 0.0
            # V = -E/P consistency is enforced inside at 1e-12


class TestTrackPhase:
    def test_periodicity(self, curve, bright_point):
        t_per = dy.track_soliton(bright_point, curve).period_T
        for t in (0.0, 0.4, 1.1):
            a = dy.track_phase(bright_point, curve, 1.0, t)
            b = dy.track_phase(bright_point, curve, 1.0, t + t_per)
            assert abs(a - b) < 1e-9

    def test_defining_equation_residual(self, curve, dim_point):
        rhs, p_abs, v = dy._tracker_rhs(dim_point, curve, 1.7)
        rng = np.random.default_rng(1)
        for t in rng.uniform(-5, 5, 100):
            phi = dy.track_phase(dim_point, curve, 1.7, float(t))
            assert abs(phi - rhs(phi, float(t))[0]) <= 1e-10

    def test_mean_is_log_norming(self, curve, bright_point):
        p_abs = dy.track_soliton(bright_point, curve).P_abs
        assert abs(dy.mean_track_phase(bright_point, curve, 1.0)) < 1e-8
        for k in (0.4, 2.5):
            mean = dy.mean_track_phase(bright_point, curve, k)
            assert abs(mean - np.log(k) / p_abs) < 1e-8


class TestTrackPhaseArray:
    def test_array_matches_scalar_calls(self, curve, bright_point):
        ts = np.random.default_rng(3).uniform(-5, 5, (4, 8))
        phis = dy.track_phase(bright_point, curve, 0.6, ts)
        assert isinstance(phis, np.ndarray) and phis.shape == ts.shape
        scalar = [dy.track_phase(bright_point, curve, 0.6, float(t)) for t in ts.ravel()]
        assert np.max(np.abs(phis.ravel() - scalar)) <= 1e-12

    def test_array_defining_equation_residual(self, curve, dim_point):
        rhs, _, _ = dy._tracker_rhs(dim_point, curve, 1.7)
        ts = np.random.default_rng(1).uniform(-5, 5, 100)
        phis = dy.track_phase(dim_point, curve, 1.7, ts)
        assert np.max(np.abs(phis - rhs(phis, ts)[0])) <= 1e-10

    def test_scalar_t_returns_float(self, curve, bright_point):
        for t in (0.3, np.float64(0.3), np.array(0.3)):
            assert type(dy.track_phase(bright_point, curve, 1.0, t)) is float

    @pytest.mark.parametrize("norming", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_norming_rejected_before_theta(self, curve, bright_point, norming,
                                               theta_calls, series_calls, grid_calls):
        with pytest.raises(InvalidNorming):
            dy.track_phase(bright_point, curve, norming, np.linspace(0.0, 1.0, 4))
        assert theta_calls == []
        assert series_calls == [] and grid_calls == []


def _newton_points(curve):
    return [el.JacobianPoint(0.02 + 0j, 0), el.JacobianPoint(0.3 + 0j, 0),
            el.JacobianPoint(0.24 + curve.tau / 2, 1), el.JacobianPoint(0.49 + curve.tau / 2, 1)]


def _period_midpoints(point, curve, n=64):
    return (np.arange(n) + 0.5) * abs(dy.track_soliton(point, curve).period_T) / n


class TestTrackPhaseNewton:
    @pytest.mark.parametrize("norming", [0.4, 1.0, 1.7, 2.5])
    def test_matches_bisection_oracle(self, curve, norming):
        for point in _newton_points(curve):
            ts = _period_midpoints(point, curve)
            phis = dy.track_phase(point, curve, norming, ts)
            ref = track_phase_bisection(point, curve, norming, ts)
            assert np.max(np.abs(phis - ref)) <= 1e-12

    def test_no_series_theta3(self, curve, dim_point, theta_calls, grid_calls):
        theta_calls.clear()
        dy.track_phase(dim_point, curve, 1.7, np.linspace(0.0, 1.0, 16))
        assert theta_calls.count("theta3") == 0
        assert grid_calls

    def test_table_evaluations_bounded(self, curve, grid_calls):
        # bracket scan, straddle check, Newton iterations and residual gate together
        for point in _newton_points(curve):
            for norming in (0.4, 2.5):
                grid_calls.clear()
                dy.track_phase(point, curve, norming, _period_midpoints(point, curve))
                assert len(grid_calls) <= 20

    def test_root_where_slope_vanishes_is_kept(self, curve, grid_calls):
        # with unit norming Phi(0) = 0, where F' = 0 for a cool point: the
        # first evaluation finds F = 0 and must not bisect away from it
        point = el.JacobianPoint(0.24 + curve.tau / 2, 1)
        rhs, _, _ = dy._tracker_rhs(point, curve, 1.0)
        assert abs(1.0 - rhs(0.0, 0.0)[1]) < 1e-12
        grid_calls.clear()
        assert abs(dy.track_phase(point, curve, 1.0, 0.0)) <= 1e-12
        assert len(grid_calls) <= 4

    def test_slope_matches_finite_difference(self, curve, dim_point):
        rhs, _, _ = dy._tracker_rhs(dim_point, curve, 1.7)
        phi, ts, h = np.linspace(-2.0, 2.0, 9), np.linspace(0.0, 1.0, 9), 1e-5
        _, slope = rhs(phi, ts)
        fd = (rhs(phi + h, ts)[0] - rhs(phi - h, ts)[0]) / (2.0 * h)
        assert np.max(np.abs(slope - fd)) <= 1e-8


class TestPairShifts:
    def test_reference_two_dim_solitons(self, curve):
        slow = el.JacobianPoint(0.25 + curve.tau / 2, 1)   # V ~ -8.94427
        fast = el.JacobianPoint(0.36 + curve.tau / 2, 1)   # V ~ -8.4810443
        assert abs(dy.group_velocity(slow, curve) - (-8.94427)) < 1e-4
        assert abs(dy.group_velocity(fast, curve) - (-8.4810443)) < 1e-4
        d_fast, d_slow = dy.pair_shifts(fast, slow, curve)
        assert abs(d_slow - (-17.32)) < 1e-2
        assert abs(d_fast - 22.878) < 1e-2

    def test_requires_ordered_velocities(self, curve):
        slow = el.JacobianPoint(0.25 + curve.tau / 2, 1)
        fast = el.JacobianPoint(0.36 + curve.tau / 2, 1)
        with pytest.raises(UnorderedVelocities):
            dy.pair_shifts(slow, fast, curve)

    def test_divergence_at_coincidence(self, curve):
        fast = el.JacobianPoint(0.36 + curve.tau / 2, 1)
        mags = []
        for gap in (0.08, 0.04, 0.02, 0.01):
            slow = el.JacobianPoint(0.36 - gap + curve.tau / 2, 1)
            d_fast, _ = dy.pair_shifts(fast, slow, curve)
            mags.append(abs(d_fast))
        assert all(a < b for a, b in zip(mags, mags[1:]))

    def test_opposite_signs(self, curve):
        rng = np.random.default_rng(2)
        done = 0
        while done < 20:
            chi1, chi2 = rng.integers(0, 2, 2)
            p1 = el.JacobianPoint(rng.uniform(0.05, 0.45) + chi1 * curve.tau / 2, int(chi1))
            p2 = el.JacobianPoint(rng.uniform(0.05, 0.45) + chi2 * curve.tau / 2, int(chi2))
            if abs(p1.beta - p2.beta) < 5e-3:
                continue
            if dy.group_velocity(p1, curve) < dy.group_velocity(p2, curve):
                p1, p2 = p2, p1
            d1, d2 = dy.pair_shifts(p1, p2, curve)
            assert d1 * d2 < 0
            done += 1


class TestSchedule:
    def test_single_soliton_zero(self, curve, bright_point):
        sp = tu.spectrum_from_points(curve, [(bright_point, 0.0)])
        assert dy.total_shift_schedule(sp)[0] == 0.0

    def test_two_solitons_match_pair_shifts(self, curve):
        slow = el.JacobianPoint(0.25 + curve.tau / 2, 1)
        fast = el.JacobianPoint(0.36 + curve.tau / 2, 1)
        sp = tu.spectrum_from_points(curve, [(slow, 0.0), (fast, 0.0)])
        sched = dy.total_shift_schedule(sp)
        d_fast, d_slow = dy.pair_shifts(fast, slow, curve)
        assert abs(sched[0] - d_slow) < 1e-12
        assert abs(sched[1] - d_fast) < 1e-12

    def test_three_hot_pairwise_additive(self, curve):
        pts = [el.JacobianPoint(r + 0j, 0) for r in (0.12, 0.22, 0.35)]
        sp = tu.spectrum_from_points(curve, [(p, 0.0) for p in pts])
        sched = dy.total_shift_schedule(sp)
        vs = [dy.group_velocity(p, curve) for p in pts]
        for j, pj in enumerate(pts):
            total = 0.0
            for k, pk in enumerate(pts):
                if k == j:
                    continue
                if vs[j] > vs[k]:
                    total += dy.pair_shifts(pj, pk, curve)[0]
                else:
                    total += dy.pair_shifts(pk, pj, curve)[1]
            assert abs(sched[j] - total) < 1e-12

    def test_one_theta1_pair_for_all_pairs(self, curve, theta_calls):
        pts = [el.JacobianPoint(r + 0j, 0) for r in (0.12, 0.22, 0.35)]
        pts.append(el.JacobianPoint(0.3 + curve.tau / 2, 1))
        sp = tu.spectrum_from_points(curve, [(p, 0.0) for p in pts])
        theta_calls.clear()
        sched = dy.total_shift_schedule(sp)
        assert theta_calls == ["theta1", "theta1"]
        assert sched.shape == (4,) and np.all(np.isfinite(sched))

    def test_equal_velocities_rejected(self, curve, bright_point):
        import dataclasses
        other = el.JacobianPoint(0.41 + 0j, 0)
        sp = tu.spectrum_from_points(curve, [(bright_point, 0.0), (other, 0.0)])
        sp_bad = dataclasses.replace(sp, energy=sp.energy[[0, 0]], p=sp.p[[0, 0]])
        with pytest.raises(EqualVelocities):
            dy.total_shift_schedule(sp_bad)

    def test_empirical_scattering_reference(self, curve):
        # two retrograde solitons of the reference figure: displacement from
        # the tracked positions between t = -+182.5586 matches V dt plus the
        # schedule entry to within one background period
        slow = el.JacobianPoint(0.25 + curve.tau / 2, 1)
        fast = el.JacobianPoint(0.36 + curve.tau / 2, 1)
        sp = tu.spectrum_from_points(curve, [(slow, 0.0), (fast, 0.0)])
        sched = dy.total_shift_schedule(sp)
        t_plus = 182.5586
        b_s, b_f = slow.beta, fast.beta
        s_s, s_f = slow.star(curve.tau), fast.star(curve.tau)
        th = lambda z: abs(el.theta1(z, curve.tau))

        # effective single-soliton normings from the Schur-complement regimes
        norm_minus = {"slow": th(b_f - s_s) / th(b_f - b_s),
                      "fast": th(b_s - b_f) / th(b_f - s_f)}
        norm_plus = {"slow": th(b_f - b_s) / th(b_s - s_s),
                     "fast": th(b_s - s_f) / th(b_s - b_f)}
        period = curve.period_x
        for name, pt, entry_idx in (("slow", slow, 0), ("fast", fast, 1)):
            v = dy.group_velocity(pt, curve)
            phi_m = dy.track_phase(pt, curve, norm_minus[name], -t_plus)
            phi_p = dy.track_phase(pt, curve, norm_plus[name], t_plus)
            displacement = 2 * v * t_plus + (phi_p - phi_m)
            predicted = 2 * v * t_plus + sched[entry_idx]
            assert abs(displacement - predicted) < period


class TestBackgroundProbe:
    def test_unbroken_background(self, sp_cnoidal):
        phases = dy.background_shift_probe(
            sp_cnoidal, 0.0, [(-20, -14), (-3, 3), (14, 20)])
        for p in phases[1:]:
            assert dy.phase_distance_mod1(p, phases[0]) < 1e-6

    def test_single_hot_jump(self, curve, sp_bright):
        mu1 = sp_bright.mu[0]
        v = sp_bright.velocity[0]
        t = 15.0 / v
        phases = dy.background_shift_probe(sp_bright, t, [(30, 36), (-36, -30)])
        jump = phases[1] - phases[0]  # left minus right
        assert dy.phase_distance_mod1(jump, mu1) < 1e-4

    def test_fit_diverges_on_soliton_core(self, curve, sp_bright):
        # a window straddling the core is not a shifted cnoidal wave
        with pytest.raises(FitDiverged):
            dy.background_shift_probe(sp_bright, 0.0, [(-2.0, 2.0)])

    def test_dimbright_three_regions(self, curve, sp_dimbright):
        # middle windows need about 90 units of clearance from the slowly
        # decaying cool core (|P_cool| ~ 0.118), so probe late
        shift_a = sp_dimbright.background_shift_A
        by_kind = {pt.kind: k for k, pt in enumerate(sp_dimbright.points)}
        v_hot = sp_dimbright.velocity[by_kind["hot"]]
        v_cool = sp_dimbright.velocity[by_kind["cool"]]
        mu_hot = sp_dimbright.mu[by_kind["hot"]]
        t = 100.0 / v_hot
        x_hot, x_cool = v_hot * t, v_cool * t
        windows = [(x_hot + 100, x_hot + 106),
                   (x_cool + 110, x_hot - 110),
                   (x_cool - 116, x_cool - 110)]
        windows[1] = (max(windows[1][0], -20.0), min(windows[1][1], -14.0))
        right, middle, left = dy.background_shift_probe(sp_dimbright, t, windows)
        assert dy.phase_distance_mod1(right, -shift_a) < 1e-3
        assert dy.phase_distance_mod1(middle, -shift_a + mu_hot) < 1e-3
        assert dy.phase_distance_mod1(left, shift_a) < 1e-3
