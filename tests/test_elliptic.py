"""Theta functions, Weierstrass functions, half periods, wp inversion."""

import json
import math
import statistics
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnoidal_kdv import elliptic as el
from cnoidal_kdv.errors import (
    CnoidalKdvError,
    LatticePoint,
    NonDistinctBranchPoints,
    SpectrumInGap,
    ThetaConvergenceError,
    TooCloseToBranchPoint,
    TraceNotZero,
)
from oracles import (
    fd_derivative,
    invert_wp_bisection,
    lattice_zeta,
    legendre_combination,
    mp_theta,
    quad_half_periods,
    theta_eval,
    theta_sum_two_exp,
)


class TestHalfPeriods:
    def test_paper_values(self, curve):
        assert abs(curve.varpi1 - 1.009452) < 1e-5
        assert abs(curve.varpi3 - (-0.742206j)) < 1e-5
        assert abs(curve.tau - 1.36007j) < 1e-5

    def test_runtime_under_1ms(self):
        el.half_periods(2.0, 1.0, -3.0)  # warm up
        reps = 200
        t0 = time.perf_counter()
        for _ in range(reps):
            el.half_periods(2.0, 1.0, -3.0)
        assert (time.perf_counter() - t0) / reps < 1e-3

    def test_symmetric_curve_equal_periods(self):
        c = el.half_periods(2.0, 0.0, -2.0)
        assert abs(curve_m := (0.0 - (-2.0)) / (2.0 - (-2.0))) == 0.5
        assert abs(c.varpi1 - abs(c.varpi3)) < 1e-14

    def test_quadrature_oracle(self):
        c = el.half_periods(2.0, 1.0, -3.0)
        w1, w3 = quad_half_periods(2.0, 1.0, -3.0)
        assert abs(c.varpi1 - w1) < 1e-9
        assert abs(abs(c.varpi3) - w3) < 1e-9

    def test_cubic_factorization(self, curve):
        rng = np.random.default_rng(0)
        for z in rng.uniform(-5, 5, 5):
            lhs = 4 * z**3 - curve.g2 * z - curve.g3
            rhs = 4 * (z - curve.e1) * (z - curve.e2) * (z - curve.e3)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)

    def test_shape_invariants(self, curve):
        assert curve.varpi1 > 0
        assert curve.varpi3.real == 0 and curve.varpi3.imag < 0
        assert abs(curve.tau.real) < 1e-15 and curve.tau.imag > 0
        assert abs(curve.nome_q) < 1

    def test_errors(self):
        with pytest.raises(NonDistinctBranchPoints):
            el.half_periods(1.0, 1.0, -2.0)
        with pytest.raises(TraceNotZero):
            el.half_periods(2.0, 1.0, -2.5)


class TestTheta:
    def test_theta1_odd_and_zero(self, curve):
        assert abs(el.theta1(0.0, curve.tau)) < 1e-15
        assert abs(el.theta1(-0.3, curve.tau) + el.theta1(0.3, curve.tau)) < 1e-15

    def test_theta3_periodic(self, curve):
        b = 0.17 + 0.2j
        assert abs(el.theta3(b + 1.0, curve.tau) - el.theta3(b, curve.tau)) < 1e-15

    def test_quasi_periodicity_sampled(self, curve):
        rng = np.random.default_rng(1)
        t = curve.tau
        for _ in range(50):
            b = complex(rng.uniform(-1, 1), rng.uniform(-0.6, 0.6))
            v = el.theta1(b, t)
            shift1 = el.theta1(b + 1.0, t)
            assert abs(shift1 + v) <= 1e-12 * abs(v)
            shift_tau = el.theta1(b + t, t)
            expect = -np.exp(-1j * np.pi * t - 2j * np.pi * b) * v
            assert abs(shift_tau - expect) <= 1e-12 * abs(expect)

    @given(st.floats(-1, 1), st.floats(-0.6, 0.6))
    @settings(max_examples=40, deadline=None)
    def test_quasi_periodicity_property(self, re, im):
        # absolute floor covers roundoff at the zeros of theta1
        c = el.half_periods(2.0, 1.0, -3.0)
        b = complex(re, im)
        v = el.theta1(b, c.tau)
        assert abs(el.theta1(b + 1.0, c.tau) + v) <= 1e-12 * abs(v) + 1e-14

    def test_derivatives_vs_finite_differences(self, curve):
        for kind in (1, 3):
            for order in (1, 2, 3):
                b0 = 0.31 + 0.12j

                def lower(b, k=kind, o=order):
                    return theta_eval(k, o - 1, b, curve)

                ours = theta_eval(kind, order, b0, curve)
                ref = fd_derivative(lower, b0, 1, h=1e-5)
                assert abs(ours - ref) < 1e-7 * max(1.0, abs(ours))

    def test_against_mpmath(self, curve):
        rng = np.random.default_rng(2)
        for kind in (1, 3):
            for order in range(4):
                for _ in range(5):
                    b = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
                    ours = theta_eval(kind, order, b, curve)
                    ref = mp_theta(kind, order, b, curve.tau)
                    assert abs(ours - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_log_derivative_vs_lattice_zeta(self, curve):
        # Eq. route: theta1'(beta)/theta1(beta) = 4 varpi3 P(2 varpi3 beta)
        # with P(s) = (zeta(s) - s zeta(varpi3)/varpi3)/2 from the lattice sum.
        beta = 0.3
        s = 2.0 * curve.varpi3 * beta
        z_s = lattice_zeta(s, curve.varpi1, curve.varpi3, 2000)
        z_w3 = lattice_zeta(curve.varpi3, curve.varpi1, curve.varpi3, 2000)
        p = 0.5 * (z_s - s * z_w3 / curve.varpi3)
        ours = el.theta1(beta, curve.tau, 1) / el.theta1(beta, curve.tau)
        assert abs(ours - 4.0 * curve.varpi3 * p) < 2e-7

    def test_min_im_tau_enforced(self):
        with pytest.raises(ThetaConvergenceError):
            el.theta1(0.3, 0.5 + 0.01j)

    def test_vectorized_matches_scalar(self, curve):
        arr = np.linspace(0.05, 0.95, 9) + 0.07j
        vec = el.theta1(arr, curve.tau, 2)
        scal = np.array([el.theta1(complex(b), curve.tau, 2) for b in arr])
        assert np.max(np.abs(vec - scal)) == 0.0

    def test_empty_array_gives_empty(self, curve):
        empty = np.array([], complex)
        for fn in (el.theta1, el.theta3):
            for order in (0, 1):
                assert fn(empty, curve.tau, order).shape == (0,)

    @pytest.mark.parametrize("half_index", [True, False])
    def test_order_tuple_bit_identical(self, curve, half_index):
        # one pass for several orders; each order stops at its own term count
        fn = el.theta1 if half_index else el.theta3
        arr = np.linspace(0.05, 0.95, 9) + np.linspace(-0.6, 0.6, 9) * 1j
        for beta in (arr, complex(arr[3]), np.array([], complex)):
            together = el._theta_sum(half_index, beta, curve.tau, (0, 1, 2, 3))
            for order, value in zip((0, 1, 2, 3), together):
                alone = fn(beta, curve.tau, order)
                assert type(value) is type(alone)
                assert np.array_equal(value, alone)

    def test_order_tuple_convergence_error(self, curve):
        # Im = -400 needs some 300 terms before the peak, where exp overflows
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ThetaConvergenceError, match="converge"):
            el._theta_sum(True, np.array([0.1, -400j]), curve.tau, (0, 1))


# Im(tau) = 1.36 and 0.66: on the second curve the real (hot) arguments of
# mixed_rows stop at m = 6.5 (theta1) and the ones at |Im| = Im(tau)/2 at 7.5
ROW_CURVES = [(2.0, 1.0, -3.0), (1.0, -0.4, -0.6)]


class TestSeriesRows:
    """A rows batch of _theta_sum returns what one call per row returns, bit for bit."""

    @staticmethod
    def mixed_rows(curve):
        # real and complex arguments up to |Im| = Im(tau)/2 need different term
        # counts, so each row must stop on its own
        half_im = curve.tau.imag / 2.0
        im = np.array([0.0, 0.01, -0.05, half_im, -half_im, 0.3 * half_im] * 2)
        return np.linspace(-0.95, 0.95, im.size) + 1j * im

    @pytest.mark.parametrize("branch_points", ROW_CURVES)
    @pytest.mark.parametrize("half_index", [True, False])
    @pytest.mark.parametrize("order", [0, 2, (0, 1, 2, 3)])
    def test_one_point_per_row(self, branch_points, half_index, order):
        curve = el.half_periods(*branch_points)
        rows = self.mixed_rows(curve)
        batch = el._theta_sum(half_index, rows, curve.tau, order, rows=True)
        alone = [el._theta_sum(half_index, complex(b), curve.tau, order) for b in rows]
        if np.ndim(order) == 0:
            batch, alone = (batch,), [(v,) for v in alone]
        for j, values in enumerate(batch):
            assert values.tobytes() == np.array([v[j] for v in alone]).tobytes()

    @pytest.mark.parametrize("branch_points", ROW_CURVES)
    @pytest.mark.parametrize("half_index", [True, False])
    def test_several_points_per_row(self, branch_points, half_index):
        curve = el.half_periods(*branch_points)
        rows = self.mixed_rows(curve)[:, None] + np.linspace(0.0, 0.4, 5)[None, :]
        batch = el._theta_sum(half_index, rows, curve.tau, (0, 1, 2), rows=True)
        for i, row in enumerate(rows):
            for together, alone in zip(batch, el._theta_sum(half_index, row, curve.tau, (0, 1, 2))):
                assert together[i].tobytes() == alone.tobytes()

    def test_convergence_error(self, curve):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ThetaConvergenceError, match="converge"):
            el._theta_sum(True, np.array([0.1, -400j]), curve.tau, 0, rows=True)


FIVE_CURVES = [(2.0, 1.0, -3.0), (1.0, 0.2, -1.2), (5.0, -1.0, -4.0),
               (0.5, 0.49, -0.99), (30.0, -10.0, -20.0)]


def _series_outcome(fn, *args, **kwargs):
    """The bytes of each order's values, or the raised exception's type and message."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values = fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return [np.asarray(v).tobytes() for v in (values if isinstance(values, tuple) else (values,))]


class TestOneExponentialPerTerm:
    """One complex exponential per term where every argument shares its imaginary part.

    The series must keep the bits (or the exception) of the two-exponential
    sum in tests/oracles.py for every argument shape it may take.
    """

    @staticmethod
    def arguments(curve, rng):
        half_im = curve.tau.imag / 2.0
        re = rng.uniform(-2.0, 2.0, 300)
        shared = rng.uniform(-1.5, 1.5) * curve.tau.imag
        args = [re + 0j, re.reshape(20, 15) + 0j, re]
        args += [re + 1j * s for s in (half_im, -half_im, shared)]
        args += [(re + 1j * s).reshape(15, 20) for s in (half_im, -half_im, shared)]
        signed_zeros = np.array([0.0, -0.0, 0.5, -0.5, 1.0, 0.25, -1e-300])
        args += [signed_zeros + 0j, signed_zeros - 1j * half_im,
                 np.array([complex(0.0, -0.0), complex(-0.0, -0.0), complex(0.5, -0.0)])]
        args += [re + 1j * rng.uniform(-half_im, half_im, re.size),    # Im varies
                 np.array([0.3, 0.3 + 1e-300j]),                       # by one subnormal
                 re[:1] - 0.0j, complex(re[0]), complex(re[1], -half_im), re[2]]
        return args

    @pytest.mark.parametrize("branch_points", FIVE_CURVES)
    @pytest.mark.parametrize("half_index", [True, False])
    @pytest.mark.parametrize("order", [0, 1, 2, 3, (0, 1, 2, 3)])
    def test_same_bits_as_two_exponentials(self, branch_points, half_index, order):
        curve = el.half_periods(*branch_points)
        for beta in self.arguments(curve, np.random.default_rng(11)):
            assert (_series_outcome(el._theta_sum, half_index, beta, curve.tau, order)
                    == _series_outcome(theta_sum_two_exp, half_index, beta, curve.tau, order))

    @pytest.mark.parametrize("branch_points", FIVE_CURVES)
    @pytest.mark.parametrize("half_index", [True, False])
    def test_rows_same_bits_as_two_exponentials(self, branch_points, half_index):
        curve = el.half_periods(*branch_points)
        rows = TestSeriesRows.mixed_rows(curve)
        for beta in (rows, rows[:, None] + np.linspace(0.0, 0.4, 5)[None, :], rows.real + 0j):
            for order in (0, (0, 1, 2, 3)):
                assert (_series_outcome(el._theta_sum, half_index, beta, curve.tau, order, rows=True)
                        == _series_outcome(theta_sum_two_exp, half_index, beta, curve.tau, order,
                                           rows=True))

    @pytest.mark.parametrize("im", [8.0, -8.0, 20.0, -400.0])
    @pytest.mark.parametrize("half_index", [True, False])
    def test_beyond_the_exponent_bound(self, curve, im, half_index):
        # 2 pi m |Im z| passes ln(DBL_MAX)/2 from m = 7.5 on at |Im| = 8, where
        # the series still converges, and from m = 3 on at |Im| = 20, where exp
        # overflows and both sums raise ThetaConvergenceError (never an
        # OverflowError from the term bound), as from the first term at 400
        beta = np.linspace(-0.5, 0.5, 50) + 1j * im
        assert 2.0 * np.pi * 7.5 * abs(im) > el._HALF_LOG_MAX
        ours = _series_outcome(el._theta_sum, half_index, beta, curve.tau, (0, 1))
        assert ours == _series_outcome(theta_sum_two_exp, half_index, beta, curve.tau, (0, 1))
        if abs(im) >= 20.0:
            assert ours[0] is ThetaConvergenceError
        else:
            assert np.all(np.isfinite(el._theta_sum(half_index, beta, curve.tau, 0)))


class _ExpCountingNumpy:
    """numpy with its exp calls counted: complex arrays of one size, and scalars."""

    def __init__(self, size):
        self.size = size
        self.array_exps = 0
        self.scalar_exps = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        if np.ndim(x) == 0:
            self.scalar_exps += 1
        elif np.size(x) == self.size and np.iscomplexobj(x):
            self.array_exps += 1
        return np.exp(x, *args, **kwargs)


def _term_counts(fn, *args):
    """fn(*args) and the change it made to el._SERIES_TERMS."""
    before = dict(el._SERIES_TERMS)
    with np.errstate(over="ignore", invalid="ignore"):
        value = fn(*args)
    return value, {key: el._SERIES_TERMS[key] - before[key] for key in before}


@pytest.mark.parametrize("im_in_half_tau, array_exps, counts", [
    (0.0, 2, {"full": 2, "subset": 0, "certified": 3}),
    (-1.0, 3, {"full": 3, "subset": 1, "certified": 2}),
], ids=["0.0", "-1.0"])
def test_one_array_exponential_per_term(curve, monkeypatch, im_in_half_tau, array_exps, counts):
    # a numerator of the A tensor: 2,000 arguments with Im 0 (hot-hot pairs)
    # or -Im(tau)/2 (hot-cool).  Each term takes one q^{m^2} scalar exp; a
    # term evaluated at every point takes one array exp, not two, and the
    # last quiet terms are certified and skipped, or, at -Im(tau)/2, one of
    # them is evaluated only near theta3's zeros at Re = 1/2 + n
    beta = np.linspace(-3.0, 3.0, 2000) + 0.5j * im_in_half_tau * curve.tau.imag
    counting = _ExpCountingNumpy(beta.size)
    monkeypatch.setattr(el, "np", counting)
    _, taken = _term_counts(el.theta3, beta, curve.tau)
    assert taken == counts
    assert counting.array_exps == array_exps
    assert counting.scalar_exps == sum(counts.values())


def _around(points, n, rng):
    """points followed by uniform ones in (-2, 2) up to n arguments."""
    return np.concatenate([points, rng.uniform(-2.0, 2.0, max(n - len(points), 0))])


class TestCertifiedTerms:
    """Terms skipped, or taken at some points, by their a-priori bound keep every bit.

    Each case is compared in bytes, or in its exception, with the
    two-exponential sum of tests/oracles.py, on arrays below and above
    elliptic._SMALL_ARRAY points.
    """

    CURVES = FIVE_CURVES[:2] + ROW_CURVES[1:]       # Im(tau) 1.36, 0.88 and 0.66
    SIZES = [9, el._SMALL_ARRAY + 72]

    @staticmethod
    def same_as_two_exponentials(half_index, beta, tau, order):
        ours, taken = _term_counts(_series_outcome, el._theta_sum, half_index, beta, tau, order)
        assert ours == _series_outcome(theta_sum_two_exp, half_index, beta, tau, order)
        return taken

    @pytest.mark.parametrize("branch_points", CURVES)
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_through_the_zeros_of_theta3(self, branch_points, n, sign):
        # theta3 vanishes at 1/2 + tau/2 + lattice: at Im = -+Im(tau)/2 the sum
        # T is near 0 there, so its last terms are not inert at those points
        curve = el.half_periods(*branch_points)
        offsets = np.array([0.0, 1e-12, -1e-12, 1e-6, -1e-6])
        re = _around(np.concatenate([0.5 + offsets, -0.5 + offsets, 1.5 + offsets]), n,
                     np.random.default_rng(n))
        beta = re + 0.5j * sign * curve.tau.imag
        subset = 0
        for order in (0, 1, (0, 1, 2)):
            subset += self.same_as_two_exponentials(False, beta, curve.tau, order)["subset"]
        assert subset > 0 if n >= el._SMALL_ARRAY else subset == 0

    @pytest.mark.parametrize("branch_points", CURVES)
    @pytest.mark.parametrize("n", SIZES)
    def test_theta1_near_its_zero(self, branch_points, n):
        curve = el.half_periods(*branch_points)
        near = np.array([0.0, -0.0, 1e-300, -1e-300, 1e-12, -1e-12, 1e-6, 1.0, -1.0 + 1e-9])
        beta = _around(near, n, np.random.default_rng(n)) + 0j
        for order in (0, 1, (0, 1, 2, 3)):
            self.same_as_two_exponentials(True, beta, curve.tau, order)

    # (curve, half_index, Im z / (Im(tau)/2)); on the two left out, orders 0
    # to 5 alone take the same terms, so a tuple of them would not mix
    MIXING = [(bp, half_index, im) for bp in CURVES for half_index in (True, False)
              for im in (0.0, -1.0, 0.37)
              if (bp[1], half_index, im) not in ((1.0, False, 0.37), (-0.4, False, 0.37))]

    @pytest.mark.parametrize("branch_points, half_index, im_in_half_tau", MIXING,
                             ids=[f"{bp[1]}-{hi}-{im}" for bp, hi, im in MIXING])
    def test_orders_that_certify_apart(self, branch_points, half_index, im_in_half_tau):
        # alone, some orders evaluate a term that others skip or evaluate at
        # some points only; together each must still keep its own bits
        curve = el.half_periods(*branch_points)
        beta = (np.random.default_rng(5).uniform(-2.0, 2.0, 300)
                + 0.5j * im_in_half_tau * curve.tau.imag)
        alone = [tuple(self.same_as_two_exponentials(half_index, beta, curve.tau, k).values())
                 for k in range(6)]
        assert len(set(alone)) > 1
        self.same_as_two_exponentials(half_index, beta, curve.tau, tuple(range(6)))
        self.same_as_two_exponentials(half_index, beta, curve.tau, (5, 3, 1, 0))

    @pytest.mark.parametrize("m_cross", [4.0, 6.5, 9.0])
    @pytest.mark.parametrize("factor", [1.0 - 1e-12, 1.0 + 1e-12])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("half_index", [True, False])
    def test_at_the_exponent_bound(self, curve, m_cross, factor, sign, half_index):
        # |x| = 2 pi m |Im z| crosses ln(DBL_MAX)/2 at index m_cross: below it
        # the bound is computed, from it on both exponentials are taken
        im = sign * factor * el._HALF_LOG_MAX / (2.0 * math.pi * m_cross)
        beta = np.linspace(-1.0, 1.0, 40) + 1j * im
        for order in (0, (0, 2)):
            self.same_as_two_exponentials(half_index, beta, curve.tau, order)

    @pytest.mark.parametrize("im", [0.0, -0.55])
    def test_nome_off_the_imaginary_axis(self, im):
        # with Re(tau) != 0, q^{m^2} is not real, and neither is any term at
        # real arguments: the imaginary parts must be checked as well
        beta = np.random.default_rng(9).uniform(-2.0, 2.0, 300) + 1j * im
        for half_index in (True, False):
            for order in (0, (0, 1, 2)):
                self.same_as_two_exponentials(half_index, beta, 0.3 + 1.1j, order)

    @pytest.mark.parametrize("re", [math.nan, math.inf, 2e307, -2e307])
    def test_arguments_that_break_the_bound(self, re):
        # at Im(tau) = 12 theta3's terms are below the quiet bound from m = 2
        # on, where 2 pi m |Re z| overflows for Re z = +-2e307: non-finite
        # terms must still be evaluated, as the two-exponential sum does
        beta = np.array([0.25, re, -0.3]) + 0.1j
        for order in (0, (0, 1)):
            self.same_as_two_exponentials(False, beta, 12j, order)


@pytest.mark.parametrize("im", [0.0, -0.68, 0.37, 9.0])
def test_subset_terms_equal_full_array_terms(im):
    # a term taken at some points must equal the same points of the term at
    # every point: numpy's elementwise loops may not depend on an element's
    # position or the array's length (a SIMD body and its remainder loop)
    z = np.linspace(-3.0, 3.0, 2000) + 1j * im
    rng = np.random.default_rng(2)
    for m in (1.0, 2.5, 4.0, 40.0):
        w = 2j * np.pi * m
        qm = np.exp(1j * np.pi * 1.36j * m * m)
        x = -(w.imag * im)
        with np.errstate(over="ignore", invalid="ignore"):
            e_plus, e_minus = el._exp_pair(w, z, x)
        for k in (0, 1, 2, 3):
            with np.errstate(over="ignore", invalid="ignore"):
                full = qm * (w ** k * e_plus + (-w) ** k * e_minus)
                for points in [np.arange(0, 2000, 7), np.arange(3, 20), np.array([1999]),
                               np.sort(rng.choice(2000, 33, replace=False))]:
                    sub_plus, sub_minus = el._exp_pair(w, z[points], x)
                    part = qm * (w ** k * sub_plus + (-w) ** k * sub_minus)
                    assert part.tobytes() == full[points].tobytes()


class _CountingNumpy:
    """numpy with every attribute read (function, constant or type) recorded."""

    def __init__(self):
        self.used = []

    def __getattr__(self, name):
        self.used.append(name)
        return getattr(np, name)


ONE_POINT_CURVES = ROW_CURVES + [(1.0, 0.2, -1.2), (5.0, -1.0, -4.0), (0.5, 0.49, -0.99)]
ONE_POINT_ORDERS = [0, 1, 2, 3, (0, 1), (0, 1, 2), (0, 1, 2, 3), (1, 3)]


class TestOnePointSeries:
    """One point is summed on Python complex scalars with the numpy loop's bits.

    tests/oracles.py::theta_sum_two_exp at a 0-d argument is that loop, as
    _theta_sum ran it for one point before it had a scalar branch.
    """

    @staticmethod
    def points(curve, rng):
        near_zero = 10.0 ** rng.uniform(-12.0, -1.0, 12)
        cool = rng.uniform(0.0, 0.5, 8) + 0.5j * curve.tau.imag
        general = rng.uniform(-1.5, 1.5, 6) + 1j * rng.uniform(-1.5, 1.5, 6) * curve.tau.imag
        signed = [complex(re, im) for re in (0.0, -0.0, 0.25) for im in (0.0, -0.0)]
        signed += [complex(-0.0, 0.5 * curve.tau.imag), complex(0.5, -0.0), 0.0, -0.0]
        return list(near_zero) + list(near_zero * -1.0) + list(cool) + list(general) + signed

    @pytest.mark.parametrize("branch_points", ONE_POINT_CURVES)
    @pytest.mark.parametrize("half_index", [True, False])
    def test_same_bits_as_the_numpy_loop(self, branch_points, half_index):
        curve = el.half_periods(*branch_points)
        rng = np.random.default_rng(2 * ONE_POINT_CURVES.index(branch_points) + half_index)
        for beta in self.points(curve, rng):
            for order in ONE_POINT_ORDERS:
                ours = el._theta_sum(half_index, beta, curve.tau, order)
                with np.errstate(over="ignore"):
                    loop = theta_sum_two_exp(half_index, beta, curve.tau, order)
                if np.ndim(order) == 0:
                    ours, loop = (ours,), (loop,)
                assert all(type(value) is complex for value in ours)
                assert ([np.asarray(v).tobytes() for v in ours]
                        == [np.asarray(v).tobytes() for v in loop]), (beta, order)

    @pytest.mark.parametrize("beta", [0.3 + 60j, 0.3 + 400j, complex(math.nan, 0.0),
                                      complex(math.inf, 0.0), 1e300 + 0j, 1e308 + 0j],
                             ids=["60j", "400j", "nan", "inf", "1e300", "1e308"])
    @pytest.mark.parametrize("half_index, order", [(False, 0), (True, 0), (True, 2)])
    def test_overflow_raises_like_the_numpy_loop(self, curve, monkeypatch, beta, half_index,
                                                  order):
        # at 60j and 400j an exponential overflows, where cmath.exp would
        # raise OverflowError and numpy returns inf; at 1e308 the exponent's
        # imaginary part 2 pi m 1e308 is infinite, where cmath.exp raises
        # ValueError and numpy returns nan.  numpy's series cannot converge
        # after either, nor at nan and inf
        counting = _CountingNumpy()
        monkeypatch.setattr(el, "np", counting)
        ours = _series_outcome(el._theta_sum, half_index, beta, curve.tau, order)
        assert counting.used == []
        monkeypatch.undo()
        assert ours == _series_outcome(theta_sum_two_exp, half_index, beta, curve.tau, order)
        if beta.real == 1e300:
            assert isinstance(ours, list)
        else:
            assert ours == (ThetaConvergenceError, "theta series failed to converge")

    @pytest.mark.parametrize("order", [0, (0, 1, 2, 3)])
    def test_declined_points_take_the_numpy_loop(self, curve, monkeypatch, order):
        # at 0.2 + 9.4j theta3's last term has |Re(w z)| = 708.7, between
        # _CEXP_AGREES and _EXP_OVERFLOWS, where CPython's exp rescales and
        # numpy's does not; with the peak margin at 1, every first quiet peak
        # is too close to call.  Both are summed by the numpy loop
        cases = [(el._PEAK_MARGIN, 0.2 + 9.4j), (el._PEAK_MARGIN, 0.2 - 9.4j),
                 (1.0, 0.23), (1.0, 0.1 + 0.5j * curve.tau.imag)]
        for margin, beta in cases:
            monkeypatch.setattr(el, "_PEAK_MARGIN", margin)
            assert el._one_point_series(False, beta, curve.tau, (0,)) is None
            ours = _series_outcome(el._theta_sum, False, beta, curve.tau, order)
            assert isinstance(ours, list) or order != 0     # orders above 0 overflow at 9.4j
            assert ours == _series_outcome(theta_sum_two_exp, False, beta, curve.tau, order)

    def test_curve_constants_from_one_pass(self):
        # theta1'(0) and zeta(varpi3) from the (1, 3) pass keep the bits of
        # the single-order calls they replaced
        for branch_points in ONE_POINT_CURVES:
            curve = el.half_periods(*branch_points)
            prime = el.theta1(0.0, curve.tau, 1)
            zeta = -el.theta1(0.0, curve.tau, 3) / (12.0 * curve.varpi3 * prime)
            assert np.asarray(curve._theta1_prime0).tobytes() == np.asarray(prime).tobytes()
            assert np.asarray(el.zeta_half_period(curve)).tobytes() == np.asarray(zeta).tobytes()


def test_one_point_series_makes_no_numpy_call(monkeypatch):
    curve = el.half_periods(2.0, 1.0, -3.0)
    el.zeta_half_period(curve)          # the curve constants, cached on the instance
    counting = _CountingNumpy()
    monkeypatch.setattr(el, "np", counting)
    for beta in (0.23, 0.23 + 0j, np.complex128(0.1 + 0.3j), np.float64(0.4), 0):
        for order in (0, 3, (0, 1, 2, 3)):
            el.theta1(beta, curve.tau, order)
            el.theta3(beta, curve.tau, order)
    el.weierstrass(0.3 + 0.2j, curve)
    el.wp_on_segment(0.23, curve)
    assert counting.used == []


# the extreme curves half_periods accepts: e2 - e3 and e1 - e2 at 2e-12 of the scale
EXTREME_CURVES = {"e2 near e3": (1.0, -0.5 + 1e-12, -0.5 - 1e-12),
                  "e2 near e1": (0.5 + 1e-12, 0.5 - 1e-12, -1.0)}


class TestCertifiedSum:
    """The one keep-and-certify rule of tau's subset sum and riemann's lattice sum."""

    @staticmethod
    def certified(upper, peak, smallest):
        """(kernel's row sets in call order, counter) of one _certified_sum call.

        smallest is each draw-row's smallest kept sum, whatever the rows kept."""
        calls, counter = [], {"all": 0, "summed": 0}
        upper = np.array(upper, dtype=float)
        sums = el._certified_sum(upper, np.array(peak, dtype=float)[:, None],
                                 lambda rows: calls.append(rows.tolist()) or len(calls),
                                 lambda sums: np.log(np.array(smallest, dtype=float)), counter)
        assert sums == len(calls)           # the last kernel call's sums are returned
        return calls, counter

    # three draw-rows of four rows: row 0 peaks in the first and last, row 1 in
    # the second and last; rows 2 and 3 stay at least 100 below every peak
    UPPER = [[0.0, -100.0, -200.0, -300.0], [-300.0, 0.0, -100.0, -200.0],
             [0.0, 0.0, -300.0, -300.0]]

    def test_every_row_kept(self):
        calls, counter = self.certified([[0.0, -1.0, -50.0, -55.0], [-60.0] * 4,
                                         [-9.0, -8.0, -7.0, -6.0]], [0.0, 0.0, -6.0], [1.0] * 3)
        assert calls == [[0, 1, 2, 3]]
        assert counter == {"all": 12, "summed": 12}

    def test_no_row_kept_sums_every_row_once(self):
        calls, counter = self.certified(self.UPPER, [100.0] * 3, [1.0] * 3)
        assert calls == [[0, 1, 2, 3]]
        assert counter == {"all": 12, "summed": 12}

    def test_certified_drop(self):
        # ln 2 + (largest dropped bound, at most -100) <= ln 2^-60 + ln 1
        calls, counter = self.certified(self.UPPER, [0.0] * 3, [1.0] * 3)
        assert calls == [[0, 1]]
        assert counter == {"all": 12, "summed": 6}

    def test_one_uncertified_draw_row_sums_every_row(self):
        # the second draw-row drops ln 2 - 100 > ln 2^-60 - 60: it alone fails
        calls, counter = self.certified(self.UPPER, [0.0] * 3, [1.0, np.exp(-60.0), 1.0])
        assert calls == [[0, 1], [0, 1, 2, 3]]
        assert counter == {"all": 12, "summed": 18}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_smallest_sum_fails_without_a_warning(self):
        # ln 0 is -inf: no dropped row is certified against a zero sum
        calls, counter = self.certified(self.UPPER, [0.0] * 3, [1.0, 0.0, 1.0])
        assert calls == [[0, 1], [0, 1, 2, 3]]
        assert counter == {"all": 12, "summed": 18}


class TestThetaTables:
    """The exponential-table theta grid against the adaptive series."""

    @pytest.mark.parametrize("name", sorted(EXTREME_CURVES))
    def test_extreme_curves_finite(self, name):
        # gas-like grids: hot and cool points against themselves and their stars
        c = el.half_periods(*EXTREME_CURVES[name])
        r = np.linspace(0.05, 0.45, 40)
        a = np.concatenate([r, r + c.tau / 2.0])
        b = np.concatenate([a, 1.0 - a + np.repeat([0.0, c.tau], r.size)])
        # an overflow in any table entry or in the product raises here
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            grid = el._theta_grid(True, a, b, c.tau)
        assert np.all(np.isfinite(grid))
        ref = el.theta1(a[:, None] - b, c.tau)
        assert np.max(np.abs(grid - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("name", sorted(EXTREME_CURVES))
    def test_theta3_and_derivative_at_real_arguments(self, name):
        # the tracker's grids: real w against -+mu/2
        c = el.half_periods(*EXTREME_CURVES[name])
        w = np.linspace(-1.5, 2.5, 97)
        b = np.array([0.31, -0.31, 0.0, 0.5])
        grid, d_grid = el._theta_grid(False, w, b, c.tau, derivative=True)
        for order, got in ((0, grid), (1, d_grid)):
            ref = el.theta3(w[:, None] - b, c.tau, order)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_theta1_derivative(self, curve):
        a = np.array([0.1, 0.3 + 0.2j, 0.45 + curve.tau / 2])
        b = np.array([0.05, 0.2 - 0.1j])
        grid, d_grid = el._theta_grid(True, a, b, curve.tau, derivative=True)
        for order, got in ((0, grid), (1, d_grid)):
            ref = el.theta1(a[:, None] - b, curve.tau, order)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_shared_imaginary_offset(self, curve):
        # Im 50 on both sides: uncentred tables reach exp(2 pi m 50) and give inf * 0
        a = 50j + np.array([0.1, 0.3, 0.2 + 0.05j])
        b = 50j + np.array([0.25, 0.45 - 0.1j])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            grid = el._theta_grid(True, a, b, curve.tau)
        ref = el.theta1(a[:, None] - b, curve.tau)
        assert np.max(np.abs(grid - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_convergence_errors(self, curve):
        a = np.array([0.1, 0.2 + 0.3j])
        with pytest.raises(ThetaConvergenceError, match="Im"):
            el._theta_grid(True, a, a, 0.5 + 0.01j)
        # |Im(a - b)| = 1000 needs about 1500 terms, over the series' 512
        with pytest.raises(ThetaConvergenceError, match="converge"):
            el._theta_grid(True, a, np.array([-1000j]), curve.tau)

    def test_empty_gives_empty(self, curve):
        a = np.array([0.1, 0.2])
        assert el._theta_grid(True, a, np.array([], complex), curve.tau).shape == (2, 0)
        assert el._theta_grid(True, np.array([]), a, curve.tau).shape == (0, 2)
        grid, d_grid = el._theta_grid(False, np.array([]), a, curve.tau, derivative=True)
        assert grid.shape == d_grid.shape == (0, 2)


class TestWeierstrass:
    def test_half_period_values(self, curve):
        for s, e in [(curve.varpi1, curve.e1),
                     (curve.varpi1 + curve.varpi3, curve.e2),
                     (curve.varpi3, curve.e3)]:
            wp, _, _ = el.weierstrass(s, curve)
            assert abs(wp - e) <= 1e-10

    def test_curve_equation_random(self, curve):
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = complex(rng.uniform(0.1, 0.9) * 2 * curve.varpi1
                        + rng.uniform(0.1, 0.9) * 2 * curve.varpi3)
            wp, wpp, _ = el.weierstrass(s, curve)
            lhs = wpp ** 2
            rhs = 4 * (wp - curve.e1) * (wp - curve.e2) * (wp - curve.e3)
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)

    def test_zeta_half_period_vs_lattice(self, curve):
        ours = el.zeta_half_period(curve)
        oracle = lattice_zeta(curve.varpi3, curve.varpi1, curve.varpi3, 4000)
        assert abs(ours - oracle) < 1e-8

    def test_zeta_generic_vs_lattice(self, curve):
        s = 0.3 + 0.2j
        _, _, zw = el.weierstrass(s, curve)
        assert abs(zw - lattice_zeta(s, curve.varpi1, curve.varpi3, 2000)) < 1e-7

    def test_zeta_quasi_periods(self, curve):
        rng = np.random.default_rng(4)
        z3 = el.zeta_half_period(curve)
        for _ in range(20):
            s = complex(rng.uniform(0.05, 0.6), rng.uniform(-0.6, -0.05))
            z0 = el.weierstrass(s, curve)[2]
            z1 = el.weierstrass(s + 2 * curve.varpi3, curve)[2]
            assert abs(z1 - z0 - 2 * z3) < 1e-10

    def test_legendre_relation(self, curve):
        combo = legendre_combination(curve)
        assert abs(abs(combo) - np.pi / 2.0) < 1e-12
        # sign with this cycle orientation: -i pi / 2
        assert abs(combo - (-1j * np.pi / 2.0)) < 1e-12

    def test_zeta_homogeneity(self):
        lam = 2.0
        base = el.half_periods(2.0, 1.0, -3.0)
        scaled = el.half_periods(lam**2 * 2.0, lam**2 * 1.0, lam**2 * -3.0)
        assert abs(el.zeta_half_period(scaled) - lam * el.zeta_half_period(base)) < 1e-12

    def test_lattice_point_error(self, curve):
        with pytest.raises(LatticePoint):
            el.weierstrass(2.0 * curve.varpi1, curve)

    @pytest.mark.parametrize("branch_points", FIVE_CURVES)
    def test_quad_const_real(self, branch_points):
        # C = zeta(varpi3) / (8 varpi3) of tau's factor exp(-C x^2), held by the curve
        curve = el.half_periods(*branch_points)
        quad = el.zeta_half_period(curve) / (8.0 * curve.varpi3)
        assert abs(quad.imag) <= 1e-12 * max(1.0, abs(quad))
        assert np.float64(curve.quad_const).tobytes() == np.float64(quad.real).tobytes()

    def test_array_matches_scalar_calls(self, curve):
        # hot and cool points and generic points mixed in one 2-D array; numpy
        # and Python complex arithmetic round differently, so allow 50 ulps
        # of each component's scale
        rng = np.random.default_rng(5)
        chi = rng.integers(0, 2, (6, 7))
        beta = rng.uniform(0.01, 0.49, chi.shape) + chi * curve.tau / 2.0
        beta[0] = rng.uniform(0.05, 0.95, 7) + rng.uniform(0.05, 0.95, 7) * curve.tau
        s = 2.0 * curve.varpi3 * beta
        arrays = el.weierstrass(s, curve)
        for k, arr in enumerate(arrays):
            assert arr.shape == s.shape
            scalars = np.array([el.weierstrass(x, curve)[k] for x in s.ravel()])
            scale = np.max(np.abs(scalars))
            assert np.max(np.abs(arr.ravel() - scalars)) <= 50 * np.finfo(float).eps * scale

    def test_scalar_returns_complex(self, curve):
        assert all(type(v) is complex for v in el.weierstrass(0.3 + 0.2j, curve))

    def test_lattice_point_in_array(self, curve):
        s = np.array([0.3 + 0.2j, 2.0 * curve.varpi1 + 2.0 * curve.varpi3, 0.1 - 0.4j])
        with pytest.raises(LatticePoint, match="within 1e-10"):
            el.weierstrass(s, curve)

    @pytest.mark.parametrize("n1, n3", [(0, 0), (1, 0), (0, -1), (3, 2), (-2, 5)])
    def test_lattice_threshold(self, curve, n1, n3):
        # the scalar check runs on Python floats, the array one in numpy: both
        # raise within 1e-10 of a lattice point and evaluate beyond it
        point = 2.0 * n1 * curve.varpi1 + 2.0 * n3 * curve.varpi3
        for step in (1.0, -1.0, 1j, -1j):
            with pytest.raises(LatticePoint, match="within 1e-10"):
                el.weierstrass(point + 5e-11 * step, curve)
            with pytest.raises(LatticePoint, match="within 1e-10"):
                el.weierstrass(np.array([0.3 + 0.2j, point + 5e-11 * step]), curve)
            s = point + 2e-10 * step
            scalar = el.weierstrass(s, curve)
            assert all(math.isfinite(abs(v)) for v in scalar)
            assert np.all(np.isfinite(el.weierstrass(np.array([s]), curve)))


class TestInvertWp:
    @staticmethod
    def wp_through_weierstrass(point, curve):
        beta = point.beta if isinstance(point, el.JacobianPoint) else complex(point)
        return float(el.weierstrass(2.0 * curve.varpi3 * beta, curve)[0].real)

    def test_wp_on_segment_keeps_the_bits_of_weierstrass(self, curve, dim_point, bright_point):
        # wp_on_segment sums orders (0, 1, 2) only; each order is its own sum
        rs = np.linspace(0.01, 0.49, 25)
        for beta in [dim_point, bright_point, *rs, *(rs + curve.tau / 2.0)]:
            want = self.wp_through_weierstrass(beta, curve)
            assert np.float64(el.wp_on_segment(beta, curve)).tobytes() == np.float64(want).tobytes()

    def test_inversion_keeps_its_bits(self, curve, monkeypatch):
        bs = [-100.0, -40.0, -7.7, -5.3595, -3.2, 1.05, 1.3, 1.50356, 1.95]
        now = [el.invert_wp(b, curve).beta for b in bs]
        monkeypatch.setattr(el, "wp_on_segment", self.wp_through_weierstrass)
        before = [el.invert_wp(b, curve).beta for b in bs]
        assert np.array(now).tobytes() == np.array(before).tobytes()

    @pytest.mark.parametrize("b, inside", [(-5.3595, 10), (-40.0, 9), (1.5, 9)])
    def test_no_four_order_pass_before_newton(self, curve, series_orders, b, inside):
        el.zeta_half_period(curve)
        series_orders.clear()
        el.invert_wp(b, curve)
        # two wp passes certify the band around the R_F root, the bracket and
        # the bisection steps inside the band read wp only; the two Newton
        # steps read wp' too; the residual reads wp
        steps = 2 + inside
        assert series_orders == [(0, 1, 2)] * steps + [(0, 1, 2, 3)] * 2 + [(0, 1, 2)]

    def test_paper_figure_points(self, curve):
        # beta = 0.24 + tau/2 <-> c ~ 1.50356; beta = 0.30 <-> b ~ -5.3595
        assert abs(el.wp_on_segment(0.24 + curve.tau / 2.0, curve) - 1.50356) < 1e-3
        assert abs(el.wp_on_segment(0.30, curve) - (-5.3595)) < 1e-3
        cool = el.invert_wp(1.50356, curve)
        assert cool.kind == "cool" and abs(cool.beta.real - 0.24) < 1e-3
        hot = el.invert_wp(-5.3595, curve)
        assert hot.kind == "hot" and abs(hot.beta.real - 0.30) < 1e-3

    def test_round_trip(self, curve):
        rng = np.random.default_rng(5)
        for _ in range(10):
            r = rng.uniform(0.02, 0.48)
            pt = el.invert_wp(el.wp_on_segment(r, curve), curve)
            assert abs(pt.beta - r) < 1e-10
        for _ in range(10):
            r = rng.uniform(0.02, 0.48)
            b = el.wp_on_segment(r + curve.tau / 2.0, curve)
            pt = el.invert_wp(b, curve)
            assert abs(pt.beta - (r + curve.tau / 2.0)) < 1e-10

    def test_monotone_segments(self, curve):
        rs = np.linspace(1e-3, 0.5 - 1e-3, 1000)
        hot_vals = [el.wp_on_segment(r, curve) for r in rs]
        assert np.all(np.diff(hot_vals) > 0)
        cool_vals = [el.wp_on_segment(r + curve.tau / 2.0, curve) for r in rs]
        assert np.all(np.diff(cool_vals) < 0)

    def test_star_involution_in_rectangle(self, curve):
        for pt in (el.invert_wp(-7.7, curve), el.invert_wp(1.3, curve)):
            star = pt.star(curve.tau)
            assert 0.5 < star.real < 1.0
            assert abs(star.imag - pt.chi * curve.tau.imag / 2.0) < 1e-12
            assert abs(el.wp_on_segment(star, curve)
                       - el.wp_on_segment(pt, curve)) < 1e-9

    def test_errors(self, curve):
        with pytest.raises(SpectrumInGap):
            el.invert_wp(0.0, curve)       # inside [e3, e2]
        with pytest.raises(SpectrumInGap):
            el.invert_wp(5.0, curve)       # beyond e1
        with pytest.raises(TooCloseToBranchPoint):
            el.invert_wp(-3.0 - 1e-12, curve)


POOLS = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def pool_spectral_points():
    """Every (curve, b) a soliton of the field_tau and tracker benchmark pools gives by b."""
    points = set()
    for name in ("field_tau", "tracker"):
        for members in json.loads((POOLS / f"{name}.json").read_text())["classes"].values():
            for member in members:
                e = member["cfg"]["curve"]
                for soliton in member["cfg"].get("solitons", []):
                    if "b" in soliton:
                        points.add((e["e1"], e["e2"], e["e3"], soliton["b"]))
    return sorted(points)


def segment_values(e1, e2, e3):
    """About 20 b per spectral gap, down to 1e-8 from each branch point, plus four b invert_wp rejects."""
    scale = max(abs(e1), abs(e2), abs(e3))
    hot = list(e3 - scale * np.geomspace(1e-8, 1e2, 18)) + [e3 - 1e-8, e3 - 1e3]
    u = np.concatenate([np.geomspace(1e-8, 0.3, 9), np.linspace(0.4, 0.6, 2)])
    cool = list(e2 + (e1 - e2) * u) + list(e1 - (e1 - e2) * u[:9]) + [e1 - 1e-8, e2 + 1e-8]
    rejected = [e3 - 0.5e-9 * scale, e1 - 0.5e-9 * scale, 0.5 * (e2 + e3), e1 + 1.0]
    return [float(b) for b in hot + cool + rejected]


class TestInvertWpKeepsTheBisectionBits:
    """invert_wp gives the plain bisection's beta bit for bit, or raises its exception."""

    @staticmethod
    def outcome(invert, b, curve):
        try:
            pt = invert(b, curve)
        except CnoidalKdvError as exc:
            return type(exc), str(exc)
        return np.complex128(pt.beta).tobytes(), pt.chi

    def test_pool_values(self, wp_calls):
        counts = []
        for e1, e2, e3, b in pool_spectral_points():
            curve = el.half_periods(e1, e2, e3)
            wp_calls.clear()
            got = self.outcome(el.invert_wp, b, curve)
            counts.append(len(wp_calls))
            assert got == self.outcome(invert_wp_bisection, b, curve), b
        # the bisection evaluates wp 57 times on the median pool value
        assert len(counts) == 46 and statistics.median(counts) <= 16

    @pytest.mark.parametrize("e", [(2.0, 1.0, -3.0), (1.0, 0.2, -1.2), (5.0, -1.0, -4.0)])
    def test_segments(self, e):
        curve = el.half_periods(*e)
        for b in segment_values(*e):
            assert self.outcome(el.invert_wp, b, curve) == self.outcome(invert_wp_bisection, b, curve), b

    @pytest.mark.parametrize("b", [-5.3595, 1.5])
    def test_root_off_by_1e_3_evaluates_every_sign(self, curve, monkeypatch, wp_calls, b):
        rf = el._carlson_rf
        monkeypatch.setattr(el, "_carlson_rf",
                            lambda x, y, z: rf(x, y, z) + 2e-3 * abs(curve.varpi3))
        got = self.outcome(el.invert_wp, b, curve)
        steered = len(wp_calls)
        wp_calls.clear()
        assert got == self.outcome(invert_wp_bisection, b, curve)
        # no band certifies: the five widths each fail their first check, then
        # the bracket and bisection evaluate as the plain bisection does
        assert steered == len(wp_calls) + 5


class TestCarlsonRF:
    def test_against_mpmath(self):
        rng = np.random.default_rng(11)
        args = [tuple(v) for v in 10.0 ** rng.uniform(-6, 6, (60, 3))]
        args += [(0.0, 1.0, 2.0), (3.0, 0.0, 1e-3), (1.0, 1.0, 1e-12), (5.0, 4.0, 1.0), (1e8, 2.0, 1.0)]
        for x, y, z in args:
            with mpmath.workdps(30):
                want = float(mpmath.elliprf(x, y, z))
            assert abs(el._carlson_rf(x, y, z) - want) <= 1e-15 * want, (x, y, z)

    @pytest.mark.parametrize("x", [1e-300, 1e-8, 0.37, 1.0, 2.0, 7.5e5, 1e300])
    def test_equal_arguments(self, x):
        assert abs(el._carlson_rf(x, x, x) * math.sqrt(x) - 1.0) <= 2.0 ** -52
