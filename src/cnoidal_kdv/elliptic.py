"""Jacobi theta and Weierstrass functions for a real elliptic curve.

The curve is w^2 = 4(z - e1)(z - e2)(z - e3) with e3 < e2 < e1 and
e1 + e2 + e3 = 0.  Half periods follow the convention

    varpi1 = K(m) / sqrt(e1 - e3)          (real positive)
    varpi3 = -i K(1 - m) / sqrt(e1 - e3)   (negative imaginary)
    tau    = varpi1 / varpi3               (positive imaginary)

with m = (e2 - e3)/(e1 - e3) the elliptic parameter.  Theta functions use
the 1-periodic normalization

    theta3(beta) = sum_n exp(i pi n^2 tau + 2 i pi n beta)
    theta1(beta) = sum_n exp(i pi (n-1/2)^2 tau + 2 i pi (n-1/2)(beta-1/2)),

i.e. DLMF thetas at z = pi*beta.  Weierstrass wp, wp', zeta are recovered
from log-derivatives of theta1 through

    d/dbeta   ln theta1(beta) = -4 varpi3 zeta(varpi3) beta + 2 varpi3 zeta(2 varpi3 beta)
    d^2/dbeta^2 ln theta1     = -4 varpi3 zeta(varpi3) - 4 varpi3^2 wp(2 varpi3 beta)
    d^3/dbeta^3 ln theta1     = -8 varpi3^3 wp'(2 varpi3 beta)

so that no conditionally convergent lattice sums appear in production code.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    LatticePoint,
    NonDistinctBranchPoints,
    NonRealTau,
    SpectrumInGap,
    ThetaConvergenceError,
    TooCloseToBranchPoint,
    TraceNotZero,
)

# q-series is impractical below this modulus; the physical regimes never get close
MIN_IM_TAU = 0.05

_BRANCH_TOL = 1e-9

# ln(DBL_MAX)/2: exp of anything up to it can be squared, or multiplied by
# another such value, without overflow
_HALF_LOG_MAX = 0.5 * float(np.log(np.finfo(float).max))

# invert_wp: bound on twice the rounding error of the computed wp(2 varpi3 beta)
# relative to max(1, |wp|, max |e_i|), and the half widths of the band it
# certifies.  Against a 34-digit theta series at the same tau, varpi3 and
# zeta(varpi3), 4,000 points on five curves erred by at most 1.8e-15, once
# the hot segment's error is divided by max(1, 0.1/r): theta1's series
# cancels to O(beta) near beta = 0 (1.3e-12 unscaled at r = 1e-4)
_WP_ROUNDING = 4e-15
_BAND_START = 1e-14
_BAND_WIDEN = 256.0
_BAND_TRIES = 5

# _theta_sum's shared-imaginary-part terms: B = |q^{m^2}| |w^k| 2 e^{|x|}
# bounds the term of index m and order k at every point; this factor covers
# the rounding of the computed term and of B itself (a few dozen ulps)
_TERM_ROUNDING = 2.0 * (1.0 + 2.0 ** -40)
# a term below _INERT |Re T| and _INERT |Im T| leaves the partial sum T's
# bytes unchanged: it stays below ulp(T)/2, and below ulp(T)/4 when |T| is a
# power of two, the spacing under T
_INERT = 2.0 ** -54
# below this many points numpy's fixed cost per call outweighs its cost per
# point: a quiet term that is not inert everywhere costs less at every point
# than at the few that need it, and two exponentials cost less than one and
# the four operations that split it (both cross over at 64 to 128 points)
_SMALL_ARRAY = 128

# _one_point_series: up to this |Re| of its argument cmath.exp equals numpy's
# complex exp bit for bit (both form exp(Re) (cos Im + i sin Im); above
# ln(DBL_MAX/4) = 708.4 CPython rescales and glibc's cexp does from 709 on);
# past _EXP_OVERFLOWS a part of exp overflows whatever Im is, e^|Re|/sqrt(2)
# exceeding DBL_MAX
_CEXP_AGREES = 700.0
_EXP_OVERFLOWS = 710.5
# the builtin abs (libm hypot) and numpy's complex absolute differ by a few
# ulps: a peak within this relative margin of the quiet threshold could stop
# numpy's series at another term
_PEAK_MARGIN = 2.0 ** -40

# terms (index and order) of the shared-imaginary-part theta series: evaluated
# at every point, at some points, or certified not to change a bit and skipped
_SERIES_TERMS = {"full": 0, "subset": 0, "certified": 0}

# Carlson's stopping factor (3 u)^(-1/8) for R_F, u = 2^-53
_RF_STOP = (3.0 * 2.0 ** -53) ** -0.125


@dataclass(frozen=True)
class CurveParams:
    """Immutable data of the background elliptic curve."""

    e1: float
    e2: float
    e3: float
    g2: float
    g3: float
    varpi1: float          # real half period, > 0
    varpi3: complex        # imaginary half period, Im < 0
    tau: complex           # varpi1 / varpi3, positive imaginary
    nome_q: complex        # exp(i pi tau)

    @property
    def period_x(self) -> float:
        """Spatial period 4 i varpi3 of the cnoidal wave (a positive real)."""
        return float((4j * self.varpi3).real)

    # cached_property writes the instance __dict__, which a frozen dataclass allows
    @functools.cached_property
    def _theta1_odd0(self) -> tuple:
        """theta1'(0) and theta1'''(0) from one series pass, each its own single-order sum bit for bit."""
        return theta1(0.0, self.tau, (1, 3))

    @functools.cached_property
    def _theta1_prime0(self) -> complex:
        """theta1'(0), a positive real held as the complex series value."""
        return self._theta1_odd0[0]

    @functools.cached_property
    def _zeta_varpi3(self) -> complex:
        return -self._theta1_odd0[1] / (12.0 * self.varpi3 * self._theta1_prime0)

    @functools.cached_property
    def quad_const(self) -> float:
        """C = zeta(varpi3) / (8 varpi3) of tau's factor exp(-C x^2); NonRealTau if not real."""
        quad = self._zeta_varpi3 / (8.0 * self.varpi3)
        if abs(quad.imag) > 1e-12 * max(1.0, abs(quad)):
            raise NonRealTau(f"quadratic constant {quad} not real")
        return float(quad.real)


@dataclass(frozen=True)
class JacobianPoint:
    """A spectral point in the Jacobian coordinate.

    Hot points (chi = 0) sit on the real segment (0, 1/2), cool points
    (chi = 1) on tau/2 + (0, 1/2).  The involution partner is
    beta_star = 1 - beta + chi*tau, in the same fundamental rectangle.
    """

    beta: complex
    chi: int

    @property
    def kind(self) -> str:
        return "cool" if self.chi else "hot"

    def star(self, tau: complex) -> complex:
        return 1.0 - self.beta + self.chi * tau

    def mu(self) -> float:
        """beta - beta_star evaluated as the real number 2*Re(beta) - 1."""
        return 2.0 * self.beta.real - 1.0


def _agm(a: float, b: float) -> float:
    # quadratic convergence: well under 64 iterations for any double input
    for _ in range(64):
        if abs(a - b) <= 4e-16 * abs(a):
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def ellipk_agm(m: float) -> float:
    """Complete elliptic integral K(m), parameter convention, by AGM."""
    if not 0.0 <= m < 1.0:
        raise ValueError(f"parameter m={m} outside [0, 1)")
    return math.pi / (2.0 * _agm(1.0, math.sqrt(1.0 - m)))


def half_periods(e1: float, e2: float, e3: float) -> CurveParams:
    """Build CurveParams from ordered branch points with zero trace."""
    scale = max(abs(e1), abs(e2), abs(e3))
    if min(e1 - e2, e2 - e3) < 1e-12 * scale:
        raise NonDistinctBranchPoints(f"branch points not separated: {e1}, {e2}, {e3}")
    if abs(e1 + e2 + e3) > 1e-10 * max(scale, 1.0):
        raise TraceNotZero(f"e1+e2+e3 = {e1 + e2 + e3} is not zero")
    m = (e2 - e3) / (e1 - e3)
    root = math.sqrt(e1 - e3)
    varpi1 = ellipk_agm(m) / root
    varpi3 = -1j * ellipk_agm(1.0 - m) / root
    tau = varpi1 / varpi3
    g2 = -4.0 * (e1 * e2 + e1 * e3 + e2 * e3)
    g3 = 4.0 * e1 * e2 * e3
    return CurveParams(
        e1=e1, e2=e2, e3=e3, g2=g2, g3=g3,
        varpi1=varpi1, varpi3=varpi3, tau=tau,
        nome_q=np.exp(1j * np.pi * tau),
    )


def _theta_sum(half_index: bool, beta, tau: complex, order, rows: bool = False):
    """Adaptive q-series for theta1 (half_index) or theta3 and beta-derivatives.

    order is one derivative order or a tuple of them; a tuple gives a tuple
    of results from one pass that shares q^{m^2} and exp(+-2 pi i m z) per
    term.  Each order keeps its own running maximum and stops once three of
    its consecutive increments fall below 1e-16 of it, so every order equals
    its own single-order sum bit for bit.  With rows, axis 0 of beta indexes
    independent series: each row keeps its own running maximum and quiet
    count per order and takes no term once it stops, so a batch returns
    what one call per row returns.  An empty beta array gives an empty
    result.  An array (not rows) whose z all share one imaginary part goes
    to _shared_im_series, which skips the work that cannot move a bit.  One
    point (not rows) goes to _one_point_series, on Python complex scalars,
    unless it declines the point.
    """
    if tau.imag < MIN_IM_TAU:
        raise ThetaConvergenceError(f"Im(tau) = {tau.imag} < {MIN_IM_TAU}")
    # isinstance first: np.ndim costs more than a one-point series term
    single = isinstance(order, int) or not isinstance(order, tuple) and np.ndim(order) == 0
    orders = (order,) if single else tuple(order)
    if not rows and (isinstance(beta, (complex, float, int)) or np.ndim(beta) == 0):
        totals = _one_point_series(half_index, complex(beta), tau, orders)
        if totals is not None:
            return totals[0] if single else tuple(totals)
    b = np.asarray(beta, dtype=np.complex128)
    if b.size == 0:
        return b.copy() if single else tuple(b.copy() for _ in orders)
    z = b - 0.5 if half_index else b
    m = 0.5 if half_index else 1.0
    starts = [1.0 if not half_index and k == 0 else 0.0 for k in orders]
    if not rows and b.ndim > 0 and bool(np.all(z.imag == z.imag.flat[0])):
        totals = _shared_im_series(z.ravel(), float(z.imag.flat[0]), tau, orders, starts, m)
        totals = [total.reshape(b.shape) for total in totals]
        return totals[0] if single else tuple(totals)
    n_rows = b.shape[0] if rows else 1
    totals = [np.zeros_like(b) for _ in orders]
    for total, start in zip(totals, starts):
        if start:
            total += start
    running_max = [[start] * n_rows for start in starts]
    quiet = [[0] * n_rows for _ in orders]
    live = [n_rows] * len(orders)       # rows of each order still taking terms
    while True:
        w = 2j * np.pi * m
        qm = np.exp(1j * np.pi * tau * m * m)
        e_plus, e_minus = np.exp(w * z), np.exp(-w * z)
        for j, k in enumerate(orders):
            if not live[j]:
                continue
            counts, tops = quiet[j], running_max[j]
            term = qm * (w ** k * e_plus + (-w) ** k * e_minus)
            if live[j] == n_rows:
                totals[j] = totals[j] + term
            else:
                keep = np.reshape([c < 3 for c in counts], (n_rows,) + (1,) * (b.ndim - 1))
                totals[j] = np.where(keep, totals[j] + term, totals[j])
            if rows:
                peaks = np.abs(term).reshape(n_rows, -1).max(axis=1).tolist()
            else:
                peaks = (float(np.abs(term).max()),)
            for r, peak in enumerate(peaks):
                if counts[r] == 3:
                    continue
                tops[r] = top = max(tops[r], peak)
                if peak == 0.0 or (top > 0.0 and peak < 1e-16 * top):
                    counts[r] += 1
                    if counts[r] == 3:
                        live[j] -= 1
                else:
                    counts[r] = 0
        if not any(live):
            break
        m += 1.0
        if m > 512:
            raise ThetaConvergenceError("theta series failed to converge")
    if np.ndim(beta) == 0:
        totals = [complex(total) for total in totals]
    return totals[0] if single else tuple(totals)


def _one_point_series(half_index: bool, beta: complex, tau: complex, orders) -> list | None:
    """_theta_sum's totals at one point, summed on Python complex scalars, or None to decline.

    Every term is the numpy loop's, operation for operation and in the same
    order: CPython's complex * and + round as numpy's 0-d ones do, and
    cmath.exp equals numpy's complex exp while |Re| <= _CEXP_AGREES
    (tests/test_elliptic.py compares bytes with the numpy loop kept in
    tests/oracles.py).  The builtin abs misses numpy's complex absolute by
    a few ulps, which only the stopping rule reads: a peak within
    _PEAK_MARGIN of 1e-16 of the running maximum, where numpy could stop
    at another term, is declined, as is an exponent between _CEXP_AGREES
    and _EXP_OVERFLOWS, so that the numpy loop sums those points.  Past
    _EXP_OVERFLOWS, or where abs overflows or cmath.exp meets an infinite
    imaginary part (an overflowing 2 pi m Re z), numpy's terms are infinite
    or NaN from that index on, so its series cannot stop and raises
    ThetaConvergenceError after 512 terms; this raises it at once.
    """
    z = beta - 0.5 if half_index else beta
    m = 0.5 if half_index else 1.0
    tops = [1.0 if not half_index and k == 0 else 0.0 for k in orders]
    totals = [complex(top) for top in tops]
    lows = [1e-16 * top * (1.0 - _PEAK_MARGIN) for top in tops]   # quiet below
    highs = [1e-16 * top * (1.0 + _PEAK_MARGIN) for top in tops]  # not quiet above
    quiet = [0] * len(orders)
    live = list(range(len(orders)))
    try:
        while True:
            w = 2j * math.pi * m
            qm = cmath.exp(1j * math.pi * tau * m * m)
            wz = w * z
            x = abs(wz.real)
            if x > _CEXP_AGREES:
                if x > _EXP_OVERFLOWS:
                    break
                return None
            e_plus, e_minus = cmath.exp(wz), cmath.exp(-w * z)
            for j in live:
                k = orders[j]
                term = qm * (w ** k * e_plus + (-w) ** k * e_minus)
                totals[j] += term
                peak = abs(term)
                if peak > tops[j]:
                    tops[j] = peak
                    lows[j] = 1e-16 * peak * (1.0 - _PEAK_MARGIN)
                    highs[j] = 1e-16 * peak * (1.0 + _PEAK_MARGIN)
                    quiet[j] = 0
                elif peak < lows[j] or peak == 0.0:
                    quiet[j] += 1
                elif peak <= highs[j]:
                    return None
                else:
                    quiet[j] = 0
            live = [j for j in live if quiet[j] < 3]
            if not live:
                return totals
            m += 1.0
            if m > 512:
                break
    except (OverflowError, ValueError):
        pass
    raise ThetaConvergenceError("theta series failed to converge")


def _exp_pair(w: complex, z, x: float):
    """(exp(w z), exp(-w z)) for z whose imaginary parts all give Re(w z) = x; see _shared_im_series."""
    if abs(x) > _HALF_LOG_MAX or x != 0.0 and z.size < _SMALL_ARRAY:
        return np.exp(w * z), np.exp(-w * z)
    if x == 0.0:
        e_plus = np.exp(w * z)
        return e_plus, np.conj(e_plus)
    unit = np.exp(w * z - x)
    return math.exp(x) * unit, math.exp(-x) * np.conj(unit)


def _shared_im_series(z, s: float, tau: complex, orders, starts, m: float) -> list:
    """_theta_sum's totals, one per order, at a flat array z whose imaginary parts all equal s.

    Each term needs exp(+-w z), w = 2 pi i m, whose real parts are +-x,
    x = -2 pi m s, at every point, so one complex exponential serves: with
    unit = exp(w z - x), whose real part is exactly 0, they are exp(x) unit
    and exp(-x) conj(unit), and for x = 0 exp(w z) and its conjugate.
    numpy's complex exp forms exp(Re) (cos Im + i sin Im) from the same
    scalar exp as math.exp and an odd sine, so this equals the two
    exponentials bit for bit (tests/oracles.py keeps the two-exponential
    sum to check it).  _exp_pair takes both beyond |x| = _HALF_LOG_MAX, and
    for x != 0 below _SMALL_ARRAY points, where they cost less.

    Up to that |x| the term of order k is at most B = |q^{m^2}| |w^k| 2 e^{|x|},
    times _TERM_ROUNDING, at every point, which is known before any
    exponential.  If B < 1e-16 of the order's running maximum, the term is
    quiet and leaves that maximum as it is, whatever its values.  Where
    B < _INERT |Re T| and B < _INERT |Im T| of the partial sum T, adding the
    term cannot change T's bytes.  For x = 0 and a real q^{m^2} every term's
    imaginary part is exactly +0, as is T's, so only Re T is compared.  A
    quiet term is therefore evaluated, by the same elementwise formulas,
    only at the points that fail that test (at every point below
    _SMALL_ARRAY points), and not at all if none does.  min |Re T|, |Im T|
    is measured at most once per change of T; a quiet term lowers it by at
    most its bound, which often certifies the next term without measuring.
    The bound needs every w z finite, which a finite sum of (Re z)^2
    ensures; other arrays evaluate every term at every point.
    """
    n_full = n_subset = n_certified = 0
    real_terms = s == 0.0 and tau.real == 0.0
    totals = [np.zeros(z.shape, np.complex128) for _ in starts]
    for total, start in zip(totals, starts):
        if start:
            total.fill(start)
    tops = list(starts)
    quiet = [0] * len(orders)
    # per order: |Re T| (and |Im T|) at every point while T keeps its values,
    # and a lower bound of their minimum
    mags = [None] * len(orders)
    floor = [-math.inf] * len(orders)
    tame = None                     # sum of (Re z)^2 finite, checked at the first quiet bound
    while True:
        w = 2j * np.pi * m
        qm = np.exp(1j * np.pi * tau * m * m)
        x = -(w.imag * s)
        bound = math.inf if abs(x) > _HALF_LOG_MAX else abs(qm) * math.exp(abs(x)) * _TERM_ROUNDING
        plan = []                   # (j, w^k, (-w)^k, bound if quiet else None, points or None)
        everywhere = False
        for j, k in enumerate(orders):
            if quiet[j] == 3:
                continue
            wk = w ** k
            b = bound * abs(wk)
            quiet_bound = b < 1e-16 * tops[j]
            if quiet_bound and tame is None:
                tame = math.isfinite(float(np.dot(z.real, z.real)))
            if not (quiet_bound and tame):
                plan.append((j, wk, (-w) ** k, None, None))
                everywhere = True
                continue
            quiet[j] += 1
            limit = b / _INERT
            if limit >= floor[j] and mags[j] is None:
                t = totals[j]
                mags[j] = np.abs(t.real if real_terms else t.view(np.float64))
                floor[j] = float(mags[j].min())
            if limit < floor[j]:
                n_certified += 1
            elif z.size < _SMALL_ARRAY:
                plan.append((j, wk, (-w) ** k, b, None))
                everywhere = True
            else:
                inert = mags[j] > limit
                if not real_terms:
                    inert = inert.reshape(-1, 2).all(axis=1)
                plan.append((j, wk, (-w) ** k, b, np.flatnonzero(~inert)))
        if plan:
            if everywhere:
                at = None
            elif len(plan) == 1:
                at = plan[0][4]
            else:
                at = np.unique(np.concatenate([entry[4] for entry in plan]))
            e_plus, e_minus = _exp_pair(w, z if at is None else z[at], x)
            for j, wk, wk_minus, b, _ in plan:
                term = qm * (wk * e_plus + wk_minus * e_minus)
                if at is None:
                    totals[j] += term
                    n_full += 1
                else:
                    totals[j][at] += term
                    n_subset += 1
                mags[j] = None
                if b is not None:
                    # each |Re T|, |Im T| moved by at most b, then rounded
                    floor[j] = (floor[j] - b) * (1.0 - 2.0 ** -50)
                    continue
                floor[j] = -math.inf
                peak = float(np.abs(term).max())
                tops[j] = top = max(tops[j], peak)
                if peak == 0.0 or (top > 0.0 and peak < 1e-16 * top):
                    quiet[j] += 1
                else:
                    quiet[j] = 0
        if min(quiet) == 3 or m + 1.0 > 512:
            break
        m += 1.0
    _SERIES_TERMS["full"] += n_full
    _SERIES_TERMS["subset"] += n_subset
    _SERIES_TERMS["certified"] += n_certified
    if min(quiet) < 3:
        raise ThetaConvergenceError("theta series failed to converge")
    return totals


# relative size of the tail _theta_grid drops: below half an ulp
_TABLE_TAIL = 2.0 ** -54


def _table_terms(tau: complex, y: float, m0: float) -> np.ndarray:
    """Indices m0, m0 + 1, ... that _theta_grid keeps for arguments with |Im| <= y.

    m0 is 1/2 for theta1 and 0 for theta3.  Each of the two exponentials of
    index m is bounded by t(m) = exp(-pi Im(tau) m^2 + 2 pi m y).  From the
    first dropped index on the ratio t(m+1)/t(m) = exp(-pi Im(tau) (2m + 1)
    + 2 pi y) is at most 1/2 and falling, so the dropped tail of each is at
    most 2 t(first dropped), which the count keeps below _TABLE_TAIL t(m0).
    The bound holds relative to t(m0) at every argument, because
    tail/t(m0) grows with y.
    """
    s = tau.imag
    if s < MIN_IM_TAU:
        raise ThetaConvergenceError(f"Im(tau) = {s} < {MIN_IM_TAU}")
    log_tail = -math.log(0.5 * _TABLE_TAIL)
    tail_small = (y + math.sqrt((y - m0 * s) ** 2 + s * log_tail / math.pi)) / s
    ratio_small = y / s - 0.5 + math.log(2.0) / (2.0 * math.pi * s)
    kept = max(math.ceil(max(tail_small, ratio_small) - m0), 1)
    if m0 + kept - 1 > 512:
        raise ThetaConvergenceError("theta series failed to converge")
    return m0 + np.arange(kept)


_KEEP_LOG = -55.451774444795625       # ln 2^-80 and ln 2^-60: see _certified_sum
_CERTIFIED_LOG = -41.58883083359672


def _certified_sum(upper: np.ndarray, peak, kernel, log_least, counter: dict):
    """kernel(rows) over the rows of an x block that can move a bit, else over every row.

    The one pruning rule of tau's subset sum and riemann's lattice sum.
    upper[d, r] bounds ln |term r| over the block for draw-row d, some term
    of which is at least exp(peak[d]) (peak a column, or a scalar for one
    draw-row).  The rows within 2^-80 of the peak for some draw-row stand if,
    for every draw-row, ln(dropped rows) + its largest dropped bound <=
    ln 2^-60 + log_least(sums), the ln of its smallest kept sum over the
    block (-inf for 0; in logs nothing overflows); otherwise, or if none is
    kept, every row is summed.  counter["all"] and counter["summed"] grow by
    rows x draw-rows of the block and of the sums; upper is overwritten.
    """
    draws, rows = upper.shape
    kept = (upper >= peak + _KEEP_LOG).any(axis=0)
    keep = kept.nonzero()[0]
    summed = keep.size
    sums = kernel(keep) if summed else None
    if keep.size < rows:
        np.copyto(upper, -np.inf, where=kept)
        with np.errstate(divide="ignore"):
            certified = sums is not None and (np.log(rows - keep.size) + upper.max(axis=1)
                                              <= _CERTIFIED_LOG + log_least(sums)).all()
        if not certified:
            sums = kernel(np.arange(rows))
            summed += rows
    counter["all"] += rows * draws
    counter["summed"] += summed * draws
    return sums


def _theta_grid(half_index: bool, a, b, tau: complex, derivative: bool = False):
    """theta1 (half_index) or theta3 at every a_i - b_j, shape (a.size, b.size).

    A term q^{m^2} exp(+-2 pi i m (a - b - s)), s = 1/2 for theta1 and 0
    for theta3, splits into q^{m^2/2} exp(+-2 pi i m (a - s)) times
    q^{m^2/2} exp(-+2 pi i m b), so the grid is one (na, K) x (K, nb)
    product of exponential tables, K = 2M for the M half-integer indices of
    _table_terms (theta1) or 2M - 1 for the integer ones, whose m = 0 term
    is a column of ones (theta3).  a and b are first shifted by a common
    imaginary centre, which leaves every a_i - b_j unchanged and puts each
    |Im a_i|, |Im b_j| below y = max |Im(a_i - b_j)|; with the weight split
    evenly no table entry then exceeds exp(2 pi y^2 / Im(tau)), whatever M
    is.  With derivative, the pair (grid, d grid / da) is returned, the
    derivative from the same left table against the right one scaled by
    2 pi i m, in the same product.  Raises ThetaConvergenceError where
    _theta_sum does; an empty a or b gives an empty grid.
    """
    a = np.ravel(np.asarray(a, dtype=np.complex128))
    b = np.ravel(np.asarray(b, dtype=np.complex128))
    if a.size == 0 or b.size == 0:
        empty = np.zeros((a.size, b.size), dtype=np.complex128)
        return (empty, empty.copy()) if derivative else empty
    half = 0.5 if half_index else 0.0      # first index, and the shift s
    y = max(a.imag.max() - b.imag.min(), b.imag.max() - a.imag.min(), 0.0)
    m = _table_terms(tau, float(y), half)
    if not half_index:
        m = m[1:]           # the m = 0 term is the column of ones below
    centre = 0.5j * (min(a.imag.min(), b.imag.min()) + max(a.imag.max(), b.imag.max()))
    root_w = np.tile(np.exp(0.5j * np.pi * tau * m * m), 2)
    phase_a = 2j * np.pi * np.multiply.outer(a - centre - half, m)
    phase_b = 2j * np.pi * np.multiply.outer(m, b - centre)
    left = np.concatenate([np.exp(phase_a), np.exp(-phase_a)], axis=1) * root_w
    right = np.concatenate([np.exp(-phase_b), np.exp(phase_b)], axis=0) * root_w[:, None]
    if not half_index:
        left = np.concatenate([np.ones((a.size, 1)), left], axis=1)
        right = np.concatenate([np.ones((1, b.size)), right], axis=0)
    if not derivative:
        return left @ right
    index = np.concatenate([m, -m]) if half_index else np.concatenate([[0.0], m, -m])
    both = left @ np.concatenate([right, 2j * np.pi * index[:, None] * right], axis=1)
    return both[:, :b.size], both[:, b.size:]


def theta1(beta, tau: complex, order: int = 0):
    return _theta_sum(True, beta, tau, order)


def theta3(beta, tau: complex, order: int = 0):
    return _theta_sum(False, beta, tau, order)


def _log_theta1_derivatives(beta, tau: complex, count: int) -> list:
    """The first count (1 to 3) of d ln th1, d^2 ln th1, d^3 ln th1, from one pass over orders 0..count.

    Each series order is its own sum bit for bit, so a lower count leaves the
    derivatives it returns unchanged.
    """
    t = _theta_sum(True, beta, tau, tuple(range(count + 1)))
    d1 = t[1] / t[0]
    out = [d1]
    if count >= 2:
        out.append(t[2] / t[0] - d1 * d1)
    if count >= 3:
        out.append(t[3] / t[0] - 3.0 * (t[2] / t[0]) * d1 + 2.0 * d1 ** 3)
    return out


def log_theta1_derivatives(beta, tau: complex):
    """(d ln th1, d^2 ln th1, d^3 ln th1) with respect to beta, from one series pass."""
    return tuple(_log_theta1_derivatives(beta, tau, 3))


def zeta_half_period(curve: CurveParams) -> complex:
    """Weierstrass zeta(varpi3), from theta1'''(0)/theta1'(0); computed once per curve."""
    return curve._zeta_varpi3


def _lattice_beta(s, curve: CurveParams):
    """beta = s/(2 varpi3) for a scalar s (on Python complex) or an array; LatticePoint names
    the first s within 1e-10 of the period lattice (distances on Python floats for a scalar)."""
    scalar = isinstance(s, (complex, float, int)) or np.ndim(s) == 0
    s = complex(s) if scalar else np.asarray(s, dtype=np.complex128)
    w1, w3 = curve.varpi1, curve.varpi3
    a = s.real / (2.0 * w1)
    b = s.imag / (2.0 * w3.imag)
    if scalar:
        # round(v, 0) rounds half to even and passes nan and inf, as np.round does
        da, db = a - round(a, 0), b - round(b, 0)
    else:
        da, db = a - np.round(a), b - np.round(b)
    near = abs(da * 2.0 * w1 + db * 2.0 * w3) < 1e-10
    if (near if scalar else near.any()):
        bad = s if scalar else complex(s[near][0])
        raise LatticePoint(f"s = {bad} within 1e-10 of the period lattice")
    return s / (2.0 * w3)


def _weierstrass(beta, curve: CurveParams, count: int) -> tuple[list, list]:
    """The first count (1 to 3) of zeta, wp, wp' at 2 varpi3 beta, with the first count
    theta1 log-derivatives at beta that they come from, from one series pass."""
    w3 = curve.varpi3
    d = _log_theta1_derivatives(beta, curve.tau, count)
    z3 = zeta_half_period(curve)
    out = [(d[0] + 4.0 * w3 * z3 * beta) / (2.0 * w3)]
    if count >= 2:
        out.append(-(d[1] + 4.0 * w3 * z3) / (4.0 * w3 * w3))
    if count >= 3:
        out.append(-d[2] / (8.0 * w3 ** 3))
    return out, d


def weierstrass(s, curve: CurveParams):
    """(wp, wp', zeta) at the unnormalized argument s, a scalar or an array.

    Routed through log-derivatives of theta1 at beta = s/(2 varpi3).  An
    array is evaluated elementwise in one pass.  A scalar stays on Python
    complex scalars, whose products, sums and exp equal numpy's 0-d ones bit
    for bit; numpy's complex quotients, and its array products (a fused
    multiply-add), round differently, so an array's values can differ from
    per-element calls in the last bits.
    LatticePoint names the first offending element.
    """
    (zeta_w, wp, wp_prime), _ = _weierstrass(_lattice_beta(s, curve), curve, 3)
    return wp, wp_prime, zeta_w


def _quasi_terms(beta, chi, curve: CurveParams):
    """(P, E, b) at Jacobian points beta on segments chi, scalars or arrays, all complex.

    E = -wp'/2 and b = wp come from one series pass, at beta itself for an
    array (the gas nodes), at weierstrass's own argument 2 varpi3 beta over
    2 varpi3 for a single point.  The quasi-momentum
    P = theta1'(beta)/theta1(beta)/(2 varpi3) + chi i pi/(2 varpi3) takes the
    same pass where that argument is beta, else a pass at beta.  V = -E/P.
    """
    single = np.ndim(beta) == 0
    at = _lattice_beta(2.0 * curve.varpi3 * beta, curve)
    (_, wp, wpp), (d1, _, _) = _weierstrass(at if single else beta, curve, 3)
    if single and at != beta:
        (d1,) = _log_theta1_derivatives(beta, curve.tau, 1)
    return d1 / (2.0 * curve.varpi3) + chi * 1j * np.pi / (2.0 * curve.varpi3), -0.5 * wpp, wp


def _log_theta1_ratio(a, b, tau: complex):
    """ln|theta1(a) / theta1(b)|; the builtin abs keeps Python's hypot for scalars."""
    return np.log(abs(theta1(a, tau) / theta1(b, tau)))


def _cnoidal_wave(y, curve: CurveParams):
    """Cnoidal wave 2 d^2/dx^2 ln theta3(y) at real theta arguments y = x / (4 |varpi3|) + c."""
    t0, t1, t2 = _theta_sum(False, y, curve.tau, (0, 1, 2))
    w3_abs = abs(curve.varpi3)
    return (t2 / t0 - (t1 / t0) ** 2).real / (8.0 * w3_abs * w3_abs)


def wp_on_segment(point: JacobianPoint | complex, curve: CurveParams) -> float:
    """Real value of wp(2 varpi3 beta) for beta on a hot or cool segment."""
    beta = point.beta if isinstance(point, JacobianPoint) else complex(point)
    (_, wp), _ = _weierstrass(_lattice_beta(2.0 * curve.varpi3 * beta, curve), curve, 2)
    return float(wp.real)


def _carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson's symmetric integral R_F(x, y, z) for x, y, z >= 0, at most one of them zero.

    Duplication (DLMF 19.36(i)) runs until 4^-n Q < |A_n|, with
    Q = (3 u)^(-1/8) max |A_0 - x_i| and u = 2^-53, Carlson's a-priori rule
    for the degree-7 series of DLMF 19.36.1 that finishes it: the first
    neglected term is then below u relative.
    """
    a0 = (x + y + z) / 3.0
    q = _RF_STOP * max(abs(a0 - x), abs(a0 - y), abs(a0 - z))
    dx, dy = a0 - x, a0 - y
    a, scale = a0, 1.0
    while q >= scale * abs(a):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        x, y, z, a = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (a + lam)
        scale *= 4.0
    X, Y = dx / (scale * a), dy / (scale * a)
    Z = -X - Y
    E2, E3 = X * Y - Z * Z, X * Y * Z
    series = (1.0 + E3 * (1.0 / 14.0 + 3.0 * E3 / 104.0)
              + E2 * (-0.1 + E2 / 24.0 - 3.0 * E3 / 44.0 - 5.0 * E2 * E2 / 208.0 + E2 * E3 / 16.0))
    return series / math.sqrt(a)


def _certified_band(f, r_star: float, tol: float):
    """(lo, hi) around r_star inside (0, 1/2) with f(lo) < -tol and f(hi) > tol, else None.

    The half width starts at _BAND_START and widens by _BAND_WIDEN while a
    check fails, _BAND_TRIES widths in all.
    """
    m = _BAND_START
    for _ in range(_BAND_TRIES):
        lo, hi = r_star - m, r_star + m
        if not (0.0 < lo and hi < 0.5):
            return None
        if f(lo) < -tol and f(hi) > tol:
            return lo, hi
        m *= _BAND_WIDEN
    return None


def invert_wp(b: float, curve: CurveParams) -> JacobianPoint:
    """Jacobian coordinate of a spectral point b: bisection on wp, steered by Carlson's R_F.

    wp(2 varpi3 beta) increases from -inf to e3 along beta in (0, 1/2) and
    decreases from e1 to e2 along tau/2 + (0, 1/2); the segment is picked
    from the location of b, then a bracket search and 52 bisection steps on
    the increasing f(r) (wp - b hot, b - wp cool, at Re(beta) = r) plus a
    two-step Newton polish solve wp(2 varpi3 beta) = b.  A residual above
    1e-11 max(1, |b|) raises TooCloseToBranchPoint.

    The closed-form root r* = R_F(e1 - p, e2 - p, e3 - p) / (2 |varpi3|),
    with p = b (hot) or p = e1 + (e1 - e2)(e1 - e3)/(b - e1) (cool, by the
    half-period addition formula), spares most wp evaluations without
    moving a bit.  Two evaluations certify a band [r* - m, r* + m] inside
    (0, 1/2) by f(r* - m) < -E and f(r* + m) > E, with E = _WP_ROUNDING
    max(1, |b|, max |e_i|), times max(1, 0.1/r*) on the hot segment, twice
    the measured rounding error of f.  Outside the band the computed f then
    has the sign of the exact, monotone f, and the bracket and bisection
    read that sign instead of evaluating wp; inside it, or at every step
    when no band certifies, they evaluate as the plain bisection does.
    """
    e1, e2, e3 = curve.e1, curve.e2, curve.e3
    scale = max(abs(e1), abs(e2), abs(e3))
    guard = _BRANCH_TOL * max(scale, 1.0)
    if min(abs(b - e1), abs(b - e2), abs(b - e3)) < guard:
        raise TooCloseToBranchPoint(f"b = {b} within {guard} of a branch point")
    if b < e3:
        chi = 0
    elif e2 < b < e1:
        chi = 1
    else:
        raise SpectrumInGap(f"b = {b} lies in a spectral band")

    if chi == 0:
        def f_eval(r):
            return wp_on_segment(r, curve) - b
        p = b
    else:
        def f_eval(r):
            return b - wp_on_segment(r + curve.tau / 2.0, curve)
        p = e1 + (e1 - e2) * (e1 - e3) / (b - e1)
    band = (-math.inf, math.inf)        # where f is evaluated
    if p < e3:
        r_star = _carlson_rf(e1 - p, e2 - p, e3 - p) / (2.0 * abs(curve.varpi3))
        tol = _WP_ROUNDING * max(1.0, abs(b), scale)
        if chi == 0:
            tol *= max(1.0, 0.1 / r_star)
        band = _certified_band(f_eval, r_star, tol) or band

    def f(r):
        if r < band[0]:
            return -1.0
        if r > band[1]:
            return 1.0
        return f_eval(r)

    if chi == 0:
        lo, hi = 0.25, 0.5          # f(0.5) = e3 - b > 0
        tries = 0
        while f(lo) >= 0.0:
            lo *= 0.5
            tries += 1
            if tries > 60:
                raise TooCloseToBranchPoint(f"cannot bracket b = {b}")
    else:
        lo, hi = 1e-8, 0.5 - 1e-8   # f increasing: f(lo) ~ b - e1 < 0, f(hi) ~ b - e2 > 0
        while f(lo) >= 0.0:
            lo *= 0.5
        while f(hi) <= 0.0:
            hi = 0.5 - 0.5 * (0.5 - hi)

    for _ in range(52):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    r = 0.5 * (lo + hi)

    # Newton polish: d/dbeta wp(2 varpi3 beta) = 2 varpi3 wp'
    shift = curve.tau / 2.0 if chi else 0.0
    for _ in range(2):
        wp, wpp, _ = weierstrass(2.0 * curve.varpi3 * (r + shift), curve)
        step = (wp.real - b) / (2.0 * curve.varpi3 * wpp).real
        r_new = r - step
        if 0.0 < r_new < 0.5:
            r = r_new
    beta = r + shift
    resid = abs(wp_on_segment(beta, curve) - b)
    if resid > 1e-11 * max(1.0, abs(b)):
        raise TooCloseToBranchPoint(f"inversion residual {resid} for b = {b}")
    return JacobianPoint(beta=complex(beta), chi=chi)
