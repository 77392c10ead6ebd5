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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    LatticePoint,
    NonDistinctBranchPoints,
    SpectrumInGap,
    ThetaConvergenceError,
    TooCloseToBranchPoint,
    TraceNotZero,
)

# q-series is impractical below this modulus; the physical regimes never get close
MIN_IM_TAU = 0.05

_BRANCH_TOL = 1e-9


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

    @functools.cached_property
    def _zeta_varpi3(self) -> complex:
        # cached_property writes the instance __dict__, which a frozen dataclass allows
        t1 = theta1(0.0, self.tau, 1)
        t3 = theta1(0.0, self.tau, 3)
        return -t3 / (12.0 * self.varpi3 * t1)


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


def _theta_sum(half_index: bool, beta, tau: complex, order: int):
    """Adaptive q-series for theta1 (half_index) or theta3 and beta-derivatives.

    Terms are accumulated symmetrically in +-m until three consecutive
    increments fall below 1e-16 of the running maximum.
    """
    if tau.imag < MIN_IM_TAU:
        raise ThetaConvergenceError(f"Im(tau) = {tau.imag} < {MIN_IM_TAU}")
    b = np.asarray(beta, dtype=np.complex128)
    z = b - 0.5 if half_index else b
    total = np.zeros_like(b)
    if not half_index and order == 0:
        total += 1.0
    running_max = float(np.abs(total).max()) if total.size else 0.0
    m = 0.5 if half_index else 1.0
    quiet = 0
    while True:
        w = 2j * np.pi * m
        qm = np.exp(1j * np.pi * tau * m * m)
        term = qm * (w ** order * np.exp(w * z) + (-w) ** order * np.exp(-w * z))
        total = total + term
        peak = float(np.abs(term).max())
        running_max = max(running_max, peak)
        if peak == 0.0 or (running_max > 0.0 and peak < 1e-16 * running_max):
            quiet += 1
            if quiet == 3:
                break
        else:
            quiet = 0
        m += 1.0
        if m > 512:
            raise ThetaConvergenceError("theta series failed to converge")
    if np.ndim(beta) == 0:
        return complex(total)
    return total


def theta1(beta, tau: complex, order: int = 0):
    return _theta_sum(True, beta, tau, order)


def theta3(beta, tau: complex, order: int = 0):
    return _theta_sum(False, beta, tau, order)


def theta_eval(kind: int, order: int, beta, curve: CurveParams):
    """Order-th beta-derivative of theta1 or theta3 on the curve's modulus."""
    if kind not in (1, 3):
        raise ValueError("kind must be 1 or 3")
    if not 0 <= order <= 3:
        raise ValueError("order must be in 0..3")
    fn = theta1 if kind == 1 else theta3
    return fn(beta, curve.tau, order)


def log_theta1_derivatives(beta, tau: complex):
    """(d ln th1, d^2 ln th1, d^3 ln th1) with respect to beta."""
    t0 = theta1(beta, tau, 0)
    t1 = theta1(beta, tau, 1)
    t2 = theta1(beta, tau, 2)
    t3 = theta1(beta, tau, 3)
    d1 = t1 / t0
    d2 = t2 / t0 - d1 * d1
    d3 = t3 / t0 - 3.0 * (t2 / t0) * d1 + 2.0 * d1 ** 3
    return d1, d2, d3


def zeta_half_period(curve: CurveParams) -> complex:
    """Weierstrass zeta(varpi3), from theta1'''(0)/theta1'(0); computed once per curve."""
    return curve._zeta_varpi3


def zeta_varpi1(curve: CurveParams) -> complex:
    """Weierstrass zeta(varpi1), via the theta representation at beta = tau/2."""
    w3 = curve.varpi3
    d1, _, _ = log_theta1_derivatives(curve.tau / 2.0, curve.tau)
    z3 = zeta_half_period(curve)
    return (d1 + 4.0 * w3 * z3 * (curve.tau / 2.0)) / (2.0 * w3)


def legendre_combination(curve: CurveParams) -> complex:
    """zeta(varpi1)*varpi3 - zeta(varpi3)*varpi1; modulus must be pi/2."""
    return zeta_varpi1(curve) * curve.varpi3 - zeta_half_period(curve) * curve.varpi1


def _lattice_distance(s, curve: CurveParams):
    w1, w3 = curve.varpi1, curve.varpi3
    a = s.real / (2.0 * w1)
    b = s.imag / (2.0 * w3.imag)
    da = a - np.round(a)
    db = b - np.round(b)
    return np.abs(da * 2.0 * w1 + db * 2.0 * w3)


def weierstrass(s, curve: CurveParams):
    """(wp, wp', zeta) at the unnormalized argument s, a scalar or an array.

    Routed through log-derivatives of theta1 at beta = s/(2 varpi3).  An
    array is evaluated elementwise in one pass; numpy rounds complex
    products and quotients differently from Python complex scalars, so its
    values can differ from per-element calls in the last bits.
    LatticePoint names the first offending element.
    """
    s = complex(s) if np.ndim(s) == 0 else np.asarray(s, dtype=np.complex128)
    near = _lattice_distance(s, curve) < 1e-10
    if np.any(near):
        bad = s if np.ndim(s) == 0 else complex(s[near][0])
        raise LatticePoint(f"s = {bad} within 1e-10 of the period lattice")
    w3 = curve.varpi3
    beta = s / (2.0 * w3)
    d1, d2, d3 = log_theta1_derivatives(beta, curve.tau)
    z3 = zeta_half_period(curve)
    zeta_w = (d1 + 4.0 * w3 * z3 * beta) / (2.0 * w3)
    wp = -(d2 + 4.0 * w3 * z3) / (4.0 * w3 * w3)
    wp_prime = -d3 / (8.0 * w3 ** 3)
    return wp, wp_prime, zeta_w


def wp_on_segment(point: JacobianPoint | complex, curve: CurveParams, chi: int | None = None) -> float:
    """Real value of wp(2 varpi3 beta) for beta on a hot or cool segment."""
    beta = point.beta if isinstance(point, JacobianPoint) else complex(point)
    wp, _, _ = weierstrass(2.0 * curve.varpi3 * beta, curve)
    return float(wp.real)


def invert_wp(b: float, curve: CurveParams) -> JacobianPoint:
    """Jacobian coordinate of a spectral point b by bisection.

    wp(2 varpi3 beta) increases from -inf to e3 along beta in (0, 1/2) and
    decreases from e1 to e2 along tau/2 + (0, 1/2); the segment is picked
    from the location of b, then bisection plus a Newton polish solves
    wp(2 varpi3 beta) = b.
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
        def f(r):
            return wp_on_segment(r, curve) - b
        lo, hi = 0.25, 0.5          # f(0.5) = e3 - b > 0
        tries = 0
        while f(lo) >= 0.0:
            lo *= 0.5
            tries += 1
            if tries > 60:
                raise TooCloseToBranchPoint(f"cannot bracket b = {b}")
    else:
        def f(r):
            return b - wp_on_segment(r + curve.tau / 2.0, curve)
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
