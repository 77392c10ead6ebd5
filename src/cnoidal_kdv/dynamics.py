"""Group velocities, position tracking and scattering shifts on the background.

A solitary disturbance at Jacobian point beta travels with

    V(beta) = wp'(2 varpi3 beta) / (2 [zeta(2 varpi3 beta) - 2 beta zeta(varpi3)
                                       + chi i pi / (2 varpi3)])

(positive for hot, negative for cool points).  Its instantaneous position
relative to the ballistic line x = V t is the unique solution Phi(t) of the
equal-addenda condition

    Phi = -(1/|P|) ln[ theta3((V t + Phi)/(4 i varpi3) - mu/2)
                       / theta3((V t + Phi)/(4 i varpi3) + mu/2) ] + ln(K)/|P|

with mu = beta - beta_star; the period average of Phi is ln(K)/|P|, so
averaged scattering shifts do not depend on norming constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .elliptic import CurveParams, JacobianPoint, theta1, theta3, weierstrass, zeta_half_period
from .errors import (
    BracketFailure,
    BranchPointLimit,
    EqualVelocities,
    FitDiverged,
    InvalidNorming,
    UnorderedVelocities,
)
from .tau import SolitonSpectrum, TauContext, quasi_energy, quasi_momentum, u_grid

_EDGE_TOL = 1e-8


@dataclass(frozen=True)
class TrackedSoliton:
    """A soliton with its tracking data: velocity, |P|, signed period."""

    point: JacobianPoint
    V: float
    P_abs: float
    period_T: float


def track_soliton(point: JacobianPoint, curve: CurveParams) -> TrackedSoliton:
    """Build TrackedSoliton, enforcing the sign and V = -E/P invariants."""
    v = group_velocity(point, curve)
    if (v <= 0.0 and point.chi == 0) or (v >= 0.0 and point.chi == 1):
        raise BranchPointLimit(f"velocity {v} has the wrong sign for {point.kind}")
    p = quasi_momentum(point, curve)
    e = quasi_energy(point, curve)
    ratio = -e.imag / p.imag
    if abs(v - ratio) > 1e-12 * max(1.0, abs(v)):
        raise BranchPointLimit(f"velocity routes disagree: {v} vs {ratio}")
    return TrackedSoliton(point=point, V=v, P_abs=p.imag,
                          period_T=curve.period_x / v)


def _check_interior(point: JacobianPoint) -> None:
    r = point.beta.real
    if min(abs(r), abs(r - 0.5)) < _EDGE_TOL:
        raise BranchPointLimit(f"beta = {point.beta} too close to a half period")


def group_velocity(point: JacobianPoint, curve: CurveParams) -> float:
    """Asymptotic speed V(beta) = -E/P of the solitary disturbance."""
    _check_interior(point)
    s = 2.0 * curve.varpi3 * point.beta
    _, wpp, zw = weierstrass(s, curve)
    denom = (zw - 2.0 * zeta_half_period(curve) * point.beta
             + point.chi * 1j * np.pi / (2.0 * curve.varpi3))
    v = 0.5 * wpp / denom
    if abs(v.imag) > 1e-10 * max(1.0, abs(v)):
        raise BranchPointLimit(f"velocity {v} not real at beta = {point.beta}")
    return float(v.real)


def _tracker_rhs(point: JacobianPoint, curve: CurveParams, norming: float):
    """R(Phi, t) of the equal-addenda equation, plus |P| and V.

    R takes scalars or broadcastable arrays of Phi and t.
    """
    if not (np.isfinite(norming) and norming > 0.0):
        raise InvalidNorming(f"norming constant {norming} is not a finite positive number")
    p_abs = quasi_momentum(point, curve).imag
    v = group_velocity(point, curve)
    mu = point.mu()
    x_period = curve.period_x

    def rhs(phi, t):
        w = (v * t + phi) / x_period
        ratio = (theta3(w - mu / 2.0, curve.tau) / theta3(w + mu / 2.0, curve.tau)).real
        return -np.log(ratio) / p_abs + np.log(norming) / p_abs

    return rhs, p_abs, v


def track_phase(point: JacobianPoint, curve: CurveParams, norming: float, t):
    """Unique Phi(t) solving the equal-addenda condition, by bisection.

    t is a scalar (a float is returned) or an array (an array of its shape
    is returned); all t are bisected together, one theta3 array call per
    numerator and denominator per step.  F(Phi) = Phi - R(Phi, t) is
    strictly increasing (dR/dPhi <= 1 with equality at isolated points), so
    bisection on a bracket wide enough to contain all values of R is robust
    where fixed-point iteration may stall.
    """
    rhs, p_abs, _ = _tracker_rhs(point, curve, norming)
    ts = np.asarray(t, dtype=float).ravel()
    ws = np.linspace(0.0, 1.0, 512, endpoint=False)
    mu = point.mu()
    log_ratio = np.log((theta3(ws - mu / 2.0, curve.tau)
                        / theta3(ws + mu / 2.0, curve.tau)).real)
    m = (float(np.max(np.abs(log_ratio))) + abs(np.log(norming))) / p_abs + 1.0
    ends = np.array([[-m], [m]])
    f_lo, f_hi = ends - rhs(ends, ts)
    if not np.all((f_lo < 0.0) & (0.0 < f_hi)):
        raise BracketFailure("tracker bracket does not straddle a root")
    lo, hi = np.full(ts.shape, -m), np.full(ts.shape, m)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = mid - rhs(mid, ts) < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    phi = 0.5 * (lo + hi)
    resid = float(np.max(np.abs(phi - rhs(phi, ts)), initial=0.0))
    if not resid <= 1e-10:
        raise BracketFailure(f"tracker residual {resid}")
    return float(phi[0]) if np.ndim(t) == 0 else phi.reshape(np.shape(t))


def tracking_period(point: JacobianPoint, curve: CurveParams) -> float:
    """Signed period T = 4 i varpi3 / V of the tracked phase."""
    return curve.period_x / group_velocity(point, curve)


def mean_track_phase(point: JacobianPoint, curve: CurveParams, norming: float) -> float:
    """Period average of Phi by composite midpoint; equals ln(norming)/|P|.

    Computed at 256 and 512 nodes; the refinement must agree to 1e-9.
    """
    period = abs(tracking_period(point, curve))

    def average(n: int) -> float:
        ts = (np.arange(n) + 0.5) * period / n
        return float(np.mean(track_phase(point, curve, norming, ts)))

    coarse, fine = average(256), average(512)
    if abs(fine - coarse) > 1e-9:
        raise BracketFailure(f"period average not converged: {coarse} vs {fine}")
    return fine


def pair_shifts(point1: JacobianPoint, point2: JacobianPoint,
                curve: CurveParams) -> tuple[float, float]:
    """Averaged scattering shifts (Delta1, Delta2); requires V(beta1) > V(beta2)."""
    v1 = group_velocity(point1, curve)
    v2 = group_velocity(point2, curve)
    if not v1 > v2:
        raise UnorderedVelocities(f"V(beta1) = {v1} must exceed V(beta2) = {v2}")
    p1 = quasi_momentum(point1, curve).imag
    p2 = quasi_momentum(point2, curve).imag
    log_mod = float(np.log(abs(
        theta1(point1.beta - point2.star(curve.tau), curve.tau)
        / theta1(point1.beta - point2.beta, curve.tau))))
    return 2.0 * log_mod / p1, -2.0 * log_mod / p2


def total_shift_schedule(spectrum: SolitonSpectrum) -> np.ndarray:
    """Averaged total shift of each soliton, aligned with spectrum.entries.

    <Phi_j^+> - <Phi_j^-> = (2/|P_j|) [ sum_{k slower} - sum_{k faster} ]
                            ln|theta1(beta_j - beta_k^star)/theta1(beta_j - beta_k)|.
    """
    curve = spectrum.curve
    entries = spectrum.entries
    vs = np.array([e.velocity for e in entries])
    n = len(entries)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(vs[i] - vs[j]) < 1e-12 * max(1.0, abs(vs[i])):
                raise EqualVelocities(f"V_{i} = V_{j} = {vs[i]}")
    out = np.zeros(n)
    for j, ej in enumerate(entries):
        acc = 0.0
        for k, ek in enumerate(entries):
            if k == j:
                continue
            log_mod = float(np.log(abs(
                theta1(ej.beta - ek.beta_star, curve.tau)
                / theta1(ej.beta - ek.beta, curve.tau))))
            acc += log_mod if vs[k] < vs[j] else -log_mod
        out[j] = 2.0 * acc / ej.p_abs
    return out


# ----------------------------------------------------------------------------
# Background phase probe (conveyer-belt effect)
# ----------------------------------------------------------------------------

def _cnoidal_with_phase(ctx: TauContext, xs: np.ndarray, phase: float) -> np.ndarray:
    """2 d^2/dx^2 ln theta3((x - x0)/(4 i varpi3) + phase) - zeta(varpi3)/(2 varpi3)."""
    curve = ctx.curve
    w3_abs = abs(curve.varpi3)
    y = (xs - ctx.spectrum.x0) / (4.0 * w3_abs) + phase
    t0 = theta3(y, curve.tau)
    t1 = theta3(y, curve.tau, 1)
    t2 = theta3(y, curve.tau, 2)
    return (t2 / t0 - (t1 / t0) ** 2).real / (8.0 * w3_abs * w3_abs) - 4.0 * ctx.quad_const


def background_shift_probe(ctx: TauContext, t: float,
                           windows: list[tuple[float, float]],
                           samples_per_window: int = 160) -> list[float]:
    """Fit a phase-shifted cnoidal wave to u on each window; return phases mod 1.

    Windows must lie away from soliton cores (the caller places them, e.g.
    from the group velocities).  The returned phase is the additive one:
    u ~ 2 d^2/dx^2 ln theta3(y + phase) + const on the window.
    """
    phases = []
    for lo, hi in windows:
        xs = np.linspace(lo, hi, samples_per_window)
        u_w = u_grid(ctx, xs, t)

        def cost(phase: float) -> float:
            return float(np.mean((u_w - _cnoidal_with_phase(ctx, xs, phase)) ** 2))

        coarse = np.linspace(0.0, 1.0, 256, endpoint=False)
        c0 = min(coarse, key=cost)
        res = minimize_scalar(cost, bounds=(c0 - 1.0 / 128, c0 + 1.0 / 128),
                              method="bounded",
                              options={"xatol": 1e-12})
        phase = float(res.x % 1.0)
        if np.sqrt(cost(phase)) > 1e-2:
            raise FitDiverged(f"window ({lo}, {hi}): rms {np.sqrt(cost(phase))}")
        phases.append(phase)
    return phases


def phase_distance_mod1(a: float, b: float) -> float:
    """Distance between phases on the unit circle."""
    d = (a - b) % 1.0
    return min(d, 1.0 - d)
