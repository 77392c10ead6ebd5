"""Group velocities, position tracking and scattering shifts on the background.

A solitary disturbance at Jacobian point beta travels with

    V(beta) = -E/P = wp'(2 varpi3 beta) / (2 P),
    P = theta1'(beta) / (2 varpi3 theta1(beta)) + chi i pi / (2 varpi3)

(positive for hot, negative for cool points), P and E from
elliptic._quasi_terms as in the soliton spectrum.  Its instantaneous position
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

from .elliptic import CurveParams, JacobianPoint
from .elliptic import _cnoidal_wave, _log_theta1_ratio, _quasi_terms, _theta_grid
from .errors import (
    BracketFailure,
    BranchPointLimit,
    EqualVelocities,
    FitDiverged,
    InvalidNorming,
    UnorderedVelocities,
)
from .tau import SolitonSpectrum, TauContext, u_grid

_EDGE_TOL = 1e-8


@dataclass(frozen=True)
class TrackedSoliton:
    """A soliton with its tracking data: velocity, |P|, signed period."""

    point: JacobianPoint
    V: float
    P_abs: float
    period_T: float


def track_soliton(point: JacobianPoint, curve: CurveParams) -> TrackedSoliton:
    """Build TrackedSoliton, enforcing the sign invariant of V."""
    v, p_abs = _velocity(point, curve)
    if (v <= 0.0 and point.chi == 0) or (v >= 0.0 and point.chi == 1):
        raise BranchPointLimit(f"velocity {v} has the wrong sign for {point.kind}")
    return TrackedSoliton(point=point, V=v, P_abs=p_abs, period_T=curve.period_x / v)


def _velocity(point: JacobianPoint, curve: CurveParams) -> tuple[float, float]:
    """(V, |P|) at a point inside its segment, V = -Im E / Im P as the spectrum's velocity."""
    r = point.beta.real
    if min(abs(r), abs(r - 0.5)) < _EDGE_TOL:
        raise BranchPointLimit(f"beta = {point.beta} too close to a half period")
    p, e, _ = _quasi_terms(point.beta, point.chi, curve)
    v = -e / p
    if abs(v.imag) > 1e-10 * max(1.0, abs(v)):
        raise BranchPointLimit(f"velocity {v} not real at beta = {point.beta}")
    return -e.imag / p.imag, p.imag


def group_velocity(point: JacobianPoint, curve: CurveParams) -> float:
    """Asymptotic speed V(beta) = -E/P of the solitary disturbance."""
    return _velocity(point, curve)[0]


def _log_theta3_ratio(w, mu: float, tau: complex):
    """(L, dL/dw), L = ln(theta3(w - mu/2) / theta3(w + mu/2)), at real w of any shape.

    Both theta3 values and their w-derivatives come from one theta table grid.
    """
    w = np.asarray(w, dtype=float)
    th, d_th = _theta_grid(False, w, np.array([0.5, -0.5]) * mu, tau, True)
    log_d = (d_th / th).real
    return (np.log((th[:, 0] / th[:, 1]).real).reshape(w.shape),
            (log_d[:, 0] - log_d[:, 1]).reshape(w.shape))


def _tracker_rhs(point: JacobianPoint, curve: CurveParams, norming: float):
    """(R, dR/dPhi) of the equal-addenda equation Phi = R(Phi, t), plus |P| and V.

    The returned function takes scalars or broadcastable arrays of Phi and t.
    """
    if not (np.isfinite(norming) and norming > 0.0):
        raise InvalidNorming(f"norming constant {norming} is not a finite positive number")
    v, p_abs = _velocity(point, curve)
    mu = point.mu()
    x_period = curve.period_x

    def rhs(phi, t):
        log_ratio, d_log = _log_theta3_ratio((v * t + phi) / x_period, mu, curve.tau)
        return (np.log(norming) - log_ratio) / p_abs, -d_log / (p_abs * x_period)

    return rhs, p_abs, v


# a Newton step or bracket below this, relative to max(1, |Phi|), ends a t
_NEWTON_XTOL = 1e-13
# bisection alone takes a bracket [-m, m] with m < 1e5 below the tolerance within it
_NEWTON_CAP = 64


def track_phase(point: JacobianPoint, curve: CurveParams, norming: float, t):
    """Unique Phi(t) solving the equal-addenda condition, by safeguarded Newton.

    t is a scalar (a float is returned) or an array (an array of its shape
    is returned); all t are solved together, with one theta table grid per
    iteration for theta3(w -+ mu/2) and their derivatives at every t still
    open.  F(Phi) = Phi - R(Phi, t) is strictly increasing (dR/dPhi <= 1
    with equality at isolated points), so each t keeps a bracket on which F
    changes sign, and a Newton step that leaves it, or a slope F' <= 0,
    falls back to bisection.  Newton starts from the root of the 512-point
    scan that sizes the bracket, interpolated linearly; a t stops once its
    Newton step or its bracket falls below _NEWTON_XTOL, or F is exactly 0.
    """
    rhs, p_abs, v = _tracker_rhs(point, curve, norming)
    ts = np.asarray(t, dtype=float).ravel()
    x_period = curve.period_x
    ws = np.linspace(0.0, 1.0, 513)
    log_ratio, _ = _log_theta3_ratio(ws[:-1], point.mu(), curve.tau)
    m = (float(np.max(np.abs(log_ratio))) + abs(np.log(norming))) / p_abs + 1.0
    ends = np.array([[-m], [m]])
    f_lo, f_hi = ends - rhs(ends, ts)[0]
    if not np.all((f_lo < 0.0) & (0.0 < f_hi)):
        raise BracketFailure("tracker bracket does not straddle a root")
    # Phi = X w - V t where X w + ln ratio(w)/|P| = V t + ln(norming)/|P|;
    # the left side increases with w and gains X per period
    scan = x_period * ws + np.append(log_ratio, log_ratio[0]) / p_abs
    target = v * ts + np.log(norming) / p_abs
    turns = np.floor((target - scan[0]) / x_period)
    w0 = turns + np.interp(target - turns * x_period, scan, ws)
    phi = np.clip(x_period * w0 - v * ts, -m, m)
    lo, hi = np.full(ts.shape, -m), np.full(ts.shape, m)
    open_ = np.arange(ts.size)
    for _ in range(_NEWTON_CAP):
        if not open_.size:
            break
        p = phi[open_]
        r, dr = rhs(p, ts[open_])
        f, slope = p - r, 1.0 - dr
        below = f < 0.0
        lo_o = lo[open_] = np.where(below, p, lo[open_])
        hi_o = hi[open_] = np.where(below, hi[open_], p)
        step = f / np.where(slope > 0.0, slope, 1.0)
        new = p - step
        # closed bracket: a converged step that lands on the end just set is kept
        newton = (slope > 0.0) & (lo_o <= new) & (new <= hi_o)
        phi[open_] = np.where(newton | (f == 0.0), new, 0.5 * (lo_o + hi_o))
        xtol = _NEWTON_XTOL * np.maximum(1.0, np.abs(p))
        done = (f == 0.0) | (newton & (np.abs(step) <= xtol)) | (hi_o - lo_o <= xtol)
        open_ = open_[~done]
    resid = float(np.max(np.abs(phi - rhs(phi, ts)[0]), initial=0.0))
    if not resid <= 1e-10:
        raise BracketFailure(f"tracker residual {resid}")
    return float(phi[0]) if np.ndim(t) == 0 else phi.reshape(np.shape(t))


def mean_track_phase(point: JacobianPoint, curve: CurveParams, norming: float) -> float:
    """Period average of Phi by composite midpoint; equals ln(norming)/|P|.

    Computed at 256 and 512 nodes; the refinement must agree to 1e-9.
    """
    period = abs(track_soliton(point, curve).period_T)

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
    (v1, p1), (v2, p2) = _velocity(point1, curve), _velocity(point2, curve)
    if not v1 > v2:
        raise UnorderedVelocities(f"V(beta1) = {v1} must exceed V(beta2) = {v2}")
    log_mod = float(_log_theta1_ratio(point1.beta - point2.star(curve.tau),
                                      point1.beta - point2.beta, curve.tau))
    return 2.0 * log_mod / p1, -2.0 * log_mod / p2


def total_shift_schedule(spectrum: SolitonSpectrum) -> np.ndarray:
    """Averaged total shift of each soliton, aligned with the spectrum's arrays.

    <Phi_j^+> - <Phi_j^-> = (2/|P_j|) [ sum_{k slower} - sum_{k faster} ]
                            ln|theta1(beta_j - beta_k^star)/theta1(beta_j - beta_k)|.
    """
    n, vs = len(spectrum), spectrum.velocity
    low, high = np.triu_indices(n, 1)           # pairs i < j, row by row
    same = np.abs(vs[low] - vs[high]) < 1e-12 * np.maximum(1.0, np.abs(vs[low]))
    if np.any(same):
        first = int(np.argmax(same))
        raise EqualVelocities(f"V_{low[first]} = V_{high[first]} = {vs[low[first]]}")
    betas, stars = spectrum.beta, spectrum.beta_star
    # off-diagonal pairs only: the diagonal would be theta1(0) = 0
    j, k = np.nonzero(~np.eye(n, dtype=bool))
    log_mod = np.zeros((n, n))
    log_mod[j, k] = _log_theta1_ratio(betas[j] - stars[k], betas[j] - betas[k],
                                      spectrum.curve.tau)
    signed = np.where(vs[None, :] < vs[:, None], log_mod, -log_mod)
    return 2.0 * signed.sum(axis=1) / spectrum.p


# ----------------------------------------------------------------------------
# Background phase probe (conveyer-belt effect)
# ----------------------------------------------------------------------------

_INV_GOLDEN = (5.0 ** 0.5 - 1.0) / 2.0


def _golden_section(cost, lo: float, hi: float, xatol: float) -> float:
    """Minimiser of a unimodal cost on [lo, hi], to xatol, by golden-section search."""
    x1, x2 = hi - _INV_GOLDEN * (hi - lo), lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = cost(x1), cost(x2)
    while hi - lo > xatol:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = cost(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = cost(x2)
    return 0.5 * (lo + hi)


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
        y = (xs - ctx.spectrum.x0) / (4.0 * abs(ctx.curve.varpi3))

        def cost(phase: float) -> float:
            fit = _cnoidal_wave(y + phase, ctx.curve) - 4.0 * ctx.quad_const
            return float(np.mean((u_w - fit) ** 2))

        coarse = np.linspace(0.0, 1.0, 256, endpoint=False)
        c0 = min(coarse, key=cost)
        phase = float(_golden_section(cost, c0 - 1.0 / 128, c0 + 1.0 / 128, 1e-12) % 1.0)
        if np.sqrt(cost(phase)) > 1e-2:
            raise FitDiverged(f"window ({lo}, {hi}): rms {np.sqrt(cost(phase))}")
        phases.append(phase)
    return phases


def phase_distance_mod1(a: float, b: float) -> float:
    """Distance between phases on the unit circle."""
    d = (a - b) % 1.0
    return min(d, 1.0 - d)
