"""N-soliton tau function on the cnoidal background and u = 2 (ln tau)_xx.

The tau function is

    tau(x,t) = exp(-zeta(varpi3) x^2 / (8 varpi3))
               * det[1_N + G(x,t)] * theta3((x - x0)/(4 i varpi3) - A)

with background shift A = (1/2) sum_j (beta_j - beta_j^star) and

    G_lm = theta3(beta_l - beta_m^star + y - A)
           / (theta1(beta_m^star - beta_l) theta3(y - A))
           * sqrt(C_l C_m) exp(i pi (psi_l + psi_m)),

    psi_j = (x - x_j) P_j / (2 pi) + t E_j / (2 pi),
    y     = (x - x0) / (4 i varpi3).

Norming constants are kept positive,

    C_l = |theta1(beta_l - beta_l^star)|
          * prod_{k != l} |theta1(beta_k - beta_l^star) / theta1(beta_k - beta_l)|,

and the sign that the literal theta1(beta_l - beta_l^star) < 0 would carry is
absorbed by writing the denominator as theta1(beta_m^star - beta_l).  With
this pairing det[1 + G] reproduces the Fredholm expansion of the degenerated
Riemann theta term by term (the diagonal entries come out positive, matching
the two-addenda single-soliton form).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fd
from .elliptic import (
    CurveParams,
    JacobianPoint,
    _HALF_LOG_MAX,
    _cnoidal_wave,
    _log_theta1_derivatives,
    _theta_sum,
    invert_wp,
    theta3,
    weierstrass,
    zeta_half_period,
)
from .errors import (
    BackgroundThetaZero,
    DuplicateSpectralPoint,
    GridTooCoarse,
    NonRealTau,
    PhaseOverflow,
)

# G_ll carries exp(2 expo_l) and G_lm exp(expo_l + expo_m), so each phase
# exponent stays within ln(DBL_MAX)/2
_EXP_GUARD = _HALF_LOG_MAX
_REALITY_TOL = 1e-9


@dataclass(frozen=True)
class SpectralEntry:
    """One soliton: spectral point, Jacobian data, phase rates, norming."""

    b: float
    point: JacobianPoint
    beta: complex
    beta_star: complex
    P: complex            # quasi-momentum, in i*R_+
    E: complex            # quasi-energy, purely imaginary
    C_norm: float         # positive norming constant
    x_shift: float

    @property
    def p_abs(self) -> float:
        return self.P.imag

    @property
    def velocity(self) -> float:
        return -self.E.imag / self.P.imag


@dataclass(frozen=True)
class SolitonSpectrum:
    curve: CurveParams
    entries: tuple[SpectralEntry, ...]
    x0: float
    background_shift_A: float

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class TauContext:
    """Everything needed to evaluate tau(x, t)."""

    curve: CurveParams
    spectrum: SolitonSpectrum
    quad_const: float     # C = zeta(varpi3) / (8 varpi3), real
    P_carrier: float      # -i pi / (2 varpi3), positive real


def quasi_momentum(point: JacobianPoint, curve: CurveParams) -> complex:
    """P(beta) = theta1'(beta)/theta1(beta)/(2 varpi3) + chi i pi/(2 varpi3)."""
    (d1,) = _log_theta1_derivatives(point.beta, curve.tau, 1)
    return d1 / (2.0 * curve.varpi3) + point.chi * 1j * np.pi / (2.0 * curve.varpi3)


def _wp_and_energy(point: JacobianPoint, curve: CurveParams) -> tuple[complex, complex]:
    """(wp, E) at 2 varpi3 beta from one weierstrass call, E(beta) = -wp'(2 varpi3 beta) / 2."""
    wp, wpp, _ = weierstrass(2.0 * curve.varpi3 * point.beta, curve)
    return wp, -0.5 * wpp


def quasi_energy(point: JacobianPoint, curve: CurveParams) -> complex:
    """E(beta) = -wp'(2 varpi3 beta) / 2."""
    return _wp_and_energy(point, curve)[1]


def norming_constants(points: list[JacobianPoint], curve: CurveParams) -> np.ndarray:
    n = len(points)
    betas = np.array([p.beta for p in points], dtype=complex)
    stars = np.array([p.star(curve.tau) for p in points], dtype=complex)
    # theta1(beta_k - beta_l*) for all k, l and theta1(beta_k - beta_l) for k != l, one
    # series each in one pass; the products below run on Python complex scalars
    args = np.concatenate([np.subtract.outer(betas, stars).ravel(),
                           np.subtract.outer(betas, betas)[~np.eye(n, dtype=bool)]])
    vals = _theta_sum(True, args, curve.tau, 0, rows=True).tolist()
    th_star = [vals[k * n:(k + 1) * n] for k in range(n)]
    off = iter(vals[n * n:])
    th_diff = [[None if k == l else next(off) for l in range(n)] for k in range(n)]
    out = np.empty(n)
    for l in range(n):
        c = abs(th_star[l][l])
        for k in range(n):
            if k == l:
                continue
            c *= abs(th_star[k][l] / th_diff[k][l])
        out[l] = c
    return out


def spectrum_from_points(curve: CurveParams, points: list[tuple[JacobianPoint, float]],
                         x0: float = 0.0) -> SolitonSpectrum:
    """Assemble a SolitonSpectrum from Jacobian points with x-shifts."""
    jps = [p for p, _ in points]
    half_im = curve.tau.imag / 2.0
    for p in jps:
        if not 0.0 < p.beta.real < 0.5:
            raise ValueError(f"Re(beta) = {p.beta.real} outside (0, 1/2)")
        if abs(p.beta.imag - p.chi * half_im) > 1e-12:
            raise ValueError(f"Im(beta) = {p.beta.imag} off the {p.kind} segment")
    for i in range(len(jps)):
        for j in range(i + 1, len(jps)):
            if abs(jps[i].beta - jps[j].beta) < 1e-10:
                raise DuplicateSpectralPoint(f"beta_{i} and beta_{j} coincide")
    cs = norming_constants(jps, curve)
    entries = []
    for (pt, x_shift), c in zip(points, cs):
        P = quasi_momentum(pt, curve)
        if abs(P.real) > 1e-12 * abs(P) or P.imag <= 0.0:
            raise NonRealTau(f"quasi-momentum {P} not in i*R_+")
        wp, E = _wp_and_energy(pt, curve)
        entries.append(SpectralEntry(
            b=float(wp.real),
            point=pt,
            beta=pt.beta,
            beta_star=pt.star(curve.tau),
            P=complex(0.0, P.imag),
            E=complex(0.0, E.imag),
            C_norm=float(c),
            x_shift=x_shift,
        ))
    shift_a = 0.5 * sum(e.point.mu() for e in entries)
    return SolitonSpectrum(curve=curve, entries=tuple(entries), x0=x0,
                           background_shift_A=shift_a)


def build_spectrum(curve: CurveParams, points: list[tuple[float, float]],
                   x0: float = 0.0) -> SolitonSpectrum:
    """SolitonSpectrum from physical spectral points (b, x_shift)."""
    bs = [b for b, _ in points]
    for i in range(len(bs)):
        for j in range(i + 1, len(bs)):
            if abs(bs[i] - bs[j]) < 1e-10 * max(1.0, abs(bs[i])):
                raise DuplicateSpectralPoint(f"b_{i} = b_{j} = {bs[i]}")
    jac = [(invert_wp(b, curve), xs) for b, xs in points]
    return spectrum_from_points(curve, jac, x0=x0)


def build_context(curve: CurveParams, spectrum: SolitonSpectrum) -> TauContext:
    z3 = zeta_half_period(curve)
    quad = z3 / (8.0 * curve.varpi3)
    if abs(quad.imag) > 1e-12 * max(1.0, abs(quad)):
        raise NonRealTau(f"quadratic constant {quad} not real")
    p_carrier = -1j * np.pi / (2.0 * curve.varpi3)
    return TauContext(curve=curve, spectrum=spectrum,
                      quad_const=float(quad.real), P_carrier=float(p_carrier.real))


# ----------------------------------------------------------------------------
# G matrix and determinant evaluation
# ----------------------------------------------------------------------------

def _background_phase(ctx: TauContext, xs) -> np.ndarray:
    """Real theta argument y - A of the background at each x."""
    y = (np.asarray(xs, dtype=float) - ctx.spectrum.x0) / (4j * ctx.curve.varpi3)
    return y.real - ctx.spectrum.background_shift_A


def _a_tensor(spectrum: SolitonSpectrum, ybg: np.ndarray) -> np.ndarray:
    """A_lm = th3(beta_l - beta_m* + ybg) / (th1(beta_m* - beta_l) th3(ybg)), ybg = y - A."""
    tau_mod = spectrum.curve.tau
    n = len(spectrum)
    th_bg = theta3(ybg, tau_mod)
    if np.min(np.abs(th_bg)) < 1e-13:
        raise BackgroundThetaZero("theta3 of the background phase vanished")
    betas = np.array([e.beta for e in spectrum.entries], dtype=complex)
    stars = np.array([e.beta_star for e in spectrum.entries], dtype=complex)
    # theta1(beta_m* - beta_l): one series per (l, m) in one pass
    den = _theta_sum(True, (stars[None, :] - betas[:, None]).ravel(), tau_mod, 0,
                     rows=True).reshape(n, n)
    # two solitons of the same kind often give bit-equal c_lm and c_ml, whose
    # numerators are then one theta3 pass
    c = [[el.beta - em.beta_star for em in spectrum.entries] for el in spectrum.entries]
    a = np.empty((ybg.size, n, n), dtype=complex)
    for l in range(n):
        for m in range(l, n):
            num = theta3(c[l][m] + ybg, tau_mod)
            a[:, l, m] = num / (den[l, m] * th_bg)
            if m == l:
                continue
            if c[m][l] != c[l][m]:
                num = theta3(c[m][l] + ybg, tau_mod)
            a[:, m, l] = num / (den[m, l] * th_bg)
    return a


def _phase_exponents(ctx: TauContext, xs: np.ndarray, t: float) -> np.ndarray:
    """Real exponents of exp(i pi psi_j) at each x: shape (nx, N)."""
    sp = ctx.spectrum
    p = np.array([e.p_abs for e in sp.entries])
    ei = np.array([e.E.imag for e in sp.entries])
    xsh = np.array([e.x_shift for e in sp.entries])
    expo = -0.5 * (np.subtract.outer(np.asarray(xs, dtype=float), xsh) * p + t * ei)
    if expo.size and not float(np.max(np.abs(expo))) <= _EXP_GUARD:
        raise PhaseOverflow("soliton phase exponent exceeds double-precision range")
    return expo


def g_matrix(ctx: TauContext, x: float, t: float) -> np.ndarray:
    """The N x N matrix G(x, t) of the Fredholm determinant."""
    return _g_stack(ctx, np.array([x]), t)[0]


def g_matrix_from_phases(spectrum: SolitonSpectrum, psis, beta_phase: float) -> np.ndarray:
    """G with free phases: psi_j the soliton phases, beta_phase the carrier one.

    Used by the degeneration experiments, where the phases are not tied to
    (x, t).
    """
    a = _a_tensor(spectrum, np.array([beta_phase - spectrum.background_shift_A]))[0]
    psis = np.asarray(psis, dtype=complex)
    d = np.sqrt([e.C_norm for e in spectrum.entries]) * np.exp(1j * np.pi * psis)
    return a * d[:, None] * d[None, :]


def fredholm_factor(spectrum: SolitonSpectrum, psis, beta_phase: float) -> complex:
    """det(1 + G) * theta3(beta - A), the degeneration limit of the theta sum."""
    n = len(spectrum)
    th_bg = theta3(beta_phase - spectrum.background_shift_A, spectrum.curve.tau)
    if n == 0:
        return th_bg
    g = g_matrix_from_phases(spectrum, psis, beta_phase)
    return complex(np.linalg.det(np.eye(n) + g) * th_bg)


def _g_stack(ctx: TauContext, xs: np.ndarray, t: float,
             a: np.ndarray | None = None) -> np.ndarray:
    if a is None:
        a = _a_tensor(ctx.spectrum, _background_phase(ctx, xs))
    expo = _phase_exponents(ctx, xs, t)
    sqrt_c = np.sqrt([e.C_norm for e in ctx.spectrum.entries])
    d = sqrt_c[None, :] * np.exp(expo)
    return a * d[:, :, None] * d[:, None, :]


def _det_one_plus_g(ctx: TauContext, xs: np.ndarray, t: float,
                    a: np.ndarray | None = None) -> np.ndarray:
    """det(1 + G) at each x, asserted real; returns a real array."""
    n = len(ctx.spectrum)
    xs = np.asarray(xs, dtype=float)
    if n == 0:
        return np.ones(xs.size)
    g = _g_stack(ctx, xs, t, a)
    if n == 1:
        det = 1.0 + g[:, 0, 0]
    elif n == 2:
        det = (1.0 + g[:, 0, 0]) * (1.0 + g[:, 1, 1]) - g[:, 0, 1] * g[:, 1, 0]
    else:
        det = np.linalg.det(np.eye(n)[None, :, :] + g)
    scale = np.abs(det) + 1.0
    if float(np.max(np.abs(det.imag) / scale)) > _REALITY_TOL:
        raise NonRealTau("det(1 + G) has a non-negligible imaginary part")
    return det.real


def _logdet_one_plus_g(ctx: TauContext, xs: np.ndarray, t: float,
                       a: np.ndarray | None = None) -> np.ndarray:
    """ln det(1 + G); goes through slogdet for N > 2 so wide phase ranges
    cannot overflow the determinant value itself."""
    n = len(ctx.spectrum)
    xs = np.asarray(xs, dtype=float)
    if n <= 2:
        det = _det_one_plus_g(ctx, xs, t, a)
        if np.min(det) <= 0.0:
            raise NonRealTau("det(1 + G) not positive on the evaluation grid")
        return np.log(det)
    g = _g_stack(ctx, xs, t, a)
    sign, logabs = np.linalg.slogdet(np.eye(n)[None, :, :] + g)
    if float(np.max(np.abs(sign - 1.0))) > _REALITY_TOL:
        raise NonRealTau("det(1 + G) not real positive on the evaluation grid")
    return logabs


def _tau_values(ctx: TauContext, xs: np.ndarray, det: np.ndarray, th: np.ndarray) -> np.ndarray:
    """Real tau from det(1+G) and theta3 of the background phase at xs."""
    vals = np.exp(-ctx.quad_const * xs * xs) * det * th
    if float(np.max(np.abs(vals.imag) / (np.abs(vals) + 1e-300))) > _REALITY_TOL:
        raise NonRealTau("tau has a non-negligible imaginary part")
    return vals.real


def tau_grid(ctx: TauContext, xs, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(tau, det(1+G)) on an array of x values at fixed t; both real arrays."""
    xs = np.asarray(xs, dtype=float)
    det = _det_one_plus_g(ctx, xs, t)
    th = theta3(_background_phase(ctx, xs), ctx.curve.tau)
    return _tau_values(ctx, xs, det, th), det


def u_background(ctx: TauContext, xs) -> np.ndarray:
    """Cnoidal part 2 d^2/dx^2 ln theta3(y - A) - zeta(varpi3)/(2 varpi3)."""
    return _cnoidal_wave(_background_phase(ctx, xs), ctx.curve) - 4.0 * ctx.quad_const


def logdet_x_analytic(ctx: TauContext, x: float, t: float) -> float:
    """d/dx ln det(1 + G) as trace((1+G)^{-1} dG/dx), fully analytic.

    Cross-check mode for the finite-difference engine: dG/dx follows from
    the theta log-derivatives of the numerator and background arguments plus
    the linear phase rates.
    """
    sp = ctx.spectrum
    n = len(sp)
    if n == 0:
        return 0.0
    curve = ctx.curve
    w4 = 4.0 * abs(curve.varpi3)
    y = (x - sp.x0) / w4 - sp.background_shift_A
    ld_bg = (theta3(y, curve.tau, 1) / theta3(y, curve.tau)) / w4
    g = g_matrix(ctx, x, t)
    betas = np.array([e.beta for e in sp.entries])
    stars = np.array([e.beta_star for e in sp.entries])
    p_abs = np.array([e.p_abs for e in sp.entries])
    args = betas[:, None] - stars[None, :] + y
    ld_num = (theta3(args, curve.tau, 1) / theta3(args, curve.tau)) / w4
    rates = ld_num - ld_bg - 0.5 * (p_abs[:, None] + p_abs[None, :])
    val = np.trace(np.linalg.solve(np.eye(n) + g, g * rates))
    if abs(val.imag) > _REALITY_TOL * (1.0 + abs(val)):
        raise NonRealTau(f"analytic log-derivative {val} not real")
    return float(val.real)


def _stencil_tensor(ctx: TauContext, xs: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """The D2 stencil around xs, as its step and grid, and the A tensor on that grid."""
    h = fd.d2_step(ctx.curve.period_x)
    grid = fd.d2_grid(xs, h)
    return h, grid, _a_tensor(ctx.spectrum, _background_phase(ctx, grid))


def _u_row(ctx: TauContext, ubg: np.ndarray, h: float, grid: np.ndarray,
           a: np.ndarray, t: float) -> np.ndarray:
    """u at time t from _stencil_tensor's stencil, ubg the cnoidal part at its centres."""
    ld = _logdet_one_plus_g(ctx, grid, t, a=a).reshape(ubg.size, fd.D2_OFFSETS.size)
    return ubg + 2.0 * fd.second_derivative(ld, h)


def _eval_rows(ctx: TauContext, xs, ts):
    """Yield (u, tau, det(1+G)) per t, as u_grid and tau_grid give them, from one A tensor.

    tau and det(1+G) read the stencil tensor's offset-0 slice, and theta3 of
    the background phase at xs is evaluated once for all t.  The slice holds
    tau_grid's bits while each adaptive theta series stops at the same term
    on the stencil grid as on xs alone; the grid's larger term peaks could
    only delay that by a term.
    """
    xs = np.asarray(xs, dtype=float)
    n = len(ctx.spectrum)
    ubg = u_background(ctx, xs)
    th = theta3(_background_phase(ctx, xs), ctx.curve.tau)
    if n == 0:
        det = np.ones(xs.size)
        for _ in ts:
            yield ubg, _tau_values(ctx, xs, det, th), det
        return
    h, grid, a = _stencil_tensor(ctx, xs)
    centre = a.reshape(xs.size, fd.D2_OFFSETS.size, n, n)[:, fd.D2_CENTRE]
    for t in map(float, ts):
        u = _u_row(ctx, ubg, h, grid, a, t)
        det = _det_one_plus_g(ctx, xs, t, centre)
        yield u, _tau_values(ctx, xs, det, th), det


def u_field(ctx: TauContext, xs, ts) -> np.ndarray:
    """u sampled on a (t, x) grid; shape (nt, nx)."""
    xs = np.asarray(xs, dtype=float)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    out = np.empty((ts.size, xs.size))
    ubg = u_background(ctx, xs)
    if len(ctx.spectrum) == 0:
        out[:] = ubg[None, :]
        return out
    h, grid, a = _stencil_tensor(ctx, xs)
    for i, t in enumerate(ts):
        out[i] = _u_row(ctx, ubg, h, grid, a, float(t))
    return out


def u_grid(ctx: TauContext, xs, t: float) -> np.ndarray:
    """u(x, t) on an array of x values at fixed t: the row of u_field at t."""
    return u_field(ctx, xs, t)[0]


def kdv_residual(ctx: TauContext, x_span: tuple[float, float], nx: int,
                 t_span: tuple[float, float], nt: int) -> float:
    """max |u_t + u_xxx + 6 u u_x| over the interior of the sampled grid.

    All derivatives by the shared 4th-order stencils on the u field; the
    grid is extended by ghost layers so the requested span is fully interior.
    """
    if nx < 2 or nt < 2:
        raise GridTooCoarse("need at least 2 points per direction")
    dx = (x_span[1] - x_span[0]) / (nx - 1)
    dt = (t_span[1] - t_span[0]) / (nt - 1)
    if dx == 0.0 or dt == 0.0:
        raise GridTooCoarse(f"zero-span grid: dx = {dx}, dt = {dt}")
    if dx > ctx.curve.period_x / 9.0:
        raise GridTooCoarse(f"dx = {dx} under-resolves the cnoidal period")
    xs = x_span[0] + dx * np.arange(-3, nx + 3)
    ts = t_span[0] + dt * np.arange(-2, nt + 2)
    u = u_field(ctx, xs, ts)
    u_t = fd.first_derivative_axis(u, dt, axis=0)          # (nt, nx+6)
    u_x = fd.first_derivative_axis(u, dx, axis=1)[2:-2]    # (nt, nx+2)
    u_xxx = fd.third_derivative_axis(u, dx, axis=1)[2:-2]  # (nt, nx)
    mid = u[2:-2, 3:-3]
    resid = u_t[:, 3:-3] + u_xxx + 6.0 * mid * u_x[:, 1:-1]
    return float(np.max(np.abs(resid)))
