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

tau, det[1 + G] and the u of `eval` and u_grid are taken from that expansion
itself: every principal minor of G is a positive Frobenius product times
theta3(y - A + mu_S) / theta3(y - A), summed over the subsets S in logarithms,
per x block one exponential pass and one matrix product per run of points
that share a leading subset (see _subset_sums and _subset_block).  u_field
and kdv_residual still difference ln det[1 + G] on a stencil grid.  Every
routine takes the SolitonSpectrum; C = zeta(varpi3) / (8 varpi3) of the
factor exp(-C x^2) is its curve's quad_const.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import fd
from .elliptic import (
    CurveParams,
    JacobianPoint,
    _HALF_LOG_MAX,
    _certified_sum,
    _cnoidal_wave,
    _quasi_terms,
    _table_terms,
    _theta_grid,
    _theta_sum,
    invert_wp,
    theta3,
)
from .errors import (
    BackgroundThetaZero,
    DuplicateSpectralPoint,
    GridTooCoarse,
    NonRealTau,
    PhaseOverflow,
    TooManySolitons,
)

# G_ll carries exp(2 expo_l) and G_lm exp(expo_l + expo_m), so each phase
# exponent stays within ln(DBL_MAX)/2
_EXP_GUARD = _HALF_LOG_MAX
_REALITY_TOL = 1e-9

# the subset sum takes at most _SUBSET_CAP solitons (its 2^N x N mask table is
# 8 MB at 16) and at most _SUBSET_CELLS (x points) x (subsets) per x block, whose
# exponents (512 KB) fit a 2 MiB L2 cache: on an x86_64 host with 2 MiB of L2 per
# core, best of 6 and 9 interleaved passes, 2^16 took N = 12 evals 0.73-0.75x and
# N = 8 0.90-0.93x the time of 2^15, and 2^14 N = 12 1.42-1.54x and N = 8 1.10-1.15x
_SUBSET_CAP = 16
_SUBSET_CELLS = 2 ** 16

# subsets x blocks x t of the subset sums: of every subset, and those summed
_SUBSET_TERMS = {"all": 0, "summed": 0}


@dataclass(frozen=True, eq=False)
class SolitonSpectrum:
    """N solitons on the curve: one read-only length-N array per soliton quantity.

    b = wp(2 varpi3 beta), p = |P_j| and energy = Im E_j (P and E are purely
    imaginary), each point's from one elliptic._quasi_terms call, norming = C_j > 0,
    x_shift = x_j; points holds the JacobianPoints.
    """

    curve: CurveParams
    points: tuple[JacobianPoint, ...]
    beta: np.ndarray
    beta_star: np.ndarray
    b: np.ndarray
    p: np.ndarray
    energy: np.ndarray
    norming: np.ndarray
    x_shift: np.ndarray
    x0: float
    background_shift_A: float

    def __post_init__(self):
        # own read-only copies, also of what dataclasses.replace hands in
        for name in ("beta", "beta_star", "b", "p", "energy", "norming", "x_shift"):
            cells = np.array(getattr(self, name), dtype=complex if "beta" in name else float)
            cells.setflags(write=False)
            object.__setattr__(self, name, cells)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def velocity(self) -> np.ndarray:
        """V_j = -E_j / P_j."""
        return -self.energy / self.p

    @property
    def mu(self) -> np.ndarray:
        """beta - beta_star as the real numbers 2 Re(beta) - 1."""
        return 2.0 * self.beta.real - 1.0


def norming_constants(beta: np.ndarray, beta_star: np.ndarray, tau: complex) -> np.ndarray:
    """The positive norming constants C_l of the module docstring."""
    n = beta.size
    # theta1(beta_k - beta_l*) for all k, l and theta1(beta_k - beta_l) for k != l, one
    # series each in one pass; the products, in k order, run on Python complex scalars
    args = np.concatenate([np.subtract.outer(beta, beta_star).ravel(),
                           np.subtract.outer(beta, beta)[~np.eye(n, dtype=bool)]])
    vals = _theta_sum(True, args, tau, 0, rows=True).tolist()
    th_star = [vals[k * n:(k + 1) * n] for k in range(n)]
    off = iter(vals[n * n:])
    th_diff = [[None if k == l else next(off) for l in range(n)] for k in range(n)]
    return np.array([math.prod([abs(th_star[l][l]), *(abs(th_star[k][l] / th_diff[k][l])
                                                      for k in range(n) if k != l)])
                     for l in range(n)], dtype=float)


def spectrum_from_points(curve: CurveParams, points: list[tuple[JacobianPoint, float]],
                         x0: float = 0.0) -> SolitonSpectrum:
    """Assemble a SolitonSpectrum from Jacobian points with x-shifts."""
    jps = tuple(pt for pt, _ in points)
    beta = np.array([pt.beta for pt in jps], dtype=complex)
    chi = np.array([pt.chi for pt in jps], dtype=int)
    outside = ~((0.0 < beta.real) & (beta.real < 0.5))
    bad = outside | (np.abs(beta.imag - chi * (curve.tau.imag / 2.0)) > 1e-12)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"Re(beta) = {beta.real[i]} outside (0, 1/2)" if outside[i] else
                         f"Im(beta) = {beta.imag[i]} off the {jps[i].kind} segment")
    close = np.abs(np.subtract.outer(beta, beta)) < 1e-10
    close.flat[::beta.size + 1] = False
    if close.any():
        i, j = divmod(int(close.argmax()), beta.size)     # close is symmetric: i < j
        raise DuplicateSpectralPoint(f"beta_{i} and beta_{j} coincide")
    beta_star = np.array([pt.star(curve.tau) for pt in jps], dtype=complex)
    norming = norming_constants(beta, beta_star, curve.tau)
    cells = []
    for pt in jps:
        P, E, wp = _quasi_terms(pt.beta, pt.chi, curve)
        if abs(P.real) > 1e-12 * abs(P) or P.imag <= 0.0:
            raise NonRealTau(f"quasi-momentum {P} not in i*R_+")
        cells.append((wp.real, P.imag, E.imag))
    b, p, energy = np.reshape(cells, (-1, 3)).T
    return SolitonSpectrum(
        curve=curve, points=jps, beta=beta, beta_star=beta_star, b=b, p=p, energy=energy,
        norming=norming, x_shift=[xs for _, xs in points], x0=x0,
        background_shift_A=0.5 * sum(pt.mu() for pt in jps))


def build_spectrum(curve: CurveParams, points: list[tuple[float, float]],
                   x0: float = 0.0) -> SolitonSpectrum:
    """SolitonSpectrum from physical spectral points (b, x_shift)."""
    bs = np.array([b for b, _ in points], dtype=float)
    low, high = np.triu_indices(bs.size, 1)               # pairs i < j, row by row
    close = np.abs(bs[low] - bs[high]) < 1e-10 * np.maximum(1.0, np.abs(bs[low]))
    if np.any(close):
        first = int(np.argmax(close))
        raise DuplicateSpectralPoint(f"b_{low[first]} = b_{high[first]} = {points[low[first]][0]}")
    jac = [(invert_wp(b, curve), xs) for b, xs in points]
    return spectrum_from_points(curve, jac, x0=x0)


# ----------------------------------------------------------------------------
# G matrix and determinant evaluation
# ----------------------------------------------------------------------------

def _background_phase(spectrum: SolitonSpectrum, xs) -> np.ndarray:
    """Real theta argument y - A of the background at each x."""
    y = (np.asarray(xs, dtype=float) - spectrum.x0) / (4j * spectrum.curve.varpi3)
    return y.real - spectrum.background_shift_A


def _a_tensor(spectrum: SolitonSpectrum, ybg: np.ndarray) -> np.ndarray:
    """A_lm = th3(beta_l - beta_m* + ybg) / (th1(beta_m* - beta_l) th3(ybg)), ybg = y - A."""
    tau_mod = spectrum.curve.tau
    n = len(spectrum)
    th_bg = theta3(ybg, tau_mod)
    if np.min(np.abs(th_bg)) < 1e-13:
        raise BackgroundThetaZero("theta3 of the background phase vanished")
    # theta1(beta_m* - beta_l): one series per (l, m) in one pass
    den = _theta_sum(True, (spectrum.beta_star[None, :] - spectrum.beta[:, None]).ravel(),
                     tau_mod, 0, rows=True).reshape(n, n)
    # two solitons of the same kind often give bit-equal c_lm and c_ml, whose
    # numerators are then one theta3 pass
    c = np.subtract.outer(spectrum.beta, spectrum.beta_star)
    a = np.empty((ybg.size, n, n), dtype=complex)
    for l in range(n):
        for m in range(l, n):
            num = theta3(c[l, m] + ybg, tau_mod)
            a[:, l, m] = num / (den[l, m] * th_bg)
            if m == l:
                continue
            if c[m, l] != c[l, m]:
                num = theta3(c[m, l] + ybg, tau_mod)
            a[:, m, l] = num / (den[m, l] * th_bg)
    return a


def _phase_exponents(sp: SolitonSpectrum, xs: np.ndarray, t: float) -> np.ndarray:
    """Real exponents of exp(i pi psi_j) at each x: shape (nx, N)."""
    expo = -0.5 * (np.subtract.outer(np.asarray(xs, dtype=float), sp.x_shift) * sp.p
                   + t * sp.energy)
    if expo.size and not float(np.max(np.abs(expo))) <= _EXP_GUARD:
        raise PhaseOverflow("soliton phase exponent exceeds double-precision range")
    return expo


def g_matrix(spectrum: SolitonSpectrum, x: float, t: float) -> np.ndarray:
    """The N x N matrix G(x, t) of the Fredholm determinant."""
    return _g_stack(spectrum, np.array([x]), t)[0]


def g_matrix_from_phases(spectrum: SolitonSpectrum, psis, beta_phase: float) -> np.ndarray:
    """G with free phases: psi_j the soliton phases, beta_phase the carrier one.

    Used by the degeneration experiments, where the phases are not tied to
    (x, t).
    """
    a = _a_tensor(spectrum, np.array([beta_phase - spectrum.background_shift_A]))[0]
    psis = np.asarray(psis, dtype=complex)
    d = np.sqrt(spectrum.norming) * np.exp(1j * np.pi * psis)
    return a * d[:, None] * d[None, :]


def fredholm_factor(spectrum: SolitonSpectrum, psis, beta_phase: float) -> complex:
    """det(1 + G) * theta3(beta - A), the degeneration limit of the theta sum."""
    n = len(spectrum)
    th_bg = theta3(beta_phase - spectrum.background_shift_A, spectrum.curve.tau)
    if n == 0:
        return th_bg
    g = g_matrix_from_phases(spectrum, psis, beta_phase)
    return complex(np.linalg.det(np.eye(n) + g) * th_bg)


def _g_stack(spectrum: SolitonSpectrum, xs: np.ndarray, t: float,
             a: np.ndarray | None = None) -> np.ndarray:
    if a is None:
        a = _a_tensor(spectrum, _background_phase(spectrum, xs))
    expo = _phase_exponents(spectrum, xs, t)
    d = np.sqrt(spectrum.norming)[None, :] * np.exp(expo)
    g = np.multiply(a, d[:, :, None])
    g *= d[:, None, :]
    return g


def _det_one_plus_g(spectrum: SolitonSpectrum, xs: np.ndarray, t: float,
                    a: np.ndarray | None = None) -> np.ndarray:
    """det(1 + G) at each x, asserted real; returns a real array."""
    n = len(spectrum)
    xs = np.asarray(xs, dtype=float)
    if n == 0:
        return np.ones(xs.size)
    g = _g_stack(spectrum, xs, t, a)
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


def _logdet_one_plus_g(spectrum: SolitonSpectrum, xs: np.ndarray, t: float,
                       a: np.ndarray | None = None) -> np.ndarray:
    """ln det(1 + G); goes through slogdet for N > 2 so wide phase ranges
    cannot overflow the determinant value itself."""
    n = len(spectrum)
    xs = np.asarray(xs, dtype=float)
    if n <= 2:
        det = _det_one_plus_g(spectrum, xs, t, a)
        if np.min(det) <= 0.0:
            raise NonRealTau("det(1 + G) not positive on the evaluation grid")
        return np.log(det)
    g = _g_stack(spectrum, xs, t, a)
    g.reshape(xs.size, -1)[:, ::n + 1] += 1.0            # 1 + G, built in place
    sign, logabs = np.linalg.slogdet(g)
    if float(np.max(np.abs(sign - 1.0))) > _REALITY_TOL:
        raise NonRealTau("det(1 + G) not real positive on the evaluation grid")
    return logabs


# ----------------------------------------------------------------------------
# tau, det(1+G) and u as a sum over the subsets of the solitons
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class _SubsetTables:
    """The parts of the subset sum that depend on neither x nor t."""

    mask: np.ndarray       # (2^N, N) 0/1 rows: soliton l is in subset s if bit l of s is set
    log_k: np.ndarray      # (2^N,) ln K_S
    p_sum: np.ndarray      # (2^N,) sum of |P_l| over S, the x-slope of -ln w_S's phase part
    left: np.ndarray       # (2M + 1, 2^N) theta3 coefficients at mu_S, see _subset_tables
    index: np.ndarray      # (M,) the theta3 indices m >= 1
    rate: np.ndarray       # (M,) x-rate 2 pi m / (4 |varpi3|) of the theta3 terms
    log_theta: tuple       # ln min and ln max of theta3 on the real line


def _subset_tables(spectrum: SolitonSpectrum) -> _SubsetTables:
    """Frobenius's product for every principal minor of G, and theta3's rows at mu_S.

    det G_SS = K_S exp(2 sum_{l in S} expo_l) theta3(y - A + mu_S) / theta3(y - A)
    with mu_S = sum_{l in S} (beta_l - beta_l*) and

        K_S = prod_{l in S} C_l / theta1(beta_l* - beta_l)
              * prod_{l < m in S} theta1(beta_l - beta_m) theta1(beta_m* - beta_l*)
                / (theta1(beta_m* - beta_l) theta1(beta_l* - beta_m)),

    all theta1 values from one table grid.  Each factor is real on the hot and
    cool segments, and every K_S must be positive: a factor that is not real,
    or a K_S with an odd number of negative factors, raises NonRealTau.  The
    real argument z = y - A + mu_S makes theta3(z) = left @ [1, cos(2 pi m
    y'), -sin(2 pi m y')] with left = [1, 2 q^{m^2} cos(2 pi m mu_S),
    2 q^{m^2} sin(2 pi m mu_S)] and y' = y - A, over the indices m >= 1 of
    _table_terms.  N above _SUBSET_CAP raises TooManySolitons first.
    """
    n = len(spectrum)
    if n > _SUBSET_CAP:
        raise TooManySolitons(f"{n} solitons; the subset sum takes at most {_SUBSET_CAP}")
    curve = spectrum.curve
    mask = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(float)
    both = np.concatenate([spectrum.beta, spectrum.beta_star])
    th = _theta_grid(True, both, both, curve.tau)         # theta1(both_i - both_j)
    cross = th[n:, :n]                                    # theta1(beta_l* - beta_m)
    factor = th[:n, :n] * th[n:, n:].T / (cross.T * cross)
    np.fill_diagonal(factor, spectrum.norming / np.diag(cross))
    # ((mask @ M) * mask).sum(axis=1) sums M_lm over l, m in S; a lower
    # triangle of ones leaves the products over l <= m
    factor = np.where(np.triu(np.ones((n, n), dtype=bool)), factor, 1.0)
    if not np.all(np.abs(factor.imag) <= _REALITY_TOL * np.abs(factor)):
        raise NonRealTau("a factor of a principal minor of G is not real")
    negative = (factor.real < 0.0).astype(float)
    if np.any(((mask @ negative) * mask).sum(axis=1) % 2.0):
        raise NonRealTau("a principal minor of G is not positive")
    m = _table_terms(curve.tau, 0.0, 0.0)[1:]
    weight = 2.0 * np.exp(-np.pi * curve.tau.imag * m * m)
    angle = 2.0 * np.pi * np.multiply.outer(m, mask @ spectrum.mu)
    left = np.concatenate([np.ones((1, mask.shape[0])), weight[:, None] * np.cos(angle),
                           weight[:, None] * np.sin(angle)])
    signs = (-1.0) ** m
    return _SubsetTables(
        mask=mask,
        log_k=((mask @ np.log(np.abs(factor.real))) * mask).sum(axis=1),
        p_sum=mask @ spectrum.p,
        left=left,
        index=m,
        rate=2.0 * np.pi * m / (4.0 * abs(curve.varpi3)),
        log_theta=(float(np.log(1.0 + signs @ weight)), float(np.log(1.0 + weight.sum()))),
    )


def _subset_block(tables: _SubsetTables, rows: np.ndarray, base: np.ndarray,
                  dx: np.ndarray, right: np.ndarray, work: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(L'', L) over the subsets rows at the block's points, L = ln sum_S w_S.

    At a point, top is the largest exponent base_S - P_S dx, reached by D,
    e_S = exp(base_S - P_S dx - top) and pc = P_S - P_D.  Up to a factor
    exp(top - P_D dx), which adds a line to L, w_S = e_S theta3(y - A + mu_S)
    with derivatives e_S (theta3' - pc theta3), e_S (theta3'' - 2 pc theta3'
    + pc^2 theta3), all linear in the theta3 column left_S.  So with
    h_c = sum_S left_S pc^c e_S, one matrix product per run of points that
    share D (pc^c scales the thinner factor: left's columns or the run's
    points), S_0 = right[0] h_0, S_1 = right[1] h_0 - right[0] h_1,
    S_2 = right[2] h_0 - 2 right[1] h_1 + right[0] h_2, and
    L'' = S_2 / S_0 - (S_1 / S_0)^2, L = top + ln S_0.  Centring at each point's
    own D keeps that cancellation at the rounding of the leading terms (one
    centre per block moved u by 1.6e-12 max(1, |u|) on a hot N = 8 spectrum).
    Laid out as (points, subsets), every broadcast runs along the subsets;
    each array is written into work, _subset_sums's buffers, before it is read.
    """
    cells, scaled, rates, h, line = work
    n, k, width = dx.size, rows.size, tables.left.shape[0]
    factors, rates = scaled[:3 * width * k].reshape(3, width, k), rates[:4 * k].reshape(4, k)
    left = np.take(tables.left, rows, axis=1, out=factors[0], mode="clip")
    p_sum, pc = np.take(tables.p_sum, rows, out=rates[0], mode="clip"), rates[2:]
    np.take(base, rows, out=rates[1], mode="clip")
    line, h = line[:2 * n].reshape(2, n), h[:3 * width * n].reshape(3, width, n)
    line[0], line[1] = -dx, 1.0
    # base_S - P_S dx as one product, then e = exp(base_S - P_S dx - top)
    e = np.matmul(line.T, rates[:2], out=cells[:n * k].reshape(n, k))
    lead = np.argmax(e, axis=1)
    top = cells[np.arange(0, n * k, k) + lead]
    np.exp(np.subtract(e, top[:, None], out=e), out=e)
    for lo, hi in itertools.pairwise([0, *(np.flatnonzero(lead[1:] != lead[:-1]) + 1).tolist(), n]):
        np.subtract(p_sum, p_sum[lead[lo]], out=pc[0])
        np.multiply(pc[0], pc[0], out=pc[1])
        run = e[lo:hi]
        if hi - lo < width:
            part = scaled[width * k:(width + 2 * (hi - lo)) * k].reshape(2, hi - lo, k)
            np.matmul(left, run.T, out=h[0, :, lo:hi])
            np.matmul(left, np.multiply(run, pc[:, None], out=part).transpose(0, 2, 1),
                      out=h[1:, :, lo:hi])
        else:
            np.multiply(left, pc[:, None], out=factors[1:])
            np.matmul(factors.reshape(-1, k), run.T, out=h.reshape(-1, n)[:, lo:hi])
    (r0h0, r0h1, r0h2), (r1h0, r1h1, _), (r2h0, _, _) = np.einsum("kjx,cjx->kcx", right, h)
    slope = (r1h0 - r0h1) / r0h0
    return (r2h0 - 2.0 * r1h1 + r0h2) / r0h0 - slope * slope, top + np.log(r0h0)


def _subset_sums(sp: SolitonSpectrum, xs: np.ndarray, ts):
    """Yield (u, ln tau, ln det(1+G)) at xs for each t, from the positive subset sum.

    det(1 + G) theta3(y - A) = sum_S w_S over the 2^N subsets S (see
    _subset_tables), each w_S > 0, so ln tau = -C x^2 + L and
    u = -4 C + 2 L'' with L = ln sum_S w_S and L'' = E[f''] + Var[f'] under
    the weights w_S / sum w, f_S = ln w_S.  xs is cut into blocks of at most
    _SUBSET_CELLS / 2^N points.  On a block of centre x_c and half-width hw,
    ln w_S(x) lies within P_S hw of ln K_S + 2 sum_{l in S} expo_l(x_c) plus
    ln theta3 between its real-line extremes, and the largest lower bound is
    the block's certain peak.  elliptic._certified_sum prunes the subsets
    against that peak and the smallest L over the block's points (one
    draw-row); the dropped weight then moves u by at most 2^-58 (max |f''| +
    3 max f'^2) over the subsets.  A non-finite sum raises PhaseOverflow.
    """
    quad = sp.curve.quad_const          # NonRealTau before any theta work
    tables = _subset_tables(sp)
    count = tables.mask.shape[0]
    size, width = max(1, min(xs.size, _SUBSET_CELLS >> len(sp))), tables.left.shape[0]
    # _subset_block's e, left's columns and their multiples, P_S, base_S, pc, h and [-dx, 1]
    work = tuple(np.empty(cells) for cells in (size * count, 3 * width * count, 4 * count,
                                               3 * width * size, 2 * size))
    low, high = tables.log_theta
    phase = 2.0 * np.pi * np.multiply.outer(tables.index, _background_phase(sp, xs))
    cos, sin, rate, m = np.cos(phase), np.sin(phase), tables.rate[:, None], tables.index.size
    # right[k].T @ left_S is the k-th x-derivative of theta3(y - A + mu_S)
    right = np.zeros((3, 2 * m + 1, xs.size))
    right[0, 0] = 1.0
    right[:, 1:m + 1] = cos, -rate * sin, -rate * rate * cos
    right[:, m + 1:] = -sin, -rate * cos, rate * rate * sin
    # theta3(y - A) is the empty subset's term
    log_theta_bg = np.log(tables.left[:, 0] @ right[0])
    blocks = [slice(lo, lo + size) for lo in range(0, xs.size, size)]
    centres = [0.5 * (xs[block].min() + xs[block].max()) for block in blocks]
    dxs = [xs[block] - x_c for block, x_c in zip(blocks, centres)]
    for t in ts:
        # ln K_S + 2 sum_{l in S} expo_l(x) + P_S x
        x_free = tables.log_k + tables.mask @ (sp.x_shift * sp.p - t * sp.energy)
        u, log_sum = np.empty((2, xs.size))
        for block, x_c, dx in zip(blocks, centres, dxs):
            base = x_free - x_c * tables.p_sum
            spread = tables.p_sum * float(np.max(np.abs(dx)))
            u[block], log_sum[block] = _certified_sum(
                (base + spread + high)[None], np.max(base - spread) + low,
                lambda rows: _subset_block(tables, rows, base, dx, right[:, :, block], work),
                lambda sums: sums[1].min(), _SUBSET_TERMS)
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(log_sum))):
            raise PhaseOverflow("subset sum not finite in double precision")
        yield 2.0 * u - 4.0 * quad, log_sum - quad * xs * xs, log_sum - log_theta_bg


def tau_grid(spectrum: SolitonSpectrum, xs, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(tau, det(1+G)) on an array of x values at fixed t, from the subset sum.

    Both are real arrays, inf where a value exceeds DBL_MAX.
    """
    return next(_eval_rows(spectrum, xs, [t]))[1:]


def u_background(spectrum: SolitonSpectrum, xs) -> np.ndarray:
    """Cnoidal part 2 d^2/dx^2 ln theta3(y - A) - zeta(varpi3)/(2 varpi3)."""
    quad = spectrum.curve.quad_const    # NonRealTau before any theta work
    return _cnoidal_wave(_background_phase(spectrum, xs), spectrum.curve) - 4.0 * quad


def logdet_x_analytic(spectrum: SolitonSpectrum, x: float, t: float) -> float:
    """d/dx ln det(1 + G) as trace((1+G)^{-1} dG/dx), fully analytic.

    Cross-check mode for the finite-difference engine: dG/dx follows from
    the theta log-derivatives of the numerator and background arguments plus
    the linear phase rates.
    """
    n = len(spectrum)
    if n == 0:
        return 0.0
    curve = spectrum.curve
    w4 = 4.0 * abs(curve.varpi3)
    y = (x - spectrum.x0) / w4 - spectrum.background_shift_A
    ld_bg = (theta3(y, curve.tau, 1) / theta3(y, curve.tau)) / w4
    g = g_matrix(spectrum, x, t)
    args = spectrum.beta[:, None] - spectrum.beta_star[None, :] + y
    ld_num = (theta3(args, curve.tau, 1) / theta3(args, curve.tau)) / w4
    rates = ld_num - ld_bg - 0.5 * (spectrum.p[:, None] + spectrum.p[None, :])
    val = np.trace(np.linalg.solve(np.eye(n) + g, g * rates))
    if abs(val.imag) > _REALITY_TOL * (1.0 + abs(val)):
        raise NonRealTau(f"analytic log-derivative {val} not real")
    return float(val.real)


def _eval_rows(spectrum: SolitonSpectrum, xs, ts):
    """Yield (u, tau, det(1+G)) per t from the subset sum, tau and det(1+G) inf above DBL_MAX."""
    for u, log_tau, log_det in _subset_sums(spectrum, np.asarray(xs, dtype=float),
                                            [float(t) for t in ts]):
        with np.errstate(over="ignore"):
            cells = np.exp(log_tau), np.exp(log_det)
        yield u, *cells


def u_field(spectrum: SolitonSpectrum, xs, ts) -> np.ndarray:
    """u sampled on a (t, x) grid; shape (nt, nx), ln det(1 + G) differenced on the D2 stencil."""
    xs = np.asarray(xs, dtype=float)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    out = np.empty((ts.size, xs.size))
    ubg = u_background(spectrum, xs)
    if len(spectrum) == 0:
        out[:] = ubg[None, :]
        return out
    h = fd.d2_step(spectrum.curve.period_x)
    grid = fd.d2_grid(xs, h)
    a = _a_tensor(spectrum, _background_phase(spectrum, grid))
    for i, t in enumerate(ts):
        ld = _logdet_one_plus_g(spectrum, grid, float(t), a=a).reshape(xs.size, fd.D2_OFFSETS.size)
        out[i] = ubg + 2.0 * fd.second_derivative(ld, h)
    return out


def u_grid(spectrum: SolitonSpectrum, xs, t: float) -> np.ndarray:
    """u(x, t) on an array of x values at fixed t: eval's u row, from the subset sum."""
    return next(_subset_sums(spectrum, np.asarray(xs, dtype=float), [float(t)]))[0]


def kdv_residual(spectrum: SolitonSpectrum, x_span: tuple[float, float], nx: int,
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
    if dx > spectrum.curve.period_x / 9.0:
        raise GridTooCoarse(f"dx = {dx} under-resolves the cnoidal period")
    xs = x_span[0] + dx * np.arange(-3, nx + 3)
    ts = t_span[0] + dt * np.arange(-2, nt + 2)
    u = u_field(spectrum, xs, ts)
    u_t = fd.first_derivative_axis(u, dt, axis=0)          # (nt, nx+6)
    u_x = fd.first_derivative_axis(u, dx, axis=1)[2:-2]    # (nt, nx+2)
    u_xxx = fd.third_derivative_axis(u, dx, axis=1)[2:-2]  # (nt, nx)
    mid = u[2:-2, 3:-3]
    resid = u_t[:, 3:-3] + u_xxx + 6.0 * mid * u_x[:, 1:-1]
    return float(np.max(np.abs(resid)))
