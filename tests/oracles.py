"""Independent oracles for the test suite.

Everything here is deliberately written from first principles (lattice sums,
adaptive quadrature, mpmath theta series) and stays independent of the code
paths it checks.
"""

import itertools
import json
from pathlib import Path

import mpmath
import numpy as np
from scipy.integrate import quad

ROOT = Path(__file__).resolve().parents[1]


def lattice_zeta(s: complex, varpi1: float, varpi3: complex, m_max: int = 2000) -> complex:
    """Weierstrass zeta by its defining double sum, paired symmetrically.

    Terms over +-L are combined to 2 s^3 / ((s^2 - L^2) L^2), which decays
    like |L|^-4; the remaining tail over the outside of the box is estimated
    by its integral approximation and added, leaving an error well below
    1e-8 for m_max >= 2000 on curves of unit scale.
    """
    s = complex(s)
    total = 1.0 / s
    w1, w3 = 2.0 * varpi1, 2.0 * varpi3
    # half lattice: m > 0, or (m == 0 and n > 0)
    chunks = []
    for m in range(0, m_max + 1):
        ns = np.arange(-m_max, m_max + 1) if m > 0 else np.arange(1, m_max + 1)
        chunks.append(m * w3 + ns * w1)
    for lat in chunks:
        total += np.sum(2.0 * s ** 3 / ((s * s - lat * lat) * lat * lat))
    # integral estimate of the remaining |L|^-4 tail (half lattice)
    density = 1.0 / abs(w1 * w3.imag)
    r_eff = min(abs(w1), abs(w3)) * m_max
    total += 2.0 * s ** 3 * (np.pi * density) / (2.0 * r_eff ** 2) / 2.0
    return complex(total)


def quad_half_periods(e1: float, e2: float, e3: float) -> tuple[float, float]:
    """(varpi1, |varpi3|) by adaptive quadrature after a sin^2 substitution."""

    def band(theta):
        z = e3 + (e2 - e3) * np.sin(theta) ** 2
        return 1.0 / np.sqrt(e1 - z)

    def gap(theta):
        z = e2 + (e1 - e2) * np.sin(theta) ** 2
        return 1.0 / np.sqrt(z - e3)

    w1, _ = quad(band, 0.0, np.pi / 2.0, epsabs=1e-13, epsrel=1e-13)
    w3, _ = quad(gap, 0.0, np.pi / 2.0, epsabs=1e-13, epsrel=1e-13)
    return w1, w3


def mp_theta(kind: int, order: int, beta: complex, tau: complex) -> complex:
    """Reference theta values via mpmath (DLMF convention at z = pi beta)."""
    q = mpmath.exp(1j * mpmath.pi * tau)
    val = mpmath.jtheta(kind, mpmath.pi * complex(beta), q, derivative=order)
    return complex(val) * np.pi ** order


def zeta_form_momentum(beta, chi, curve) -> complex:
    """Quasi-momentum in its zeta form, from one weierstrass call:

    P = zeta(2 varpi3 beta) - 2 zeta(varpi3) beta + chi i pi/(2 varpi3).
    """
    from cnoidal_kdv.elliptic import weierstrass, zeta_half_period

    zw = weierstrass(2.0 * curve.varpi3 * beta, curve)[2]
    return zw - 2.0 * zeta_half_period(curve) * beta + chi * 1j * np.pi / (2.0 * curve.varpi3)


def mp_group_velocity(e1: float, e2: float, e3: float, r: float, chi: int, dps: int = 40) -> float:
    """V = wp'(2 varpi3 beta) / (2 P) at beta = r + chi tau/2, by mpmath at dps digits.

    The half periods come from mpmath's K, the theta1 log-derivatives from
    mpmath's jtheta, all at the exact beta of the curve (e1, e2, e3).
    """
    with mpmath.workdps(dps):
        e1, e2, e3 = (mpmath.mpf(e) for e in (e1, e2, e3))
        m, root = (e2 - e3) / (e1 - e3), mpmath.sqrt(e1 - e3)
        w3 = -1j * mpmath.ellipk(1 - m) / root
        tau = mpmath.ellipk(m) / root / w3
        beta = mpmath.mpf(r) + chi * tau / 2
        q = mpmath.exp(1j * mpmath.pi * tau)
        t0, t1, t2, t3 = (mpmath.jtheta(1, mpmath.pi * beta, q, derivative=k) * mpmath.pi ** k
                          for k in range(4))
        d1 = t1 / t0
        d3 = t3 / t0 - 3 * t2 * t1 / t0 ** 2 + 2 * d1 ** 3
        p = (d1 + chi * 1j * mpmath.pi) / (2 * w3)
        return float(mpmath.re(-d3 / (8 * w3 ** 3) / (2 * p)))


def single_soliton_two_term(curve, mu: float, p_abs: float, e_imag: float,
                            shift_a: float, x: float, t: float,
                            x0: float = 0.0, x1: float = 0.0) -> complex:
    """Two-addenda form of the single-soliton tau over theta3(y - A).

    Implements  theta3(y - mu/2) + exp(-|P|(x - x1 - V t)) theta3(y + mu/2),
    normalized by theta3(y - A); an independent route to 1 + G_11.
    """
    from cnoidal_kdv.elliptic import theta3

    y = (x - x0) / (4.0 * abs(curve.varpi3))
    lam = np.exp(-p_abs * (x - x1) - e_imag * t)
    num = theta3(y - mu / 2.0, curve.tau) + lam * theta3(y + mu / 2.0, curve.tau)
    return num / theta3(y - shift_a, curve.tau)


def hotcool_offdiagonal(beta_hot: complex, beta_cool: complex, curve) -> complex:
    """Hot-cool period-matrix entry per its own display (independent of mu form):

    (1/(i pi)) ln| theta1(beta_j - beta_l) / theta1(beta_j + beta_l - tau) |.
    """
    from cnoidal_kdv.elliptic import theta1

    ratio = abs(theta1(beta_hot - beta_cool, curve.tau)
                / theta1(beta_hot + beta_cool - curve.tau, curve.tau))
    return np.log(ratio) / (1j * np.pi)


def fd_derivative(fn, x0: complex, order: int, h: float = 1e-4) -> complex:
    """Central finite-difference derivative of a callable, for theta checks."""
    if order == 1:
        return (fn(x0 + h) - fn(x0 - h)) / (2.0 * h)
    if order == 2:
        return (fn(x0 + h) - 2.0 * fn(x0) + fn(x0 - h)) / (h * h)
    if order == 3:
        return (fn(x0 + 2 * h) - 2.0 * fn(x0 + h) + 2.0 * fn(x0 - h)
                - fn(x0 - 2 * h)) / (2.0 * h ** 3)
    raise ValueError(order)


def theta_eval(kind: int, order: int, beta, curve):
    """Order-th beta-derivative of theta1 (kind 1) or theta3 (kind 3) on the curve."""
    from cnoidal_kdv.elliptic import theta1, theta3

    return (theta1 if kind == 1 else theta3)(beta, curve.tau, order)


def legendre_combination(curve) -> complex:
    """zeta(varpi1) varpi3 - zeta(varpi3) varpi1; its modulus must be pi/2.

    zeta(varpi1) comes from the theta representation at beta = tau/2.
    """
    from cnoidal_kdv.elliptic import log_theta1_derivatives, zeta_half_period

    w3, z3 = curve.varpi3, zeta_half_period(curve)
    d1, _, _ = log_theta1_derivatives(curve.tau / 2.0, curve.tau)
    zeta_varpi1 = (d1 + 4.0 * w3 * z3 * (curve.tau / 2.0)) / (2.0 * w3)
    return zeta_varpi1 * w3 - z3 * curve.varpi1


def hat_log_integrals_loop(nodes: np.ndarray, x0: float) -> np.ndarray:
    """Integrals of ln|x0 - r| against the hat functions, one node at a time."""

    def f1(u):
        return np.where(u == 0.0, 0.0, u * (np.log(np.abs(u) + (u == 0.0)) - 1.0))

    def f2(u):
        return np.where(u == 0.0, 0.0, 0.5 * u * u * np.log(np.abs(u) + (u == 0.0)) - 0.25 * u * u)

    n = nodes.size
    h = nodes[1] - nodes[0]
    out = np.zeros(n)

    def rising(a, b):
        # integral over [a, b] of (r - a)/h * ln|r - x0|
        ua, ub = a - x0, b - x0
        return ((f2(ub) - f2(ua)) + (x0 - a) * (f1(ub) - f1(ua))) / h

    def falling(a, b):
        # integral over [a, b] of (b - r)/h * ln|r - x0|
        ua, ub = a - x0, b - x0
        return ((b - x0) * (f1(ub) - f1(ua)) - (f2(ub) - f2(ua))) / h

    for j in range(n):
        if j > 0:
            out[j] += rising(nodes[j - 1], nodes[j])
        if j < n - 1:
            out[j] += falling(nodes[j], nodes[j + 1])
    return out


def kernel_row_loop(model, eta) -> np.ndarray:
    """Nystrom row of the gas kernel at eta, assembled block by block.

    Same-segment blocks split the kernel into ln|r_eta - r| (integrated
    exactly against the hats) plus a smooth remainder (trapezoid weights).
    """
    from cnoidal_kdv.elliptic import theta1

    tau_mod = model.curve.tau
    betas = model.betas
    stars = 1.0 - betas + model.nodes_chi * tau_mod
    row = np.zeros(model.nodes_r.size)
    th1p0 = float(theta1(0.0, tau_mod, 1).real)
    per = model.n_per_interval
    for bi, iv in enumerate(model.intervals):
        cols = slice(bi * per, (bi + 1) * per)
        r_col = model.nodes_r[cols]
        w_col = model.weights[cols]
        diff = eta.beta - betas[cols]
        denom = np.abs(theta1(eta.beta - stars[cols], tau_mod))
        if eta.chi == iv.chi:
            x0 = eta.beta.real
            sep = x0 - r_col
            tiny = np.abs(sep) < 1e-13
            ratio = np.where(tiny, th1p0,
                             np.abs(theta1(diff, tau_mod)) / np.abs(sep + tiny))
            smooth = np.log(ratio) - np.log(denom)
            row[cols] = w_col * smooth + hat_log_integrals_loop(r_col, x0)
        else:
            row[cols] = w_col * (np.log(np.abs(theta1(diff, tau_mod))) - np.log(denom))
    return row


def finite_gap_theta_loop(spec, phi, x, t: float, radius: int, order: int = 0) -> np.ndarray:
    """d^order/dx^order Theta(X(x, t) - Omega u/2) at the points x for one draw phi and one t.

    The box sum with one exponent per lattice term and point, as in its
    definition: exp(i pi nu.Omega.nu + 2 pi i nu.(X(x, t) - Omega u/2)),
    each term weighted by w^order, w = 2 pi i nu.dX/dx.
    """
    from cnoidal_kdv.riemann import _lattice, degenerate_period_matrix

    sp = spec.spectrum
    n = len(sp)
    pm = degenerate_period_matrix(spec)
    shift = 0.5 * pm.omega @ np.concatenate([1.0 - np.asarray(phi, dtype=float), [0.0]])
    nu = _lattice(n + 1, radius)
    quad = 1j * np.pi * np.einsum("ij,jk,ik->i", nu, pm.omega, nu)
    x = np.asarray(x, dtype=float)
    p, en, xsh = 1j * sp.p, 0.0 + 1j * sp.energy, sp.x_shift
    big_x = np.empty((n + 1, x.size), dtype=complex)
    big_x[:n] = ((x[None, :] - xsh[:, None]) * p[:, None] + t * en[:, None]) / (2.0 * np.pi)
    big_x[n] = (x - sp.x0) / (4.0 * abs(sp.curve.varpi3))
    rate = 2j * np.pi * (nu @ np.append(p / (2.0 * np.pi), 1.0 / (4.0 * abs(sp.curve.varpi3))))
    terms = np.exp(quad[:, None] + 2j * np.pi * (nu @ (big_x - shift[:, None])))
    return np.sum(rate[:, None] ** order * terms, axis=0)


def x_blocks_every_block(xs: np.ndarray, reach: float) -> list[np.ndarray]:
    """Index sets of xs, each spanning at most 2 reach, by a scan of every block of the span."""
    lo, hi = float(xs.min()), float(xs.max())
    count = max(1, int(np.ceil((hi - lo) / (2.0 * reach))))
    if count == 1:
        return [np.arange(xs.size)]
    which = np.minimum(((xs - lo) * (count / (hi - lo))).astype(int), count - 1)
    return [idx for idx in (np.flatnonzero(which == b) for b in range(count)) if idx.size]


def finite_gap_u_mp(spec, phi, x: float, t: float, radius: int, dps: int = 40) -> float:
    """u = 2 d^2/dx^2 ln Theta at one point from the box sum in dps-digit arithmetic.

    Omega, X and the rates are formed in double precision, as the package
    forms them; Theta, Theta' and Theta'' are then summed term by term in
    mpmath, so only the package's rounding of the sum itself is tested.
    """
    from cnoidal_kdv.riemann import _lattice, degenerate_period_matrix

    sp = spec.spectrum
    n = len(sp)
    omega = degenerate_period_matrix(spec).omega
    shift = 0.5 * omega @ np.concatenate([1.0 - np.asarray(phi, dtype=float), [0.0]])
    p, en, xsh = 1j * sp.p, 0.0 + 1j * sp.energy, sp.x_shift
    w3 = 4.0 * abs(sp.curve.varpi3)
    big_x = np.append(((x - xsh) * p + t * en) / (2.0 * np.pi), (x - sp.x0) / w3) - shift
    slope = np.append(p / (2.0 * np.pi), 1.0 / w3)
    with mpmath.workdps(dps):
        two_pi_i = 2j * mpmath.pi
        sums = [mpmath.mpc(0)] * 3
        for nu in _lattice(n + 1, radius):
            quad = sum(nu[i] * nu[j] * mpmath.mpc(omega[i, j])
                       for i in range(n + 1) for j in range(n + 1))
            phase = sum(nu[j] * mpmath.mpc(big_x[j]) for j in range(n + 1))
            rate = two_pi_i * sum(nu[j] * mpmath.mpc(slope[j]) for j in range(n + 1))
            term = mpmath.exp(1j * mpmath.pi * quad + two_pi_i * phase)
            sums = [sums[0] + term, sums[1] + rate * term, sums[2] + rate * rate * term]
        th, th1, th2 = (mpmath.re(s) for s in sums)
        return float(2 * (th2 / th - (th1 / th) ** 2))


def finite_gap_solution_loop(spec, phi, xs, ts, radius: int) -> np.ndarray:
    """u_{N+1} = 2 d^2/dx^2 ln Theta for one draw, one t at a time: shape (nt, nx)."""
    from cnoidal_kdv import fd

    xs = np.asarray(xs, dtype=float)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    h = 1e-3 * spec.spectrum.curve.period_x
    x_st = (xs[:, None] + h * fd.D2_OFFSETS[None, :]).ravel()
    out = np.empty((ts.size, xs.size))
    for i, t in enumerate(ts):
        vals = finite_gap_theta_loop(spec, phi, x_st, t, radius)
        out[i] = 2.0 * fd.second_derivative(np.log(vals.real).reshape(xs.size, -1), h)
    return out


def fay_sides_loop(n: int, xs, xhats, e_point: complex, curve) -> tuple[complex, complex]:
    """(det side, product side) of the genus-1 Fay identity for one trial.

    One theta call per matrix or product, with theta3(E) a one-point call.
    """
    from cnoidal_kdv.elliptic import theta1, theta3

    xs = np.asarray(xs, dtype=complex)
    xhats = np.asarray(xhats, dtype=complex)
    th_e = theta3(e_point, curve.tau)
    cross = theta1(xs[:, None] - xhats[None, :], curve.tau)
    mat = theta3(xs[:, None] - xhats[None, :] + e_point, curve.tau) / (cross * th_e)
    rhs = theta3(np.sum(xs - xhats) + e_point, curve.tau) / th_e
    j, k = np.triu_indices(n, 1)
    rhs *= np.prod(theta1(xs[j] - xs[k], curve.tau) * theta1(xhats[k] - xhats[j], curve.tau))
    return complex(np.linalg.det(mat)), complex(rhs / np.prod(cross))


def track_phase_bisection(point, curve, norming: float, ts) -> np.ndarray:
    """Phi(t) of the equal-addenda condition by 60 bisection steps on all t at once.

    The series theta3 gives R(Phi, t); the bracket [-m, m] holds every value
    of R, with m from a 512-point scan of the theta3 log-ratio over a period.
    """
    from cnoidal_kdv.elliptic import _quasi_terms, theta3

    p, e, _ = _quasi_terms(point.beta, point.chi, curve)
    p_abs, v = p.imag, -e.imag / p.imag
    mu = point.mu()

    def log_ratio(w):
        return np.log((theta3(w - mu / 2.0, curve.tau) / theta3(w + mu / 2.0, curve.tau)).real)

    def rhs(phi, t):
        return (np.log(norming) - log_ratio((v * t + phi) / curve.period_x)) / p_abs

    ts = np.asarray(ts, dtype=float)
    ws = np.linspace(0.0, 1.0, 512, endpoint=False)
    m = (float(np.max(np.abs(log_ratio(ws)))) + abs(np.log(norming))) / p_abs + 1.0
    lo, hi = np.full(ts.shape, -m), np.full(ts.shape, m)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = mid - rhs(mid, ts) < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def norming_constants_loop(points, curve) -> np.ndarray:
    """C_l = |th1(b_l - b_l*)| prod_{k != l} |th1(b_k - b_l*) / th1(b_k - b_l)|, one scalar theta1 call per value."""
    from cnoidal_kdv.elliptic import theta1

    tau_mod = curve.tau
    betas = [p.beta for p in points]
    stars = [p.star(tau_mod) for p in points]
    out = np.empty(len(points))
    for l in range(len(points)):
        c = abs(theta1(betas[l] - stars[l], tau_mod))
        for k in range(len(points)):
            if k == l:
                continue
            c *= abs(theta1(betas[k] - stars[l], tau_mod) / theta1(betas[k] - betas[l], tau_mod))
        out[l] = c
    return out


def a_tensor_loop(spectrum, ybg) -> np.ndarray:
    """A_lm = th3(b_l - b_m* + ybg) / (th1(b_m* - b_l) th3(ybg)), one scalar theta1 call per denominator."""
    from cnoidal_kdv.elliptic import theta1, theta3

    tau_mod = spectrum.curve.tau
    n = len(spectrum)
    th_bg = theta3(ybg, tau_mod)
    a = np.empty((ybg.size, n, n), dtype=complex)
    for l in range(n):
        for m in range(n):
            num = theta3(spectrum.beta[l] - spectrum.beta_star[m] + ybg, tau_mod)
            den = theta1(spectrum.beta_star[m] - spectrum.beta[l], tau_mod)
            a[:, l, m] = num / (den * th_bg)
    return a


def render_rows(command: str, cfg: dict, columns: list, rows: list, footer: dict,
                fmt: str) -> str:
    """cli.Report's CSV or JSON text for cells handed over row by row.

    Each run of rows whose cells have the same types is one % of a format
    with a "%.17g" slot per float cell (numpy float64 included) and a "%s"
    slot, filled through cli._fmt, per other cell.
    """
    from cnoidal_kdv import __version__
    from cnoidal_kdv.cli import _fmt

    if fmt == "json":
        doc = {"tool": "cnoidal-kdv", "version": __version__, "command": command,
               "config": cfg, "columns": columns,
               "rows": [[_fmt(v) for v in row] for row in rows],
               "footer": {k: _fmt(v) for k, v in footer.items()}}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = [f"# cnoidal-kdv {__version__} command={command}",
             f"# config: {json.dumps(cfg, sort_keys=True)}", ",".join(columns)]
    for types, run in itertools.groupby(rows, key=lambda row: tuple(map(type, row))):
        run = list(run)
        floats = [issubclass(t, float) for t in types]
        row_format = ",".join("%.17g" if f else "%s" for f in floats)
        cells = [v if isinstance(v, float) else _fmt(v) for row in run for v in row]
        lines.append("\n".join([row_format] * len(run)) % tuple(cells))
    lines += [f"# {k} = {_fmt(v)}" for k, v in footer.items()]
    return "\n".join(lines) + "\n"


def u_grid_stencil(ctx, xs, t: float) -> np.ndarray:
    """u = u_background + 2 (ln det(1 + G))_xx at one t, from its own stencil grid and A tensor."""
    from cnoidal_kdv import fd, tau

    xs = np.asarray(xs, dtype=float)
    u = tau.u_background(ctx, xs)
    if len(ctx.spectrum) == 0:
        return u
    h = 1e-3 * ctx.curve.period_x
    grid = (xs[:, None] + h * np.arange(-2, 3)[None, :]).ravel()
    ld = tau._logdet_one_plus_g(ctx, grid, t).reshape(xs.size, 5)
    return u + 2.0 * fd.second_derivative(ld, h)


def subset_block_cells(tables, rows, base, dx, right, work):
    """(L'', ln sum_S w_S) of tau._subset_block, cell by cell with a per-subset centred variance.

    theta3, theta3' and theta3'' of every subset at every point come from one
    product of the rows' coefficients (tables.left's columns) with right (laid
    out as in tau._subset_sums), f_S = ln w_S, and L'' = E[f''] + Var[f'] under the
    weights w_S / sum w, the variance summed in centred form where an error in
    the mean enters squared.  Each weighted sum is taken against e =
    exp(base_S - P_S dx - top): w = e theta3, w f' = e (theta3' - P_S theta3),
    w f'' = e (theta3'' - theta3'^2 / theta3).  work, tau._subset_block's
    buffers, is not used.
    """
    theta = tables.left[:, rows].T @ np.concatenate(list(right), axis=1)
    size = dx.size
    th0, th1, th2 = theta[:, :size], theta[:, size:2 * size], theta[:, 2 * size:]
    p_sum = tables.p_sum[rows]
    exponent = base[rows][:, None] - p_sum[:, None] * dx
    top = np.max(exponent, axis=0)
    e = np.exp(exponent - top)
    w = e * th0
    total = w.sum(axis=0)
    slope = th1 / th0
    dev = slope - p_sum[:, None]
    dev -= (np.einsum("sx,sx->x", e, th1) - p_sum @ w) / total
    moments = np.einsum("sx,sx->x", e, th2 - th1 * slope + th0 * dev * dev) / total
    return moments, top + np.log(total)


def invert_wp_bisection(b: float, curve):
    """Jacobian coordinate of a spectral point b by bisection, evaluating wp at every step.

    wp(2 varpi3 beta) increases from -inf to e3 along beta in (0, 1/2) and
    decreases from e1 to e2 along tau/2 + (0, 1/2); the segment is picked
    from the location of b, then bisection plus a Newton polish solves
    wp(2 varpi3 beta) = b.
    """
    from cnoidal_kdv.elliptic import _BRANCH_TOL, JacobianPoint, weierstrass, wp_on_segment
    from cnoidal_kdv.errors import SpectrumInGap, TooCloseToBranchPoint

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


def theta_sum_two_exp(half_index: bool, beta, tau: complex, order, rows: bool = False):
    """_theta_sum as it was before one exponential served both e^{+wz} and e^{-wz}.

    Every term takes both complex exponentials exp(w z) and exp(-w z) over
    the whole array; otherwise (orders, running maxima, rows, stopping rule,
    512-term cap, errors) the package's series is unchanged, so the two must
    agree bit for bit.  At a 0-d argument this is the numpy loop that summed
    one point before the package summed it on Python complex scalars.
    """
    from cnoidal_kdv.elliptic import MIN_IM_TAU
    from cnoidal_kdv.errors import ThetaConvergenceError

    if tau.imag < MIN_IM_TAU:
        raise ThetaConvergenceError(f"Im(tau) = {tau.imag} < {MIN_IM_TAU}")
    single = np.ndim(order) == 0
    orders = (order,) if single else tuple(order)
    b = np.asarray(beta, dtype=np.complex128)
    if b.size == 0:
        return b.copy() if single else tuple(b.copy() for _ in orders)
    z = b - 0.5 if half_index else b
    n_rows = b.shape[0] if rows else 1
    totals = [np.zeros_like(b) for _ in orders]
    running_max = []
    for k, total in zip(orders, totals):
        start = 1.0 if not half_index and k == 0 else 0.0
        if start:
            total += start
        running_max.append([start] * n_rows)
    quiet = [[0] * n_rows for _ in orders]
    live = [n_rows] * len(orders)       # rows of each order still taking terms
    m = 0.5 if half_index else 1.0
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


def eval_oracle_cases() -> list[tuple[str, dict, list]]:
    """(label, config, [[x, t, u_oracle], ...]) of every field_tau eval pool member and seed.

    The pool members and their recorded oracle samples come from the
    benchmark's reference file; eval_oracle.json adds the oracle values at the
    points that file does not record, and two hot seeds beyond the pool.
    """
    pool = json.loads((ROOT / "perfbench" / "reference" / "field_tau.json").read_text())
    extra = json.loads((Path(__file__).parent / "eval_oracle.json").read_text())
    cases = []
    for cls, members in pool["classes"].items():
        for j, member in enumerate(members):
            if member["command"] == "eval":
                label = f"{cls}-{j}"
                samples = member["samples"] + extra["unrecorded"].get(label, [])
                cases.append((label, member["cfg"], samples))
    cases += [(seed["label"], seed["cfg"], seed["samples"]) for seed in extra["seeds"]]
    return cases
