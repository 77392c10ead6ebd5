"""Independent oracles for the test suite.

Everything here is deliberately written from first principles (lattice sums,
adaptive quadrature, mpmath theta series) and stays independent of the code
paths it checks.
"""

import mpmath
import numpy as np
from scipy.integrate import quad


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


def finite_gap_theta_loop(spec, phi, x, t: float, radius: int) -> np.ndarray:
    """Theta(X(x, t) - Omega u/2) at the points x for one draw phi and one t.

    The box sum with one exponent per lattice term and point, as in its
    definition: exp(i pi nu.Omega.nu + 2 pi i nu.(X(x, t) - Omega u/2)).
    """
    from cnoidal_kdv.riemann import _lattice, degenerate_period_matrix

    sp = spec.spectrum
    n = len(sp)
    pm = degenerate_period_matrix(spec)
    shift = 0.5 * pm.omega @ np.concatenate([1.0 - np.asarray(phi, dtype=float), [0.0]])
    nu = _lattice(n + 1, radius)
    quad = 1j * np.pi * np.einsum("ij,jk,ik->i", nu, pm.omega, nu)
    x = np.asarray(x, dtype=float)
    p = np.array([e.P for e in sp.entries])
    en = np.array([e.E for e in sp.entries])
    xsh = np.array([e.x_shift for e in sp.entries])
    big_x = np.empty((n + 1, x.size), dtype=complex)
    big_x[:n] = ((x[None, :] - xsh[:, None]) * p[:, None] + t * en[:, None]) / (2.0 * np.pi)
    big_x[n] = (x - sp.x0) / (4.0 * abs(sp.curve.varpi3))
    return np.sum(np.exp(quad[:, None] + 2j * np.pi * (nu @ (big_x - shift[:, None]))), axis=0)


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
