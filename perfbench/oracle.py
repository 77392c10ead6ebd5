"""High-precision reference for u = 2 (ln tau)_xx of the N-soliton tau function.

Written from the formulas alone (mpmath, no import of the package): the same
tau = exp(-C x^2) det(1 + G) theta3(y - A) that the package evaluates in
double precision, with mpmath's theta functions at the working precision and the
determinant taken by Gaussian elimination at that precision.  The second
x-derivative is a 5-point stencil with a step small enough that its
truncation error sits far below the check tolerance.  `reference_u` raises
the precision until two successive precisions agree.
"""

from __future__ import annotations

import mpmath as mp

_STENCIL = ((-2, -1), (-1, 16), (0, -30), (1, 16), (2, -1))   # weights / 12


class MpCurve:
    """Half periods, nome and theta functions of the curve at the current precision."""

    def __init__(self, e1: float, e2: float, e3: float):
        e1, e2, e3 = mp.mpf(e1), mp.mpf(e2), mp.mpf(e3)
        self.e1, self.e2, self.e3 = e1, e2, e3
        m = (e2 - e3) / (e1 - e3)
        root = mp.sqrt(e1 - e3)
        self.varpi1 = mp.ellipk(m) / root
        self.varpi3 = mp.mpc(0, -1) * mp.ellipk(1 - m) / root
        self.tau = self.varpi1 / self.varpi3
        self.q = mp.exp(-mp.pi * self.tau.imag)       # real: tau is purely imaginary
        self.zeta3 = -self.theta(1, 0, 3) / (12 * self.varpi3 * self.theta(1, 0, 1))
        self.quad_c = (self.zeta3 / (8 * self.varpi3)).real
        self.w3_abs = abs(self.varpi3)

    def theta(self, kind: int, beta, order: int = 0):
        """order-th beta-derivative of theta1 or theta3 at beta (mpmath's
        jtheta at z = pi beta, the convention of the package)."""
        return mp.jtheta(kind, mp.pi * beta, self.q, derivative=order) * mp.pi ** order

    def log_theta1_derivs(self, beta):
        t0, t1, t2, t3 = (self.theta(1, beta, k) for k in range(4))
        d1 = t1 / t0
        d2 = t2 / t0 - d1 * d1
        d3 = t3 / t0 - 3 * (t2 / t0) * d1 + 2 * d1 ** 3
        return d1, d2, d3

    def wp(self, beta):
        """wp(2 varpi3 beta)."""
        _, d2, _ = self.log_theta1_derivs(beta)
        return -(d2 + 4 * self.varpi3 * self.zeta3) / (4 * self.varpi3 ** 2)


def _invert_wp(cv: dict, b: float):
    """(beta, chi) with wp(2 varpi3 beta) = b: bisection at low precision,
    then a secant polish at the working precision."""
    def solve(curve, lo, hi, steps):
        b_mp = mp.mpf(b)
        if b_mp < curve.e3:
            chi, shift, sign = 0, 0, 1
        elif curve.e2 < b_mp < curve.e1:
            chi, shift, sign = 1, curve.tau / 2, -1
        else:
            raise ValueError(f"b = {b} lies in a band")

        def f(r):
            return sign * (curve.wp(r + shift).real - b_mp)

        if steps:
            if not f(lo) < 0 < f(hi):
                raise ValueError(f"cannot bracket b = {b}")
            for _ in range(steps):
                mid = (lo + hi) / 2
                if f(mid) < 0:
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2, chi, shift
        return mp.findroot(f, (lo, hi), solver="secant"), chi, shift

    with mp.workdps(20):
        r0, _, _ = solve(_curve(cv), mp.mpf("1e-6"), mp.mpf(0.5) - mp.mpf("1e-6"), 50)
    curve = _curve(cv)
    r, chi, shift = solve(curve, mp.mpf(r0), mp.mpf(r0) * (1 + mp.mpf("1e-12")), 0)
    return r + shift, chi


_CURVES = {}


def _curve(cv: dict) -> MpCurve:
    key = (cv["e1"], cv["e2"], cv["e3"], mp.mp.dps)
    if key not in _CURVES:
        _CURVES[key] = MpCurve(*key[:3])
    return _CURVES[key]


class MpSpectrum:
    """Soliton data (beta, beta*, |P|, Im E, C, x-shift) at the working precision."""

    def __init__(self, cfg: dict):
        self.curve = c = _curve(cfg["curve"])
        self.x0 = mp.mpf(cfg.get("x0", 0.0))
        betas, chis, self.x_shift = [], [], []
        for sol in cfg.get("solitons", []):
            if "b" in sol:
                beta, chi = _invert_wp(cfg["curve"], sol["b"])
            else:
                chi = 1 if sol.get("kind", "hot") == "cool" else 0
                beta = mp.mpf(sol["beta"]) + chi * c.tau / 2
            betas.append(mp.mpc(beta))
            chis.append(chi)
            self.x_shift.append(mp.mpf(sol.get("x_shift", 0.0)))
        self.betas = betas
        self.stars = [1 - b + ch * c.tau for b, ch in zip(betas, chis)]
        self.shift_a = sum(2 * b.real - 1 for b in betas) / 2
        n = len(betas)
        self.p_abs, self.e_imag = [], []
        for beta, chi in zip(betas, chis):
            d1, _, d3 = c.log_theta1_derivs(beta)
            p = d1 / (2 * c.varpi3) + chi * 1j * mp.pi / (2 * c.varpi3)
            wpp = -d3 / (8 * c.varpi3 ** 3)
            self.p_abs.append(p.imag)
            self.e_imag.append((-wpp / 2).imag)

        def theta1(z):
            return c.theta(1, z)

        c_norm = []
        for l in range(n):
            val = abs(theta1(betas[l] - self.stars[l]))
            for k in range(n):
                if k != l:
                    val *= abs(theta1(betas[k] - self.stars[l]) / theta1(betas[k] - betas[l]))
            c_norm.append(val)
        # G_lm = pref_lm theta3(y + beta_l - beta*_m) / theta3(y - A) e_l e_m
        self.pref = [[mp.sqrt(c_norm[l] * c_norm[m]) / theta1(self.stars[m] - betas[l])
                      for m in range(n)] for l in range(n)]
        self.shift = [[betas[l] - self.stars[m] for m in range(n)] for l in range(n)]

    def log_tau(self, x, t):
        """ln tau(x, t) with tau = exp(-C x^2) det(1 + G) theta3(y - A)."""
        c = self.curve
        n = len(self.betas)
        y = (x - self.x0) / (4 * c.w3_abs) - self.shift_a
        th_bg = c.theta(3, y)
        e = [mp.exp(-((x - self.x_shift[j]) * self.p_abs[j] + t * self.e_imag[j]) / 2)
             for j in range(n)]
        mat = [[(1 if l == m else 0) + self.pref[l][m] * c.theta(3, y + self.shift[l][m])
                * e[l] * e[m] / th_bg for m in range(n)] for l in range(n)]
        det = _det(mat)
        if det.real <= 0:       # tau > 0 on real (x, t): the precision is too low
            return mp.nan
        return -c.quad_c * x * x + mp.log(det.real) + mp.log(th_bg.real)


def _det(mat):
    """Determinant by Gaussian elimination with partial pivoting."""
    a = [row[:] for row in mat]
    n = len(a)
    det = mp.mpc(1)
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(a[i][k]))
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        piv = a[k][k]
        det *= piv
        for i in range(k + 1, n):
            f = a[i][k] / piv
            if f != 0:
                for j in range(k + 1, n):
                    a[i][j] -= f * a[k][j]
    return det


def u_values(cfg: dict, points, dps: int = 60) -> list[float]:
    """u(x, t) at each (x, t) in points, at dps decimal digits."""
    with mp.workdps(dps):
        sp = MpSpectrum(cfg)
        h = mp.mpf("1e-8")
        out = []
        for x, t in points:
            x, t = mp.mpf(x), mp.mpf(t)
            acc = mp.mpf(0)
            for k, w in _STENCIL:
                acc += w * sp.log_tau(x + k * h, t)
            out.append(float(2 * acc / (12 * h * h)))
        return out


def reference_u(cfg: dict, points, dps: int = 50, step: int = 30,
                rel_tol: float = 1e-11, max_dps: int = 400) -> list[float]:
    """u_values at rising precision until two successive precisions agree."""
    prev = u_values(cfg, points, dps)
    while dps < max_dps:
        dps += step
        cur = u_values(cfg, points, dps)
        if all(abs(a - b) <= rel_tol * max(1.0, abs(b)) for a, b in zip(prev, cur)):
            return cur
        prev = cur
    raise ArithmeticError(f"oracle did not settle below {max_dps} digits")


def background_u(cfg: dict, xs):
    """Double-precision cnoidal background 2 d^2/dx^2 ln theta3(y - A) - 4 C on xs.

    Used only to locate the x of largest |u - u_background|, never as a
    reference value.
    """
    import numpy as np

    with mp.workdps(20):
        c = _curve(cfg["curve"])
        shift_a = 0.0
        for sol in cfg.get("solitons", []):
            if "b" in sol:
                beta = _invert_wp(cfg["curve"], sol["b"])[0]
            else:
                beta = mp.mpf(sol["beta"])
            shift_a += float(2 * mp.re(beta) - 1) / 2
        tau_im, w3, quad_c = float(c.tau.imag), float(c.w3_abs), float(c.quad_c)
    z = (np.asarray(xs, dtype=float) - float(cfg.get("x0", 0.0))) / (4.0 * w3) - shift_a
    ns = np.arange(-12, 13)
    terms = np.exp(-np.pi * tau_im * ns[:, None] ** 2 + 2j * np.pi * ns[:, None] * z[None, :])
    w = 2j * np.pi * ns[:, None]
    t0, t1, t2 = (np.sum(w ** k * terms, axis=0) for k in range(3))
    return (t2 / t0 - (t1 / t0) ** 2).real / (8.0 * w3 * w3) - 4.0 * quad_c
