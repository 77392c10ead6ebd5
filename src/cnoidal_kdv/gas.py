"""Nonlinear dispersion relations for the KdV soliton gas on the background.

The solitonic NDR pair couples the density of states u and flux v on a
spectral support Gamma in the Jacobian coordinate:

    int K(eta, beta) u(beta) dbeta + sigma(eta) u(eta) = -(i/2) P(eta)
    int K(eta, beta) v(beta) dbeta + sigma(eta) v(eta) = -(i/2) E(eta) = (i/4) wp'(2 varpi3 eta)

with interaction kernel K(eta, beta) = ln|theta1(eta - beta)/theta1(eta - beta^star)|
and the quasi-momentum P and quasi-energy E of elliptic._quasi_terms.
Both right-hand sides are real (P and E are purely imaginary); the kernel
has an integrable ln|eta - beta| singularity on the diagonal, handled by a
Nystrom discretization in which the logarithmic part is integrated exactly
against piecewise-linear hat functions and the smooth remainder by the
matching trapezoid weights.

The tracer speed is s(eta) = -v(eta)/u(eta); the equation of state

    s(eta) = s0(eta) + int Delta(eta, beta) [s(eta) - s(beta)] u(beta) dbeta

is an algebraic consequence of the NDR pair, so its residual measures
discretization error only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .elliptic import CurveParams, JacobianPoint, zeta_half_period
from .elliptic import _log_theta1_ratio, _quasi_terms, _theta_grid
from .errors import (
    DiagonalSingularity,
    NegativeDensityWarning,
    SingularSystem,
    ZeroDensityNode,
)

# Cap on the 1-norm condition number k1 of the NDR matrix.  LU with partial
# pivoting is backward stable, so the solution's relative 1-norm error is at
# most about k1 u, u = 2^-53; the cap keeps it below about 1e12 u ~ 1.1e-4.
# ndr_solve gates an upper bound on k1 (_cond_bound) where the matrix is
# diagonally dominant by columns, else k1 itself from the inverse, so no
# matrix with k1 above the cap passes.
_COND_LIMIT = 1e12


@dataclass(frozen=True)
class GasInterval:
    """One support interval, fully inside the hot (chi=0) or cool (chi=1) segment."""

    chi: int
    lo: float
    hi: float

    def __post_init__(self):
        if not 0.0 < self.lo < self.hi < 0.5:
            raise ValueError(f"interval ({self.lo}, {self.hi}) not inside (0, 1/2)")


@dataclass(frozen=True)
class GasModel:
    """Discretized gas: support, quadrature, sigma, and (after solving) u, v, s."""

    curve: CurveParams
    intervals: tuple[GasInterval, ...]
    n_per_interval: int
    nodes_r: np.ndarray          # real parts of the nodes
    nodes_chi: np.ndarray        # segment flag per node
    weights: np.ndarray          # trapezoid weights
    sigma: np.ndarray
    solved_u: np.ndarray | None = None
    solved_v: np.ndarray | None = None
    # kernel_matrix and the _quasi_terms (P, E, b) of these nodes, kept by
    # ndr_solve for the equation of state and the free speeds;
    # dataclasses.replace copies them, so reset them when replacing curve or nodes
    kernel: np.ndarray | None = field(default=None, repr=False, compare=False)
    node_terms: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def betas(self) -> np.ndarray:
        return self.nodes_r + self.nodes_chi * self.curve.tau / 2.0

    @property
    def mus(self) -> np.ndarray:
        """beta - beta^star per node, the real numbers 2 r - 1."""
        return 2.0 * self.nodes_r - 1.0

    @property
    def speeds(self) -> np.ndarray:
        if self.solved_u is None:
            raise ZeroDensityNode("model not solved")
        if np.min(np.abs(self.solved_u)) < 1e-14:
            raise ZeroDensityNode("density of states vanishes at a node")
        return -self.solved_v / self.solved_u

    def jacobian_point(self, i: int) -> JacobianPoint:
        chi = int(self.nodes_chi[i])
        beta = self.nodes_r[i] + chi * self.curve.tau / 2.0
        return JacobianPoint(beta=complex(beta), chi=chi)


def interval_from_physical(curve: CurveParams, b_lo: float, b_hi: float) -> GasInterval:
    """Support interval from a physical spectral interval, endpoint-wise.

    Hot intervals (b < e3) map orientation-preservingly, cool ones
    (e2 < b < e1) reverse because wp decreases along that segment.
    """
    from .elliptic import invert_wp

    if not b_lo < b_hi:
        raise ValueError("need b_lo < b_hi")
    lo_pt = invert_wp(b_lo, curve)
    hi_pt = invert_wp(b_hi, curve)
    if lo_pt.chi != hi_pt.chi:
        raise ValueError("interval endpoints on different segments")
    r1, r2 = sorted((lo_pt.beta.real, hi_pt.beta.real))
    return GasInterval(lo_pt.chi, r1, r2)


def build_model(curve: CurveParams, intervals: list[GasInterval], sigma,
                n_per_interval: int = 64) -> GasModel:
    """Uniform nodes (endpoints included) with trapezoid weights per interval.

    sigma may be a scalar, an array over all nodes, or a callable of beta.
    """
    if n_per_interval < 8:
        raise ValueError("need at least 8 nodes per interval")
    rs, chis, ws = [], [], []
    for iv in intervals:
        r = np.linspace(iv.lo, iv.hi, n_per_interval)
        h = r[1] - r[0]
        w = np.full(n_per_interval, h)
        w[0] = w[-1] = h / 2.0
        rs.append(r)
        chis.append(np.full(n_per_interval, iv.chi, dtype=int))
        ws.append(w)
    nodes_r = np.concatenate(rs)
    nodes_chi = np.concatenate(chis)
    weights = np.concatenate(ws)
    if callable(sigma):
        sig = np.array([float(sigma(r + c * curve.tau / 2.0))
                        for r, c in zip(nodes_r, nodes_chi)])
    else:
        sig = np.broadcast_to(np.asarray(sigma, dtype=float), nodes_r.shape).copy()
    if np.min(sig) < 0.0:
        raise ValueError("sigma must be nonnegative")
    return GasModel(curve=curve, intervals=tuple(intervals),
                    n_per_interval=n_per_interval, nodes_r=nodes_r,
                    nodes_chi=nodes_chi, weights=weights, sigma=sig)


def interaction_kernel(eta: JacobianPoint, beta: JacobianPoint, curve: CurveParams) -> float:
    """ln|theta1(eta - beta) / theta1(eta - beta^star)|."""
    if abs(eta.beta - beta.beta) < 1e-13:
        raise DiagonalSingularity("kernel evaluated at eta == beta")
    return float(_log_theta1_ratio(eta.beta - beta.beta, eta.beta - beta.star(curve.tau),
                                   curve.tau))


def _node_terms(model: GasModel):
    """(P, E, b) at the nodes: those ndr_solve kept, else one _quasi_terms call."""
    if model.node_terms is not None:
        return model.node_terms
    return _quasi_terms(model.betas, model.nodes_chi, model.curve)


def free_speeds(model: GasModel) -> np.ndarray:
    """Free tracer speed s0 = -E/P at every node, the group velocity formula."""
    p, e, _ = _node_terms(model)
    return -e.imag / p.imag


def _hat_log_integrals(nodes: np.ndarray, x0) -> np.ndarray:
    """Exact integrals of ln|x0 - r| against the hat functions on the nodes.

    Row i holds the integrals for the evaluation point x0[i].
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))[:, None]
    u = nodes - x0
    log_u = np.log(np.abs(u) + (u == 0.0))
    f1 = np.where(u == 0.0, 0.0, u * (log_u - 1.0))
    f2 = np.where(u == 0.0, 0.0, 0.5 * u * u * log_u - 0.25 * u * u)
    d1 = f1[:, 1:] - f1[:, :-1]
    d2 = f2[:, 1:] - f2[:, :-1]
    h = nodes[1] - nodes[0]
    out = np.zeros(u.shape)
    # rising half of the hat on [r_{j-1}, r_j]: (r - r_{j-1})/h; falling half
    # on [r_j, r_{j+1}]: (r_{j+1} - r)/h
    out[:, 1:] += (d2 + (x0 - nodes[:-1]) * d1) / h
    out[:, :-1] += ((nodes[1:] - x0) * d1 - d2) / h
    return out


def _kernel_rows(model: GasModel, eta: np.ndarray, eta_chi: np.ndarray) -> np.ndarray:
    """Quadrature rows at the points eta (segment flags eta_chi), one per point.

    On same-segment blocks the kernel is split as ln|r_eta - r| plus a smooth
    remainder; the logarithm is integrated exactly against the hat functions,
    the remainder by the trapezoid weights.  Both theta1 factors come from one
    table grid (_theta_grid).  The value of theta1(z) loses digits as z -> 0,
    so below delta the remainder takes the Taylor form
    ln|theta1(z)/z| = ln theta1'(0) - 2 varpi3 zeta(varpi3) z^2 - g2 varpi3^4 z^4/15 + ...
    without its z^4 term, which delta keeps below 2^-53.
    """
    curve = model.curve
    betas = model.betas
    n = betas.size
    stars = 1.0 - betas + model.nodes_chi * curve.tau
    grid = np.abs(_theta_grid(True, eta, np.concatenate([betas, stars]), curve.tau))
    num, den = grid[:, :n], grid[:, n:]
    x0 = eta.real
    sep = x0[:, None] - model.nodes_r
    same = eta_chi[:, None] == model.nodes_chi
    delta = (15.0 * 2.0 ** -53 / (curve.g2 * abs(curve.varpi3) ** 4)) ** 0.25
    near = same & (np.abs(sep) < delta)
    taylor = (np.log(curve._theta1_prime0.real)
              + (-2.0 * curve.varpi3 * zeta_half_period(curve)).real * sep * sep)
    ratio = num / np.where(same & ~near, np.abs(sep), 1.0)
    rows = model.weights * (np.log(ratio, out=taylor, where=~near) - np.log(den))
    per = model.n_per_interval
    for bi, iv in enumerate(model.intervals):
        cols = slice(bi * per, (bi + 1) * per)
        hit = eta_chi == iv.chi
        rows[hit, cols] += _hat_log_integrals(model.nodes_r[cols], x0[hit])
    return rows


def kernel_row(model: GasModel, eta: JacobianPoint) -> np.ndarray:
    """Quadrature row: sum_j row[j] g_j ~ int K(eta, beta) g(beta) dbeta."""
    return _kernel_rows(model, np.array([complex(eta.beta)]), np.array([eta.chi]))[0]


def kernel_matrix(model: GasModel) -> np.ndarray:
    """Quadrature matrix A with sum_j A[i, j] g_j ~ int K(eta_i, beta) g(beta) dbeta."""
    return _kernel_rows(model, model.betas, model.nodes_chi)


def _rhs_vectors(model: GasModel) -> np.ndarray:
    """Real right-hand sides as columns (-(i/2) P for u, -(i/2) E for v), reality asserted."""
    p, e, _ = _node_terms(model)
    vals = -0.5j * np.stack([p, e], axis=1)
    bad = np.abs(vals.imag) > 1e-10 * np.maximum(1.0, np.abs(vals))
    if bad.any():
        raise SingularSystem(f"NDR right-hand side {complex(vals[bad][0])} not real")
    return vals.real


def _cond_bound(m: np.ndarray) -> float:
    """Upper bound on the 1-norm condition number of m; inf unless m is column dominant.

    With D = |diag(m)| and f = max_j (sum_i |m_ij| - D_j)/D_j = ||(m - D) D^-1||_1,
    f < 1 gives ||m^-1||_1 <= 1/(min D (1 - f)) by the Neumann series (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2nd ed., ch. 15).
    """
    col = np.abs(m).sum(axis=0)
    d = np.abs(np.diagonal(m))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f = np.max(col / d) - 1.0            # nan or inf on a zero diagonal entry
        if f < 1.0:
            return float(np.max(col) / (np.min(d) * (1.0 - f)))
    return np.inf


def ndr_solve(model: GasModel) -> GasModel:
    """Solve the discretized NDR pair; returns a model with u, v filled in.

    The kernel matrix and the node terms are kept on the returned model for
    the equation of state and the free speeds.
    """
    a = kernel_matrix(model)
    m = a + np.diag(model.sigma)
    model = replace(model, node_terms=_quasi_terms(model.betas, model.nodes_chi, model.curve))
    rhs = _rhs_vectors(model)
    try:
        if _cond_bound(m) <= _COND_LIMIT:
            sol = np.linalg.solve(m, rhs)
        else:
            # one solve gives the solution and the inverse, hence k1 itself
            sol, inv = np.hsplit(np.linalg.solve(m, np.hstack([rhs, np.eye(len(m))])),
                                 [rhs.shape[1]])
            cond = np.linalg.norm(m, 1) * np.linalg.norm(inv, 1)
            if not cond <= _COND_LIMIT:
                raise SingularSystem(f"1-norm condition number {cond:.3e} "
                                     f"above {_COND_LIMIT:.0e}")
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"NDR matrix is singular: {exc}") from exc
    for x, b in zip(sol.T, rhs.T):
        defect = float(np.max(np.abs(m @ x - b)))
        if defect > 1e-9 * (1.0 + float(np.max(np.abs(b)))):
            raise SingularSystem(f"solve defect {defect}")
    u, v = sol.T
    if np.min(u) < -1e-8:
        warnings.warn(f"density of states dips to {np.min(u)}", NegativeDensityWarning)
    return replace(model, solved_u=u, solved_v=v, kernel=a)


def carrier_quantities(model: GasModel) -> tuple[float, float]:
    """(k_tilde, w_tilde): carrier wave number and frequency of the gas."""
    if model.solved_u is None:
        raise ZeroDensityNode("model not solved")
    mus = model.mus
    base = 1.0 / (2.0 * abs(model.curve.varpi3))   # -i/(2 varpi3) as a real number
    k = 2.0 * np.pi * (np.sum(model.weights * mus * model.solved_u) + base)
    w = 2.0 * np.pi * np.sum(model.weights * mus * model.solved_v)
    return float(k), float(w)


def equation_of_state_residual(model: GasModel) -> float:
    """max_i |s_i - s0_i - int Delta(eta_i, beta)[s_i - s(beta)] u(beta) dbeta|.

    Delta(eta, beta) = i ln|theta1(eta-beta)/theta1(eta-beta^star)|^2 / P(eta)
    equals 2 K(eta, beta)/|P(eta)|; the integral reuses the log-subtracted
    quadrature (the solve's kernel where the model keeps it), so the residual
    measures discretization only.
    """
    s = model.speeds
    a = kernel_matrix(model) if model.kernel is None else model.kernel
    g = (s[:, None] - s) * model.solved_u
    integral = (2.0 / _node_terms(model)[0].imag) * np.sum(a * g, axis=1)
    return float(np.max(np.abs(s - free_speeds(model) - integral)))


def tracer_shift(model: GasModel, density: np.ndarray, eta: JacobianPoint) -> float:
    """Average total shift of a tracer soliton against the gas density.

    density holds the per-unit-beta soliton density on the model nodes (a
    unit-mass bump stands for one partner soliton); the prefactor 2/|P(eta)|
    matches the per-partner term of the averaged total-shift schedule.  The
    kernel integral reuses the log-subtracted row quadrature, applied to the
    sign-weighted density (slower partners push forward, faster ones back).
    """
    density = np.asarray(density, dtype=float)
    p, _, b_eta = _quasi_terms(eta.beta, eta.chi, model.curve)
    # velocity decreases monotonically with b on both segments, so b_eta > b
    # flags a faster partner; faster partners carry +K (push the tracer back,
    # K <= 0), matching the per-partner terms of the total-shift schedule
    signs = np.sign(b_eta.real - _node_terms(model)[2].real)
    row = kernel_row(model, eta)
    return float((2.0 / p.imag) * (row @ (signs * density)))


def background_shift_rate(model: GasModel, density: np.ndarray) -> float:
    """Large-N background-shift rate A/N = int (beta - beta^star)/2 density dbeta."""
    density = np.asarray(density, dtype=float)
    return float(np.sum(model.weights * (model.mus / 2.0) * density))


def density_from_physical(model: GasModel, phys_density) -> np.ndarray:
    """Convert a density in the physical variable b to the beta coordinate.

    Applies the Jacobian factor 2 varpi3 wp'(2 varpi3 beta) = -4 varpi3 E,
    which is real on both segments.
    """
    _, e, wp = _node_terms(model)
    jac = np.abs((4.0 * model.curve.varpi3 * e).real)
    return np.array([phys_density(b) * j for b, j in zip(wp.real, jac)])
