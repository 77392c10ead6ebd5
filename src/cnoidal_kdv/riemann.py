"""Multidimensional theta lattice sums and the degeneration experiments.

A genus-(N+1) period matrix is synthesized from the limit blocks

    B_ll = i*Lambda,   Lambda = ln(1/epsilon)
    B_lj = (1/(i pi)) ln|theta1(beta_j - beta_l)/theta1(beta_j - beta_l^star)|
    mu_l = beta_l - beta_l^star   (real),    corner = tau,

so the only epsilon-dependence is the diverging diagonal.  For phase vectors
tuned to the half period (u = (1,...,1,0)) the {0,1}^N-restricted part of the
lattice sum reproduces det(1+G) theta3(beta - A) exactly, term by term; the
degeneration residual is therefore the complementary tail, which this module
evaluates directly (no catastrophic cancellation), while asserting the
factorization identity on every call.

Also here: the genus-1 Fay identity residual and the random-initial-phase
convergence experiment of the averaging appendix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import fd
from .elliptic import theta1, theta3
from .errors import (
    CoincidentSolitons,
    FactorizationMismatch,
    NonRealTau,
    PhaseOverflow,
    SingularConfiguration,
    TruncationInsufficient,
)
from .tau import SolitonSpectrum, fredholm_factor

_IDENTITY_GATE = 1e-9
# Largest |exponent| of the x-only factor E of a lattice term.  E never
# overflows, and a term whose per-draw factor C underflows lies below
# exp(-_E_EXPONENT_BOUND) of the nu = 0 term, which is 1.
_E_EXPONENT_BOUND = 0.5 * float(np.log(np.finfo(float).max))


@dataclass(frozen=True)
class PeriodMatrix:
    """Synthetic (N+1) x (N+1) period matrix with its defining blocks."""

    omega: np.ndarray      # complex, symmetric, Im positive definite
    block_b: np.ndarray    # N x N soliton block
    block_mu: np.ndarray   # real N-vector
    corner: complex        # elliptic corner, tau for degenerate builds

    @property
    def dim(self) -> int:
        return self.omega.shape[0]

    def validate(self) -> None:
        om = self.omega
        if np.max(np.abs(om - om.T)) > 1e-12:
            raise ValueError("period matrix not symmetric")
        if self.block_mu.size and np.max(np.abs(np.asarray(self.block_mu).imag)) > 1e-12:
            raise ValueError("mu block not real")
        if float(np.min(np.linalg.eigvalsh(om.imag))) <= 0.0:
            raise ValueError("Im(omega) not positive definite")


@dataclass(frozen=True)
class DegenerationSpec:
    """Finite-epsilon stand-in for the pinched hyperelliptic surface."""

    epsilon: float
    spectrum: SolitonSpectrum

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon = {self.epsilon} outside (0, 1)")

    @property
    def lam(self) -> float:
        return float(np.log(1.0 / self.epsilon))


def degenerate_period_matrix(spec: DegenerationSpec) -> PeriodMatrix:
    sp = spec.spectrum
    curve = sp.curve
    n = len(sp)
    betas = np.array([e.beta for e in sp.entries], dtype=complex)
    stars = np.array([e.beta_star for e in sp.entries], dtype=complex)
    b = np.diag(np.full(n, 1j * spec.lam))
    low, high = np.triu_indices(n, 1)           # pairs l < j, row by row
    if low.size:
        close = np.abs(betas[high] - betas[low]) < 1e-10
        if np.any(close):
            first = int(np.argmax(close))
            raise CoincidentSolitons(f"beta_{high[first]} and beta_{low[first]} coincide")
        ratio = np.abs(theta1(betas[high] - betas[low], curve.tau)
                       / theta1(betas[high] - stars[low], curve.tau))
        b[low, high] = b[high, low] = np.log(ratio) / (1j * np.pi)
    mu = np.array([e.point.mu() for e in sp.entries], dtype=float)
    omega = np.zeros((n + 1, n + 1), dtype=complex)
    omega[:n, :n] = b
    omega[:n, n] = mu
    omega[n, :n] = mu
    omega[n, n] = curve.tau
    pm = PeriodMatrix(omega=omega, block_b=b, block_mu=mu, corner=curve.tau)
    pm.validate()
    return pm


def _lattice(dim: int, radius: int) -> np.ndarray:
    if (2 * radius + 1) ** dim > 2e7:
        raise ValueError(f"lattice box (2*{radius}+1)^{dim} too large to enumerate")
    rng = range(-radius, radius + 1)
    return np.array(list(itertools.product(rng, repeat=dim)), dtype=float)


def _tail_bound(x: np.ndarray, omega: np.ndarray, radius: int) -> float:
    """Upper bound on the lattice-sum tail outside the |nu|_inf <= radius box."""
    dim = omega.shape[0]
    lam = float(np.min(np.linalg.eigvalsh(omega.imag)))
    if lam <= 0.0:
        return np.inf
    b = float(np.linalg.norm(np.asarray(x).imag))
    total = 0.0
    for r in range(radius + 1, radius + 400):
        count = (2 * r + 1) ** dim - (2 * r - 1) ** dim
        log_term = -np.pi * lam * r * r + 2.0 * np.pi * np.sqrt(dim) * b * r
        term = count * np.exp(min(log_term, 700.0))
        total += term
        if term < 1e-300:
            break
    return float(total)


def theta_lattice_sum(x, omega: PeriodMatrix | np.ndarray, radius: int,
                      tol: float | None = None) -> tuple[complex, float]:
    """Box-truncated Riemann theta sum; returns (value, a-posteriori tail bound)."""
    om = omega.omega if isinstance(omega, PeriodMatrix) else np.asarray(omega, dtype=complex)
    x = np.asarray(x, dtype=complex)
    if x.shape != (om.shape[0],):
        raise ValueError("dim(X) must match the period matrix")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    nu = _lattice(om.shape[0], radius)
    quad = np.einsum("ij,jk,ik->i", nu, om, nu)
    value = complex(np.sum(np.exp(1j * np.pi * quad + 2j * np.pi * nu @ x)))
    tail = _tail_bound(x, om, radius)
    if tol is not None and tail > tol:
        raise TruncationInsufficient(f"tail bound {tail} > tolerance {tol}")
    return value, tail


def _half_period_split_sums(x: np.ndarray, omega: np.ndarray, n_solitons: int,
                            radius: int) -> tuple[complex, complex]:
    """(restricted, complement) parts of Theta(X - Omega u / 2; Omega), u = (1..1,0).

    The restricted part runs over soliton indices n in {0,1}^N, where the
    diverging diagonal cancels identically; it is evaluated with the diagonal
    dropped so the cancellation is exact in floating point as well.  The
    complement is everything else in the box.
    """
    dim = omega.shape[0]
    n = n_solitons
    u = np.zeros(dim)
    u[:n] = 1.0
    nu = _lattice(dim, radius)
    soliton_part = nu[:, :n]
    restricted_mask = np.all((soliton_part == 0.0) | (soliton_part == 1.0), axis=1)

    # complement: plain summand at X - Omega u / 2
    x_eff = x - 0.5 * omega @ u
    nu_c = nu[~restricted_mask]
    quad_c = np.einsum("ij,jk,ik->i", nu_c, omega, nu_c)
    complement = complex(np.sum(np.exp(1j * np.pi * quad_c + 2j * np.pi * nu_c @ x_eff)))

    # restricted: same summand with the soliton diagonal removed analytically
    om0 = omega.copy()
    idx = np.arange(n)
    om0[idx, idx] = 0.0
    x0_eff = x - 0.5 * om0 @ u
    nu_r = nu[restricted_mask]
    quad_r = np.einsum("ij,jk,ik->i", nu_r, om0, nu_r)
    restricted = complex(np.sum(np.exp(1j * np.pi * quad_r + 2j * np.pi * nu_r @ x0_eff)))
    return restricted, complement


def degeneration_residual(x_phase, spec: DegenerationSpec, radius: int) -> float:
    """|Theta(X - Omega u/2; Omega(eps)) - det(1+G) theta3(beta - A)|.

    The factorization identity (Fay plus Fredholm expansion) is asserted
    against the restricted sum to 1e-9 on every call; the returned residual
    is the complementary tail, which decays like eps^(2 pi).
    """
    sp = spec.spectrum
    n = len(sp)
    x_phase = np.asarray(x_phase, dtype=complex)
    if x_phase.shape != (n + 1,):
        raise ValueError("x_phase must have length N + 1")
    pm = degenerate_period_matrix(spec)
    restricted, complement = _half_period_split_sums(x_phase, pm.omega, n, radius)
    det_side = fredholm_factor(sp, x_phase[:n], float(x_phase[n].real))
    scale = 1.0 + abs(det_side)
    if abs(restricted - det_side) > _IDENTITY_GATE * scale:
        raise FactorizationMismatch(
            f"restricted sum {restricted} vs determinant side {det_side}")
    return abs(complement)


def fay_residual(n: int, xs, xhats, e_point: complex, curve) -> float:
    """Residual of the genus-1 Fay determinant identity at n points."""
    xs = np.asarray(xs, dtype=complex)
    xhats = np.asarray(xhats, dtype=complex)
    if xs.shape != (n,) or xhats.shape != (n,):
        raise ValueError("need n points on each side")
    tau_mod = curve.tau
    th_e = theta3(e_point, tau_mod)
    if abs(th_e) < 1e-12:
        raise SingularConfiguration("theta3(E) vanishes")
    cross = theta1(xs[:, None] - xhats[None, :], tau_mod)
    if np.min(np.abs(cross)) < 1e-12:
        raise SingularConfiguration("theta1(x_j - xhat_k) vanishes")
    mat = theta3(xs[:, None] - xhats[None, :] + e_point, tau_mod) / (cross * th_e)
    lhs = complex(np.linalg.det(mat))
    rhs = theta3(np.sum(xs - xhats) + e_point, tau_mod) / th_e
    j, k = np.triu_indices(n, 1)
    if j.size:
        rhs *= np.prod(theta1(xs[j] - xs[k], tau_mod) * theta1(xhats[k] - xhats[j], tau_mod))
    rhs /= np.prod(cross)
    return abs(lhs - rhs)


# ----------------------------------------------------------------------------
# Random initial phases
# ----------------------------------------------------------------------------

def cnoidal_reference(curve, xs) -> np.ndarray:
    """u1(x) = 2 d^2/dx^2 ln theta3(x / (4 i varpi3)), the bare cnoidal wave."""
    xs = np.asarray(xs, dtype=float)
    w3_abs = abs(curve.varpi3)
    y = xs / (4.0 * w3_abs)
    t0 = theta3(y, curve.tau)
    t1 = theta3(y, curve.tau, 1)
    t2 = theta3(y, curve.tau, 2)
    return (t2 / t0 - (t1 / t0) ** 2).real / (8.0 * w3_abs * w3_abs)


def _x_blocks(xs: np.ndarray, reach: float) -> list[np.ndarray]:
    """Index sets of xs, each spanning at most 2 reach."""
    lo, hi = float(xs.min()), float(xs.max())
    count = max(1, int(np.ceil((hi - lo) / (2.0 * reach))))
    if count == 1:
        return [np.arange(xs.size)]
    which = np.minimum(((xs - lo) * (count / (hi - lo))).astype(int), count - 1)
    return [idx for idx in (np.flatnonzero(which == b) for b in range(count)) if idx.size]


def _finite_gap_theta(spec: DegenerationSpec, draws: np.ndarray, xs: np.ndarray,
                      h: float, ts: np.ndarray, radius: int) -> np.ndarray:
    """Theta(X(x, t) - Omega u/2) on the D2 stencil of xs: shape (k, nt, nx, 5).

    X is affine in x with slope a = (P_1/2pi, ..., P_N/2pi, 1/(4|varpi3|)), so
    at a block centre x_c each lattice term splits into
        C[draw, t, nu] = exp(i pi nu.Omega.nu + 2 pi i nu.(X(x_c, t) - Omega u/2))
        E[nu, x]       = prod_j exp(2 pi i nu_j a_j (x - x_c))
    and the sum over a block is the one matrix product C @ E.  C is a single
    exponent per term: the damping from the quadratic form and the growth
    from the half-period shift must not be exponentiated separately (their
    product is finite where the factors overflow).  The soliton slopes are
    imaginary, so E is a real exponential; the blocks keep its exponent
    within _E_EXPONENT_BOUND.
    """
    sp = spec.spectrum
    curve = sp.curve
    n = len(sp)
    pm = degenerate_period_matrix(spec)
    u = np.zeros((draws.shape[0], n + 1))
    u[:, :n] = 1.0 - draws
    shift = 0.5 * u @ pm.omega.T

    nu = _lattice(n + 1, radius)
    quad = 1j * np.pi * np.einsum("ij,jk,ik->i", nu, pm.omega, nu)

    p = np.array([e.P for e in sp.entries])
    en = np.array([e.E for e in sp.entries])
    xsh = np.array([e.x_shift for e in sp.entries])
    w3 = 4.0 * abs(curve.varpi3)
    slope = np.append(p / (2.0 * np.pi), 1.0 / w3)
    growth = radius * float(np.sum(np.abs(p.imag)))      # max |Re log E| per unit |x - x_c|
    reach = (_E_EXPONENT_BOUND / growth if growth > 0.0 else np.inf) - 2.0 * h
    m = np.arange(-radius, radius + 1, dtype=float)

    vals = np.empty((draws.shape[0], ts.size, xs.size, fd.D2_OFFSETS.size), dtype=complex)
    for idx in _x_blocks(xs, reach):
        x_blk = (xs[idx, None] + h * fd.D2_OFFSETS[None, :]).ravel()
        x_c = 0.5 * (x_blk.min() + x_blk.max())
        dx = x_blk - x_c
        big_x = np.empty((ts.size, n + 1), dtype=complex)
        big_x[:, :n] = ((x_c - xsh) * p + ts[:, None] * en) / (2.0 * np.pi)
        big_x[:, n] = (x_c - sp.x0) / w3
        arg = quad + 2j * np.pi * ((big_x[None, :, :] - shift[:, None, :]) @ nu.T)
        with np.errstate(over="ignore", invalid="ignore"):
            # E row by row in lattice order (first index slowest), one factor table per axis
            table = np.ones((1, dx.size), dtype=complex)
            for a in slope:
                factor = np.exp(2j * np.pi * a * m[:, None] * dx[None, :])
                table = (table[:, None, :] * factor[None, :, :]).reshape(-1, dx.size)
            theta = np.exp(arg).reshape(-1, nu.shape[0]) @ table
        vals[:, :, idx] = theta.reshape(vals.shape[:2] + (idx.size, -1))
    return vals


def finite_gap_solution(spec: DegenerationSpec, phi, xs, ts, radius: int) -> np.ndarray:
    """u_{N+1}(x, t) = 2 d^2/dx^2 ln Theta(X(x,t) - Omega u/2) at finite epsilon.

    u = (1 - phi_1, ..., 1 - phi_N, 0); phi = 0 is the half-period tuning of
    the soliton solution.  phi is one draw, shape (N,), giving a result of
    shape (len(ts), len(xs)), or k draws, shape (k, N), giving (k, len(ts),
    len(xs)) from one lattice sum over all draws.
    """
    sp = spec.spectrum
    n = len(sp)
    phi = np.asarray(phi, dtype=float)
    if phi.ndim not in (1, 2) or phi.shape[-1] != n:
        raise ValueError("phi must have one entry per soliton, shape (N,) or (k, N)")
    xs = np.asarray(xs, dtype=float)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    h = 1e-3 * sp.curve.period_x
    vals = _finite_gap_theta(spec, phi.reshape(-1, n), xs, h, ts, radius)
    if not np.all(np.isfinite(vals)):
        raise PhaseOverflow("theta lattice sum not finite in double precision")
    if float(np.max(np.abs(vals.imag) / (np.abs(vals) + 1e-300))) > 1e-8:
        raise NonRealTau("theta sum not real on a real (x, t) grid")
    re = vals.real
    if np.min(re) <= 0.0:
        raise NonRealTau("theta sum not positive; cannot take logarithms")
    u_big = 2.0 * fd.second_derivative(np.log(re), h)
    return u_big[0] if phi.ndim == 1 else u_big


def random_phase_trial(spec: DegenerationSpec, phi, xs, ts, radius: int) -> float:
    """Sup over the grid of |u_{N+1}(x, t) - u1(x)| for one phase draw."""
    u_big = finite_gap_solution(spec, phi, xs, ts, radius)
    u1 = cnoidal_reference(spec.spectrum.curve, xs)
    return float(np.max(np.abs(u_big - u1[None, :])))


def random_phase_mc(spectrum: SolitonSpectrum, epsilons, n_trials: int, seed: int,
                    xs, ts, radius: int) -> np.ndarray:
    """Mean sup-deviation per epsilon over common random phase draws.

    The same phi sequence (given by the seed) is reused for every epsilon so
    the means are comparable trial by trial; each epsilon is one
    finite_gap_solution call over all draws.
    """
    n = len(spectrum)
    rng = np.random.default_rng(seed)
    phis = rng.uniform(-1.0, 1.0, size=(n_trials, n))
    u1 = cnoidal_reference(spectrum.curve, xs)
    means = []
    for eps in epsilons:
        spec = DegenerationSpec(epsilon=float(eps), spectrum=spectrum)
        u_big = finite_gap_solution(spec, phis, xs, ts, radius)
        means.append(float(np.mean(np.abs(u_big - u1).max(axis=(1, 2)))))
    return np.array(means)
