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

from dataclasses import dataclass

import numpy as np

from .elliptic import (_HALF_LOG_MAX, _certified_sum, _cnoidal_wave, _log_theta1_ratio,
                       theta1, theta3)
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
_LATTICE_MAX = 2e7        # largest lattice box _lattice enumerates

# lattice rows x draws x t of the Monte Carlo sums: of the whole box, and those summed
_LATTICE_TERMS = {"all": 0, "summed": 0}


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


def _pinched_blocks(sp: SolitonSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """(B with a zero diagonal, mu): the epsilon-independent blocks of the period matrix."""
    curve = sp.curve
    n = len(sp)
    betas = np.array([e.beta for e in sp.entries], dtype=complex)
    stars = np.array([e.beta_star for e in sp.entries], dtype=complex)
    b = np.zeros((n, n), dtype=complex)
    low, high = np.triu_indices(n, 1)           # pairs l < j, row by row
    close = np.abs(betas[high] - betas[low]) < 1e-10
    if np.any(close):
        first = int(np.argmax(close))
        raise CoincidentSolitons(f"beta_{high[first]} and beta_{low[first]} coincide")
    b[low, high] = b[high, low] = _log_theta1_ratio(
        betas[high] - betas[low], betas[high] - stars[low], curve.tau) / (1j * np.pi)
    mu = np.array([e.point.mu() for e in sp.entries], dtype=float)
    return b, mu


def _pinched_period_matrix(blocks: tuple[np.ndarray, np.ndarray], lam: float,
                           tau: complex) -> PeriodMatrix:
    """The validated period matrix with diagonal i*lam from the _pinched_blocks pair."""
    off_diagonal, mu = blocks
    n = mu.size
    b = off_diagonal.copy()
    b[np.arange(n), np.arange(n)] = 1j * lam
    omega = np.zeros((n + 1, n + 1), dtype=complex)
    omega[:n, :n] = b
    omega[:n, n] = mu
    omega[n, :n] = mu
    omega[n, n] = tau
    pm = PeriodMatrix(omega=omega, block_b=b, block_mu=mu, corner=tau)
    pm.validate()
    return pm


def degenerate_period_matrix(spec: DegenerationSpec) -> PeriodMatrix:
    sp = spec.spectrum
    return _pinched_period_matrix(_pinched_blocks(sp), spec.lam, sp.curve.tau)


def _lattice(dim: int, radius: int) -> np.ndarray:
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if (2 * radius + 1) ** dim > _LATTICE_MAX:
        raise ValueError(f"lattice box (2*{radius}+1)^{dim} too large to enumerate")
    # rows in lexicographic order, first index slowest
    box = np.indices((2 * radius + 1,) * dim).reshape(dim, -1).T
    return (box - radius).astype(float)


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


def _box_sum(nu: np.ndarray, omega: np.ndarray, x: np.ndarray) -> complex:
    """Sum over the lattice rows nu of exp(i pi nu.Omega.nu + 2 pi i nu.X)."""
    quad = np.einsum("ij,jk,ik->i", nu, omega, nu)
    return complex(np.sum(np.exp(1j * np.pi * quad + 2j * np.pi * nu @ x)))


def theta_lattice_sum(x, omega: PeriodMatrix | np.ndarray, radius: int,
                      tol: float | None = None) -> tuple[complex, float]:
    """Box-truncated Riemann theta sum; returns (value, a-posteriori tail bound)."""
    om = omega.omega if isinstance(omega, PeriodMatrix) else np.asarray(omega, dtype=complex)
    x = np.asarray(x, dtype=complex)
    if x.shape != (om.shape[0],):
        raise ValueError("dim(X) must match the period matrix")
    value = _box_sum(_lattice(om.shape[0], radius), om, x)
    tail = _tail_bound(x, om, radius)
    if tol is not None and tail > tol:
        raise TruncationInsufficient(f"tail bound {tail} > tolerance {tol}")
    return value, tail


def _split_lattice(dim: int, n_solitons: int, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """(restricted, complement) rows of the box: soliton indices all in {0,1}, or not."""
    nu = _lattice(dim, radius)
    soliton_part = nu[:, :n_solitons]
    restricted = np.all((soliton_part == 0.0) | (soliton_part == 1.0), axis=1)
    return nu[restricted], nu[~restricted]


def _half_period_split_sums(x: np.ndarray, omegas: list, n: int,
                            boxes: tuple[np.ndarray, np.ndarray]) -> tuple[complex, list]:
    """(restricted, complements) parts of Theta(X - Omega u / 2; Omega), u = (1..1,0).

    The restricted part runs over soliton indices in {0,1}^n, where the
    soliton diagonal, the only part in which the omegas differ, cancels
    identically; it is summed once, with that diagonal dropped, so the
    cancellation is exact in floating point as well.  The complement, one
    per Omega, is everything else in the box; boxes is the pair of row sets
    from _split_lattice.
    """
    u = np.zeros(omegas[0].shape[0])
    u[:n] = 1.0
    om0 = omegas[0].copy()
    om0[np.arange(n), np.arange(n)] = 0.0
    restricted = _box_sum(boxes[0], om0, x - 0.5 * om0 @ u)
    return restricted, [_box_sum(boxes[1], omega, x - 0.5 * omega @ u) for omega in omegas]


def _degeneration_residuals(x_phase, spectrum: SolitonSpectrum, epsilons,
                            radius: int) -> list[float]:
    """degeneration_residual at each epsilon, in order.

    The epsilons are validated first; the off-diagonal period-matrix
    blocks, the split lattice box, the restricted sum and det(1+G)
    theta3(beta - A) do not depend on epsilon, so they and the
    factorization check are taken once.
    """
    n = len(spectrum)
    x_phase = np.asarray(x_phase, dtype=complex)
    if x_phase.shape != (n + 1,):
        raise ValueError("x_phase must have length N + 1")
    specs = [DegenerationSpec(epsilon=float(eps), spectrum=spectrum) for eps in epsilons]
    blocks = _pinched_blocks(spectrum)
    omegas = [_pinched_period_matrix(blocks, spec.lam, spectrum.curve.tau).omega
              for spec in specs]
    det_side = fredholm_factor(spectrum, x_phase[:n], float(x_phase[n].real))
    restricted, complements = _half_period_split_sums(x_phase, omegas, n,
                                                      _split_lattice(n + 1, n, radius))
    if abs(restricted - det_side) > _IDENTITY_GATE * (1.0 + abs(det_side)):
        raise FactorizationMismatch(
            f"restricted sum {restricted} vs determinant side {det_side}")
    return [abs(complement) for complement in complements]


def degeneration_residual(x_phase, spec: DegenerationSpec, radius: int) -> float:
    """|Theta(X - Omega u/2; Omega(eps)) - det(1+G) theta3(beta - A)|.

    The factorization identity (Fay plus Fredholm expansion) is asserted
    against the restricted sum to 1e-9 on every call; the returned residual
    is the complementary tail, which decays like eps^(2 pi).
    """
    return _degeneration_residuals(x_phase, spec.spectrum, [spec.epsilon], radius)[0]


def _fay_residuals(n: int, xs, xhats, e_points, curve) -> np.ndarray:
    """fay_residual of each trial of a batch: xs and xhats (trials, n), e_points (trials,).

    A singular trial raises as the first such trial of a one-at-a-time loop would.
    """
    xs = np.asarray(xs, dtype=complex)
    xhats = np.asarray(xhats, dtype=complex)
    e_points = np.asarray(e_points, dtype=complex)
    trials = e_points.shape[0]
    if xs.shape != (trials, n) or xhats.shape != (trials, n):
        raise ValueError("need n points on each side")
    tau_mod = curve.tau
    th_e = theta3(e_points, tau_mod)
    diff = xs[:, :, None] - xhats[:, None, :]
    cross = theta1(diff, tau_mod)
    flat_e = np.abs(th_e) < 1e-12
    singular = flat_e | (np.min(np.abs(cross), axis=(1, 2)) < 1e-12)
    if np.any(singular):
        if flat_e[np.argmax(singular)]:
            raise SingularConfiguration("theta3(E) vanishes")
        raise SingularConfiguration("theta1(x_j - xhat_k) vanishes")
    th_e = th_e[:, None, None]
    lhs = np.linalg.det(theta3(diff + e_points[:, None, None], tau_mod) / (cross * th_e))
    rhs = theta3(np.sum(xs - xhats, axis=1) + e_points, tau_mod) / th_e[:, 0, 0]
    j, k = np.triu_indices(n, 1)
    rhs *= np.prod(theta1(xs[:, j] - xs[:, k], tau_mod)
                   * theta1(xhats[:, k] - xhats[:, j], tau_mod), axis=1)
    rhs /= np.prod(cross, axis=(1, 2))
    return np.abs(lhs - rhs)


def fay_residual(n: int, xs, xhats, e_point: complex, curve) -> float:
    """Residual of the genus-1 Fay determinant identity at n points."""
    batch = (np.asarray(xs)[None], np.asarray(xhats)[None], [e_point])
    return float(_fay_residuals(n, *batch, curve)[0])


# ----------------------------------------------------------------------------
# Random initial phases
# ----------------------------------------------------------------------------

def cnoidal_reference(curve, xs) -> np.ndarray:
    """u1(x) = 2 d^2/dx^2 ln theta3(x / (4 i varpi3)), the bare cnoidal wave."""
    return _cnoidal_wave(np.asarray(xs, dtype=float) / (4.0 * abs(curve.varpi3)), curve)


def _x_blocks(xs: np.ndarray, reach: float) -> list[np.ndarray]:
    """Index sets of xs, each spanning at most 2 reach; only the blocks that hold points."""
    lo, hi = float(xs.min()), float(xs.max())
    count = max(1, int(np.ceil((hi - lo) / (2.0 * reach))))
    if count == 1:
        return [np.arange(xs.size)]
    which = np.minimum(((xs - lo) * (count / (hi - lo))).astype(int), count - 1)
    return [np.flatnonzero(which == b) for b in np.unique(which)]


@dataclass(frozen=True)
class _XTables:
    """The parts of the finite-gap lattice sum that depend on neither epsilon nor the draws."""

    nu: np.ndarray         # (L, N+1) lattice rows, first index slowest
    quad: np.ndarray       # (L,) i pi nu.Omega.nu without the soliton diagonal of Omega
    square: np.ndarray     # (L, N) nu_j^2 of the solitons, which that diagonal multiplies
    rate: np.ndarray       # (L,) w = 2 pi i nu.a, the x-derivative of each term's exponent
    blocks: list           # (index set of xs, centre x_c, half-width, E table of shape (L, size))


def _x_tables(sp: SolitonSpectrum, xs: np.ndarray, radius: int,
              blocks: tuple[np.ndarray, np.ndarray]) -> _XTables:
    """The lattice, its quadratic form without Omega's epsilon-dependent diagonal
    (from the _pinched_blocks pair blocks), its rates w and one E table per block of xs.

    X is affine in x with slope a = (P_1/2pi, ..., P_N/2pi, 1/(4|varpi3|)), so
    at a block centre x_c each lattice term splits into
        C[draw, t, nu] = exp(i pi nu.Omega.nu + 2 pi i nu.(X(x_c, t) - Omega u/2))
        E[nu, x]       = prod_j exp(2 pi i nu_j a_j (x - x_c))
    and only C depends on epsilon and the draws.  The soliton slopes are
    imaginary, so E is a real exponential; the blocks keep its exponent within
    _HALF_LOG_MAX, so E never overflows.
    """
    p = np.array([e.P for e in sp.entries])
    slope = np.append(p / (2.0 * np.pi), 1.0 / (4.0 * abs(sp.curve.varpi3)))
    nu = _lattice(len(sp) + 1, radius)
    b, mu = blocks                                          # b's diagonal is zero
    omega = np.block([[b, mu[:, None]], [mu[None, :], np.full((1, 1), sp.curve.tau)]])
    growth = radius * float(np.sum(np.abs(p.imag)))      # max |Re log E| per unit |x - x_c|
    reach = _HALF_LOG_MAX / growth if growth > 0.0 else np.inf
    m = np.arange(-radius, radius + 1, dtype=float)
    x_blocks = []
    for idx in _x_blocks(xs, reach):
        x_c = 0.5 * (xs[idx].min() + xs[idx].max())
        dx = xs[idx] - x_c
        # E row by row in lattice order (first index slowest), one factor table per axis
        table = np.ones((1, dx.size), dtype=complex)
        for a in slope:
            factor = np.exp(2j * np.pi * a * m[:, None] * dx[None, :])
            table = (table[:, None, :] * factor[None, :, :]).reshape(-1, dx.size)
        x_blocks.append((idx, x_c, float(np.max(np.abs(dx))), table))
    return _XTables(nu=nu, quad=1j * np.pi * np.einsum("ij,jk,ik->i", nu, omega, nu),
                    square=nu[:, :-1] ** 2, rate=2j * np.pi * (nu @ slope), blocks=x_blocks)


def _row_sums(re_c: np.ndarray, quad: np.ndarray, arg: np.ndarray, rows: np.ndarray,
              tables: _XTables, table: np.ndarray) -> np.ndarray:
    """(C w^k) @ E for k = 0, 1, 2 over the lattice rows `rows`: shape (3, len(re_c), size).

    C = exp(c), c = quad + 2 pi i arg.nu, is formed for these rows from its real part re_c."""
    c = np.empty((re_c.shape[0], rows.size), dtype=complex)
    c.real = re_c[:, rows]
    c.imag = quad.imag[rows] + 2.0 * np.pi * (arg.real @ tables.nu[rows].T)
    part = np.exp(c)
    rate = tables.rate[rows]
    table = table[rows]
    sums = np.empty((3, re_c.shape[0], table.shape[1]), dtype=complex)
    for k in range(3):
        if k:
            part *= rate
        np.matmul(part, table, out=sums[k])
    return sums


def _finite_gap_theta(omega: np.ndarray, sp: SolitonSpectrum, draws: np.ndarray,
                      ts: np.ndarray, tables: _XTables) -> np.ndarray:
    """Theta(X(x, t) - Omega u/2) and its first two x-derivatives: shape (3, k, nt, nx).

    On each block of tables the k-th derivative is the one matrix product
    (C w^k) @ E, so Theta, Theta' and Theta'' are three products against one
    table, with C weighted by w in place between them.  C is a single
    exponent per term: the damping from the quadratic form and the growth
    from the half-period shift must not be exponentiated separately (their
    product is finite where the factors overflow).  A term whose C underflows
    lies below exp(-_HALF_LOG_MAX) of the nu = 0 term, which is 1.  The
    first block whose sums are not finite raises PhaseOverflow.

    Only the rows that can move a bit are summed.  On a block of half-width
    hw, |E_nu(x)| = exp(Re w_nu (x - x_c)), so for each draw and t (a
    draw-row of elliptic._certified_sum)
        bound[nu] = Re c[nu] + |Re w_nu| hw + 2 ln max(1, |w_nu|)
    bounds ln |C E w^k|, k <= 2, anywhere in the block, while some term is at
    least exp(peak), peak = max_nu (Re c[nu] - |Re w_nu| hw); that rule
    prunes the rows against the peak and min |Theta| over the block.  Re c
    is one real product over every row, Im c is formed for the rows summed,
    and i pi nu.Omega.nu is tables.quad plus the part from omega's soliton
    diagonal (tables holds the rest of omega).
    """
    n = len(sp)
    u = np.zeros((draws.shape[0], n + 1))
    u[:, :n] = 1.0 - draws
    shift = 0.5 * u @ omega.T
    quad = tables.quad + 1j * np.pi * (tables.square @ np.diagonal(omega)[:n])
    weight = 2.0 * np.log(np.maximum(1.0, np.abs(tables.rate)))
    p = np.array([e.P for e in sp.entries])
    en = np.array([e.E for e in sp.entries])
    xsh = np.array([e.x_shift for e in sp.entries])
    nx = sum(idx.size for idx, _, _, _ in tables.blocks)
    out = np.empty((3, draws.shape[0], ts.size, nx), dtype=complex)
    for idx, x_c, hw, table in tables.blocks:
        big_x = np.empty((ts.size, n + 1), dtype=complex)
        big_x[:, :n] = ((x_c - xsh) * p + ts[:, None] * en) / (2.0 * np.pi)
        big_x[:, n] = (x_c - sp.x0) / (4.0 * abs(sp.curve.varpi3))
        arg = (big_x[None, :, :] - shift[:, None, :]).reshape(-1, n + 1)
        re_c = quad.real - 2.0 * np.pi * (arg.imag @ tables.nu.T)   # Re c, which decides the rows
        spread = np.abs(tables.rate.real) * hw
        with np.errstate(over="ignore", invalid="ignore"):
            sums = _certified_sum(
                re_c + (spread + weight), np.max(re_c - spread, axis=1, keepdims=True),
                lambda rows: _row_sums(re_c, quad, arg, rows, tables, table),
                lambda sums: np.log(np.abs(sums[0]).min(axis=1)), _LATTICE_TERMS)
        out[..., idx] = sums.reshape(out.shape[:3] + (idx.size,))
        if not np.all(np.isfinite(out[..., idx])):
            raise PhaseOverflow("theta lattice sum not finite in double precision")
    return out


def _finite_gap_u(theta: np.ndarray, tables: _XTables) -> np.ndarray:
    """u = 2 (Theta''/Theta - (Theta'/Theta)^2) from _finite_gap_theta, after its gates.

    Theta and its derivatives are real on a real (x, t) grid.  Each imaginary
    part is measured against |Theta| times the k-th power of the largest rate,
    which bounds |Theta^(k)| term by term; Theta' and Theta'' themselves
    vanish at the extrema of Theta, so they cannot be their own scale.
    """
    scale = np.abs(theta[0]) + 1e-300
    rate = float(np.max(np.abs(tables.rate)))
    for k in range(3):
        if float(np.max(np.abs(theta[k].imag) / (scale * rate ** k))) > 1e-8:
            raise NonRealTau("theta sum not real on a real (x, t) grid")
    th, th1, th2 = theta.real
    if np.min(th) <= 0.0:
        raise NonRealTau("theta sum not positive; cannot take logarithms")
    log_slope = th1 / th
    return 2.0 * (th2 / th - log_slope * log_slope)


def finite_gap_solution(spec: DegenerationSpec, phi, xs, ts, radius: int) -> np.ndarray:
    """u_{N+1}(x, t) = 2 d^2/dx^2 ln Theta(X(x,t) - Omega u/2) at finite epsilon.

    u = (1 - phi_1, ..., 1 - phi_N, 0); phi = 0 is the half-period tuning of
    the soliton solution.  phi is one draw, shape (N,), giving a result of
    shape (len(ts), len(xs)), or k draws, shape (k, N), giving (k, len(ts),
    len(xs)) from one lattice sum over all draws.  u is taken in closed form
    from Theta, Theta' and Theta'' at the points xs themselves.
    """
    sp = spec.spectrum
    n = len(sp)
    phi = np.asarray(phi, dtype=float)
    if phi.ndim not in (1, 2) or phi.shape[-1] != n:
        raise ValueError("phi must have one entry per soliton, shape (N,) or (k, N)")
    xs = np.asarray(xs, dtype=float)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    blocks = _pinched_blocks(sp)
    tables = _x_tables(sp, xs, radius, blocks)
    omega = _pinched_period_matrix(blocks, spec.lam, sp.curve.tau).omega
    u_big = _finite_gap_u(_finite_gap_theta(omega, sp, phi.reshape(-1, n), ts, tables), tables)
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
    the means are comparable trial by trial.  The lattice, its E tables and
    the off-diagonal period-matrix blocks do not depend on epsilon and are
    built once; each epsilon is then one lattice sum over all draws, taken to
    u as in finite_gap_solution.
    """
    n = len(spectrum)
    specs = [DegenerationSpec(epsilon=float(eps), spectrum=spectrum) for eps in epsilons]
    rng = np.random.default_rng(seed)
    phis = rng.uniform(-1.0, 1.0, size=(n_trials, n))
    xs = np.asarray(xs, dtype=float)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    u1 = cnoidal_reference(spectrum.curve, xs)
    blocks = _pinched_blocks(spectrum)
    tables = _x_tables(spectrum, xs, radius, blocks)
    means = []
    for spec in specs:
        omega = _pinched_period_matrix(blocks, spec.lam, spectrum.curve.tau).omega
        u_big = _finite_gap_u(_finite_gap_theta(omega, spectrum, phis, ts, tables), tables)
        means.append(float(np.mean(np.abs(u_big - u1).max(axis=(1, 2)))))
    return np.array(means)
