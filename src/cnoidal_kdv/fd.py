"""Shared fourth-order central finite-difference stencils.

One differentiation engine serves the tau-function second log-derivative
and the PDE residual verifier.  The D2 stencil that takes u = 2 (ln tau)_xx
has its step and its sampling grid here only.  The random-phase experiments
take u = 2 (ln Theta)_xx in closed form instead (riemann._finite_gap_theta).
"""

import numpy as np

# offsets in units of h
D1_OFFSETS = np.array([-2, -1, 1, 2])
D1_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0

D2_OFFSETS = np.array([-2, -1, 0, 1, 2])
D2_WEIGHTS = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0

D3_OFFSETS = np.array([-3, -2, -1, 1, 2, 3])
D3_WEIGHTS = np.array([1.0, -8.0, 13.0, -13.0, 8.0, -1.0]) / 8.0


def d2_step(period: float) -> float:
    """Step h of the D2 stencil for a field of spatial period `period`: 1e-3 of it."""
    return 1e-3 * period


def d2_grid(xs: np.ndarray, h: float) -> np.ndarray:
    """The D2 stencil points x + k h, k = -2..2, of every x in xs, flattened x-major."""
    return (xs[:, None] + h * D2_OFFSETS[None, :]).ravel()


def second_derivative(samples, h: float):
    """f'' from samples at x + k h, k = -2..2, along the last axis."""
    return np.asarray(samples) @ D2_WEIGHTS / (h * h)


def first_derivative_axis(field, h: float, axis: int):
    """4th-order df/dx on the interior of a sampled field (trims 2 per side)."""
    f = np.moveaxis(np.asarray(field), axis, 0)
    n = f.shape[0]
    out = np.zeros_like(f[2:n - 2])
    for k, w in zip(D1_OFFSETS, D1_WEIGHTS):
        out += w * f[2 + k:n - 2 + k]
    return np.moveaxis(out / h, 0, axis)


def third_derivative_axis(field, h: float, axis: int):
    """4th-order d3f/dx3 on the interior of a sampled field (trims 3 per side)."""
    f = np.moveaxis(np.asarray(field), axis, 0)
    n = f.shape[0]
    out = np.zeros_like(f[3:n - 3])
    for k, w in zip(D3_OFFSETS, D3_WEIGHTS):
        out += w * f[3 + k:n - 3 + k]
    return np.moveaxis(out / h ** 3, 0, axis)
