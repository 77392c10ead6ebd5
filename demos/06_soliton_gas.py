"""Soliton gas on the cnoidal background: dispersion relations and tracers.

Solves the coupled integral equations for the density of states u and flux
v on a hot support, checks the equation of state for the effective speed
s = -v/u, and compares a tracer's averaged shift through a concentrated gas
against the two-soliton scattering formula.
"""

import numpy as np

from cnoidal_kdv import (
    GasInterval,
    JacobianPoint,
    build_model,
    carrier_quantities,
    equation_of_state_residual,
    free_speeds,
    half_periods,
    ndr_solve,
    pair_shifts,
    tracer_shift,
)

curve = half_periods(2.0, 1.0, -3.0)

model = ndr_solve(build_model(curve, [GasInterval(0, 0.15, 0.40)], sigma=1.0,
                              n_per_interval=64))
s = model.speeds
s0 = free_speeds(model)
k_t, w_t = carrier_quantities(model)
print("moderate-density hot gas (sigma = 1) on beta in (0.15, 0.40):")
print(f"  u range [{model.solved_u.min():.4f}, {model.solved_u.max():.4f}]")
print(f"  speeds s = -v/u in [{s.min():.4f}, {s.max():.4f}] "
      f"(free speeds in [{s0.min():.4f}, {s0.max():.4f}])")
print(f"  gas slows its members: max s - s0 = {np.max(s - s0):.4f}")
print(f"  carrier wave number k~ = {k_t:.6f}, frequency w~ = {w_t:.6f}")
print(f"  equation-of-state residual = {equation_of_state_residual(model):.2e}")

dilute = ndr_solve(build_model(curve, [GasInterval(0, 0.15, 0.40)], sigma=1e6,
                               n_per_interval=64))
print(f"\ndilute limit (sigma = 1e6): max|s - s0| = "
      f"{np.max(np.abs(dilute.speeds - s0)):.2e}")

# tracer through a nearly point-like gas == one pairwise collision
center, width = 0.36, 0.004
bump_model = build_model(curve, [GasInterval(1, 0.355, 0.365)], 1.0, 64)
dens = np.maximum(0.0, 1.0 - np.abs(bump_model.nodes_r - center) / width) / width
eta = JacobianPoint(0.25 + curve.tau / 2, 1)
s_tracer = tracer_shift(bump_model, dens, eta)
_, d_slow = pair_shifts(JacobianPoint(center + curve.tau / 2, 1), eta, curve)
print(f"\ntracer at beta = 1/4 + tau/2 through a unit bump at 0.36 + tau/2:")
print(f"  gas formula {s_tracer:+.5f} vs pairwise shift {d_slow:+.5f}")
