"""N-soliton KdV solutions on a cnoidal background.

Fredholm-determinant tau functions for solitons on the elliptic (cnoidal)
standing wave, their velocities and scattering shifts, degeneration and
random-phase experiments for the underlying Riemann theta functions, and the
nonlinear dispersion relations of the soliton gas on that background.
"""

__version__ = "0.1.0"

from .elliptic import (
    CurveParams,
    JacobianPoint,
    half_periods,
    invert_wp,
    theta1,
    theta3,
    weierstrass,
    wp_on_segment,
    zeta_half_period,
)
from .tau import (
    SolitonSpectrum,
    build_spectrum,
    g_matrix,
    kdv_residual,
    logdet_x_analytic,
    spectrum_from_points,
    tau_grid,
    u_field,
    u_grid,
)
from .riemann import (
    DegenerationSpec,
    PeriodMatrix,
    degenerate_period_matrix,
    degeneration_residual,
    fay_residual,
    random_phase_mc,
    random_phase_trial,
    theta_lattice_sum,
)
from .dynamics import (
    TrackedSoliton,
    background_shift_probe,
    group_velocity,
    mean_track_phase,
    pair_shifts,
    total_shift_schedule,
    track_phase,
    track_soliton,
)
from .gas import (
    GasInterval,
    GasModel,
    build_model,
    carrier_quantities,
    equation_of_state_residual,
    free_speeds,
    interaction_kernel,
    interval_from_physical,
    ndr_solve,
    tracer_shift,
)

__all__ = [
    "CurveParams", "JacobianPoint", "half_periods", "invert_wp", "theta1", "theta3",
    "weierstrass", "wp_on_segment", "zeta_half_period", "SolitonSpectrum",
    "build_spectrum", "g_matrix", "kdv_residual", "logdet_x_analytic",
    "spectrum_from_points", "tau_grid", "u_field", "u_grid", "DegenerationSpec", "PeriodMatrix",
    "degenerate_period_matrix", "degeneration_residual", "fay_residual",
    "random_phase_mc", "random_phase_trial", "theta_lattice_sum", "TrackedSoliton",
    "background_shift_probe", "group_velocity", "mean_track_phase", "pair_shifts",
    "total_shift_schedule", "track_phase", "track_soliton", "GasInterval",
    "GasModel", "build_model", "carrier_quantities", "equation_of_state_residual",
    "free_speeds", "interaction_kernel", "interval_from_physical", "ndr_solve",
    "tracer_shift",
]
