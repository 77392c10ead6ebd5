"""Hot (bright, forward) and cool (dim, retrograde) solitons.

Reproduces the two single-soliton figures: the hot spectral point
b ~ -5.3595 (beta = 0.30) rides brighter than the background and moves
right with V ~ 6.8273; the cool point c ~ 1.50356 (beta = 0.24 + tau/2)
dents the background and moves left with V ~ -8.99139.  The tracked center
of each disturbance moves by V * t plus a bounded periodic wobble.
"""

import numpy as np
from scipy.ndimage import maximum_filter1d

from cnoidal_kdv import (
    JacobianPoint,
    group_velocity,
    half_periods,
    spectrum_from_points,
    track_phase,
    u_grid,
    wp_on_segment,
)

curve = half_periods(2.0, 1.0, -3.0)

for name, beta, chi in (("bright/hot", 0.30 + 0j, 0),
                        ("dim/cool", 0.24 + curve.tau / 2, 1)):
    pt = JacobianPoint(beta=beta, chi=chi)
    b = wp_on_segment(pt, curve)
    v = group_velocity(pt, curve)
    spectrum = spectrum_from_points(curve, [(pt, 0.0)])
    print(f"{name}: spectral point b = {b:.5f}, group velocity V = {v:.5f}")

    t1 = 10.0 / abs(v)
    for t in (0.0, t1):
        xs = np.linspace(v * t - 12, v * t + 12, 2401)
        u = u_grid(spectrum, xs, t)
        # upper envelope over one background period: the hot soliton lifts
        # it, the dim one dents it
        win = int(round(curve.period_x / (xs[1] - xs[0])))
        env = maximum_filter1d(u, size=win)
        core = xs[np.argmax(env) if chi == 0 else np.argmin(env)]
        print(f"  t = {t:7.4f}: envelope extremum of the disturbance near x = {core:+.3f}")
    phi0 = track_phase(pt, curve, 1.0, 0.0)
    phi1 = track_phase(pt, curve, 1.0, t1)
    print(f"  tracked center moved {v * t1 + phi1 - phi0:+.4f} over t = 10/|V| "
          f"(ballistic part exactly {v * t1:+.1f})\n")
