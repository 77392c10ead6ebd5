"""Scattering of two retrograde solitons and the conveyer-belt effect.

The reference pair beta = 1/4 + tau/2 and 0.36 + tau/2 gives velocities
-8.94427 and -8.4810443 and averaged shifts -17.32 / +22.878: the faster
soliton is thrown forward, the slower pushed back.  Across each disturbance
the background cnoidal wave phase jumps by beta_j - beta_j^star, which the
window fit recovers directly from the field.
"""

from cnoidal_kdv import (
    JacobianPoint,
    background_shift_probe,
    build_context,
    group_velocity,
    half_periods,
    pair_shifts,
    spectrum_from_points,
    total_shift_schedule,
)

curve = half_periods(2.0, 1.0, -3.0)
slow = JacobianPoint(0.25 + curve.tau / 2, 1)
fast = JacobianPoint(0.36 + curve.tau / 2, 1)
print(f"V(1/4 + tau/2) = {group_velocity(slow, curve):.7f}")
print(f"V(0.36 + tau/2) = {group_velocity(fast, curve):.7f}")

d_fast, d_slow = pair_shifts(fast, slow, curve)
print(f"averaged shifts: faster {d_fast:+.3f}, slower {d_slow:+.3f}")

sp = spectrum_from_points(curve, [(slow, 0.0), (fast, 0.0)])
print(f"schedule (same numbers through the N-soliton formula): "
      f"{total_shift_schedule(sp)}")

# conveyer belt: one hot + one cool soliton, probed long after separation
hot = JacobianPoint(0.30 + 0j, 0)
cool = JacobianPoint(0.24 + curve.tau / 2, 1)
sp2 = spectrum_from_points(curve, [(cool, 0.0), (hot, 0.0)])
ctx = build_context(sp2)
v_hot = group_velocity(hot, curve)
v_cool = group_velocity(cool, curve)
t = 100.0 / v_hot
windows = [(v_hot * t + 100, v_hot * t + 106), (-20.0, -14.0),
           (v_cool * t - 116, v_cool * t - 110)]
right, middle, left = background_shift_probe(ctx, t, windows)
shift_a = sp2.background_shift_A
mu_hot = hot.mu()
print(f"\nbackground phases at t = 100/V_hot (window fits, mod 1):")
print(f"  right of both solitons : {right:.5f}   expect -A       = {(-shift_a) % 1:.5f}")
print(f"  between the solitons   : {middle:.5f}   expect -A + mu1 = {(-shift_a + mu_hot) % 1:.5f}")
print(f"  left of both solitons  : {left:.5f}   expect +A       = {shift_a % 1:.5f}")
