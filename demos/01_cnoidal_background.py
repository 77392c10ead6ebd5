"""The cnoidal background wave.

Builds the standing genus-1 wave on the reference curve (e1, e2, e3) =
(2, 1, -3) and checks its basic structure: the half periods match the
elliptic-integral route, the wave is periodic with X = 4 i varpi3, and its
range is [e2/2, e1/2] as the trace formula predicts.
"""

import numpy as np

from cnoidal_kdv import build_context, build_spectrum, half_periods, u_grid

curve = half_periods(2.0, 1.0, -3.0)
print(f"half periods : varpi1 = {curve.varpi1:.6f}, varpi3 = {curve.varpi3:.6f}")
print(f"modulus      : tau = {curve.tau:.6f}, nome q = {curve.nome_q.real:.6f}")
print(f"spatial period X = 4 i varpi3 = {curve.period_x:.6f}")

ctx = build_context(build_spectrum(curve, []))
xs = np.linspace(-2 * curve.period_x, 2 * curve.period_x, 4001)
u = u_grid(ctx, xs, 0.0)

print(f"\ncnoidal wave over four periods:")
print(f"  max u = {u.max():.6f}   (trace formula: e1/2 = {curve.e1 / 2})")
print(f"  min u = {u.min():.6f}   (trace formula: e2/2 = {curve.e2 / 2})")

shift = u_grid(ctx, xs + curve.period_x, 0.0)
print(f"  periodicity defect max|u(x+X) - u(x)| = {np.max(np.abs(u - shift)):.2e}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    plt.figure(figsize=(8, 3))
    plt.plot(xs, u)
    plt.xlabel("x")
    plt.ylabel("u")
    plt.title("cnoidal background")
    plt.tight_layout()
    plt.savefig("cnoidal_background.png", dpi=120)
    print("\nwrote cnoidal_background.png")
except ImportError:
    pass
