"""Feed a finely sampled trajectory through the Euler-Lagrange residual
of the model's own Lagrangian, channel by channel, and show that the
residuals, each divided by its channel's `residual_scale`, collapse when
the motion actually extremizes the action.

As a control, the same Lagrangian (the same ``params``) is checked along
the trajectory with one channel deliberately scaled by ten percent.  The
residual should jump by orders of magnitude, which is what makes this a
usable regression oracle.
"""

import os

from inertonsim import (
    closed_form_trajectory,
    derive_kinematics,
    el_residual,
    residual_scale,
    scale_channel,
    write_el_csv,
)

OUT = "demo_output"
os.makedirs(OUT, exist_ok=True)

# slow drift regime: the aggregate Lagrangian is stationary on the true
# motion up to terms of order (v0/c)^2, so pick v0 small to see it cleanly
params, kin = derive_kinematics(M0=1.0, v0=1.0e-4, c=1.0, T=1.0)
traj = closed_form_trajectory(params, t_end=2.0 * params.T)
res_X = el_residual(params, traj, "particle")
res_x = el_residual(params, traj, "cloud")

print("normalized Euler-Lagrange residuals on the true motion:")
print("  particle channel:", res_X.max_abs_residual / residual_scale(params, "particle"))
print("  cloud channel:   ", res_x.max_abs_residual / residual_scale(params, "cloud"))
print("  excluded event windows:", res_X.excluded_windows)

bad = scale_channel(traj, "particle", 1.1)
res_bad = el_residual(params, bad, "particle")
print("\nafter scaling the particle channel by 1.1:")
print(f"  residual grows {res_bad.max_abs_residual / res_X.max_abs_residual:.0f}x")

write_el_csv(res_X, os.path.join(OUT, "el_particle.csv"))
write_el_csv(res_x, os.path.join(OUT, "el_cloud.csv"))
print(f"\nwrote {OUT}/el_particle.csv and el_cloud.csv")
