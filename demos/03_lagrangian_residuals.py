"""Feed a finely sampled trajectory through the Euler-Lagrange residual
machinery, channel by channel, and show that the residuals collapse when
the motion actually extremizes the action.

As a control, the same pipeline is rerun with one channel deliberately
scaled by ten percent.  The residual should jump by orders of magnitude,
which is what makes this a usable regression oracle.
"""

import os

from inertonsim import (
    closed_form_trajectory,
    derive_kinematics,
    el_residual,
    eval_lagrangian_aggregate_shifted,
    scale_channel,
    write_el_csv,
)
from inertonsim.lagrangian import cloud_residual_scale, particle_residual_scale

OUT = "demo_output"
os.makedirs(OUT, exist_ok=True)

# slow drift regime: the aggregate Lagrangian is stationary on the true
# motion up to terms of order (v0/c)^2, so pick v0 small to see it cleanly
params, kin = derive_kinematics(M0=1.0, v0=1.0e-4, c=1.0, T=1.0)
traj = closed_form_trajectory(params, t_end=2.0 * params.T)


def lag(state):
    return eval_lagrangian_aggregate_shifted(state, params)


res_X = el_residual(lag, traj, "particle")
res_x = el_residual(lag, traj, "cloud")

print("normalized Euler-Lagrange residuals on the true motion:")
print("  particle channel:", res_X.max_abs_residual / particle_residual_scale(params))
print("  cloud channel:   ", res_x.max_abs_residual / cloud_residual_scale(params))
print("  excluded event windows:", res_X.excluded_windows)

bad = scale_channel(traj, "particle", 1.1)
res_bad = el_residual(lag, bad, "particle")
print("\nafter scaling the particle channel by 1.1:")
print(f"  residual grows {res_bad.max_abs_residual / res_X.max_abs_residual:.0f}x")

write_el_csv(res_X, os.path.join(OUT, "el_particle.csv"))
write_el_csv(res_x, os.path.join(OUT, "el_cloud.csv"))
print(f"\nwrote {OUT}/el_particle.csv and el_cloud.csv")
