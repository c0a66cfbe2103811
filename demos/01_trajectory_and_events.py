"""Integrate the coupled particle/cloud motion for ten periods and look at
the reflection events that give the drift its stop-and-go character.

Writes trajectory.csv plus two SVG panels into ./demo_output.
"""

import os

from inertonsim import derive_kinematics, integrate, oracle_errors, write_trajectory_csv
from inertonsim.plotting import phase_plane_svg, trajectory_svg

OUT = "demo_output"
os.makedirs(OUT, exist_ok=True)

params, kin = derive_kinematics(M0=1.0, v0=1.0, c=10.0, T=1.0)
print("spatial period lambda =", params.lam)
print("cloud amplitude Lambda =", params.Lam)
print("oscillation frequency nu =", kin.nu)

traj = integrate(params, t_end=10.0 * params.T, dt=params.T / 1000.0)
print(f"\nintegrated {len(traj)} samples, {len(traj.events)} reflection events")

print("\n   n   event time      offset from n*T")
for n, t_ev in enumerate(traj.events, start=1):
    print(f"  {n:2d}   {t_ev:.12f}   {t_ev - n * params.T:+.3e}")

errs = oracle_errors(traj)
print("\nagreement with the closed-form solution (scaled):")
for key in ("X", "dXdt", "x", "dxdt"):
    print(f"  {key:5s} {errs[key]:.3e}")

write_trajectory_csv(traj, os.path.join(OUT, "trajectory.csv"))
trajectory_svg(traj, os.path.join(OUT, "trajectory.svg"))
phase_plane_svg(traj, os.path.join(OUT, "phase.svg"))
print(f"\nwrote {OUT}/trajectory.csv, trajectory.svg, phase.svg")
