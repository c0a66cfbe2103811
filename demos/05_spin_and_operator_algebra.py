"""Tour of the spin-resolved energy channels and the 4x4 relativistic
operator built from the anticommuting generator matrices.

The two internal circulation senses give equal and opposite channel
energy, an electron in a 1 tesla field splits by the Bohr magneton, and
the operator's square reproduces the energy-momentum relation for every
momentum, each level doubly degenerate.
"""

import numpy as np

from inertonsim import (
    SPIN_DOWN,
    SPIN_UP,
    SpinContext,
    anticommutation_deviations,
    classify_inerton_wave,
    dirac_hamiltonian,
    spin_eigenvalue,
    spin_projection,
)
from inertonsim.constants import ELECTRON_MASS, ELEMENTARY_CHARGE, HBAR

electron = dict(e=ELEMENTARY_CHARGE, B_z=1.0, M=ELECTRON_MASS)
up = spin_eigenvalue(SpinContext(channel=SPIN_UP, **electron))
dn = spin_eigenvalue(SpinContext(channel=SPIN_DOWN, **electron))
print("electron in a 1 T field:")
print("  channel energy, up:  ", up, "J  (the Bohr magneton)")
print("  channel energy, down:", dn, "J")
print("  sum (exact antisymmetry):", up + dn)
print("  spin projections:", spin_projection(SPIN_UP), spin_projection(SPIN_DOWN))
print("  hbar/2 for comparison:", HBAR / 2.0)

print("\ngenerator algebra, max deviation per identity:")
for name, dev in anticommutation_deviations().items():
    print(f"  {name:20s} {dev:.1e}")

rng = np.random.default_rng(7)
worst = 0.0
for _ in range(20):
    p = tuple(rng.uniform(-2.0, 2.0, size=3))
    op = dirac_hamiltonian(p=p, M0=1.0, c=1.0)
    worst = max(worst, op.square_deviation() / op.expected_branch_energy() ** 2)
print("\nworst relative deviation of H^2 from its identity multiple,")
print("over 20 random momenta:", worst)

print("\nspectrum at the last momentum:", op.eigenvalues())
print("expected +/-", op.expected_branch_energy(), "each twice")
for E in (op.expected_branch_energy(), -op.expected_branch_energy()):
    print(f"  branch {E:+.4f} carries an {classify_inerton_wave(E)} cloud wave")
