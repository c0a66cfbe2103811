"""Spin channels, the total Hamiltonian and its Dirac linearization.

The intrinsic pulsation of the particle comes in two antipodal modes,
labelled up/down with sign ``e_alpha``. In a magnetic field the channels
split by ``e_alpha * e * hbar * B_z / (2 M)`` and project spin ``+hbar/2``
or ``-hbar/2`` on the field axis, with ``hbar`` the SI constant `HBAR` of
`constants`.

The full energy function ``c * sqrt(p^2 + pi^2 + M0^2 c^2)`` (``pi`` the
intrinsic momentum) linearizes at ``pi = 0`` into the standard 4x4 matrix
operator ``c alpha.p + rho3 M0 c^2``. The matrix algebra is verified
numerically: ten independent anticommutation identities, the squared
operator being a multiple of the identity plus the doubly degenerate
``+/- sqrt(c^2 p^2 + M0^2 c^4)`` spectrum. The positive branch is read as
a cloud wave running away from the particle and the negative branch as
the returning one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR

__all__ = [
    "SPIN_UP",
    "SPIN_DOWN",
    "SpinContext",
    "DiracOperator",
    "spin_eigenvalue",
    "spin_projection",
    "total_hamiltonian",
    "pauli_matrices",
    "dirac_matrices",
    "dirac_hamiltonian",
    "anticommutation_deviations",
    "classify_inerton_wave",
]

SPIN_UP = +1
SPIN_DOWN = -1

ArrayC = np.ndarray


@dataclass(frozen=True)
class SpinContext:
    """Channel sign, charge, field projection and mass.

    ``channel`` is +1 (up) or -1 (down).
    """

    channel: int
    e: float
    B_z: float
    M: float

    def __post_init__(self):
        if self.channel not in (SPIN_UP, SPIN_DOWN):
            raise ValueError(f"channel must be +1 or -1, got {self.channel}")


def spin_eigenvalue(ctx: SpinContext):
    """Channel energy ``e_alpha * e * hbar * B_z / (2 M)``, a float, or an
    array when ``e``, ``B_z`` or ``M`` are arrays; every mass must be positive."""
    masses = np.ravel(ctx.M)
    refused = ~(masses > 0.0)
    if refused.any():
        raise ValueError(f"mass must be positive, got {masses[refused][0]}")
    return ctx.channel * ctx.e * HBAR * ctx.B_z / (2.0 * ctx.M)


def spin_projection(channel: int) -> tuple[float, float, float]:
    """Spin components ``(S_z, S_x, S_y) = (channel * hbar/2, 0, 0)``."""
    if channel not in (SPIN_UP, SPIN_DOWN):
        raise ValueError(f"channel must be +1 or -1, got {channel}")
    return (channel * HBAR / 2.0, 0.0, 0.0)


def _sumsq(v):
    """``v * v`` of a magnitude, or the squares of the components on the last
    axis summed left to right, so that no BLAS ``dot`` decides the bits."""
    total = 0.0
    for component in np.moveaxis(np.atleast_1d(np.asarray(v, dtype=float)), -1, 0):
        total = total + component * component
    return total


def total_hamiltonian(p, pi, M0, c: float):
    """Full energy ``c sqrt(p^2 + pi^2 + M0^2 c^2)``.

    ``p`` and ``pi`` may be scalars (magnitudes), component sequences or
    stacks whose last axis holds the components, and ``M0`` a float or an
    array; the result is a float or, for stacks, an array. Each value has
    the bits of the one-momentum call, every square being a product (see
    test_total_hamiltonian_stack_matches_single_calls_bitwise). Monotone
    nondecreasing in both magnitudes.
    """
    energy = c * np.sqrt(_sumsq(p) + _sumsq(pi) + np.square(np.multiply(M0, c)))
    return energy if np.ndim(energy) else float(energy)


# ---------------------------------------------------------------------------
# Dirac matrices (standard representation)
# ---------------------------------------------------------------------------

def pauli_matrices() -> tuple[ArrayC, ArrayC, ArrayC]:
    sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    sy = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    sz = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    return sx, sy, sz


def dirac_matrices() -> tuple[ArrayC, ArrayC, ArrayC, ArrayC]:
    """The three alpha matrices and rho3 in the standard representation,
    ``alpha_i = offdiag(sigma_i, sigma_i)`` and ``rho3 = diag(1, 1, -1, -1)``,
    as fresh writable arrays."""
    g = np.zeros((4, 4, 4), dtype=np.complex128)
    for k, sigma in enumerate(pauli_matrices()):
        g[k, :2, 2:] = g[k, 2:, :2] = sigma
    eye = np.eye(2, dtype=np.complex128)
    g[3, :2, :2], g[3, 2:, 2:] = eye, -eye
    return tuple(g)


_GENERATORS = np.array(dirac_matrices())  # shared, so read-only
_GENERATORS.flags.writeable = False


def _dirac_stack(p, M0, c: float) -> ArrayC:
    """``c alpha.p + rho3 M0 c^2`` for momenta of shape (..., 3) and masses
    of shape (...): one 4x4 matrix per entry, shape (..., 4, 4)."""
    px, py, pz = np.moveaxis(np.asarray(p, dtype=float), -1, 0)[..., None, None]
    mass = np.asarray(M0, dtype=float)[..., None, None]
    ax, ay, az, rho3 = _GENERATORS
    return c * (ax * px + ay * py + az * pz) + rho3 * (mass * c * c)


def _square_deviations(H: ArrayC, energies) -> np.ndarray:
    """Max elementwise deviation of ``H @ H`` from ``e^2 I`` per matrix of
    the stack ``H`` (see test_dirac_stack_matches_single_operators_bitwise)."""
    target = np.square(np.ravel(energies))[:, None, None] * np.eye(4)
    return np.max(np.abs(H @ H - target), axis=(1, 2))


@dataclass(frozen=True)
class DiracOperator:
    """Linearized energy operator with its construction metadata.

    The matrix is Hermitian and traceless (every generator is traceless).
    """

    matrix: ArrayC
    p: tuple[float, float, float]
    M0: float
    c: float

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def expected_branch_energy(self) -> float:
        """The magnitude ``sqrt(c^2 p^2 + M0^2 c^4)`` both branches share."""
        return total_hamiltonian(self.p, 0.0, self.M0, self.c)

    def square_deviation(self) -> float:
        """Max elementwise deviation of H^2 from its identity multiple."""
        return float(_square_deviations(self.matrix[None], [self.expected_branch_energy()])[0])


def dirac_hamiltonian(p, M0: float, c: float) -> DiracOperator:
    """Build ``c alpha.p + rho3 M0 c^2`` for a 3-vector momentum."""
    px, py, pz = (float(v) for v in p)
    return DiracOperator(matrix=_dirac_stack((px, py, pz), M0, c), p=(px, py, pz), M0=M0, c=c)


def _anticommutator(a: ArrayC, b: ArrayC) -> ArrayC:
    return a @ b + b @ a


def anticommutation_deviations() -> dict[str, float]:
    """Max elementwise deviation of the ten independent algebra identities:
    six ``{alpha_i, alpha_j} = 2 delta_ij I``, three ``{alpha_i, rho3} = 0``
    and ``rho3^2 = I``."""
    ax, ay, az, rho3 = _GENERATORS
    eye = np.eye(4)
    alphas = {"alpha_x": ax, "alpha_y": ay, "alpha_z": az}
    names = list(alphas)
    out: dict[str, float] = {}
    for i, ni in enumerate(names):
        for nj in names[i:]:
            target = 2.0 * eye if ni == nj else 0.0 * eye
            dev = np.max(np.abs(_anticommutator(alphas[ni], alphas[nj]) - target))
            out[f"{{{ni},{nj}}}"] = float(dev)
    for ni in names:
        dev = np.max(np.abs(_anticommutator(alphas[ni], rho3)))
        out[f"{{{ni},rho3}}"] = float(dev)
    out["rho3^2"] = float(np.max(np.abs(rho3 @ rho3 - eye)))
    return out


def classify_inerton_wave(E: float) -> str:
    """Positive branch energies are outgoing cloud waves, negative ones
    incoming; zero and NaN have no direction and are rejected."""
    if E == 0.0 or math.isnan(E):
        raise ValueError(f"cannot classify a branch energy of {E}")
    return "outgoing" if E > 0.0 else "incoming"
