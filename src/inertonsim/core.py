"""Parameters and algebraic relations of the particle / cloud oscillator.

A pointlike particle of rest mass ``M0`` travelling at speed ``v0`` drags
along a cloud of substrate excitations (inertons) with aggregate rest mass
``m0``. Particle and cloud trade momentum periodically: every ``T`` seconds
the cloud returns to the particle and is re-emitted. That single period
fixes every kinematic scale of the motion:

    lam = v0 * T      spatial oscillation period of the particle
    Lam = c * T       maximal particle-cloud separation
    nu  = 1 / (2 T)   frequency of the full oscillation cycle

``c`` is the propagation speed of the cloud (light speed in SI runs).
Masses are relativistic where it matters: ``M = M0 / sqrt(1 - v0^2/c^2)``
and the cloud mass satisfies ``m = M v0^2 / c^2``, which makes the two
rest masses obey ``m0 = M0 v0^2 / c^2``.

Everything here is immutable and pure, so values can be shared freely
between threads or worker processes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass


__all__ = [
    "SystemParams",
    "DerivedKinematics",
    "derive_kinematics",
    "mass_from_deformation",
    "coupling_coefficients",
    "coupling_from_speeds",
    "natural_params",
]


@dataclass(frozen=True)
class SystemParams:
    """Rest masses, speeds, the collision period and the derived scales.

    Fields ``lam`` and ``Lam`` are the spatial period ``v0*T`` and the cloud
    amplitude ``c*T``; they are spelled out because ``lambda`` is reserved in
    Python. External JSON/CSV interfaces use the keys ``lambda``/``Lambda``.
    """

    M0: float   # particle rest mass
    m0: float   # cloud rest mass
    v0: float   # initial particle speed
    c: float    # cloud propagation speed
    T: float    # particle-cloud collision period
    lam: float  # spatial oscillation period, v0 * T
    Lam: float  # cloud amplitude, c * T
    M: float    # relativistic particle mass
    m: float    # relativistic cloud mass

    def to_dict(self) -> dict:
        return {
            "M0": self.M0,
            "m0": self.m0,
            "v0": self.v0,
            "c": self.c,
            "T": self.T,
            "lambda": self.lam,
            "Lambda": self.Lam,
            "M": self.M,
            "m": self.m,
        }


@dataclass(frozen=True)
class DerivedKinematics:
    nu: float             # oscillation frequency, 1 / (2 T)
    collision_rate: float # 1 / T
    E: float              # kinetic energy, M v0^2 / 2
    p0: float             # initial momentum, M v0
    mean_drift: float     # cycle-averaged particle velocity, v0 (1 - 2/pi)

    def to_dict(self) -> dict:
        return {
            "nu": self.nu,
            "collision_rate": self.collision_rate,
            "E": self.E,
            "p0": self.p0,
            "mean_drift": self.mean_drift,
        }


def _validate_base(M0: float, v0: float, c: float, T: float) -> None:
    for name, value in (("M0", M0), ("v0", v0), ("c", c), ("T", T)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value}")
    if not (M0 > 0.0):
        raise ValueError(f"rest mass M0 must be positive, got {M0}")
    if not (T > 0.0):
        raise ValueError(f"collision period T must be positive, got {T}")
    if not (c > 0.0):
        raise ValueError(f"cloud speed c must be positive, got {c}")
    if not (0.0 < v0 < c):
        raise ValueError(f"initial speed must satisfy 0 < v0 < c, got v0={v0}, c={c}")


def derive_kinematics(
    M0: float,
    v0: float,
    c: float,
    T: float,
    m0: float | None = None,
) -> tuple[SystemParams, DerivedKinematics]:
    """Populate all kinematic scales from the four base inputs.

    ``m0`` normally follows from the masses' velocity relation,
    ``m0 = M0 v0^2 / c^2``. An explicit ``m0`` overrides the derived value;
    if it disagrees by more than 1e-9 relative, a warning is issued (the
    override is honoured either way).

    Pure and deterministic: identical inputs give bitwise-identical outputs.
    """
    _validate_base(M0, v0, c, T)

    beta2 = (v0 / c) ** 2
    gamma = 1.0 / math.sqrt(1.0 - beta2)
    M = M0 * gamma

    m0_derived = M0 * beta2
    if m0 is None:
        if not (m0_derived > 0.0):
            raise ValueError(
                f"cloud rest mass m0 = M0 (v0/c)^2 underflows to {m0_derived} "
                f"for M0={M0}, v0={v0}, c={c}"
            )
        m0 = m0_derived
    else:
        if not (math.isfinite(m0) and m0 > 0.0):
            raise ValueError(f"cloud rest mass m0 must be positive and finite, got {m0}")
        if abs(m0 - m0_derived) > 1.0e-9 * m0_derived:
            warnings.warn(
                f"explicit m0={m0!r} differs from the velocity-relation value "
                f"{m0_derived!r} by more than 1e-9 relative; keeping the override",
                stacklevel=2,
            )
    m = m0 * gamma

    params = SystemParams(
        M0=M0, m0=m0, v0=v0, c=c, T=T,
        lam=v0 * T, Lam=c * T, M=M, m=m,
    )
    kin = DerivedKinematics(
        nu=1.0 / (2.0 * T),
        collision_rate=1.0 / T,
        E=0.5 * M * v0 * v0,
        p0=M * v0,
        mean_drift=v0 * (1.0 - 2.0 / math.pi),
    )
    return params, kin


def mass_from_deformation(constant: float, cell_volume: float, particle_volume: float) -> float:
    """Mass induced by volumetric deformation of a substrate cell.

    The deformation rule is a plain ratio scaled by a dimensional constant:
    ``constant * cell_volume / particle_volume``.
    """
    if not (constant > 0.0):
        raise ValueError(f"dimensional constant must be positive, got {constant}")
    if not (cell_volume > 0.0):
        raise ValueError(f"cell volume must be positive, got {cell_volume}")
    if not (particle_volume > 0.0):
        raise ValueError(f"particle volume must be positive, got {particle_volume}")
    return constant * cell_volume / particle_volume


def coupling_coefficients(params: SystemParams) -> tuple[float, float]:
    """Dimensionless mass-ratio couplings of the interaction operator.

    Returns ``(sqrt(m/M), sqrt(M/m))``, which collapse to ``(v0/c, c/v0)``
    because of the mass-velocity relation. Their product is 1.
    """
    forward = math.sqrt(params.m / params.M)
    backward = math.sqrt(params.M / params.m)
    return forward, backward


def coupling_from_speeds(v0: float, c: float) -> tuple[float, float]:
    """Per-inerton coupling pair ``(v0/c, c/v0)`` for a given emission speed."""
    if not (0.0 < v0 < c):
        raise ValueError(f"speeds must satisfy 0 < v0 < c, got v0={v0}, c={c}")
    return v0 / c, c / v0


def natural_params() -> SystemParams:
    """The natural test-unit configuration: M0=1, v0=1, c=10, T=1."""
    params, _ = derive_kinematics(M0=1.0, v0=1.0, c=10.0, T=1.0)
    return params
