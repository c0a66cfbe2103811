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

Everything here is pure, and the results of a float call are immutable,
so they can be shared freely between threads or worker processes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np


__all__ = [
    "SystemParams",
    "DerivedKinematics",
    "derive_kinematics",
]


_EXTERNAL_KEYS = {"lam": "lambda", "Lam": "Lambda"}
_TINY = sys.float_info.min  # the smallest normal float


@dataclass(frozen=True)
class SystemParams:
    """Rest masses, speeds, the collision period and the derived scales.

    Fields ``lam`` and ``Lam`` are the spatial period ``v0*T`` and the cloud
    amplitude ``c*T``; they are spelled out because ``lambda`` is reserved in
    Python. External JSON/CSV interfaces use the keys ``lambda``/``Lambda``.
    The fields are floats, or equal-length arrays from an array call of
    `derive_kinematics`.
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
        """The fields in order, with ``lam`` and ``Lam`` under their external keys."""
        return {_EXTERNAL_KEYS.get(key, key): value for key, value in asdict(self).items()}


@dataclass(frozen=True)
class DerivedKinematics:
    nu: float             # oscillation frequency, 1 / (2 T)
    collision_rate: float # 1 / T
    E: float              # kinetic energy, M v0^2 / 2
    p0: float             # initial momentum, M v0
    mean_drift: float     # cycle-averaged particle velocity, v0 (1 - 2/pi)

    def to_dict(self) -> dict:
        return asdict(self)


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


def derive_kinematics(M0, v0, c, T) -> tuple[SystemParams, DerivedKinematics]:
    """Populate all kinematic scales from the four base inputs.

    Takes floats, or equal-length arrays of ``M0, v0, T`` at one float ``c``;
    then every field of the two results is an array whose entries have the
    bits of the float call on that draw. The cloud rest mass follows from the
    masses' velocity relation, ``m0 = M0 v0^2 / c^2``. A refused input, a
    cloud mass or length scale below the smallest normal float (``m0``,
    ``lam`` or ``Lam``) or a scale that overflows (any field that is not
    finite), named, raises a ValueError; an array call raises the float
    call's error for its first refused draw.

    Pure and deterministic: identical inputs give bitwise-identical outputs.
    """
    draws = isinstance(v0, np.ndarray)
    if draws:
        c = np.full(len(v0), c)
    else:
        _validate_base(M0, v0, c, T)  # float arithmetic raises on some refused inputs
    with np.errstate(all="ignore"):  # arrays give inf and NaN quietly, as floats do
        beta2 = _beta2(v0, c)
        m0 = M0 * beta2
        params = SystemParams(
            M0=M0, m0=m0, v0=v0, c=c, T=T,
            lam=v0 * T, Lam=c * T, M=_moving_mass(M0, beta2), m=_moving_mass(m0, beta2),
        )
        M = params.M
        kin = DerivedKinematics(1.0 / (2.0 * T), 1.0 / T, 0.5 * M * v0 * v0, M * v0, v0 * (1.0 - 2.0 / math.pi))
    fields = {**vars(params), **vars(kin)}
    if draws:
        # the conditions of `_validate_base`, the underflow loop and the finiteness loop
        valid = (M0 > 0.0) & (T > 0.0) & (0.0 < v0) & (v0 < c)
        valid &= (m0 >= _TINY) & (params.lam >= _TINY) & (params.Lam >= _TINY)
        for value in fields.values():
            valid &= np.isfinite(value)
        if not valid.all():
            i = int(np.argmin(valid))
            derive_kinematics(float(M0[i]), float(v0[i]), float(c[i]), float(T[i]))
        return params, kin
    for name in ("m0", "lam", "Lam"):
        if fields[name] < _TINY:
            raise ValueError(f"{name} = {fields[name]} underflows a float for M0={M0}, v0={v0}, c={c}, T={T}")
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} = {value} is not finite for M0={M0}, v0={v0}, c={c}, T={T}")
    return params, kin


def _beta2(v0, c):
    """``(v0/c)^2`` from floats or arrays, as the product ``r * r`` of ``r =
    v0/c``. Every square in this package is such a product, which IEEE 754
    rounds correctly on any platform, where a float ``**`` is the C
    library's ``pow``."""
    r = v0 / c
    return r * r


def _moving_mass(rest, beta2):
    """The relativistic mass ``rest / sqrt(1 - beta2)`` at ``beta2 =
    (v0/c)^2``, from floats or arrays, rounded as ``rest * (1 / sqrt(...))``.
    Every mass at speed ``v0``, and the period of an ``h``-given config, is
    taken with this one rounding."""
    sqrt = np.sqrt if isinstance(beta2, np.ndarray) else math.sqrt
    return rest * (1.0 / sqrt(1.0 - beta2))


def _square(value, name: str):
    """``value * value`` of a float or of each entry of an array; a square
    that overflows a float, or that falls below the smallest normal float
    from a nonzero ``value``, raises a ValueError naming ``name`` and the
    first refused value."""
    with np.errstate(over="ignore"):
        square = value * value
    refused = np.ravel((square == math.inf) | ((square < _TINY) & (value != 0.0)))
    if refused.any():
        first = float(np.ravel(value)[np.argmax(refused)])
        raise ValueError(f"{name}**2 {'under' if abs(first) < 1.0 else 'over'}flows a float ({name} = {first:.6g})")
    return square

