"""Derived experimental quantities: scattering bounds and resonator geometry.

Two desk-scale numbers fall out of the kinematics. First, the interaction
cross-section of a particle dressed by its cloud is bracketed by the two
squared length scales of the motion, ``lam^2`` below and ``Lam^2`` above.
Second, a spherical body of radius ``R`` acts as a resonator for cloud
waves along two closed paths, the circumference ``2 pi R`` and the
diametral round trip ``4 R``, whose ratio is ``pi/2`` for any radius.

Both functions take floats or arrays (a `SystemParams` of arrays, an array
of radii); every entry of an array field has the bits of the float call on
that entry, and an array call is refused if any entry is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import M2_TO_CM2
from .core import SystemParams, _square

__all__ = [
    "CrossSectionBounds",
    "ResonatorGeometry",
    "cross_section_bounds",
    "resonator_dimensions",
]


@dataclass(frozen=True)
class CrossSectionBounds:
    """Lower/upper cross-section bounds in m^2; ``lower < upper`` whenever
    ``v0 < c``."""

    lower: float
    upper: float

    def to_cm2(self) -> tuple[float, float]:
        return (self.lower * M2_TO_CM2, self.upper * M2_TO_CM2)


@dataclass(frozen=True)
class ResonatorGeometry:
    L1: float    # circumference path, 2 pi R
    L2: float    # diametral round trip, 4 R
    ratio: float # L1 / L2 = pi / 2, independent of R


def cross_section_bounds(params: SystemParams) -> CrossSectionBounds:
    """Bracket the dressed-particle cross-section by ``(lam^2, Lam^2)``; a
    square that overflows or underflows a float raises a ValueError naming
    its length."""
    return CrossSectionBounds(lower=_square(params.lam, "lam"), upper=_square(params.Lam, "Lam"))


def resonator_dimensions(R) -> ResonatorGeometry:
    """Closed wave paths of a spherical resonator of radius ``R > 0``."""
    if not np.all(R > 0.0):
        raise ValueError(f"radius must be positive, got {R}")
    L1 = 2.0 * math.pi * R
    L2 = 4.0 * R
    return ResonatorGeometry(L1=L1, L2=L2, ratio=L1 / L2)
