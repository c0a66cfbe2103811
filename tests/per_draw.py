"""The per-draw forms that the array passes of `inertonsim` are tested against."""

import math

import numpy as np

from inertonsim import SystemParams, derive_kinematics


def sample_params(rng: np.random.Generator) -> SystemParams:
    """Draw natural-unit parameters log-uniformly, one scalar call each:
    v0/c in [0.01, 0.9], T in [0.1, 10], M0 in [0.1, 10], with c = 1."""
    v0 = math.exp(rng.uniform(math.log(0.01), math.log(0.9)))
    T = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
    M0 = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
    params, _ = derive_kinematics(M0=M0, v0=v0, c=1.0, T=T)
    return params
