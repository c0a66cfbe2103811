"""Lagrangian evaluators and numerical Euler-Lagrange verification.

Two forms of one Lagrangian describe the pair:

* the aggregate form over ``(X, dX/dt, x, dx/dt)``, a square root whose
  radicand couples particle and cloud through the collision period, also
  shifted by the rest energy for finite differences;
* the canonical form, the same function rewritten in a shifted cloud
  velocity that turns the coupling into an explicit harmonic term in X.

`el_residual` checks whether a sampled trajectory satisfies the
Euler-Lagrange equations of a given evaluator. Both partial derivatives
come from symmetric state perturbations and the time derivative from
symmetric differencing along the samples, so the test needs nothing but
the evaluator as a black box. Reflection instants carry genuine velocity
kinks, so a window of five samples on either side of each event is
excluded from the residual maximum and reported as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _text
from .core import SystemParams
from .dynamics import SAMPLE_FIELDS, UNITS, Trajectory

__all__ = [
    "ELResidualReport",
    "eval_lagrangian_aggregate",
    "eval_lagrangian_aggregate_shifted",
    "eval_lagrangian_canonical",
    "kappa_transform",
    "el_residual",
    "particle_residual_scale",
    "cloud_residual_scale",
    "scale_channel",
    "write_el_csv",
]


def _bracket_aggregate(s, p: SystemParams):
    """The coupling bracket inside the aggregate radicand."""
    w2 = 2.0 * math.pi / p.T
    root = p.M0 * (p.v0 / p.c)  # sqrt(M0 m0) from m0 = M0 (v0/c)^2; the product M0 m0 underflows for a tiny M0
    return (
        p.M0 * s["dXdt"] * s["dXdt"]
        + p.m0 * s["dxdt"] * s["dxdt"]
        - w2 * root * (s["X"] * s["dxdt"] + p.v0 * s["x"])
    )


def _bracket_canonical(s, p: SystemParams):
    w = math.pi / p.T
    root = p.M0 * (p.v0 / p.c)  # sqrt(M0 m0), as in `_bracket_aggregate`
    return (
        p.M0 * s["dXdt"] * s["dXdt"]
        - p.M0 * w * w * s["X"] * s["X"]
        + p.m0 * s["kappa_rate"] * s["kappa_rate"]
        - 2.0 * w * root * p.v0 * s["x"]
    )


def _radicand(bracket, p: SystemParams):
    return 1.0 - bracket / (p.M0 * p.c * p.c)


def _refused(radicand):
    """The validity test: a negative radicand lies outside the model."""
    return radicand < 0.0


def _root(bracket, p: SystemParams):
    """Square root of the radicand; raises if any entry is refused."""
    radicand = _radicand(bracket, p)
    refused = _refused(radicand)
    if np.any(refused):
        least = np.min(radicand, initial=np.inf, where=refused)  # NaN entries are not refused
        raise ValueError(
            f"Lagrangian radicand is negative ({least:.6e}); the state lies "
            "outside the model's validity region"
        )
    return np.sqrt(radicand)


def _sqrt_form(bracket, p: SystemParams):
    return -(p.M0 * p.c * p.c) * _root(bracket, p)


def _admitted(s, p: SystemParams) -> np.ndarray:
    """Mask of the states both Lagrangians evaluate (see
    test_admitted_is_exactly_where_both_evaluators_accept)."""
    brackets = (_bracket_aggregate(s, p), _bracket_canonical(kappa_transform(s, p), p))
    return ~(_refused(_radicand(brackets[0], p)) | _refused(_radicand(brackets[1], p)))


def eval_lagrangian_aggregate(s, p: SystemParams):
    """Aggregate pair Lagrangian, exact square-root form. The fields of
    state ``s`` may be scalars or equal-length arrays."""
    return _sqrt_form(_bracket_aggregate(s, p), p)


def eval_lagrangian_aggregate_shifted(s, p: SystemParams):
    """Aggregate Lagrangian shifted by the rest energy: the same function
    plus ``M0 c^2``, computed as ``bracket / (1 + sqrt(radicand))``.

    Additive constants drop out of the Euler-Lagrange equations, so this
    evaluator has identical variational content. Numerically it matters: for
    nearly-free states the plain form is a tiny increment riding on
    ``-M0 c^2`` and finite differences lose most of their digits to
    cancellation, while this rearrangement keeps full precision. The fields
    of ``s`` may be scalars or equal-length arrays.
    """
    bracket = _bracket_aggregate(s, p)
    return bracket / (1.0 + _root(bracket, p))


def eval_lagrangian_canonical(s, p: SystemParams):
    """Canonical-variable Lagrangian of a state in the transformed variables
    (see `kappa_transform`); equals the aggregate value on transformed states
    (exact algebraic identity)."""
    return _sqrt_form(_bracket_canonical(s, p), p)


def kappa_transform(s, p: SystemParams) -> dict:
    """Shift the cloud velocity by the particle coordinate term: the state
    as a dict with the keys ``t, X, dXdt, kappa_rate, x``, where
    ``kappa_rate = dxdt - (pi/T) X sqrt(M0/m0)`` replaces ``dxdt``."""
    if p.m0 <= 0.0:
        raise ValueError(f"transform needs m0 > 0, got {p.m0}")
    shift = (math.pi / p.T) * s["X"] * math.sqrt(p.M0 / p.m0)
    return dict(t=s["t"], X=s["X"], dXdt=s["dXdt"], kappa_rate=s["dxdt"] - shift, x=s["x"])


# ---------------------------------------------------------------------------
# Euler-Lagrange residuals
# ---------------------------------------------------------------------------

_COORDS = {
    "particle": ("X", "dXdt"),
    "cloud": ("x", "dxdt"),
}
# Finite-difference step of `el_residual`, relative to each channel's largest magnitude.
EL_FD_STEP = 1.0e-6


@dataclass
class ELResidualReport:
    """Residual ``d/dt(dL/dqdot) - dL/dq`` per interior sample.

    ``times``/``residuals``/``excluded`` are aligned; ``max_abs_residual``
    is taken over the non-excluded samples only. ``excluded_windows`` lists
    the event neighbourhoods as ``(t_lo, t_hi)`` pairs.
    """

    coordinate: str
    times: np.ndarray
    residuals: np.ndarray
    excluded: np.ndarray
    excluded_windows: list[tuple[float, float]]
    max_abs_residual: float


def particle_residual_scale(p: SystemParams) -> float:
    """Natural force scale of the particle channel, ``M0 v0 pi / T``."""
    return p.M0 * p.v0 * math.pi / p.T


def cloud_residual_scale(p: SystemParams) -> float:
    """Natural force scale of the cloud channel, ``m0 c pi / T``."""
    return p.m0 * p.c * math.pi / p.T


def el_residual(L, traj: Trajectory, coord: str) -> ELResidualReport:
    """Euler-Lagrange residual of evaluator ``L`` along a trajectory.

    ``L`` maps a state whose fields are equal-length arrays to the array
    of Lagrangian values, elementwise (the evaluators in this module do).
    ``coord`` selects the varied channel, ``"particle"`` for
    ``(X, dXdt)`` or ``"cloud"`` for ``(x, dxdt)``. Each perturbation is
    ``EL_FD_STEP`` times the channel's largest magnitude over the trajectory.

    The trajectory must have at least nine samples. Residuals are computed
    at every interior sample; samples within five grid points of a
    reflection event are flagged and left out of ``max_abs_residual``.
    """
    if coord not in _COORDS:
        raise ValueError(f"coord must be one of {sorted(_COORDS)}, got {coord!r}")
    q_name, qdot_name = _COORDS[coord]

    n = len(traj)
    if n < 9:
        raise ValueError(f"need at least 9 samples for the residual stencil, got {n}")
    # The run's columns, each a contiguous row of one block; the state is
    # the first five, and the sixth, which no evaluator reads, takes the momenta.
    block = np.empty((len(SAMPLE_FIELDS), n))
    traj.as_arrays(slice(None), block.T)
    state = dict(zip(SAMPLE_FIELDS[:5], block))
    t, dt = state["t"], traj.dt
    q, qdot = state[q_name], state[qdot_name]
    dq = EL_FD_STEP * (float(np.max(np.abs(q))) or 1.0)
    dqdot = EL_FD_STEP * (float(np.max(np.abs(qdot))) or 1.0)

    # Conjugate momentum dL/dqdot at every sample, force dL/dq at interior ones.
    inner = {name: col[1:-1] for name, col in state.items()}
    with np.errstate(all="ignore"):  # a residual that overflows is inf or NaN, for the caller to judge
        momenta = np.subtract(
            L({**state, qdot_name: qdot + dqdot}), L({**state, qdot_name: qdot - dqdot}), out=block[5]
        )
        momenta /= 2.0 * dqdot
        force = (L({**inner, q_name: q[1:-1] + dq}) - L({**inner, q_name: q[1:-1] - dq})) / (2.0 * dq)
        residuals = (momenta[2:] - momenta[:-2]) / (2.0 * dt) - force

    times = t[1:-1].copy()  # so that the report does not keep the block alive
    excluded = np.zeros(n - 2, dtype=bool)
    windows: list[tuple[float, float]] = []
    for t_ev in traj.events:
        j = round(t_ev / dt)
        lo_idx = max(j - 5, 0)
        hi_idx = min(j + 5, n - 1)
        windows.append((float(t[lo_idx]), float(t[hi_idx])))
        # Interior index i maps to residual slot i - 1.
        excluded[max(lo_idx - 1, 0):min(hi_idx, n - 2)] = True

    kept = residuals[~excluded]
    max_abs = float(np.max(np.abs(kept))) if kept.size else float("nan")
    return ELResidualReport(
        coordinate=coord,
        times=times,
        residuals=residuals,
        excluded=excluded,
        excluded_windows=windows,
        max_abs_residual=max_abs,
    )


def scale_channel(traj: Trajectory, coord: str, factor: float) -> Trajectory:
    """Corrupt one channel of a trajectory by a multiplicative factor.

    Scaling a path scales its time derivative with it, so both the
    coordinate and its velocity are multiplied. A scaled channel is no
    rotation state, so the trajectory keeps its ``w`` and the channel's
    units in its ``params`` are scaled (``lam`` and ``v0``, or ``Lam`` and
    ``c``, by `dynamics.UNITS`): `Trajectory.as_arrays`, what `el_residual`
    reads, gives the scaled path. Used in sensitivity studies: a valid
    trajectory stops satisfying the Euler-Lagrange equations once a channel
    is rescaled, and the residual should say so loudly.
    """
    if coord not in _COORDS:
        raise ValueError(f"coord must be one of {sorted(_COORDS)}, got {coord!r}")
    p = traj.params
    units = [UNITS[name] for name in _COORDS[coord]]
    return replace(traj, params=replace(p, **{unit: getattr(p, unit) * factor for unit in units}))


def write_el_csv(report: ELResidualReport, path) -> None:
    """Serialize a residual report: ``t,residual,excluded_flag`` rows.

    Floats are ``%.17g`` (NaN as ``nan``), rendered by `_text.g17` and
    written by `_text.write_csv` in chunks of ``_text.CHUNK_ROWS // 2`` =
    4,096 rows, the rows whose two float columns make `_text.CHUNK_ROWS`
    values, each chunk's two columns stacked into its float block.
    """
    _text.write_csv(
        path,
        "t,residual,excluded_flag",
        lambda rows, out: np.stack([report.times[rows], report.residuals[rows]], axis=1, out=out),
        report.excluded,
    )
