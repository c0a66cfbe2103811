"""Hybrid integrator and closed-form reference motion of the pair.

Between contacts the particle coordinate ``X`` and the cloud separation
``x`` obey a linear coupled system,

    d2X/dt2 = -(pi/T) (v0/c) dx/dt
    d2x/dt2 =  (pi/T) (c/v0) (dX/dt - v0)

with initial data ``X=0, dX/dt=v0, x=0, dx/dt=c``. The separation is a
distance, so the plain ODEs are only half the story: when ``x`` returns to
zero the cloud bounces off the particle and its velocity flips sign. The
integrator therefore treats ``x = 0`` as a guard surface (crossed from
above, ``dx/dt < 0``) with the reset ``dx/dt -> -dx/dt``, i.e. an
event-driven hybrid system.

In the dimensionless units ``tau = t/T``, ``xi = X/lam``, ``V = dXdt/v0``,
``chi = x/Lam`` and ``U = dxdt/c`` the system has no parameters at all:
``y = (xi, V, chi, U, 1)`` obeys ``dy/dtau = A y`` with the fixed
homogeneous generator `GENERATOR`. The integrator works in these units and
scales to physical ones only when it packs the output columns.

Stepping is classical fixed-step fourth-order Runge-Kutta on a uniform
grid; adaptive schemes were deliberately avoided so that a run is a pure
function of ``(params, t_end, dt)``. On a linear constant-coefficient
system one RK4 step of length ``h = dt/T`` is the fixed affine map
``P = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24``, the degree-4 Taylor
polynomial of ``exp(hA)``. The integrator tabulates ``P^1..P^B`` once per
run (``B <= BLOCK_STEPS``) and advances a whole block of samples from the
block's start state with one pass over that table, so memory stays linear
in the number of samples.

A step that ends with ``x < 0`` from ``x >= 0`` contains a reflection. The
partial step of length ``s`` is the quartic ``sum_k (A^k y) s^k / k!``, and
Newton's method on its ``x`` component, started from the linear guess,
locates the crossing to ``|x| <= 1e-12 * Lam``. The remainder of the step
is then taken from the reflected state, so samples stay on the grid, and
the next block starts from there.

The exact motion is known in closed form and `closed_form` evaluates it,
with the branch at contact instants ``t = n T`` resolved to the right
(post-reflection) side so the state is right-continuous there.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _text
from .core import SystemParams

__all__ = [
    "Trajectory",
    "DivergenceError",
    "GENERATOR",
    "SAMPLE_DTYPE",
    "integrate",
    "step_count",
    "closed_form",
    "closed_form_trajectory",
    "invariant_residual",
    "oracle_errors",
    "write_trajectory_csv",
    "write_events_json",
]

# Guard and probe tolerances (see module docstring and integrate()).
EVENT_X_TOL = 1.0e-12       # Newton target on |x|, in units of Lam
EVENT_SLACK = 1.0e-9        # samples may sit this far below x=0, in units of Lam
# A crossing whose true time is exactly t_end can land slightly past it
# numerically: the integrator's phase lag grows like dt**4 and reaches
# ~2e-8 T per ten periods at the coarsest admissible step (T/100). The
# trailing probe therefore accepts an event up to 1e-6 T past t_end, the
# same timing tolerance the event checks themselves use.
PROBE_WINDOW = 1.0e-6       # accept a trailing event up to this far past t_end, in units of T
DIVERGENCE_LIMIT = 1.0e-3   # hard cap on the first-integral residual
# Length of the table of step-map powers: 1024 matrices of 5x5 doubles
# (200 KB). A block never spans more steps than this.
BLOCK_STEPS = 1024
NEWTON_MAX_ITER = 100
# Largest admitted run. A run stores about 80 B per step (four state
# columns, the sample array and the residuals), so this caps it near 1 GB.
MAX_STEPS = 12_500_000

# dy/dtau = A y for y = (xi, V, chi, U, 1): xi' = V, V' = -pi U, chi' = U,
# U' = pi (V - 1).
GENERATOR = np.array(
    [
        [0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -math.pi, 0.0],
        [0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, math.pi, 0.0, 0.0, -math.pi],
        [0.0, 0.0, 0.0, 0.0, 0.0],
    ]
)
GENERATOR.flags.writeable = False

# A state is anything indexed by these names: a dict, a SAMPLE_DTYPE record
# or array. The evaluators here and in `lagrangian` accept any of them.
SAMPLE_FIELDS = ("t", "X", "dXdt", "x", "dxdt")
SAMPLE_DTYPE = np.dtype([(name, np.float64) for name in SAMPLE_FIELDS])


class DivergenceError(RuntimeError):
    """Raised when the first-integral residual leaves the trust region."""


def _pack(t, X, dXdt, x, dxdt) -> np.ndarray:
    """Physical columns into one structured array of `SAMPLE_DTYPE`."""
    out = np.empty(len(t), dtype=SAMPLE_DTYPE)
    for name, col in zip(SAMPLE_FIELDS, (t, X, dXdt, x, dxdt)):
        out[name] = col
    return out


@dataclass
class Trajectory:
    """Uniformly sampled run with its reflection events.

    ``samples`` is a structured array of `SAMPLE_DTYPE` with the columns
    ``t, X, dXdt, x, dxdt`` (``samples["X"]`` is the particle coordinate
    column, ``samples[i]`` the i-th sample), ordered by strictly increasing
    time, with ``x >= -1e-9 * Lam``. ``events`` is the float64 array of
    reflection times in increasing order. ``invariant_residuals`` is the
    array of first-integral residuals per sample. ``metadata`` records how
    the run was produced (grid and event tolerances) and is emitted
    verbatim by the CLI.
    """

    params: SystemParams
    samples: np.ndarray
    events: np.ndarray
    invariant_residuals: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def dt(self) -> float:
        t = self.samples["t"]
        return float(t[1] - t[0])

    def as_arrays(self) -> dict[str, np.ndarray]:
        """Views of the sample columns plus ``invariant_residual``.
        Kept only because `bench/spans.py` patches it; goes with the tracer rewrite (ROADMAP item 4)."""
        out = {name: self.samples[name] for name in SAMPLE_FIELDS}
        out["invariant_residual"] = self.invariant_residuals
        return out


def invariant_residual(s, p: SystemParams):
    """First integral of the coupled system, shifted to vanish on shell.

    The pair ``(1 - dXdt/v0, dxdt/c)`` rotates on the unit circle, so
    ``(1 - dXdt/v0)^2 + (dxdt/c)^2 - 1`` is conserved and equals zero on
    exact solutions. The fields of ``s`` may be scalars or arrays.
    """
    a = 1.0 - s["dXdt"] / p.v0
    b = s["dxdt"] / p.c
    return a * a + b * b - 1.0


# ---------------------------------------------------------------------------
# Closed-form reference motion
# ---------------------------------------------------------------------------

def closed_form(t, p: SystemParams) -> dict:
    """Exact state at time ``t >= 0``, a scalar or an array of times.

    With ``k = floor(t/T)`` and ``frac = t/T - k`` the components are

        dXdt = v0 (1 - sin(pi frac))
        X    = v0 t + (lam/pi) (cos(pi frac) - 1 - 2 k)
        x    = (Lam/pi) sin(pi frac)
        dxdt = c cos(pi frac)

    which is algebraically identical to the textbook absolute-value form
    but free of cancellation, and lands on the post-reflection branch at
    integer ``t/T`` because ``floor`` is right-continuous there. Returns a
    state dict; for an array ``t`` every field is an array of its shape.
    """
    if np.any(np.asarray(t) < 0.0):
        raise ValueError(f"closed form is defined for t >= 0, got {np.min(t)}")
    ratio = t / p.T
    k = np.floor(ratio)
    frac = ratio - k
    s = np.sin(np.pi * frac)
    co = np.cos(np.pi * frac)
    return dict(
        t=t,
        X=p.v0 * t + (p.lam / np.pi) * (co - 1.0 - 2.0 * k),
        dXdt=p.v0 * (1.0 - s),
        x=(p.Lam / np.pi) * s,
        dxdt=p.c * co,
    )


def closed_form_trajectory(p: SystemParams, t_end: float, n_per_period: int = 4000) -> Trajectory:
    """Sample the exact motion on a uniform grid, with its exact events.

    Handy as an oracle input for residual studies: the returned object has
    the same shape as an integrated `Trajectory`, with reflection events at
    every multiple of ``T`` up to ``t_end``.
    """
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if n_per_period < 2:
        raise ValueError(f"need at least 2 samples per period, got {n_per_period}")
    dt = p.T / n_per_period
    n = round(t_end / dt)
    ref = closed_form(np.arange(n + 1) * dt, p)
    n_events = math.floor(t_end / p.T + 1e-12)
    return Trajectory(
        params=p,
        samples=_pack(**ref),
        events=np.arange(1, n_events + 1) * p.T,
        invariant_residuals=invariant_residual(ref, p),
        metadata={"mode": "closed_form", "dt": dt, "t_end": t_end},
    )


# ---------------------------------------------------------------------------
# Fixed-step integration with event handling
# ---------------------------------------------------------------------------

def _power_table(h: float, size: int) -> np.ndarray:
    """Powers ``P^1..P^size`` of the RK4 step map for step ``h`` (in T).

    Laid out as ``(5, 4, size)``: entry ``[j, :, k-1]`` is column ``j`` of
    ``P^k`` without its constant last row, so advancing a state is five
    scaled row-slices summed (`_advance`).
    """
    hA = h * GENERATOR
    step = np.eye(5) + hA @ (np.eye(5) + hA @ (np.eye(5) + hA @ (np.eye(5) + hA / 4.0) / 3.0) / 2.0)
    powers = np.empty((size, 5, 5))
    powers[0] = step
    done = 1
    while done < size:
        n = min(done, size - done)
        powers[done:done + n] = powers[:n] @ powers[done - 1]  # P^(j+1) P^done
        done += n
    return np.ascontiguousarray(powers[:, :4, :].transpose(2, 1, 0))


def _advance(table: np.ndarray, y, m: int) -> np.ndarray:
    """States ``(xi, V, chi, U)`` after 1..m steps from ``y``, shape (4, m)."""
    return (
        table[0, :, :m] * y[0]
        + table[1, :, :m] * y[1]
        + table[2, :, :m] * y[2]
        + table[3, :, :m] * y[3]
        + table[4, :, :m]
    )


def _taylor(y) -> np.ndarray:
    """Rows ``A^k y / k!``, k = 0..4: the partial RK4 step of length ``s``
    from ``y`` is ``sum_k row_k s^k``."""
    rows = np.empty((5, 5))
    rows[0, :4] = y
    rows[0, 4] = 1.0
    for k in range(1, 5):
        rows[k] = GENERATOR @ rows[k - 1] / k
    return rows


def _partial(rows: np.ndarray, s: float) -> np.ndarray:
    return (rows[0] + s * (rows[1] + s * (rows[2] + s * (rows[3] + s * rows[4]))))[:4]


def _crossing(rows: np.ndarray, h: float) -> float:
    """Partial step ``s`` in ``[0, h]`` at which the separation vanishes.

    Newton on the quartic ``chi(s)`` from the linear guess, kept inside the
    bracket ``chi(lo) >= 0 > chi(hi)`` by a bisection fallback, until
    ``|chi| <= EVENT_X_TOL``.
    """
    c0, c1, c2, c3, c4 = rows[:, 2].tolist()

    def chi(s):
        return c0 + s * (c1 + s * (c2 + s * (c3 + s * c4)))

    lo, hi = 0.0, h
    at_end = chi(h)
    s = h * c0 / (c0 - at_end) if c0 > at_end else h
    for _ in range(NEWTON_MAX_ITER):
        value = chi(s)
        if abs(value) <= EVENT_X_TOL:
            break
        if value > 0.0:
            lo = s
        else:
            hi = s
        slope = c1 + s * (2.0 * c2 + s * (3.0 * c3 + s * 4.0 * c4))
        nxt = s - value / slope if slope else lo
        s = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    return s


def _guard(residuals: np.ndarray, lo: int, hi: int, dt: float) -> None:
    """Raise `DivergenceError` at the first sample in ``[lo, hi)`` whose
    residual is not within the limit (NaN included)."""
    bad = np.flatnonzero(~(np.abs(residuals[lo:hi]) <= DIVERGENCE_LIMIT))
    if bad.size:
        i = lo + int(bad[0])
        raise DivergenceError(
            f"first-integral residual {residuals[i]:.3e} at t={i * dt} exceeds "
            f"{DIVERGENCE_LIMIT}; the run has diverged"
        )


def step_count(T: float, t_end: float, dt: float) -> int:
    """Number of grid steps of a run, after checking its grid.

    Raises ValueError unless ``0 < dt <= T/100``, ``t_end`` is a finite,
    whole number of steps (within 1e-9 relative) and the run fits in
    `MAX_STEPS` steps.
    """
    if not (dt > 0.0):
        raise ValueError(f"step size must be positive, got {dt}")
    if dt > T / 100.0 * (1.0 + 1.0e-12):
        raise ValueError(f"step size too large: dt={dt} exceeds T/100={T / 100.0}")
    if not (0.0 < t_end < math.inf):
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if t_end / dt > MAX_STEPS + 0.5:
        raise ValueError(
            f"t_end/dt = {t_end / dt:.3g} steps exceeds the budget of {MAX_STEPS} "
            "(about 80 B per step); raise dt or lower t_end"
        )
    n_steps = round(t_end / dt)
    if n_steps < 1 or abs(n_steps * dt - t_end) > 1.0e-9 * t_end:
        raise ValueError(
            f"t_end={t_end} is not a whole number of steps of dt={dt}; "
            "pick t_end = n * dt"
        )
    return n_steps


def integrate(p: SystemParams, t_end: float, dt: float) -> Trajectory:
    """Integrate the hybrid system on the grid ``t_i = i dt`` up to t_end.

    Requirements: ``0 < dt <= T/100`` and ``t_end`` a whole number of steps
    (within 1e-9 relative), so samples land exactly on the grid.

    Raises `DivergenceError` if the first-integral residual ever exceeds
    1e-3 (or is not a number), which signals an integration failure rather
    than physics, and `RuntimeError` if the separation stays negative
    across a whole step.
    """
    n_steps = step_count(p.T, t_end, dt)

    h = dt / p.T
    # A block ends at the first reflection it contains, and the next
    # reflection is at most ceil(1/h) + 1 steps away, so longer tables are
    # never used: the blocks, and the samples, are those of a full table.
    table = _power_table(h, min(BLOCK_STEPS, n_steps, math.ceil(1.0 / h) + 1))
    block = table.shape[2]

    # Dimensionless state columns (xi, V, chi, U) and residuals per sample.
    Y = np.empty((4, n_steps + 1))
    Y[:, 0] = (0.0, 1.0, 0.0, 1.0)
    residuals = np.empty(n_steps + 1)
    residuals[0] = 0.0
    events = []

    def settle(lo, hi):
        a = 1.0 - Y[1, lo:hi]
        U = Y[3, lo:hi]
        residuals[lo:hi] = a * a + U * U - 1.0
        _guard(residuals, lo, hi, dt)

    i = 0
    while i < n_steps:
        states = _advance(table, Y[:, i], min(block, n_steps - i))
        below = np.flatnonzero(states[2] < 0.0)
        k = int(below[0]) if below.size else states.shape[1]
        Y[:, i + 1:i + 1 + k] = states[:, :k]
        settle(i + 1, i + 1 + k)
        i += k
        if not below.size:
            continue
        # Step i -> i+1 crosses the guard.
        if Y[2, i] < 0.0:
            raise RuntimeError(f"cloud separation stayed negative across step at t={i * dt}")
        rows = _taylor(Y[:, i])
        s = _crossing(rows, h)
        events.append(i * dt + s * p.T)
        y = _partial(rows, s)
        y[3] = -y[3]
        Y[:, i + 1] = _partial(_taylor(y), h - s)
        settle(i + 1, i + 2)
        i += 1

    # Trailing probe: the discretized crossing of the final period can land a
    # hair past t_end (fourth-order phase lag, ~1e-11 T over ten periods). One
    # probe step past the end recovers an event belonging to this run; only
    # events within PROBE_WINDOW * T of t_end are accepted and no samples are
    # added.
    last = Y[:, n_steps]
    if _advance(table, last, 1)[2, 0] < 0.0 <= last[2]:
        s = _crossing(_taylor(last), h)
        if s <= PROBE_WINDOW:
            events.append(n_steps * dt + s * p.T)

    samples = _pack(np.arange(n_steps + 1) * dt, Y[0] * p.lam, Y[1] * p.v0, Y[2] * p.Lam, Y[3] * p.c)
    meta = {
        "dt": dt,
        "t_end": t_end,
        "n_steps": n_steps,
        "event_x_tolerance": EVENT_X_TOL * p.Lam,
        "probe_window": PROBE_WINDOW * p.T,
    }
    return Trajectory(
        params=p,
        samples=samples,
        events=np.array(events, dtype=np.float64),
        invariant_residuals=residuals,
        metadata=meta,
    )


# ---------------------------------------------------------------------------
# Diagnostics and serialization
# ---------------------------------------------------------------------------

def _near_events(t: np.ndarray, event_times, window: float) -> np.ndarray:
    """Mask of the times within ``window`` of their nearest event.

    The nearest event is one of the two neighbours `searchsorted` finds in
    the sorted event times, so this is O(N log E) rather than the N x E
    distance matrix.
    """
    ev = np.sort(np.asarray(event_times, dtype=float))
    j = np.searchsorted(ev, t)
    left = np.abs(t - ev[np.maximum(j - 1, 0)])
    right = np.abs(t - ev[np.minimum(j, ev.size - 1)])
    return np.minimum(left, right) <= window


def oracle_errors(traj: Trajectory) -> dict[str, float]:
    """Componentwise max deviation from the closed form, each scaled by its
    natural magnitude (X by lam, dXdt by v0, x by Lam, dxdt by c).

    The cloud velocity is discontinuous at a reflection, and an integrated
    event may sit a localization slack (~1e-12 T) on either side of the
    closed form's branch switch. A sample landing inside that sliver would
    otherwise register a full 2c jump that says nothing about accuracy, so
    within 1e-6 T of a recorded event the dxdt comparison accepts the nearer
    of the two one-sided values. Everywhere else both branches differ by
    ~2c and the relaxation is inert.
    """
    p = traj.params
    s = traj.samples
    ref = closed_form(s["t"], p)
    d_dxdt = np.abs(s["dxdt"] - ref["dxdt"])
    if len(traj.events):
        near = _near_events(s["t"], traj.events, 1.0e-6 * p.T)
        other = np.abs(s["dxdt"] + ref["dxdt"])
        d_dxdt = np.where(near, np.minimum(d_dxdt, other), d_dxdt)
    out = {
        "X": float(np.max(np.abs(s["X"] - ref["X"])) / p.lam),
        "dXdt": float(np.max(np.abs(s["dXdt"] - ref["dXdt"])) / p.v0),
        "x": float(np.max(np.abs(s["x"] - ref["x"])) / p.Lam),
        "dxdt": float(np.max(d_dxdt) / p.c),
    }
    out["max"] = max(out.values())
    return out


_CSV_HEADER = "t,X,dXdt,x,dxdt,invariant_residual,event_flag"


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write samples as CSV: ``t,X,dXdt,x,dxdt,invariant_residual,event_flag``.

    ``event_flag`` is 1 on a sample whose preceding grid interval contained
    a reflection. Floats carry 17 significant digits (``%.17g``) so a file
    round-trips to the exact same doubles. Rows are rendered column-wise by
    `_text.g17`, byte-identical to per-value formatting, and written in
    chunks of `_text.CHUNK_ROWS` rows, so the writer's memory does not grow
    with the run.
    """
    s = traj.samples
    flags = np.zeros(len(s), dtype=np.uint8)
    if len(s) > 1:
        dt = traj.dt
        t0 = s["t"][0]
        for t_ev in traj.events:
            # an event localized within the 1e-6 T timing slack after a grid
            # point belongs to that sample, not the next interval
            idx = math.ceil((t_ev - t0 - 1.0e-6 * traj.params.T) / dt)
            if 0 <= idx < len(flags):
                flags[idx] = 1
    columns = [s[name] for name in SAMPLE_FIELDS] + [traj.invariant_residuals]
    _text.write_csv(path, _CSV_HEADER, columns, flags)


def write_events_json(traj: Trajectory, path) -> None:
    """Sidecar event list: ``{"events": [{"t": ..., "kind": "cloud_reflection"}, ...]}``."""
    doc = {"events": [{"t": t_ev, "kind": "cloud_reflection"} for t_ev in traj.events.tolist()]}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
