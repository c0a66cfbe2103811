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
``y = (xi, V, chi, U, 1)`` obeys ``dy/dtau = A y`` with a fixed
homogeneous generator: ``xi' = V``, ``V' = -pi U``, ``chi' = U``,
``U' = pi (V - 1)``. The integrator and `Trajectory` work in these
units; the physical ones are applied only at the edges, by
`Trajectory.columns` and `closed_form`. The integrator's state is
``w = (1 - V) + iU``, which obeys ``dw/dtau = -i pi w`` and so turns on the
unit circle at pi per T. ``1 - V - pi chi`` and ``U - pi xi + pi tau`` are
linear invariants, so ``chi = Re(w)/pi`` and ``xi = tau + (U - u)/pi``,
where ``u`` starts at 1.

Stepping is classical fixed-step fourth-order Runge-Kutta on a uniform
grid; adaptive schemes were deliberately avoided so that a run is a pure
function of ``(params, t_end, dt)``. One RK4 step of length ``s`` (in T)
multiplies ``w`` by the stability function ``R(-i pi s)``, the degree-4
Taylor polynomial of ``exp(-i pi s)`` (Hairer & Wanner, *Solving ODEs II*,
IV.2), and RK4 keeps linear invariants exactly (Hairer, Lubich & Wanner,
*Geometric Numerical Integration*, Thm. IV.1.5): this is RK4 on all of
``y``. The integrator tabulates ``R^1..R^B`` once per run
(``B <= BLOCK_STEPS``) and advances a whole block of samples from the
block's start state with one multiplication into the sample array, so
memory stays linear in the number of samples.

A step that ends with ``x < 0`` from ``x >= 0`` contains a reflection.
Newton's method on ``Re(R(-i pi s) w)``, started from the linear guess,
locates the partial step ``s`` of the crossing to ``|x| <= 1e-12 * Lam``.
The reset ``dx/dt -> -dx/dt`` turns ``w`` into its conjugate and lowers
``u`` by twice the ``U`` at impact; the rest of the step is taken from the
reflected state, so samples stay on the grid, and the next block starts
from there. Event location and the reset run on Python complex scalars,
while the blocks stay vectorized; the first-integral residuals
``|w|^2 - 1`` and the divergence guard on them are computed once per run,
after the last block.

The exact motion is known in closed form: `_exact` evaluates it in these
units, with the branch at contact instants ``t = n T`` resolved to the right
(post-reflection) side so the state is right-continuous there, and
`closed_form`, `closed_form_trajectory` and `oracle_errors` share it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import _text
from .core import SystemParams

__all__ = [
    "Trajectory",
    "DivergenceError",
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
# A crossing whose true time is exactly t_end can land slightly past it
# numerically: the integrator's phase lag grows like dt**4 and reaches
# about 8.1e-8 T per ten periods at the coarsest admissible step (T/100). The
# trailing probe therefore accepts an event up to 1e-6 T past t_end, the
# same timing tolerance the event checks themselves use, and `step_count`
# refuses a run whose last event would lag by more.
PROBE_WINDOW = 1.0e-6       # accept a trailing event up to this far past t_end, in units of T
DIVERGENCE_LIMIT = 1.0e-3   # hard cap on the first-integral residual
# Length of the table of step-factor powers: 1024 complex doubles (16 KB).
# A block never spans more steps than this.
BLOCK_STEPS = 1024
NEWTON_MAX_ITER = 100
# Largest admitted run. A whole `simulate` run peaks at 58 B per step, about
# 0.73 GB, plus about 2 MB of fixed-size blocks (tracemalloc): with `--format
# svg` in the trajectory panel, the trajectory's 40 B per sample plus the
# panel's time axis and pixel-column positions; otherwise at 56 B in
# `integrate`, the columns and residuals plus the state `w`.
MAX_STEPS = 12_500_000
# Samples per block of `oracle_errors`: the block's exact columns and their
# times take 40 B per sample, 655 KB, however long the run.
ORACLE_BLOCK = 16384
CLOSED_FORM_STEPS = 4000    # samples per period of `closed_form_trajectory`

# Coefficients of R(-i pi s) in s, (-i pi)^k / k!, k = 0..4 (`_step_factor`).
_STEP_COEFFS = tuple((-1j * math.pi) ** k / math.factorial(k) for k in range(5))

# A state is anything indexed by these names: a dict, a SAMPLE_DTYPE record
# or array. The evaluators here and in `lagrangian` accept any of them.
SAMPLE_FIELDS = ("t", "X", "dXdt", "x", "dxdt")
SAMPLE_DTYPE = np.dtype([(name, np.float64) for name in SAMPLE_FIELDS])


class DivergenceError(RuntimeError):
    """Raised when the first-integral residual leaves the trust region."""


def _units(p: SystemParams, t, xi, V, chi, U) -> dict:
    """The state at times ``t`` in physical units, from its dimensionless
    columns: ``X = xi lam``, ``dXdt = V v0``, ``x = chi Lam``, ``dxdt = U c``."""
    return dict(t=t, X=xi * p.lam, dXdt=V * p.v0, x=chi * p.Lam, dxdt=U * p.c)


@dataclass
class Trajectory:
    """Uniformly sampled run with its reflection events, in the integrator's units.

    Sample ``i`` is at ``t = i dt``; its columns ``xi, V, chi, U`` are
    ``X/lam, dXdt/v0, x/Lam, dxdt/c``, with ``chi >= -EVENT_X_TOL`` to
    rounding (only a sample just after a reflection sits below zero), and
    `columns` applies the units. ``events`` is the float64 array of
    reflection times in increasing order. ``invariant_residuals`` is the
    array of first-integral residuals per sample. ``metadata`` records how
    the run was produced (grid and event tolerances) and is emitted
    verbatim by the CLI.
    """

    params: SystemParams
    dt: float
    xi: np.ndarray
    V: np.ndarray
    chi: np.ndarray
    U: np.ndarray
    events: np.ndarray
    invariant_residuals: np.ndarray
    metadata: dict = field(default_factory=dict)

    def columns(self, rows: slice = slice(None)) -> dict[str, np.ndarray]:
        """The rows ``rows`` (a slice) in physical units: a state whose
        fields, those of `SAMPLE_FIELDS`, are arrays."""
        t = np.arange(*rows.indices(len(self.xi))) * self.dt
        return _units(self.params, t, self.xi[rows], self.V[rows], self.chi[rows], self.U[rows])

    @property
    def samples(self) -> np.ndarray:
        """Every row packed into a structured array of `SAMPLE_DTYPE`
        (``samples["X"]`` the particle coordinate column, ``samples[i]``
        the i-th sample), built anew on each access."""
        out = np.empty(len(self.xi), dtype=SAMPLE_DTYPE)
        for name, col in self.columns().items():
            out[name] = col
        return out

    def as_arrays(self) -> dict[str, np.ndarray]:
        """The physical columns plus ``invariant_residual``.
        Kept only because `bench/spans.py` patches it; goes with the tracer rewrite (ROADMAP item 4)."""
        return {**self.columns(), "invariant_residual": self.invariant_residuals}


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

def _exact(tau):
    """Exact ``(xi, V, chi, U)`` at ``tau = t/T``, a scalar or an array.

    With ``k = floor(tau)`` and ``frac = tau - k`` the columns are

        xi  = tau + (cos(pi frac) - 1 - 2 k) / pi
        V   = 1 - sin(pi frac)
        chi = sin(pi frac) / pi
        U   = cos(pi frac)

    which is algebraically identical to the textbook absolute-value form
    but free of cancellation, and lands on the post-reflection branch at
    integer ``tau`` because ``floor`` is right-continuous there. The four
    columns are computed in place, as the rows of the one ``(4, ...)``
    block returned.
    """
    tau = np.asarray(tau, dtype=float)
    out = np.empty((4, *tau.shape))
    xi, V, chi, U = (out[j, ...] for j in range(4))
    k = np.floor(tau, out=V)
    arg = np.multiply(np.subtract(tau, k, out=U), np.pi, out=U)
    np.sin(arg, out=chi)
    co = np.cos(arg, out=U)
    k *= 2.0
    np.subtract(co, 1.0, out=xi)
    xi -= k
    xi /= np.pi
    xi += tau
    np.subtract(1.0, chi, out=V)
    chi /= np.pi
    return out


def closed_form(t, p: SystemParams) -> dict:
    """Exact state at time ``t >= 0``, a scalar or an array of times: the
    state dict of `_exact` at ``t/T``, in physical units."""
    if np.any(np.asarray(t) < 0.0):
        raise ValueError(f"closed form is defined for t >= 0, got {np.min(t)}")
    return _units(p, t, *_exact(t / p.T))


def closed_form_trajectory(p: SystemParams, t_end: float) -> Trajectory:
    """Sample the exact motion at ``CLOSED_FORM_STEPS`` samples per period,
    with its exact events.

    Handy as an oracle input for residual studies: the returned object has
    the same shape as an integrated `Trajectory`, with reflection events at
    every multiple of ``T`` up to ``t_end``.
    """
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    dt = p.T / CLOSED_FORM_STEPS
    n = round(t_end / dt)
    xi, V, chi, U = _exact(np.arange(n + 1) * dt / p.T)
    n_events = math.floor(t_end / p.T + 1e-12)
    return Trajectory(
        p, dt, xi, V, chi, U,
        events=np.arange(1, n_events + 1) * p.T,
        invariant_residuals=(1.0 - V) ** 2 + U ** 2 - 1.0,
        metadata={"mode": "closed_form", "dt": dt, "t_end": t_end},
    )


# ---------------------------------------------------------------------------
# Fixed-step integration with event handling
# ---------------------------------------------------------------------------

def _step_factor(s: float) -> complex:
    """``R(-i pi s)``, the factor by which one RK4 step of length ``s`` (in
    T) multiplies ``w``: the degree-4 Taylor polynomial of ``exp(-i pi s)``."""
    c0, c1, c2, c3, c4 = _STEP_COEFFS
    return c0 + s * (c1 + s * (c2 + s * (c3 + s * c4)))


def _step_powers(h: float, size: int) -> np.ndarray:
    """``R^1..R^size`` for the step ``h``, written as ``rho^k e^{-ik theta}``.

    ``-theta`` is the argument of ``R(-i pi h)`` and ``rho^2 = 1 - z^6/72 +
    z^8/576`` (``z = pi h``) its squared modulus, taken through ``log1p``
    because ``1 - rho`` falls below 1e-16 at T/1000. Every power is computed
    directly, so none inherits the rounding of the one before it.
    """
    z = math.pi * h
    log_rho = 0.5 * math.log1p(z ** 8 / 576.0 - z ** 6 / 72.0)
    return np.exp(np.arange(1, size + 1) * complex(log_rho, cmath.phase(_step_factor(h))))


def _crossing(w: complex, h: float) -> float:
    """Partial step ``s`` in ``[0, h]`` at which the separation vanishes.

    Newton on ``chi(s) = Re(R(-i pi s) w) / pi`` from the linear guess, with
    the flow's slope ``U`` (the quartic's to a relative ``(pi s)^4/24``),
    kept in the bracket ``chi(lo) >= 0 > chi(hi)`` by a bisection fallback,
    until ``|chi| <= EVENT_X_TOL``.
    """
    lo, hi = 0.0, h
    at_start, at_end = w.real, (_step_factor(h) * w).real
    s = h * at_start / (at_start - at_end) if at_start > at_end else h
    for _ in range(NEWTON_MAX_ITER):
        ws = _step_factor(s) * w
        if abs(ws.real) <= math.pi * EVENT_X_TOL:
            break
        if ws.real > 0.0:
            lo = s
        else:
            hi = s
        nxt = s - ws.real / (math.pi * ws.imag) if ws.imag else lo
        s = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    return s


def _guard(residuals: np.ndarray, lo: int, hi: int, dt: float) -> None:
    """Raise `DivergenceError` at the first sample in ``[lo, hi)`` whose
    residual is not within the limit (NaN included)."""
    mag = np.abs(residuals[lo:hi])
    if not mag.max(initial=0.0) <= DIVERGENCE_LIMIT:
        i = lo + int(np.argmax(~(mag <= DIVERGENCE_LIMIT)))
        raise DivergenceError(
            f"first-integral residual {residuals[i]:.3e} at t={i * dt} exceeds "
            f"{DIVERGENCE_LIMIT}; the run has diverged"
        )


def step_count(T: float, t_end: float, dt: float) -> int:
    """Number of grid steps of a run, after checking its grid.

    Raises ValueError unless ``0 < dt <= T/100``, ``t_end`` is a finite,
    whole number of steps (within 1e-9 relative), the run fits in
    `MAX_STEPS` steps and its events stay within `PROBE_WINDOW` of ``nT``:
    one step turns ``w`` by ``theta`` instead of ``pi h`` (``h = dt/T``),
    so the events lag ``pi h / theta - 1`` T per period.
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
            "(a run peaks at 58 B per step, in the trajectory panel); raise dt or lower t_end"
        )
    n_steps = round(t_end / dt)
    if n_steps < 1 or abs(n_steps * dt - t_end) > 1.0e-9 * t_end:
        raise ValueError(
            f"t_end={t_end} is not a whole number of steps of dt={dt}; "
            "pick t_end = n * dt"
        )
    h = dt / T
    lag = math.pi * h / -cmath.phase(_step_factor(h)) - 1.0  # per period, in T
    if lag * t_end / T > PROBE_WINDOW:
        raise ValueError(
            f"t_end={t_end / T:.6g} T is too long for dt=T/{1.0 / h:.6g}: the events lag {lag:.3g} T "
            f"per period, so the longest admissible t_end is {PROBE_WINDOW / lag:.1f} T; lower dt or t_end"
        )
    return n_steps


def integrate(p: SystemParams, t_end: float, dt: float) -> Trajectory:
    """Integrate the hybrid system on the grid ``t_i = i dt`` up to t_end.

    Requirements: those of `step_count`, among them ``0 < dt <= T/100`` and
    ``t_end`` a whole number of steps, so samples land exactly on the grid.

    Raises `DivergenceError` if the first-integral residual ever exceeds
    1e-3 (or is not a number), which signals an integration failure rather
    than physics, and `RuntimeError` if the separation stays negative
    across a whole step. Both are raised only after the last block, from
    the samples written, and a divergence is reported first.
    """
    n_steps = step_count(p.T, t_end, dt)

    h = dt / p.T
    # A block ends at the first reflection it contains, and the next
    # reflection is at most ceil(1/h) + 1 steps away, so longer tables are
    # never used: the blocks, and the samples, are those of a full table.
    table = _step_powers(h, min(BLOCK_STEPS, n_steps, math.ceil(1.0 / h) + 1))

    # w = (1 - V) + iU per sample, and the jumps of u as (sample, jump): 1 at
    # the start, then -2 U_ev on the first sample after each reflection.
    w = np.empty(n_steps + 1, dtype=np.complex128)
    w[0] = 1j
    jumps = [(0, 1.0)]
    events = []

    i = 0
    while i < n_steps:
        # The whole block goes straight into w; the samples past a crossing
        # are overwritten by the reflected step and the next block.
        m = min(table.size, n_steps - i)
        below = np.multiply(table[:m], w[i], out=w[i + 1:i + 1 + m]).real < 0.0
        k = int(below.argmax())
        if not below[k]:
            i += m
            continue
        i += k
        # Step i -> i+1 crosses the guard.
        if w[i].real < 0.0:
            break
        start = complex(w[i])
        s = _crossing(start, h)
        events.append(i * dt + s * p.T)
        hit = _step_factor(s) * start
        jumps.append((i + 1, -2.0 * hit.imag))
        w[i + 1] = _step_factor(h - s) * hit.conjugate()
        i += 1

    # Residuals of samples 0..i, where i < n_steps only after the break
    # above; the one at t = 0 comes out exactly 0.0.
    residuals = np.square(w.real[:i + 1])
    residuals += np.square(w.imag[:i + 1])
    residuals -= 1.0
    _guard(residuals, 1, i + 1, dt)
    if i < n_steps:
        raise RuntimeError(f"cloud separation stayed negative across step at t={i * dt}")

    # Trailing probe: the discretized crossing of the final period can land a
    # hair past t_end (the phase lag of PROBE_WINDOW's comment). One probe
    # step past the end recovers an event belonging to this run; only events
    # within PROBE_WINDOW * T of t_end are accepted and no samples are added.
    last = complex(w[n_steps])
    if (_step_factor(h) * last).real < 0.0 <= last.real:
        s = _crossing(last, h)
        if s <= PROBE_WINDOW:
            events.append(n_steps * dt + s * p.T)

    # chi and xi from the two linear invariants, which RK4 keeps exactly, each
    # column computed in place. One block, not four arrays: freeing it raises
    # glibc's mmap threshold past the CSV writer's chunk buffers, which would
    # otherwise fault in every chunk.
    cols = np.empty((4, n_steps + 1))
    xi, V, chi, U = cols
    # u, the running sum of the jumps, is constant between them; xi holds
    # (U - u) / pi until w is released, then gains the time axis i dt / T
    u = 0.0
    for (a, jump), (b, _) in zip(jumps, jumps[1:] + [(n_steps + 1, 0.0)]):
        u += jump
        xi[a:b] = u
    np.subtract(w.imag, xi, out=xi)
    xi /= math.pi
    np.subtract(1.0, w.real, out=V)
    np.divide(w.real, math.pi, out=chi)
    U[:] = w.imag
    del w
    tau = np.arange(n_steps + 1, dtype=np.float64)
    tau *= dt
    tau /= p.T
    xi += tau
    meta = {
        "dt": dt,
        "t_end": t_end,
        "n_steps": n_steps,
        "event_x_tolerance": EVENT_X_TOL * p.Lam,
        "probe_window": PROBE_WINDOW * p.T,
    }
    return Trajectory(p, dt, *cols, np.array(events, dtype=np.float64), residuals, meta)


# ---------------------------------------------------------------------------
# Diagnostics and serialization
# ---------------------------------------------------------------------------

def _deviations(traj: Trajectory, lo: int, hi: int, near: np.ndarray) -> np.ndarray:
    """Max deviation of each of the four columns from the closed form over
    samples ``lo`` to ``hi - 1``, with ``near`` the samples whose dxdt
    comparison accepts either branch (see `oracle_errors`)."""
    tau = np.arange(lo, hi, dtype=np.float64)
    tau *= traj.dt
    tau /= traj.params.T
    dev = _exact(tau)
    # this block's samples near an event, and their dxdt against the other branch
    here = near[(near >= lo) & (near < hi)] - lo
    other = np.abs(traj.U[lo:hi][here] + dev[3][here])
    for col, ref in zip((traj.xi, traj.V, traj.chi, traj.U), dev):
        np.abs(np.subtract(col[lo:hi], ref, out=ref), out=ref)
    dev[3][here] = np.minimum(dev[3][here], other)
    return dev.max(axis=1)


def oracle_errors(traj: Trajectory) -> dict[str, float]:
    """Componentwise max deviation from the closed form, in the trajectory's
    units (X by lam, dXdt by v0, x by Lam, dxdt by c).

    The cloud velocity is discontinuous at a reflection, and an integrated
    event may sit a localization slack (~1e-12 T) on either side of the
    closed form's branch switch. A sample landing inside that sliver would
    otherwise register a full 2c jump that says nothing about accuracy, so
    at a sample ``i`` with ``|i dt - t_ev| <= PROBE_WINDOW T`` for a
    recorded event ``t_ev`` the dxdt comparison accepts the nearer of the
    two one-sided values. Those samples are found by grid index, a few per
    event. The exact columns and the deviations are computed in place, one
    block of `ORACLE_BLOCK` samples at a time, and each block is reduced to
    its four maxima (a NaN deviation propagates), so the memory beyond the
    trajectory does not grow with the run.
    """
    p, dt, n = traj.params, traj.dt, len(traj.xi)
    window = PROBE_WINDOW * p.T
    # candidate grid indices around each event, inside [0, n), then the exact window test
    ev = np.asarray(traj.events, dtype=np.float64)[:, None]
    j = np.maximum(np.floor((ev - window) / dt) - 1.0, 0.0) + np.arange(min(math.ceil(2.0 * window / dt) + 4, n))
    near = j[(j < n) & (np.abs(j * dt - ev) <= window)].astype(np.intp)
    # one call per block, so that a block's arrays are freed before the next
    # block's are made; a NaN deviation propagates through both maxima
    worst = np.max(
        [_deviations(traj, lo, min(lo + ORACLE_BLOCK, n), near) for lo in range(0, n, ORACLE_BLOCK)], axis=0
    )
    out = dict(zip(("X", "dXdt", "x", "dxdt"), worst.tolist()))
    out["max"] = max(out.values())
    return out


_CSV_HEADER = "t,X,dXdt,x,dxdt,invariant_residual,event_flag"


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write samples as CSV: ``t,X,dXdt,x,dxdt,invariant_residual,event_flag``.

    ``event_flag`` is 1, for each reflection at ``t_ev``, on the first
    sample at or after ``t_ev - PROBE_WINDOW T``. That is the last sample
    before the reflection when the reflection lies within ``PROBE_WINDOW T``
    after it, as at every reflection of a run whose grid holds the multiples
    of T (``dt = T/1000``, ``T/250``), and otherwise the first sample after
    it. Floats carry 17 significant digits (``%.17g``) so a file round-trips
    to the exact same doubles. Each chunk of rows is put into physical
    units, rendered as one row-major block by `_text.rows` (byte-identical
    to per-value formatting) and written, so the writer's memory does not
    grow with the run.
    """
    flags = np.zeros(len(traj.xi), dtype=np.uint8)
    for t_ev in traj.events:
        # an event localized within the timing tolerance after a grid point
        # belongs to that sample, not the next interval
        idx = math.ceil((t_ev - PROBE_WINDOW * traj.params.T) / traj.dt)
        if 0 <= idx < len(flags):
            flags[idx] = 1
    _text.write_csv(
        path, _CSV_HEADER, lambda rows: [*traj.columns(rows).values(), traj.invariant_residuals[rows]], flags
    )


def write_events_json(traj: Trajectory, path) -> None:
    """Sidecar event list: ``{"events": [{"t": ..., "kind": "cloud_reflection"}, ...]}``.

    The text is that of ``json.dump(doc, fh, indent=2)`` plus a newline,
    written out directly; event times are finite, and ``repr`` is how
    `json` renders a finite float.
    """
    items = ",\n".join(
        f'    {{\n      "t": {t_ev!r},\n      "kind": "cloud_reflection"\n    }}'
        for t_ev in traj.events.tolist()
    )
    listing = f"[\n{items}\n  ]" if items else "[]"
    with open(path, "w") as fh:
        fh.write(f'{{\n  "events": {listing}\n}}\n')
