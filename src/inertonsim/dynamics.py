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
units; the physical ones (`UNITS`) are applied only at the edge, by
`Trajectory.as_arrays`. The integrator's state is
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
(``B <= BLOCK_STEPS``) and advances a whole block of ``B`` samples from the
block's start state with one multiplication into the state array, which is
padded by ``B`` samples so that no block is cut at the end of the run. Each
step turns ``w`` by ``theta = -arg R(-i pi h)``, so the angle of the start
predicts the block's first sample below the guard (`_predicted_step`); the
loop reads the two samples around it and moves it a sample at a time until
they straddle the guard, so no pass over the block compares its samples.
Memory is the state's 16 B per sample.

A step that ends with ``x < 0`` contains a reflection. The linear guess
and at most one Newton step on ``Re(R(-i pi s) w)`` locate the partial
step ``s`` of the crossing to ``|x| <= 1e-12 * Lam`` and give the state
there; on the grids a run admits, that one step is enough. A crossing not
located within the step, as in a step that starts below the guard, ends
the run with a RuntimeError that names the step. The reset ``dx/dt ->
-dx/dt`` turns ``w`` into its conjugate and lowers ``u`` by twice the
``U`` at impact; the rest of the step is taken from the reflected state, so
samples stay on the grid, and the next block starts from there. Event
location and the reset run on Python complex scalars, with ``R(-i pi h)``
evaluated once per run, while the blocks stay vectorized. The run is ``w``
and the jumps of ``u``: no column is stored. After the last block the
first-integral residuals ``|w|^2 - 1``, and the divergence guard on them,
are computed one block of `ROW_BLOCK` samples at a time; the same pass
gives their largest magnitude, `Trajectory.max_abs_residual`.
`Trajectory.rows` derives the columns and residuals of any slice the same
way.

The exact motion is known in closed form: `_exact_state` gives its state
``(w, u)`` in these units, with the branch at contact instants ``t = n T``
resolved to the right (post-reflection) side so the state is
right-continuous there. `closed_form_trajectory` samples it into a
`Trajectory`, whose rows `_rows` derives as it does those of a run.
`oracle_errors` compares it with the run's state, since each
column's deviation is linear in ``w - w_exact`` and ``u - u_exact``. On the
run's grid it takes the same state by angle addition (Tang, *ACM TOMS*
15(2), 1989), `_grid_exact_state`: a table of `TURN_ROW` turns
``e^{-i pi j h}`` per run and one coarse turn per row of `TURN_ROW`
samples, both from `_exact_state`, so each sample costs one complex
multiply instead of a ``sin`` and a ``cos``. ``u`` keeps its bits and
``w`` its closed form to within the rounding of ``pi tau``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _text
from .core import SystemParams

__all__ = [
    "Trajectory",
    "DivergenceError",
    "SAMPLE_DTYPE",
    "integrate",
    "step_count",
    "closed_form_trajectory",
    "oracle_errors",
    "write_trajectory_csv",
    "write_events_json",
]

# Guard and probe tolerances (see module docstring and integrate()).
EVENT_X_TOL = 1.0e-12       # event location's target on |x|, in units of Lam
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
# Largest admitted run. A whole `simulate` run peaks at 17 B per step, about
# 0.21 GB, plus about 2 MB of fixed-size blocks (tracemalloc): the state `w`
# (16 B per sample) and, in the CSV writer, its event flags (1 B). With
# `outputs.el_residuals`, the full-length block of `el_residual` and the
# evaluators' temporaries take it to about 123 B per step.
MAX_STEPS = 12_500_000
# Samples per block of a reader of `w` (the divergence guard, which also
# gives the residual maximum, `oracle_errors`, the trajectory panel): 8 B per
# sample per row, 128 KB, however long the run.
ROW_BLOCK = 16384
CLOSED_FORM_STEPS = 4000    # samples per period of `closed_form_trajectory`
# Samples per row of `oracle_errors`' exact state (`_grid_exact_state`), and
# the length of its table of turns: 512 complex doubles (8 KB), or the run's
# length if shorter. It divides `ROW_BLOCK`, so each block starts a row.
TURN_ROW = 512

# Coefficients of R(-i pi s) in s, (-i pi)^k / k!, k = 0..4 (`_step_factor`).
_STEP_COEFFS = tuple((-1j * math.pi) ** k / math.factorial(k) for k in range(5))

# The float columns of the trajectory CSV, in its order (`Trajectory.as_arrays`).
# The first five are a state: a state is anything indexed by them, a dict, a
# SAMPLE_DTYPE record or array. The evaluators in `lagrangian` accept any of them.
SAMPLE_FIELDS = ("t", "X", "dXdt", "x", "dxdt", "invariant_residual")
SAMPLE_DTYPE = np.dtype([(name, np.float64) for name in SAMPLE_FIELDS])
# The unit of each physical column, a field of `SystemParams`: ``X = xi lam``,
# ``dXdt = V v0``, ``x = chi Lam``, ``dxdt = U c``.
UNITS = {"X": "lam", "dXdt": "v0", "x": "Lam", "dxdt": "c"}
# The rows that `Trajectory.rows` derives from ``w``: the dimensionless
# columns, then the first-integral residual.
ROWS = ("xi", "V", "chi", "U", "residual")


class DivergenceError(RuntimeError):
    """Raised when the first-integral residual leaves the trust region."""


def _tau(lo: int, hi: int, dt: float, T: float) -> np.ndarray:
    """``i dt / T`` for the samples ``i`` from ``lo`` to ``hi - 1``."""
    tau = np.arange(lo, hi, dtype=np.float64)
    tau *= dt
    tau /= T
    return tau


def _rows(w, u, tau, names, out=None) -> np.ndarray:
    """The rows ``names`` (of `ROWS`) of the state ``w``, with ``u`` and
    ``tau = t/T`` per sample (read only for ``xi``), into ``out`` if given:

        xi = (Im w - u) / pi + tau    V = 1 - Re w    chi = Re w / pi
        U = Im w                      residual = (Re w)^2 + (Im w)^2 - 1

    Each is computed in this order, so a value keeps its bits whatever the
    slice. ``u`` may be the row of ``xi`` itself, and ``tau`` that of
    ``residual``, which comes last.
    """
    out = np.empty((len(names), *w.shape)) if out is None else out
    re, im = w.real, w.imag
    for j, name in enumerate(names):
        row = out[j, ...]
        if name == "xi":
            np.subtract(im, u, out=row)
            row /= math.pi
            row += tau
        elif name == "V":
            np.subtract(1.0, re, out=row)
        elif name == "chi":
            np.divide(re, math.pi, out=row)
        elif name == "U":
            row[...] = im
        else:
            np.square(re, out=row)
            row += np.square(im)
            row -= 1.0
    return out


@dataclass
class Trajectory:
    """Uniformly sampled run with its reflection events: the integrator's state.

    Sample ``i`` is at ``t = i dt``; ``w`` holds its state ``(1 - V) + iU``
    (16 B per sample), and ``jumps`` the jumps of ``u`` as ``(sample,
    jump)`` pairs in sample order, the first ``(0, 1.0)``. `rows` derives the
    columns ``xi, V, chi, U`` (``X/lam, dXdt/v0, x/Lam, dxdt/c``) and the
    first-integral residual of any slice, and `as_arrays` gives a slice's
    columns of the trajectory CSV, the only ones in physical units.
    ``chi >= -EVENT_X_TOL`` to rounding (only a sample just after a
    reflection sits below zero). ``events`` is the float64 array of
    reflection times in increasing order. ``len(traj)`` is the number of
    samples. No module but this one reads ``w``: the program reads through
    `rows` and `as_arrays`, by block or, in `lagrangian.el_residual`, whole,
    and `samples` derives every sample anew on each access, for the tests
    and the benchmark's counters.
    """

    params: SystemParams
    dt: float
    w: np.ndarray
    jumps: list[tuple[int, float]]
    events: np.ndarray

    def __len__(self) -> int:
        return len(self.w)

    @cached_property
    def _segments(self) -> tuple[np.ndarray, np.ndarray]:
        """The samples at which ``u`` jumps, then ``len(w)``; and ``u``
        from each, the running sum of the jumps."""
        starts, jumps = zip(*self.jumps)
        return np.array([*starts, len(self)]), np.cumsum(jumps)

    def _u(self, lo: int, hi: int) -> np.ndarray:
        """``u`` of samples ``lo`` to ``hi - 1`` (``hi <= len(self)``), from
        the jumps by `numpy.ndarray.repeat`."""
        starts, cum = self._segments
        ends = np.maximum(starts, lo)  # each segment's samples in the slice
        np.minimum(ends, hi, out=ends)
        return cum.repeat(ends[1:] - ends[:-1])

    def rows(self, lo: int, hi: int, names) -> np.ndarray:
        """The rows ``names`` (of `ROWS`) of samples ``lo`` to ``hi - 1``,
        derived from ``w`` by `_rows` into a new array. Only for ``xi`` are
        ``tau`` and ``u`` built, ``u`` by `_u` into the row of ``xi``, so
        that no block holds both as temporaries."""
        w = self.w[lo:hi]
        hi = lo + len(w)
        if "xi" not in names:
            return _rows(w, None, None, names)
        out = np.empty((len(names), len(w)))
        u = out[names.index("xi")]  # `_rows` turns this row into xi in place
        u[...] = self._u(lo, hi)
        return _rows(w, u, _tau(lo, hi, self.dt, self.params.T), names, out)

    @cached_property
    def max_abs_residual(self) -> float:
        """The largest ``|residual|``, by the divergence guard's pass
        (`_guarded_max`, so a diverged state raises `DivergenceError`),
        which `integrate` has already made: it sets this value, so its run
        derives every residual once, for the guard, the CLI's reports and
        the phase panel's bound."""
        return _guarded_max(self.w, self.dt)

    @property
    def samples(self) -> np.ndarray:
        """Every sample's columns of the trajectory CSV, by one `as_arrays`
        call, as a structured array of `SAMPLE_DTYPE` (``samples["X"]`` the
        particle coordinate column, ``samples[i]`` the i-th sample), built
        anew on each access."""
        block = np.empty((len(self), len(SAMPLE_FIELDS)))
        self.as_arrays(slice(None), block)
        return block.view(SAMPLE_DTYPE)[:, 0]

    def as_arrays(self, rows: slice, out) -> dict[str, np.ndarray]:
        """The columns ``t, X, dXdt, x, dxdt, invariant_residual`` of the
        trajectory CSV for the rows ``rows`` (a slice), written into the
        columns of ``out``, a ``(rows, 6)`` float array. `_rows`
        derives them straight into their columns, with ``tau = t/T`` in the
        residual's column until the residual replaces it, and each of the
        four physical ones is then scaled in place by its unit (`UNITS`), so
        the bits are those of `rows`. This is the one place where a run gets
        its physical units."""
        lo, hi, _ = rows.indices(len(self))
        cols = out.T
        t = np.multiply(np.arange(lo, hi, dtype=np.float64), self.dt, out=cols[0])
        _rows(self.w[lo:hi], self._u(lo, hi), np.divide(t, self.params.T, out=cols[5]), ROWS, cols[1:])
        for col, name in zip(cols[1:5], SAMPLE_FIELDS[1:5]):
            col *= getattr(self.params, UNITS[name])
        return dict(zip(SAMPLE_FIELDS, cols))


# ---------------------------------------------------------------------------
# Closed-form reference motion
# ---------------------------------------------------------------------------

def _exact_state(tau, w):
    """Exact state ``(w, u)`` at the times ``tau = t/T``, a float array,
    with ``w`` written into the caller's complex buffer ``w``.

    With ``k = floor(tau)`` the pair turns on the velocity circle and ``u``
    steps by 2 at each reflection:

        w = sin(pi (tau - k)) + i cos(pi (tau - k))    u = 2 k + 1

    `closed_form_trajectory` samples them, and `oracle_errors` compares them
    with a run's, taking them on the run's grid from `_grid_exact_state`,
    which calls this for its table and its coarse turns. ``floor`` is
    right-continuous, so at integer ``tau`` this is the post-reflection
    branch. The argument ``pi (tau - k)`` is formed in ``Im w``, so beside
    ``u`` nothing else is allocated.
    """
    u = np.floor(tau)
    arg = np.multiply(np.subtract(tau, u, out=w.imag), np.pi, out=w.imag)
    np.sin(arg, out=w.real)
    np.cos(arg, out=arg)
    u *= 2.0
    u += 1.0
    return w, u


def _parity(u, out=None):
    """``(-1)^k`` from ``u = 2k + 1`` (`_exact_state`), into ``out`` if
    given, by floor passes: ``4 floor(u/4) + 2 - u``."""
    s = np.multiply(u, 0.25, out=out)
    np.floor(s, out=s)
    s *= 4.0
    s -= u
    s += 2.0
    return s


def _turn_table(n: int, dt: float, T: float) -> np.ndarray:
    """The turns ``e^{-i pi j h}``, ``h = dt/T``, of the first ``min(TURN_ROW,
    n)`` samples of the grid: ``-i (-1)^k`` times `_exact_state`'s ``w``."""
    tau = _tau(0, min(TURN_ROW, n), dt, T)
    w, u = _exact_state(tau, np.empty(len(tau), dtype=np.complex128))
    return w * (-1j * _parity(u))


def _grid_exact_state(table: np.ndarray, lo: int, hi: int, dt: float, T: float, w: np.ndarray, u: np.ndarray):
    """`_exact_state` of the samples ``lo`` to ``hi - 1`` of the grid ``t_i =
    i dt``, with ``w`` written into the complex buffer ``w`` and ``u`` into
    ``u``, both of ``hi - lo``, by angle addition from ``table``, the
    `_turn_table` of the run.

    ``u = 2 k + 1`` with ``k = floor(tau)`` as in `_exact_state`, from the
    same `_tau`, so it keeps its bits. ``w = i (-1)^k e^{-i pi tau}``: each
    row of `TURN_ROW` samples from ``lo`` on is the table times one coarse
    turn, ``i e^{-i pi tau}`` at the row's first sample, which is
    `_exact_state`'s ``w`` there times its ``(-1)^k``; then each sample's
    ``(-1)^k``. The rows start at ``lo``, so calls on blocks that start at
    multiples of `TURN_ROW` give the bits of one call on the whole run.
    Beyond ``w`` and ``u`` this allocates the times, whose memory then holds
    the signs, and one coarse turn per row.
    """
    tau = _tau(lo, hi, dt, T)
    np.floor(tau, out=u)
    u *= 2.0
    u += 1.0
    starts = tau[::TURN_ROW]
    coarse, _ = _exact_state(starts, np.empty(len(starts), dtype=np.complex128))
    sign = _parity(u, out=tau)
    coarse *= sign[::TURN_ROW]
    for a, turn in zip(range(0, hi - lo, TURN_ROW), coarse.tolist()):
        row = w[a:a + TURN_ROW]
        np.multiply(table[:len(row)], turn, out=row)
    w.real *= sign
    w.imag *= sign
    return w, u


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
    w, u = _exact_state(_tau(0, n + 1, dt, p.T), np.empty(n + 1, dtype=np.complex128))
    jumps = [(0, 1.0)] + [(i, 2.0) for i in (np.flatnonzero(np.diff(u)) + 1).tolist()]
    n_events = math.floor(t_end / p.T + 1e-12)
    return Trajectory(p, dt, w, jumps, events=np.arange(1, n_events + 1) * p.T)


# ---------------------------------------------------------------------------
# Fixed-step integration with event handling
# ---------------------------------------------------------------------------

def _step_factor(s: float) -> complex:
    """``R(-i pi s)``, the factor by which one RK4 step of length ``s`` (in
    T) multiplies ``w``: the degree-4 Taylor polynomial of ``exp(-i pi s)``."""
    c0, c1, c2, c3, c4 = _STEP_COEFFS
    return c0 + s * (c1 + s * (c2 + s * (c3 + s * c4)))


def _step_powers(h: float, theta: float, size: int) -> np.ndarray:
    """``R^1..R^size`` for the step ``h``, written as ``rho^k e^{-ik theta}``.

    ``-theta`` is the argument of ``R(-i pi h)``, which the caller holds,
    and ``rho^2 = 1 - z^6/72 + z^8/576`` (``z = pi h``) its squared modulus,
    taken through ``log1p`` because ``1 - rho`` falls below 1e-16 at
    T/1000. Every power is computed directly, so none inherits the rounding
    of the one before it.
    """
    z = math.pi * h
    log_rho = 0.5 * math.log1p(z ** 8 / 576.0 - z ** 6 / 72.0)
    return np.exp(np.arange(1, size + 1) * complex(log_rho, -theta))


def _predicted_step(start: complex, theta: float, size: int) -> int:
    """The first sample ``k`` (1 to ``size``) of the block ``R^k start``
    that lies below the guard, as the turn angle predicts it. A sample
    within rounding of the guard can put it one off, so `integrate` checks
    it against the samples.

    Each step turns ``w`` by ``theta`` from ``alpha = atan2(Re start, Im
    start)``, and ``Re w < 0`` once the angle passes pi, so ``k =
    floor((pi - alpha) / theta) + 1``; but 1 for a start more than half a
    step below the guard, whose next sample may be below it too: the check
    then starts at that sample, so a block never passes over it. A ``k``
    past ``size``, or one that is not a number, is capped at ``size``.
    """
    alpha = math.atan2(start.real, start.imag)
    if alpha < -0.5 * theta:
        return 1
    k = (math.pi - alpha) / theta
    return int(k) + 1 if k < size else size


def _crossing(w: complex, h: float, r_h: complex, t: float) -> tuple[float, complex]:
    """Partial step ``s`` in ``[0, h]`` at which the separation vanishes, in
    the step that starts at time ``t`` from ``w`` and ends below the guard,
    and the state ``R(-i pi s) w`` at the crossing. ``r_h`` is the whole
    step's factor ``R(-i pi h)``.

    The linear guess, then, unless it already has ``|chi| <= EVENT_X_TOL``
    or ``U = 0``, one Newton step on ``chi(s) = Re(R(-i pi s) w) / pi`` with
    the flow's slope ``U`` (the quartic's to a relative ``(pi s)^4/24``). On
    the grids that `step_count` admits that one step meets the target
    (`test_one_newton_step_locates_every_admitted_crossing`), so a crossing
    evaluates `_step_factor` twice. Raises RuntimeError, naming ``t``,
    unless then ``|chi| <= EVENT_X_TOL`` and ``0 <= s <= h``: so also for a
    step that starts below the guard, which has no root in it.
    """
    s = h * w.real / (w.real - (r_h * w).real)
    ws = _step_factor(s) * w
    if abs(ws.real) > math.pi * EVENT_X_TOL and ws.imag:
        s -= ws.real / (math.pi * ws.imag)
        ws = _step_factor(s) * w
    miss = abs(ws.real) / math.pi
    if not (miss <= EVENT_X_TOL and 0.0 <= s <= h):
        raise RuntimeError(
            f"event location in the step at t={t} stopped at |x| = {miss:.3e} Lam, s = {s / h:.6g} h; "
            f"the target is |x| <= {EVENT_X_TOL} Lam with 0 <= s <= h"
        )
    return s, ws


def _guard(residuals: np.ndarray, lo: int, dt: float) -> float:
    """Raise `DivergenceError` at the first of ``residuals``, those of the
    samples from ``lo`` on, that is not within the limit (NaN included);
    otherwise return their largest ``|residual|``."""
    mag = np.abs(residuals)
    peak = mag.max(initial=0.0)
    if not peak <= DIVERGENCE_LIMIT:
        k = int(np.argmax(~(mag <= DIVERGENCE_LIMIT)))
        raise DivergenceError(
            f"first-integral residual {residuals[k]:.3e} at t={(lo + k) * dt} exceeds "
            f"{DIVERGENCE_LIMIT}; the run has diverged"
        )
    return float(peak)


def _guarded_max(w: np.ndarray, dt: float) -> float:
    """The divergence guard on the residuals of the samples ``w``, one block
    of `ROW_BLOCK` at a time (`_guard`), and their largest ``|residual|``:
    `Trajectory.max_abs_residual`."""
    blocks = range(0, len(w), ROW_BLOCK)
    return max(_guard(_rows(w[lo:lo + ROW_BLOCK], None, None, ("residual",))[0], lo, dt) for lo in blocks)


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
            "(a run peaks at 17 B per step, the state w and the CSV's event flags, and at about 123 B "
            "with outputs.el_residuals); raise dt or lower t_end"
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

    Each reflection costs one block multiply, the prediction of its step
    from the turn angle and a read of the two samples around it, a crossing
    (`_crossing`: two `_step_factor` evaluations) and a reset (one more).

    Raises `RuntimeError`, from `_crossing` and naming the step, as soon as
    a step that ends below the guard holds no located crossing, and
    `DivergenceError` after the last block, before the trailing probe, if
    the first-integral residual of a sample exceeds 1e-3 (or is not a
    number), which signals an integration failure rather than physics. The
    guard's pass sets `Trajectory.max_abs_residual`.
    """
    n_steps = step_count(p.T, t_end, dt)

    h = dt / p.T
    r_h = _step_factor(h)
    theta = -cmath.phase(r_h)  # the turn of one step
    # A block ends at the first reflection it contains, and the next
    # reflection is at most ceil(1/h) + 1 steps away, so longer tables are
    # never used: the blocks, and the samples, are those of a full table.
    table = _step_powers(h, theta, min(BLOCK_STEPS, n_steps, math.ceil(1.0 / h) + 1))
    size = table.size

    # w = (1 - V) + iU per sample, padded by one table so that every block is
    # a whole one, and the jumps of u as (sample, jump): 1 at the start, then
    # -2 U_ev on the first sample after each reflection.
    w = np.empty(n_steps + 1 + size, dtype=np.complex128)
    w[0] = 1j
    re = w.real
    jumps = [(0, 1.0)]
    events = []

    i = 0
    while i < n_steps:
        # The whole block goes straight into w; the samples past a crossing
        # are overwritten by the reflected step and the next block, and those
        # past n_steps are dropped.
        start = w.item(i)
        np.multiply(table, start, out=w[i + 1:i + 1 + size])
        # Sample i+k is the block's first below the guard, or none is: the
        # prediction, moved one sample at a time until the samples around it
        # straddle the guard.
        k = _predicted_step(start, theta, size)
        while k > 1 and re[i + k - 1] < 0.0:
            k -= 1
        below = re[i + k] < 0.0
        while not below and k < size:
            k += 1
            below = re[i + k] < 0.0
        if not below or i + k > n_steps:
            i += size
            continue
        i += k - 1
        # Step i -> i+1 crosses the guard.
        s, hit = _crossing(w.item(i), h, r_h, i * dt)
        events.append(i * dt + s * p.T)
        jumps.append((i + 1, -2.0 * hit.imag))
        w[i + 1] = _step_factor(h - s) * hit.conjugate()
        i += 1
    w = w[:n_steps + 1]

    # The divergence guard runs before the trailing probe; its pass gives the
    # residual maximum.
    peak = _guarded_max(w, dt)

    # Trailing probe: the discretized crossing of the final period can land a
    # hair past t_end (the phase lag of PROBE_WINDOW's comment). One probe
    # step past the end recovers an event belonging to this run; only events
    # within PROBE_WINDOW * T of t_end are accepted and no samples are added.
    last = complex(w[n_steps])
    if (r_h * last).real < 0.0 <= last.real:
        s, _ = _crossing(last, h, r_h, n_steps * dt)
        if s <= PROBE_WINDOW:
            events.append(n_steps * dt + s * p.T)
    traj = Trajectory(p, dt, w, jumps, np.array(events, dtype=np.float64))
    traj.max_abs_residual = peak  # the cached property, from the guard's pass
    return traj


# ---------------------------------------------------------------------------
# Diagnostics and serialization
# ---------------------------------------------------------------------------

def _deviations(
    traj: Trajectory, table: np.ndarray, lo: int, hi: int, near: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """The largest ``|Im dw - du|``, ``|Re dw|`` and ``|Im dw|`` (see
    `oracle_errors`) over samples ``lo`` to ``hi - 1``, with ``near`` the
    samples whose ``|Im dw|`` accepts either branch and ``table`` the run's
    `_turn_table`. ``work``, of shape ``(5, >= hi - lo)``, takes ``w_exact``
    (`_grid_exact_state`) and then ``dw`` in the memory of its last two
    rows, viewed as one complex buffer, and ``u_exact``, ``du`` and the
    three rows it reduces in its first three."""
    dev, exact = work[:3, :hi - lo], work[3:].reshape(-1).view(np.complex128)[:hi - lo]
    _grid_exact_state(table, lo, hi, traj.dt, traj.params.T, exact, dev[1])
    du = np.subtract(traj._u(lo, hi), dev[1], out=dev[0])
    # this block's samples near an event, and their dxdt against the other branch
    here = near[(near >= lo) & (near < hi)] - lo
    other = np.abs(traj.w.imag[lo:hi][here] + exact.imag[here])
    dw = np.subtract(traj.w[lo:hi], exact, out=exact)
    np.abs(np.subtract(dw.imag, du, out=du), out=du)
    np.abs(dw.real, out=dev[1])
    np.abs(dw.imag, out=dev[2])
    dev[2][here] = np.minimum(dev[2][here], other)
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
    event.

    `_rows` makes each column linear in the state, so the run's state and
    the exact one are compared, not their columns. The exact state is
    `_exact_state`'s on the run's grid, by angle addition from one table of
    turns per call (`_grid_exact_state`): ``u_exact`` to the bit, ``w_exact``
    to within a few times ``pi ulp(tau) + eps``, the order of the rounding of
    ``pi tau`` that `_exact_state` already has. With
    ``dw = w - w_exact`` and ``du = u - u_exact``, the deviations are
    ``|Im dw - du| / pi`` (X, as ``tau`` cancels), ``|Re dw|`` (dXdt),
    ``|Re dw| / pi`` (x) and ``|Im dw|`` (dxdt). Division by pi, correctly
    rounded, keeps the order of values, so it is applied to the maxima.
    `_deviations` computes them in place, one block of `ROW_BLOCK` samples at
    a time, and reduces each block to its three maxima (a NaN deviation
    propagates), so the memory beyond the trajectory does not grow with the
    run.
    """
    p, dt, n = traj.params, traj.dt, len(traj)
    window = PROBE_WINDOW * p.T
    # candidate grid indices around each event, inside [0, n), then the exact window test
    ev = np.asarray(traj.events, dtype=np.float64)[:, None]
    j = np.maximum(np.floor((ev - window) / dt) - 1.0, 0.0) + np.arange(min(math.ceil(2.0 * window / dt) + 4, n))
    near = j[(j < n) & (np.abs(j * dt - ev) <= window)].astype(np.intp)
    # One call per block, each into the same work rows; a NaN deviation
    # propagates through both maxima. Three rules keep a call's memory flat;
    # test_oracle_errors_allocates_no_block_sized_buffer fails on a break of
    # the last two:
    # - the rows are one whole block of 640 KB, however short the run: freeing
    #   one that size lifts the allocator's trim threshold past the CSV
    #   writer's chunks and a `check` op's temporaries, so they are not
    #   faulted in again on every chunk or op;
    # - the exact state goes into these rows and its signs into the block's
    #   times, freed before the run's u is built: one more row at a time;
    # - no broadcast operand (`np.multiply.outer`) and no float-to-complex
    #   cast, each of which allocates numpy's 8,192-element buffers: the
    #   angle addition multiplies a contiguous row by a scalar and scales
    #   `.real` and `.imag` by a float row.
    # Beside the rows, a call holds the table, at most TURN_ROW turns.
    work = np.empty((5, ROW_BLOCK))
    table = _turn_table(n, dt, p.T)
    d_xi, d_V, d_U = np.max(
        [_deviations(traj, table, lo, min(lo + ROW_BLOCK, n), near, work) for lo in range(0, n, ROW_BLOCK)], axis=0
    ).tolist()
    out = {"X": d_xi / math.pi, "dXdt": d_V, "x": d_V / math.pi, "dxdt": d_U}
    out["max"] = max(out.values())
    return out


_CSV_HEADER = ",".join((*SAMPLE_FIELDS, "event_flag"))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write samples as CSV: ``t,X,dXdt,x,dxdt,invariant_residual,event_flag``.

    ``event_flag`` is 1, for each reflection at ``t_ev``, on the first
    sample at or after ``t_ev - PROBE_WINDOW T``. That is the last sample
    before the reflection when the reflection lies within ``PROBE_WINDOW T``
    after it, as at every reflection of a run whose grid holds the multiples
    of T (``dt = T/1000``, ``T/250``), and otherwise the first sample after
    it. Floats carry 17 significant digits (``%.17g``) so a file round-trips
    to the exact same doubles. One `Trajectory.as_arrays` call writes each
    chunk's columns into its row-major float block, which `_text.rows`
    renders into one row buffer (byte-identical to per-value formatting) and
    which is written, so the writer's memory beyond its flags does not grow
    with the run.
    """
    flags = np.zeros(len(traj), dtype=np.uint8)
    for t_ev in traj.events:
        # an event localized within the timing tolerance after a grid point
        # belongs to that sample, not the next interval
        idx = math.ceil((t_ev - PROBE_WINDOW * traj.params.T) / traj.dt)
        if 0 <= idx < len(flags):
            flags[idx] = 1
    _text.write_csv(path, _CSV_HEADER, traj.as_arrays, flags)


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
