import cmath
import dataclasses
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from inertonsim import (
    DivergenceError,
    derive_kinematics,
    integrate,
    oracle_errors,
    write_events_json,
    write_trajectory_csv,
)
from inertonsim import SystemParams, cli, dynamics
from inertonsim.dynamics import CLOSED_FORM_STEPS, closed_form_trajectory
from inertonsim import plotting
from inertonsim.plotting import phase_plane_svg, render_line_svg, trajectory_svg

# The generator of the dimensionless system, written out independently of
# the program: dy/dtau = A y for y = (xi, V, chi, U, 1), with xi' = V,
# V' = -pi U, chi' = U and U' = pi (V - 1).
def _row(traj, name):
    """The row ``name`` (of `dynamics.ROWS`) of every sample of ``traj``."""
    return traj.rows(0, len(traj), (name,))[0]


GENERATOR = np.array(
    [
        [0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -math.pi, 0.0],
        [0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, math.pi, 0.0, 0.0, -math.pi],
        [0.0, 0.0, 0.0, 0.0, 0.0],
    ]
)


# ---------------------------------------------------------------- closed form

def _closed_form_period(params):
    """The columns of one period of `closed_form_trajectory`, whose sample
    ``i`` is at ``t = i T / CLOSED_FORM_STEPS``."""
    samples = closed_form_trajectory(params, t_end=params.T).samples
    return {name: samples[name] for name in samples.dtype.names}


def test_closed_form_quarter_points(natural):
    params, _ = natural
    s = {name: col[dynamics.CLOSED_FORM_STEPS // 2] for name, col in _closed_form_period(params).items()}
    assert s["dXdt"] == pytest.approx(0.0, abs=1e-15)
    assert s["x"] == pytest.approx(params.Lam / math.pi, rel=1e-14)
    assert s["dxdt"] == pytest.approx(0.0, abs=1e-14)


def test_closed_form_one_period(natural):
    params, _ = natural
    s = {name: col[dynamics.CLOSED_FORM_STEPS] for name, col in _closed_form_period(params).items()}
    assert s["X"] == pytest.approx(params.lam * (1.0 - 2.0 / math.pi), rel=1e-13)
    assert s["X"] == pytest.approx(0.36338, rel=1e-4)
    assert s["x"] == pytest.approx(0.0, abs=1e-12)
    assert s["dXdt"] == pytest.approx(params.v0, rel=1e-13)


def test_closed_form_initial_conditions(natural):
    params, _ = natural
    s = {name: col[0] for name, col in _closed_form_period(params).items()}
    assert (s["X"], s["x"]) == (0.0, 0.0)
    assert s["dXdt"] == params.v0
    assert s["dxdt"] == params.c


def test_closed_form_rejects_negative_time(natural):
    params, _ = natural
    with pytest.raises(ValueError):
        closed_form_trajectory(params, t_end=-0.1)


def test_invariant_vanishes_on_closed_form(natural):
    params, _ = natural
    traj = closed_form_trajectory(params, t_end=50.0 * params.T)
    assert np.max(np.abs(_row(traj, "residual"))) <= 1e-12


def test_mean_drift_matches_quadrature(natural):
    # Simpson's rule on the closed-form velocity over one period
    params, kin = natural
    v, h = _closed_form_period(params)["dXdt"], params.T / dynamics.CLOSED_FORM_STEPS
    drift = h / 3.0 * (v[0] + 4.0 * v[1:-1:2].sum() + 2.0 * v[2:-1:2].sum() + v[-1])
    assert drift == pytest.approx(kin.mean_drift * params.T, rel=1e-8)


# ------------------------------------------------------------- vector field

def _accelerations(s, p):
    """Physical (accel_X, accel_x) from the dimensionless generator: the
    velocity rows of A y, scaled by v0/T and c/T."""
    y = np.array([s["X"] / p.lam, s["dXdt"] / p.v0, s["x"] / p.Lam, s["dxdt"] / p.c, 1.0])
    dy = GENERATOR @ y
    return dy[1] * p.v0 / p.T, dy[3] * p.c / p.T


def test_rhs_at_start(natural):
    params, _ = natural
    s = dict(t=0.0, X=0.0, dXdt=params.v0, x=0.0, dxdt=params.c)
    aX, ax = _accelerations(s, params)
    assert aX == pytest.approx(-math.pi * params.v0 / params.T, rel=1e-14)
    assert ax == pytest.approx(0.0, abs=1e-14)


def test_rhs_at_turning_point(natural):
    params, _ = natural
    s = dict(t=0.5, X=0.2, dXdt=0.0, x=params.Lam / math.pi, dxdt=0.0)
    aX, ax = _accelerations(s, params)
    assert aX == pytest.approx(0.0, abs=1e-14)
    assert ax == pytest.approx(-math.pi * params.c / params.T, rel=1e-14)


# -------------------------------------------------------------- integration

def test_oracle_agreement_standard_run(natural, natural_traj):
    errs = oracle_errors(natural_traj)
    assert errs["max"] <= 1e-6
    assert errs["X"] <= 1e-6


def test_ten_events_on_period_boundaries(natural, natural_traj):
    params, _ = natural
    assert natural_traj.events.dtype == np.float64
    assert len(natural_traj.events) == 10
    for n, t_ev in enumerate(natural_traj.events, start=1):
        assert abs(t_ev - n * params.T) <= 1e-6 * params.T


def test_conservation_across_events(natural_traj):
    worst = max(abs(r) for r in _row(natural_traj, "residual"))
    assert worst <= 1e-8


def test_sample_count(natural, natural_traj):
    params, _ = natural
    expected = int(round(10.0 * params.T / (params.T / 1000.0))) + 1
    assert len(natural_traj.samples) == expected == 10001


def test_periodicity_recurrence(natural, natural_traj):
    # compare one step inside the period so neither state touches the
    # velocity discontinuity at the boundary itself
    params, _ = natural
    s0 = natural_traj.samples[1]
    for n in (1, 2):
        s = natural_traj.samples[2 * n * 1000 + 1]
        assert abs(s["dXdt"] - s0["dXdt"]) / params.v0 <= 1e-6
        assert abs(s["x"] - s0["x"]) / params.Lam <= 1e-6
        assert abs(s["dxdt"] - s0["dxdt"]) / params.c <= 1e-6
        drift = 2.0 * n * params.lam * (1.0 - 2.0 / math.pi)
        assert abs((s["X"] - s0["X"]) - drift) / params.lam <= 1e-6


def test_convergence_fourth_order(natural):
    params, _ = natural
    errors = []
    for div in (100, 200, 400):
        traj = integrate(params, t_end=10.0 * params.T, dt=params.T / div)
        errors.append(oracle_errors(traj)["max"])
    assert errors[0] / errors[1] >= 8.0
    assert errors[1] / errors[2] >= 8.0


def test_dt_must_resolve_period(natural):
    params, _ = natural
    with pytest.raises(ValueError):
        integrate(params, t_end=1.0, dt=params.T / 50.0)


def test_t_end_must_be_whole_steps(natural):
    params, _ = natural
    with pytest.raises(ValueError):
        integrate(params, t_end=1.0005, dt=1e-3 * 2.0)


def test_off_grid_events_still_found(natural):
    # dt = 3T/500 puts the period boundaries strictly between grid points
    params, _ = natural
    traj = integrate(params, t_end=3.0 * params.T, dt=3.0 * params.T / 500.0)
    assert len(traj.events) == 3
    for n, t_ev in enumerate(traj.events, start=1):
        assert abs(t_ev - n * params.T) <= 1e-6 * params.T


@settings(deadline=None, max_examples=15)
@given(
    v0=st.floats(min_value=0.05, max_value=0.8),
    T=st.floats(min_value=0.2, max_value=5.0),
)
def test_conservation_property(v0, T):
    params, _ = derive_kinematics(1.0, v0, 1.0, T)
    traj = integrate(params, t_end=2.0 * T, dt=T / 250.0)
    assert max(abs(r) for r in _row(traj, "residual")) <= 1e-8


def test_long_run_stays_on_the_invariant_circle(natural):
    params, _ = natural
    traj = integrate(params, t_end=20.0 * params.T, dt=params.T / 500.0)
    assert len(traj.events) == 20
    assert max(abs(r) for r in _row(traj, "residual")) <= 1e-8


def test_divergence_error_is_a_runtime_error():
    assert issubclass(DivergenceError, RuntimeError)


# -------------------------------------------------------------- file output

def test_trajectory_csv_roundtrip(tmp_path, natural):
    params, _ = natural
    traj = integrate(params, t_end=2.0, dt=1e-3)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    raw = np.genfromtxt(path, delimiter=",", names=True)
    assert raw.shape[0] == len(traj.samples)
    assert list(raw.dtype.names) == [
        "t", "X", "dXdt", "x", "dxdt", "invariant_residual", "event_flag",
    ]
    # 17 significant digits reproduce the exact doubles
    for i in (0, 100, 1500):
        s = traj.samples[i]
        assert raw["X"][i] == s["X"]
        assert raw["dxdt"][i] == s["dxdt"]
    flagged = np.nonzero(raw["event_flag"])[0]
    assert len(flagged) == 2

    # the units map: with lam, v0, Lam and c all different, written rows
    # match the physical closed form, written out here, within 1e-6 scaled
    params, _ = derive_kinematics(2.3, 0.37, 1.0, 1.7)
    v0, c, T, lam, Lam = params.v0, params.c, params.T, params.lam, params.Lam
    assert len({v0, c, lam, Lam}) == 4
    traj = integrate(params, t_end=2.0 * T, dt=T / 1000.0)
    write_trajectory_csv(traj, path)
    raw = np.genfromtxt(path, delimiter=",", names=True)
    for i in (0, 250, 777, 1001, 1750):
        t = float(raw["t"][i])
        assert t == i * traj.dt
        k = math.floor(t / T)
        frac = t / T - k
        exact = {
            "X": (v0 * t + (lam / math.pi) * (math.cos(math.pi * frac) - 1.0 - 2.0 * k), lam),
            "dXdt": (v0 * (1.0 - math.sin(math.pi * frac)), v0),
            "x": ((Lam / math.pi) * math.sin(math.pi * frac), Lam),
            "dxdt": (c * math.cos(math.pi * frac), c),
        }
        for name, (value, scale) in exact.items():
            assert abs(raw[name][i] - value) <= 1e-6 * scale, (i, name)


def test_events_json(tmp_path, natural):
    params, _ = natural
    traj = integrate(params, t_end=3.0, dt=1e-3)
    path = tmp_path / "events.json"
    write_events_json(traj, path)
    data = json.loads(path.read_text())
    assert [e["kind"] for e in data["events"]] == ["cloud_reflection"] * 3
    assert [e["t"] for e in data["events"]] == traj.events.tolist()


@pytest.mark.parametrize(
    "times",
    [(), (123456789.123,), (5e-324, 1e-300, 0.1 + 0.2), (0.5, 1e16, 1e22)],
)
def test_events_json_bytes_match_json_dump(tmp_path, natural, times):
    # every repr form: subnormal, tiny exponent, 17 digits, 1e16, plain decimal
    params, _ = natural
    traj = dynamics.Trajectory(
        params=params,
        dt=1.0,
        w=np.empty(0, dtype=np.complex128),
        jumps=[(0, 1.0)],
        events=np.array(times, dtype=np.float64),
    )
    path = tmp_path / "events.json"
    write_events_json(traj, path)
    doc = {"events": [{"t": t, "kind": "cloud_reflection"} for t in times]}
    assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()


@pytest.mark.parametrize("shift", [0.0, -0.3, 0.3], ids=["2T", "2T-0.3dt", "2T+0.3dt"])
def test_closed_form_trajectory_marks_events(natural, shift):
    # 2T - 0.3 dt rounds to the same 8,001 samples as 2T, through the second
    # reflection, which once went without its event
    params, _ = natural
    dt = params.T / CLOSED_FORM_STEPS
    traj = closed_form_trajectory(params, t_end=2.0 * params.T + shift * dt)
    assert len(traj.samples) == 8001
    assert len(traj.events) == len(traj.jumps) - 1 == 2
    assert traj.events[-1] <= (len(traj) - 1) * traj.dt


@pytest.mark.parametrize(
    "pars", [(1.0, 1.0, 10.0, 1.0), (2.3, 0.37, 1.0, 1.7), (1.0, 1.0e-4, 1.0, 1.0)],
    ids=["natural", "M0-2.3-v0-0.37-T-1.7", "v0-c-1e-4"],
)
def test_closed_form_agrees_with_itself(pars):
    # one exact state and one row formula: the sampled closed form is its own
    # oracle to within the rounding of the oracle's angle addition
    # (`_grid_exact_state`)
    params, _ = derive_kinematics(*pars)
    traj = closed_form_trajectory(params, t_end=2.0 * params.T)
    bound = _turn_rounding((len(traj) - 1) * traj.dt / params.T)
    assert all(value <= bound for value in oracle_errors(traj).values())


def _turn_rounding(tau_end):
    """Bound on how far the oracle's exact state (`dynamics._grid_exact_state`)
    may lie from `dynamics._exact_state`'s up to ``tau = tau_end``: 4 (pi
    ulp(tau_end) + eps), the order of the rounding of ``pi tau`` that both
    already have."""
    return 4.0 * (math.pi * float(np.spacing(tau_end)) + float(np.finfo(np.float64).eps))


_MAX_BLOCK = (dynamics.MAX_STEPS - 3 * dynamics.ROW_BLOCK) // dynamics.ROW_BLOCK


@settings(deadline=None, max_examples=60)
@given(
    T=st.floats(math.log(0.1), math.log(10.0)).map(math.exp),
    divisor=st.one_of(st.floats(100.0, 4000.0), st.sampled_from([128.0, 333.3, 999.5, 101.7])),
    first=st.one_of(st.just(0), st.integers(0, _MAX_BLOCK)),
    size=st.one_of(st.integers(1, dynamics.TURN_ROW - 1), st.integers(1, 3 * dynamics.ROW_BLOCK)),
)
@example(T=1.0, divisor=128.0, first=7, size=2 * dynamics.ROW_BLOCK)  # every block and row starts at an integer tau
@example(T=2.3, divisor=999.5, first=0, size=dynamics.TURN_ROW - 1)  # a run shorter than the table
@example(T=0.37, divisor=101.7, first=_MAX_BLOCK, size=dynamics.ROW_BLOCK + 1)  # partial rows, the largest tau
def test_grid_exact_state_matches_the_closed_form(T, divisor, first, size):
    # The last `size` samples of a run, from the start of its block `first`
    # of ROW_BLOCK samples, on any grid: the exact state by angle addition
    # against `_exact_state`'s sin and cos at the same times. w agrees to
    # within `_turn_rounding`, u to the bit, and one call on the whole window
    # gives the bits of one call per block of ROW_BLOCK, as `oracle_errors`
    # makes them.
    dt, lo = T / divisor, first * dynamics.ROW_BLOCK
    hi = lo + size
    table = dynamics._turn_table(hi, dt, T)
    assert len(table) == min(dynamics.TURN_ROW, hi)
    w, u = dynamics._grid_exact_state(table, lo, hi, dt, T, np.empty(size, dtype=np.complex128), np.empty(size))
    w_ref, u_ref = dynamics._exact_state(dynamics._tau(lo, hi, dt, T), np.empty(size, dtype=np.complex128))
    assert u.tobytes() == u_ref.tobytes()
    assert float(np.max(np.abs(w - w_ref))) <= _turn_rounding((hi - 1) * dt / T)
    for a in range(0, size, dynamics.ROW_BLOCK):
        b = min(a + dynamics.ROW_BLOCK, size)
        block = dynamics._grid_exact_state(table, lo + a, lo + b, dt, T, np.empty(b - a, dtype=np.complex128),
                                           np.empty(b - a))
        assert block[0].tobytes() == w[a:b].tobytes() and block[1].tobytes() == u[a:b].tobytes()


# ------------------------------------------------------- column pipeline

def test_divergence_guard_stops_at_first_offending_sample(natural, monkeypatch):
    params, _ = natural
    ref = integrate(params, t_end=1.0, dt=1e-3)
    limit = 0.5 * float(np.max(np.abs(_row(ref, "residual"))))
    first = int(np.argmax(np.abs(_row(ref, "residual")) > limit))
    monkeypatch.setattr(dynamics, "DIVERGENCE_LIMIT", limit)
    with pytest.raises(DivergenceError, match=f"at t={first * 1e-3}"):
        integrate(params, t_end=1.0, dt=1e-3)


def test_divergence_guard_stops_in_a_later_block_before_the_trailing_probe(natural, monkeypatch):
    # the first residual over the limit lies in the second block of
    # ROW_BLOCK samples; the run's last reflection lies past t_end, so only
    # the trailing probe would locate it, and the guard stops the run first
    params, _ = natural
    dt = params.T / 1000.0
    args = (params, 40000 * dt, dt)
    times = []
    crossing = dynamics._crossing

    def record(w, h, r_h, t):
        times.append(t)
        return crossing(w, h, r_h, t)

    monkeypatch.setattr(dynamics, "_crossing", record)
    residual = np.abs(_row(integrate(*args), "residual"))
    assert times[-1] == 40000 * dt
    limit = 0.5 * float(np.max(residual))
    first = int(np.argmax(residual > limit))
    assert dynamics.ROW_BLOCK <= first < 2 * dynamics.ROW_BLOCK
    monkeypatch.setattr(dynamics, "DIVERGENCE_LIMIT", limit)
    times.clear()
    with pytest.raises(DivergenceError, match=f"^first-integral residual -[0-9.e-]+ at t={first * dt} exceeds"):
        integrate(*args)
    assert times and times[-1] < 40000 * dt


@pytest.mark.parametrize("case", ["natural-T/1000", "T/250", "closed-form"])
def test_max_abs_residual_is_the_largest_residual_bitwise(natural, case):
    # runs of more than one ROW_BLOCK; the value that integrate's guard pass
    # sets is the one a fresh Trajectory of the same run derives
    params, _ = natural
    if case == "natural-T/1000":
        traj = integrate(params, t_end=40.0 * params.T, dt=params.T / 1000.0)
    elif case == "T/250":
        params, _ = derive_kinematics(2.3, 0.37, 1.0, 1.7)
        traj = integrate(params, t_end=100.0 * params.T, dt=params.T / 250.0)
    else:
        traj = closed_form_trajectory(params, t_end=5.0 * params.T)
    n = len(traj)
    assert n > dynamics.ROW_BLOCK
    expected = float(np.max(np.abs(traj.rows(0, n, ("residual",)))))
    assert traj.max_abs_residual.hex() == expected.hex()
    assert dataclasses.replace(traj).max_abs_residual.hex() == expected.hex()


@pytest.mark.parametrize("divisor", [125, 999.5, 1000])
def test_each_reflection_evaluates_the_step_polynomial_at_most_three_times(natural, divisor, monkeypatch):
    # One table per run. Each reflection located by the loop evaluates the
    # step polynomial R(-i pi s) three times at most: the crossing's linear
    # guess and one Newton step, then the reset. The trailing probe takes
    # three at most, and the run R(-i pi h) once, whose phase the table
    # takes, besides the one evaluation in `step_count`'s lag test.
    params, _ = natural
    calls = {"_step_factor": 0, "_step_powers": 0}
    for name in calls:
        def counted(*args, name=name, original=getattr(dynamics, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(dynamics, name, counted)
    dt = params.T / divisor
    traj = integrate(params, round(20 * divisor) * dt, dt)
    reflections = len(traj.jumps) - 1
    assert reflections >= 19
    assert calls["_step_powers"] == 1
    assert calls["_step_factor"] <= 3 * reflections + 1 + 3 + 1


def _reference_integrate(p, t_end, dt):
    """`integrate` with the block loop it had before blocks were stepped in
    place: a fresh product per block, `flatnonzero` and a copy up to the
    crossing, the jumps of u in a full-length array summed by `cumsum`.
    Kept, like the per-row formatters, to pin the program's bits. Returns
    ``(xi, V, chi, U, events, residuals)``, or raises `DivergenceError`."""
    n_steps = dynamics.step_count(p.T, t_end, dt)
    h = dt / p.T
    theta = -cmath.phase(dynamics._step_factor(h))
    table = dynamics._step_powers(h, theta, min(dynamics.BLOCK_STEPS, n_steps, math.ceil(1.0 / h) + 1))
    w = np.empty(n_steps + 1, dtype=np.complex128)
    w[0] = 1j
    du = np.zeros(n_steps + 1)
    du[0] = 1.0
    events = []
    i = 0
    while i < n_steps:
        states = table[:n_steps - i] * w[i]
        below = np.flatnonzero(states.real < 0.0)
        k = int(below[0]) if below.size else states.size
        w[i + 1:i + 1 + k] = states[:k]
        i += k
        if not below.size:
            continue
        assert w[i].real >= 0.0
        start = complex(w[i])
        s, _ = dynamics._crossing(start, h, dynamics._step_factor(h), i * dt)
        events.append(i * dt + s * p.T)
        hit = dynamics._step_factor(s) * start
        du[i + 1] = -2.0 * hit.imag
        w[i + 1] = dynamics._step_factor(h - s) * hit.conjugate()
        i += 1
    residuals = w.real ** 2 + w.imag ** 2 - 1.0
    bad = np.flatnonzero(~(np.abs(residuals[1:]) <= dynamics.DIVERGENCE_LIMIT))
    if bad.size:
        raise DivergenceError(f"at t={(1 + int(bad[0])) * dt}")
    last = complex(w[n_steps])
    if (dynamics._step_factor(h) * last).real < 0.0 <= last.real:
        s, _ = dynamics._crossing(last, h, dynamics._step_factor(h), n_steps * dt)
        if s <= dynamics.PROBE_WINDOW:
            events.append(n_steps * dt + s * p.T)
    xi = np.arange(n_steps + 1) * dt / p.T + (w.imag - np.cumsum(du)) / math.pi
    return xi, 1.0 - w.real, w.real / math.pi, w.imag, np.array(events, dtype=np.float64), residuals


@settings(deadline=None, max_examples=40)
@given(
    M0=st.floats(0.1, 10.0),
    v0=st.floats(0.01, 0.9),
    T=st.floats(0.1, 10.0),
    divisor=st.floats(100.0, 4000.0),
    periods=st.integers(1, 120),
    cut=st.one_of(st.none(), st.floats(0.0, 1.0)),
)
# At T/125 the second reflection lies in the step from sample 250 to 251,
# which a block of the one-period table (126 steps) from sample 126 holds.
# t_end one step before that step, at its start (the trailing probe finds
# the reflection, past the last sample of the block that holds it) and at
# its end (the run's last step reflects).
@example(M0=1.0, v0=0.5, T=1.0, divisor=125.0, periods=3, cut=249 / 375)
@example(M0=1.0, v0=0.5, T=1.0, divisor=125.0, periods=3, cut=250 / 375)
@example(M0=1.0, v0=0.5, T=1.0, divisor=125.0, periods=3, cut=251 / 375)
# runs shorter than one table: one step, 100 steps, and 125 steps, whose one
# reflection the trailing probe finds
@example(M0=1.0, v0=0.5, T=1.0, divisor=125.0, periods=1, cut=0.0)
@example(M0=1.0, v0=0.5, T=1.0, divisor=125.0, periods=1, cut=0.8)
@example(M0=2.3, v0=0.37, T=1.7, divisor=125.0, periods=1, cut=None)
# a period of no whole number of steps
@example(M0=1.0, v0=0.5, T=1.0, divisor=999.5, periods=5, cut=None)
# grids finer than BLOCK_STEPS, whose blocks need not hold a crossing: at
# T/1025 one block in a period, at T/4000 three of four
@example(M0=1.0, v0=0.5, T=1.0, divisor=1025.0, periods=3, cut=None)
@example(M0=1.0, v0=0.5, T=1.0, divisor=4000.0, periods=5, cut=None)
def test_block_loop_matches_the_reference_loop_bitwise(M0, v0, T, divisor, periods, cut):
    # `per_draw.sample_params` ranges; half of the runs end at a random step. The
    # blocks are multiplied into views of w that need not be aligned, so a
    # numpy build that rounds those differently fails here.
    params, _ = derive_kinematics(M0, v0, 1.0, T)
    dt = params.T / divisor
    n_steps = max(1, round(periods * divisor * (1.0 if cut is None else cut)))
    ref = _reference_integrate(params, n_steps * dt, dt)
    traj = integrate(params, n_steps * dt, dt)
    # the blocks past the end of the run leave no sample and no event behind
    assert len(traj.w) == n_steps + 1
    assert not np.any(traj.events > n_steps * dt + dynamics.PROBE_WINDOW * params.T)
    got = (*(_row(traj, name) for name in dynamics.ROWS[:4]), traj.events, _row(traj, "residual"))
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    # the divergence guard stops both at the same sample (a run too short to
    # leave the circle has nothing to stop)
    worst = float(np.max(np.abs(ref[-1])))
    if worst == 0.0:
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "DIVERGENCE_LIMIT", 0.5 * worst)
        with pytest.raises(DivergenceError) as expected:
            _reference_integrate(params, n_steps * dt, dt)
        with pytest.raises(DivergenceError, match=re.escape(str(expected.value)) + " exceeds"):
            integrate(params, n_steps * dt, dt)


@settings(deadline=None, max_examples=40)
@given(
    v0=st.floats(0.01, 0.9),
    T=st.floats(0.1, 10.0),
    divisor=st.one_of(st.floats(100.0, 4000.0), st.sampled_from([101.7, 333.3, 999.5, 1025.0, 4000.0])),
    periods=st.integers(1, 40),
)
def test_predicted_step_is_within_one_sample_of_the_first_below(v0, T, divisor, periods):
    # For every block of the run, the turn angle predicts its first sample
    # below the guard to within one sample, so the loop corrects it once at
    # most; and the loop picks that sample, which a full scan of the block
    # finds, or, if none is below, ends the block at its last sample. Replays
    # the blocks from their starts: each is the run's sample there, bitwise.
    params, _ = derive_kinematics(1.0, v0, 1.0, T)
    dt = params.T / divisor
    n_steps = max(1, round(periods * divisor))
    blocks, crossings = [], []
    predicted_step, crossing = dynamics._predicted_step, dynamics._crossing

    def predict(start, theta, size):
        k = predicted_step(start, theta, size)
        blocks.append((start, theta, size, k))
        return k

    def record(w, h, r_h, t):
        crossings.append(t)
        return crossing(w, h, r_h, t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_predicted_step", predict)
        mp.setattr(dynamics, "_crossing", record)
        traj = integrate(params, n_steps * dt, dt)
    h = dt / params.T
    table = dynamics._step_powers(h, blocks[0][1], blocks[0][2])
    steps, i = [], 0
    for start, theta, size, k in blocks:
        assert start == traj.w[i] and (theta, size) == blocks[0][1:3]
        below = np.flatnonzero((table * start).real < 0.0) + 1
        first = int(below[0]) if below.size else size
        assert abs(k - first) <= 1
        if below.size and i + first <= n_steps:
            steps.append(i + first - 1)
            i += first
        else:
            i += size
    assert i >= n_steps
    # the loop's crossings, then the trailing probe's, if any
    assert crossings[:len(steps)] == [step * dt for step in steps]
    assert crossings[len(steps):] in ([], [n_steps * dt])


def test_predicted_step_from_a_start_on_or_below_the_guard():
    # from the guard the next sample is below it; a start below the guard
    # whose next sample is still below predicts that sample; a start just
    # below it, as a reset can leave, predicts the next crossing; a state
    # that is not a number is capped at the block's length
    h = 1.0 / 250.0
    theta = -cmath.phase(dynamics._step_factor(h))
    table = dynamics._step_powers(h, theta, 251)
    for start, first in ((complex(0.0, -1.0), 1), (complex(-1e-3, -1.0), 1), (complex(-3 * theta, 1.0), 1),
                         (complex(-1e-12, 1.0), 251), (complex(0.0, 1.0), 251)):
        k = dynamics._predicted_step(start, theta, 251)
        assert k == first == int(np.flatnonzero((table * start).real < 0.0)[0]) + 1, start
    for start in (complex(math.nan, 1.0), complex(math.nan, math.nan), complex(1.0, math.inf)):
        assert dynamics._predicted_step(start, theta, 251) == 251


@pytest.mark.parametrize("divisor", [250.0, 1025.0])
@pytest.mark.parametrize("offset", [-3, -1, 1, 3])
def test_a_prediction_off_by_some_samples_leaves_the_run_unchanged(natural, monkeypatch, divisor, offset):
    # the prediction only starts the check, which moves it to the first
    # sample below the guard, or to the block's last when none is below (at
    # T/1025, one block in a period): the run keeps its bits
    params, _ = natural
    args = (params, 20.0 * params.T, params.T / divisor)
    ref = integrate(*args)
    predicted_step = dynamics._predicted_step
    monkeypatch.setattr(dynamics, "_predicted_step",
                        lambda start, theta, size: min(max(predicted_step(start, theta, size) + offset, 1), size))
    run = integrate(*args)
    assert run.w.tobytes() == ref.w.tobytes() and run.events.tobytes() == ref.events.tobytes()
    assert run.jumps == ref.jumps


def _skewed_reset(monkeypatch, turn):
    """Make each located crossing hand the reset its state times ``turn``."""
    crossing = dynamics._crossing

    def skewed(w, h, r_h, t):
        s, hit = crossing(w, h, r_h, t)
        return s, hit * turn

    monkeypatch.setattr(dynamics, "_crossing", skewed)


def test_a_reset_below_the_guard_ends_the_run_at_the_next_step(natural, monkeypatch):
    # A reset turned back by three steps leaves the next block's start and
    # its first sample below the guard. The block's first sample below is
    # its first, so the step from that start is located, and refused: it
    # holds no crossing.
    params, _ = natural
    dt = params.T / 250.0
    _skewed_reset(monkeypatch, cmath.exp(-3j * math.pi / 250.0))
    with pytest.raises(RuntimeError, match=rf"^event location in the step at t={251 * dt} stopped at "):
        integrate(params, 3.0 * params.T, dt)


def test_a_reset_one_step_below_the_guard_ends_its_block_where_a_scan_does(natural, monkeypatch):
    # A reset that leaves w one step below the guard, give or take a few
    # ulps, puts the next block's first sample within rounding of the guard,
    # on either side of it. The next step located is the one into that
    # sample when the sample is below the guard, and a later one otherwise.
    params, _ = natural
    dt = params.T / 250.0
    theta = -cmath.phase(dynamics._step_factor(1.0 / 250.0))
    first = dynamics._step_powers(1.0 / 250.0, theta, 1)
    start = -math.sin(theta)

    class Located(Exception):
        pass

    seen = set()
    for nudge in range(-6, 7):
        target = complex(start + nudge * math.ulp(start), math.cos(theta))
        resets = []

        def located(w, h, r_h, t):
            if resets:
                raise Located(round(t / dt))
            resets.append(t)
            return h, target.conjugate()  # the reset's factor R(0) is 1: w = target

        monkeypatch.setattr(dynamics, "_crossing", located)
        with pytest.raises(Located) as step:
            integrate(params, 3.0 * params.T, dt)
        below = bool((first * target).real[0] < 0.0)
        seen.add(below)
        assert (step.value.args[0] == 251) == below, nudge
    assert seen == {True, False}


def test_a_reset_to_a_state_that_is_not_a_number_ends_the_run_at_the_guard(natural, monkeypatch):
    # no sample after it is below the guard, so no block ends early, and the
    # divergence guard stops the run at the first of them
    params, _ = natural
    dt = params.T / 250.0
    _skewed_reset(monkeypatch, complex(math.nan, 0.0))
    with pytest.raises(DivergenceError, match=rf"^first-integral residual nan at t={251 * dt} exceeds"):
        integrate(params, 3.0 * params.T, dt)


def _post_loop_fill(traj):
    """The rows ``xi, V, chi, U`` and the residuals of the whole run, as
    `integrate` filled them after its last block before every reader
    derived them per block from ``w``. Kept to pin `Trajectory.rows` bit for
    bit. Returns one ``(5, n)`` block, in the order of `dynamics.ROWS`."""
    w, n = traj.w, len(traj.w)
    residuals = np.square(w.real)
    residuals += np.square(w.imag)
    residuals -= 1.0
    cols = np.empty((4, n))
    xi, V, chi, U = cols
    u = 0.0
    for (a, jump), (b, _) in zip(traj.jumps, traj.jumps[1:] + [(n, 0.0)]):
        u += jump
        xi[a:b] = u
    np.subtract(w.imag, xi, out=xi)
    xi /= math.pi
    np.subtract(1.0, w.real, out=V)
    np.divide(w.real, math.pi, out=chi)
    U[:] = w.imag
    tau = np.arange(n, dtype=np.float64)
    tau *= traj.dt
    tau /= traj.params.T
    xi += tau
    return np.vstack([cols, residuals])


def _rows_case(case):
    if case in cli.builtin_presets():
        params = cli.resolve_config(cli.builtin_presets()[case])[0]
        return integrate(params, t_end=10.0 * params.T, dt=params.T / 1000.0)
    params, _ = derive_kinematics(2.3, 0.37, 1.0, 1.7)
    if case == "dense-T/100":
        return integrate(params, t_end=120.0 * params.T, dt=params.T / 100.0)
    return closed_form_trajectory(params, t_end=3.0 * params.T)


@pytest.mark.parametrize("case", ["natural", "electron-1e6", "electron-atomic", "dense-T/100", "closed-form"])
def test_rows_match_the_post_loop_fill_bitwise(case):
    # whole blocks, blocks that cut through each reflection, single rows, one
    # slice past the end, and a selection of rows in another order
    traj = _rows_case(case)
    n = len(traj.w)
    ref = _post_loop_fill(traj)
    cuts = [(0, n), (n - 5, n + 5)] + [(lo, lo + dynamics.ROW_BLOCK) for lo in range(0, n, dynamics.ROW_BLOCK)]
    for a, _ in traj.jumps[1:]:
        cuts += [(a - 3, a + 4), (a - 1, a), (a, a + 1), (a - 1, a + 1)]
    assert len(traj.jumps) >= 4  # a trailing event found by the probe has no jump
    for lo, hi in cuts:
        assert traj.rows(lo, hi, dynamics.ROWS).tobytes() == ref[:, lo:hi].tobytes(), (lo, hi)
    lo = traj.jumps[2][0] - 3
    assert traj.rows(lo, lo + 7, ("residual", "xi")).tobytes() == ref[[4, 0], lo:lo + 7].tobytes()


def test_divergence_guard_catches_nan():
    residuals = np.array([0.0, 1e-12, math.nan, 0.0])
    with pytest.raises(DivergenceError, match="at t=0.2"):
        dynamics._guard(residuals, 0, 0.1)


def test_trajectory_csv_matches_per_row_formatter(tmp_path):
    # unit scales, so that the derived columns reach the writer unchanged; the
    # states give signed zeros, a subnormal, huge and 17-digit values, and u
    # jumps at sample 3
    params = SystemParams(M0=1.0, m0=1.0, v0=1.0, c=1.0, T=1.0, lam=1.0, Lam=1.0, M=1.0, m=1.0)
    w = np.array([1j, complex(-0.0, 0.9999999999999999), complex(2.0 ** -30, -2.5), complex(1.5e-323, 7e-8),
                  complex(1.5e17, 6.02214076e23), complex(0.1 + 0.2, -math.e)])
    traj = dynamics.Trajectory(
        params=params, dt=0.1, w=w, jumps=[(0, 1.0), (3, -2.0)], events=np.array([0.25, 0.4 + 1e-7])
    )
    cols = traj.as_arrays(slice(None), np.empty((len(traj), 6)))
    assert cols["x"][1] == 0.0 and math.copysign(1.0, cols["x"][1]) == -1.0 and 0.0 < cols["x"][3] < 1e-320
    path = tmp_path / "cols.csv"
    write_trajectory_csv(traj, path)
    flags = [0, 0, 0, 1, 1, 0]
    expected = ["t,X,dXdt,x,dxdt,invariant_residual,event_flag"]
    for i in range(6):
        values = [float(cols[name][i]) for name in ("t", "X", "dXdt", "x", "dxdt", "invariant_residual")]
        expected.append(",".join([format(v, ".17g") for v in values] + [str(flags[i])]))
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


def test_svg_polyline_matches_per_point_formatter(tmp_path):
    x = np.array([0.0, 0.125, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0])
    y = np.array([-1.0, 0.3, 2.675, -0.005, 1e-9, 0.0])
    path = tmp_path / "line.svg"
    axes = plotting._axes([plotting._ends(x, y)])
    render_line_svg(path, [([(x, y)], "series")], axes, title="t", xlabel="x", ylabel="y")
    # layout of render_line_svg at its default 760 x 420 size
    ml, mt, pw, ph = 64, 34, 760 - 64 - 16, 420 - 34 - 46
    x_lo, x_hi = 0.0, 1.0
    pad = 0.04 * (2.675 - -1.0)
    y_lo, y_hi = -1.0 - pad, 2.675 + pad
    points = []
    for a, b in zip(x.tolist(), y.tolist()):
        px = ml + (a - x_lo) / (x_hi - x_lo) * pw
        py = mt + ph - (b - y_lo) / (y_hi - y_lo) * ph
        points.append(f"{px:.2f},{py:.2f}")
    assert f'<polyline points="{" ".join(points)}"' in path.read_text()


def _pixel_columns(x, columns):
    # the pixel column of each point, as defined for the trajectory panel
    x_lo, x_hi = min(x), max(x)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    return [min(math.floor((v - x_lo) / (x_hi - x_lo) * columns), columns - 1) for v in x]


@st.composite
def _lines(draw):
    n = draw(st.integers(1, 300))
    if draw(st.booleans()):
        x = np.arange(n) * draw(st.floats(1e-6, 10.0))
    else:
        x = np.sort(draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)))
    finite = draw(st.booleans())
    values = st.floats(allow_nan=not finite, allow_infinity=not finite)
    if draw(st.booleans()):
        y = np.full(n, draw(values))
    else:
        y = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    return x, y


@settings(max_examples=200)
@given(line=_lines(), columns=st.sampled_from([1, 2, 7, 680]))
@example(line=(np.zeros(1), np.ones(1)), columns=680)
@example(line=(np.array([0.0, 1.0]), np.array([2.0, -3.0])), columns=680)
@example(line=(np.arange(1000.0), np.full(1000, 0.5)), columns=680)
@example(line=(np.arange(50.0), np.where(np.arange(50) == 7, np.nan, 1.0)), columns=680)
@example(line=(np.arange(50.0), np.where(np.arange(50) == 7, -np.inf, 1.0)), columns=7)
def test_m4_keeps_each_pixel_column_extremes(line, columns):
    x, y = line
    keep = np.arange(len(x))[plotting._m4(x, y, columns, (float(np.min(x)), float(np.max(x))))]
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        assert keep.tolist() == list(range(len(x)))  # drawn point for point
        return
    assert (np.diff(keep) > 0).all()  # a subsequence, in order
    col = np.array(_pixel_columns(x.tolist(), columns))
    for c in np.unique(col):
        every, kept = np.flatnonzero(col == c), keep[col[keep] == c]
        assert 1 <= len(kept) <= 4
        assert (kept[0], kept[-1]) == (every[0], every[-1])
        assert y[kept].min() == y[every].min() and y[kept].max() == y[every].max()


@pytest.fixture(scope="module")
def short_run():
    params, _ = derive_kinematics(1.0, 1.0, 10.0, 1.0)
    return integrate(params, t_end=3.0, dt=1e-3)


@pytest.fixture(scope="module")
def fine_run():
    # a grid finer than the relaxation window: dt = 0.4 PROBE_WINDOW T, so
    # one event relaxes up to five samples
    params, _ = derive_kinematics(1.0, 1.0, 10.0, 1.0)
    return integrate(params, t_end=3000 * 4e-7, dt=4e-7)


@settings(deadline=None, max_examples=60)
@given(
    fine=st.booleans(),
    grid_events=st.lists(
        st.tuples(
            st.one_of(st.sampled_from([0, 999, 1000, 1001, 2000, 3000]), st.integers(0, 3000)),
            # +-1e-6 puts an event exactly PROBE_WINDOW T from sample 0
            st.one_of(st.floats(min_value=-2e-6, max_value=2e-6), st.sampled_from([-1e-6, 1e-6])),
        ),
        max_size=8,
    ),
    free_events=st.lists(st.floats(min_value=-0.5, max_value=3.5), max_size=4),
    keep_own=st.booleans(),
    flips=st.lists(st.integers(0, 3000), max_size=4),
    repeat=st.booleans(),
    order=st.randoms(use_true_random=False),
)
# the sample at t = T sits on the wrong branch; only an event just before it relaxes it
@example(
    fine=False, grid_events=[(1000, -5e-7)], free_events=[], keep_own=False, flips=[], repeat=False,
    order=random.Random(0),
)
# an event exactly PROBE_WINDOW T before or after the wrong-branch sample 0 relaxes it
@example(
    fine=True, grid_events=[(0, -1e-6)], free_events=[], keep_own=False, flips=[0], repeat=False,
    order=random.Random(0),
)
@example(
    fine=False, grid_events=[(0, 1e-6)], free_events=[], keep_own=False, flips=[0], repeat=False,
    order=random.Random(0),
)
# one event relaxes several samples; repeated, unsorted, past the last sample
@example(
    fine=True, grid_events=[(2, 0.0), (3000, 1e-6), (1, 3e-7)], free_events=[5.0, -0.25], keep_own=False,
    flips=[0, 1, 2, 3, 4], repeat=True, order=random.Random(1),
)
def test_oracle_errors_match_dense_definition(
    short_run, fine_run, fine, grid_events, free_events, keep_own, flips, repeat, order
):
    # the samples x events distance matrix that the lookup by grid index
    # replaces, in the trajectory's units; flipped samples (w conjugated, so
    # U flips) sit on the wrong branch, and the events come unsorted,
    # repeated, before t = 0 and past the last sample
    run = fine_run if fine else short_run
    p = run.params
    t = np.arange(len(run)) * run.dt
    times = [float(t[i]) + off for i, off in grid_events] + free_events
    if keep_own:
        times += run.events.tolist()
    times *= 1 + repeat
    order.shuffle(times)
    w = run.w.copy()
    w[flips] = w[flips].conj()
    traj = dataclasses.replace(run, w=w, events=np.array(times, dtype=np.float64))
    assert oracle_errors(traj) == _dense_oracle_errors(traj)


def _near_any_event(traj, t):
    """The samples at times ``t`` within PROBE_WINDOW T of an event, from the
    full samples x events distance matrix that the lookup by grid index
    replaces."""
    if not len(traj.events):
        return np.zeros(len(t), dtype=bool)
    return np.min(np.abs(t[:, None] - traj.events[None, :]), axis=1) <= 1.0e-6 * traj.params.T


def _exact_on_grid(traj):
    """The exact state ``(w, u)`` on the run's grid, as `oracle_errors` takes
    it, by one call of `dynamics._grid_exact_state` on the whole run."""
    n, dt, T = len(traj), traj.dt, traj.params.T
    table = dynamics._turn_table(n, dt, T)
    return dynamics._grid_exact_state(table, 0, n, dt, T, np.empty(n, dtype=np.complex128), np.empty(n))


def _dense_oracle_errors(traj):
    """`oracle_errors` by its definition on states, over the whole run at
    once, in the trajectory's units: with ``dw = w - w_exact`` and ``du = u -
    u_exact``, X is ``|Im dw - du| / pi``, dXdt ``|Re dw|``, x ``|Re dw| / pi``
    and dxdt ``|Im dw|``, or ``|Im w + Im w_exact|`` where that is smaller
    near an event."""
    t = np.arange(len(traj)) * traj.dt
    w_exact, u_exact = _exact_on_grid(traj)
    u = np.zeros(len(traj))
    for i, jump in traj.jumps:
        u[i:] += jump
    dw, du = traj.w - w_exact, u - u_exact
    d_dxdt = np.abs(dw.imag)
    near = _near_any_event(traj, t)
    d_dxdt[near] = np.minimum(d_dxdt[near], np.abs(traj.w.imag + w_exact.imag)[near])
    dense = {
        "X": float(np.max(np.abs(dw.imag - du) / math.pi)),
        "dXdt": float(np.max(np.abs(dw.real))),
        "x": float(np.max(np.abs(dw.real) / math.pi)),
        "dxdt": float(np.max(d_dxdt)),
    }
    dense["max"] = max(dense.values())
    return dense


def _dense_row_oracle_errors(traj):
    """`oracle_errors` by its definition on rows: each column of the run
    against the same column of the exact state, over the whole run at once,
    in the trajectory's units."""
    p = traj.params
    t = np.arange(len(traj)) * traj.dt
    tau = t / p.T
    xi, V, chi, U = dynamics._rows(*_exact_on_grid(traj), tau, dynamics.ROWS[:4])
    d_dxdt = np.abs(_row(traj, "U") - U)
    near = _near_any_event(traj, t)
    d_dxdt[near] = np.minimum(d_dxdt[near], np.abs(_row(traj, "U") + U)[near])
    dense = {
        "X": float(np.max(np.abs(_row(traj, "xi") - xi))),
        "dXdt": float(np.max(np.abs(_row(traj, "V") - V))),
        "x": float(np.max(np.abs(_row(traj, "chi") - chi))),
        "dxdt": float(np.max(d_dxdt)),
    }
    dense["max"] = max(dense.values())
    return dense


@pytest.mark.parametrize(
    "pars, divisor, periods",
    [((1.0, 1.0, 10.0, 1.0), 1000, 100), ((2.3, 0.37, 1.0, 1.7), 125, 200), ((1.0, 1.0e-4, 1.0, 1.0), 999.5, 20)],
    ids=["natural-T/1000", "M0-2.3-T/125", "v0-c-1e-4-T/999.5"],
)
def test_oracle_definitions_on_states_and_rows_agree(pars, divisor, periods):
    # The rows add tau to (Im w - u) / pi and subtract Re w from 1, and round
    # there; the states do not. tau is the same array on both sides, so the
    # two differ by their roundings alone, each at most the unit roundoff e
    # times the largest magnitude the formulas meet. X: three per xi, of the
    # run and of the closed form, and one subtraction; four in the states;
    # all at most tau_end + |u| + |w|. dXdt: one per V, twice, and one
    # subtraction; one in the states; at most 1 + |w|. x: one per chi, twice,
    # and one subtraction; two in the states; at most 1 + |w|. dxdt is
    # |Im w - Im w_exact| in both, bit for bit.
    params, _ = derive_kinematics(*pars)
    traj = integrate(params, t_end=round(periods * divisor) * params.T / divisor, dt=params.T / divisor)
    e = np.finfo(np.float64).eps / 2
    tau_end = (len(traj) - 1) * traj.dt / params.T
    u_max = max(float(np.max(np.abs(np.cumsum([jump for _, jump in traj.jumps])))), 2 * math.floor(tau_end) + 1)
    w_max = float(np.max(np.abs(traj.w)))
    assert w_max < 1.001  # and |w_exact| = 1 to rounding
    rounding = {"X": 11 * e * (tau_end + u_max + w_max), "dXdt": 4 * e * (1 + w_max), "x": 5 * e * (1 + w_max)}
    states, rows = _dense_oracle_errors(traj), _dense_row_oracle_errors(traj)
    for name, bound in rounding.items():
        assert abs(states[name] - rows[name]) <= bound, name
    assert states["dxdt"] == rows["dxdt"]
    assert oracle_errors(traj) == states


def test_oracle_errors_move_with_a_planted_fault(natural):
    # A fault at one sample far from any event, a power of two delta in turn
    # in Re w, in Im w, in one jump of u, and in Im w and u together (U moves,
    # xi does not): exactly the columns that the fault moves read delta or
    # delta / pi, and the rest their own deviation, each to within the
    # unperturbed run's deviation of that column.
    params, _ = natural
    run = integrate(params, t_end=4.0 * params.T, dt=params.T / 1000.0)
    base = oracle_errors(run)
    assert 0.0 < min(base.values()) and max(base.values()) < 1e-9
    i, delta = 2250, 2.0 ** -20  # t = 2.25 T
    assert np.min(np.abs(i * run.dt - run.events)) > 0.2 * params.T
    k = next(n for n, (start, _) in enumerate(run.jumps) if start > i)  # the next reflection's jump
    faults = {
        "Re w": (dict(w=run.w + delta * (np.arange(len(run)) == i)), {"dXdt": delta, "x": delta / math.pi}),
        "Im w": (dict(w=run.w + 1j * delta * (np.arange(len(run)) == i)), {"X": delta / math.pi, "dxdt": delta}),
        "jump of u": (
            dict(jumps=[(start, jump + delta * (n == k)) for n, (start, jump) in enumerate(run.jumps)]),
            {"X": delta / math.pi},
        ),
        "U alone": (
            dict(
                w=run.w + 1j * delta * (np.arange(len(run)) == i),
                jumps=sorted(run.jumps + [(i, delta), (i + 1, -delta)]),
            ),
            {"dxdt": delta},
        ),
    }
    for fault, (change, moved) in faults.items():
        errors = oracle_errors(dataclasses.replace(run, **change))
        for name in ("X", "dXdt", "x", "dxdt"):
            assert abs(errors[name] - moved.get(name, base[name])) <= base[name], (fault, name)


@pytest.mark.parametrize("events", [[], [1.0e-7], [-5.0e-7, 0.0, 2.5e-7, 9.0e-7], [1.5e-6, -2.0e-6]])
def test_oracle_errors_match_dense_definition_when_the_window_spans_the_run(events):
    # 201 samples at dt = 1e-9 T: PROBE_WINDOW T covers the whole run from any
    # event within it, and the candidate indices stay inside the run
    params, _ = derive_kinematics(1.0, 1.0, 10.0, 1.0)
    run = integrate(params, t_end=200 * 1.0e-9, dt=1.0e-9)
    w = run.w.copy()
    w[::7] = w[::7].conj()  # samples on the wrong branch, relaxed only near an event
    traj = dataclasses.replace(run, w=w, events=np.array(events, dtype=np.float64))
    assert oracle_errors(traj) == _dense_oracle_errors(traj)


def _hex(errors):
    return {name: value.hex() for name, value in errors.items()}


@pytest.mark.parametrize("extra", [-1, 0, 1], ids=["block-1", "block", "block+1"])
def test_oracle_errors_in_blocks_match_dense_definition_bitwise(extra):
    # runs of ROW_BLOCK - 1, ROW_BLOCK and ROW_BLOCK + 1 samples at
    # dt = 1e-7 T, so PROBE_WINDOW T spans ten samples each side of an event:
    # one event's window straddles the edge of the first block, one lies
    # inside it and one ends the run. Only the samples inside a window are on
    # the wrong branch, so a sample relaxed in the wrong block reads ~2.
    params, _ = derive_kinematics(1.0, 1.0, 10.0, 1.0)
    n, dt = dynamics.ROW_BLOCK + extra, 1.0e-7
    run = integrate(params, t_end=(n - 1) * dt, dt=dt)
    events = np.array([(dynamics.ROW_BLOCK - 0.5) * dt, 0.5 * n * dt, (n - 1) * dt])
    t = np.arange(n) * dt
    wrong = np.min(np.abs(t[:, None] - events), axis=1) <= dynamics.PROBE_WINDOW * params.T
    assert wrong[dynamics.ROW_BLOCK - 10] and wrong[min(dynamics.ROW_BLOCK + 9, n - 1)]
    traj = dataclasses.replace(run, w=np.where(wrong, run.w.conj(), run.w), events=events)
    errors = oracle_errors(traj)
    assert errors["dxdt"] < 1e-3
    assert _hex(errors) == _hex(_dense_oracle_errors(traj))
    # a NaN in the last block propagates to its column and to the maximum
    w = traj.w.copy()
    w[-1] = complex(w[-1].real, math.nan)
    nan_run = dataclasses.replace(traj, w=w)
    assert math.isnan(oracle_errors(nan_run)["X"]) and math.isnan(_dense_oracle_errors(nan_run)["X"])


@pytest.fixture(scope="module")
def natural_long(natural):
    params, _ = natural
    return integrate(params, t_end=100.0 * params.T, dt=params.T / 1000.0)


_POINTS = re.compile(rb'points="([^"]*)"')


def _assert_cut_of(every, kept):
    """``kept`` is a subsequence of ``every`` with its first and last point."""
    assert (kept[0], kept[-1]) == (every[0], every[-1])
    rest = iter(every)
    assert all(point in rest for point in kept)


def test_svg_panels_against_every_point(natural_long, tmp_path):
    # trajectory.svg is the full-point rendering with each points list cut
    # to a subsequence
    traj = natural_long
    tau = np.arange(len(traj)) * traj.dt / traj.params.T
    xi, chi = traj.rows(0, len(traj), ("xi", "chi"))
    full = tmp_path / "full.svg"
    render_line_svg(
        full,
        [([(tau, xi)], "X / lambda"), ([(tau, chi)], "x / Lambda")],
        plotting._axes([plotting._ends(tau, xi), plotting._ends(tau, chi)]),
        title="particle coordinate and cloud separation",
        xlabel="t / T",
        ylabel="dimensionless position",
    )
    trajectory_svg(traj, tmp_path / "trajectory.svg")
    full, cut = full.read_bytes(), (tmp_path / "trajectory.svg").read_bytes()
    assert _POINTS.sub(b"", cut) == _POINTS.sub(b"", full)
    for every, kept in zip(_POINTS.findall(full), _POINTS.findall(cut), strict=True):
        every, kept = every.split(b" "), kept.split(b" ")
        assert len(every) == len(traj) and len(kept) < len(every) // 20
        _assert_cut_of(every, kept)


def _phase_full(traj, path) -> bytes:
    """phase.svg as drawn through every sample."""
    V, U = traj.rows(0, len(traj), ("V", "U"))
    render_line_svg(
        path,
        [([(1.0 - V, U)], "velocity locus")],
        plotting._axes([plotting._ends(1.0 - V, U)]),
        title="velocity-plane portrait",
        xlabel="1 - (dX/dt) / v0",
        ylabel="(dx/dt) / c",
        width=480,
        height=480,
    )
    return path.read_bytes()


def _phase_pair(natural, periods, divisor, tmp_path) -> tuple[bytes, bytes]:
    """The full rendering and phase.svg of a run of the natural preset over
    ``periods`` T at dt = T/``divisor``."""
    params, _ = natural
    traj = integrate(params, t_end=periods * params.T, dt=params.T / divisor)
    phase_plane_svg(traj, tmp_path / "phase.svg")
    return _phase_full(traj, tmp_path / "full.svg"), (tmp_path / "phase.svg").read_bytes()


def test_phase_panel_draws_one_period_of_a_long_run(natural_long, tmp_path):
    # all but the points is the full rendering; the points are a
    # subsequence of the full ones, with the same ends: one period and the
    # tail from the last reflection
    full = _phase_full(natural_long, tmp_path / "full.svg")
    phase_plane_svg(natural_long, tmp_path / "phase.svg")
    cut = (tmp_path / "phase.svg").read_bytes()
    assert _POINTS.sub(b"", cut) == _POINTS.sub(b"", full)
    (every,), (kept,) = _POINTS.findall(full), _POINTS.findall(cut)
    every, kept = every.split(b" "), kept.split(b" ")
    assert len(every) == len(natural_long) and len(kept) <= 2100
    _assert_cut_of(every, kept)


def _polyline(svg: bytes) -> np.ndarray:
    """The printed points of the one polyline of ``svg``, in px."""
    (points,) = _POINTS.findall(svg)
    return np.array(points.replace(b",", b" ").split(), dtype=np.float64).reshape(-1, 2)


def _segments(line: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct segments of the polyline ``line`` as start points and
    steps: a periodic line repeats its printed points."""
    ends = np.unique(np.concatenate([line[:-1], line[1:]], axis=1), axis=0)
    return ends[:, :2], ends[:, 2:] - ends[:, :2]


def _probes(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Points along the segments ``a + t d``, ends included, at most 1 px
    apart on each."""
    n = np.ceil(np.hypot(d[:, 0], d[:, 1])).astype(np.intp) + 1
    seg = np.repeat(np.arange(len(n)), n)
    t = (np.arange(len(seg)) - np.repeat(np.cumsum(n) - n, n)) / np.repeat(np.maximum(n - 1, 1), n)
    return np.unique(a[seg] + t[:, None] * d[seg], axis=0)


def _distance_to(points: np.ndarray, a: np.ndarray, d: np.ndarray) -> float:
    """The largest distance from ``points`` to the segments ``a + t d``."""
    length2 = np.sum(d * d, axis=1)
    worst = 0.0
    block = max(1, 2 ** 20 // len(d))
    for lo in range(0, len(points), block):
        rel = points[lo:lo + block, None, :] - a
        dot = np.sum(rel * d, axis=2)
        t = np.clip(np.divide(dot, length2, out=np.zeros_like(dot), where=length2 > 0), 0.0, 1.0)
        gap = rel - t[..., None] * d
        worst = max(worst, float(np.sqrt(np.min(np.sum(gap * gap, axis=2), axis=1)).max()))
    return worst


def _hausdorff(p: np.ndarray, q: np.ndarray) -> float:
    """The Hausdorff distance between the polylines ``p`` and ``q``, taken
    at the `_probes` of each: a distance that grows along a segment, as
    between two chords that cross, is read to within 1 px of its end."""
    p, q = _segments(p), _segments(q)
    return max(_distance_to(_probes(*p), *q), _distance_to(_probes(*q), *p))


@pytest.mark.parametrize("periods, divisor", [(20, 1000), (20, 500), (10.5, 1000)])
def test_phase_panel_cut_is_within_its_text_quantum(natural, periods, divisor, tmp_path):
    # the bound B <= 0.005 px, plus at most 0.0071 px of %.2f rounding at
    # each end; the tail from the last reflection keeps a run that ends
    # mid-period free of a spurious chord
    full, cut = _phase_pair(natural, periods, divisor, tmp_path)
    assert len(cut) < len(full) // 5
    assert _hausdorff(_polyline(full), _polyline(cut)) <= 0.02


def test_phase_panel_radius_term_is_the_runs_largest_residual(natural, tmp_path):
    # B's radius term reads the residual that the divergence guard measured:
    # at 0.1 it alone is 40 px, so the panel draws every sample
    params, _ = natural
    traj = integrate(params, t_end=100.0 * params.T, dt=params.T / 1000.0)
    traj.max_abs_residual = 0.1  # the cached property, as integrate sets it
    phase_plane_svg(traj, tmp_path / "phase.svg")
    assert (tmp_path / "phase.svg").read_bytes() == _phase_full(traj, tmp_path / "full.svg")


def test_phase_panel_refuses_a_trajectory_that_fails_the_guard(natural, tmp_path):
    # states 1 % off the circle, which integrate never returns: the bound's
    # max_abs_residual runs the divergence guard on them
    params, _ = natural
    traj = integrate(params, t_end=20.0 * params.T, dt=params.T / 1000.0)
    with pytest.raises(DivergenceError, match="the run has diverged"):
        phase_plane_svg(dataclasses.replace(traj, w=traj.w * 1.01), tmp_path / "phase.svg")


@pytest.mark.parametrize("periods, divisor", [(50, 999.5), (20, 250), (20, 100), (1.5, 1000)])
def test_phase_panel_keeps_every_sample_when_the_cut_would_show(natural, periods, divisor, tmp_path):
    # T/999.5: each reflection falls at another phase, and its chord term
    # is 0.63 px; T/250 and T/100: the arc term is 0.016 and 0.099 px; 1.5 T
    # holds one reflection
    full, cut = _phase_pair(natural, periods, divisor, tmp_path)
    assert cut == full


def _traced_peak(fn, *args):
    """Peak traced allocation of ``fn(*args)``, after one warm-up call."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_errors_memory_per_sample(natural):
    # one block of the exact state, its times and the run's u at a time, and
    # one table of at most TURN_ROW turns: the memory does not grow with the
    # run
    params, _ = natural
    peaks = []
    for periods in (20, 200):
        traj = integrate(params, t_end=periods * params.T, dt=params.T / 1000.0)
        assert len(traj) > dynamics.ROW_BLOCK
        peaks.append(_traced_peak(oracle_errors, traj))
    assert peaks[1] <= 1.5 * peaks[0]


def test_oracle_errors_allocates_no_block_sized_buffer(natural):
    # the work block, one more row of ROW_BLOCK floats (a block's times, whose
    # memory then holds the signs, and then the run's u) and 32 KiB for the
    # rest: the turn table, the coarse turns and the samples near an event.
    # numpy's own buffer of 8,192 elements, which a broadcast operand or a
    # cast to complex would allocate, is larger than that slack.
    params, _ = natural
    traj = integrate(params, t_end=200.0 * params.T, dt=params.T / 1000.0)
    row = 8 * dynamics.ROW_BLOCK
    assert _traced_peak(oracle_errors, traj) <= 5 * row + row + 32 * 1024


@pytest.mark.parametrize("panel", [trajectory_svg, phase_plane_svg], ids=["trajectory", "phase"])
def test_svg_panel_memory_per_sample(natural_long, panel, tmp_path):
    # the pixel coordinates of one series and their temporaries; the ranges
    # concatenate nothing
    assert _traced_peak(panel, natural_long, tmp_path / "panel.svg") <= 40 * len(natural_long)


def _rows_pass(traj, path):
    """`Trajectory.rows` of every row, one block of `ROW_BLOCK` at a time."""
    for lo in range(0, len(traj), dynamics.ROW_BLOCK):
        traj.rows(lo, lo + dynamics.ROW_BLOCK, dynamics.ROWS)


@pytest.mark.parametrize(
    "writer, reading",
    [
        (write_trajectory_csv, 1_372_614),
        (trajectory_svg, 831_540),
        (phase_plane_svg, 532_324),
        (lambda traj, path: dynamics._guarded_max(traj.w, traj.dt), 263_988),
        (_rows_pass, 918_504),
    ],
    ids=["csv", "trajectory", "phase", "guard", "rows"],
)
def test_block_loop_peak_memory_stays_within_its_budget(writer, reading, tmp_path):
    # Each loop that reads the run by block, a callable of (traj, path), on
    # the run of test_simulate_peak_memory_per_step (M0 1, v0 1, c 10, T 1,
    # T/1000 over 100 T), traced after one untraced call: its peak is at most
    # the reading when the budget was set plus 32 KiB, far below one numpy
    # buffer of 8,192 elements (64-128 KB) or a chunk-sized temporary. The
    # CSV writer reads 1,372,550-1,372,614 B, since its chunks gather three
    # layout words per value, not four. The guard's working set is two rows
    # of ROW_BLOCK floats (a block's residuals, then their magnitudes),
    # 262,144 B; that of the pass of `rows` is seven: the five rows, tau and
    # `_rows`' squared imaginary part, 917,504 B.
    params, _ = derive_kinematics(1.0, 1.0, 10.0, 1.0)
    traj = integrate(params, t_end=100.0, dt=1e-3)
    assert _traced_peak(writer, traj, tmp_path / "out") <= reading + 32 * 1024


def test_integrate_memory_is_linear_in_samples(natural):
    # The working set: the state, 16 B per sample of the run and of the
    # table that pads it; the divergence guard's two rows of ROW_BLOCK
    # floats (a block's residuals, then their magnitudes); the table; and 32
    # KiB plus 160 B per reflection for the rest, among them each jump of u
    # (a tuple of an int and a float), each event time and their list slots.
    # Traced peaks: T/1000 x 100 T 1,904,052 B, of which 1,616,032 state;
    # T/125 x 200 T 685,364 (402,032); T/250 x 200 T 1,089,428 (804,032).
    params, _ = natural
    for divisor, periods in ((1000, 100), (125, 200), (250, 200)):
        args = (params, periods * params.T, params.T / divisor)
        n_steps = periods * divisor
        table = min(dynamics.BLOCK_STEPS, divisor + 1)
        reflections = len(integrate(*args).jumps) - 1
        assert reflections == periods - 1
        budget = 16 * (n_steps + 1 + table) + 2 * 8 * dynamics.ROW_BLOCK + 16 * table + 32 * 1024 + 160 * reflections
        assert _traced_peak(integrate, *args) <= budget, divisor


def _read_off(y, w, s):
    """``(xi, V, chi, U)`` a step ``s`` on from ``y``, with ``w`` the new
    ``(1 - V) + iU``: chi and xi come from the linear invariants
    ``1 - V - pi chi`` and ``U - pi xi + pi tau``."""
    chi = y[2] + (w.real - (1.0 - y[1])) / math.pi
    xi = y[0] + s + (w.imag - y[3]) / math.pi
    return np.array([xi, 1.0 - w.real, chi, w.imag])


def test_step_map_is_rk4():
    # one table step and one partial step equal a classical RK4 step on
    # GENERATOR, written out stage by stage
    h = 1e-2
    y = np.array([0.3, 0.8, 0.05, -0.6, 1.0])
    w = complex(1.0 - y[1], y[3])
    table = dynamics._step_powers(h, -cmath.phase(dynamics._step_factor(h)), 3)
    for s, factor in ((h, table[0]), (0.37 * h, dynamics._step_factor(0.37 * h))):
        k1 = GENERATOR @ y
        k2 = GENERATOR @ (y + 0.5 * s * k1)
        k3 = GENERATOR @ (y + 0.5 * s * k2)
        k4 = GENERATOR @ (y + s * k3)
        rk4 = y + s / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.allclose(_read_off(y, factor * w, s), rk4[:4], rtol=0, atol=1e-15)


# pi as the double math.pi, exactly
_PI = Fraction(math.pi)


def _ulps(value: float, exact: Fraction) -> Fraction:
    """``|value - exact|`` in units in the last place of the double nearest ``exact``."""
    return abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact)))


def test_step_coefficients_and_factor_are_exact_to_an_ulp():
    # each part of (-i pi)^k / k!, and R(-i pi s) = 1 - z^2/2 + z^4/24 + i(z^3/6 - z)
    # with z = pi s, against exact rationals; the steps are the grid steps
    # T/100 to T/1e6 and partial ones. (Over 5,000 uniform s in [0, 0.01],
    # 9 imaginary parts lay 1.01 to 1.06 ulp away: Horner's bound is not one
    # ulp everywhere.)
    exact = [(1, 0), (0, -_PI), (-_PI ** 2 / 2, 0), (0, _PI ** 3 / 6), (_PI ** 4 / 24, 0)]
    for c, (re_part, im_part) in zip(dynamics._STEP_COEFFS, exact, strict=True):
        assert _ulps(c.real, re_part) <= 1 and _ulps(c.imag, im_part) <= 1
    steps = [1.0 / d for d in (100, 125, 200, 250, 400, 500, 800, 999.5, 1000, 4000, 1e4, 1e6)]
    for s in steps + [0.37 / 100.0, 3.0 / 500.0, 0.5e-3, 1e-7]:
        z = _PI * Fraction(s)
        factor = dynamics._step_factor(s)
        assert _ulps(factor.real, 1 - z ** 2 / 2 + z ** 4 / 24) <= 1, s
        assert _ulps(factor.imag, z ** 3 / 6 - z) <= 1, s


def test_step_polynomial_is_its_nearest_doubles():
    # each coefficient is the double nearest to (-i pi)^k / k!, in rationals
    # from math.pi (measured: within 0.08 ulp), and _step_factor(s) lies
    # within 2 ulp of the exact polynomial of those doubles at 2,000 seeded
    # steps s in [0, 0.01] (measured: within 1.06 ulp)
    coeffs = []
    for k, c in enumerate(dynamics._STEP_COEFFS):
        term = _PI ** k / math.factorial(k)
        exact = [(term, 0), (0, -term), (-term, 0), (0, term)][k % 4]
        assert (c.real, c.imag) == tuple(float(part) for part in exact), k
        coeffs.append((Fraction(c.real), Fraction(c.imag)))
    rng = random.Random(20141)
    for _ in range(2000):
        s = rng.uniform(0.0, 0.01)
        re_part = im_part = Fraction(0)
        for c_re, c_im in reversed(coeffs):
            re_part, im_part = re_part * Fraction(s) + c_re, im_part * Fraction(s) + c_im
        factor = dynamics._step_factor(s)
        assert _ulps(factor.real, re_part) <= 2 and _ulps(factor.imag, im_part) <= 2, s


def test_crossing_that_misses_the_target_is_refused(natural, monkeypatch, tmp_path):
    # one Newton step takes the first crossing of this off-grid run to about
    # 3e-17 Lam from the guard, short of a target of 1e-20 Lam
    params, _ = natural
    monkeypatch.setattr(dynamics, "EVENT_X_TOL", 1e-20)
    with pytest.raises(RuntimeError, match=r"^event location in the step at t=0\.996 stopped at \|x\| = \S+ Lam, "
                                           r"s = 0\.66666\d h; the target is \|x\| <= 1e-20 Lam"):
        integrate(params, t_end=3.0, dt=3.0 / 500.0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"simulation": {"dt": 3.0 / 500.0, "t_end": 3.0}}))
    argv = ["simulate", "--preset", "natural", "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert not (tmp_path / "out").exists()


# The coarsest step that `step_count` admits: T/100 and its 1e-12 slack.
_H_MAX = 0.01 * (1.0 + 1e-12)
_PHASES = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_RADII = st.floats(1.0 - 2e-4, 1.0)


def _assert_one_newton_step_meets_the_target(h, f, radius):
    # The state a fraction f of the step before it would reach the guard from
    # above, at a radius from |w| = 1 of the start down to 1 - 2e-4, far
    # inside that of any admitted run (whose |w| shrinks by at most 8.3e-8).
    # With the target made 100 times tighter, `_crossing`, the linear guess
    # and one Newton step, still meets it: the worst measured is 3.2e-15 Lam.
    factor = dynamics._step_factor(h)
    w = radius * complex(math.sin(math.pi * f * h), -math.cos(math.pi * f * h))
    assume(w.real >= 0.0 > (factor * w).real)
    target = dynamics.EVENT_X_TOL / 100.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "EVENT_X_TOL", target)
        s, hit = dynamics._crossing(w, h, factor, 0.0)
    assert 0.0 <= s <= h
    assert hit == dynamics._step_factor(s) * w
    assert abs(hit.real) / math.pi <= target


@pytest.mark.parametrize("h", [_H_MAX, 1.0 / 123.4, 1.0 / 250.0, 1.0 / 999.5, 1.0 / 1000.0, 1e-5])
@settings(deadline=None, max_examples=300)
@given(f=_PHASES, radius=_RADII)
def test_one_newton_step_locates_every_admitted_crossing(h, f, radius):
    # admitted steps on and off the grids of whole steps per period, from
    # the coarsest to a fine one, at crossing phases and radii drawn
    _assert_one_newton_step_meets_the_target(h, f, radius)


@settings(deadline=None, max_examples=1000)
@given(log_h=st.floats(math.log(1e-5), math.log(_H_MAX)), f=_PHASES, radius=_RADII)
def test_one_newton_step_locates_the_crossing_at_any_admitted_step(log_h, f, radius):
    # steps drawn log-uniformly from 1e-5 T to the coarsest admitted
    _assert_one_newton_step_meets_the_target(min(math.exp(log_h), _H_MAX), f, radius)


def test_crossing_refuses_a_step_that_starts_below_the_guard():
    # its root lies before the step, so no s in [0, h] is located
    with pytest.raises(RuntimeError, match=r"^event location in the step at t=0\.5 stopped at .*, s = -"):
        dynamics._crossing(complex(-1e-3, -1.0), 1e-3, dynamics._step_factor(1e-3), 0.5)


def test_crossing_with_a_flat_iterate_is_refused(monkeypatch):
    # an iterate with U = 0 has no Newton step: the location ends, refused
    monkeypatch.setattr(dynamics, "_step_factor", lambda s: complex(1.0 - 200.0 * s - 1.0e4 * s * s, 0.0))
    with pytest.raises(RuntimeError, match=r"^event location in the step at t=0\.25 stopped at \|x\| = 3\.5"):
        dynamics._crossing(0.5 + 0j, 0.01, dynamics._step_factor(0.01), 0.25)


@settings(deadline=None, max_examples=30)
@given(
    v0=st.floats(0.01, 0.9),
    T=st.floats(0.1, 10.0),
    divisor=st.floats(100.0, 1000.0),
    periods=st.integers(1, 40),
)
def test_every_located_event_meets_the_target(v0, T, divisor, periods):
    params, _ = derive_kinematics(1.0, v0, 1.0, T)
    dt = params.T / divisor
    located = []
    crossing = dynamics._crossing

    def record(w, h, r_h, t):
        s, hit = crossing(w, h, r_h, t)
        located.append((w, h, s, hit))
        return s, hit

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_crossing", record)
        traj = integrate(params, round(periods * divisor) * dt, dt)
    assert len(located) >= len(traj.events) >= periods - 1
    for w, h, s, hit in located:
        assert 0.0 <= s <= h
        assert hit == dynamics._step_factor(s) * w
        assert abs(hit.real) <= math.pi * dynamics.EVENT_X_TOL


def test_power_table_of_one_period_keeps_the_blocks(natural, monkeypatch):
    # after a reflection the next one is at most ceil(1/h) + 1 steps away, so
    # the shorter table ends no block early: the samples are bitwise those of
    # the full BLOCK_STEPS table
    params, _ = natural
    args = (params, 200.0 * params.T, params.T / 125.0)
    short = integrate(*args)
    sizes = []
    full_table = dynamics._step_powers

    def full(h, theta, size):
        sizes.append(size)
        return full_table(h, theta, min(dynamics.BLOCK_STEPS, 200 * 125))

    monkeypatch.setattr(dynamics, "_step_powers", full)
    full_run = integrate(*args)
    assert sizes == [126]
    assert short.samples.tobytes() == full_run.samples.tobytes()
    assert _row(short, "residual").tobytes() == _row(full_run, "residual").tobytes()
    assert short.events.tobytes() == full_run.events.tobytes()


@pytest.mark.parametrize("divisor, periods", [(100, 120), (125, 200), (250, 200), (800, 50), (1000, 100)])
@pytest.mark.parametrize(
    "pars", [(1.0, 1.0, 10.0, 1.0), (2.3, 0.37, 1.0, 1.7)], ids=["natural", "M0-2.3-v0-0.37-T-1.7"]
)
def test_integrator_matches_rk4_error_model(pars, divisor, periods):
    # With z = pi h, each RK4 step turns w by theta instead of z and scales
    # |w|^2 by 1 - z^6/72 + z^8/576, so the n-th event lags nT by
    # n (z/theta - 1) T and the invariant residual after N steps is
    # (1 - z^6/72 + z^8/576)^N - 1.
    params, _ = derive_kinematics(*pars)
    traj = integrate(params, t_end=periods * params.T, dt=params.T / divisor)
    z = math.pi / divisor
    theta = math.atan2(z - z ** 3 / 6.0, 1.0 - z ** 2 / 2.0 + z ** 4 / 24.0)
    residual = math.expm1(periods * divisor * math.log1p(z ** 8 / 576.0 - z ** 6 / 72.0))
    n = len(traj.events)
    assert _row(traj, "residual")[-1] == pytest.approx(residual, rel=0.02)
    assert traj.events[-1] - n * params.T == pytest.approx(n * (z / theta - 1.0) * params.T, rel=0.01)


def test_step_count_refuses_a_run_whose_events_leave_the_probe_window():
    # by the lag model above, at T/100 the n-th event lags nT by n 8.1e-9 T,
    # which reaches PROBE_WINDOW at n = 123.2
    assert dynamics.step_count(1.7, 123.0 * 1.7, 0.017) == 12300
    with pytest.raises(ValueError, match=r"the longest admissible t_end is 123\.2 T"):
        dynamics.step_count(1.7, 124.0 * 1.7, 0.017)
    assert dynamics.step_count(1.7, 200.0 * 1.7, 1.7 / 125.0) == 25000  # T/125 lags 6.6e-7 T by 200 T
    params, _ = derive_kinematics(2.3, 0.37, 1.0, 1.7)
    traj = integrate(params, t_end=123.0 * params.T, dt=params.T / 100.0)
    assert len(traj.events) == 123


@pytest.mark.parametrize("divisor, before", [(1000, 10), (250, 10), (999.5, 5)])
def test_event_flag_marks_the_first_sample_from_a_probe_window_before_each_reflection(
    natural, tmp_path, divisor, before
):
    # the flagged sample is the last one before a reflection that lies within
    # PROBE_WINDOW T after it (every reflection, on a grid that holds the
    # multiples of T), and otherwise the first one after the reflection
    params, _ = natural
    traj = integrate(params, t_end=10.0 * params.T, dt=params.T / divisor)
    write_trajectory_csv(traj, tmp_path / "run.csv")
    flags = np.loadtxt(tmp_path / "run.csv", delimiter=",", skiprows=1, usecols=6)
    t = np.flatnonzero(flags) * traj.dt
    assert len(t) == len(traj.events) == 10
    at_or_before = t <= traj.events
    assert at_or_before.sum() == before
    assert np.all(traj.events[at_or_before] - t[at_or_before] <= dynamics.PROBE_WINDOW * params.T)
    after = ~at_or_before
    assert np.all(t[after] - traj.dt < traj.events[after])


def test_trajectory_csv_writer_memory_does_not_grow_with_the_run(tmp_path, natural):
    params, _ = natural
    peaks = []
    for periods in (10, 100):
        traj = integrate(params, t_end=periods * params.T, dt=params.T / 1000.0)
        tracemalloc.start()
        try:
            write_trajectory_csv(traj, tmp_path / f"run{periods}.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]
