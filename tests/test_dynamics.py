import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from inertonsim import (
    DivergenceError,
    closed_form,
    derive_kinematics,
    integrate,
    invariant_residual,
    oracle_errors,
    write_events_json,
    write_trajectory_csv,
)
from inertonsim import dynamics
from inertonsim.dynamics import GENERATOR, closed_form_trajectory
from inertonsim.plotting import render_line_svg


# ---------------------------------------------------------------- closed form

def test_closed_form_quarter_points(natural):
    params, _ = natural
    s = closed_form(0.5 * params.T, params)
    assert s["dXdt"] == pytest.approx(0.0, abs=1e-15)
    assert s["x"] == pytest.approx(params.Lam / math.pi, rel=1e-14)
    assert s["dxdt"] == pytest.approx(0.0, abs=1e-14)


def test_closed_form_one_period(natural):
    params, _ = natural
    s = closed_form(params.T, params)
    assert s["X"] == pytest.approx(params.lam * (1.0 - 2.0 / math.pi), rel=1e-13)
    assert s["X"] == pytest.approx(0.36338, rel=1e-4)
    assert s["x"] == pytest.approx(0.0, abs=1e-12)
    assert s["dXdt"] == pytest.approx(params.v0, rel=1e-13)


def test_closed_form_initial_conditions(natural):
    params, _ = natural
    s = closed_form(0.0, params)
    assert (s["X"], s["x"]) == (0.0, 0.0)
    assert s["dXdt"] == params.v0
    assert s["dxdt"] == params.c


def test_closed_form_rejects_negative_time(natural):
    params, _ = natural
    with pytest.raises(ValueError):
        closed_form(-0.1, params)


@given(t=st.floats(min_value=0.0, max_value=50.0))
def test_invariant_vanishes_on_closed_form(t):
    params, _ = derive_kinematics(1.0, 1.0, 10.0, 1.0)
    s = closed_form(t, params)
    assert abs(invariant_residual(s, params)) <= 1e-12


def test_mean_drift_matches_quadrature(natural):
    # brute-force quadrature of the closed-form velocity over one period
    params, kin = natural
    t = np.linspace(0.0, params.T, 20001)
    v = np.array([closed_form(ti, params)["dXdt"] for ti in t])
    drift = np.trapezoid(v, t)
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
    worst = max(abs(r) for r in natural_traj.invariant_residuals)
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
    assert max(abs(r) for r in traj.invariant_residuals) <= 1e-8


def test_long_run_stays_on_the_invariant_circle(natural):
    params, _ = natural
    traj = integrate(params, t_end=20.0 * params.T, dt=params.T / 500.0)
    assert len(traj.events) == 20
    assert max(abs(r) for r in traj.invariant_residuals) <= 1e-8


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


def test_events_json(tmp_path, natural):
    params, _ = natural
    traj = integrate(params, t_end=3.0, dt=1e-3)
    path = tmp_path / "events.json"
    write_events_json(traj, path)
    data = json.loads(path.read_text())
    assert [e["kind"] for e in data["events"]] == ["cloud_reflection"] * 3
    assert [e["t"] for e in data["events"]] == traj.events.tolist()


def test_closed_form_trajectory_marks_events(natural):
    params, _ = natural
    traj = closed_form_trajectory(params, t_end=2.0 * params.T, n_per_period=500)
    assert len(traj.events) == 2
    assert len(traj.samples) == 1001


# ------------------------------------------------------- column pipeline

def test_divergence_guard_stops_at_first_offending_sample(natural, monkeypatch):
    params, _ = natural
    ref = integrate(params, t_end=1.0, dt=1e-3)
    limit = 0.5 * float(np.max(np.abs(ref.invariant_residuals)))
    first = int(np.argmax(np.abs(ref.invariant_residuals) > limit))
    monkeypatch.setattr(dynamics, "DIVERGENCE_LIMIT", limit)
    with pytest.raises(DivergenceError, match=f"at t={first * 1e-3}"):
        integrate(params, t_end=1.0, dt=1e-3)


def test_divergence_guard_catches_nan():
    residuals = np.array([0.0, 1e-12, math.nan, 0.0])
    with pytest.raises(DivergenceError, match="at t=0.2"):
        dynamics._guard(residuals, 0, 4, 0.1)


def test_trajectory_csv_matches_per_row_formatter(tmp_path, natural):
    params, _ = natural
    t = np.arange(6) * 0.1
    cols = {
        "t": t,
        "X": np.array([0.0, -0.0, 1.0 / 3.0, 1e-300, 1.5e17, 0.1 + 0.2]),
        "dXdt": np.array([1.0, 0.9999999999999999, -2.5, 7e-8, 123456.789, math.pi]),
        "x": np.array([0.0, 5e-324, 2.0 ** -30, 9.87654321e10, 1e-9, -1e-13]),
        "dxdt": np.array([10.0, -10.0, 0.5, -0.125, 6.02214076e23, -math.e]),
    }
    residuals = np.array([0.0, -1.1e-16, 2.2e-16, 3.3e-14, -4.4e-12, 5.5e-10])
    samples = np.empty(6, dtype=dynamics.SAMPLE_DTYPE)
    for name, col in cols.items():
        samples[name] = col
    traj = dynamics.Trajectory(
        params=params,
        samples=samples,
        events=np.array([0.25, 0.4 + 1e-7]),
        invariant_residuals=residuals,
    )
    path = tmp_path / "cols.csv"
    write_trajectory_csv(traj, path)
    flags = [0, 0, 0, 1, 1, 0]
    expected = ["t,X,dXdt,x,dxdt,invariant_residual,event_flag"]
    for i in range(6):
        values = [float(cols[name][i]) for name in ("t", "X", "dXdt", "x", "dxdt")]
        values.append(float(residuals[i]))
        expected.append(",".join([format(v, ".17g") for v in values] + [str(flags[i])]))
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


def test_svg_polyline_matches_per_point_formatter(tmp_path):
    x = np.array([0.0, 0.125, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0])
    y = np.array([-1.0, 0.3, 2.675, -0.005, 1e-9, 0.0])
    path = tmp_path / "line.svg"
    render_line_svg(path, [(x, y, "series")], title="t", xlabel="x", ylabel="y")
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


@pytest.fixture(scope="module")
def short_run():
    params, _ = derive_kinematics(1.0, 1.0, 10.0, 1.0)
    return integrate(params, t_end=3.0, dt=1e-3)


@settings(deadline=None, max_examples=40)
@given(
    grid_events=st.lists(
        st.tuples(
            st.one_of(st.sampled_from([999, 1000, 1001, 2000, 3000]), st.integers(0, 3000)),
            st.floats(min_value=-2e-6, max_value=2e-6),
        ),
        max_size=8,
    ),
    free_events=st.lists(st.floats(min_value=0.0, max_value=3.5), max_size=4),
    keep_own=st.booleans(),
)
# the sample at t = T sits on the wrong branch; only an event just before it relaxes it
@example(grid_events=[(1000, -5e-7)], free_events=[], keep_own=False)
def test_oracle_errors_match_dense_definition(short_run, grid_events, free_events, keep_own):
    # the samples x events distance matrix the searchsorted lookup replaces
    p = short_run.params
    s = short_run.samples
    t = s["t"]
    times = [float(t[i]) + off for i, off in grid_events] + free_events
    if keep_own:
        times += short_run.events.tolist()
    traj = dataclasses.replace(short_run, events=np.array(times, dtype=np.float64))

    ref = closed_form(t, p)
    d_dxdt = np.abs(s["dxdt"] - ref["dxdt"])
    if times:
        ev = np.array(times)
        near = np.min(np.abs(t[:, None] - ev[None, :]), axis=1) <= 1.0e-6 * p.T
        other = np.abs(s["dxdt"] + ref["dxdt"])
        d_dxdt = np.where(near, np.minimum(d_dxdt, other), d_dxdt)
    dense = {
        "X": float(np.max(np.abs(s["X"] - ref["X"])) / p.lam),
        "dXdt": float(np.max(np.abs(s["dXdt"] - ref["dXdt"])) / p.v0),
        "x": float(np.max(np.abs(s["x"] - ref["x"])) / p.Lam),
        "dxdt": float(np.max(d_dxdt) / p.c),
    }
    dense["max"] = max(dense.values())
    assert oracle_errors(traj) == dense


def test_integrate_memory_is_linear_in_samples(natural):
    params, _ = natural
    integrate(params, t_end=params.T, dt=params.T / 1000.0)  # warm caches
    tracemalloc.start()
    try:
        traj = integrate(params, t_end=100.0 * params.T, dt=params.T / 1000.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    output = traj.samples.nbytes + traj.invariant_residuals.nbytes
    assert len(traj.samples) == 100001
    assert peak <= 4 * output


def test_step_map_is_rk4():
    # one table step equals a classical RK4 step written out stage by stage
    h = 1e-2
    y = np.array([0.3, 0.8, 0.05, -0.6, 1.0])
    k1 = GENERATOR @ y
    k2 = GENERATOR @ (y + 0.5 * h * k1)
    k3 = GENERATOR @ (y + 0.5 * h * k2)
    k4 = GENERATOR @ (y + h * k3)
    rk4 = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    table = dynamics._power_table(h, 3)
    assert np.allclose(dynamics._advance(table, y[:4], 1)[:, 0], rk4[:4], rtol=0, atol=1e-15)
    assert np.allclose(dynamics._partial(dynamics._taylor(y[:4]), h), rk4[:4], rtol=0, atol=1e-15)


def test_power_table_of_one_period_keeps_the_blocks(natural, monkeypatch):
    # after a reflection the next one is at most ceil(1/h) + 1 steps away, so
    # the shorter table ends no block early: the samples are bitwise those of
    # the full BLOCK_STEPS table
    params, _ = natural
    args = (params, 200.0 * params.T, params.T / 125.0)
    short = integrate(*args)
    sizes = []
    full_table = dynamics._power_table

    def full(h, size):
        sizes.append(size)
        return full_table(h, min(dynamics.BLOCK_STEPS, 200 * 125))

    monkeypatch.setattr(dynamics, "_power_table", full)
    full_run = integrate(*args)
    assert sizes == [126]
    assert short.samples.tobytes() == full_run.samples.tobytes()
    assert short.invariant_residuals.tobytes() == full_run.invariant_residuals.tobytes()
    assert short.events.tobytes() == full_run.events.tobytes()


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
