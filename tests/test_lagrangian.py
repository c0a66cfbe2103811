import dataclasses
import math

import numpy as np
import pytest

from inertonsim import (
    derive_kinematics,
    el_residual,
    eval_lagrangian_aggregate,
    eval_lagrangian_aggregate_shifted,
    eval_lagrangian_canonical,
    kappa_transform,
    scale_channel,
    write_el_csv,
)
from inertonsim.dynamics import CLOSED_FORM_STEPS, SAMPLE_DTYPE, closed_form_trajectory
from inertonsim.lagrangian import _admitted, cloud_residual_scale, particle_residual_scale


def _closed_form_at(params, i):
    """The exact state at sample ``i`` of one period of `closed_form_trajectory`
    (`CLOSED_FORM_STEPS` samples per period), as a dict of floats."""
    return dict(zip(SAMPLE_DTYPE.names, closed_form_trajectory(params, t_end=params.T).samples[i].tolist()))


def test_aggregate_plug_in():
    params = dataclasses.replace(derive_kinematics(1.0, 1.0, 10.0, 1.0)[0], m0=0.01)
    s = dict(t=0.0, X=0.0, dXdt=1.0, x=0.0, dxdt=0.0)
    val = eval_lagrangian_aggregate(s, params)
    assert val == pytest.approx(-100.0 * math.sqrt(1.0 - 0.01), rel=1e-14)


def test_aggregate_at_contact(natural):
    params, _ = natural
    s = _closed_form_at(params, 0)
    expected = -params.M0 * params.c ** 2 * math.sqrt(
        1.0 - (params.M0 * params.v0 ** 2 + params.m0 * params.c ** 2) / (params.M0 * params.c ** 2)
    )
    assert eval_lagrangian_aggregate(s, params) == pytest.approx(expected, rel=1e-14)


def test_aggregate_all_zero_state(natural):
    params, _ = natural
    s = dict(t=0.0, X=0.0, dXdt=0.0, x=0.0, dxdt=0.0)
    assert eval_lagrangian_aggregate(s, params) == -params.M0 * params.c ** 2


def test_canonical_static_displacement(natural):
    # with both rates zero only the harmonic X term survives in the radical
    params, _ = natural
    X = 0.3
    s = dict(t=0.0, X=X, dXdt=0.0, kappa_rate=0.0, x=0.0)
    expected = -params.M0 * params.c ** 2 * math.sqrt(
        1.0 + (math.pi / params.T) ** 2 * X ** 2 / params.c ** 2
    )
    assert eval_lagrangian_canonical(s, params) == pytest.approx(expected, rel=1e-14)


def test_imaginary_radicand_rejected(natural):
    params, _ = natural
    s = dict(t=0.0, X=0.0, dXdt=10.5, x=0.0, dxdt=0.0)
    with pytest.raises(ValueError):
        eval_lagrangian_aggregate(s, params)


def test_admitted_is_exactly_where_both_evaluators_accept():
    # v0/c = 0.999 puts some uniform draws outside either radicand; a NaN
    # state is not refused (its radicand is not negative) and must count.
    params, _ = derive_kinematics(1.0, 0.999, 1.0, 1.0)
    rng = np.random.default_rng(31)
    cols = rng.uniform([-params.lam, 0.0, 0.0, -params.c], [params.lam, params.v0, params.Lam, params.c], (400, 4))
    cols[7, 1] = np.nan
    s = dict(zip(("X", "dXdt", "x", "dxdt"), cols.T), t=np.zeros(len(cols)))
    accepted = []
    for k in range(len(cols)):
        state = {name: float(col[k]) for name, col in s.items()}
        try:
            eval_lagrangian_aggregate(state, params)
            eval_lagrangian_canonical(kappa_transform(state, params), params)
        except ValueError:
            accepted.append(False)
        else:
            accepted.append(True)
    assert 0 < sum(accepted) < len(cols) and accepted[7]
    assert _admitted(s, params).tolist() == accepted


def test_shift_preserves_el_structure(natural):
    # the shifted evaluator differs from the plain one by exactly M0 c^2
    params, _ = natural
    s = _closed_form_at(params, round(0.37 * CLOSED_FORM_STEPS))
    diff = eval_lagrangian_aggregate_shifted(s, params) - eval_lagrangian_aggregate(s, params)
    assert diff == pytest.approx(params.M0 * params.c ** 2, rel=1e-12)


def test_kappa_rate_example():
    params = dataclasses.replace(derive_kinematics(1.0, 0.5, 1.0, 1.0)[0], m0=1.0)
    s = dict(t=0.0, X=1.0, dXdt=0.0, x=0.0, dxdt=5.0)
    cs = kappa_transform(s, params)
    assert cs["kappa_rate"] == pytest.approx(5.0 - math.pi, rel=1e-14)


def test_state_protocol_dict_record_and_row_agree(natural):
    # a state is anything indexed by the five field names: a dict, a
    # SAMPLE_DTYPE record or a one-row sample array give the same bits
    params, _ = natural
    fields = dict(t=0.2, X=0.11, dXdt=0.7, x=1.3, dxdt=-4.0)
    row = np.empty(1, dtype=SAMPLE_DTYPE)
    for name, value in fields.items():
        row[name] = value
    states = (fields, row[0], row)

    def bits(value):
        return np.asarray(value, dtype=np.float64).reshape(-1).tobytes()

    assert len({bits(eval_lagrangian_aggregate_shifted(s, params)) for s in states}) == 1
    canon = [kappa_transform(s, params) for s in states]
    for name in ("t", "X", "dXdt", "kappa_rate", "x"):
        assert len({bits(cs[name]) for cs in canon}) == 1, name


def test_transform_invariance_at_half_period(natural):
    params, _ = natural
    s = _closed_form_at(params, CLOSED_FORM_STEPS // 2)
    la = eval_lagrangian_aggregate(s, params)
    lc = eval_lagrangian_canonical(kappa_transform(s, params), params)
    assert lc == pytest.approx(la, rel=1e-9)


def test_transform_invariance_random_states(natural):
    params, _ = natural
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(300):
        s = dict(
            t=0.0,
            X=rng.uniform(-params.lam, params.lam),
            dXdt=rng.uniform(0.0, params.v0),
            x=rng.uniform(0.0, params.Lam),
            dxdt=rng.uniform(-params.c, params.c),
        )
        try:
            la = eval_lagrangian_aggregate(s, params)
        except ValueError:
            continue
        lc = eval_lagrangian_canonical(kappa_transform(s, params), params)
        assert abs(lc - la) <= 1e-9 * abs(la)
        checked += 1
    assert checked > 100


# ------------------------------------------------------- residual machinery

@pytest.fixture(scope="module")
def slow_regime():
    """Drift speed far below the cloud speed, where the closed forms satisfy
    the variational equations to high accuracy."""
    params, _ = derive_kinematics(1.0, 1.0e-4, 1.0, 1.0)
    traj = closed_form_trajectory(params, t_end=2.0 * params.T)

    def L(s):
        return eval_lagrangian_aggregate_shifted(s, params)

    return params, traj, L


def test_el_residual_particle(slow_regime):
    params, traj, L = slow_regime
    report = el_residual(L, traj, "particle")
    assert report.max_abs_residual / particle_residual_scale(params) <= 1e-5


def test_el_residual_cloud(slow_regime):
    params, traj, L = slow_regime
    report = el_residual(L, traj, "cloud")
    assert report.max_abs_residual / cloud_residual_scale(params) <= 1e-5


def test_el_corruption_sensitivity(slow_regime):
    params, traj, L = slow_regime
    clean = el_residual(L, traj, "particle").max_abs_residual
    bad = scale_channel(traj, "particle", 1.1)
    corrupted = el_residual(L, bad, "particle").max_abs_residual
    assert corrupted > 100.0 * clean


def test_el_event_windows_are_flagged(slow_regime):
    _, traj, L = slow_regime
    report = el_residual(L, traj, "particle")
    assert len(report.excluded_windows) == len(traj.events) == 2
    assert report.excluded.sum() > 0
    # the flagged slots hug the recorded events
    for t_lo, t_hi in report.excluded_windows:
        assert type(t_lo) is float and type(t_hi) is float
        assert t_hi - t_lo <= 11.0 * traj.dt


def test_el_rejects_unknown_coordinate(slow_regime):
    _, traj, L = slow_regime
    with pytest.raises(ValueError):
        el_residual(L, traj, "sideways")


def test_el_csv_output(tmp_path, slow_regime):
    _, traj, L = slow_regime
    report = el_residual(L, traj, "particle")
    path = tmp_path / "el.csv"
    write_el_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,residual,excluded_flag"
    assert len(lines) == 1 + len(report.times)
    # flags round-trip
    flags = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
    assert sum(flags) == int(report.excluded.sum())


def test_el_residual_matches_per_sample_loop(slow_regime):
    # the scalar loop the array form replaced: one dict of floats per sample
    params, traj, L = slow_regime
    short = dataclasses.replace(traj, w=traj.w[:300], events=traj.events[:0])
    rows = [dict(zip(short.samples.dtype.names, row)) for row in short.samples.tolist()]
    dX = 1e-6 * max(abs(s["X"]) for s in rows)
    dV = 1e-6 * max(abs(s["dXdt"]) for s in rows)
    dt = rows[1]["t"] - rows[0]["t"]
    momenta = [
        (L({**s, "dXdt": s["dXdt"] + dV}) - L({**s, "dXdt": s["dXdt"] - dV})) / (2.0 * dV)
        for s in rows
    ]
    expected = []
    for i in range(1, len(rows) - 1):
        s = rows[i]
        force = (L({**s, "X": s["X"] + dX}) - L({**s, "X": s["X"] - dX})) / (2.0 * dX)
        expected.append((momenta[i + 1] - momenta[i - 1]) / (2.0 * dt) - force)
    report = el_residual(L, short, "particle")
    assert report.residuals.tolist() == expected
