import json
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inertonsim import (
    CheckReport,
    action,
    anticommutation_deviations,
    derive_kinematics,
    dirac_hamiltonian,
    dirac_matrices,
    eval_lagrangian_aggregate,
    eval_lagrangian_canonical,
    kappa_transform,
    natural_params,
    registry_names,
    reports_to_json_lines,
    run_checks,
    total_hamiltonian,
)
from inertonsim.cli import builtin_presets, resolve_config
from inertonsim.verification import _dirac_draws, _sample_params

EXPECTED_ORDER = [
    "oracle_agreement",
    "invariant_conservation",
    "periodicity",
    "convergence_order",
    "el_residual_aggregate",
    "transform_invariance",
    "action_triple_identity",
    "quantize_roundtrip",
    "hj_grid",
    "dirac_algebra",
    "dirac_spectrum",
    "channel_antisymmetry",
    "sigma_scaling",
    "resonator_ratio",
]


def test_registry_contents():
    assert registry_names() == EXPECTED_ORDER
    assert len(EXPECTED_ORDER) == 14


@pytest.fixture(scope="module")
def full_run():
    return run_checks(seed=42)


def test_full_suite_passes(full_run):
    assert [r.name for r in full_run] == EXPECTED_ORDER
    failures = [r.name for r in full_run if not r.passed]
    assert failures == []


def test_measured_below_tolerance(full_run):
    for r in full_run:
        assert r.measured <= r.tolerance, r.name


def test_determinism_across_runs(full_run):
    again = run_checks(seed=42)
    for a, b in zip(full_run, again):
        assert a.name == b.name
        assert a.measured == b.measured  # bitwise


def test_seed_changes_sampled_checks():
    a = {r.name: r.measured for r in run_checks(selection=["transform_invariance"], seed=1)}
    b = {r.name: r.measured for r in run_checks(selection=["transform_invariance"], seed=2)}
    assert a["transform_invariance"] != b["transform_invariance"]


def test_selection_order_does_not_matter(full_run):
    pair = run_checks(selection=["resonator_ratio", "periodicity"], seed=42)
    # reports come back in registry order
    assert [r.name for r in pair] == ["periodicity", "resonator_ratio"]
    by_name = {r.name: r for r in full_run}
    for r in pair:
        assert r.measured == by_name[r.name].measured


def test_unknown_selection_raises():
    with pytest.raises(ValueError, match="registry"):
        run_checks(selection=["no_such_check"])


def test_custom_params_flow_through():
    params, _ = derive_kinematics(1.0, 0.5, 5.0, 2.0)
    reports = run_checks(selection=["oracle_agreement", "invariant_conservation"], params=params)
    assert all(r.passed for r in reports)


def test_json_lines_roundtrip(full_run):
    text = reports_to_json_lines(full_run)
    lines = text.strip().splitlines()
    assert len(lines) == 14
    for line, rep in zip(lines, full_run):
        obj = json.loads(line)
        assert obj["name"] == rep.name
        assert obj["status"] in ("pass", "fail")
        assert obj["measured"] == rep.measured
        assert obj["tolerance"] == rep.tolerance


def test_report_passed_property():
    good = CheckReport(name="x", status="pass", measured=0.1, tolerance=0.5, runtime_s=0.0)
    bad = CheckReport(name="x", status="fail", measured=0.9, tolerance=0.5, runtime_s=0.0)
    assert good.passed and not bad.passed


def test_standard_run_is_integrated_once(monkeypatch):
    from inertonsim import dynamics

    calls = []
    real = dynamics.integrate

    def counted(*args, **kwargs):
        calls.append(kwargs.get("dt"))
        return real(*args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate", counted)
    reports = run_checks(
        selection=["oracle_agreement", "invariant_conservation", "periodicity", "convergence_order"]
    )
    assert all(r.passed for r in reports)
    assert len(calls) == 5  # one shared ten-period run plus the four convergence steps


# --- the sampled checks against their per-draw form ------------------------

def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def test_dirac_draws_follow_the_per_draw_stream():
    for seed in (0, 5):
        batched = np.random.default_rng(seed)
        H, energies = _dirac_draws(batched)
        rng = np.random.default_rng(seed)
        for k in range(100):
            p_vec = rng.normal(size=3)
            op = dirac_hamiltonian(p_vec, M0=abs(rng.normal()) + 0.1, c=1.0)
            assert np.array_equal(H[k].view(np.int64), op.matrix.view(np.int64))
            assert _bits(energies[k]) == _bits(op.expected_branch_energy())
        assert _bits(batched.random()) == _bits(rng.random())  # same stream position


def test_batched_uniform_draws_follow_the_per_draw_stream():
    for params in (natural_params(), derive_kinematics(1.0, 0.999, 1.0, 1.0)[0]):
        p = params
        lows, highs = [-p.lam, 0.0, 0.0, -p.c], [p.lam, p.v0, p.Lam, p.c]
        batched = np.random.default_rng(3).uniform(lows, highs, size=(200, 4))
        rng = np.random.default_rng(3)
        per_draw = [[rng.uniform(lo, hi) for lo, hi in zip(lows, highs)] for _ in range(200)]
        assert np.array_equal(_bits(batched), _bits(per_draw))


def _per_draw_cyclic_action(spec):
    period = 2.0 * math.pi / spec.omega

    def integrand(t):
        c = np.cos(spec.omega * t)
        return spec.p_max * c * spec.amplitude * spec.omega * c

    return action._composite_gauss(integrand, 0.0, period, 64)


def _per_draw_dirac_operator(rng, c=1.0):
    p_vec = rng.normal(size=3)
    M0 = abs(rng.normal()) + 0.1
    ax, ay, az, rho3 = dirac_matrices()
    px, py, pz = (float(v) for v in p_vec)
    matrix = c * (ax * px + ay * py + az * pz) + rho3 * (M0 * c * c)
    return matrix, total_hamiltonian((px, py, pz), 0.0, M0, c)


def _per_draw_transform_invariance(p, rng):
    worst = 0.0
    for _ in range(200):
        s = dict(
            t=0.0,
            X=rng.uniform(-p.lam, p.lam),
            dXdt=rng.uniform(0.0, p.v0),
            x=rng.uniform(0.0, p.Lam),
            dxdt=rng.uniform(-p.c, p.c),
        )
        try:
            la = eval_lagrangian_aggregate(s, p)
            lc = eval_lagrangian_canonical(kappa_transform(s, p), p)
        except ValueError:
            continue
        worst = max(worst, abs(lc - la) / abs(la))
    return worst


def _per_draw_action_triple_identity(p, rng):
    worst = 0.0
    for _ in range(100):
        q = _sample_params(rng)
        spec = action.OscillatorSpec.from_params(q)
        loop = _per_draw_cyclic_action(spec)
        e2t = spec.E * 2.0 * q.T
        p0lam = q.M * q.v0 * q.lam
        scale = abs(e2t)
        worst = max(worst, abs(loop - e2t) / scale, abs(loop - p0lam) / scale, abs(e2t - p0lam) / scale)
    return worst


def _per_draw_quantize_roundtrip(p, rng):
    worst = 0.0
    for _ in range(100):
        q = _sample_params(rng)
        h = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        qk = action.quantize(q.M, q.v0, q.c, h)
        spec = action.OscillatorSpec.from_motion(q.M, q.v0, qk.T)
        worst = max(worst, abs(_per_draw_cyclic_action(spec) - h) / h)
    return worst


def _per_draw_dirac_algebra(p, rng):
    worst = max(anticommutation_deviations().values())
    for _ in range(100):
        matrix, e = _per_draw_dirac_operator(rng)
        worst = max(worst, float(np.max(np.abs(matrix @ matrix - e ** 2 * np.eye(4)))))
    return worst


def _per_draw_dirac_spectrum(p, rng):
    worst = 0.0
    for _ in range(100):
        matrix, e = _per_draw_dirac_operator(rng)
        expected = np.array([-e, -e, e, e])
        worst = max(worst, float(np.max(np.abs(np.linalg.eigvalsh(matrix) - expected)) / e))
    return worst


# Each check as a loop over single draws from the same per-check generator:
# the reference for the array pass, which must measure the same bits.
_PER_DRAW_CHECKS = {
    "transform_invariance": _per_draw_transform_invariance,
    "action_triple_identity": _per_draw_action_triple_identity,
    "quantize_roundtrip": _per_draw_quantize_roundtrip,
    "dirac_algebra": _per_draw_dirac_algebra,
    "dirac_spectrum": _per_draw_dirac_spectrum,
}


def _assert_matches_per_draw(params, seed):
    reports = run_checks(selection=list(_PER_DRAW_CHECKS), params=params, seed=seed)
    assert [r.name for r in reports] == list(_PER_DRAW_CHECKS)
    for r in reports:
        rng = np.random.default_rng([seed, zlib.crc32(r.name.encode())])
        assert _bits(r.measured) == _bits(_PER_DRAW_CHECKS[r.name](params, rng)), r.name


def _electron_atomic_params():
    params, _, _ = resolve_config(builtin_presets()["electron-atomic"])
    return params


@pytest.mark.parametrize(
    "make_params",
    [
        natural_params,
        lambda: derive_kinematics(1.0, 0.5, 5.0, 2.0)[0],
        _electron_atomic_params,
        lambda: derive_kinematics(1.0, 0.999, 1.0, 1.0)[0],  # some draws refused
        lambda: derive_kinematics(1.0, 1e150, 1e160, 1e10)[0],  # NaN Lagrangians
    ],
    ids=["natural", "custom", "electron-atomic", "v0-near-c", "overflow"],
)
@pytest.mark.parametrize("seed", [0, 42, 1001])
def test_sampled_checks_match_per_draw_loops_bitwise(make_params, seed):
    _assert_matches_per_draw(make_params(), seed)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_sampled_checks_match_per_draw_loops_bitwise_any_seed(seed):
    _assert_matches_per_draw(natural_params(), seed)
