import dataclasses
import json
import math
import re
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inertonsim import (
    CheckReport,
    SystemParams,
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
from inertonsim import dynamics, lagrangian, observables, spin, verification
from inertonsim.cli import builtin_presets, resolve_config
from inertonsim.verification import _STANDARD_STEPS, _dirac_draws
from per_draw import sample_params

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
        assert list(obj)[-2:] == ["cases", "non_finite"]
        assert (obj["cases"], obj["non_finite"]) == (rep.cases, 0)


def test_report_passed_property():
    good = CheckReport(name="x", status="pass", measured=0.1, tolerance=0.5, runtime_s=0.0, cases=1, non_finite=0)
    bad = CheckReport(name="x", status="fail", measured=0.9, tolerance=0.5, runtime_s=0.0, cases=1, non_finite=0)
    assert good.passed and not bad.passed


# --- the one pass rule ------------------------------------------------------

def _poison_call(monkeypatch, owner, attr, call, poison):
    """Wrap ``owner.attr`` so that its ``call``-th call returns
    ``poison(result)`` instead of ``result``."""
    real = getattr(owner, attr)
    calls = []

    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(None)
        return poison(out) if len(calls) == call else out

    monkeypatch.setattr(owner, attr, patched)


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def _nan_last(values):
    out = np.array(values, dtype=float)
    out[-1] = math.nan
    return out


def _nan_periodicity_sample(traj):
    xi = traj.xi.copy()
    xi[8 * _STANDARD_STEPS + 1] = math.nan  # X of the fourth recurrence, the last case
    return dataclasses.replace(traj, xi=xi)


# For each check, the inner evaluator whose last call (or last value) turns NaN.
_LAST_CASE_NAN = {
    "oracle_agreement": (dynamics, "oracle_errors", 1, lambda e: {**e, "dxdt": math.nan}),
    "invariant_conservation": (
        verification, "_standard_run", 1,
        lambda t: dataclasses.replace(t, invariant_residuals=_nan_last(t.invariant_residuals)),
    ),
    "periodicity": (verification, "_standard_run", 1, _nan_periodicity_sample),
    "convergence_order": (dynamics, "oracle_errors", 4, lambda e: {**e, "max": math.nan}),
    "el_residual_aggregate": (
        lagrangian, "el_residual", 1, lambda r: dataclasses.replace(r, max_abs_residual=math.nan)
    ),
    "transform_invariance": (lagrangian, "eval_lagrangian_canonical", 1, _nan_last),
    "action_triple_identity": (action, "_cyclic_actions", 1, _nan_last),
    "quantize_roundtrip": (action, "_cyclic_actions", 1, _nan_last),
    "hj_grid": (action, "hj_residual", 1, _nan_last),
    "dirac_algebra": (spin, "total_hamiltonian", 1, _nan_last),
    "dirac_spectrum": (spin, "total_hamiltonian", 1, _nan_last),
    "channel_antisymmetry": (spin, "spin_eigenvalue", 2, _nan_last),
    "sigma_scaling": (observables, "cross_section_bounds", 51, lambda b: dataclasses.replace(b, upper=math.nan)),
    "resonator_ratio": (
        observables, "resonator_dimensions", 10, lambda g: dataclasses.replace(g, ratio=math.nan)
    ),
}


@pytest.mark.parametrize("name", EXPECTED_ORDER)
def test_a_non_finite_last_case_fails_the_check(monkeypatch, full_run, name):
    clean = {r.name: r for r in full_run}[name]
    assert clean.passed and clean.non_finite == 0
    owner, attr, call, poison = _LAST_CASE_NAN[name]
    _poison_call(monkeypatch, owner, attr, call, poison)
    (report,) = run_checks(selection=[name], seed=42)
    assert report.status == "fail"
    assert report.cases == clean.cases
    assert report.non_finite >= 1
    # the finite cases still pass, so the NaN alone fails the check
    assert math.isfinite(report.measured) and report.measured <= report.tolerance
    json.loads(reports_to_json_lines([report]), parse_constant=_reject_constant)


def test_transform_invariance_without_a_counted_draw_fails(monkeypatch):
    # every draw refused, as if all lay outside the validity region
    monkeypatch.setattr(lagrangian, "_admitted", lambda s, p: np.zeros(len(s["t"]), dtype=bool))
    params, _ = derive_kinematics(1.0, 0.5, 1.0, 1.0)
    for seed in (0, 42, 1001):
        (report,) = run_checks(selection=["transform_invariance"], params=params, seed=seed)
        assert (report.status, report.measured, report.cases, report.non_finite) == ("fail", 0.0, 0, 0)


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
    """4 times the integral over the quarter cycle ``[0, T/2]``, on 16 panels."""
    quarter_cycle = 0.5 * math.pi / spec.omega

    def integrand(t):
        c = np.cos(spec.omega * t)
        return spec.p_max * c * spec.amplitude * spec.omega * c

    return 4.0 * action._composite_gauss(integrand, 0.0, quarter_cycle, 16)


def _per_draw_dirac_operator(rng, c=1.0):
    p_vec = rng.normal(size=3)
    M0 = abs(rng.normal()) + 0.1
    ax, ay, az, rho3 = dirac_matrices()
    px, py, pz = (float(v) for v in p_vec)
    matrix = c * (ax * px + ay * py + az * pz) + rho3 * (M0 * c * c)
    return matrix, total_hamiltonian((px, py, pz), 0.0, M0, c)


def _per_draw_transform_invariance(p, rng):
    values = []
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
        values.append(abs(lc - la) / abs(la))
    return values


def _per_draw_action_triple_identity(p, rng):
    values = []
    for _ in range(100):
        q = sample_params(rng)
        spec = action.OscillatorSpec.from_params(q)
        loop = _per_draw_cyclic_action(spec)
        e2t = spec.E * 2.0 * q.T
        p0lam = q.M * q.v0 * q.lam
        scale = abs(e2t)
        values += [abs(loop - e2t) / scale, abs(loop - p0lam) / scale, abs(e2t - p0lam) / scale]
    return values


def _per_draw_quantize_roundtrip(p, rng):
    values = []
    for _ in range(100):
        q = sample_params(rng)
        h = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        qk = action.quantize(q.M, q.v0, q.c, h)
        spec = action.OscillatorSpec.from_motion(q.M, q.v0, qk.T)
        values.append(abs(_per_draw_cyclic_action(spec) - h) / h)
    return values


_GL_RULE = tuple(zip(*(a.tolist() for a in np.polynomial.legendre.leggauss(8))))


def _per_draw_hj_residual(X, spec):
    """`action.hj_residual` at one float point, one node at a time."""
    d = action.HJ_FD_STEP * spec.amplitude
    two_me = 2.0 * spec.M * spec.E
    mw = spec.M * spec.omega
    window = 0.0
    for t, w in _GL_RULE:  # left to right: sum() of floats is compensated from Python 3.12
        mw_xi = mw * (X + d * t)
        window += w * math.sqrt(max(two_me - mw_xi * mw_xi, 0.0))
    s1_prime = 0.5 * window
    return s1_prime * s1_prime / (2.0 * spec.M) + 0.5 * spec.M * (spec.omega * spec.omega) * X * X - spec.E


def _per_draw_hj_grid(p, rng):
    values = []
    for _ in range(10):
        spec = action.OscillatorSpec.from_params(sample_params(rng))
        grid = np.linspace(-0.99 * spec.amplitude, 0.99 * spec.amplitude, 50)
        values += [abs(_per_draw_hj_residual(float(X), spec)) / spec.E for X in grid]
    return values


def _per_draw_dirac_algebra(p, rng):
    values = list(anticommutation_deviations().values())
    for _ in range(100):
        matrix, e = _per_draw_dirac_operator(rng)
        values.append(float(np.max(np.abs(matrix @ matrix - e ** 2 * np.eye(4)))))
    return values


def _per_draw_dirac_spectrum(p, rng):
    values = []
    for _ in range(100):
        matrix, e = _per_draw_dirac_operator(rng)
        expected = np.array([-e, -e, e, e])
        values.append(float(np.max(np.abs(np.linalg.eigvalsh(matrix) - expected)) / e))
    return values


def _per_draw_channel_antisymmetry(p, rng):
    values = []
    for _ in range(50):
        e, b, m = rng.normal(), rng.normal(), abs(rng.normal()) + 0.1
        up = spin.spin_eigenvalue(spin.SpinContext(channel=+1, e=e, B_z=b, M=m))
        dn = spin.spin_eigenvalue(spin.SpinContext(channel=-1, e=e, B_z=b, M=m))
        values.append(abs(up + dn))
    return values


def _per_draw_sigma_scaling(p, rng):
    values = []
    for q in [p] + [sample_params(rng) for _ in range(50)]:
        bounds = observables.cross_section_bounds(q)
        expected = (q.c / q.v0) ** 2
        values.append(abs(bounds.upper / bounds.lower - expected) / expected)
    return values


# Each check as a loop over single draws from the same per-check generator:
# the reference for the array pass, which must return the same case values,
# bit for bit, and leave the generator at the same place.
_PER_DRAW_CHECKS = {
    "transform_invariance": _per_draw_transform_invariance,
    "action_triple_identity": _per_draw_action_triple_identity,
    "quantize_roundtrip": _per_draw_quantize_roundtrip,
    "hj_grid": _per_draw_hj_grid,
    "dirac_algebra": _per_draw_dirac_algebra,
    "dirac_spectrum": _per_draw_dirac_spectrum,
    "channel_antisymmetry": _per_draw_channel_antisymmetry,
    "sigma_scaling": _per_draw_sigma_scaling,
}


def _assert_matches_per_draw(params, seed):
    for name, per_draw in _PER_DRAW_CHECKS.items():
        batched = np.random.default_rng([seed, zlib.crc32(name.encode())])
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        with np.errstate(all="ignore"):  # overflowing draws give inf and NaN quietly, as floats do
            try:
                reference = per_draw(params, rng)
            except ValueError as refusal:  # both refuse the same way
                with pytest.raises(ValueError, match=re.escape(str(refusal))):
                    verification._REGISTRY[name](params, batched)
                continue
        values, _ = verification._REGISTRY[name](params, batched)
        assert np.array_equal(_bits(values), _bits(reference)), name
        assert _bits(batched.random()) == _bits(rng.random()), name  # same stream position


def test_draw_params_follow_the_per_draw_stream():
    # enough draws that some square (v0/c)**2 is one where libm pow and x*x differ
    batched = np.random.default_rng(11)
    draws, (h,) = verification._draw_params(batched, 4000, extra=[verification._LOG_H])
    fields = vars(draws)
    rng = np.random.default_rng(11)
    rows = [(sample_params(rng), math.exp(rng.uniform(math.log(0.1), math.log(10.0)))) for _ in range(4000)]
    assert list(fields) == [f.name for f in dataclasses.fields(SystemParams)]
    for name, values in fields.items():
        assert np.array_equal(_bits(values), _bits([getattr(q, name) for q, _ in rows])), name
    assert np.array_equal(_bits(h), _bits([hk for _, hk in rows]))
    assert _bits(batched.random()) == _bits(rng.random())  # same stream position


@pytest.mark.parametrize(
    "v0_range, refusal",
    [((0.5, 2.0), "0 < v0 < c"), ((1e-200, 1e-170), "underflows")],
    ids=["v0-above-c", "m0-underflow"],
)
def test_an_invalid_draw_is_refused_as_derive_kinematics_refuses_it(monkeypatch, v0_range, refusal):
    bounds = (tuple(math.log(v) for v in v0_range), *verification._LOG_BOUNDS[1:])
    monkeypatch.setattr(verification, "_LOG_BOUNDS", bounds)
    logs = np.random.default_rng(7).uniform(*zip(*bounds), size=(20, 3))
    for u_v0, u_T, u_M0 in logs.tolist():
        try:
            derive_kinematics(M0=math.exp(u_M0), v0=math.exp(u_v0), c=1.0, T=math.exp(u_T))
        except ValueError as first:
            expected = str(first)
            break
    assert refusal in expected
    with pytest.raises(ValueError, match="^" + re.escape(expected) + "$"):
        verification._draw_params(np.random.default_rng(7), 20)


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
