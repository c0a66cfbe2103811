import json

import pytest

from inertonsim import (
    CheckReport,
    derive_kinematics,
    registry_names,
    reports_to_json_lines,
    run_checks,
)

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
