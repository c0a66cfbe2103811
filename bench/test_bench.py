"""Tests of the benchmark itself: the output check and count repeatability.

    python3 -m pytest bench -q

Kept out of the tier-1 suite (``testpaths = ["tests"]``) because they run
real workload ops, about a minute in all.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import pytest

import run
import workloads
from spans import LAYER_METRICS

sys.path.insert(0, os.path.join(run.ROOT, "src"))
from inertonsim import cli  # noqa: E402
from inertonsim.verification import registry_names  # noqa: E402

COUNTS = [name for name, (unit, *_rest) in LAYER_METRICS.items() if unit == "count"]
BYTES = [name for name, (unit, *_rest) in LAYER_METRICS.items() if unit == "B"]


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("simulate"))
    argv, expect = workloads.make_op("simulate-long", 3, work)
    assert cli.main(argv) == 0
    return expect


def _doctored(expect, tmp_path):
    """A copy of a run's outputs, with ``expect`` pointing at the copy."""
    out = str(tmp_path / "out")
    shutil.copytree(expect["out"], out)
    case = dict(expect["cases"][0], dir=out)
    return {**expect, "out": out, "cases": [case]}, out


def _problems(expect, exit_code=0):
    return workloads.check_op("simulate-long", exit_code, expect)[1]


def test_check_accepts_good_run(simulated):
    assert workloads.check_op("simulate-long", 0, simulated) == (1, [])


def test_check_rejects_dropped_event(simulated, tmp_path):
    expect, out = _doctored(simulated, tmp_path)
    path = os.path.join(out, "events.json")
    with open(path) as fh:
        doc = json.load(fh)
    del doc["events"][41]
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert any("events, expected" in p for p in _problems(expect))


def test_check_rejects_flipped_final_dxdt(simulated, tmp_path):
    expect, out = _doctored(simulated, tmp_path)
    path = os.path.join(out, "trajectory.csv")
    with open(path) as fh:
        lines = fh.readlines()
    cols = lines[-1].split(",")
    cols[4] = repr(-float(cols[4]))
    lines[-1] = ",".join(cols)
    with open(path, "w") as fh:
        fh.writelines(lines)
    assert any("final row" in p for p in _problems(expect))


def test_check_rejects_nan_in_metadata(simulated, tmp_path):
    expect, out = _doctored(simulated, tmp_path)
    path = os.path.join(out, "metadata.json")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace('"max_invariant_residual": ', '"max_invariant_residual": NaN, "was": ', 1))
    assert any("NaN" in p for p in _problems(expect))


def test_check_rejects_failed_exit_code(simulated):
    assert _problems(simulated, exit_code=3) == ["exit code 3"]


def test_check_all_requires_every_check_to_pass(tmp_path):
    argv, expect = workloads.make_op("check-all", 5, str(tmp_path))
    code = cli.main(argv)
    assert workloads.check_op("check-all", code, expect) == (1, [])
    path = os.path.join(expect["out"], "report.jsonl")
    with open(path) as fh:
        reports = [json.loads(line) for line in fh]
    reports[3]["status"] = "fail"
    with open(path, "w") as fh:
        fh.write("".join(json.dumps(r) + "\n" for r in reports))
    assert workloads.check_op("check-all", code, expect)[1]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="known defect: at dt = T/100 the events drift 8e-9 T late per period, so past "
                   "about 125 T they leave the 1e-6 T window and dynamics.PROBE_WINDOW drops the last one")
def test_sweep_at_coarsest_step_passes_the_check(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_DIVISORS", (100,))
    argv, expect = workloads.make_op("sweep-coarse", 1, str(tmp_path))
    code = cli.main(argv)
    assert workloads.check_op("sweep-coarse", code, expect) == (1, [])


def test_seed_makes_the_inputs(tmp_path):
    assert workloads.sample_params(7) == workloads.sample_params(7)
    assert workloads.sample_params(7) != workloads.sample_params(8)
    argv, _ = workloads.make_op("check-all", 7, str(tmp_path))
    assert argv[argv.index("--seed") + 1] == "7"


def test_benchmark_json_lists_the_layer_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == list(LAYER_METRICS)
    assert {(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]} == {
        (name, unit, better) for name, (unit, better, *_rest) in LAYER_METRICS.items()
    }
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == list(workloads.WORKLOADS.values())
    checks = [name.split(".")[2] for name in LAYER_METRICS if name.startswith("verification.check.")]
    assert checks == registry_names() and len(checks) == workloads.N_CHECKS


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_counts_repeat_across_runs_and_seeds(workload):
    first = run.run(workload, 11, 0.1, 1)[0]["metrics"]
    again = run.run(workload, 11, 0.1, 1)[0]["metrics"]
    other = run.run(workload, 12, 0.1, 1)[0]["metrics"]
    for name in COUNTS + BYTES:
        assert first[name] == again[name], name
    for name in COUNTS:
        assert first[name] == other[name], name
    assert first["dynamics.integrate.calls"]["value"] > 0
    if workload == "check-all":
        assert first["dynamics.integrate.calls"]["value"] == 7
