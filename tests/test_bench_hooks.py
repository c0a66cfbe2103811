"""The benchmark drives the program through its CLI and patches program
names by attribute; keep both working.

`bench/spans.py` wraps ``cli.integrate``, ``Trajectory.as_arrays`` and the
other public functions at the place the program looks them up, and its
counters read their arguments and results (``traj.samples``, a writer's
path, ``el_residual``'s trajectory). A change in ``src/`` that removes or
renames one of those names, or reorders those arguments, breaks every traced
benchmark run, and these tests catch it in the tier-1 suite. So does one op
of each workload of `bench/workloads.py`, judged by the benchmark's own
output check, and that op's traced peak by its memory budget.
"""

import importlib.util
import json
import shutil
import tracemalloc
from pathlib import Path

import pytest

from inertonsim import cli, dynamics

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads")


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_one_op_of_each_workload_passes_the_benchmark_check(workload, tmp_path):
    argv, expect = WORKLOADS.make_op(workload, 1, str(tmp_path))
    attempted, problems = WORKLOADS.check_op(workload, cli.main(argv), expect)
    assert attempted > 0 and problems == []


@pytest.mark.parametrize(
    "workload, reading",
    [("simulate-long", 3_007_290), ("sweep-coarse", 1_657_447), ("check-all", 1_082_913)],
    ids=["simulate-long", "sweep-coarse", "check-all"],
)
def test_one_op_of_each_workload_stays_within_its_memory_budget(workload, reading, tmp_path):
    # The op at seed 1, traced after one untraced op, as tools/out_diff.py
    # reads it: its peak is at most the reading when the budget was set plus
    # 32 KiB, far above the few hundred bytes that interpreter objects move
    # between runs and far below one numpy buffer of 8,192 elements (64-128
    # KB) or a block-sized temporary.
    argv, expect = WORKLOADS.make_op(workload, 1, str(tmp_path))
    assert cli.main(argv) == 0
    shutil.rmtree(expect["out"])
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= reading + 32 * 1024


def test_tracer_install_and_uninstall_restore_the_program():
    integrate, as_arrays = cli.integrate, dynamics.Trajectory.as_arrays
    tracer = _load("spans").Tracer()
    tracer.install()
    try:
        assert cli.integrate is not integrate
        assert dynamics.Trajectory.as_arrays is not as_arrays
    finally:
        tracer.uninstall()
    assert cli.integrate is integrate
    assert dynamics.Trajectory.as_arrays is as_arrays


def test_traced_commands_fill_the_layer_counters(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"simulation": {"t_end": 1.0}, "outputs": {"el_residuals": True}}))
    tracer = _load("spans").Tracer()
    tracer.install()
    try:
        simulate = cli.main(["simulate", "--preset", "natural", "--config", str(cfg), "--format", "svg",
                             "--out", str(tmp_path / "sim")])
        tracer.op = 1
        check = cli.main(["check", "--select", "oracle_agreement,el_residual_aggregate",
                          "--out", str(tmp_path / "check")])
    finally:
        tracer.uninstall()
    assert (simulate, check) == (0, 0)
    layers = tracer.op_layers()
    for op, metric in [
        (0, "dynamics.integrate.steps"),
        (0, "dynamics.write_trajectory_csv.bytes"),
        (0, "dynamics.as_arrays.calls"),
        (0, "plotting.svg.bytes"),
        (0, "lagrangian.el_residual.samples"),
        (1, "dynamics.integrate.steps"),
        (1, "lagrangian.el_residual.samples"),
    ]:
        assert layers[op].get(metric, 0) > 0, (op, metric)
