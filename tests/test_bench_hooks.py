"""The benchmark tracer patches program names by attribute; keep them there.

`bench/spans.py` wraps ``cli.integrate``, ``Trajectory.as_arrays`` and the
other public functions at the place the program looks them up, and its
counters read their arguments and results (``traj.samples``, a writer's
path, ``el_residual``'s trajectory). A change in ``src/`` that removes or
renames one of those names, or reorders those arguments, breaks every traced
benchmark run, and these tests catch it in the tier-1 suite.
"""

import importlib.util
import json
from pathlib import Path

from inertonsim import cli, dynamics

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_uninstall_restore_the_program():
    integrate, as_arrays = cli.integrate, dynamics.Trajectory.as_arrays
    tracer = _load_spans().Tracer()
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
    tracer = _load_spans().Tracer()
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
