"""The benchmark tracer patches program names by attribute; keep them there.

`bench/spans.py` wraps ``cli.integrate``, ``Trajectory.as_arrays`` and the
other public functions at the place the program looks them up. A change in
``src/`` that removes or renames one of those names breaks every traced
benchmark run, and this test catches it in the tier-1 suite.
"""

import importlib.util
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
