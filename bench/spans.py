"""Spans and counters recorded from outside the program, for the traced run.

`Tracer.install` replaces each public function at the place the program
looks it up: ``cli`` imported ``integrate``, ``oracle_errors``, the writers
and the plotters by name; ``verification`` calls ``dynamics.integrate``,
``dynamics.oracle_errors`` and ``lagrangian.el_residual`` as module
attributes; ``as_arrays`` is a ``Trajectory`` method. Each span records a
name, start, end and parent id, and belongs to one op. Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

# Per-layer metrics of the traced run: name -> (unit, better, the
# end-to-end metric it should move, on which workloads). BENCHMARK.json
# lists the same names; its per_layer entries may carry no more keys.
LAYER_METRICS = {
    "dynamics.integrate.s": ("s", "lower", "op_s.p50", "all three; largest share on simulate-long"),
    "dynamics.integrate.calls": ("count", "lower", "op_s.p50", "all three"),
    "dynamics.integrate.steps": ("count", "lower", "op_s.p50", "all three"),
    "dynamics.integrate.us_per_step": ("us", "lower", "op_s.p50", "all three; largest share on simulate-long"),
    "dynamics.events": ("count", "higher", "op_s.p50 (event location)", "sweep-coarse; ~0 on simulate-long"),
    "dynamics.events_per_kstep": ("1/kstep", "higher", "op_s.p50 (event location)", "sweep-coarse; ~0 on simulate-long"),
    "dynamics.oracle_errors.s": ("s", "lower", "op_s.p50", "sweep-coarse, simulate-long; small on check-all"),
    "dynamics.oracle_errors.pairs": ("count", "lower", "op_s.p50, peak_rss_mb", "sweep-coarse, simulate-long"),
    "dynamics.oracle_errors.computed_bytes": ("B", "lower", "peak_rss_mb", "sweep-coarse, simulate-long"),
    "dynamics.as_arrays.s": ("s", "lower", "op_s.p50", "simulate-long"),
    "dynamics.as_arrays.calls": ("count", "lower", "op_s.p50", "simulate-long"),
    "dynamics.write_trajectory_csv.s": ("s", "lower", "op_s.p50", "simulate-long; no change on sweep-coarse"),
    "dynamics.write_trajectory_csv.bytes": ("B", "lower", "op_s.p50", "simulate-long; no change on sweep-coarse"),
    "dynamics.write_events_json.s": ("s", "lower", "op_s.p50", "simulate-long; no change on sweep-coarse"),
    "plotting.svg.s": ("s", "lower", "op_s.p50", "simulate-long only"),
    "plotting.svg.bytes": ("B", "lower", "op_s.p50", "simulate-long only"),
    "lagrangian.el_residual.s": ("s", "lower", "op_s.p50", "check-all only"),
    "lagrangian.el_residual.samples": ("count", "lower", "op_s.p50", "check-all only"),
    "verification.run_checks.s": ("s", "lower", "op_s.p50", "check-all"),
    **{
        f"verification.check.{name}.s": ("s", "lower", "op_s.p50", "check-all")
        for name in (
            "oracle_agreement", "invariant_conservation", "periodicity", "convergence_order",
            "el_residual_aggregate", "transform_invariance", "action_triple_identity",
            "quantize_roundtrip", "hj_grid", "dirac_algebra", "dirac_spectrum",
            "channel_antisymmetry", "sigma_scaling", "resonator_ratio",
        )
    },
    "verification.checks_failed": ("count", "lower", "failed ops", "check-all"),
    "cli.resolve_config.s": ("s", "lower", "op_s.p50 (small)", "all three"),
    "cli.self.s": ("s", "lower", "op_s.p50 (small)", "all three"),
    "core.derive_kinematics.calls": ("count", "lower", "op_s.p50 (small)", "all three"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced op_s.p50", "all three"),
}

# Computed, not measured: oracle_errors holds two float64 samples x events
# temporaries at once (the time differences and their absolute values).
ORACLE_BYTES_PER_PAIR = 16


class Tracer:
    """Span recorder plus the per-op counters gathered at the same calls."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, count=None):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            span = {"id": sid, "op": self.op, "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(sid)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts[self.op], args, result)
            return result

        return traced

    def _counter(self, fn, name):
        def counted(*args, **kwargs):
            self.counts[self.op][name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, replacement):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        from inertonsim import cli, core, dynamics, lagrangian, verification

        def integrate_counts(c, args, traj):
            c["dynamics.integrate.steps"] += len(traj.samples) - 1
            c["dynamics.events"] += len(traj.events)

        def oracle_counts(c, args, result):
            traj = args[0]
            c["dynamics.oracle_errors.pairs"] += len(traj.samples) * len(traj.events)

        def bytes_of(metric):
            def count(c, args, result):
                if os.path.exists(args[1]):
                    c[metric] += os.path.getsize(args[1])
            return count

        def el_counts(c, args, result):
            c["lagrangian.el_residual.samples"] += len(args[1].samples)

        spans = [
            (cli, "main", "cli.self", None),
            (cli, "resolve_config", "cli.resolve_config", None),
            (cli, "run_checks", "verification.run_checks", None),
            (cli, "write_trajectory_csv", "dynamics.write_trajectory_csv",
             bytes_of("dynamics.write_trajectory_csv.bytes")),
            (cli, "write_events_json", "dynamics.write_events_json", None),
            (cli, "trajectory_svg", "plotting.svg", bytes_of("plotting.svg.bytes")),
            (cli, "phase_plane_svg", "plotting.svg", bytes_of("plotting.svg.bytes")),
            (dynamics.Trajectory, "as_arrays", "dynamics.as_arrays", None),
        ]
        for owner in (cli, dynamics):
            spans.append((owner, "integrate", "dynamics.integrate", integrate_counts))
            spans.append((owner, "oracle_errors", "dynamics.oracle_errors", oracle_counts))
        for owner in (cli, lagrangian):
            spans.append((owner, "el_residual", "lagrangian.el_residual", el_counts))
        for owner, attr, name, count in spans:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, count))
        for owner in (cli, core, verification):
            self._patch(owner, "derive_kinematics",
                        self._counter(owner.derive_kinematics, "core.derive_kinematics.calls"))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def op_layers(self) -> dict[int, dict[str, float]]:
        """Self time and call count per span name, plus the counters, per op."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            layer = per_op[span["op"]]
            layer[span["name"] + ".s"] += span["end"] - span["start"] - child_time[span["id"]]
            layer[span["name"] + ".calls"] += 1
        for op, counts in self.counts.items():
            per_op[op].update(counts)
        return {op: dict(layer) for op, layer in per_op.items()}

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
