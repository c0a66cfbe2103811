"""Seeded workload inputs and the output check applied to every op.

A workload seed draws ``M0``, ``v0/c`` and ``T`` log-uniformly over the
ranges of ``verification._sample_params`` (``c = 1``). The program only
sees the generated config file and, for ``check``, ``--seed``. The motion
is dimensionless in units of ``T``, so step and event counts do not depend
on the seed.

The check reads the files an op wrote, never the program's own helpers, and
streams the trajectory CSV so that it adds little to the worker's peak RSS.
"""

from __future__ import annotations

import json
import math
import os
import random

# Why each workload exists; the same text is in BENCHMARK.json.
WORKLOADS = {
    "simulate-long": "one simulate --format svg over 100 T at dt=T/1000: step loop, sample storage, "
    "as_arrays, CSV and SVG writers dominate; events are sparse",
    "sweep-coarse": "sweep --axis dt from T/125 to T/250 over 200 T without trajectory files: "
    "dense events and a large oracle samples x events matrix; writers bypassed",
    "check-all": "check running all 14 registry checks: verification, EL residuals, action, "
    "spin and observables, with 7 short integrate calls and almost no file output",
}

SIMULATE_PERIODS = 100
SIMULATE_STEPS_PER_T = 1000
SWEEP_PERIODS = 200
# dt = T / divisor. T/100, the coarsest admissible step, is left out: over
# 200 T its events drift 1.6e-6 T late and the last one is lost
# (dynamics.PROBE_WINDOW), so every op would fail the check. test_bench.py
# keeps that case as an expected failure.
SWEEP_DIVISORS = (125, 160, 200, 250)
N_CHECKS = 14

# Scaled oracle error an op may report. Far looser than the integrator's
# accuracy at any admissible step, and far below the error of ~2 that a
# sample on the wrong side of a reflection produces.
ORACLE_BOUND = 1.0e-4
EVENT_TIME_TOL = 1.0e-6   # in units of T, as the program's own event checks


def sample_params(seed: int) -> dict:
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    v0 = log_uniform(0.01, 0.9)
    T = log_uniform(0.1, 10.0)
    M0 = log_uniform(0.1, 10.0)
    return {"M0": M0, "v0": v0, "c": 1.0, "T": T}


def make_op(workload: str, seed: int, work_dir: str) -> tuple[list[str], dict]:
    """Write the workload's config into ``work_dir``.

    Returns the ``cli.main`` argv of one op and what the check expects.
    """
    pars = sample_params(seed)
    T = pars["T"]
    out = os.path.join(work_dir, "out")
    cfg_path = os.path.join(work_dir, "config.json")
    cfg = {"units": "natural", "parameters": pars, "seed": seed}
    expect = {"params": pars, "out": out}
    if workload == "simulate-long":
        cfg["simulation"] = {"dt": T / SIMULATE_STEPS_PER_T, "t_end": SIMULATE_PERIODS * T}
        cfg["outputs"] = {"trajectory": True, "events": True, "el_residuals": False, "plots": False}
        argv = ["simulate", "--config", cfg_path, "--out", out, "--format", "svg"]
        expect["cases"] = [{"dir": out, "t_end": SIMULATE_PERIODS * T,
                            "n_steps": SIMULATE_PERIODS * SIMULATE_STEPS_PER_T, "csv": True}]
    elif workload == "sweep-coarse":
        values = [T / d for d in SWEEP_DIVISORS]
        cfg["simulation"] = {"t_end": SWEEP_PERIODS * T}
        cfg["outputs"] = {"trajectory": False, "events": True, "el_residuals": False, "plots": False}
        argv = ["sweep", "--config", cfg_path, "--out", out, "--axis", "dt",
                "--values", ",".join(repr(v) for v in values)]
        expect["cases"] = [{"dir": os.path.join(out, f"dt_{i}"), "t_end": SWEEP_PERIODS * T,
                            "n_steps": SWEEP_PERIODS * d, "csv": False}
                           for i, d in enumerate(SWEEP_DIVISORS)]
    elif workload == "check-all":
        argv = ["check", "--config", cfg_path, "--out", out, "--seed", str(seed)]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    os.makedirs(work_dir, exist_ok=True)
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    return argv, expect


# --- the check ---------------------------------------------------------------

class OutputError(Exception):
    """An op's output failed the check; the message says which file and why."""


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        raise OutputError(f"{path}: {exc}") from exc


def closed_form(t: float, n_before: int, pars: dict) -> tuple[float, float, float, float]:
    """Exact ``(X, dXdt, x, dxdt)`` at ``t`` after ``n_before`` reflections.

    Taking the branch from the located events, not from ``floor(t/T)``,
    keeps a sample that sits a localisation slack before its reflection on
    the side the run says it is on.
    """
    v0, c, T = pars["v0"], pars["c"], pars["T"]
    frac = t / T - n_before
    s, co = math.sin(math.pi * frac), math.cos(math.pi * frac)
    return (v0 * t + (v0 * T / math.pi) * (co - 1.0 - 2.0 * n_before),
            v0 * (1.0 - s), (c * T / math.pi) * s, c * co)


def _check_events(case: dict, pars: dict) -> list[float]:
    T = pars["T"]
    events = [ev["t"] for ev in _load_json(os.path.join(case["dir"], "events.json"))["events"]]
    expected = math.floor(case["t_end"] / T + 1e-9)
    if len(events) != expected:
        raise OutputError(f"{case['dir']}: {len(events)} events, expected {expected}")
    for n, t in enumerate(events, start=1):
        if abs(t / T - n) > EVENT_TIME_TOL:
            raise OutputError(f"{case['dir']}: event {n} at {t / T!r} T, off by more than {EVENT_TIME_TOL} T")
    return events


def _check_metadata(case: dict, n_events: int) -> None:
    derived = _load_json(os.path.join(case["dir"], "metadata.json")).get("derived", {})
    err = derived.get("max_oracle_error")
    if not isinstance(err, (int, float)) or not err < ORACLE_BOUND:
        raise OutputError(f"{case['dir']}: max_oracle_error {err!r} not below {ORACLE_BOUND}")
    if derived.get("n_samples") != case["n_steps"] + 1 or derived.get("n_events") != n_events:
        raise OutputError(f"{case['dir']}: metadata counts {derived.get('n_samples')} samples, "
                          f"{derived.get('n_events')} events")


def _check_csv(case: dict, events: list[float], pars: dict) -> None:
    path = os.path.join(case["dir"], "trajectory.csv")
    rows, last = -1, ""
    try:
        with open(path) as fh:
            for line in fh:
                rows += 1
                last = line
    except OSError as exc:
        raise OutputError(f"{path}: {exc}") from exc
    if rows != case["n_steps"] + 1:
        raise OutputError(f"{path}: {rows} rows, expected {case['n_steps'] + 1}")
    t, X, dXdt, x, dxdt = (float(v) for v in last.split(",")[:5])
    ref = closed_form(t, sum(1 for ev in events if ev <= t), pars)
    scales = (pars["v0"] * pars["T"], pars["v0"], pars["c"] * pars["T"], pars["c"])
    err = max(abs(a - b) / s for a, b, s in zip((X, dXdt, x, dxdt), ref, scales))
    if not err < ORACLE_BOUND:
        raise OutputError(f"{path}: final row off the closed form by {err!r}")
    for name in ("trajectory.svg", "phase.svg"):
        svg = os.path.join(case["dir"], name)
        if not os.path.isfile(svg) or os.path.getsize(svg) == 0:
            raise OutputError(f"{svg}: missing or empty")


def check_op(workload: str, exit_code: int, expect: dict) -> tuple[int, list[str]]:
    """Judge one op from the files it wrote.

    Returns ``(attempted, problems)``: one attempt per op, or one per case
    for a sweep, and one message per failed attempt.
    """
    if workload == "check-all":
        reports = []
        try:
            with open(os.path.join(expect["out"], "report.jsonl")) as fh:
                reports = [json.loads(line, parse_constant=_reject_constant) for line in fh if line.strip()]
        except (OSError, ValueError) as exc:
            return 1, [f"report.jsonl: {exc}"]
        passed = sum(1 for r in reports if r.get("status") == "pass")
        if exit_code != 0 or passed != N_CHECKS or len(reports) != N_CHECKS:
            return 1, [f"check: exit {exit_code}, {passed}/{len(reports)} pass, expected {N_CHECKS}/{N_CHECKS}"]
        return 1, []

    cases = expect["cases"]
    if exit_code not in (0, 2):
        return len(cases), [f"exit code {exit_code}"] * len(cases)
    problems = []
    for case in cases:
        try:
            events = _check_events(case, expect["params"])
            _check_metadata(case, len(events))
            if case["csv"]:
                _check_csv(case, events, expect["params"])
        except OutputError as exc:
            problems.append(str(exc))
        except (LookupError, TypeError, ValueError) as exc:
            problems.append(f"{case['dir']}: malformed output ({exc!r})")
    if exit_code != 0 and not problems:
        problems.append(f"exit code {exit_code} with every case passing the check")
    return len(cases), problems
