"""Command-line front end.

Subcommands:

    simulate   integrate the coupled motion and write trajectory files
    derive     emit kinematic scales, quantized relations, and observables
    check      run the verification suite, exit nonzero on any failure
    sweep      repeat a simulation along one parameter axis

Configuration is a JSON file with four sections and two top-level values,
``units`` and ``seed`` (all except ``parameters`` optional):

    units        "natural" or "si", a declarative label
    parameters   M0, v0, c, and exactly one of T or h
    simulation   dt, t_end
    outputs      trajectory, events, el_residuals (true or false)
    observables  resonator_radius
    seed         integer, overridden by ``check --seed``

Every command takes --config, --preset, --out and --format; ``simulate``
and ``sweep`` write csv or svg, ``derive`` and ``check`` csv or json (the
first is the default). ``check`` adds --seed and --select, ``sweep`` adds
--axis and --values. A flag or value a command does not take is a usage
error that names the flag.

A preset is its units and parameters, with every other section at its
defaults; a --config file is merged over the resolved preset and CLI flags
win over both. Every run writes a metadata.json whose top level is itself a
valid config (unknown keys are ignored on load), so re-running with
``--config <out>/metadata.json`` reproduces the run exactly, bitwise
identical CSV included.

Every command computes and renders all of its files before it writes them
through one helper, so an exit 1 (validation) or 2 (runtime failure) leaves
--out untouched. A failed check or sweep row is a result, not an aborted run:
``check`` and ``sweep`` still write their reports and exit 2. ``sweep``
resolves every case before it runs any, and a sweep none of whose values
gives a valid config exits 1 and writes nothing.

Exit codes: 0 success, 1 validation or usage error, 2 runtime or check
failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .action import OscillatorSpec, cyclic_action, quantize
from .constants import ELECTRON_MASS, LIGHT_SPEED, PLANCK
from .core import _beta2, _moving_mass, _square, derive_kinematics
from .dynamics import (
    EVENT_X_TOL,
    PROBE_WINDOW,
    integrate,
    oracle_errors,
    step_count,
    write_events_json,
    write_trajectory_csv,
)
from .lagrangian import el_residual, write_el_csv
from .observables import cross_section_bounds, resonator_dimensions
from .plotting import phase_plane_svg, trajectory_svg
from .verification import registry_names, reports_to_json_lines, run_checks

EARTH_RADIUS = 6.371e6


class ConfigError(ValueError):
    """Invalid or inconsistent configuration; message names the bad key."""


# Each preset is its units and parameters; every other section takes the
# defaults that resolve_config fills in.
_PRESETS = {
    "natural": {"units": "natural", "parameters": {"M0": 1.0, "v0": 1.0, "c": 10.0, "T": 1.0}},
    "electron-1e6": {
        "units": "si",
        "parameters": {"M0": ELECTRON_MASS, "v0": 1.0e6, "c": LIGHT_SPEED, "h": PLANCK},
    },
    "electron-atomic": {
        "units": "si",
        "parameters": {"M0": ELECTRON_MASS, "v0": LIGHT_SPEED / 100.0, "c": LIGHT_SPEED, "h": PLANCK},
    },
}


def builtin_presets():
    """Each preset as a complete config, with its defaults made explicit."""
    return {name: resolve_config(cfg)[2] for name, cfg in _PRESETS.items()}


# The keys of each config section, in the order metadata.json lists them.
_KEYS = {
    "parameters": ("M0", "v0", "c", "T", "h"),
    "simulation": ("dt", "t_end"),
    "outputs": ("trajectory", "events", "el_residuals"),
    "observables": ("resonator_radius",),
}


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad syntax, bytes that are not UTF-8, deep nesting
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return raw


def merge_config(base, override):
    """Shallow two-level merge: sections replace key by key."""
    out = {k: (dict(v) if isinstance(v, dict) else v) for k, v in base.items()}
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key].update(val)
        else:
            out[key] = val
    return out


def _section(cfg, name):
    """A config section as a fresh dict (empty when absent), with any key
    not in `_KEYS` refused. A true or false ``outputs.plots``, which older
    configs send, is dropped: ``--format svg`` writes the plots."""
    sec = cfg.get(name)
    if sec is None:
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"{name}: must be an object, got {sec!r}")
    sec = dict(sec)
    if name == "outputs" and isinstance(sec.get("plots"), bool):
        del sec["plots"]
    for key in sec:
        if key not in _KEYS[name]:
            raise ConfigError(f"{name}.{key}: unknown key")
    return sec


def _number(key, val, integer=False):
    """One config value, a JSON number (an int or a float, not a bool or a
    string), as a finite float, or as an int when ``integer``; failures
    raise a ConfigError that names ``key``."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{key}: must be a number, got {val!r}")
    try:
        num = float(val)
    except OverflowError:
        num = math.inf
    if not math.isfinite(num):
        raise ConfigError(f"{key}: must be a finite number, got {num}")
    if not integer:
        return num
    if not num.is_integer():
        raise ConfigError(f"{key}: must be an integer, got {val!r}")
    return val if isinstance(val, int) else int(num)


def resolve_config(cfg):
    """Validate a merged config and compute the resolved parameter set.

    Returns (params, kin, resolved) where resolved is the config dict with
    its defaults made explicit. The parameters stay as given (T or h), so a
    replay resolves the period by the same arithmetic.  Unknown top-level
    keys are ignored so a metadata.json can be fed straight back in; unknown
    keys inside the known sections are rejected to catch typos.
    """
    units = cfg.get("units", "natural")
    if units not in ("natural", "si"):
        raise ConfigError("units: must be 'natural' or 'si'")

    outs = _section(cfg, "outputs")
    for key in _KEYS["outputs"]:
        outs.setdefault(key, key in ("trajectory", "events"))
        if not isinstance(outs[key], bool):
            raise ConfigError(f"outputs.{key}: must be true or false, got {outs[key]!r}")

    obs = _section(cfg, "observables")
    radius = _number("observables.resonator_radius", obs.get("resonator_radius", EARTH_RADIUS))
    if radius <= 0.0:
        raise ConfigError(f"observables.resonator_radius: must be positive, got {radius}")
    obs["resonator_radius"] = radius

    seed = _number("seed", cfg.get("seed", 0), integer=True)
    if seed < 0:
        raise ConfigError(f"seed: must be non-negative, got {seed}")

    pars = _section(cfg, "parameters")
    for key in ("M0", "v0", "c"):
        if key not in pars:
            raise ConfigError(f"parameters.{key}: required")
    has_T, has_h = "T" in pars, "h" in pars
    if has_T == has_h:
        raise ConfigError("parameters: supply exactly one of T or h")
    values = {key: _number(f"parameters.{key}", val) for key, val in pars.items()}
    M0, v0, c = values["M0"], values["v0"], values["c"]
    if has_T:
        T = values["T"]
    else:
        for key in ("M0", "h"):
            if not values[key] > 0.0:
                raise ConfigError(f"parameters.{key}: must be positive, got {values[key]}")
        if not 0.0 < v0 < c:
            raise ConfigError("parameters.v0: must satisfy 0 < v0 < c")
        try:
            T = quantize(_moving_mass(M0, _beta2(v0, c)), v0, c, values["h"]).T
        except ValueError as exc:
            raise ConfigError(f"parameters.h: {exc}") from None
        if not 0.0 < T < math.inf:
            raise ConfigError(f"parameters.h: the period h / (M v0^2) must be positive and finite, got T={T}")
    try:
        params, kin = derive_kinematics(M0, v0, c, T)
    except ValueError as exc:
        raise ConfigError(f"parameters: {exc}") from exc

    sim = _section(cfg, "simulation")
    sim.setdefault("dt", params.T / 1000.0)
    sim.setdefault("t_end", 10.0 * params.T)
    sim["dt"] = dt = _number("simulation.dt", sim["dt"])
    sim["t_end"] = t_end = _number("simulation.t_end", sim["t_end"])
    if not t_end > 0.0:
        raise ConfigError(f"simulation.t_end: must be positive, got {t_end}")
    try:
        step_count(params.T, t_end, dt)
    except ValueError as exc:
        raise ConfigError(f"simulation.dt: {exc}") from None

    resolved = {
        "units": units,
        "parameters": {key: values[key] for key in _KEYS["parameters"] if key in values},
        "simulation": sim,
        "outputs": outs,
        "observables": obs,
        "seed": seed,
    }
    return params, kin, resolved


def _gather_config(ns):
    """The preset (``natural`` when neither --preset nor --config is given)
    with the --config file merged over it."""
    cfg = {}
    if ns.preset or not ns.config:
        cfg = resolve_config(_PRESETS[ns.preset or "natural"])[2]
    if ns.config:
        cfg = merge_config(cfg, load_config(ns.config))
    return cfg


def _json(name, obj):
    """``obj`` as indented JSON text; a NaN or infinity raises a ValueError
    that names the file ``name`` and the value's path in ``obj``."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValueError(f"{name}: {_non_finite(obj) or exc}") from None


def _non_finite(obj, path=""):
    """``"<path> is <value>"`` for the first NaN or infinity in ``obj``."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else f"{path} is {obj}"
    if isinstance(obj, (list, tuple)):
        obj = dict(enumerate(obj))
    if isinstance(obj, dict):
        for key, val in obj.items():
            found = _non_finite(val, f"{path}.{key}" if path else str(key))
            if found:
                return found
    return None


def _csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write_files(out_dir, files):
    """Create ``out_dir`` and write the ``(name, content)`` pairs in order;
    ``content`` is the file's text or a function that writes the path it is
    given. Returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, content in files:
        path = os.path.join(out_dir, name)
        if callable(content):
            content(path)
        else:
            with open(path, "w", newline="") as fh:
                fh.write(content)
        paths.append(path)
    return paths


def _metadata(config, command, extra=None):
    """The document of ``metadata.json``: the tool, the command, the
    config's own top-level keys (those of a resolved config, in the order of
    ``config``) and ``extra`` as ``derived``."""
    meta = {"tool": "inertonsim", "version": __version__, "command": command}
    meta.update((key, val) for key, val in config.items() if key in ("units", *_KEYS, "seed"))
    if extra:
        meta["derived"] = extra
    return meta


def _run_simulation(params, resolved, out_dir, fmt):
    """Run one simulation and write its files into ``out_dir``; returns
    ``derived`` (the ``derived`` block of its metadata.json) and the written
    paths."""
    # compute and render every file before the first write: a ValueError or RuntimeError leaves out_dir untouched
    sim = resolved["simulation"]
    outs = resolved["outputs"]
    traj = integrate(params, t_end=sim["t_end"], dt=sim["dt"])
    errs = oracle_errors(traj)
    files = []
    if outs["trajectory"]:
        files.append(("trajectory.csv", lambda path: write_trajectory_csv(traj, path)))
    if fmt == "svg":
        files.append(("trajectory.svg", lambda path: trajectory_svg(traj, path)))
        files.append(("phase.svg", lambda path: phase_plane_svg(traj, path)))
    if outs["events"]:
        files.append(("events.json", lambda path: write_events_json(traj, path)))
    if outs["el_residuals"]:
        try:
            for coord in ("particle", "cloud"):
                report = el_residual(params, traj, coord)
                bad = ~np.isfinite(report.residuals)
                if bad.any():
                    raise ValueError(f"{coord} residual is not finite at t={report.times[bad][0]:.6g}")
                files.append((f"el_{coord}.csv", functools.partial(write_el_csv, report)))
        except ValueError as exc:
            raise ConfigError(f"outputs.el_residuals: {exc}") from None

    derived = {
        "system": params.to_dict(),
        "n_samples": len(traj),
        "n_events": len(traj.events),
        "max_oracle_error": errs["max"],
        "max_invariant_residual": traj.max_abs_residual,
        "integrator": {
            "dt": sim["dt"],
            "t_end": sim["t_end"],
            "n_steps": len(traj) - 1,
            "event_x_tolerance": EVENT_X_TOL * params.Lam,
            "probe_window": PROBE_WINDOW * params.T,
        },
    }
    files.append(("metadata.json", _json("metadata.json", _metadata(resolved, "simulate", derived))))
    return derived, _write_files(out_dir, files)


def cmd_simulate(ns):
    params, _, resolved = resolve_config(_gather_config(ns))
    derived, written = _run_simulation(params, resolved, ns.out, ns.format)
    print(f"simulate: {derived['n_samples']} samples, {derived['n_events']} events, "
          f"max oracle error {derived['max_oracle_error']:.3e}, "
          f"max invariant residual {derived['max_invariant_residual']:.3e}")
    for path in written:
        print(f"  wrote {path}")
    return 0


def cmd_derive(ns):
    params, kin, resolved = resolve_config(_gather_config(ns))
    h_val = resolved["parameters"].get("h")
    if h_val is None:
        # no h supplied: the cyclic action increment over one period plays
        # that role, so the quantized block is exactly self-consistent
        h_val = params.M * _square(params.v0, "v0") * params.T
        if h_val == 0.0:
            raise ValueError(f"the cyclic action M v0^2 T underflows a float (M = {params.M:.6g}, "
                             f"v0 = {params.v0:.6g}, T = {params.T:.6g})")
    quant = quantize(params.M, params.v0, params.c, h_val)
    bounds = cross_section_bounds(params)
    geo = resonator_dimensions(resolved["observables"]["resonator_radius"])
    payload = {
        "system": params.to_dict(),
        "kinematics": kin.to_dict(),
        "quantized": quant.to_dict(),
        "cross_section": {
            "lower_m2": bounds.lower,
            "upper_m2": bounds.upper,
            "lower_cm2": bounds.to_cm2()[0],
            "upper_cm2": bounds.to_cm2()[1],
        },
        "resonator": {
            "radius_m": resolved["observables"]["resonator_radius"],
            "L1": geo.L1,
            "L2": geo.L2,
            "ratio": geo.ratio,
        },
    }
    files = [
        ("derived.json", _json("derived.json", payload)),
        ("metadata.json", _json("metadata.json", _metadata(resolved, "derive"))),
    ]
    if ns.format == "csv":
        rows = [[group, name, f"{value:.17g}"] for group, block in payload.items() for name, value in block.items()]
        files.append(("derived.csv", _csv(["group", "name", "value"], rows)))
    jpath = _write_files(ns.out, files)[0]
    print(
        f"derive: lambda={quant.lambda_dB:.6e}  Lambda={quant.Lambda:.6e}  "
        f"T={quant.T:.6e}  nu={quant.nu:.6e}"
    )
    print(f"  wrote {jpath}")
    return 0


def cmd_check(ns):
    cfg = _gather_config(ns)
    if ns.seed is not None:
        cfg = merge_config(cfg, {"seed": ns.seed})
    params, _, resolved = resolve_config(cfg)
    selection = None
    if ns.select is not None:
        selection = [name.strip() for chunk in ns.select for name in chunk.split(",") if name.strip()]
        if not selection:
            raise ConfigError("--select: no check names given; omit --select to run all checks")
    reports = run_checks(selection=selection, params=params, seed=resolved["seed"])
    files = [("report.jsonl", reports_to_json_lines(reports))]
    if ns.format == "csv":
        header = ["name", "status", "measured", "tolerance", "runtime_s", "cases", "non_finite"]
        rows = [
            [rep.name, rep.status, f"{rep.measured:.17g}", f"{rep.tolerance:.17g}", f"{rep.runtime_s:.3f}",
             rep.cases, rep.non_finite]
            for rep in reports
        ]
        files.append(("report.csv", _csv(header, rows)))
    meta = _metadata(resolved, "check", {"selection": selection or list(registry_names())})
    files.append(("metadata.json", _json("metadata.json", meta)))
    rpath = _write_files(ns.out, files)[0]
    for rep in reports:
        why = ""  # why a check failed when its measured value alone does not say
        if rep.non_finite:
            why = f"  non_finite={rep.non_finite}/{rep.cases}"
        elif rep.cases == 0:
            why = "  cases=0"
        print(f"{rep.status:4s}  {rep.name:24s}  measured={rep.measured:.3e}  tol={rep.tolerance:.3e}{why}")
    n_fail = sum(1 for rep in reports if not rep.passed)
    print(f"check: {len(reports) - n_fail}/{len(reports)} passed; report in {rpath}")
    return 0 if n_fail == 0 else 2


_SWEEP_METRICS = ("max_oracle_error", "max_invariant_residual", "cyclic_action", "lambda")
_SWEEP_AXES = _KEYS["parameters"] + _KEYS["simulation"]


def cmd_sweep(ns):
    cfg = _gather_config(ns)
    axis = ns.axis
    try:
        values = [float(v) for v in ns.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--values: {exc}") from exc
    if not values:
        raise ConfigError("--values: at least one value required")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"--values: must be finite numbers, got {ns.values}")

    section = "simulation" if axis in _KEYS["simulation"] else "parameters"
    base = _section(cfg, section)
    base.pop({"T": "h", "h": "T"}.get(axis), None)
    # every case is resolved before any runs: when none resolves the sweep
    # is a config error; otherwise a case that does not is a failed row
    cases = []
    for value in values:
        try:
            cases.append(resolve_config({**cfg, section: {**base, axis: value}}))
        except ValueError as exc:
            cases.append(exc)
    if all(isinstance(case, ValueError) for case in cases):
        raise cases[0]
    _json("metadata.json", _metadata(cfg, "sweep"))  # the keys it will write, refused before any run
    rows = []
    n_failed = 0
    # one action per parameter set of this sweep, and none kept past it
    action_of = functools.cache(lambda M, v0, T: cyclic_action(OscillatorSpec.from_motion(M, v0, T)))
    for i, (value, case) in enumerate(zip(values, cases)):
        sub = os.path.join(ns.out, f"{axis}_{i}")
        try:
            if isinstance(case, ValueError):
                raise case
            params, _, resolved = case
            action = action_of(params.M, params.v0, params.T)
            if action == math.inf:
                raise ValueError(f"the cyclic action M v0^2 T overflows a float (M = {params.M:.6g}, "
                                 f"v0 = {params.v0:.6g}, T = {params.T:.6g})")
            derived, _ = _run_simulation(params, resolved, sub, ns.format)
            row = {
                "max_oracle_error": derived["max_oracle_error"],
                "max_invariant_residual": derived["max_invariant_residual"],
                "cyclic_action": action,
                "lambda": params.lam,
            }
            print(f"sweep {axis}={value:g}: ok (max oracle error {row['max_oracle_error']:.3e})")
        except (ValueError, RuntimeError) as exc:
            n_failed += 1
            row = {name: math.nan for name in _SWEEP_METRICS}
            print(f"sweep {axis}={value:g}: FAILED ({exc})", file=sys.stderr)
        rows.append([f"{value:.17g}", *(f"{row[m]:.17g}" for m in _SWEEP_METRICS)])

    meta = _metadata(cfg, "sweep", {"axis": axis, "values": values, "failed": n_failed})
    files = [("summary.csv", _csv([axis, *_SWEEP_METRICS], rows)), ("metadata.json", _json("metadata.json", meta))]
    spath = _write_files(ns.out, files)[0]
    print(f"sweep: {len(values) - n_failed}/{len(values)} runs ok; summary in {spath}")
    return 0 if n_failed == 0 else 2


# Each command: its handler, its help line and the --format values it
# accepts, the first being the default.
_COMMANDS = {
    "simulate": (cmd_simulate, "integrate the motion and write trajectory files", ("csv", "svg")),
    "derive": (cmd_derive, "emit derived kinematics, quantized scales, observables", ("csv", "json")),
    "check": (cmd_check, "run the verification suite", ("csv", "json")),
    "sweep": (cmd_sweep, "run a simulation per value along one axis", ("csv", "svg")),
}


@functools.cache
def build_parser():
    """The argument parser of every command, built on first use and shared
    by every `main` call."""
    parser = argparse.ArgumentParser(
        prog="inertonsim",
        description="deterministic particle / inerton-cloud simulator and verifier",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (_, help_text, formats) in _COMMANDS.items():
        sp = commands[name] = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="JSON config file (merged over the preset)")
        sp.add_argument(
            "--preset", choices=tuple(_PRESETS), help="built-in config (default: natural without --config)"
        )
        sp.add_argument("--out", default=".", help="output directory (default: current)")
        sp.add_argument("--format", choices=formats, default=formats[0], help="output format (default: %(default)s)")
    commands["check"].add_argument("--seed", type=int, help="RNG seed of the sampled checks (overrides the config's)")
    commands["check"].add_argument(
        "--select",
        action="append",
        metavar="NAMES",
        help="comma-separated check names (repeatable); default: all",
    )
    commands["sweep"].add_argument("--axis", required=True, choices=_SWEEP_AXES, help="parameter to vary")
    commands["sweep"].add_argument("--values", required=True, help="comma-separated numeric values")
    return parser


def main(argv=None):
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help or --version
        return 1 if exc.code else 0
    try:
        return _COMMANDS[ns.command][0](ns)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        path = getattr(exc, "filename", None)
        where = f" ({path})" if path else ""
        print(f"i/o error: {exc}{where}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
