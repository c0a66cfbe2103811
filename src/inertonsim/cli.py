"""Command-line front end.

Subcommands:

    simulate   integrate the coupled motion and write trajectory files
    derive     emit kinematic scales, quantized relations, and observables
    check      run the verification suite, exit nonzero on any failure
    sweep      repeat a simulation along one parameter axis

Configuration is a JSON file with four sections (all except ``parameters``
optional):

    units        "natural" or "si", a declarative label
    parameters   M0, v0, c, and exactly one of T or h (optional m0)
    simulation   dt, t_end
    outputs      trajectory, events, el_residuals (true or false)
    observables  resonator_radius
    seed         integer, overridden by --seed

A preset supplies a complete base config; a --config file is merged over the
preset and CLI flags win over both.  Every run writes a metadata.json whose
top level is itself a valid config (unknown keys are ignored on load), so
re-running with ``--config <out>/metadata.json`` reproduces the run exactly,
bitwise identical CSV included.

Exit codes: 0 success, 1 validation error, 2 runtime or check failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .action import OscillatorSpec, cyclic_action, quantize
from .constants import ELECTRON_MASS, LIGHT_SPEED, PLANCK
from .core import derive_kinematics
from .dynamics import (
    integrate,
    oracle_errors,
    step_count,
    write_events_json,
    write_trajectory_csv,
)
from .lagrangian import el_residual, eval_lagrangian_aggregate_shifted, write_el_csv
from .observables import cross_section_bounds, resonator_dimensions
from .plotting import phase_plane_svg, trajectory_svg
from .verification import registry_names, reports_to_json_lines, run_checks

EARTH_RADIUS = 6.371e6


class ConfigError(ValueError):
    """Invalid or inconsistent configuration; message names the bad key."""


def _electron_preset(v0):
    m_rel = ELECTRON_MASS / math.sqrt(1.0 - (v0 / LIGHT_SPEED) ** 2)
    period = PLANCK / (m_rel * v0 * v0)
    return {
        "units": "si",
        "parameters": {"M0": ELECTRON_MASS, "v0": v0, "c": LIGHT_SPEED, "h": PLANCK},
        "simulation": {"dt": period / 1000.0, "t_end": 10.0 * period},
        "outputs": {"trajectory": True, "events": True, "el_residuals": False},
        "observables": {"resonator_radius": EARTH_RADIUS},
        "seed": 0,
    }


def builtin_presets():
    return {
        "natural": {
            "units": "natural",
            "parameters": {"M0": 1.0, "v0": 1.0, "c": 10.0, "T": 1.0},
            "simulation": {"dt": 1.0e-3, "t_end": 10.0},
            "outputs": {"trajectory": True, "events": True, "el_residuals": False},
            "observables": {"resonator_radius": EARTH_RADIUS},
            "seed": 0,
        },
        "electron-1e6": _electron_preset(1.0e6),
        "electron-atomic": _electron_preset(LIGHT_SPEED / 100.0),
    }


_PARAM_KEYS = {"M0", "v0", "c", "T", "h", "m0"}
_SIM_KEYS = {"dt", "t_end"}
_OUT_KEYS = {"trajectory", "events", "el_residuals"}
# Keys of removed features, still present in older metadata.json files:
# key -> (accepts, reason). A value that `accepts` selects what the program
# does anyway and is dropped; any other value is a ConfigError.
_RETIRED = {
    "simulation": {
        "mode": (lambda v: v == "aggregate", 'ensemble mode was removed; only "aggregate" is accepted'),
        "n_inertons": (
            lambda v: v == 1 and not isinstance(v, bool),
            "ensemble mode was removed; only 1 is accepted",
        ),
    },
    "outputs": {
        "plots": (
            lambda v: isinstance(v, bool),
            "was removed (--format svg writes the plots); only true or false is accepted",
        ),
    },
}


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
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
    """A config section as a fresh dict (empty when absent), with its
    `_RETIRED` keys checked and dropped."""
    sec = cfg.get(name)
    if sec is None:
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"{name}: must be an object, got {sec!r}")
    sec = dict(sec)
    for key, (unchanged, why) in _RETIRED.get(name, {}).items():
        if key in sec and not unchanged(sec[key]):
            raise ConfigError(f"{name}.{key}: {why}, got {sec[key]!r}")
        sec.pop(key, None)
    return sec


def _number(key, val, integer=False):
    """Coerce one config value to a finite float, or to an int when
    ``integer``; failures raise a ConfigError that names ``key``."""
    if isinstance(val, bool):
        raise ConfigError(f"{key}: must be a number, got {val!r}")
    try:
        num = float(val)
    except OverflowError:
        num = math.inf
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: must be a number, got {val!r}") from None
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
    the collision period made explicit.  Unknown top-level keys are ignored
    so a metadata.json can be fed straight back in; unknown keys inside the
    known sections are rejected to catch typos.
    """
    units = cfg.get("units", "natural")
    if units not in ("natural", "si"):
        raise ConfigError("units: must be 'natural' or 'si'")

    pars = cfg.get("parameters")
    if not isinstance(pars, dict):
        raise ConfigError("parameters: section is required")
    for key in pars:
        if key not in _PARAM_KEYS:
            raise ConfigError(f"parameters.{key}: unknown key")
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
        h_in = None
    else:
        h_in = values["h"]
        if h_in <= 0.0:
            raise ConfigError("parameters.h: must be positive")
        if not 0.0 < v0 < c:
            raise ConfigError("parameters.v0: must satisfy 0 < v0 < c")
        m_rel = M0 / math.sqrt(1.0 - (v0 / c) ** 2)
        T = quantize(m_rel, v0, c, h_in).T
    m0 = values.get("m0")
    try:
        params, kin = derive_kinematics(M0, v0, c, T, m0=m0)
    except ValueError as exc:
        raise ConfigError(f"parameters: {exc}") from exc

    sim = _section(cfg, "simulation")
    for key in sim:
        if key not in _SIM_KEYS:
            raise ConfigError(f"simulation.{key}: unknown key")
    sim.setdefault("dt", params.T / 1000.0)
    sim.setdefault("t_end", 10.0 * params.T)
    sim["dt"] = dt = _number("simulation.dt", sim["dt"])
    sim["t_end"] = t_end = _number("simulation.t_end", sim["t_end"])
    try:
        step_count(params.T, t_end, dt)
    except ValueError as exc:
        raise ConfigError(f"simulation.dt: {exc}") from None

    outs = _section(cfg, "outputs")
    for key in outs:
        if key not in _OUT_KEYS:
            raise ConfigError(f"outputs.{key}: unknown key")
    for key in _OUT_KEYS:
        outs.setdefault(key, key in ("trajectory", "events"))
        if not isinstance(outs[key], bool):
            raise ConfigError(f"outputs.{key}: must be true or false, got {outs[key]!r}")

    obs = _section(cfg, "observables")
    for key in obs:
        if key != "resonator_radius":
            raise ConfigError(f"observables.{key}: unknown key")
    radius = _number("observables.resonator_radius", obs.get("resonator_radius", EARTH_RADIUS))
    if radius <= 0.0:
        raise ConfigError(f"observables.resonator_radius: must be positive, got {radius}")
    obs["resonator_radius"] = radius

    seed = _number("seed", cfg.get("seed", 0), integer=True)
    if seed < 0:
        raise ConfigError(f"seed: must be non-negative, got {seed}")

    resolved = {
        "units": units,
        "parameters": {"M0": M0, "v0": v0, "c": c, "T": params.T},
        "simulation": sim,
        "outputs": outs,
        "observables": obs,
        "seed": seed,
    }
    if m0 is not None:
        resolved["parameters"]["m0"] = m0
    if h_in is not None:
        resolved["input_h"] = h_in
    return params, kin, resolved


def _gather_config(ns):
    presets = builtin_presets()
    name = ns.preset or ("natural" if not ns.config else None)
    cfg = {}
    if name is not None:
        if name not in presets:
            raise ConfigError(
                f"--preset {name}: unknown (choose from {', '.join(sorted(presets))})"
            )
        cfg = presets[name]
    if ns.config:
        cfg = merge_config(cfg, load_config(ns.config))
    if ns.seed is not None:
        cfg = merge_config(cfg, {"seed": ns.seed})
    return cfg


def _write_json(path, obj):
    # serialise first: a NaN or infinity raises ValueError before the file opens
    text = json.dumps(obj, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _metadata(resolved, command, extra=None):
    meta = {"tool": "inertonsim", "version": __version__, "command": command}
    meta.update(resolved)
    if extra:
        meta["derived"] = extra
    return meta


_NO_TRAJECTORY_JSON = (
    "--format json: trajectory.json was removed; trajectory.csv holds the same columns at full precision"
)


def _run_simulation(params, resolved, out_dir, fmt, quiet=False):
    # compute everything before the first write: a ValueError or RuntimeError leaves out_dir untouched
    sim = resolved["simulation"]
    outs = resolved["outputs"]
    traj = integrate(params, t_end=sim["t_end"], dt=sim["dt"])
    errs = oracle_errors(traj)
    reports = []
    if outs["el_residuals"]:
        def lag(state):
            return eval_lagrangian_aggregate_shifted(state, params)

        try:
            for coord, fname in (("particle", "el_particle.csv"), ("cloud", "el_cloud.csv")):
                reports.append((el_residual(lag, traj, coord), fname))
        except ValueError as exc:
            raise ConfigError(f"outputs.el_residuals: {exc}") from None

    os.makedirs(out_dir, exist_ok=True)
    written = []
    if outs["trajectory"]:
        csv_path = os.path.join(out_dir, "trajectory.csv")
        write_trajectory_csv(traj, csv_path)
        written.append(csv_path)
        if fmt == "svg":
            for fname, fn in (("trajectory.svg", trajectory_svg), ("phase.svg", phase_plane_svg)):
                spath = os.path.join(out_dir, fname)
                fn(traj, spath)
                written.append(spath)
    if outs["events"]:
        epath = os.path.join(out_dir, "events.json")
        write_events_json(traj, epath)
        written.append(epath)
    for report, fname in reports:
        rpath = os.path.join(out_dir, fname)
        write_el_csv(report, rpath)
        written.append(rpath)

    derived = {
        "system": params.to_dict(),
        "n_samples": len(traj.samples),
        "n_events": len(traj.events),
        "max_oracle_error": errs["max"],
        "max_invariant_residual": float(np.max(np.abs(traj.invariant_residuals))),
        "integrator": traj.metadata,
    }
    meta_path = os.path.join(out_dir, "metadata.json")
    _write_json(meta_path, _metadata(resolved, "simulate", derived))
    written.append(meta_path)
    if not quiet:
        print(
            f"simulate: {derived['n_samples']} samples, {derived['n_events']} events, "
            f"max oracle error {derived['max_oracle_error']:.3e}, "
            f"max invariant residual {derived['max_invariant_residual']:.3e}"
        )
        for path in written:
            print(f"  wrote {path}")
    return traj, derived


def cmd_simulate(ns):
    if ns.format == "json":
        raise ConfigError(_NO_TRAJECTORY_JSON)
    params, _, resolved = resolve_config(_gather_config(ns))
    _run_simulation(params, resolved, ns.out, ns.format)
    return 0


def cmd_derive(ns):
    if ns.format == "svg":
        raise ConfigError("--format svg: not available for derive")
    cfg = _gather_config(ns)
    params, kin, resolved = resolve_config(cfg)
    h_val = resolved.get("input_h")
    if h_val is None:
        # no h supplied: the cyclic action increment over one period plays
        # that role, so the quantized block is exactly self-consistent
        h_val = params.M * params.v0 ** 2 * params.T
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
    os.makedirs(ns.out, exist_ok=True)
    jpath = os.path.join(ns.out, "derived.json")
    _write_json(jpath, payload)
    _write_json(os.path.join(ns.out, "metadata.json"), _metadata(resolved, "derive"))
    if ns.format == "csv":
        cpath = os.path.join(ns.out, "derived.csv")
        with open(cpath, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["group", "name", "value"])
            for group, block in payload.items():
                for name, value in block.items():
                    writer.writerow([group, name, f"{value:.17g}"])
    print(
        f"derive: lambda={quant.lambda_dB:.6e}  Lambda={quant.Lambda:.6e}  "
        f"T={quant.T:.6e}  nu={quant.nu:.6e}"
    )
    print(f"  wrote {jpath}")
    return 0


def cmd_check(ns):
    if ns.format == "svg":
        raise ConfigError("--format svg: not available for check")
    cfg = _gather_config(ns)
    params, _, resolved = resolve_config(cfg)
    selection = None
    if ns.select is not None:
        selection = [name.strip() for chunk in ns.select for name in chunk.split(",") if name.strip()]
        if not selection:
            raise ConfigError("--select: no check names given; omit --select to run all checks")
    reports = run_checks(selection=selection, params=params, seed=resolved["seed"])
    os.makedirs(ns.out, exist_ok=True)
    rpath = os.path.join(ns.out, "report.jsonl")
    with open(rpath, "w") as fh:
        fh.write(reports_to_json_lines(reports))
    if ns.format == "csv":
        cpath = os.path.join(ns.out, "report.csv")
        with open(cpath, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "status", "measured", "tolerance", "runtime_s"])
            for rep in reports:
                writer.writerow(
                    [rep.name, rep.status, f"{rep.measured:.17g}", f"{rep.tolerance:.17g}", f"{rep.runtime_s:.3f}"]
                )
    _write_json(
        os.path.join(ns.out, "metadata.json"),
        _metadata(resolved, "check", {"selection": selection or list(registry_names())}),
    )
    for rep in reports:
        print(f"{rep.status:4s}  {rep.name:24s}  measured={rep.measured:.3e}  tol={rep.tolerance:.3e}")
    n_fail = sum(1 for rep in reports if not rep.passed)
    print(f"check: {len(reports) - n_fail}/{len(reports)} passed; report in {rpath}")
    return 0 if n_fail == 0 else 2


_SWEEP_METRICS = ("max_oracle_error", "max_invariant_residual", "cyclic_action", "lambda")


def cmd_sweep(ns):
    if ns.format == "json":
        raise ConfigError(_NO_TRAJECTORY_JSON)
    cfg = _gather_config(ns)
    axis = ns.axis
    if axis not in (_PARAM_KEYS | {"dt", "t_end"}) or axis == "m0":
        raise ConfigError(f"--axis {axis}: must be one of M0, v0, c, T, h, dt, t_end")
    try:
        values = [float(v) for v in ns.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--values: {exc}") from exc
    if not values:
        raise ConfigError("--values: at least one value required")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"--values: must be finite numbers, got {ns.values}")

    os.makedirs(ns.out, exist_ok=True)
    rows = []
    n_failed = 0
    for i, value in enumerate(values):
        case = merge_config(cfg, {})
        if axis in ("dt", "t_end"):
            case.setdefault("simulation", {})
            case = merge_config(case, {"simulation": {axis: value}})
        else:
            pars = dict(case.get("parameters") or {})
            pars[axis] = value
            if axis == "T":
                pars.pop("h", None)
            if axis == "h":
                pars.pop("T", None)
            case["parameters"] = pars
        sub = os.path.join(ns.out, f"{axis}_{i}")
        try:
            params, _, resolved = resolve_config(case)
            _, derived = _run_simulation(params, resolved, sub, ns.format, quiet=True)
            spec_osc = OscillatorSpec.from_params(params)
            row = {
                "max_oracle_error": derived["max_oracle_error"],
                "max_invariant_residual": derived["max_invariant_residual"],
                "cyclic_action": cyclic_action(spec_osc),
                "lambda": params.lam,
            }
            print(f"sweep {axis}={value:g}: ok (max oracle error {row['max_oracle_error']:.3e})")
        except (ValueError, RuntimeError) as exc:
            n_failed += 1
            row = {name: math.nan for name in _SWEEP_METRICS}
            print(f"sweep {axis}={value:g}: FAILED ({exc})", file=sys.stderr)
        rows.append((value, row))

    spath = os.path.join(ns.out, "summary.csv")
    with open(spath, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([axis, *_SWEEP_METRICS])
        for value, row in rows:
            writer.writerow([f"{value:.17g}", *(f"{row[m]:.17g}" for m in _SWEEP_METRICS)])
    _write_json(
        os.path.join(ns.out, "metadata.json"),
        _metadata(merge_config(cfg, {}), "sweep", {"axis": axis, "values": values, "failed": n_failed}),
    )
    print(f"sweep: {len(values) - n_failed}/{len(values)} runs ok; summary in {spath}")
    return 0 if n_failed == 0 else 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="inertonsim",
        description="deterministic particle / inerton-cloud simulator and verifier",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file (merged over the preset)")
        sp.add_argument("--preset", help="built-in config: natural, electron-1e6, electron-atomic")
        sp.add_argument("--out", default=".", help="output directory (default: current)")
        sp.add_argument("--seed", type=int, default=None, help="RNG seed (check subcommand)")
        sp.add_argument("--format", choices=("csv", "json", "svg"), default="csv")

    sp = sub.add_parser("simulate", help="integrate the motion and write trajectory files")
    common(sp)
    sp.set_defaults(handler=cmd_simulate)

    sp = sub.add_parser("derive", help="emit derived kinematics, quantized scales, observables")
    common(sp)
    sp.set_defaults(handler=cmd_derive)

    sp = sub.add_parser("check", help="run the verification suite")
    common(sp)
    sp.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="NAMES",
        help="comma-separated check names (repeatable); default: all",
    )
    sp.set_defaults(handler=cmd_check)

    sp = sub.add_parser("sweep", help="run a simulation per value along one axis")
    common(sp)
    sp.add_argument("--axis", required=True, help="parameter to vary: M0, v0, c, T, h, dt, t_end")
    sp.add_argument("--values", required=True, help="comma-separated numeric values")
    sp.set_defaults(handler=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.handler(ns)
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
