import contextlib
import csv
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from inertonsim import cli, lagrangian
from inertonsim.action import quantize
from inertonsim.cli import ConfigError, build_parser, builtin_presets, main, merge_config, resolve_config
from inertonsim.constants import ELECTRON_MASS, LIGHT_SPEED, PLANCK
from per_draw import sample_params


def run_cli(*args):
    return main(list(args))


def write_cfg(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


# ------------------------------------------------------------ configuration

def test_presets_resolve():
    for name, cfg in builtin_presets().items():
        params, kin, resolved = resolve_config(cfg)
        assert resolved["parameters"] == cfg["parameters"], name  # kept as given: T or h
        if "T" in cfg["parameters"]:
            assert resolved["parameters"]["T"] == params.T, name


def _preset(units, parameters, dt, t_end):
    return {
        "units": units,
        "parameters": parameters,
        "simulation": {"dt": dt, "t_end": t_end},
        "outputs": {"trajectory": True, "events": True, "el_residuals": False},
        "observables": {"resonator_radius": 6371000.0},
        "seed": 0,
    }


def test_presets_keep_their_written_out_text():
    # the presets are resolved from their units and parameters, so a changed
    # default moves these bytes and has to be made here on purpose
    expected = {
        "natural": _preset("natural", {"M0": 1.0, "v0": 1.0, "c": 10.0, "T": 1.0}, 0.001, 10.0),
        "electron-1e6": _preset(
            "si",
            {"M0": 9.1093837015e-31, "v0": 1000000.0, "c": 299792458.0, "h": 6.62607015e-34},
            7.273854636642174e-19,
            7.273854636642175e-15,
        ),
        "electron-atomic": _preset(
            "si",
            {"M0": 9.1093837015e-31, "v0": 2997924.58, "c": 299792458.0, "h": 6.62607015e-34},
            8.092895119256529e-20,
            8.092895119256529e-16,
        ),
    }
    assert json.dumps(builtin_presets(), indent=2) == json.dumps(expected, indent=2)


def test_both_T_and_h_rejected(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", {"parameters": {"M0": 1, "v0": 1, "c": 10, "T": 1, "h": 2}})
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 1


def test_neither_T_nor_h_rejected(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", {"parameters": {"M0": 1, "v0": 1, "c": 10}})
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 1


def test_superluminal_rejected(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", {"parameters": {"M0": 1, "v0": 20, "c": 10, "T": 1}})
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 1


def test_unknown_parameter_key_rejected(tmp_path, capsys):
    # m0 follows from the velocity relation m0 = M0 v0^2/c^2; it is not an input
    for key in ("zz", "m0"):
        cfg = write_cfg(tmp_path / "c.json", {"parameters": {"M0": 1, "v0": 1, "c": 10, "T": 1, key: 3}})
        assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == f"error: parameters.{key}: unknown key\n"
    assert not (tmp_path / "o").exists()


def test_missing_config_file_is_io_error(tmp_path):
    assert run_cli("simulate", "--config", str(tmp_path / "nope.json")) == 3


@pytest.mark.parametrize(
    "data", [b"{not json", b"\xff\xfe{}", b"[" * 100_000], ids=["syntax", "not-utf8", "deep-nesting"]
)
def test_malformed_json_is_validation_error(tmp_path, capsys, data):
    p = tmp_path / "c.json"
    p.write_bytes(data)
    out = tmp_path / "o"
    assert run_cli("simulate", "--config", str(p), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: not valid JSON (") and "Traceback" not in err
    assert not out.exists()


def test_unknown_preset(tmp_path):
    assert run_cli("simulate", "--preset", "warpdrive", "--out", str(tmp_path)) == 1


def test_config_overrides_preset():
    base = builtin_presets()["natural"]
    merged = merge_config(base, {"simulation": {"t_end": 4.0}})
    assert merged["simulation"]["t_end"] == 4.0
    assert merged["simulation"]["dt"] == base["simulation"]["dt"]
    assert merged["parameters"] == base["parameters"]


def test_h_resolves_period():
    cfg = {"parameters": {"M0": 1.0, "v0": 1.0, "c": 10.0, "h": 2.0}}
    params, _, resolved = resolve_config(cfg)
    M = 1.0 / math.sqrt(1.0 - 0.01)
    assert params.T == pytest.approx(2.0 / M, rel=1e-14)
    assert resolved["parameters"] == {"M0": 1.0, "v0": 1.0, "c": 10.0, "h": 2.0}
    assert "input_h" not in resolved


@pytest.mark.parametrize("M0", [-1, 0])
def test_h_path_names_a_non_positive_M0(tmp_path, capsys, M0):
    # the period resolved from h divides by the mass: a bad M0 is named before that
    cfg = write_cfg(tmp_path / "c.json", {"parameters": {"M0": M0, "v0": 0.5, "c": 1, "h": 1}})
    out = tmp_path / "o"
    assert run_cli("derive", "--config", cfg, "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: parameters.M0: must be positive, got {float(M0)}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "pars, period",
    [({"M0": 1e-300, "v0": 1e-10, "c": 1, "h": 1}, "inf"), ({"M0": 1e300, "v0": 0.5, "c": 1, "h": 1e-300}, "0.0")],
    ids=["overflow", "underflow"],
)
def test_h_path_names_h_when_the_period_is_unusable(tmp_path, capsys, pars, period):
    # the period h / (M v0^2) overflows or underflows: the message names h, the key the config holds
    cfg = write_cfg(tmp_path / "c.json", {"parameters": pars})
    out = tmp_path / "o"
    for cmd in ("derive", "simulate"):
        assert run_cli(cmd, "--config", cfg, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: parameters.h: ") and err.endswith(f"got T={period}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [["derive"], ["simulate"], ["check"], ["sweep", "--axis", "h", "--values", "1,2"]],
    ids=["derive", "simulate", "check", "sweep-h"],
)
def test_h_path_refuses_an_underflowing_m_v0_squared(tmp_path, capsys, args):
    # M v0 underflows to 0.0, where quantize once divided by zero
    cfg = write_cfg(tmp_path / "c.json", {"parameters": {"M0": 1e-160, "v0": 1e-170, "c": 1.0, "h": 2}})
    out = tmp_path / "o"
    assert run_cli(*args, "--config", cfg, "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: parameters.h: M v0^2 underflows a float (M = 1e-160, v0 = 1e-170)\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args, flag",
    [
        (["simulate", "--bogus", "1"], "--bogus"),
        (["check", "--seed", "abc"], "--seed"),
        (["derive", "--format", "svg"], "--format"),
        (["check", "--format", "svg"], "--format"),
        (["simulate", "--seed", "3"], "--seed"),  # only check draws
        (["derive", "--preset", "warpdrive"], "--preset"),
        (["sweep", "--axis", "flux", "--values", "1"], "--axis"),
    ],
)
def test_usage_error_exits_1(capsys, args, flag):
    assert run_cli(*args) == 1
    err = capsys.readouterr().err
    assert "error: " in err and flag in err and "Traceback" not in err


def test_parser_is_built_once_and_calls_share_no_state(monkeypatch):
    assert build_parser() is build_parser()
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "check", (lambda ns: seen.append(ns) or 0, *cli._COMMANDS["check"][1:]))
    assert run_cli("check", "--select", "a", "--select", "b", "--seed", "3") == 0
    assert run_cli("check") == 0
    assert [(ns.select, ns.seed, ns.format) for ns in seen] == [(["a", "b"], 3, "csv"), (None, None, "csv")]


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    assert run_cli(flag) == 0
    assert "inertonsim" in capsys.readouterr().out


def test_metadata_does_not_depend_on_the_hash_seed(tmp_path):
    # the outputs keys a config omits are filled in one fixed order
    cfg = write_cfg(tmp_path / "c.json", {"parameters": {"M0": 1, "v0": 1, "c": 10, "T": 1}})
    metas = []
    for seed in ("0", "1"):
        out = tmp_path / seed
        proc = subprocess.run(
            [sys.executable, "-m", "inertonsim.cli", "derive", "--config", cfg, "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        metas.append((out / "metadata.json").read_bytes())
    assert metas[0] == metas[1]


# ----------------------------------------------------------------- simulate

def test_simulate_natural(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("simulate", "--preset", "natural", "--out", str(out)) == 0
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    assert rows[0] == "t,X,dXdt,x,dxdt,invariant_residual,event_flag"
    assert len(rows) == 1 + 10001  # header + 10 (T/dt) + 1 samples
    events = json.loads((out / "events.json").read_text())["events"]
    assert len(events) == 10
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["command"] == "simulate"
    assert meta["version"]
    assert meta["parameters"]["T"] == 1.0
    assert meta["derived"]["n_events"] == 10


def test_simulate_roundtrip_bitwise(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_cli("simulate", "--preset", "natural", "--out", str(a)) == 0
    assert run_cli("simulate", "--config", str(a / "metadata.json"), "--out", str(b)) == 0
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
    assert (a / "events.json").read_bytes() == (b / "events.json").read_bytes()


def test_simulate_electron_preset_roundtrip(tmp_path):
    # the h-specified preset resolves T, and rerunning from the resolved
    # metadata must reproduce the identical file
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_cli("simulate", "--preset", "electron-1e6", "--out", str(a)) == 0
    assert run_cli("simulate", "--config", str(a / "metadata.json"), "--out", str(b)) == 0
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()


def test_simulate_svg_format(tmp_path):
    out = tmp_path / "run"
    assert run_cli("simulate", "--preset", "natural", "--format", "svg", "--out", str(out)) == 0
    for name in ("trajectory.svg", "phase.svg"):
        body = (out / name).read_text()
        assert body.startswith("<svg") and body.rstrip().endswith("</svg>")


def test_simulate_svg_format_without_trajectory_csv(tmp_path):
    # outputs.trajectory gates trajectory.csv only; --format svg still plots
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path / "c.json", {"outputs": {"trajectory": False}})
    argv = ("simulate", "--preset", "natural", "--config", cfg, "--format", "svg", "--out", str(out))
    assert run_cli(*argv) == 0
    for name in ("trajectory.svg", "phase.svg"):
        body = (out / name).read_text()
        assert body.startswith("<svg") and body.rstrip().endswith("</svg>")
    assert not (out / "trajectory.csv").exists()


def test_simulate_json_format(tmp_path, capsys):
    # simulate and sweep write no JSON trajectory: argparse refuses the format
    # before anything is written
    for argv in (("simulate",), ("sweep", "--axis", "dt", "--values", "0.001,0.002")):
        out = tmp_path / argv[0]
        assert run_cli(*argv, "--preset", "natural", "--format", "json", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "argument --format: invalid choice: 'json'" in err, err
        assert not out.exists()


def test_simulate_el_residual_files(tmp_path):
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path / "c.json", {"outputs": {"el_residuals": True}})
    assert run_cli("simulate", "--preset", "natural", "--config", cfg, "--out", str(out)) == 0
    for name in ("el_particle.csv", "el_cloud.csv"):
        header = (out / name).read_text().splitlines()[0]
        assert header == "t,residual,excluded_flag"


def test_simulate_el_residuals_past_validity_writes_nothing(tmp_path, capsys):
    # the aggregate radicand turns negative near 43 T on the natural preset;
    # the run is refused with the key named and no file in --out
    out = tmp_path / "run"
    cfg = write_cfg(
        tmp_path / "c.json",
        {"simulation": {"dt": 0.001, "t_end": 100.0}, "outputs": {"el_residuals": True}},
    )
    assert run_cli("simulate", "--preset", "natural", "--config", cfg, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: outputs.el_residuals: Lagrangian radicand is negative"), err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "pars, simulation, message",
    [
        # M0 c^2 underflows to 0, so each radicand is 0/0
        (
            {"M0": 4.7187774686765e-175, "v0": 1.3144628655763465e-89, "c": 4.409108309932158e-86,
             "T": 5.276301826469854e111},
            {},
            "particle residual is not finite at t=",
        ),
        # some brackets overflow to NaN; the message gives the least refused radicand
        ({"M0": 1e308, "v0": 0.5, "c": 1, "T": 1}, {"t_end": 1}, "Lagrangian radicand is negative (-inf)"),
    ],
    ids=["rest-energy-underflows", "bracket-overflows"],
)
def test_simulate_el_residuals_that_are_not_numbers_write_nothing(tmp_path, pars, simulation, message):
    # a subprocess, so that any numpy warning would reach stderr
    cfg = write_cfg(
        tmp_path / "c.json", {"parameters": pars, "simulation": simulation, "outputs": {"el_residuals": True}}
    )
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "inertonsim.cli", "simulate", "--config", cfg, "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: outputs.el_residuals: " + message), line
    assert not out.exists()


# ------------------------------------------------------------------- derive

def test_derive_natural(tmp_path, capsys):
    out = tmp_path / "d"
    assert run_cli("derive", "--preset", "natural", "--out", str(out)) == 0
    d = json.loads((out / "derived.json").read_text())
    assert d["quantized"]["lambda_dB"] == pytest.approx(1.0, rel=1e-12)
    assert d["quantized"]["Lambda"] == pytest.approx(10.0, rel=1e-12)
    assert d["resonator"]["ratio"] == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert d["kinematics"]["nu"] == 0.5


def test_derive_electron_preset(tmp_path):
    out = tmp_path / "d"
    assert run_cli("derive", "--preset", "electron-1e6", "--out", str(out)) == 0
    d = json.loads((out / "derived.json").read_text())
    assert d["quantized"]["lambda_dB"] == pytest.approx(7.274e-10, rel=1e-3)
    assert d["quantized"]["T"] == pytest.approx(7.274e-16, rel=1e-3)


@pytest.mark.parametrize("preset", ["electron-1e6", "electron-atomic"])
def test_derive_h_given_period_matches_quantized(preset, tmp_path):
    # system.T is resolved from h, quantized.T is quantized from system.M;
    # both take the moving mass with one rounding
    out = tmp_path / "d"
    assert run_cli("derive", "--preset", preset, "--format", "json", "--out", str(out)) == 0
    d = json.loads((out / "derived.json").read_text())
    assert d["system"]["T"].hex() == d["quantized"]["T"].hex()


def test_h_given_period_matches_quantized_on_random_configs():
    # log-uniform c, M0 and h / (M0 v0^2), v0/c uniform in [1e-4, 0.99]; the
    # calls cmd_derive makes for system.T and quantized.T
    rng = random.Random(0)
    for _ in range(250):
        c = 10.0 ** rng.uniform(-3.0, 9.0)
        M0 = 10.0 ** rng.uniform(-31.0, 3.0)
        v0 = rng.uniform(1e-4, 0.99) * c
        h = 10.0 ** rng.uniform(-20.0, 3.0) * M0 * v0 * v0
        params, _, _ = resolve_config({"parameters": {"M0": M0, "v0": v0, "c": c, "h": h}})
        quant = quantize(params.M, params.v0, params.c, h)
        assert params.T.hex() == quant.T.hex(), (M0, v0, c, h)


def test_derive_csv_format(tmp_path):
    out = tmp_path / "d"
    assert run_cli("derive", "--preset", "natural", "--format", "csv", "--out", str(out)) == 0
    lines = (out / "derived.csv").read_text().strip().splitlines()
    assert lines[0] == "group,name,value"
    assert any(line.startswith("quantized,lambda_dB,") for line in lines)


def test_derive_rejects_svg(tmp_path):
    assert run_cli("derive", "--preset", "natural", "--format", "svg", "--out", str(tmp_path)) == 1


# -------------------------------------------------------------------- check

def test_check_all_pass(tmp_path, capsys):
    out = tmp_path / "chk"
    code = run_cli("check", "--preset", "natural", "--seed", "42", "--out", str(out))
    assert code == 0
    lines = (out / "report.jsonl").read_text().strip().splitlines()
    assert len(lines) == 14
    for line in lines:
        obj = json.loads(line)
        assert obj["status"] == "pass"
    printed = capsys.readouterr().out
    assert "14/14 passed" in printed


def test_check_selection(tmp_path):
    out = tmp_path / "chk"
    code = run_cli(
        "check", "--select", "resonator_ratio,dirac_algebra", "--out", str(out)
    )
    assert code == 0
    lines = (out / "report.jsonl").read_text().strip().splitlines()
    assert [json.loads(x)["name"] for x in lines] == ["dirac_algebra", "resonator_ratio"]


def test_check_with_non_finite_draws_fails_without_writing_nan(tmp_path, capsys):
    # every transform_invariance draw overflows to a NaN Lagrangian pair
    cfg = write_cfg(tmp_path / "c.json", {"parameters": {"M0": 1, "v0": 1e150, "c": 1e160, "T": 1e10}})
    out = tmp_path / "chk"
    code = run_cli("check", "--config", cfg, "--select", "transform_invariance", "--format", "csv", "--out", str(out))
    assert code == 2
    assert capsys.readouterr().out.splitlines()[0].endswith("tol=1.000e-09  non_finite=200/200")
    (line,) = (out / "report.jsonl").read_text().splitlines()
    report = json.loads(line, parse_constant=_reject_constant)
    assert (report["status"], report["measured"], report["cases"], report["non_finite"]) == ("fail", 0.0, 200, 200)
    header, row = (out / "report.csv").read_text().splitlines()
    assert header == "name,status,measured,tolerance,runtime_s,cases,non_finite"
    assert row.startswith("transform_invariance,fail,0,1.0000000000000001e-09,") and row.endswith(",200,200")


def test_check_without_a_counted_draw_says_so(tmp_path, capsys, monkeypatch):
    # every draw refused, as if all lay outside the validity region
    monkeypatch.setattr(lagrangian, "_admitted", lambda s, p: np.zeros(len(s["t"]), dtype=bool))
    pars = {"M0": 1, "v0": 0.5, "c": 1, "T": 1}
    cfg = write_cfg(tmp_path / "c.json", {"parameters": pars})
    code = run_cli("check", "--config", cfg, "--select", "transform_invariance", "--out", str(tmp_path / "chk"))
    assert code == 2
    assert capsys.readouterr().out.splitlines()[0].endswith("tol=1.000e-09  cases=0")


def test_check_unknown_name(tmp_path):
    assert run_cli("check", "--select", "bogus", "--out", str(tmp_path)) == 1


@pytest.mark.parametrize("select", [",", "", " , ,"])
def test_check_empty_selection_rejected(tmp_path, capsys, select):
    out = tmp_path / "chk"
    assert run_cli("check", "--select", select, "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: --select:")
    assert not out.exists()


# -------------------------------------------------------------------- sweep

def test_sweep_dt_convergence(tmp_path):
    out = tmp_path / "sw"
    code = run_cli(
        "sweep", "--preset", "natural", "--axis", "dt",
        "--values", "0.01,0.005,0.0025", "--out", str(out),
    )
    assert code == 0
    rows = (out / "summary.csv").read_text().strip().splitlines()
    assert rows[0] == "dt,max_oracle_error,max_invariant_residual,cyclic_action,lambda"
    errs = [float(r.split(",")[1]) for r in rows[1:]]
    assert errs[0] / errs[1] >= 8.0
    assert errs[1] / errs[2] >= 8.0
    for i in range(3):
        assert (out / f"dt_{i}" / "trajectory.csv").exists()
        assert (out / f"dt_{i}" / "metadata.json").exists()


def test_sweep_with_a_probe_window_of_many_steps_runs(tmp_path):
    # v0 = 0.1 m/s stretches the h-given T until PROBE_WINDOW T is about 1e11
    # steps of the preset's dt, against 10,001 samples; the oracle must not
    # reserve a candidate index for each of those steps
    out = tmp_path / "sw"
    assert run_cli("sweep", "--preset", "electron-1e6", "--axis", "v0", "--values", "0.1", "--out", str(out)) == 0
    with open(out / "summary.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert float(row["v0"]) == 0.1 and math.isfinite(float(row["max_oracle_error"]))


def test_sweep_v0_wavelength_linearity(tmp_path):
    out = tmp_path / "sw"
    code = run_cli(
        "sweep", "--preset", "natural", "--axis", "v0", "--values", "1,5", "--out", str(out)
    )
    assert code == 0
    rows = (out / "summary.csv").read_text().strip().splitlines()[1:]
    lams = [float(r.split(",")[4]) for r in rows]
    assert lams[0] == pytest.approx(1.0)
    assert lams[1] == pytest.approx(5.0)  # lambda = v0 T


def test_sweep_computes_the_cyclic_action_once_per_parameter_set(tmp_path, monkeypatch):
    # a dt sweep has one parameter set and a v0 sweep one per value; no
    # action is kept from one sweep to the next
    specs = []
    action = cli.cyclic_action
    monkeypatch.setattr(cli, "cyclic_action", lambda spec: specs.append(spec) or action(spec))
    runs = [("dt", "0.01,0.005,0.004,0.0025", 1), ("dt", "0.01,0.005,0.004,0.0025", 1), ("v0", "1,2,3", 3)]
    for i, (axis, values, calls) in enumerate(runs):
        specs.clear()
        argv = ("sweep", "--preset", "natural", "--axis", axis, "--values", values, "--out", str(tmp_path / f"sw{i}"))
        assert run_cli(*argv) == 0
        assert len(specs) == calls, (axis, specs)


def test_sweep_failed_row_marked(tmp_path, capsys):
    out = tmp_path / "sw"
    code = run_cli(
        "sweep", "--preset", "natural", "--axis", "v0", "--values", "1,20", "--out", str(out)
    )
    assert code == 2  # one run failed
    rows = (out / "summary.csv").read_text().strip().splitlines()
    good = rows[1].split(",")
    bad = rows[2].split(",")
    assert float(good[1]) < 1e-6
    assert math.isnan(float(bad[1])) and math.isnan(float(bad[4]))
    assert "FAILED" in capsys.readouterr().err


def test_sweep_refuses_a_step_whose_events_leave_the_probe_window(tmp_path, capsys):
    # at T/100 the events lag 8.1e-9 T per period, so over 200 T the last
    # one would land 1.6e-6 T late, outside dynamics.PROBE_WINDOW
    cfg = {"parameters": {"M0": 2.3, "v0": 0.37, "c": 1, "T": 1.7}, "simulation": {"t_end": 340}}
    out = tmp_path / "sw"
    code = run_cli(
        "sweep", "--config", write_cfg(tmp_path / "c.json", cfg), "--axis", "dt", "--values", "0.017,0.0136",
        "--out", str(out),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("sweep dt=0.017: FAILED (simulation.dt: t_end=200 T is too long for dt=T/100: ")
    assert "the longest admissible t_end is 123.2 T" in err
    refused, admitted = ((out / "summary.csv").read_text().splitlines()[1:])
    assert math.isnan(float(refused.split(",")[1])) and float(admitted.split(",")[1]) < 1e-4
    assert not (out / "dt_0").exists()


def test_sweep_names_t_end_in_a_failed_row(tmp_path, capsys):
    out = tmp_path / "sw"
    assert run_cli("sweep", "--preset", "natural", "--axis", "t_end", "--values=-1,1", "--out", str(out)) == 2
    assert capsys.readouterr().err == "sweep t_end=-1: FAILED (simulation.t_end: must be positive, got -1.0)\n"
    refused, admitted = (out / "summary.csv").read_text().splitlines()[1:]
    assert math.isnan(float(refused.split(",")[1])) and float(admitted.split(",")[1]) < 1e-6


def test_sweep_axis_validation(tmp_path):
    assert run_cli(
        "sweep", "--preset", "natural", "--axis", "flux", "--values", "1", "--out", str(tmp_path)
    ) == 1


def test_sweep_h_axis_drops_T(tmp_path):
    out = tmp_path / "sw"
    code = run_cli(
        "sweep", "--preset", "natural", "--axis", "h", "--values", "1.0,2.0", "--out", str(out)
    )
    assert code == 0
    meta = json.loads((out / "h_0" / "metadata.json").read_text())
    M = 1.0 / math.sqrt(1.0 - 0.01)
    assert meta["parameters"]["h"] == 1.0 and "T" not in meta["parameters"]
    assert meta["derived"]["system"]["T"] == pytest.approx(1.0 / M, rel=1e-12)


def test_sweep_metadata_keeps_only_the_config_keys(tmp_path):
    # a sweep's metadata.json once copied every top-level key of its config
    # file: the "command" of a simulate run's metadata.json, or any other key
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--preset", "natural", "--config", write_cfg(tmp_path / "t.json", {
        "simulation": {"t_end": 1.0}}), "--out", str(sim)) == 0
    extra = write_cfg(tmp_path / "extra.json", {"command": "bogus", "note": "x", "simulation": {"t_end": 1.0}})
    for i, config in enumerate((str(sim / "metadata.json"), extra)):
        out = tmp_path / f"sw{i}"
        assert run_cli("sweep", "--preset", "natural", "--config", config, "--axis", "dt", "--values", "0.002,0.001",
                       "--out", str(out)) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert list(meta) == ["tool", "version", "command", "units", "parameters", "simulation", "outputs",
                              "observables", "seed", "derived"]
        assert meta["command"] == "sweep"
        assert meta["derived"] == {"axis": "dt", "values": [0.002, 0.001], "failed": 0}


# ------------------------------------------------------------------ replay

def _tree(root):
    """Every file under ``root`` by relative path, with the wall-clock
    ``runtime_s`` of the check reports left out."""
    files = {}
    for d, _, names in os.walk(root):
        for name in names:
            with open(os.path.join(d, name), "rb") as fh:
                body = fh.read()
            if name == "report.jsonl":
                body = [{k: v for k, v in json.loads(line).items() if k != "runtime_s"} for line in body.splitlines()]
            elif name == "report.csv":
                body = [row[:4] + row[5:] for row in csv.reader(io.StringIO(body.decode()))]
            files[os.path.relpath(os.path.join(d, name), root)] = body
    return files


def _draw(seed):
    p = sample_params(np.random.default_rng(seed))
    return {"parameters": {"M0": p.M0, "v0": p.v0, "c": p.c, "T": p.T}}


_FORMATS = {"derive": ("csv", "json"), "simulate": ("csv", "svg"), "check": ("csv", "json"), "sweep": ("csv", "svg")}
_REPLAY_INPUTS = [*builtin_presets(), *(f"draw{seed}" for seed in range(5))]  # a draw is a config file


def _replay_cases():
    """Each command with each --format it allows, on each preset and on five
    `sample_params` draws (a sweep along M0), and a sweep along h."""
    for command, formats in _FORMATS.items():
        for fmt in formats:
            for name in _REPLAY_INPUTS:
                suffix = "" if fmt == "csv" else f"-{fmt}"
                yield pytest.param(command, name, ["--format", fmt], id=f"{command}-{name}{suffix}")
    yield pytest.param("sweep", "natural", ["--axis", "h", "--values", "1.0,2.5"], id="sweep-natural-h")


@pytest.mark.parametrize("command, name, extra", _replay_cases())
def test_metadata_replays_the_run_exactly(tmp_path, command, name, extra):
    # a run, its replay from metadata.json and the replay of the replay write the same bytes
    if name in builtin_presets():
        source, cfg = ["--preset", name], builtin_presets()[name]
    else:
        cfg = _draw(int(name[len("draw"):]))
        source = ["--config", write_cfg(tmp_path / "cfg.json", cfg)]
    if command == "sweep" and "--axis" not in extra:
        M0 = cfg["parameters"]["M0"]
        extra = [*extra, "--axis", "M0", "--values", f"{M0!r},{2.0 * M0!r}"]
    assert run_cli(command, *source, *extra, "--out", str(tmp_path / "a")) == 0
    first = _tree(tmp_path / "a")
    previous = tmp_path / "a"
    for out in ("b", "c"):
        assert run_cli(command, "--config", str(previous / "metadata.json"), *extra, "--out", str(tmp_path / out)) == 0
        assert _tree(tmp_path / out) == first, out
        previous = tmp_path / out


# --------------------------------------------------------------- subprocess

def test_console_entry_point_subprocess(tmp_path):
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "inertonsim.cli", "simulate", "--preset", "natural",
         "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "10 events" in proc.stdout
    assert (out / "trajectory.csv").exists()


def test_usage_error_exits_1_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "inertonsim.cli", "simulate", "--bogus", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "error: unrecognized arguments: --bogus 1" in proc.stderr


def test_version_flag_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "inertonsim.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "inertonsim" in proc.stdout


def test_cli_import_does_not_load_scipy():
    # nor build the lazy tables of the text formatters: both would add to set-up
    code = (
        "import inertonsim.cli, sys; from inertonsim import _text; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'], "
        "_text._pow10_table.cache_info().currsize, _text._layout_tables.cache_info().currsize)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] 0 0"


def test_cli_import_does_not_load_numpy_polynomial():
    # `action` writes its Gauss-Legendre table out; numpy 1.x loads the
    # module itself, so the test asks only that the program adds nothing
    code = (
        "import sys, numpy; numpy_alone = 'numpy.polynomial' in sys.modules; import inertonsim.cli; "
        "print(numpy_alone, 'numpy.polynomial' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    numpy_alone, with_cli = proc.stdout.split()
    assert with_cli == numpy_alone


# --------------------------------------------------------------- exit codes

@pytest.mark.parametrize(
    "key, value",
    [("M0", math.inf), ("v0", math.nan), ("c", math.inf), ("T", math.inf), ("T", math.nan), ("m0", math.inf)],
)
def test_non_finite_parameter_rejected(tmp_path, capsys, key, value):
    pars = {"M0": 1.0, "v0": 1.0, "c": 10.0, "T": 1.0, key: value}
    cfg = write_cfg(tmp_path / "c.json", {"parameters": pars})  # json writes Infinity / NaN
    out = tmp_path / "o"
    assert run_cli("simulate", "--config", cfg, "--out", str(out)) == 1
    assert f"parameters.{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "pars, words",
    [
        ({"M0": 1.0, "v0": 1e-300, "c": 10.0, "T": 1.0}, ["m0", "underflows"]),
        ({"M0": 1e308, "v0": 0.9, "c": 1.0, "T": 1.0}, ["parameters: M = inf"]),
        ({"M0": 1.0, "v0": 1e150, "c": 1e160, "T": 1e160}, ["parameters: lam = inf"]),
        ({"M0": 1.0, "v0": 1e10, "c": 1e11, "T": 1e-310}, ["parameters: nu = inf"]),
        # lam and Lam underflow to 0.0; once, simulate wrote X = x = 0 and check divided by zero
        ({"M0": 1e100, "v0": 1e-170, "c": 1e-160, "T": 1e-200}, ["parameters: lam = 0.0 underflows a float"]),
        ({"M0": 1e-300, "v0": 1e-5, "c": 1.0, "T": 1.0}, ["parameters: m0 = 1e-310 underflows a float"]),
    ],
    ids=["m0-underflows", "M-overflows", "lam-overflows", "nu-overflows", "lam-underflows", "m0-subnormal"],
)
@pytest.mark.parametrize("command", ["simulate", "derive", "check"])
def test_underflowing_cloud_mass_rejected(tmp_path, capsys, command, pars, words):
    cfg = write_cfg(tmp_path / "c.json", {"parameters": pars})
    out = tmp_path / "o"
    assert run_cli(command, "--config", cfg, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert all(word in err for word in words), err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, pars, word",
    [
        ("derive", {"M0": 1.0, "v0": 1e150, "c": 1e160, "T": 1e10}, "lam**2 overflows a float"),
        ("check", {"M0": 1.0, "v0": 1e150, "c": 1e160, "T": 1e10}, "lam**2 overflows a float"),
        ("derive", {"M0": 1e-100, "v0": 1e160, "c": 1e170, "T": 1e-170}, "v0**2 overflows a float"),
        ("check", {"M0": 1e10, "v0": 1e-155, "c": 1.0, "T": 1e10}, "(c/v0)**2 overflows a float"),
        ("check", {"M0": 1, "v0": 0.5, "c": 1, "T": 1e-300}, "lam**2 underflows a float (lam = 5e-301)"),
        ("derive", {"M0": 1, "v0": 0.5, "c": 1, "T": 1e-300}, "lam**2 underflows a float (lam = 5e-301)"),
        ("derive", {"M0": 1, "v0": 1e-170, "c": 1e-169, "T": 1}, "v0**2 underflows a float (v0 = 1e-170)"),
        ("derive", {"M0": 1e-300, "v0": 0.5, "c": 1, "T": 1e-300}, "the cyclic action M v0^2 T underflows a float"),
        # lam**2 = 1e-320 is subnormal; once, derive wrote it and check failed sigma_scaling
        ("derive", {"M0": 1e150, "v0": 1.0, "c": 10.0, "T": 1e-160}, "lam**2 underflows a float (lam = 1e-160)"),
        ("check", {"M0": 1e150, "v0": 1.0, "c": 10.0, "T": 1e-160}, "lam**2 underflows a float (lam = 1e-160)"),
    ],
    ids=["derive-lam", "check-lam", "derive-v0", "check-c-over-v0",
         "check-lam-underflows", "derive-lam-underflows", "derive-v0-underflows", "derive-cyclic-action-underflows",
         "derive-lam-subnormal", "check-lam-subnormal"],
)
def test_overflowing_square_names_the_quantity(tmp_path, capsys, command, pars, word):
    # a square that overflows, or that falls below the smallest normal float,
    # is refused with its quantity named
    cfg = write_cfg(tmp_path / "c.json", {"parameters": pars})
    out = tmp_path / "o"
    assert run_cli(command, "--config", cfg, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and word in err, err
    assert not out.exists()


def test_derive_overflowing_resonator_writes_nothing(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.json", {"observables": {"resonator_radius": 1e308}})
    out = tmp_path / "o"
    assert run_cli("derive", "--preset", "natural", "--config", cfg, "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: derived.json: resonator.L1 is inf")
    assert not out.exists()


def test_non_numeric_parameter_names_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.json", {"parameters": {"M0": [1], "v0": 1, "c": 10, "T": 1}})
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 1
    assert "parameters.M0" in capsys.readouterr().err


@pytest.mark.parametrize("sim", [{"dt": 0.05}, {"dt": 1e-3, "t_end": 1.0005}, {"t_end": math.inf}])
def test_step_grid_checked_at_resolve(tmp_path, capsys, sim):
    cfg = write_cfg(tmp_path / "c.json", {"simulation": sim})
    assert run_cli("simulate", "--preset", "natural", "--config", cfg, "--out", str(tmp_path / "o")) == 1
    assert "error: simulation." in capsys.readouterr().err


def test_plain_value_error_exits_1_with_message(tmp_path, capsys):
    # run_checks raises a plain ValueError, not a ConfigError
    assert run_cli("check", "--select", "bogus", "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown check name") and "Traceback" not in err


def test_runtime_error_exits_2_without_traceback(tmp_path, capsys, monkeypatch):
    import inertonsim.cli as cli

    def stuck(*args, **kwargs):
        raise RuntimeError("event location in the step at t=0.5 stopped at |x| = 1.000e-03 Lam")

    monkeypatch.setattr(cli, "integrate", stuck)
    assert run_cli("simulate", "--preset", "natural", "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: event location in the step at t=0.5")


# ------------------------------------------------------- config coercion

@pytest.mark.parametrize(
    "text, key",
    [
        ('{"simulation": {"dt": [0.001]}}', "simulation.dt"),
        ('{"simulation": {"n_inertons": [2]}}', "simulation.n_inertons"),
        ('{"simulation": {"n_inertons": 1.5}}', "simulation.n_inertons"),
        ('{"simulation": {"t_end": "long"}}', "simulation.t_end"),
        ('{"simulation": {"t_end": -1}}', "simulation.t_end"),
        ('{"simulation": {"t_end": 0}}', "simulation.t_end"),
        ('{"seed": [1]}', "seed"),
        ('{"seed": 1e400}', "seed"),
        ('{"seed": -1}', "seed"),
        ('{"observables": {"resonator_radius": "abc"}}', "observables.resonator_radius"),
        ('{"observables": {"resonator_radius": 0}}', "observables.resonator_radius"),
        ('{"simulation": [1, 2]}', "simulation"),
        ('{"outputs": "all"}', "outputs"),
        ('{"outputs": {"trajectory": "false"}}', "outputs.trajectory"),
        ('{"outputs": {"el_residuals": "no"}}', "outputs.el_residuals"),
        ('{"outputs": {"events": 1}}', "outputs.events"),
        ('{"outputs": {"plots": "yes"}}', "outputs.plots"),
        ('{"seed": true}', "seed"),
        ('{"parameters": {"M0": true}}', "parameters.M0"),
        # a string is not a number, even one that float() would parse
        ('{"parameters": {"M0": "1_0"}}', "parameters.M0"),
        ('{"parameters": {"v0": "1.0"}}', "parameters.v0"),
        ('{"parameters": {"c": " 10 "}}', "parameters.c"),
        ('{"parameters": {"T": "1"}}', "parameters.T"),
        ('{"seed": "3"}', "seed"),
        ('{"parameters": {"M0": "1_0", "v0": "1.0", "c": " 10 ", "T": "1"}, "seed": "3"}', "seed"),
        ('{"simulation": {"dt": "0.001"}}', "simulation.dt"),
        ('{"observables": {"resonator_radius": "6.4e6"}}', "observables.resonator_radius"),
    ],
)
def test_bad_config_value_names_key(tmp_path, capsys, text, key):
    cfg = tmp_path / "c.json"
    cfg.write_text(text)  # raw text: 1e400 is not something json.dumps writes
    out = tmp_path / "o"
    assert run_cli("derive", "--preset", "natural", "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and "Traceback" not in err
    assert not out.exists()


def test_integral_values_are_coerced():
    cfg = merge_config(builtin_presets()["natural"], {"seed": 7.0})
    _, _, resolved = resolve_config(cfg)
    assert resolved["seed"] == 7 and isinstance(resolved["seed"], int)


def test_plots_key_dropped_and_ensemble_keys_refused(tmp_path, capsys):
    # configs written for older versions send outputs.plots; --format svg
    # writes the plots, so a true or false there changes no byte
    base = tmp_path / "base"
    assert run_cli("simulate", "--preset", "natural", "--format", "svg", "--out", str(base)) == 0
    for plots in (True, False):
        cfg = write_cfg(tmp_path / "plots.json", {"outputs": {"plots": plots}})
        out = tmp_path / f"plots-{plots}"
        assert run_cli("simulate", "--preset", "natural", "--config", cfg, "--format", "svg", "--out", str(out)) == 0
        assert sorted(os.listdir(out)) == sorted(os.listdir(base))
        for name in os.listdir(base):
            assert (out / name).read_bytes() == (base / name).read_bytes(), name
        assert "plots" not in json.loads((out / "metadata.json").read_text())["outputs"]
    capsys.readouterr()
    # the ensemble mode's keys, even at the values the aggregate run had
    for sim, key in (({"mode": "aggregate"}, "simulation.mode"), ({"n_inertons": 1}, "simulation.n_inertons")):
        cfg = write_cfg(tmp_path / "old.json", {"simulation": sim})
        out = tmp_path / "o"
        assert run_cli("simulate", "--preset", "natural", "--config", cfg, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {key}: unknown key\n"
        assert not out.exists()


def test_step_budget_rejects_huge_run_at_resolve():
    from inertonsim.dynamics import MAX_STEPS, step_count

    cfg = merge_config(builtin_presets()["natural"], {"simulation": {"dt": 1e-9, "t_end": 100.0}})
    with pytest.raises(ConfigError, match=r"^simulation\.dt: .*t_end"):
        resolve_config(cfg)
    # the budget is inclusive and checked without allocating anything
    assert step_count(1.0, MAX_STEPS * 1e-3, 1e-3) == MAX_STEPS
    with pytest.raises(ValueError, match="budget"):
        step_count(1.0, (MAX_STEPS + 1) * 1e-3, 1e-3)
    with pytest.raises(ValueError, match="budget"):
        step_count(1.0, 1e300, 1e-10)  # t_end/dt overflows to inf


@pytest.mark.parametrize("fmt", ["csv", "svg"])
def test_simulate_peak_memory_per_step(tmp_path, fmt):
    # a whole run peaks at 17 B per step plus about 2 MB of fixed-size blocks
    # (dynamics.MAX_STEPS), traced after a warm-up run; at 100,000 steps the
    # per-column CSV writer and the full-length oracle took it to 105 B, and
    # the stored columns and full-length panel axes to 58 B
    import tracemalloc

    pars = {"M0": 1.0, "v0": 1.0, "c": 10.0, "T": 1.0}
    argv = ["simulate", "--format", fmt, "--config"]
    with contextlib.redirect_stdout(io.StringIO()):
        warm = write_cfg(tmp_path / "warm.json", {"parameters": pars, "simulation": {"dt": 1e-3, "t_end": 1.0}})
        assert main(argv + [warm, "--out", str(tmp_path / "warm")]) == 0
        cfg = write_cfg(tmp_path / "cfg.json", {"parameters": pars, "simulation": {"dt": 1e-3, "t_end": 100.0}})
        tracemalloc.start()
        try:
            assert main(argv + [cfg, "--out", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 17 * 100_000 + 2 * 2**20


def test_simulate_el_peak_memory_per_step(tmp_path):
    # with outputs.el_residuals a run peaks at about 123 B per step
    # (dynamics.MAX_STEPS): el_residual's block of the run's six columns, whose
    # residual row takes the momenta, the evaluators' temporaries and the
    # reports. The second op of a 40 T run (40,000 steps), traced, is at most
    # its reading when the budget was set plus 32 KiB. Report times that are a
    # view into the block read 164.7 B per step, and momenta in a new array
    # 131.7 B per step.
    import tracemalloc

    cfg = write_cfg(tmp_path / "cfg.json", {
        "parameters": {"M0": 1.0, "v0": 1e-4, "c": 1.0, "T": 1.0},
        "simulation": {"dt": 1e-3, "t_end": 40.0},
        "outputs": {"el_residuals": True},
    })
    argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "out")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
        shutil.rmtree(tmp_path / "out")
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 4_950_169 + 32 * 1024, peak / 40_000


def test_simulate_peak_memory_per_added_step(tmp_path):
    # the fixed-size blocks cancel between two run lengths, so the 50,000
    # steps that 100 T adds to 50 T cost 17 B each (the state w and the CSV's
    # event flags) and at most 32 KiB more; each run is traced after one
    # untraced run of its config. Peaks: about 2.24 and 3.10 MB (+17.3 B per
    # added step).
    import tracemalloc

    pars = {"M0": 1.0, "v0": 1.0, "c": 10.0, "T": 1.0}
    peaks = []
    with contextlib.redirect_stdout(io.StringIO()):
        for periods in (50, 100):
            sim = {"dt": 1e-3, "t_end": periods}
            cfg = write_cfg(tmp_path / f"{periods}.json", {"parameters": pars, "simulation": sim})
            argv = ["simulate", "--format", "svg", "--config", cfg, "--out", str(tmp_path / str(periods))]
            assert main(argv) == 0
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 17 * 50_000 + 32 * 1024, peaks


def test_sweep_rejects_non_finite_values(tmp_path, capsys):
    assert run_cli(
        "sweep", "--preset", "natural", "--axis", "dt", "--values", "1e-3,nan", "--out", str(tmp_path)
    ) == 1
    assert capsys.readouterr().err.startswith("error: --values:")


@pytest.mark.parametrize(
    "cfg, axis, key",
    [
        ({"parameters": 5}, "M0", "parameters"),
        ({"parameters": [1, 2]}, "M0", "parameters"),
        ({"simulation": 5}, "dt", "simulation"),
        ({"simulation": {"mode": "ensemble"}}, "dt", "simulation.mode"),
        # a NaN the axis replaces in every run, but metadata.json would still record
        ({"simulation": {"dt": math.nan}}, "dt", "metadata.json"),
        # faults in the sections no axis edits: once every row printed FAILED and the sweep exited 2
        ({"outputs": {"bogus": True}}, "dt", "outputs.bogus"),
        ({"observables": {"resonator_radius": -1}}, "dt", "observables.resonator_radius"),
        ({"units": "cgs"}, "v0", "units"),
        ({"seed": -1}, "t_end", "seed"),
        ({"parameters": {"zz": 1}}, "dt", "parameters.zz"),
        ({"simulation": 5}, "M0", "simulation"),
        # a parameters fault that no value of a simulation axis can mend: once every row printed FAILED
        ({"parameters": {"M0": 1, "v0": 20, "c": 10, "T": 1}}, "dt", "parameters"),
        ({"parameters": {"M0": 1, "v0": 20, "c": 10, "T": 1}}, "t_end", "parameters"),
        ({"parameters": {"M0": 1, "v0": 20, "c": 10, "T": 1}}, "M0", "parameters"),
    ],
)
def test_sweep_bad_config_writes_nothing(tmp_path, capsys, cfg, axis, key):
    path = write_cfg(tmp_path / "c.json", cfg)
    out = tmp_path / "sw"
    code = run_cli(
        "sweep", "--preset", "natural", "--config", path, "--axis", axis, "--values", "0.001,0.002", "--out", str(out)
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and "Traceback" not in err
    assert not out.exists()


def test_sweep_refuses_a_nan_it_would_write_before_any_run(tmp_path, capsys):
    path = write_cfg(tmp_path / "c.json", {"parameters": {"T": math.nan}})
    out = tmp_path / "sw"
    argv = ["sweep", "--preset", "natural", "--config", path, "--axis", "T", "--values", "1,2", "--out", str(out)]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == "error: metadata.json: parameters.T is nan\n"
    assert not out.exists()


def test_sweep_ignores_a_nan_in_a_key_it_does_not_write(tmp_path):
    # as simulate does: metadata.json keeps only the config's known top-level keys
    path = write_cfg(tmp_path / "c.json", {"note": math.nan})
    out = tmp_path / "sw"
    argv = ["sweep", "--preset", "natural", "--config", path, "--axis", "T", "--values", "1,2", "--out", str(out)]
    assert run_cli(*argv) == 0
    assert "note" not in json.loads((out / "metadata.json").read_text())


def test_sweep_with_no_valid_value_writes_nothing(tmp_path, capsys):
    # every value is itself invalid: the sweep is refused like simulate, not run as all-nan rows
    out = tmp_path / "sw"
    code = run_cli("sweep", "--preset", "natural", "--axis", "v0", "--values", "20,30", "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: parameters: ") and "v0=20.0" in err and "FAILED" not in err
    assert not out.exists()


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name} in JSON")


_SCALARS = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.integers(min_value=-10**30, max_value=10**30)
    | st.booleans()
    | st.none()
    | st.text(max_size=5)
    | st.sampled_from(["1", "0.001", "nan", "inf", "aggregate", "ensemble", "si"])
)
_VALUES = _SCALARS | st.lists(_SCALARS, max_size=2) | st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2)


def _section_of(keys):
    return st.dictionaries(st.sampled_from(keys), _VALUES, max_size=len(keys)) | _VALUES


@settings(deadline=None, max_examples=150)
@given(
    cfg=st.fixed_dictionaries(
        {},
        optional={
            "units": _VALUES,
            "parameters": _section_of(["M0", "v0", "c", "T", "h", "m0", "zz"]),
            "simulation": _section_of(["dt", "t_end", "mode", "n_inertons"]),
            "outputs": _section_of(["trajectory", "events", "plots"]),
            "observables": _section_of(["resonator_radius"]),
            "seed": _VALUES,
        },
    ),
    preset=st.booleans(),
)
def test_derive_config_fuzz(cfg, preset):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)  # NaN and Infinity are written as JSON extensions
        out = os.path.join(tmp, "o")
        args = ["derive", "--config", path, "--out", out] + (["--preset", "natural"] if preset else [])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        for name in ("metadata.json", "derived.json"):
            fpath = os.path.join(out, name)
            if os.path.exists(fpath):
                with open(fpath) as fh:
                    json.load(fh, parse_constant=_reject_constant)


# Values that may replace a parameter: junk must end in exit 1, extremes in
# any documented way.
_JUNK = st.sampled_from([0.0, -1.0, math.nan, math.inf, True, "abc", None, [1.0], {}])
_EXTREME = st.sampled_from([1e-300, 1e-160, 1e160, 1e300])


@st.composite
def _simulate_case(draw):
    """A parameter set from the `sample_params` ranges, some of it
    replaced by junk or extremes, and a grid of at most 3 T with dt from
    T/2000 to T/50 (the coarse end is inadmissible). One case in four gives
    ``h`` in [0.1, 10] in place of ``T``, on the default grid of T/1000."""
    pars = {
        "M0": draw(st.floats(0.1, 10.0)),
        "v0": draw(st.floats(0.01, 0.9)),
        "c": 1.0,
        "T": draw(st.floats(0.1, 10.0)),
    }
    divisor = draw(st.integers(50, 2000))
    dt = pars["T"] / divisor
    sim = {"dt": dt, "t_end": draw(st.integers(1, 3 * divisor)) * dt}
    if draw(st.integers(0, 3)) == 0:
        pars["h"] = pars.pop("T")
        divisor, sim = 1000, {}
    kinds = set()
    for key in pars:
        kind = draw(st.sampled_from(["good"] * 5 + ["junk", "extreme"]))
        kinds.add(kind)
        if kind != "good":
            pars[key] = draw(_JUNK if kind == "junk" else _EXTREME)
    return pars, sim, divisor, kinds


@settings(deadline=None, max_examples=60)
@given(case=_simulate_case(), fmt=st.sampled_from(["csv", "svg"]))
# the h-given config whose M v0 underflows, once a ZeroDivisionError in quantize
@example(case=({"M0": 1e-160, "v0": 1e-170, "c": 1.0, "h": 2.0}, {}, 1000, {"extreme"}), fmt="csv")
# a period of 1e-300 s over 2.5 T at T/1000: the phase panel draws one period
# and the tail
@example(case=({"M0": 1, "v0": 0.5, "c": 1, "T": 1e-300}, {"dt": 1e-303, "t_end": 2.5e-300}, 1000, {"extreme"}),
         fmt="svg")
def test_simulate_fuzz(case, fmt):
    pars, sim, divisor, kinds = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump({"parameters": pars, "simulation": sim}, fh)
        out = os.path.join(tmp, "o")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", "--config", path, "--out", out, "--format", fmt])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if "junk" in kinds:
            assert code == 1, err.getvalue()
        elif kinds == {"good"}:
            assert code == (0 if divisor >= 100 else 1), err.getvalue()
        if code == 0 and fmt == "svg":
            for name in ("trajectory.svg", "phase.svg"):
                assert os.path.getsize(os.path.join(out, name)) > 0
        meta_path = os.path.join(out, "metadata.json")
        assert os.path.exists(meta_path) == (code == 0)
        assert os.path.exists(out) == (code == 0)
        if code == 0:
            with open(meta_path) as fh:
                meta = json.load(fh, parse_constant=_reject_constant)
            # a reflection at t_end itself belongs to the run
            periods = meta["simulation"]["t_end"] / meta["derived"]["system"]["T"]
            assert meta["derived"]["n_events"] == math.floor(periods + 1e-9)
            assert meta["derived"]["max_oracle_error"] < 1e-4
            # only a sample just after a reflection sits below x = 0, by at
            # most the crossing tolerance (to rounding)
            x = np.loadtxt(os.path.join(out, "trajectory.csv"), delimiter=",", skiprows=1, usecols=3)
            assert x.min() >= -(1.0 + 1e-12) * meta["derived"]["integrator"]["event_x_tolerance"]


@settings(deadline=None, max_examples=40)
@given(case=_simulate_case())
# the two underflows that once ended in a ZeroDivisionError traceback and in
# a message that named no quantity
@example(case=({"M0": 1, "v0": 0.5, "c": 1, "T": 1e-300}, {"dt": 1e-303, "t_end": 1e-300}, 1000, {"extreme"}))
@example(case=({"M0": 1e-300, "v0": 0.5, "c": 1, "T": 1e-300}, {"dt": 1e-303, "t_end": 1e-300}, 1000, {"extreme"}))
# the h-given config whose M v0 underflows, once a ZeroDivisionError in quantize
@example(case=({"M0": 1e-160, "v0": 1e-170, "c": 1.0, "h": 2.0}, {}, 1000, {"extreme"}))
def test_check_fuzz(case):
    pars, sim, divisor, kinds = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump({"parameters": pars, "simulation": sim}, fh)
        out = os.path.join(tmp, "o")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["check", "--config", path, "--out", out])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if "junk" in kinds:
            assert code == 1, err.getvalue()
        elif kinds == {"good"}:
            assert code == (0 if divisor >= 100 else 1), err.getvalue()
        # a refused config writes nothing; a failed check still writes its
        # report, while a runtime failure (also exit 2) writes nothing
        assert os.path.exists(out) == (code == 0) or code == 2
        if os.path.exists(out):
            with open(os.path.join(out, "report.jsonl")) as fh:
                assert len([json.loads(line, parse_constant=_reject_constant) for line in fh]) == 14


@settings(deadline=None, max_examples=30)
@given(
    case=_simulate_case(),
    axis=st.sampled_from(["M0", "v0", "c", "T", "h", "dt", "t_end"]),
    values=st.lists(st.floats(0.01, 10.0) | _EXTREME, min_size=1, max_size=3),
)
# the h sweep whose M v0 underflows, once a ZeroDivisionError in quantize
@example(case=({"M0": 1e-160, "v0": 1e-170, "c": 1.0, "h": 2.0}, {}, 1000, {"extreme"}), axis="h", values=[1.0, 2.0])
def test_sweep_fuzz(case, axis, values):
    pars, sim, _, _ = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump({"parameters": pars, "simulation": sim}, fh)
        out = os.path.join(tmp, "o")
        err = io.StringIO()
        argv = ["sweep", "--axis", axis, "--values", ",".join(map(repr, values)), "--config", path, "--out", out]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        # a sweep none of whose cases resolves writes nothing; otherwise every
        # value has a row, of finite metrics on exit 0 and a nan row per failure
        assert os.path.exists(out) == (code != 1)
        if code in (0, 2):
            with open(os.path.join(out, "summary.csv")) as fh:
                rows = list(csv.reader(fh))[1:]
            assert [float(row[0]) for row in rows] == values
            failed = [row for row in rows if all(math.isnan(float(v)) for v in row[1:])]
            assert all(math.isfinite(float(v)) for row in rows if row not in failed for v in row[1:])
            assert bool(failed) == (code == 2)
