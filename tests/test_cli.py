"""Tests for the config parser and the CLI subcommands.

Each subcommand is exercised through run_subcommand into a temp
directory; determinism is asserted byte for byte.  Config parsing is
tested value by value against the documented unit conventions.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import jpmsim.cli
import jpmsim.config
from jpmsim.cli import main, run_subcommand
from jpmsim.config import _UNIT_TABLES, RunConfig, SCHEMA, parse_value
from jpmsim.errors import ConfigError
from jpmsim.potential import DEFAULT_PARAMS, PHI0
from jpmsim.protocol import DEFAULT_DEPLETION_RATE, DEFAULT_IQ_MODEL, ProtocolConfig

SUBCOMMANDS = [
    "potential-sweep",
    "bifurcation",
    "transfer-curves",
    "transfer-peak",
    "budget",
    "ramsey",
    "rabi",
    "stark",
    "depletion",
    "iq",
    "tomo-synth",
    "tomo-fit",
]

ARTIFACTS = {
    "potential-sweep": "potential_sweep.csv",
    "bifurcation": "bifurcation.csv",
    "transfer-curves": "transfer_curves.csv",
    "transfer-peak": "transfer_peak.json",
    "budget": "budget.json",
    "ramsey": "ramsey.csv",
    "rabi": "rabi.csv",
    "stark": "stark.csv",
    "depletion": "depletion.csv",
    "iq": "iq.json",
    "tomo-synth": "tomogram.csv",
    "tomo-fit": "tomo_fit.json",
}

# Fast settings for repeated CLI runs; values stay statistically
# meaningful while keeping the suite quick.
FAST = {
    "budget": ("budget.n_shots=10000",),
    "iq": ("iq.n_shots=20000",),
    "ramsey": ("ramsey.delay_points=21",),
    "rabi": ("rabi.duration_points=21",),
    "potential-sweep": ("potential.flux_points=9",),
}


def run_fast(name, out_dir, extra=()):
    overrides = FAST.get(name, ()) + tuple(extra)
    return run_subcommand(name, overrides=overrides, output_dir=str(out_dir))


def test_unit_parsing_round_trip():
    cfg = RunConfig.from_sources(
        overrides=(
            "protocol.t_prep=780ns",
            "device.critical_current=1uA",
            "device.loop_inductance=1.1nH",
            "device.shunt_capacitance=2pF",
            "source.frequency=5.02GHz",
            "capture.decay_time=40ns",
            "line.impedance=50ohm",
            "potential.flux_start=0.5phi0",
            "protocol.stark_shift_per_photon=-2MHz",
        )
    )
    assert cfg.get("protocol.t_prep") == 780e-9
    assert cfg.get("device.critical_current") == 1e-6
    assert cfg.get("device.loop_inductance") == 1.1e-9
    assert cfg.get("device.shunt_capacitance") == 2e-12
    # Frequencies are written in Hz and stored angular.
    assert cfg.get("source.frequency") == pytest.approx(2.0 * math.pi * 5.02e9, rel=1e-15)
    assert cfg.get("protocol.stark_shift_per_photon") == pytest.approx(
        -2.0 * 2e6 * math.pi, rel=1e-15
    )
    # Decay rates are written as 1/e decay times.
    assert cfg.transfer_config().target.decay_rate == pytest.approx(1.0 / 40e-9, rel=1e-15)
    assert cfg.get("line.impedance") == 50.0
    assert cfg.get("potential.flux_start") == pytest.approx(0.5 * PHI0, rel=1e-15)


def test_config_defaults_match_module_defaults():
    cfg = RunConfig.from_sources()
    assert cfg.protocol_config() == ProtocolConfig()
    assert cfg.iq_model() == DEFAULT_IQ_MODEL
    assert cfg.jpm_params() == DEFAULT_PARAMS
    assert cfg.protocol_config().depletion_rate == DEFAULT_DEPLETION_RATE


def test_optional_none_values():
    cfg = RunConfig.from_sources(overrides=("protocol.depletion_decay_time=none",))
    assert cfg.get("protocol.depletion_decay_time") is None
    assert cfg.protocol_config().depletion_rate == DEFAULT_DEPLETION_RATE
    cfg2 = RunConfig.from_sources(overrides=("protocol.depletion_decay_time=20ns",))
    assert cfg2.protocol_config().depletion_rate == pytest.approx(1.0 / 20e-9, rel=1e-15)


def test_list_values():
    cfg = RunConfig.from_sources(overrides=("stark.powers=0.5,1.5,2.5",))
    assert cfg.get("stark.powers") == (0.5, 1.5, 2.5)
    empty = RunConfig.from_sources(overrides=("stark.powers=",))
    assert empty.get("stark.powers") == ()
    freqs = RunConfig.from_sources(overrides=("ramsey.detunings=-1MHz,0Hz,1MHz",))
    assert freqs.get("ramsey.detunings") == pytest.approx(
        [-2e6 * math.pi, 0.0, 2e6 * math.pi], rel=1e-15
    )


def test_defaults_are_parsed_once_and_immutable(monkeypatch):
    # The SCHEMA defaults are parsed at import; a config without a file
    # or override parses nothing, and its list values are tuples, so no
    # config can change the defaults another one starts from.
    calls = []

    def counting_parse_value(*args):
        calls.append(args)
        return parse_value(*args)

    monkeypatch.setattr(jpmsim.config, "parse_value", counting_parse_value)
    cfg = RunConfig.from_sources()
    assert calls == []
    powers = cfg.get("stark.powers")
    assert type(powers) is tuple
    assert powers == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    RunConfig.from_sources(overrides=("stark.powers=2,3",))
    assert len(calls) == 1
    assert RunConfig.from_sources().get("stark.powers") == powers
    for key, spec in SCHEMA.items():
        if spec.kind.startswith("list:"):
            assert type(cfg.get(key)) is tuple, key


def test_config_rejections():
    bad = [
        "protocol.t_prep=780",  # bare number on a dimensioned key
        "protocol.t_prep=780parsec",  # unknown unit
        "protocol.nonsense=1",  # unknown key
        "tomo.beta=0.09ns",  # unit on a dimensionless key
        "budget.n_shots=none",  # none on a required key
        "budget.n_shots=1e4",  # non-integer int
        "output.format=xml",  # not in choices
        "protocol.t_prep",  # no assignment
    ]
    for line in bad:
        with pytest.raises(ConfigError):
            RunConfig.from_sources(overrides=(line,))


@pytest.mark.parametrize(
    "line",
    [
        "device.mutual_inductance=1pH",
        "protocol.window=hamming",
        "protocol.depletion_time=40ns",
        "protocol.cycle_time=2.8us",
    ],
)
def test_removed_keys_are_unknown(line):
    # These keys were validated but never read; a config that still sets
    # one fails like any other unknown key.
    with pytest.raises(ConfigError, match="unknown key"):
        RunConfig.from_sources(overrides=(line,))


def test_config_file_and_precedence(tmp_path):
    doc = tmp_path / "run.cfg"
    doc.write_text(
        "# comment line\n"
        "protocol.t_prep = 500ns  # trailing comment\n"
        "budget.n_shots = 12345\n"
    )
    cfg = RunConfig.from_sources(config_path=str(doc))
    assert cfg.get("protocol.t_prep") == 500e-9
    assert cfg.get("budget.n_shots") == 12345
    # Overrides outrank the file.
    cfg2 = RunConfig.from_sources(config_path=str(doc), overrides=("protocol.t_prep=600ns",))
    assert cfg2.get("protocol.t_prep") == 600e-9
    # Unlisted keys keep their defaults.
    assert cfg.get("protocol.t1") == 6.6e-6


def test_config_file_duplicate_key(tmp_path):
    doc = tmp_path / "dup.cfg"
    doc.write_text("protocol.t_prep = 500ns\nprotocol.t_prep = 600ns\n")
    with pytest.raises(ConfigError) as err:
        RunConfig.from_sources(config_path=str(doc))
    assert "duplicate" in str(err.value)


def test_config_missing_file():
    with pytest.raises(ConfigError):
        RunConfig.from_sources(config_path="/nonexistent/path.cfg")


def test_schema_defaults_all_parse():
    for key, spec in SCHEMA.items():
        parse_value(spec.default, spec, key)


def test_every_subcommand_writes_artifact(tmp_path):
    # tomo-fit consumes the tomogram the tomo-synth step produces.
    synth = tmp_path / "tomo-synth"
    for name in SUBCOMMANDS:
        out = tmp_path / name
        extra = ()
        if name == "tomo-fit":
            extra = (f"tomo.input={synth / 'tomogram.csv'}",)
        code, paths = run_fast(name, out, extra)
        assert code == 0, name
        assert (out / ARTIFACTS[name]).exists(), name
        assert [p.name for p in paths] == [ARTIFACTS[name]]


def test_csv_headers(tmp_path):
    code, paths = run_fast("stark", tmp_path)
    assert code == 0
    lines = (tmp_path / "stark.csv").read_text().splitlines()
    assert lines[0] == "power (1),n_bar (1),qubit_shift (Hz)"
    # Shift column is an ordinary frequency: -2 MHz per photon at ten
    # photons of full-power occupation.
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0
    assert float(last[1]) == 10.0
    assert float(last[2]) == pytest.approx(-2e6 * 10.0, rel=1e-12)


def test_byte_stable_outputs(tmp_path):
    for name in ("potential-sweep", "transfer-peak", "budget", "iq", "tomo-synth"):
        out1 = tmp_path / "a" / name
        out2 = tmp_path / "b" / name
        assert run_fast(name, out1)[0] == 0
        assert run_fast(name, out2)[0] == 0
        b1 = (out1 / ARTIFACTS[name]).read_bytes()
        b2 = (out2 / ARTIFACTS[name]).read_bytes()
        assert b1 == b2, name


def test_budget_report_contents(tmp_path):
    code, _ = run_subcommand(
        "budget", overrides=("budget.n_shots=20000",), output_dir=str(tmp_path)
    )
    assert code == 0
    text = (tmp_path / "budget.json").read_text()
    record = json.loads(text)
    assert record["n_shots"] == 20000
    total = (
        record["F_raw"]
        + record["epsilon_relax"]
        + record["epsilon_dark"]
        + record["epsilon_other"]
    )
    assert total == pytest.approx(1.0, abs=1e-12)
    # Insertion-ordered keys, two-space indent, trailing newline.
    assert text.startswith('{\n  "F_raw":')
    assert text.endswith("\n")


def test_tomo_synth_fit_pipeline(tmp_path):
    synth_dir = tmp_path / "synth"
    code, paths = run_subcommand(
        "tomo-synth",
        overrides=("tomo.n_shots=200000", "tomo.beta=0.09", "tomo.r=0.02"),
        output_dir=str(synth_dir),
    )
    assert code == 0
    fit_dir = tmp_path / "fit"
    code, _ = run_subcommand(
        "tomo-fit",
        overrides=(f"tomo.input={paths[0]}",),
        output_dir=str(fit_dir),
    )
    assert code == 0
    record = json.loads((fit_dir / "tomo_fit.json").read_text())
    assert record["beta"] == pytest.approx(0.09, abs=0.005)
    assert record["r"] == pytest.approx(0.02, abs=0.005)
    assert record["t_pi_s"] == pytest.approx(50e-9, rel=1e-2)
    assert record["rho_11"] == pytest.approx(record["beta"], rel=1e-12)
    assert 0.0 <= record["fidelity_vs_ground"] <= 1.0
    assert not record["projected"]


def test_tomo_fit_noiseless_defaults(tmp_path):
    # Default synthesis is noiseless; the fit must round-trip through
    # the 12-significant-digit CSV encoding.
    code, paths = run_subcommand("tomo-synth", output_dir=str(tmp_path))
    assert code == 0
    code, _ = run_subcommand(
        "tomo-fit", overrides=(f"tomo.input={paths[0]}",), output_dir=str(tmp_path)
    )
    assert code == 0
    record = json.loads((tmp_path / "tomo_fit.json").read_text())
    assert record["beta"] == pytest.approx(0.09, rel=1e-6)
    assert record["r"] == pytest.approx(0.02, rel=1e-6)
    assert record["t_pi_s"] == pytest.approx(50e-9, rel=1e-6)
    assert record["residual_rms"] < 1e-9
    assert record["fidelity_vs_ground"] == pytest.approx(0.91, abs=1e-6)


def test_exit_code_config_error(tmp_path, capsys):
    code, paths = run_subcommand(
        "stark", overrides=("protocol.t_prep=780",), output_dir=str(tmp_path)
    )
    assert code == 2 and paths == []
    assert "config error" in capsys.readouterr().err
    code, _ = run_subcommand("stark", overrides=("stark.powers=",), output_dir=str(tmp_path))
    assert code == 2
    code, _ = run_subcommand("stark", config_path="/no/such/file.cfg", output_dir=str(tmp_path))
    assert code == 2


def test_exit_code_numerical_error(tmp_path, capsys):
    # A two-angle tomogram is degenerate: identifiability failure maps
    # to the numerical-error exit code.
    code, paths = run_subcommand(
        "tomo-synth", overrides=("tomo.theta_points=2",), output_dir=str(tmp_path)
    )
    assert code == 0
    code, paths = run_subcommand(
        "tomo-fit", overrides=(f"tomo.input={paths[0]}",), output_dir=str(tmp_path)
    )
    assert code == 3 and paths == []
    assert "numerical error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, override",
    [
        ("transfer-peak", "source.frequency=1e300Hz"),
        ("transfer-peak", "source.frequency=1e15Hz"),
        ("transfer-peak", "source.decay_time=1e-300s"),
        ("transfer-curves", "source.decay_time=1e-300s"),
        ("transfer-peak", "capture.decay_time=1e-300s"),
        ("transfer-peak", "source.decay_time=1e300s"),
    ],
)
def test_transfer_overflow_inputs_exit_numerical(tmp_path, capsys, name, override):
    # Rates too large for float64 squares, a decay the quadrature step
    # cannot resolve, or a carrier or a decay so slow that the search
    # needs more than MAX_PEAK_NODES nodes: each ends in exit 3 with one
    # diagnostic line, no artifact.
    code, paths = run_subcommand(name, overrides=(override,), output_dir=str(tmp_path))
    assert code == 3 and paths == []
    err = capsys.readouterr().err
    assert err.startswith("numerical error") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "name, overrides",
    [
        ("transfer-curves", ("transfer.t_max_scaled=1e999",)),
        ("stark", ("stark.powers=1e999,1",)),
        ("depletion", ("depletion.time_stop=1e999s",)),
        ("potential-sweep", ("potential.flux_stop=1e999phi0",)),
        ("rabi", ("rabi.rate=1e999Hz",)),
        ("transfer-curves", ("source.decay_time=1e300s", "transfer.t_max_scaled=1e300")),
        ("potential-sweep", ("potential.flux_start=-1e308Wb", "potential.flux_stop=1e308Wb")),
        ("iq", ("iq.centroid_0=1e308,0", "iq.centroid_1=-1e308,0")),
        ("iq", ("iq.sigma=1e-320",)),
        ("budget", ("iq.sigma=1e-320",)),
    ],
)
def test_non_finite_literal_is_config_error(tmp_path, capsys, name, overrides):
    # A literal that overflows float64 is refused where the config is
    # parsed, a sweep whose finite ends overflow (span or time scale)
    # where the sweep is built, and an IQ model whose d / sigma_eff
    # overflows where the model is built, before any of them can turn
    # into inf or NaN cells.
    code, paths = run_fast(name, tmp_path, overrides)
    assert code == 2 and paths == []
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert "out of float64 range" in err
    assert list(tmp_path.iterdir()) == []


def test_negative_depletion_stop_is_config_error(tmp_path, capsys):
    code, paths = run_subcommand(
        "depletion", overrides=("depletion.time_stop=-1ns",), output_dir=str(tmp_path)
    )
    assert code == 2 and paths == []
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_negative_noise_sigma_is_config_error(tmp_path, capsys):
    code, paths = run_subcommand(
        "tomo-synth", overrides=("tomo.noise_sigma=-0.05",), output_dir=str(tmp_path)
    )
    assert code == 2 and paths == []
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert "noise_sigma" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "column, message",
    [
        (0, "non-finite grid coordinate"),
        (1, "non-finite grid coordinate"),
        (2, "occupations must lie in [0, 1]"),
    ],
)
def test_nan_tomogram_cell_is_config_error(tmp_path, capsys, column, message):
    code, paths = run_subcommand("tomo-synth", output_dir=str(tmp_path / "synth"))
    assert code == 0
    lines = paths[0].read_text().splitlines()
    cells = lines[5].split(",")
    cells[column] = "nan"
    lines[5] = ",".join(cells)
    holed = tmp_path / "holed.csv"
    holed.write_text("\n".join(lines) + "\n")
    out = tmp_path / "fit"
    capsys.readouterr()
    code, paths = run_subcommand(
        "tomo-fit", overrides=(f"tomo.input={holed}",), output_dir=str(out)
    )
    assert code == 2 and paths == []
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: [], "empty tomogram file"),
        (lambda lines: lines[:1], "no data rows"),
        (lambda lines: lines[:3] + [""] + lines[3:], None),
        (lambda lines: lines[:3] + ["0,1e-9"] + lines[3:], "expected 3 columns, got 2"),
        (lambda lines: lines[:3] + ["0,abc,0.5"] + lines[4:], "malformed row"),
        (lambda lines: lines + [lines[3]], "duplicate grid cell"),
        (lambda lines: lines[:-1], "not a complete (angle x duration) product"),
    ],
    ids=["empty", "header-only", "blank-line", "two-columns", "non-numeric", "duplicate-cell", "incomplete"],
)
def test_tomogram_reader_refuses_malformed_files(tmp_path, capsys, tomogram, edit, message):
    # Each malformed file exits 2 with one diagnostic line and no
    # artifact; a blank line is skipped and changes nothing.
    lines = tomogram.read_text().splitlines()
    edited = tmp_path / "edited.csv"
    edited.write_text("".join(line + "\n" for line in edit(lines)))
    out = tmp_path / "fit"
    capsys.readouterr()
    code, paths = run_subcommand("tomo-fit", overrides=(f"tomo.input={edited}",), output_dir=str(out))
    if message is None:
        assert code == 0
        ref_dir = str(tmp_path / "ref")
        code, ref = run_subcommand("tomo-fit", overrides=(f"tomo.input={tomogram}",), output_dir=ref_dir)
        assert code == 0
        assert paths[0].read_bytes() == ref[0].read_bytes()
        return
    assert code == 2 and paths == []
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert message in err
    assert list(out.iterdir()) == []


def test_tomo_fit_reports_phase_in_half_open_interval(tmp_path):
    # This noisy grid of a state with phi near pi fits to a raw phase
    # just above pi, which the fit wraps into (-pi, pi].
    overrides = ("tomo.beta=0.3", "tomo.r=0.2", "tomo.phi=3.14", "tomo.noise_sigma=0.02", "seed=7")
    code, paths = run_subcommand("tomo-synth", overrides=overrides, output_dir=str(tmp_path))
    assert code == 0
    code, paths = run_subcommand("tomo-fit", overrides=(f"tomo.input={paths[0]}",), output_dir=str(tmp_path))
    assert code == 0
    record = json.loads(paths[0].read_text())
    assert -math.pi < record["phi"] <= math.pi


@pytest.mark.parametrize(
    "name, override",
    [
        ("potential-sweep", "device.loop_inductance=1e300H"),
        ("potential-sweep", "device.shunt_capacitance=1e308F"),
        ("transfer-peak", "line.drive_amplitude=1e300V"),
        ("transfer-peak", "line.impedance=1e308ohm"),
        ("stark", "protocol.n_bar_qubit_cavity=1e308"),
        ("budget", "protocol.t1=1e308s"),
        ("ramsey", "ramsey.delay_stop=1e308s"),
        ("rabi", "rabi.duration_stop=1e308s"),
        ("transfer-curves", "transfer.kappa_ratios=1e308"),
        ("iq", "iq.centroid_0=1.4e308,1.4e308 iq.centroid_1=1.5e308,1.5e308 iq.sigma=1e305"),
        ("iq", "iq.centroid_0=0,0 iq.centroid_1=1.79e308,0 iq.sigma=1e306"),
    ],
)
def test_float_overflow_in_computation_exits_numerical(tmp_path, capsys, name, override):
    # Finite inputs whose derived quantities overflow or vanish in
    # float64 end in exit 3 with one line, not a traceback or a numpy
    # warning (the test's warning filter raises those).  An override
    # holds several space-separated settings: the iq rows overflow in the
    # projected threshold of off-axis centroids and in the drawn points.
    code, paths = run_fast(name, tmp_path, override.split())
    assert code == 3 and paths == []
    err = capsys.readouterr().err
    assert err.startswith("numerical error") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_huge_stark_powers_give_finite_rows(tmp_path):
    # Powers are divided by the largest one before scaling, so powers
    # near the float64 limit still map to finite photon numbers.
    code, paths = run_subcommand(
        "stark", overrides=("stark.powers=1e307,1e308",), output_dir=str(tmp_path)
    )
    assert code == 0
    rows = [line.split(",") for line in paths[0].read_text().splitlines()[1:]]
    assert [float(n_bar) for _, n_bar, _ in rows] == [1.0, 10.0]
    assert all(math.isfinite(float(cell)) for row in rows for cell in row)


@pytest.mark.parametrize(
    "name, override",
    [
        ("bifurcation", "device.critical_current=1e300A"),
        ("bifurcation", "device.critical_current=60mA"),
        ("potential-sweep", "device.critical_current=60mA"),
    ],
)
def test_huge_beta_l_is_refused_quickly(tmp_path, capsys, name, override):
    # 60 mA puts beta_L near 2e5, just past MAX_SCAN_CELLS: without the
    # limit the scan would take seconds here (and at 1e300 A the branch
    # loop of critical_flux would not end), so the time bound shows the
    # refusal comes first.
    start = time.perf_counter()
    code, paths = run_fast(name, tmp_path, (override,))
    assert time.perf_counter() - start < 1.0
    assert code == 3 and paths == []
    err = capsys.readouterr().err
    assert err.startswith("numerical error") and err.count("\n") == 1
    assert "scan cells" in err
    assert list(tmp_path.iterdir()) == []


def test_large_beta_l_bifurcation_succeeds(tmp_path):
    # beta_L ~ 1e4: the extremum brackets end on the float spacing of
    # |delta| ~ 1e4, wider than the bisection tolerance.
    code, paths = run_fast("bifurcation", tmp_path, ("device.critical_current=3mA",))
    assert code == 0
    rows = [line.split(",") for line in paths[0].read_text().splitlines()[1:]]
    assert len(rows) == 2
    assert all(abs(int(below) - int(above)) == 1 for _, below, above in rows)


def test_overflowing_tomogram_angle_prints_one_line(tmp_path):
    # A fresh process, so numpy warnings reach stderr as they would for
    # a user instead of being raised by the test's warning filter.
    env = dict(os.environ, PYTHONPATH=str(Path(jpmsim.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "jpmsim.cli", "tomo-synth", "-s", "tomo.duration_stop=1e308s", "-o", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error") and proc.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["stark", "budget", "ramsey", "rabi", "depletion"])
def test_zero_depletion_decay_time_is_config_error(tmp_path, capsys, name):
    code, paths = run_fast(name, tmp_path, ("protocol.depletion_decay_time=0s",))
    assert code == 2 and paths == []
    assert capsys.readouterr().err.startswith("config error")


@pytest.mark.parametrize("name", ["iq", "tomo-synth"])
def test_negative_seed_is_config_error(tmp_path, capsys, name):
    code, paths = run_fast(name, tmp_path, ("seed=-1",))
    assert code == 2 and paths == []
    assert "seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, key",
    [
        ("budget", "budget.n_shots"),
        ("iq", "iq.n_shots"),
        ("potential-sweep", "potential.flux_points"),
        ("transfer-curves", "transfer.time_points"),
        ("ramsey", "ramsey.delay_points"),
        ("rabi", "rabi.duration_points"),
        ("depletion", "depletion.time_points"),
        ("tomo-synth", "tomo.theta_points"),
        ("tomo-synth", "tomo.duration_points"),
    ],
)
def test_size_too_large_to_allocate_exits_numerical(tmp_path, capsys, name, key):
    # 10^15 elements exceed any address space: the shot paths refuse
    # more than MAX_SHOT_DRAWS uniforms before drawing, and elsewhere the
    # first allocation of that size fails at once; neither ends in a
    # traceback.
    code, paths = run_subcommand(name, overrides=(f"{key}=1000000000000000",), output_dir=str(tmp_path))
    assert code == 3 and paths == []
    err = capsys.readouterr().err
    assert err.startswith("numerical error") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "name, overrides",
    [
        ("budget", ("budget.n_shots=100000001",)),
        ("iq", ("iq.n_shots=250000001",)),
        ("iq", ("iq.n_shots=1", "iq.n_samples=250000001")),
    ],
)
def test_shot_count_above_draw_bound_is_refused_quickly(tmp_path, capsys, name, overrides):
    # Each is the smallest count past MAX_SHOT_DRAWS = 10^9 uniforms
    # (2 x 10^8 budget shots of 5 draws, 5 x 10^8 iq shots of 2, or 2 iq
    # shots of 5 x 10^8): drawing that many would take seconds and
    # building the iq labels hundreds of MB, so the time bound shows the
    # refusal comes first.
    start = time.perf_counter()
    code, paths = run_subcommand(name, overrides=overrides, output_dir=str(tmp_path))
    assert time.perf_counter() - start < 0.5
    assert code == 3 and paths == []
    err = capsys.readouterr().err
    assert err.startswith("numerical error") and err.count("\n") == 1
    assert "uniform draws" in err
    assert list(tmp_path.iterdir()) == []


def test_iq_threshold_of_centroids_near_float64_limit(tmp_path):
    # c0 + c1 = 2.7e308 overflows, but the midpoint c0 + (c1 - c0) / 2
    # does not; d / sigma = 70 classifies every shot correctly.
    overrides = ("iq.centroid_0=1e308,0", "iq.centroid_1=1.7e308,0", "iq.sigma=1e306", "iq.n_shots=1000")
    code, paths = run_subcommand("iq", overrides=overrides, output_dir=str(tmp_path))
    assert code == 0
    record = json.loads(paths[0].read_text())
    assert record["threshold"] == pytest.approx(1.35e308, rel=1e-15)
    assert record["single_shot_fidelity"] == 1.0


def test_exit_code_io_error(tmp_path, capsys):
    code, paths = run_subcommand(
        "tomo-fit",
        overrides=("tomo.input=/no/such/tomogram.csv",),
        output_dir=str(tmp_path),
    )
    assert code == 4 and paths == []
    assert "i/o error" in capsys.readouterr().err


def test_failed_write_leaves_no_partial_file(tmp_path, capsys, monkeypatch):
    older = tmp_path / "older"
    code, paths = run_subcommand("stark", output_dir=str(older))
    assert code == 0
    older_bytes = paths[0].read_bytes()

    real_writer = csv.writer

    class FailingWriter:
        # Writes the header row, then fails on the data rows, so the
        # write fails part way through the file.
        def __init__(self, fh, **kwargs):
            self._writer = real_writer(fh, **kwargs)

        def writerow(self, row):
            return self._writer.writerow(row)

        def writerows(self, rows):
            raise OSError("disk full")

    monkeypatch.setattr(jpmsim.cli.csv, "writer", FailingWriter)
    capsys.readouterr()
    for out in (tmp_path / "fresh", older):
        code, paths = run_subcommand("stark", output_dir=str(out))
        assert code == 4 and paths == []
        err = capsys.readouterr().err
        assert err.startswith("i/o error") and err.count("\n") == 1
    assert list((tmp_path / "fresh").iterdir()) == []
    assert [p.name for p in older.iterdir()] == ["stark.csv"]
    assert (older / "stark.csv").read_bytes() == older_bytes


_SCIPY_PROBE = """
import contextlib, io, json, sys
import jpmsim
root = [
    jpmsim.__version__,
    jpmsim.potential.find_extrema_sweep.__name__,
    jpmsim.protocol.fidelity_budget.__name__,
    hasattr(jpmsim, "fidelity_budget"),
]
import jpmsim.cli
from jpmsim.cli import run_subcommand

out, runs = sys.argv[1], json.loads(sys.argv[2])
with contextlib.redirect_stdout(io.StringIO()):
    codes = {name: run_subcommand(name, overrides=sets, output_dir=out)[0] for name, sets in runs}
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"root": root, "codes": codes, "scipy": scipy}))
"""


def _probe_scipy(tmp_path, names):
    runs = [(name, list(FAST.get(name, ()))) for name in names]
    env = dict(os.environ, PYTHONPATH=str(Path(jpmsim.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path), json.dumps(runs)],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return json.loads(proc.stdout)


def test_scipy_loaded_only_by_iq_and_tomo_fit(tmp_path):
    # Fresh processes: importing jpmsim and running the subcommands that
    # need no scipy function (budget included: it reads only the switch
    # draws) loads no scipy module at all; iq, probed on its own, loads
    # scipy.special (ndtri, erfc) but not scipy.optimize.  `import
    # jpmsim` alone reaches the version and the layer modules, and
    # re-exports no name of theirs.
    free = [name for name in SUBCOMMANDS if name not in ("iq", "tomo-fit")]
    report = _probe_scipy(tmp_path / "free", free)
    assert report["root"] == [jpmsim.__version__, "find_extrema_sweep", "fidelity_budget", False]
    assert report["codes"] == {name: 0 for name in free}
    assert report["scipy"] == []
    report = _probe_scipy(tmp_path / "special", ["iq"])
    assert report["codes"] == {"iq": 0}
    assert "scipy.special" in report["scipy"]
    assert "scipy.optimize" not in report["scipy"]


def test_output_directory_resolution(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    cfg_dir = tmp_path / "from_cfg"
    flag_dir = tmp_path / "from_flag"

    monkeypatch.setenv("JPMSIM_OUTPUT_DIR", str(env_dir))
    code, paths = run_subcommand("stark")
    assert code == 0 and paths[0].parent == env_dir

    code, paths = run_subcommand("stark", overrides=(f"output.directory={cfg_dir}",))
    assert code == 0 and paths[0].parent == cfg_dir

    code, paths = run_subcommand(
        "stark", overrides=(f"output.directory={cfg_dir}",), output_dir=str(flag_dir)
    )
    assert code == 0 and paths[0].parent == flag_dir

    monkeypatch.delenv("JPMSIM_OUTPUT_DIR")
    work = tmp_path / "cwd"
    work.mkdir()
    monkeypatch.chdir(work)
    code, paths = run_subcommand("stark")
    assert code == 0 and paths[0].parent.resolve() == work.resolve()


def test_json_table_format(tmp_path):
    code, _ = run_subcommand(
        "stark", overrides=("output.format=json",), output_dir=str(tmp_path)
    )
    assert code == 0
    rows = json.loads((tmp_path / "stark.json").read_text())
    assert isinstance(rows, list) and len(rows) == 10
    assert rows[-1]["power (1)"] == 1.0
    assert rows[-1]["n_bar (1)"] == 10.0


def test_main_entry_point(tmp_path, capsys):
    assert main(["stark", "-o", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert f"wrote {tmp_path}" in out
    assert main(["stark", "-s", "protocol.t_prep=780", "-o", str(tmp_path)]) == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_main_config_flag(tmp_path):
    doc = tmp_path / "run.cfg"
    doc.write_text("stark.powers = 0.5,1\n")
    assert main(["stark", "-c", str(doc), "-o", str(tmp_path)]) == 0
    lines = (tmp_path / "stark.csv").read_text().splitlines()
    assert len(lines) == 3  # header + two rows


def test_transfer_curves_labels(tmp_path):
    code, _ = run_subcommand("transfer-curves", output_dir=str(tmp_path))
    assert code == 0
    lines = (tmp_path / "transfer_curves.csv").read_text().splitlines()
    labels = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert "kappa_ratio=1" in labels
    assert "detuning_ratio=0.5" in labels
    # Both families empty is a config error.
    code, _ = run_subcommand(
        "transfer-curves",
        overrides=("transfer.kappa_ratios=", "transfer.detuning_ratios="),
        output_dir=str(tmp_path),
    )
    assert code == 2


def test_potential_sweep_contents(tmp_path):
    code, _ = run_subcommand(
        "potential-sweep",
        overrides=("potential.flux_points=3", "potential.flux_stop=0.5phi0"),
        output_dir=str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "potential_sweep.csv").read_text().splitlines()
    assert lines[0].split(",")[0] == "flux (phi0)"
    # Flux 0 is single-welled: the barrier column holds nan and the
    # height column inf.
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == "1"
    assert first[4] == "nan"
    assert first[5] == "inf"
    # Half flux: two rows (left and right wells) at the same bias.
    half_rows = [line for line in lines[1:] if line.startswith("0.5,")]
    assert len(half_rows) == 2


def test_bifurcation_artifact(tmp_path):
    code, _ = run_subcommand("bifurcation", output_dir=str(tmp_path))
    assert code == 0
    lines = (tmp_path / "bifurcation.csv").read_text().splitlines()
    assert lines[0] == "critical_flux (phi0),minima_below (1),minima_above (1)"
    assert len(lines) == 3
    for line in lines[1:]:
        _, below, above = line.split(",")
        assert abs(int(below) - int(above)) == 1


def _reference_cell(value) -> str:
    # The per-cell CSV formatting the columnar writer replaced.
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.12g" % value
    return str(value)


def _reference_native(value):
    # The per-value JSON conversion the columnar writer replaced.
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _reference_bytes(header, data, file_format: str) -> bytes:
    """The artifact bytes of a row-at-a-time writer, given the same data."""
    out = io.StringIO(newline="")
    if header is not None and file_format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in zip(*data):
            writer.writerow([_reference_cell(cell) for cell in row])
    else:
        if header is None:
            payload = {key: _reference_native(value) for key, value in data.items()}
        else:
            payload = [
                {column: _reference_native(cell) for column, cell in zip(header, row)}
                for row in zip(*data)
            ]
        json.dump(payload, out, indent=2)
        out.write("\n")
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize(
    "overrides",
    [
        (),
        ("device.critical_current=0.1uA",),
        ("ramsey.n_shots=100", "rabi.n_shots=50", "tomo.n_shots=200"),
        ("transfer.kappa_ratios=",),
        ("stark.powers=0,0.5,1",),
        ("potential.flux_points=1200", "device.critical_current=3uA"),
    ],
)
def test_writer_matches_per_cell_reference(tmp_path, overrides):
    # tomo-fit reads the tomogram.csv that tomo-synth writes before it
    # (csv is written last).
    cfg = RunConfig.from_sources(overrides=overrides + (f"tomo.input={tmp_path / 'tomogram.csv'}",))
    for name, spec in jpmsim.cli._SUBCOMMANDS.items():
        data = spec.compute(cfg)
        if name == "bifurcation":
            # At 0.1 uA, beta_L < 1: no critical flux, an empty table.
            assert (len(data[0]) == 0) == ("device.critical_current=0.1uA" in overrides)
        for file_format in ("json", "csv"):
            path = jpmsim.cli._write(tmp_path, spec.stem, spec.header, data, file_format)
            assert path.read_bytes() == _reference_bytes(spec.header, data, file_format), (
                name,
                file_format,
            )


def _edge_literals(key):
    # Zero, negative, overflowing and underflowing numbers (with the
    # key's base unit where it has one), "none" and the empty value;
    # for integer keys also a size too large to allocate.
    kind = SCHEMA[key].kind.removeprefix("list:")
    unit = next(iter(_UNIT_TABLES[kind])) if kind in _UNIT_TABLES else ""
    oversized = ["1000000000000000"] if kind == "int" else []
    return [number + unit for number in ("0", "-1", "1e999", "1e-999")] + ["none", ""] + oversized


@pytest.fixture(scope="module")
def tomogram(tmp_path_factory):
    out = tmp_path_factory.mktemp("tomogram")
    code, paths = run_subcommand("tomo-synth", output_dir=str(out))
    assert code == 0
    return paths[0]


@pytest.fixture(scope="module")
def keys_read(tomogram, tmp_path_factory):
    # The config keys each subcommand reads, recorded by wrapping
    # RunConfig.get during one default run of it.  output.directory is
    # left out: an edge literal would name a directory outside the
    # test's own temporary one.
    out = tmp_path_factory.mktemp("keys_read")
    read = {}
    get = RunConfig.get
    with pytest.MonkeyPatch.context() as patch:
        for name in SUBCOMMANDS:
            seen = set()
            patch.setattr(RunConfig, "get", lambda self, key: seen.add(key) or get(self, key))
            with contextlib.redirect_stdout(io.StringIO()):
                code, _ = run_subcommand(name, overrides=[f"tomo.input={tomogram}"], output_dir=str(out))
            assert code == 0
            read[name] = sorted(seen - {"output.directory"})
    return read


def _edge_pairs(keys):
    return st.sampled_from(keys).flatmap(lambda key: st.tuples(st.just(key), st.sampled_from(_edge_literals(key))))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_edge_inputs_end_in_artifact_or_documented_exit(tomogram, keys_read, data):
    # Each example sets one to three keys that its subcommand reads.
    name = data.draw(st.sampled_from(SUBCOMMANDS), label="name")
    pairs = data.draw(
        st.lists(_edge_pairs(keys_read[name]), min_size=1, max_size=3, unique_by=lambda pair: pair[0]),
        label="pairs",
    )
    # Small shot counts keep each example fast; drawn pairs replace them.
    values = {"budget.n_shots": "10000", "iq.n_shots": "1000", "tomo.input": str(tomogram)}
    values.update(pairs)
    overrides = [f"{key}={text}" for key, text in values.items()]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        with contextlib.redirect_stdout(io.StringIO()):
            code, paths = run_subcommand(name, overrides=overrides, output_dir=out)
        assert code in (0, 2, 3, 4)
        if code == 0:
            assert len(paths) == 1 and paths[0].exists()
        else:
            assert paths == [] and os.listdir(out) == []
            assert err.getvalue().count("\n") == 1
