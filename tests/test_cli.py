"""Tests for the config parser and the CLI subcommands.

Each subcommand is exercised through run_subcommand into a temp
directory; determinism is asserted byte for byte.  Config parsing is
tested value by value against the documented unit conventions.
"""

from __future__ import annotations

import ast
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import jpmsim.cli
import jpmsim.config
import artifact_digests
from artifact_digests import BYTE_CONFIGS
from jpmsim.cli import main, run_subcommand
from jpmsim.config import _UNIT_TABLES, RunConfig, SCHEMA, parse_value
from jpmsim.errors import PHASE_LIMIT, ArgumentError, ConfigError, NumericalError, sin_cos
from jpmsim.potential import PHI0, critical_flux, well_report_sweep
from jpmsim.protocol import (
    DEFAULT_DEPLETION_RATE,
    IqModel,
    ProtocolConfig,
    depletion_recovery,
    fidelity_budget,
    iq_fidelity,
    rabi_chevron,
    ramsey_fringe,
    stark_calibration,
)
from jpmsim.tomography import DensityMatrix2, TomogramGrid, expected_occupation, fit_tomogram, synthesize_tomogram
from jpmsim.transfer import efficiency, peak_efficiency

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
    assert cfg.get("potential.flux_start") == pytest.approx(0.5 * PHI0, rel=1e-15)


def test_config_defaults_match_module_defaults():
    # The field defaults of the protocol and IQ dataclasses equal the
    # config's; the device has none, so the config is its one default.
    cfg = RunConfig.from_sources()
    assert cfg.protocol_config() == ProtocolConfig()
    assert cfg.iq_model() == IqModel()
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
        "line.impedance=50ohm",
        "line.drive_amplitude=1V",
        "iq.n_samples=2",
        "output.directory=out",
    ],
)
def test_removed_keys_are_unknown(line):
    # These keys fed no result (the line keys only an echo of themselves,
    # as the efficiencies are free of the line's scale), or, as
    # iq.n_samples, what iq.sigma alone now sets, or, as output.directory,
    # what -o alone now sets; a config that still sets one fails like any
    # other unknown key.
    with pytest.raises(ConfigError, match="unknown key"):
        RunConfig.from_sources(overrides=(line,))


def test_every_schema_key_is_read_by_a_subcommand(tmp_path, monkeypatch):
    # A key that no subcommand reads at the default config would be
    # validated and then ignored.  tomo-fit reads the tomogram that
    # tomo-synth wrote.
    read = set()
    get = RunConfig.get

    def recording_get(self, key):
        read.add(key)
        return get(self, key)

    monkeypatch.setattr(RunConfig, "get", recording_get)
    tomogram = tmp_path / ARTIFACTS["tomo-synth"]
    for name in SUBCOMMANDS:
        code, _ = run_subcommand(name, overrides=(f"tomo.input={tomogram}",), output_dir=str(tmp_path))
        assert code == 0, name
    assert sorted(set(SCHEMA) - read) == []


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


def test_override_value_keeps_its_hash(tmp_path):
    # '#' starts a comment in a config file only: an override's value is
    # everything after its first '=', so tomo.input reads a path with a
    # '#'; the output directory, given as output_dir, takes one too.
    out = tmp_path / "out#1"
    code, synth = run_subcommand("tomo-synth", output_dir=str(out))
    assert code == 0 and synth == [out / ARTIFACTS["tomo-synth"]]
    tomogram = tmp_path / "x#y.csv"
    synth[0].rename(tomogram)
    code, fit = run_subcommand("tomo-fit", overrides=(f"tomo.input={tomogram}",), output_dir=str(out))
    assert code == 0 and fit == [out / ARTIFACTS["tomo-fit"]]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out#1", "x#y.csv"]


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


def _decimal_scaled(number: str, kind: str, unit: str) -> float:
    # The reference unit scaling: the 60-digit Decimal product of the
    # number and the repr of each factor (afreq's 2 pi too), rounded to
    # float once.
    factors = [_UNIT_TABLES[kind][unit]] + ([2.0 * math.pi] if kind == "afreq" else [])
    with localcontext() as ctx:
        ctx.prec = 60
        product = Decimal(number)
        for factor in factors:
            product *= Decimal(repr(factor))
        return float(product)


def _assert_same_float(got: float, want: float):
    # float.hex tells -0.0 from 0.0; copysign says so in its own words.
    assert got.hex() == want.hex()
    assert math.copysign(1.0, got) == math.copysign(1.0, want)


_UNITS = [(kind, unit) for kind, table in _UNIT_TABLES.items() for unit in table]


@st.composite
def _numerals(draw):
    # A sign, 1-40 digits with or without a point, an optional exponent.
    sign = draw(st.sampled_from(["", "+", "-"]))
    digits = draw(st.text("0123456789", min_size=1, max_size=40))
    point = draw(st.none() | st.integers(0, len(digits)))
    if point is not None:
        digits = digits[:point] + "." + digits[point:]
    exponent = draw(st.none() | st.integers(-345, 345))
    mark = draw(st.sampled_from("eE"))
    return sign + digits + ("" if exponent is None else f"{mark}{exponent}")


@settings(derandomize=True, database=None, max_examples=1500, deadline=None)
@given(number=_numerals(), unit=st.sampled_from(_UNITS))
def test_unit_scaling_matches_decimal_reference(number, unit):
    # The exact integer product rounds to the float the Decimal product
    # gives, for every unit of every kind, zeros and overflows included.
    kind, name = unit
    got = jpmsim.config._scaled(number, jpmsim.config._UNIT_FACTORS[kind][name])
    _assert_same_float(got, _decimal_scaled(number, kind, name))


def test_schema_defaults_match_decimal_reference():
    for key, spec in SCHEMA.items():
        kind = spec.kind.removeprefix("list:")
        if kind not in _UNIT_TABLES or spec.default == "none":
            continue
        values = parse_value(spec.default, spec, key)
        parts = spec.default.split(",")
        if not spec.kind.startswith("list:"):
            values = (values,)
        assert len(values) == len(parts), key
        for value, part in zip(values, parts):
            number, unit = jpmsim.config._NUMBER_RE.fullmatch(part).groups()
            _assert_same_float(value, _decimal_scaled(number, kind, unit))


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


def test_budget_does_not_read_the_iq_model(tmp_path):
    # No IQ model changes a shot's draws, so budget builds none: an IQ
    # model that iq refuses leaves its bytes as they are.
    assert run_fast("budget", tmp_path / "a")[0] == 0
    assert run_fast("budget", tmp_path / "b", ("iq.sigma=1e-320", "iq.centroid_1=0,0"))[0] == 0
    assert (tmp_path / "a" / "budget.json").read_bytes() == (tmp_path / "b" / "budget.json").read_bytes()


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


def test_tomo_fit_equatorial_state(tmp_path):
    # At beta = 1/2 the theta-averaged trace is flat; the fit still finds
    # t_pi and r from the noiseless file.
    code, paths = run_subcommand(
        "tomo-synth", overrides=("tomo.beta=0.5", "tomo.r=0.5", "tomo.phi=0"), output_dir=str(tmp_path)
    )
    assert code == 0
    code, _ = run_subcommand(
        "tomo-fit", overrides=(f"tomo.input={paths[0]}",), output_dir=str(tmp_path)
    )
    assert code == 0
    record = json.loads((tmp_path / "tomo_fit.json").read_text())
    assert record["t_pi_s"] == pytest.approx(50e-9, rel=1e-6)
    assert record["beta"] == pytest.approx(0.5, rel=1e-6)
    assert record["r"] == pytest.approx(0.5, rel=1e-6)
    assert record["residual_rms"] < 1e-9


def test_tomo_fit_span_off_whole_periods(tmp_path):
    # Durations up to 140 ns span 2.8 t_pi: an unpadded spectrum's bins,
    # 1/span apart, seed t_pi near 0.7 or 1.4 times its value.
    code, paths = run_subcommand(
        "tomo-synth", overrides=("tomo.duration_stop=140ns", "tomo.r=0.2"), output_dir=str(tmp_path)
    )
    assert code == 0
    code, _ = run_subcommand(
        "tomo-fit", overrides=(f"tomo.input={paths[0]}",), output_dir=str(tmp_path)
    )
    assert code == 0
    record = json.loads((tmp_path / "tomo_fit.json").read_text())
    assert record["t_pi_s"] == pytest.approx(50e-9, rel=1e-6)
    assert record["beta"] == pytest.approx(0.09, rel=1e-6)
    assert record["r"] == pytest.approx(0.2, rel=1e-6)
    assert record["residual_rms"] < 1e-9


def test_flat_tomogram_is_refused(tmp_path, capsys):
    # beta = 1/2 with r = 0 gives a constant surface, which holds no t_pi.
    out = tmp_path / "fit"
    code, paths = run_subcommand(
        "tomo-synth", overrides=("tomo.beta=0.5", "tomo.r=0", "tomo.theta_points=4"), output_dir=str(tmp_path)
    )
    assert code == 0
    code, fitted = run_subcommand("tomo-fit", overrides=(f"tomo.input={paths[0]}",), output_dir=str(out))
    assert code == 3 and fitted == []
    err = capsys.readouterr().err
    assert err.startswith("numerical error") and err.count("\n") == 1
    assert "flat tomogram" in err
    assert not out.exists()


def test_two_duration_tomogram_is_refused(tmp_path, capsys):
    # Two durations hold no full period 2 t_pi sampled above the Nyquist
    # rate; seeded at span/2, the fit once wrote t_pi = 55 ns with exit 0.
    out = tmp_path / "fit"
    overrides = (
        "tomo.beta=0.3",
        "tomo.r=0.2",
        "tomo.phi=0.5",
        "tomo.duration_points=2",
        "tomo.duration_stop=110ns",
    )
    code, paths = run_subcommand("tomo-synth", overrides=overrides, output_dir=str(tmp_path))
    assert code == 0
    code, fitted = run_subcommand("tomo-fit", overrides=(f"tomo.input={paths[0]}",), output_dir=str(out))
    assert code == 3 and fitted == []
    err = capsys.readouterr().err
    assert err.startswith("numerical error") and err.count("\n") == 1
    assert "4 distinct pulse durations" in err
    assert not (out / "tomo_fit.json").exists()


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
        ("transfer-peak", "capture.decay_time=1e-300s"),
        ("transfer-peak", "source.decay_time=1e300s"),
        ("transfer-peak", "capture.decay_time=30ms"),
    ],
)
def test_transfer_overflow_inputs_exit_numerical(tmp_path, capsys, name, override):
    # A decay the quadrature step cannot resolve, or a carrier or a
    # decay so slow that the search needs more than MAX_PEAK_NODES
    # nodes: each ends in exit 3 with one diagnostic line, no artifact.
    code, paths = run_subcommand(name, overrides=(override,), output_dir=str(tmp_path))
    assert code == 3 and paths == []
    err = capsys.readouterr().err
    assert err.startswith("numerical error") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def _json_rows(name, out_dir, overrides=()):
    code, paths = run_subcommand(name, overrides=("output.format=json",) + tuple(overrides), output_dir=str(out_dir))
    assert code == 0
    return json.loads(paths[0].read_text())


def test_transfer_curves_at_a_decay_rate_whose_square_overflows(tmp_path):
    # A 1e-300 s source decay time makes kappa_1 = 1e300/s.  eta depends
    # only on kappa_1 t and the rate ratios, so every family matches the
    # default run's.
    rows = _json_rows("transfer-curves", tmp_path / "short", ("source.decay_time=1e-300s",))
    ref = _json_rows("transfer-curves", tmp_path / "ref")
    assert [row["label"] for row in rows] == [row["label"] for row in ref]
    for key in ("t_kappa1 (1)", "efficiency (1)"):
        got = np.array([row[key] for row in rows])
        want = np.array([row[key] for row in ref])
        assert np.allclose(got, want, rtol=1e-9, atol=0.0), key


@pytest.mark.parametrize("ratio", ["1e-154", "1e-160"])
def test_near_zero_detuning_is_the_matched_curve_or_refused(tmp_path, capsys, ratio):
    # Down to the ratio where (kappa_1 / s)^2 still fits in float64 the
    # detuned rows equal the matched ones, although sin^2 of the phase
    # is subnormal at the early rows; below it the run is refused (exit
    # 3), not written off the curve.
    overrides = ("transfer.kappa_ratios=1", f"transfer.detuning_ratios={ratio}", "output.format=json")
    code, paths = run_subcommand("transfer-curves", overrides=overrides, output_dir=str(tmp_path))
    if ratio == "1e-160":
        assert code == 3 and paths == []
        err = capsys.readouterr().err
        assert err.startswith("numerical error") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []
        return
    assert code == 0
    rows = json.loads(paths[0].read_text())
    matched = np.array([row["efficiency (1)"] for row in rows if row["label"] == "kappa_ratio=1"])
    detuned = np.array([row["efficiency (1)"] for row in rows if row["label"] == f"detuning_ratio={ratio}"])
    assert matched.size == detuned.size == 400
    assert np.max(np.abs(detuned - matched)) <= 1e-9


TRANSFER_PEAK_KEYS = [
    "eta_peak",
    "t_opt_s",
    "eta_matched_bound",
    "eta_kappa_closed_form",
    "t_opt_kappa_closed_form_s",
    "eta_freq_closed_form",
    "t_opt_freq_closed_form_s",
    "emitted_energy_J",
]


@pytest.mark.parametrize(
    "overrides",
    [
        ("capture.decay_time=260ns",),
        (),
        ("capture.decay_time=260ns", "capture.frequency=5.021GHz"),
        ("capture.frequency=5.021GHz",),
    ],
    ids=["matched", "kappa-mismatch", "detuned", "both-mismatches"],
)
def test_transfer_peak_record_contract(tmp_path, overrides):
    # The record's keys, their order and which of them may be null are
    # what readers of transfer_peak.json rely on.  eta_peak, the numeric
    # peak, agrees with the closed form that applies: the freq closed
    # form for equal rates, the kappa one for equal frequencies, and a
    # dense grid over the envelope when both mismatches are present.
    tc = RunConfig.from_sources(overrides=overrides).transfer_config()
    k1, k2, dw = tc.source.decay_rate, tc.target.decay_rate, tc.delta_omega
    record = _json_rows("transfer-peak", tmp_path, overrides)
    assert list(record) == TRANSFER_PEAK_KEYS
    freq_pair = ("eta_freq_closed_form", "t_opt_freq_closed_form_s")
    for key in TRANSFER_PEAK_KEYS:
        if key in freq_pair and k1 != k2:
            assert record[key] is None, key
        else:
            assert isinstance(record[key], float) and math.isfinite(record[key]), key
    if k1 == k2:
        closed = record["eta_freq_closed_form"]
    elif dw == 0.0:
        closed = record["eta_kappa_closed_form"]
    else:
        closed = float(np.max(efficiency(np.linspace(0.0, 20.0 / min(k1, k2), 200_001), k1, k2, dw)))
    assert abs(record["eta_peak"] - closed) <= 1e-4


@pytest.mark.parametrize(
    "overrides, kappa_1",
    [((), 1.0 / 260e-9), (("source.decay_time=130ns",), 1.0 / 130e-9)],
    ids=["default", "double-kappa"],
)
def test_transfer_peak_emitted_energy(tmp_path, overrides, kappa_1):
    # V0^2 / (2 kappa_1 Z0) of the nominal 1 V drive on 50 ohm: 2.6 nJ at
    # the default 260 ns.
    record = _json_rows("transfer-peak", tmp_path, overrides)
    assert record["emitted_energy_J"] == pytest.approx(1.0 / (2.0 * kappa_1 * 50.0), rel=1e-12)
    if not overrides:
        assert record["emitted_energy_J"] == pytest.approx(2.6e-9, rel=1e-12)


@pytest.mark.parametrize(
    "override", ["line.impedance=0ohm", "line.impedance=-50ohm", "line.drive_amplitude=-1V"]
)
def test_transfer_peak_refuses_line_values(tmp_path, capsys, override):
    # No key sets the line's scale any more: a line value, valid or not,
    # is refused as an unknown key with one line naming it, and no file.
    code, paths = run_fast("transfer-peak", tmp_path, (override,))
    assert code == 2 and paths == []
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert f"unknown key {override.split('=')[0]!r}" in err
    assert list(tmp_path.iterdir()) == []


# Each row: subcommand, overrides and the start of its line after "config error: ".
_NON_FINITE = [
    ("transfer-curves", ("transfer.t_max_scaled=1e999",), "transfer.t_max_scaled: "),
    ("stark", ("stark.powers=1e999,1",), "stark.powers: "),
    ("depletion", ("depletion.time_stop=1e999s",), "depletion.time_stop: "),
    ("potential-sweep", ("potential.flux_stop=1e999phi0",), "potential.flux_stop: "),
    ("rabi", ("rabi.rate=1e999Hz",), "rabi.rate: "),
    (
        "transfer-curves",
        ("source.decay_time=1e300s", "transfer.t_max_scaled=1e300"),
        "transfer.t_max_scaled and source.decay_time: sweep from 0 to inf ",
    ),
    (
        "potential-sweep",
        ("potential.flux_start=-1e308Wb", "potential.flux_stop=1e308Wb"),
        "potential.flux_start and potential.flux_stop: sweep from -1e+308 to 1e+308 ",
    ),
    ("iq", ("iq.centroid_0=1e308,0", "iq.centroid_1=-1e308,0"), "iq section invalid: "),
    ("iq", ("iq.sigma=1e-320",), "iq section invalid: "),
    ("stark", ("protocol.t_prep=1e1000000s",), "protocol.t_prep: "),
    ("tomo-synth", ("tomo.t_pi=1e308s",), "tomo.t_pi: sweep from 0 to inf "),
]


@pytest.mark.parametrize(
    "name, overrides, named", _NON_FINITE, ids=[f"{row[0]}-overrides{i}" for i, row in enumerate(_NON_FINITE)]
)
def test_non_finite_literal_is_config_error(tmp_path, capsys, name, overrides, named):
    # A literal that overflows float64 is refused where the config is
    # parsed, a sweep whose finite ends overflow (span or time scale)
    # where the sweep is built, and an IQ model whose d / sigma
    # overflows where the model is built, before any of them can turn
    # into inf or NaN cells.  Each line names the key or keys at fault,
    # the config section for the IQ model; a span's line names the keys
    # that set its ends, for the default tomogram duration end
    # 2.2 tomo.t_pi tomo.t_pi.  (A rotation angle that overflows is a
    # phase past 2^30 rad: exit 3, test_overflow_refusal_names_the_key_at_fault.)
    code, paths = run_fast(name, tmp_path, overrides)
    assert code == 2 and paths == []
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {named}") and err.count("\n") == 1, err
    assert "out of float64 range" in err
    assert list(tmp_path.iterdir()) == []


_LONG = "1" * (sys.get_int_max_str_digits() + 1)
_TOO_LONG = f"a number or exponent has more than {sys.get_int_max_str_digits()} digits"


@pytest.mark.parametrize(
    "name, override, message",
    [
        ("stark", "protocol.t_prep=1e-999999999999ns", "must be finite and positive, got 0.0"),
        ("stark", "protocol.t_prep=-1e-999999999999999999999999ns", "must be finite and positive, got -0.0"),
        ("stark", f"protocol.t_prep=0.{_LONG}ns", f"config error: protocol.t_prep: {_TOO_LONG}\n"),
        ("stark", f"protocol.t_prep=1e{_LONG}ns", f"config error: protocol.t_prep: {_TOO_LONG}\n"),
        ("budget", f"budget.n_shots={_LONG}", f"config error: budget.n_shots: {_TOO_LONG}\n"),
    ],
    ids=["tiny", "tiny-negative", "long-digits", "long-exponent", "long-int"],
)
def test_extreme_literal_is_config_error(tmp_path, capsys, name, override, message):
    # An exponent far below float64 scales to a zero, which the protocol
    # refuses, without a long computation.  A number or exponent with
    # more digits than the interpreter converts to an int is refused on
    # one line that names the key, for a unit key as for an int key, even
    # where its value (about 0.11 ns) is in range.
    start = time.perf_counter()
    code, paths = run_subcommand(name, overrides=(override,), output_dir=str(tmp_path))
    assert time.perf_counter() - start < 5.0
    assert code == 2 and paths == []
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert message in err
    assert list(tmp_path.iterdir()) == []


def test_negative_depletion_stop_is_config_error(tmp_path, capsys):
    # A negative end of a time axis is refused in one line naming its
    # key, before anything is written.
    for name, override, argument, seconds in (
        ("depletion", "depletion.time_stop=-1ns", "t_dep", "-1e-09"),
        ("ramsey", "ramsey.delay_stop=-1us", "delays", "-1e-06"),
        ("rabi", "rabi.duration_stop=-1us", "durations", "-1e-06"),
    ):
        code, paths = run_subcommand(name, overrides=(override,), output_dir=str(tmp_path))
        assert code == 2 and paths == []
        key = override.split("=")[0]
        assert capsys.readouterr().err == f"config error: {key}: {argument} must be non-negative, got {seconds}\n"
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "name, key, line",
    [
        ("ramsey", "ramsey.detunings", "ramsey.detunings is an empty sweep list"),
        ("rabi", "rabi.detunings", "rabi.detunings is an empty sweep list"),
        ("stark", "stark.powers", "stark.powers: drive_powers must be non-empty"),
    ],
    ids=["ramsey-ramsey.detunings", "rabi-rabi.detunings", "stark-stark.powers"],
)
def test_empty_sweep_list_is_config_error(tmp_path, capsys, name, key, line):
    # An empty detuning or power list is refused in one line naming its
    # key, before anything is written.
    code, paths = run_fast(name, tmp_path, (f"{key}=",))
    assert code == 2 and paths == []
    assert capsys.readouterr().err == f"config error: {line}\n"
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
    "override",
    ["tomo.duration_stop=0s", "tomo.duration_stop=-1s", "tomo.duration_stop=1e-322s", "tomo.t_pi=0s"],
)
def test_tomo_synth_refuses_durations_not_strictly_increasing(tmp_path, capsys, override):
    # Equal durations would write a grid whose repeated cells tomo-fit
    # refuses (1e-322 s is 20 subnormal steps, too few for 33 points);
    # the key that set the span is named before anything is written.
    code, paths = run_subcommand("tomo-synth", overrides=(override,), output_dir=str(tmp_path))
    assert code == 2 and paths == []
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert "not strictly increasing" in err and override.split("=")[0] in err
    assert list(tmp_path.iterdir()) == []


def test_run_subcommand_refuses_an_unknown_name(tmp_path, capsys):
    # main's parser offers only the table's names; a direct call with any
    # other exits 2 on one line, before any config is read or file written.
    assert run_subcommand("tomo_fit", output_dir=str(tmp_path / "out")) == (2, [])
    assert capsys.readouterr().err == "unknown subcommand 'tomo_fit'\n"
    assert list(tmp_path.iterdir()) == []


def test_refused_run_creates_no_output_directory(tmp_path, capsys):
    # The output directory is created only when an artifact is written,
    # so a refused run leaves no trace of a mistyped -o path.
    new = tmp_path / "new" / "dir"
    assert main(["tomo-synth", "-s", "tomo.t_pi=0s", "-o", str(new)]) == 2
    assert "config error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert main(["tomo-synth", "-o", str(new)]) == 0
    assert [path.name for path in new.iterdir()] == ["tomogram.csv"]


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
    assert not out.exists()


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
        (lambda lines: lines[1:], "starts with a data row, not a header"),
        (
            lambda lines: json.dumps(
                [dict(zip(lines[0].split(","), map(float, line.split(",")))) for line in lines[1:]], indent=2
            ).splitlines(),
            "tomo-fit reads CSV only",
        ),
    ],
    ids=[
        "empty",
        "header-only",
        "blank-line",
        "two-columns",
        "non-numeric",
        "duplicate-cell",
        "incomplete",
        "headerless",
        "json",
    ],
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
    assert not out.exists()


@pytest.mark.parametrize("row", [0, 5], ids=["header", "data-row"])
def test_tomogram_field_over_the_csv_limit_is_config_error(tmp_path, capsys, tomogram, row):
    # A field longer than csv.field_size_limit() (131 072 characters by
    # default), in the header or in a data row, makes the csv module raise
    # csv.Error; tomo-fit refuses it with one line that names the file.
    lines = tomogram.read_text().splitlines()
    lines[row] = "0" * csv.field_size_limit() + lines[row]
    edited = tmp_path / "long.csv"
    edited.write_text("".join(line + "\n" for line in lines))
    out = tmp_path / "fit"
    capsys.readouterr()
    assert main(["tomo-fit", "-s", f"tomo.input={edited}", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {edited}: field larger than field limit ({csv.field_size_limit()})\n"
    assert not out.exists()


def test_files_that_are_not_utf8_are_refused_with_their_paths(tmp_path, capsys, tomogram):
    # A config file or a tomogram with a byte that is not UTF-8 exits 2
    # with one line that names the file, and writes nothing.
    doc = tmp_path / "run.cfg"
    doc.write_bytes(b"seed = 1\n\xff\n")
    bad = tmp_path / "bad.csv"
    bad.write_bytes(tomogram.read_bytes().replace(b"\n", b"\n\xff", 1))
    out = tmp_path / "out"
    capsys.readouterr()
    for argv, prefix in (
        (["stark", "-c", str(doc)], f"config error: cannot read config file {doc}: "),
        (["tomo-fit", "-s", f"tomo.input={bad}"], f"config error: {bad}: "),
    ):
        assert main([*argv, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix + "'utf-8' codec can't decode byte 0xff") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("first, later", [("-0", "0"), ("0", "-0")])
def test_tomogram_reader_sorts_shuffled_rows_and_keeps_the_first_zero(tmp_path, tomogram, first, later):
    # The default tomogram with its rows shuffled and its zero angle
    # written as `first` in the first row that holds it and as `later`
    # in every other.  The axes equal np.unique of the coordinates, and
    # the zero angle keeps the sign of the first row.  (numpy's unique
    # sorts floats with an unstable sort, so which zero it keeps depends
    # on the array.)  Each occupation is read from its own row.
    header, *rows = tomogram.read_text().splitlines()
    rows = [rows[i] for i in np.random.default_rng(38).permutation(len(rows))]
    zeros = [i for i, row in enumerate(rows) if row.split(",")[0] == "0"]
    assert len(zeros) > 1
    for i in zeros:
        rows[i] = (first if i == zeros[0] else later) + rows[i][1:]
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("".join(line + "\n" for line in [header, *rows]))
    grid = jpmsim.cli._read_tomogram(str(shuffled))
    cells = [tuple(map(float, row.split(","))) for row in rows]
    thetas, ts = np.unique([cell[0] for cell in cells]), np.unique([cell[1] for cell in cells])
    assert np.array_equal(grid.axis_angles, thetas) and np.array_equal(grid.pulse_durations, ts)
    assert np.signbit(grid.axis_angles).tolist() == [first == "-0"] + [False] * (thetas.size - 1)
    assert grid.axis_angles[1:].tobytes() == thetas[1:].tobytes()
    assert grid.pulse_durations.tobytes() == ts.tobytes()
    occupations = np.empty((thetas.size, ts.size))
    for theta, t, occupation in cells:
        occupations[np.searchsorted(thetas, theta), np.searchsorted(ts, t)] = occupation
    assert grid.occupations.tobytes() == occupations.tobytes()


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
        ("transfer-peak", "source.decay_time=1e-307s"),
        ("stark", "protocol.n_bar_qubit_cavity=1e308"),
        ("ramsey", "ramsey.delay_stop=1e308s"),
        ("rabi", "rabi.duration_stop=1e308s"),
        ("transfer-curves", "transfer.kappa_ratios=1e308"),
        ("iq", "iq.centroid_0=1.4e308,1.4e308 iq.centroid_1=1.5e308,1.5e308 iq.sigma=1e305"),
        ("iq", "iq.centroid_0=0,0 iq.centroid_1=1.79e308,0 iq.sigma=1e306"),
        ("depletion", "protocol.stark_shift_per_photon=1e306Hz"),
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
    if name == "transfer-curves":
        line = "transfer.kappa_ratios: transfer efficiency for kappa_ratio=1e+308 is not finite"
        assert err == f"numerical error: {line}\n"
    assert list(tmp_path.iterdir()) == []


def test_flux_with_no_extremum_found_is_named(tmp_path, capsys):
    # Near a phase bias of 3.7e16 rad float64 steps by 8 rad, past the
    # bracket of every extremum, so the sweep would find none at such a
    # flux.  The phase rule refuses the sweep's far bracket end first, led
    # by the two flux keys, before any file.
    code, paths = run_subcommand(
        "potential-sweep", overrides=("potential.flux_stop=1e16phi0",), output_dir=str(tmp_path)
    )
    assert code == 3 and paths == []
    assert capsys.readouterr().err == (
        "numerical error: potential.flux_start and potential.flux_stop: phase |phi_e| + beta_L + 1 reaches"
        " 6.28e+16 rad, past 2^30: total loss of precision\n"
    )
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


def test_huge_depletion_rate_times_time_leaves_no_photons(tmp_path):
    # A rate of 1e300/s times 1e300 s overflows float64: the exponent is
    # -inf and no photon is left, with no overflow warning (the test's
    # warning filter raises one).
    overrides = (
        "protocol.depletion_decay_time=1e-300s",
        "depletion.time_stop=1e300s",
        "depletion.time_points=3",
    )
    code, paths = run_subcommand("depletion", overrides=overrides, output_dir=str(tmp_path))
    assert code == 0
    assert paths[0].read_text().splitlines()[1:] == [
        "0,100,0.358485922409,-200000000",
        "5e+299,0,1,-0",
        "1e+300,0,1,-0",
    ]


@pytest.mark.parametrize(
    "name, override",
    [
        ("bifurcation", "device.critical_current=1e300A"),
        ("bifurcation", "device.critical_current=60mA"),
        ("potential-sweep", "device.critical_current=60mA"),
    ],
)
def test_huge_beta_l_is_refused_quickly(tmp_path, capsys, name, override):
    # 60 mA puts beta_L near 2e5, just past MAX_SEGMENTS: without the
    # limit the sweep would take seconds here (and at 1e300 A the branch
    # loop of critical_flux would not end), so the time bound shows the
    # refusal comes first.
    start = time.perf_counter()
    code, paths = run_fast(name, tmp_path, (override,))
    assert time.perf_counter() - start < 1.0
    assert code == 3 and paths == []
    err = capsys.readouterr().err
    assert err.startswith("numerical error") and err.count("\n") == 1
    assert "segments" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["potential-sweep", "bifurcation"])
@pytest.mark.parametrize(
    "override, written",
    [
        ("device.critical_current=1e-316A", False),
        ("device.loop_inductance=1e-320H", False),
        ("device.critical_current=1e-315A", False),
        ("device.critical_current=1e-314A", True),
    ],
)
def test_beta_l_with_no_finite_inverse_is_refused(tmp_path, capsys, name, override, written):
    # beta_L underflows to 0 at 1e-316 A, and at 1e-320 H already in
    # 2 pi L_g; at 1e-315 A it is a subnormal whose inverse overflows.
    # Each is refused in one line, led by the two keys of beta_L, before a
    # solver divides by it.  At 1e-314 A (beta_L about 3e-308) the
    # inverse is finite and the artifact is written.
    out = tmp_path / "out"
    code, paths = run_subcommand(name, overrides=(override,), output_dir=str(out))
    err = capsys.readouterr().err
    if written:
        assert code == 0 and [path.name for path in paths] == [ARTIFACTS[name]] and err == ""
    else:
        assert code == 3 and paths == [] and not out.exists()
        keys = "device.critical_current and device.loop_inductance"
        assert err.startswith(f"numerical error: {keys}: beta_L") and err.count("\n") == 1
        assert "has no finite inverse" in err


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
    assert proc.returncode == 3
    assert proc.stderr.startswith("numerical error") and proc.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_underflowing_tomogram_fit_prints_one_line(tmp_path):
    # Durations up to 1e-300 s at t_pi 1e-301 s, or a subnormal 4e-321 s
    # span, once made the fit's t_pi^2 underflow to 0 and exit 3.  The fit
    # works in units of the span, so both write their artifact and print
    # only the one line that names it.  (At the default t_pi the surface is
    # flat over such durations and refused before the fit.)  A fresh
    # process, as above, so any numpy warning would reach stderr.
    env = dict(os.environ, PYTHONPATH=str(Path(jpmsim.__file__).parents[1]))
    for stop, t_pi, rel in (("1e-300s", 1e-301, 1e-9), ("4e-321s", 1e-321, 0.05)):
        code, paths = run_subcommand(
            "tomo-synth", overrides=(f"tomo.duration_stop={stop}", f"tomo.t_pi={t_pi}s"), output_dir=str(tmp_path / stop)
        )
        assert code == 0
        out = tmp_path / stop / "fit"
        proc = subprocess.run(
            [sys.executable, "-m", "jpmsim.cli", "tomo-fit", "-s", f"tomo.input={paths[0]}", "-o", str(out)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout == f"wrote {out / 'tomo_fit.json'}\n" and proc.stderr == ""
        # Subnormal durations are multiples of 5e-324 s, so the 4e-321 s
        # grid is uneven and fits only near the t_pi it was made with.
        record = json.loads((out / "tomo_fit.json").read_text())
        assert record["t_pi_s"] == pytest.approx(t_pi, rel=rel)
        assert record["beta"] == pytest.approx(0.09, rel=rel)


@pytest.mark.parametrize("offset", [1.0, 10e-6], ids=["1s", "10us"])
def test_tomo_fit_refuses_durations_far_from_zero(tmp_path, capsys, tomogram, offset):
    # A tomogram whose durations are edited to start `offset` after 0,
    # farther than their 110 ns span, exits 3 with one line and no file.
    header, *rows = tomogram.read_text().splitlines()
    cells = [row.split(",") for row in rows]
    edited = tmp_path / "offset.csv"
    edited.write_text(header + "\n" + "".join(f"{a},{float(t) + offset!r},{p}\n" for a, t, p in cells))
    out = tmp_path / "fit"
    capsys.readouterr()
    code, fitted = run_subcommand("tomo-fit", overrides=(f"tomo.input={edited}",), output_dir=str(out))
    assert code == 3 and fitted == []
    err = capsys.readouterr().err
    assert err == "numerical error: the shortest pulse duration exceeds the duration span\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "turns, line",
    [
        (2**20, None),
        (2**28, "numerical error: tomo.input: phase axis angle theta reaches 1.69e+09 rad, past 2^30: total loss of"
                " precision\n"),
        (2**40, "numerical error: tomo.input: phase axis angle theta reaches 6.91e+12 rad, past 2^30: total loss of"
                " precision\n"),
    ],
    ids=["2^20-turns", "2^28-turns", "2^40-turns"],
)
def test_tomo_fit_reads_axis_angles_up_to_the_phase_bound(tmp_path, capsys, tomogram, turns, line):
    # A tomogram whose axis angles are each shifted by 2 pi turns names the
    # same axes.  Within 2^30 rad it fits the same phase, 0, to the float
    # spacing of the shifted angles; past it one line led by tomo.input
    # exits 3 and leaves no file and no directory.
    header, *rows = tomogram.read_text().splitlines()
    cells = [row.split(",") for row in rows]
    edited = tmp_path / "turned.csv"
    edited.write_text(header + "\n" + "".join(f"{float(a) + 2.0 * math.pi * turns!r},{t},{p}\n" for a, t, p in cells))
    out = tmp_path / "fit"
    capsys.readouterr()
    code, fitted = run_subcommand("tomo-fit", overrides=(f"tomo.input={edited}",), output_dir=str(out))
    err = capsys.readouterr().err
    if line is None:
        assert code == 0 and err == ""
        assert abs(json.loads(fitted[0].read_text())["phi"]) < 1e-8
    else:
        assert (code, fitted, err) == (3, [], line)
        assert not out.exists()


@pytest.mark.parametrize(
    "thetas",
    [[0.0, 2.0 * math.pi, math.pi, 3.0 * math.pi], [0.0, 2.0 * math.pi, 4.0 * math.pi, 6.0 * math.pi]],
    ids=["0-2pi-pi-3pi", "0-2pi-4pi-6pi"],
)
def test_tomo_fit_refuses_axis_angles_that_coincide_modulo_two_pi(tmp_path, capsys, thetas):
    # A hand-written tomogram on four distinct angles that name only two
    # axes, or one, exits 3 with one line and no file.
    durations = np.linspace(0.0, 110e-9, 33)
    grid = synthesize_tomogram(DensityMatrix2(0.3, 0.2, 0.5), 50e-9, thetas, durations)
    edited = tmp_path / "coincident.csv"
    edited.write_text(
        "axis_angle (rad),pulse_duration (s),occupation (1)\n"
        + "".join(f"{a!r},{t!r},{p!r}\n" for a, row in zip(thetas, grid.occupations.tolist()) for t, p in zip(durations.tolist(), row))
    )
    out = tmp_path / "fit"
    capsys.readouterr()
    code, fitted = run_subcommand("tomo-fit", overrides=(f"tomo.input={edited}",), output_dir=str(out))
    assert code == 3 and fitted == []
    assert capsys.readouterr().err == "numerical error: need at least 4 distinct axis angles modulo 2 pi\n"
    assert not out.exists()


def test_tomo_fit_above_the_scan_cell_cap_exits_numerical(tmp_path, capsys, monkeypatch):
    # A tomogram whose t_pi scan would exceed the cell cap is refused
    # before the scan: exit 3, one line, no artifact.
    code, paths = run_subcommand("tomo-synth", output_dir=str(tmp_path))
    assert code == 0
    monkeypatch.setattr(jpmsim.tomography, "MAX_SCAN_CELLS", 1000)
    out = tmp_path / "fit"
    capsys.readouterr()
    code, fitted = run_subcommand("tomo-fit", overrides=(f"tomo.input={paths[0]}",), output_dir=str(out))
    assert code == 3 and fitted == []
    err = capsys.readouterr().err
    assert err == "numerical error: tomogram fit: t_pi scan of 33 durations exceeds 1e+03 cells\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "name, override",
    [
        pytest.param(name, "protocol.depletion_decay_time=0s", id=name)
        for name in ("stark", "budget", "ramsey", "rabi", "depletion")
    ]
    + [
        ("budget", "protocol.depletion_decay_time=1e-320s"),
        ("transfer-curves", "source.decay_time=0s"),
        ("transfer-curves", "source.decay_time=1e-320s"),
        ("transfer-peak", "capture.decay_time=0s"),
        ("transfer-peak", "capture.decay_time=1e-320s"),
    ],
)
def test_zero_depletion_decay_time_is_config_error(tmp_path, capsys, name, override):
    # A decay time of zero, or one whose inverse rate overflows, is
    # refused where it becomes a rate, naming its key.
    code, paths = run_fast(name, tmp_path, (override,))
    assert code == 2 and paths == []
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert override.split("=")[0] in err


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
    ],
)
def test_shot_count_above_draw_bound_is_refused_quickly(tmp_path, capsys, name, overrides):
    # Each is the smallest count past MAX_SHOT_DRAWS = 10^9 uniforms
    # (2 x 10^8 budget shots of 5 draws, or 5 x 10^8 iq shots of 2):
    # drawing that many would take seconds, so the time bound shows the
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


def test_artifact_mode_follows_the_umask_fresh_or_replacing(tmp_path):
    # _write creates its temporary file 0666 & ~umask, the mode open()
    # would give the artifact.  Each directory writes a table and a record fresh
    # under one umask, then replaces them under the other.
    modes = {0o022: 0o644, 0o077: 0o600}
    previous = os.umask(0o022)
    try:
        for order in ((0o022, 0o077), (0o077, 0o022)):
            out = tmp_path / "-".join(f"{umask:03o}" for umask in order)
            for umask in order:
                os.umask(umask)
                for name in ("stark", "budget"):
                    code, paths = run_fast(name, out)
                    assert code == 0
                    assert paths[0].stat().st_mode & 0o777 == modes[umask], (name, oct(umask))
    finally:
        os.umask(previous)


def test_write_never_changes_the_umask(tmp_path, monkeypatch):
    # os.umask sets the mode of files that other threads create meanwhile,
    # so _write never calls it: the kernel applies the umask when the
    # temporary file is created.  A table and a record under two umasks,
    # with os.umask made to raise once each is set.
    real_umask = os.umask
    previous = real_umask(0o022)
    try:
        for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
            real_umask(umask)
            with monkeypatch.context() as patch:
                patch.setattr(os, "umask", lambda *args: pytest.fail("_write called os.umask"))
                for stem, data in (("table", {"x": np.arange(3.0)}), ("record", {"x": 1.0})):
                    path = jpmsim.cli._write(tmp_path / f"{umask:03o}", stem, data, "csv")
                    assert path.stat().st_mode & 0o777 == mode, (stem, oct(umask))
    finally:
        real_umask(previous)
    assert sorted(path.name for path in tmp_path.rglob("*")) == [
        "022", "077", "record.json", "record.json", "table.csv", "table.csv"
    ]


def test_failed_write_leaves_no_partial_file(tmp_path, capsys, monkeypatch):
    older = tmp_path / "older"
    code, paths = run_subcommand("stark", output_dir=str(older))
    assert code == 0
    older_bytes = paths[0].read_bytes()

    # At 4 rows a block, stark's 10 rows take three blocks.  The header
    # and the first block go to the temporary file, then the second block
    # fails, so the write fails part way through the file.
    monkeypatch.setattr(jpmsim.cli, "WRITE_BLOCK_ROWS", 4)
    block_text = jpmsim.cli._block_text

    def failing_block_text(columns, start, *args):
        if start > 0:
            raise OSError("disk full")
        return block_text(columns, start, *args)

    monkeypatch.setattr(jpmsim.cli, "_block_text", failing_block_text)
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
import ast, contextlib, io, sys

def loaded():
    # jpmsim, scipy and numpy modules in sys.modules so far, and which of
    # the stdlib modules csv, decimal and json.  The probe itself imports
    # json only once every stage is recorded.
    stages = {
        top: sorted(m for m in sys.modules if m.split(".")[0] == top) for top in ("jpmsim", "scipy", "numpy")
    }
    stages["stdlib"] = [m for m in ("csv", "decimal", "json") if m in sys.modules]
    return stages

import jpmsim.config
stages = {"import jpmsim.config": loaded()}
import jpmsim.cli
stages["import jpmsim.cli"] = loaded()
from jpmsim.cli import run_subcommand

out, runs = sys.argv[1], ast.literal_eval(sys.argv[2])
codes = {}
for name, sets in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes[name] = run_subcommand(name, overrides=sets, output_dir=out)[0]
    stages[name] = loaded()
root = [
    jpmsim.__version__,
    jpmsim.potential.well_report_sweep.__name__,
    jpmsim.protocol.fidelity_budget.__name__,
    jpmsim.transfer.efficiency.__name__,
    jpmsim.tomography.fit_tomogram.__name__,
    jpmsim.errors.ConfigError.__name__,
    hasattr(jpmsim, "fidelity_budget"),
]
import json
print(json.dumps({"root": root, "codes": codes, "stages": stages}))
"""

_BASE_MODULES = ["jpmsim", "jpmsim.cli", "jpmsim.config", "jpmsim.constants", "jpmsim.errors"]

# Each layer's subcommands, in the order one fresh process runs them.
_LAYER_RUNS = {
    "potential": ["potential-sweep", "bifurcation"],
    "transfer": ["transfer-curves", "transfer-peak"],
    "protocol": ["stark", "budget", "ramsey", "rabi", "depletion", "iq"],
    "tomography": ["tomo-synth", "tomo-fit"],
}


def _run_probe(script, *args):
    # script in a fresh interpreter that imports jpmsim from this tree;
    # its last output line is a JSON report.
    env = dict(os.environ, PYTHONPATH=str(Path(jpmsim.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return json.loads(proc.stdout)


def _probe_modules(out, names, extra=()):
    runs = [(name, list(FAST.get(name, ())) + list(extra)) for name in names]
    for name, sets in runs:
        if name == "tomo-fit":
            # It reads the tomogram tomo-synth has just written to out.
            sets.append(f"tomo.input={out / 'tomogram.csv'}")
    return _run_probe(_SCIPY_PROBE, str(out), repr(runs))


def _numpy_added(stages, names):
    # Per subcommand, the numpy modules it loaded that were not loaded
    # before it, the first one against the `import jpmsim.cli` stage.
    before, added = set(stages["import jpmsim.cli"]["numpy"]), {}
    for name in names:
        added[name] = sorted(set(stages[name]["numpy"]) - before)
        before = set(stages[name]["numpy"])
    return added


def _is_random(module):
    return module == "numpy.random" or module.startswith("numpy.random.")


@pytest.fixture(scope="module")
def layer_reports(tmp_path_factory):
    # One fresh process per layer runs the layer's subcommands in order.
    out = tmp_path_factory.mktemp("layers")
    return {layer: _probe_modules(out / layer, names) for layer, names in _LAYER_RUNS.items()}


def test_no_subcommand_loads_scipy(tmp_path, layer_reports):
    # One fresh process per layer.  `import jpmsim.config` and `import
    # jpmsim.cli` load no physics layer and no scipy module.  The first
    # subcommand of each process loads exactly its own layer, and the
    # later ones (same layer) load no other.  None of the 12 loads a
    # scipy module: budget reads only the switch draws, iq classifies by
    # a cutoff found with the Cephes port and takes erfc from it, and
    # tomo-fit fits in numpy.  An off-axis iq, in a process of its own,
    # classifies by a cutoff too and loads no scipy module either.
    # `import jpmsim` still reaches every layer by attribute, and the
    # package root re-exports no name of theirs.  Beyond the numpy
    # modules of `import jpmsim.cli`, a subcommand loads numpy.random and
    # its submodules and nothing else, and only when it draws: at the
    # defaults budget and iq, and tomo-synth only for shot or Gaussian
    # noise.  So none loads numpy.ma, which numpy 2's np.unique imports
    # on its first call (numpy 1 loads it with numpy itself).
    for layer, names in _LAYER_RUNS.items():
        report = layer_reports[layer]
        assert report["codes"] == {name: 0 for name in names}
        stages = report["stages"]
        assert stages["import jpmsim.config"]["jpmsim"] == [
            "jpmsim", "jpmsim.config", "jpmsim.constants", "jpmsim.errors",
        ]
        assert stages["import jpmsim.cli"]["jpmsim"] == _BASE_MODULES
        for stage in ("import jpmsim.config", "import jpmsim.cli"):
            assert stages[stage]["scipy"] == [], stage
            assert "numpy.random" not in stages[stage]["numpy"], stage
        for name in names:
            assert stages[name]["jpmsim"] == sorted(_BASE_MODULES + [f"jpmsim.{layer}"]), name
            assert stages[name]["scipy"] == [], name
        assert report["root"] == [
            jpmsim.__version__, "well_report_sweep", "fidelity_budget", "efficiency", "fit_tomogram",
            "ConfigError", False,
        ]
        added = _numpy_added(stages, names)
        for name in names:
            assert all(map(_is_random, added[name])), (name, added[name])
        if layer == "protocol":
            assert [name for name in names if added[name]] == ["budget"]
            assert "numpy.random" in added["budget"]
        else:
            assert not any(added.values()), layer
    report = _probe_modules(tmp_path / "off-axis", ["iq"], ["iq.centroid_1=1,0.5"])
    assert report["codes"] == {"iq": 0}
    assert report["stages"]["iq"]["jpmsim"] == sorted(_BASE_MODULES + ["jpmsim.protocol"])
    assert report["stages"]["iq"]["scipy"] == []
    added = _numpy_added(report["stages"], ["iq"])["iq"]
    assert "numpy.random" in added and all(map(_is_random, added))
    report = _probe_modules(tmp_path / "shots", ["tomo-synth"], ["tomo.n_shots=200"])
    assert report["codes"] == {"tomo-synth": 0}
    added = _numpy_added(report["stages"], ["tomo-synth"])["tomo-synth"]
    assert "numpy.random" in added and all(map(_is_random, added))


# Subcommands whose artifact is a JSON record.
_JSON_RECORDS = {"transfer-peak", "budget", "iq", "tomo-fit"}


def test_csv_decimal_and_json_load_only_where_used(tmp_path, layer_reports):
    # `import jpmsim.config` and `import jpmsim.cli` load none of csv,
    # decimal and json.  No subcommand loads decimal, since the unit
    # scaling multiplies ints; only tomo-fit loads csv, for its tomogram
    # reader; and json loads with the first JSON artifact a process
    # writes, a record or a table at output.format=json.
    for layer, names in _LAYER_RUNS.items():
        stages = layer_reports[layer]["stages"]
        for stage in ("import jpmsim.config", "import jpmsim.cli"):
            assert stages[stage]["stdlib"] == [], stage
        wrote_json = False
        for name in names:
            wrote_json = wrote_json or name in _JSON_RECORDS
            want = (["csv"] if name == "tomo-fit" else []) + (["json"] if wrote_json else [])
            assert stages[name]["stdlib"] == want, name
    report = _probe_modules(tmp_path, ["stark"], ["output.format=json"])
    assert report["codes"] == {"stark": 0}
    assert report["stages"]["stark"]["stdlib"] == ["json"]


_MAIN_PROBE = """
import ast, contextlib, gc, io, json, sys
from jpmsim.cli import main

runs = []
for argv in ast.literal_eval(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([code, out.getvalue(), err.getvalue(), gc.get_freeze_count()])
print(json.dumps(runs))
"""


def test_main_in_a_fresh_process_matches_run_subcommand(tmp_path, capsys):
    # One fresh interpreter per layer calls main for each of the layer's
    # subcommands in turn, as a `jpmsim` process does.  Each exit code,
    # `wrote` line and artifact byte equals that of run_subcommand with
    # the same overrides in this process, and after main returns the
    # collector's objects are frozen (gc.freeze).  One refused override
    # exits 2 with its one diagnostic line and creates no directory.
    refused = tmp_path / "refused"
    for layer, names in _LAYER_RUNS.items():
        inside, fresh = tmp_path / "inside" / layer, tmp_path / "fresh" / layer
        argvs, expected = [], []
        for name in names:
            sets = list(FAST.get(name, ()))
            extra = [f"tomo.input={fresh / 'tomogram.csv'}"] if name == "tomo-fit" else []
            argvs.append([name, *(arg for value in sets + extra for arg in ("-s", value)), "-o", str(fresh)])
            extra = [f"tomo.input={inside / 'tomogram.csv'}"] if name == "tomo-fit" else []
            code, _ = run_subcommand(name, overrides=sets + extra, output_dir=str(inside))
            captured = capsys.readouterr()
            expected.append([code, captured.out.replace(str(inside), str(fresh)), captured.err])
        if layer == "protocol":
            argvs.append(["stark", "-s", "protocol.t_prep=780", "-o", str(refused)])
            code, _ = run_subcommand("stark", overrides=["protocol.t_prep=780"], output_dir=str(refused))
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err.startswith("config error: protocol.t_prep") and captured.err.count("\n") == 1
            expected.append([code, captured.out, captured.err])
        runs = _run_probe(_MAIN_PROBE, repr(argvs))
        assert [run[:3] for run in runs] == expected, layer
        assert all(run[3] > 0 for run in runs), layer
        assert [code for code, *_ in expected[: len(names)]] == [0] * len(names), layer
        artifacts = sorted(path.name for path in inside.iterdir())
        assert sorted(path.name for path in fresh.iterdir()) == artifacts == sorted(ARTIFACTS[n] for n in names)
        for artifact in artifacts:
            assert (fresh / artifact).read_bytes() == (inside / artifact).read_bytes(), (layer, artifact)
    assert not refused.exists()


_SHOT_PROBE = """
import json, sys
import numpy as np
from jpmsim.protocol import IqModel, ProtocolConfig, iq_discriminate, simulate_shot

model = IqModel(centroid_1=(1.0, 0.5), sigma=0.2)
rng = np.random.default_rng(7)
shots = [simulate_shot(i % 2 == 0, ProtocolConfig(), rng, model) for i in range(400)]
report = iq_discriminate(model, shots)
print(json.dumps({
    "bits": sorted({s.switch_bit for s in shots}),
    "fidelity": report["single_shot_fidelity"],
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
"""


def test_shots_and_their_classification_load_no_scipy():
    # A fresh process runs 400 simulate_shot calls and classifies the
    # records with iq_discriminate: no scipy module is loaded.
    report = _run_probe(_SHOT_PROBE)
    assert report["bits"] == [0, 1]
    assert 0.9 < report["fidelity"] <= 1.0
    assert report["scipy"] == []


def test_no_package_module_imports_scipy():
    # The package depends on numpy alone (pyproject.toml): no module of
    # it has an import of scipy at any depth, function bodies included.
    found = []
    paths = sorted(Path(jpmsim.__file__).parent.glob("*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] == "scipy"]
    assert {path.stem for path in paths} >= {"cli", "config", "potential", "protocol", "tomography", "transfer"}
    assert found == []


def test_no_package_module_imports_a_private_name_of_another():
    # A module's underscore names are its own: no module of the package
    # imports one from another, at any depth, function bodies included.
    # Dunder names such as __version__ are public.
    found = []
    paths = sorted(Path(jpmsim.__file__).parent.glob("*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "jpmsim"):
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert {path.stem for path in paths} >= {"cli", "config", "potential", "protocol", "tomography", "transfer"}
    assert found == []


def test_output_directory_resolution(tmp_path, monkeypatch):
    # -o (output_dir) names the output directory, else the working
    # directory takes the artifact.
    work = tmp_path / "cwd"
    work.mkdir()
    monkeypatch.chdir(work)
    flag_dir = tmp_path / "from_flag"
    assert main(["stark", "-o", str(flag_dir)]) == 0
    assert sorted(path.name for path in flag_dir.iterdir()) == ["stark.csv"]
    assert list(work.iterdir()) == []

    code, paths = run_subcommand("stark")
    assert code == 0 and paths[0].parent.resolve() == work.resolve()
    assert main(["stark"]) == 0
    assert sorted(path.name for path in work.iterdir()) == ["stark.csv"]


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


def _unwrapped(text):
    return "".join(text.split())


@pytest.mark.parametrize("name", list(jpmsim.cli._SUBCOMMANDS))
def test_help_text_lists_and_describes_each_subcommand(capsys, name):
    # A subcommand's help line is its entry in the top-level listing and
    # the whole description of its own --help, between the usage block
    # and the options.  argparse wraps both to the terminal width, at
    # spaces and after hyphens, so the texts are compared without their
    # whitespace.
    _, summary = jpmsim.cli._SUBCOMMANDS[name]
    pages = []
    for argv in (["--help"], [name, "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        pages.append(capsys.readouterr().out)
    listing, own = pages
    assert _unwrapped(summary) in _unwrapped(listing)
    assert own.startswith(f"usage: jpmsim {name} ")
    assert _unwrapped(own.split("\n\n")[1]) == _unwrapped(summary)


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


@pytest.mark.parametrize("override", ["capture.frequency=0Hz", "capture.decay_time=0s", "source.frequency=0Hz"])
def test_transfer_curves_reads_only_the_source_decay_time(tmp_path, override):
    # The curves depend on kappa_1 alone, so a capture cavity or source
    # frequency that transfer-peak refuses changes nothing here.
    code, default = run_subcommand("transfer-curves", output_dir=str(tmp_path / "default"))
    assert code == 0
    code, paths = run_subcommand("transfer-curves", overrides=(override,), output_dir=str(tmp_path / "set"))
    assert code == 0 and paths[0].read_bytes() == default[0].read_bytes()


def test_flux_unit_has_one_spelling(tmp_path, capsys):
    # phi0 and Wb are the flux units; Phi0 is refused like any unknown unit.
    code, paths = run_fast("potential-sweep", tmp_path, ("potential.flux_stop=1Phi0",))
    err = capsys.readouterr().err
    assert code == 2 and paths == [] and err.count("\n") == 1
    assert err.startswith("config error: potential.flux_stop: unknown unit 'Phi0' "), err
    assert list(tmp_path.iterdir()) == []


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


def test_bifurcation_near_beta_one(tmp_path):
    # At 0.2992 uA beta_L is about 1.00004, and the two critical fluxes lie
    # 8.3e-8 Phi0 apart: the minima are counted between them, not at fixed
    # probes 1e-6 Phi0 out that land beyond both tangencies.
    code, paths = run_subcommand(
        "bifurcation", overrides=("device.critical_current=0.2992uA",), output_dir=str(tmp_path)
    )
    assert code == 0
    rows = [line.split(",")[1:] for line in paths[0].read_text().splitlines()[1:]]
    assert rows == [["1", "2"], ["2", "1"]]


@pytest.mark.parametrize(
    "beta",
    [1.0 + 1e-9, 1.0001, 1.01, 1.5, None, 13.0],
    ids=["1+1e-9", "1.0001", "1.01", "1.5", "default", "13"],
)
def test_bifurcation_counts_change_by_one(tmp_path, beta):
    # Each tangency adds or removes exactly one minimum.
    p = RunConfig.from_sources().jpm_params()
    current = p.critical_current if beta is None else beta * PHI0 / (2.0 * math.pi * p.loop_inductance)
    code, paths = run_subcommand(
        "bifurcation", overrides=(f"device.critical_current={current!r}A",), output_dir=str(tmp_path)
    )
    assert code == 0
    rows = [line.split(",") for line in paths[0].read_text().splitlines()[1:]]
    assert len(rows) == 2
    assert all(abs(int(above) - int(below)) == 1 for _, below, above in rows)


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


def _reference_bytes(data: dict, table: bool, file_format: str) -> bytes:
    """The artifact bytes of a row-at-a-time writer, given the same data."""
    out = io.StringIO(newline="")
    if table and file_format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(data)
        for row in zip(*data.values()):
            writer.writerow([_reference_cell(cell) for cell in row])
    else:
        if table:
            payload = [
                {column: _reference_native(cell) for column, cell in zip(data, row)}
                for row in zip(*data.values())
            ]
        else:
            payload = {key: _reference_native(value) for key, value in data.items()}
        json.dump(payload, out, indent=2)
        out.write("\n")
    return out.getvalue().encode("utf-8")


def test_artifact_digests_match_the_recorded_file(tmp_path):
    # Every artifact of every BYTE_CONFIGS run, in both formats, against
    # the digests recorded in tests/artifact_digests.txt: a change that
    # moves bytes on purpose rewrites that file (artifact_digests.py
    # --write) and names each moved line in CHANGES.md.
    recorded = artifact_digests.DIGESTS_FILE.read_text().splitlines()
    header, want = recorded[0], recorded[1:]
    got, failures = artifact_digests.digests(tmp_path)
    assert failures == 0
    if got != want:
        moved = sorted(
            [f"- {line}" for line in set(want) - set(got)] + [f"+ {line}" for line in set(got) - set(want)],
            key=lambda entry: entry.split()[2],
        )
        running = artifact_digests.versions_line()
        versions = "" if running == header else f" (recorded under {header[2:]}; running {running[2:]})"
        n_moved = len({entry.split()[2] for entry in moved})
        pytest.fail(f"{n_moved} artifacts moved{versions}:\n" + "\n".join(moved))


@pytest.mark.parametrize("overrides", BYTE_CONFIGS)
def test_writer_matches_per_cell_reference(tmp_path, overrides):
    # tomo-fit reads the tomogram.csv that tomo-synth writes before it
    # (csv is written last).
    cfg = RunConfig.from_sources(overrides=overrides + (f"tomo.input={tmp_path / 'tomogram.csv'}",))
    for name, (compute, _) in jpmsim.cli._SUBCOMMANDS.items():
        data = compute(cfg)
        if name == "bifurcation":
            # At 0.1 uA, beta_L < 1: no critical flux, an empty table.
            assert (len(data["critical_flux (phi0)"]) == 0) == ("device.critical_current=0.1uA" in overrides)
        # _write tells a table from a record by its values; the CSV
        # artifacts are the tables.
        artifact = Path(ARTIFACTS[name])
        table = artifact.suffix == ".csv"
        for file_format in ("json", "csv"):
            path = jpmsim.cli._write(tmp_path, artifact.stem, data, file_format)
            assert path.suffix == (".csv" if table and file_format == "csv" else ".json")
            assert path.read_bytes() == _reference_bytes(data, table, file_format), (
                name,
                file_format,
            )


@pytest.mark.parametrize("file_format", ["csv", "json"])
@pytest.mark.parametrize("rows", [0, 1, 7, 8, 9], ids=["0", "1", "B-1", "B", "B+1"])
def test_writer_matches_reference_on_block_boundaries(tmp_path, monkeypatch, file_format, rows):
    # The column kinds the subcommands produce, in blocks of B = 8 rows: a
    # float, an int, potential-sweep's fixed-width well labels and
    # transfer-curves' object labels of %g text.  From B - 1 rows on,
    # every odd float and label is in the table; the % in the first name
    # is escaped in the JSON row template.
    monkeypatch.setattr(jpmsim.cli, "WRITE_BLOCK_ROWS", 8)
    floats = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1])
    wells = np.array(["global", "left", "right", "interior"])
    ratios = (1e-300, 1e300, 5e-324, -0.0, 0.5)
    labels = np.array(
        ["kappa_ratio=%g" % r for r in ratios] + ["detuning_ratio=%g" % r for r in ratios], dtype=object
    )
    i = np.arange(rows)
    data = {
        "value (%)": floats[i % floats.size],
        "count (1)": i - 2,
        "well_label": wells[i % wells.size],
        "label": labels[i % labels.size],
    }
    assert data["well_label"].dtype == "<U8"
    path = jpmsim.cli._write(tmp_path, "odd", data, file_format)
    assert path.read_bytes() == _reference_bytes(data, True, file_format)


@pytest.mark.parametrize("file_format", ["csv", "json"])
def test_writer_memory_is_bounded(tmp_path, file_format):
    # 200,000 rows x 8 columns.  Encoded a block at a time, the peak
    # above the input columns is about 1.7 MB in CSV and 3.5 MB in JSON.
    # The whole table at once (WRITE_BLOCK_ROWS = 10**12) peaks at about
    # 63 and 126 MB.
    rows = 200_000
    rng = np.random.default_rng(5)
    columns = (
        rng.random(rows),
        rng.integers(1, 5, rows),
        np.array(["global", "left", "right", "interior"])[rng.integers(0, 4, rows)],
        rng.random(rows),
        rng.integers(0, 9, rows),
        rng.integers(0, 9, rows),
        rng.integers(0, 9, rows),
        rng.random(rows),
    )
    data = {f"column {k}": column for k, column in enumerate(columns)}
    tracemalloc.start()
    try:
        path = jpmsim.cli._write(tmp_path, "big", data, file_format)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > rows * 40
    assert peak < 8e6


@pytest.mark.parametrize(
    "name, override",
    [("depletion", "depletion.time_points=200000"), ("transfer-curves", "transfer.time_points=22223")],
)
def test_table_compute_memory_is_bounded(name, override):
    # About 2e5 rows: depletion's four float columns hold 32 B per row and
    # transfer-curves' two float and one object column 24 B.  The compute
    # peaks at about 41 and 33 B per row.  One dict per time read 321 B
    # per row, and a fixed-width <U18 label column 97 B per row.
    cfg = RunConfig.from_sources(overrides=(override,))
    compute, _ = jpmsim.cli._SUBCOMMANDS[name]
    tracemalloc.start()
    try:
        data = compute(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = len(next(iter(data.values())))
    assert rows >= 200_000
    assert peak < 60 * rows


def test_iq_memory_is_flat_in_shot_count():
    # iq_fidelity holds one chunk of draws at a time and no label array,
    # so the tracemalloc peak at 2e6 shots per class stays within 2 MB of
    # that at 5e4: about 1.6 against 1.2 MB.  A first run loads
    # jpmsim.protocol untraced.
    compute, _ = jpmsim.cli._SUBCOMMANDS["iq"]
    compute(RunConfig.from_sources(overrides=("iq.n_shots=10",)))
    peaks = []
    for n in (50_000, 2_000_000):
        cfg = RunConfig.from_sources(overrides=(f"iq.n_shots={n}",))
        tracemalloc.start()
        try:
            compute(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            tracemalloc.stop()
    small, large = peaks
    assert large < small + 2.0


def _edge_literals(key):
    # Zero, negative, overflowing and underflowing numbers (with the
    # key's base unit where it has one), "none" and the empty value;
    # for integer keys also a size too large to allocate.
    kind = SCHEMA[key].kind.removeprefix("list:")
    unit = next(iter(_UNIT_TABLES[kind])) if kind in _UNIT_TABLES else ""
    oversized = ["1000000000000000"] if kind == "int" else []
    numbers = ("0", "-1", "1e999", "1e1000000", "1e-999")
    return [number + unit for number in numbers] + ["none", ""] + oversized


@pytest.fixture(scope="module")
def tomogram(tmp_path_factory):
    out = tmp_path_factory.mktemp("tomogram")
    code, paths = run_subcommand("tomo-synth", output_dir=str(out))
    assert code == 0
    return paths[0]


@pytest.fixture(scope="module")
def keys_read(tomogram, tmp_path_factory):
    # The config keys each subcommand reads, recorded by wrapping
    # RunConfig.get during one default run of it.
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
            read[name] = sorted(seen)
    return read


def _edge_pairs(keys):
    return st.sampled_from(keys).flatmap(lambda key: st.tuples(st.just(key), st.sampled_from(_edge_literals(key))))


# The physical range of each artifact column or record key, by its name
# without the unit: probabilities, efficiencies, occupations, contrasts
# and fidelities lie in [0, 1]; F_raw = 1 - P(1|g) - P(0|e) lies in
# [-1, 1] and goes below 0 for a detector worse than a coin; counts and
# photon numbers are non-negative.  A column missing here is not checked.
_UNIT_INTERVAL = (0.0, 1.0)
_NON_NEGATIVE = (0.0, math.inf)
_RANGES = {
    **dict.fromkeys(
        ("switch_probability", "epsilon_relax", "epsilon_dark", "epsilon_other", "analytic_relaxation_error"),
        _UNIT_INTERVAL,
    ),
    **dict.fromkeys(("single_shot_fidelity", "separation_fidelity"), _UNIT_INTERVAL),
    "efficiency": _UNIT_INTERVAL,
    **dict.fromkeys(("occupation", "beta", "rho_00", "rho_11"), _UNIT_INTERVAL),
    "ramsey_contrast": _UNIT_INTERVAL,
    "F_raw": (-1.0, 1.0),
    **dict.fromkeys(
        ("well_count", "level_count", "minima_below", "minima_above", "n_shots", "n_shots_per_class"), _NON_NEGATIVE
    ),
    **dict.fromkeys(("n_bar", "residual_photons"), _NON_NEGATIVE),
}
_RANGE_PREFIXES = {"eta_": _UNIT_INTERVAL, "fidelity_vs_": _UNIT_INTERVAL}


def _out_of_range(path):
    # (name, value) of each value of a written artifact outside the range
    # table's; a null value (a closed form that does not apply) has none.
    text = path.read_text()
    if path.suffix == ".csv":
        rows = list(csv.DictReader(io.StringIO(text)))
    else:
        record = json.loads(text)
        rows = record if isinstance(record, list) else [record]
    found = []
    for row in rows:
        for column, value in row.items():
            name = column.split(" (")[0]
            bounds = _RANGES.get(name) or next(
                (bounds for prefix, bounds in _RANGE_PREFIXES.items() if name.startswith(prefix)), None
            )
            if bounds is not None and value is not None and not bounds[0] <= float(value) <= bounds[1]:
                found.append((name, value))
    return found


def _assert_exit_contract(name, overrides):
    # Exit 0 with one artifact whose values lie in their physical ranges,
    # or exit 2, 3 or 4 with one stderr line and no file or directory.
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        with contextlib.redirect_stdout(io.StringIO()):
            code, paths = run_subcommand(name, overrides=overrides, output_dir=out)
        assert code in (0, 2, 3, 4)
        if code == 0:
            assert len(paths) == 1 and paths[0].exists()
            assert _out_of_range(paths[0]) == []
        else:
            assert paths == [] and os.listdir(out) == []
            assert err.getvalue().count("\n") == 1


# Small shot counts keep each example fast; drawn pairs replace them.
_FAST_VALUES = {"budget.n_shots": "10000", "iq.n_shots": "1000"}


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_edge_inputs_end_in_artifact_or_documented_exit(tomogram, keys_read, data):
    # Each example sets one to three keys that its subcommand reads.
    name = data.draw(st.sampled_from(SUBCOMMANDS), label="name")
    pairs = data.draw(
        st.lists(_edge_pairs(keys_read[name]), min_size=1, max_size=3, unique_by=lambda pair: pair[0]),
        label="pairs",
    )
    values = {**_FAST_VALUES, "tomo.input": str(tomogram)}
    values.update(pairs)
    _assert_exit_contract(name, [f"{key}={text}" for key, text in values.items()])


def _scaled_literal(key, log_scale, flip, entries):
    # The key's default times 10^log_scale, negated if flip; a list key
    # takes its first entries, cycled to the given count.
    parts = [jpmsim.config._NUMBER_RE.fullmatch(part).groups() for part in SCHEMA[key].default.split(",")]
    if SCHEMA[key].kind.startswith("list:"):
        parts = [parts[i % len(parts)] for i in range(entries)]
    sign = -1.0 if flip else 1.0
    texts = []
    for number, unit in parts:
        value = sign * float(number) * 10.0**log_scale
        texts.append(str(round(value)) if SCHEMA[key].kind == "int" else f"{value!r}{unit}")
    return ",".join(texts)


def _numeric_keys(keys):
    return [key for key in keys if SCHEMA[key].kind != "str" and SCHEMA[key].default != "none"]


def _scaled_pairs(keys):
    # Keys with a numeric default, each at that default scaled by
    # 10^U(-4, 4), negated in one draw of six, with 1-4 list entries.  A
    # count (a point or shot count, or the seed) scales by at most 10: a
    # larger one costs only time, up to seconds a draw, and the count
    # refusals have their own tests.
    return st.sampled_from(_numeric_keys(keys)).flatmap(
        lambda key: st.builds(
            lambda log_scale, flip, entries: (key, _scaled_literal(key, log_scale, flip, entries)),
            st.floats(-4.0, 1.0 if SCHEMA[key].kind == "int" else 4.0),
            st.integers(0, 5).map(lambda k: k == 0),
            st.integers(1, 4),
        )
    )


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_scaled_inputs_end_in_artifact_in_range_or_documented_exit(tomogram, keys_read, data):
    # Ordinary values that may be wrong together: one to three keys the
    # subcommand reads, each at its default times 10^U(-4, 4), some
    # negated.  A transfer-peak source carrier far above the capture
    # carrier once wrote eta_peak up to 2.6e5 with exit 0.  tomo-fit reads
    # no numeric key.
    name = data.draw(st.sampled_from([name for name in SUBCOMMANDS if _numeric_keys(keys_read[name])]), label="name")
    pairs = data.draw(
        st.lists(_scaled_pairs(keys_read[name]), min_size=1, max_size=3, unique_by=lambda pair: pair[0]),
        label="pairs",
    )
    values = {**_FAST_VALUES, "tomo.input": str(tomogram)}
    values.update(pairs)
    _assert_exit_contract(name, [f"{key}={text}" for key, text in values.items()])


@pytest.mark.parametrize("key", ["tomo.theta_points", "tomo.duration_points"])
@pytest.mark.parametrize("points, expected", [(2**60 - 64, 2), (2**60 - 65, 3)])
def test_count_rounded_past_the_array_cap_is_named(tmp_path, capsys, key, points, expected):
    # np.linspace sizes its array from the count as a float: 2^60 - 64
    # rounds to 2^60, whose 2^63 bytes numpy refuses in a message that
    # names no key, so it is refused first, naming the key.  One count
    # less is an allocation numpy attempts, and fails at once; that
    # failure names the key too.
    code, paths = run_subcommand("tomo-synth", overrides=(f"{key}={points}",), output_dir=str(tmp_path))
    err = capsys.readouterr().err
    assert code == expected and paths == [] and err.count("\n") == 1
    assert key in err
    assert list(tmp_path.iterdir()) == []


_POINT_COUNT_KEYS = [
    ("potential-sweep", "potential.flux_points", 2),
    ("transfer-curves", "transfer.time_points", 2),
    ("ramsey", "ramsey.delay_points", 2),
    ("rabi", "rabi.duration_points", 2),
    ("depletion", "depletion.time_points", 2),
    ("tomo-synth", "tomo.theta_points", 1),
    ("tomo-synth", "tomo.duration_points", 2),
]


@pytest.mark.parametrize("name, key, least", _POINT_COUNT_KEYS, ids=[key for _, key, _ in _POINT_COUNT_KEYS])
@pytest.mark.parametrize(
    "points, expected", [(None, 2), (2**60 - 64, 2), (2**60 - 65, 3)], ids=["below-minimum", "past-cap", "past-memory"]
)
def test_every_point_count_refusal_names_its_key(tmp_path, capsys, name, key, least, points, expected):
    # One count below the key's minimum (None), and 2^60 - 64, which
    # np.linspace rounds past the float64 array cap, exit 2; 2^60 - 65, an
    # allocation numpy attempts and fails at once, exits 3.  Each ends in
    # one stderr line naming the key, with no output directory made.
    points = least - 1 if points is None else points
    code, paths = run_subcommand(name, overrides=(f"{key}={points}",), output_dir=str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == expected and paths == [], err
    assert err.count("\n") == 1 and key in err, err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "name, overrides, expected",
    [
        ("transfer-curves", ("transfer.t_max_scaled=1e308",), 3),
        ("budget", ("protocol.t_prep=1e-320s",), 2),
        ("ramsey", ("protocol.t_prep=1e-320s", "protocol.relaxation_override=none"), 2),
        ("rabi", ("protocol.t_prep=1e-320s", "protocol.relaxation_override=none"), 2),
        ("stark", ("protocol.t_prep=1e-320s",), 2),
        ("depletion", ("protocol.t_prep=1e-320s",), 2),
        ("budget", ("protocol.t1=1e308s",), 2),
        ("tomo-synth", ("tomo.duration_stop=1e308s",), 3),
        ("transfer-curves", ("transfer.t_max_scaled=5e307",), 3),
        ("rabi", ("rabi.duration_stop=1e300s",), 3),
        ("ramsey", ("ramsey.delay_stop=1e300s",), 3),
        ("tomo-synth", ("tomo.duration_stop=1e12s",), 3),
        ("tomo-synth", ("tomo.phi=1e20",), 3),
        ("transfer-peak", ("capture.decay_time=20ms", "capture.frequency=6GHz"), 3),
        ("transfer-curves", ("transfer.detuning_ratios=1e308",), 3),
    ],
)
def test_overflow_refusal_names_the_key_at_fault(tmp_path, capsys, name, overrides, expected):
    # At t_max_scaled = 1e308 the time axis is finite but the phase of the
    # default detuning_ratio=4 family overflows, and at detuning_ratios =
    # 1e308 its d_omega does; at t_prep = 1e-320 s and
    # at T1 = 1e308 s T1/t_prep overflows.  The exit-3 rows below them
    # each set a phase past 2^30 rad (inf at tomo.duration_stop=1e308s,
    # 1.23e9 rad at the transfer-peak seed grid's end), which once wrote
    # cells that were no function of the time beside them.  Each refusal
    # is one line naming the key set.
    code, paths = run_subcommand(name, overrides=overrides, output_dir=str(tmp_path))
    err = capsys.readouterr().err
    assert code == expected and paths == [] and err.count("\n") == 1
    assert overrides[0].split("=")[0] in err, err
    assert list(tmp_path.iterdir()) == []


def test_short_t_prep_with_a_finite_ratio_is_run(tmp_path):
    # 1e-310 s has no finite inverse, but T1/t_prep = 6.6e304 does: the
    # budget is computed, with a relaxation error near t_prep / 2 T1 = 0.
    record = _json_rows("budget", tmp_path, ("protocol.t_prep=1e-310s", "budget.n_shots=10000"))
    assert 0.0 <= record["analytic_relaxation_error"] < 1e-300


@pytest.mark.parametrize(
    "name, override, section",
    [
        ("potential-sweep", "device.critical_current=0A", "device"),
        ("potential-sweep", "device.loop_inductance=0H", "device"),
        ("potential-sweep", "device.shunt_capacitance=0F", "device"),
        ("transfer-peak", "source.frequency=0Hz", "source"),
        ("transfer-peak", "capture.frequency=0Hz", "capture"),
        ("budget", "protocol.dark_prob=2", "protocol"),
        pytest.param(
            "budget",
            "protocol.relaxation_override=2",
            "protocol section invalid: relaxation_override must lie in [0, 1], got 2.0\n",
            id="budget-protocol.relaxation_override=2-protocol",
        ),
        ("iq", "iq.sigma=0", "iq"),
        ("iq", "iq.centroid_1=0,0", "iq"),
        ("tomo-synth", "tomo.beta=2", "tomo"),
        ("tomo-synth", "tomo.r=1", "tomo"),
    ]
    + [
        pytest.param(name, override, line, id=f"{name}-{override}")
        for name, override, line in (
            ("budget", "budget.n_shots=0", "budget.n_shots: n_shots must be at least 10^4 for a stable budget\n"),
            ("iq", "iq.n_shots=0", "iq.n_shots: n_shots must be positive\n"),
            ("rabi", "rabi.rate=0Hz", "rabi.rate: rabi_rate must be positive\n"),
            (
                "stark",
                "protocol.stark_shift_per_photon=0Hz",
                "protocol.stark_shift_per_photon: stark_shift_per_photon must be nonzero for calibration\n",
            ),
            ("stark", "stark.powers=0,0", "stark.powers: at least one drive power must be positive\n"),
            ("transfer-curves", "transfer.t_max_scaled=0", "transfer.t_max_scaled must be positive\n"),
            ("transfer-curves", "transfer.kappa_ratios=-1", "transfer.kappa_ratios entries must be positive\n"),
            ("budget", "protocol.t1=abc", "protocol.t1: cannot parse value 'abc'\n"),
            ("tomo-synth", "tomo.t_pi=0s tomo.duration_stop=1us", "tomo.t_pi: t_pi must be positive, got 0.0\n"),
            ("ramsey", "ramsey.t2=0s", "ramsey.t2 and protocol.t1: t2 must be positive and at most 2 T1\n"),
            ("ramsey", "ramsey.amplitude=2", "ramsey.amplitude: amplitude must lie in [0, 1], got 2.0\n"),
            ("tomo-fit", "tomo.input=none", "tomo.input must point to a tomogram CSV\n"),
        )
    ],
)
def test_every_builder_refusal_names_its_section(tmp_path, capsys, name, override, section):
    # A value the physics layer's constructor refuses is reported under the
    # config section it was read from, each cavity under its own name.  A
    # row that gives the whole line after "config error: ", its newline
    # included, pins that line; such rows also pin refusals that a physics
    # call or the CLI makes itself, and a value that does not parse.  An
    # override may hold several space-separated settings.
    code, paths = run_subcommand(name, overrides=override.split(), output_dir=str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 2 and paths == [], err
    head = section if section.endswith("\n") else f"{section} section invalid: "
    assert err.startswith(f"config error: {head}") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


# 2^63 - 1, the largest count a binomial draw takes; 2^63; 10^20.
_COUNTS = ("9223372036854775807", "9223372036854775808", "100000000000000000000")


def _extreme_literals(key):
    # The smallest and largest magnitudes a float64 literal reaches (with
    # the key's base unit where it has one), and for integer keys 0 and
    # _COUNTS.
    kind = SCHEMA[key].kind.removeprefix("list:")
    unit = next(iter(_UNIT_TABLES[kind])) if kind in _UNIT_TABLES else ""
    return [number + unit for number in ("1e-320", "1e308")] + (["0", *_COUNTS] if kind == "int" else [])


def test_extreme_literals_end_in_artifact_or_one_line_exit(tomogram, keys_read):
    # Every subcommand with each key it reads set to each extreme literal,
    # one key at a time.  Any numpy warning fails the test, as the suite
    # turns warnings into errors.
    refusals = {}
    for name, keys in keys_read.items():
        for key in keys:
            for text in _extreme_literals(key):
                values = {"tomo.input": str(tomogram), key: text}
                overrides = [f"{k}={v}" for k, v in values.items()]
                case = (name, key, text)
                err = io.StringIO()
                with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
                    with contextlib.redirect_stdout(io.StringIO()):
                        code, paths = run_subcommand(name, overrides=overrides, output_dir=out)
                    assert code in (0, 2, 3, 4), case
                    if code == 0:
                        assert len(paths) == 1 and paths[0].exists(), case
                    else:
                        assert paths == [] and os.listdir(out) == [], case
                        assert err.getvalue().count("\n") == 1, case
                        refusals[case] = code, err.getvalue()
    # A sweep count past any float64 array exits 2, and a binomial shot
    # count below 1 exits 2 and past 2^63 - 1 exits 3, each naming its
    # key; 2^63 - 1 shots are drawn.
    points = {
        "potential-sweep": ("potential.flux_points",),
        "transfer-curves": ("transfer.time_points",),
        "ramsey": ("ramsey.delay_points",),
        "rabi": ("rabi.duration_points",),
        "depletion": ("depletion.time_points",),
        "tomo-synth": ("tomo.theta_points", "tomo.duration_points"),
    }
    for name, keys in points.items():
        for key in keys:
            for text in _COUNTS:
                code, message = refusals[name, key, text]
                assert code == 2 and message.startswith(f"config error: {key} = {text} "), message
    for name, key in (("ramsey", "ramsey.n_shots"), ("rabi", "rabi.n_shots"), ("tomo-synth", "tomo.n_shots")):
        assert refusals[name, key, "0"] == (2, f"config error: {key}: n_shots must be at least 1, got 0\n")
        assert (name, key, _COUNTS[0]) not in refusals
        for text in _COUNTS[1:]:
            line = f"numerical error: {key}: n_shots = {text} is more shots than a binomial draw takes (2^63 - 1)\n"
            assert refusals[name, key, text] == (3, line)
    # beta_L below 1/DBL_MAX, and t_max = 20/min kappa past DBL_MAX.
    for name in ("potential-sweep", "bifurcation"):
        for key, text in (("device.critical_current", "1e-320A"), ("device.loop_inductance", "1e-320H")):
            code, message = refusals[name, key, text]
            assert code == 3 and "beta_L 0 has no finite inverse" in message
    for key in ("source.decay_time", "capture.decay_time"):
        code, message = refusals["transfer-peak", key, "1e308s"]
        assert code == 3 and "t_max" in message


def test_no_module_reads_the_process_environment():
    # A run's inputs are its arguments and its config alone: no module in
    # src/jpmsim reads os.environ or os.getenv, or imports either from os.
    package = Path(jpmsim.cli.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "environb", "getenv", "getenvb"):
                found.append(f"{path.name}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name in ("environ", "environb", "getenv", "getenvb", "*")]
    assert {path.stem for path in package.glob("*.py")} >= {"cli", "config"}
    assert found == []


# Each row: subcommand, the key swept, its value just under and just over
# the one phase bound 2^30 rad at the defaults, and the other overrides.
_PHASE_BOUNDS = [
    # sqrt(Omega^2 + Delta^2) t / 2 at the largest detuning: 2^31 s / (2 pi hypot(5, 10) MHz) = 30.570 s.
    ("rabi", "rabi.duration_stop", "30.56s", "30.58s", ()),
    # Delta tau / 2 at 2 MHz: 2^31 s / (2 pi 2 MHz) = 170.89 s.
    ("ramsey", "ramsey.delay_stop", "170.8s", "171s", ()),
    # pi t / t_pi at t_pi = 50 ns: 2^30 50 ns / pi = 17.089 s.
    ("tomo-synth", "tomo.duration_stop", "17.08s", "17.1s", ()),
    # theta + phi at the last of 8 axes, 7 pi / 4: 2^30 - 5.498.
    ("tomo-synth", "tomo.phi", "1073741818", "1073741819", ()),
    ("tomo-synth", "tomo.phi", "-1073741824", "-1073741825", ()),
    # d_omega t / 2 of the detuning_ratio=4 family: 2 t_max_scaled, so 2^29 = 536870912.
    ("transfer-curves", "transfer.t_max_scaled", "536870000", "536872000", ()),
    # The seed grid's end t_max = 20 capture.decay_time at a 0.98 GHz
    # detuning: 2^30 / (20 pi 0.98 GHz) = 17.44 ms, below the 20.8 ms at
    # which the search would span MAX_PEAK_NODES.
    ("transfer-peak", "capture.decay_time", "17.4ms", "17.5ms", ("capture.frequency=6GHz",)),
    # The sweep's far bracket end |phi_e| + beta_L + 1 at beta_L = 3.342:
    # (2^30 - beta_L - 1) / 2 pi = 170891318.2 Phi0.
    ("potential-sweep", "potential.flux_stop", "170891317phi0", "170891319phi0", ()),
]


@pytest.mark.parametrize(
    "name, key, under, over, extra", _PHASE_BOUNDS, ids=[f"{row[0]}-{row[1]}={row[2]}" for row in _PHASE_BOUNDS]
)
def test_phase_bound_writes_below_and_refuses_above(tmp_path, capsys, name, key, under, over, extra):
    # Just under the bound the artifact is written; just over, one line
    # naming the key exits 3 and leaves no file and no directory.
    code, paths = run_fast(name, tmp_path / "under", (*extra, f"{key}={under}"))
    assert code == 0 and paths[0].is_file()
    capsys.readouterr()
    code, paths = run_fast(name, tmp_path / "over", (*extra, f"{key}={over}"))
    err = capsys.readouterr().err
    assert code == 3 and paths == [] and err.count("\n") == 1, err
    assert err.startswith("numerical error: ") and key in err and "past 2^30" in err, err
    assert not (tmp_path / "over").exists()


def test_phase_rule_is_numpy_up_to_two_to_the_thirty():
    # sin_cos returns numpy's sine and cosine bit for bit up to |phase| =
    # 2^30 and refuses the next float out, on either side, and NaN.
    assert PHASE_LIMIT == 2.0**30
    phases = np.concatenate(
        [[0.0, -0.0, PHASE_LIMIT, -PHASE_LIMIT], np.random.default_rng(5).uniform(-PHASE_LIMIT, PHASE_LIMIT, 999)]
    )
    sin, cos = sin_cos(phases, "x")
    assert sin.tobytes() == np.sin(phases).tobytes() and cos.tobytes() == np.cos(phases).tobytes()
    assert sin_cos(np.float64(PHASE_LIMIT), "x") == (np.sin(PHASE_LIMIT), np.cos(PHASE_LIMIT))
    past = np.nextafter(PHASE_LIMIT, np.inf)
    for bad in (past, -past, np.nan):
        with pytest.raises(NumericalError, match=r"^phase x reaches .* rad, past 2\^30"):
            sin_cos(np.array([0.0, bad]), "x")


def test_every_artifact_phase_goes_through_the_phase_rule():
    # The four functions whose sines and cosines reach an artifact call
    # no sin or cos of numpy, math or cmath themselves, only
    # errors.sin_cos.  The tomogram fit takes the sines and cosines of the
    # angles it reads (theta or axis_angles) through sin_cos alone, and
    # the flux sweep bounds its phases with errors.bounded_phase, the check
    # sin_cos makes.  The bound 2^30 is spelt once in src/jpmsim, in
    # errors.py (as 2**30, 2.0**30, 1 << 30 or the number itself).
    package = Path(jpmsim.cli.__file__).parent
    sites = {
        "transfer": {"efficiency"},
        "protocol": {"ramsey_fringe", "rabi_chevron"},
        "tomography": {"expected_occupation"},
    }
    checked, direct = set(), []
    for module, names in sites.items():
        for node in ast.parse((package / f"{module}.py").read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name in names:
                calls = [call.func for call in ast.walk(node) if isinstance(call, ast.Call)]
                direct += [f"{node.name}:{func.lineno}" for func in calls
                           if getattr(func, "attr", getattr(func, "id", None)) in ("sin", "cos")]
                assert any(getattr(func, "id", None) == "sin_cos" for func in calls), node.name
                checked.add(node.name)
    assert checked == set().union(*sites.values())
    assert direct == []

    def functions(module):
        tree = ast.parse((package / f"{module}.py").read_text())
        return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def called(node):
        return [(call, getattr(call.func, "attr", getattr(call.func, "id", None))) for call in ast.walk(node)
                if isinstance(call, ast.Call)]

    def reads_angles(call):
        return any(getattr(node, "id", getattr(node, "attr", None)) in ("theta", "axis_angles")
                   for arg in call.args for node in ast.walk(arg))

    tomography = functions("tomography")
    angle_calls = [name for fit in ("fit_tomogram", "_projection") for call, name in called(tomography[fit])
                   if name in ("sin", "cos", "sin_cos") and reads_angles(call)]
    assert angle_calls == ["sin_cos"]
    assert "bounded_phase" in {name for _, name in called(functions("potential")["_sweep_extrema"])}

    def is_value(node, value):
        return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == value

    spelt = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            power = isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and is_value(node.right, 30)
            shift = isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift) and is_value(node.right, 30)
            if (power and is_value(node.left, 2)) or (shift and is_value(node.left, 1)) or is_value(node, 2**30):
                spelt.append(f"{path.name}:{node.lineno}")
    assert len(spelt) == 1 and spelt[0].startswith("errors.py:"), spelt


def test_every_private_and_imported_module_name_is_used():
    # A module-level private name (function, class or constant, not a
    # dunder) or an imported name that nothing in src/jpmsim reads is a
    # leftover.  A name counts as read where its module loads it or another
    # module imports it from there, or where any module reads an attribute
    # of that name.
    package = Path(jpmsim.cli.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(package.glob("*.py"))}
    attributes = {node.attr for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    imported_from = {name: set() for name in trees}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported_from[node.module or "__init__"].update(alias.name for alias in node.names)

    def module_level(body):
        # Statements run at import, including those under a top-level if or try.
        for node in body:
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for field in ("body", "orelse", "finalbody", "handlers"):
                    yield from module_level(getattr(node, field, []))

    unused = []
    for module, tree in trees.items():
        checked = []
        for node in module_level(tree.body):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) != "__future__":
                    checked += [alias.asname or alias.name.split(".")[0] for alias in node.names]
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            checked += [name for name in names if name.startswith("_") and not name.startswith("__")]
        loaded = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        used = loaded | imported_from[module] | attributes
        unused += [f"{module}.{name}" for name in checked if name not in used]
    assert unused == []


@pytest.mark.parametrize(
    "name, overrides, line",
    [
        (
            "tomo-synth",
            ("tomo.phi=1e20",),
            "numerical error: tomo.phi: phase theta + phi reaches 1e+20 rad, past 2^30: total loss of precision\n",
        ),
        (
            "transfer-curves",
            ("transfer.detuning_ratios=1e308",),
            "numerical error: transfer.detuning_ratios and transfer.t_max_scaled: phase d_omega t / 2 reaches nan rad,"
            " past 2^30: total loss of precision\n",
        ),
        (
            "rabi",
            ("rabi.duration_stop=1e300s",),
            "numerical error: rabi.rate, rabi.detunings and rabi.duration_stop: phase sqrt(Omega^2 + Delta^2) t / 2"
            " reaches 3.51e+307 rad, past 2^30: total loss of precision\n",
        ),
        (
            "transfer-peak",
            ("capture.decay_time=30ms",),
            "numerical error: source.frequency, source.decay_time, capture.frequency and capture.decay_time: peak"
            " search spans 1.2e+11 quadrature nodes to t_max, more than 1e+11\n",
        ),
        (
            "tomo-synth",
            ("tomo.n_shots=10", "tomo.noise_sigma=0.1"),
            "config error: tomo.n_shots and tomo.noise_sigma: choose binomial or Gaussian noise, not both\n",
        ),
        (
            "transfer-peak",
            ("source.frequency=1e12Hz",),
            "numerical error: source.frequency, source.decay_time, capture.frequency and capture.decay_time: peak"
            " lies within the first capture period (7968 quadrature nodes, search from node 18), where the tone fit"
            " defines no stored energy\n",
        ),
        (
            "transfer-peak",
            ("capture.frequency=65.5MHz",),
            "numerical error: source.frequency, source.decay_time, capture.frequency and capture.decay_time: peak"
            " lies within the first capture period (3066 quadrature nodes, search from node 18), where the tone fit"
            " defines no stored energy\n",
        ),
        (
            "transfer-peak",
            ("source.decay_time=1e-307s",),
            "numerical error: source.decay_time: emitted energy V0^2/(2 kappa_1 Z0) is 0 at kappa_1 = 1e+307/s\n",
        ),
        (
            "stark",
            ("protocol.n_bar_qubit_cavity=1e308",),
            "numerical error: protocol.n_bar_qubit_cavity and protocol.stark_shift_per_photon: stark photon numbers"
            " or shifts overflow float64\n",
        ),
        (
            "depletion",
            ("protocol.stark_shift_per_photon=1e306Hz",),
            "numerical error: protocol.stark_shift_per_photon: depletion frequency shift overflows float64\n",
        ),
        (
            "potential-sweep",
            ("device.loop_inductance=1e-320H",),
            "numerical error: device.critical_current and device.loop_inductance: beta_L 0 has no finite inverse"
            " 1/beta_L\n",
        ),
        (
            "bifurcation",
            ("device.critical_current=1e300A",),
            "numerical error: device.critical_current and device.loop_inductance: beta_L 3.34e+306 needs more than"
            " 1e+05 extremum bracket segments\n",
        ),
        (
            "potential-sweep",
            ("potential.flux_start=0.1Wb", "potential.flux_stop=0.1Wb"),
            "numerical error: potential.flux_start and potential.flux_stop: phase |phi_e| + beta_L + 1 reaches"
            " 3.04e+14 rad, past 2^30: total loss of precision\n",
        ),
        (
            "potential-sweep",
            ("potential.flux_start=1e300Wb", "potential.flux_stop=1e300Wb"),
            "numerical error: potential.flux_start and potential.flux_stop: phase |phi_e| + beta_L + 1 reaches"
            " inf rad, past 2^30: total loss of precision\n",
        ),
        (
            "potential-sweep",
            ("device.shunt_capacitance=1e308F",),
            "numerical error: device.critical_current, device.loop_inductance and device.shunt_capacitance: plasma"
            " quantum hbar*omega_p underflows float64; no level count\n",
        ),
    ],
    ids=[
        "one-key",
        "two-keys",
        "three-keys",
        "four-keys",
        "config-error",
        "peak-source-1THz",
        "peak-capture-65.5MHz",
        "peak-emitted-energy",
        "stark-overflow",
        "depletion-overflow",
        "potential-sweep-beta-inverse",
        "bifurcation-beta-segments",
        "potential-sweep-flux-0.1Wb",
        "potential-sweep-flux-1e300Wb",
        "potential-sweep-plasma-quantum",
    ],
)
def test_refusal_line_leads_with_the_keys_of_its_arguments(tmp_path, capsys, name, overrides, line):
    # run_subcommand puts the config keys of a library refusal's params
    # at the head of its line, in the order the subcommand's table lists
    # them, joined as "a, b and c".
    code, paths = run_subcommand(name, overrides=overrides, output_dir=str(tmp_path / "out"))
    assert (code, paths) == (int(line.startswith("numerical")) + 2, [])
    assert capsys.readouterr().err == line
    assert list(tmp_path.iterdir()) == []


def test_argument_keys_are_schema_keys_their_subcommand_reads(keys_read):
    # Each argument a subcommand's table maps names one or more config
    # keys, each a schema key that the subcommand reads.
    table = jpmsim.cli._ARGUMENT_KEYS
    assert set(table) <= set(SUBCOMMANDS)
    for name, arguments in table.items():
        for argument, keys in arguments.items():
            assert keys.split(), (name, argument)
            assert set(keys.split()) <= set(SCHEMA) & set(keys_read[name]), (name, argument, keys)


def _default(method, *overrides):
    return getattr(RunConfig.from_sources(None, overrides), method)()


# Each row: the subcommand whose table maps the refusal, a library call
# it makes with one input at fault, the error raised and its params.
_LIBRARY_REFUSALS = {
    "ramsey-t2": ("ramsey", lambda pc: ramsey_fringe([0.0], [0.0], pc, t2=0.0, amplitude=1.0), ("t2", "cfg.t1")),
    "ramsey-amplitude": ("ramsey", lambda pc: ramsey_fringe([0.0], [0.0], pc, amplitude=2.0), ("amplitude",)),
    "ramsey-delays": ("ramsey", lambda pc: ramsey_fringe([0.0], [-1.0], pc, amplitude=1.0), ("delays",)),
    "ramsey-phase": (
        "ramsey", lambda pc: ramsey_fringe([1e10], [1.0], pc, amplitude=1.0), ("detunings", "delays")
    ),
    "ramsey-no-shots": ("ramsey", lambda pc: ramsey_fringe([0.0], [0.0], pc, amplitude=1.0, n_shots=0), ("n_shots",)),
    "rabi-rate": ("rabi", lambda pc: rabi_chevron([0.0], [0.0], pc, rabi_rate=0.0), ("rabi_rate",)),
    "rabi-durations": ("rabi", lambda pc: rabi_chevron([0.0], [-1.0], pc, rabi_rate=1.0), ("durations",)),
    "rabi-phase": (
        "rabi", lambda pc: rabi_chevron([0.0], [1e10], pc, rabi_rate=1.0), ("rabi_rate", "detunings", "durations")
    ),
    "rabi-too-many-shots": (
        "rabi", lambda pc: rabi_chevron([0.0], [0.0], pc, rabi_rate=1.0, n_shots=2**63), ("n_shots",)
    ),
    "depletion-t_dep": ("depletion", lambda pc: depletion_recovery([-1.0], pc), ("t_dep",)),
    "stark-shift": (
        "stark", lambda pc: stark_calibration([1.0], replace(pc, stark_shift_per_photon=0.0)),
        ("cfg.stark_shift_per_photon",),
    ),
    "stark-empty": ("stark", lambda pc: stark_calibration([], pc), ("drive_powers",)),
    "stark-negative": ("stark", lambda pc: stark_calibration([-1.0, 1.0], pc), ("drive_powers",)),
    "stark-zero": ("stark", lambda pc: stark_calibration([0.0, 0.0], pc), ("drive_powers",)),
    "budget-few-shots": ("budget", lambda pc: fidelity_budget(pc, 9999), ("n_shots",)),
    "budget-many-shots": ("budget", lambda pc: fidelity_budget(pc, 10**9), ("n_shots",)),
    "iq-no-shots": ("iq", lambda pc: iq_fidelity(IqModel(), 0, np.random.default_rng(0)), ("n_shots",)),
    "iq-many-shots": ("iq", lambda pc: iq_fidelity(IqModel(), 10**9, np.random.default_rng(0)), ("n_shots",)),
    "tomo-t_pi": ("tomo-synth", lambda pc: expected_occupation(DensityMatrix2(0.5), 0.0, 0.0, 0.0), ("t_pi",)),
    "tomo-alpha": ("tomo-synth", lambda pc: expected_occupation(DensityMatrix2(0.5), 0.0, 1e300, 1.0), ("t", "t_pi")),
    "tomo-phi": (
        "tomo-synth", lambda pc: expected_occupation(DensityMatrix2(0.5, 0.0, 1e20), 0.0, 0.0, 1.0),
        ("rho.coherence_phase",),
    ),
    "tomo-noise": (
        "tomo-synth", lambda pc: synthesize_tomogram(DensityMatrix2(0.5), 1.0, [0.0], [0.0], noise_sigma=-1.0),
        ("noise_sigma",),
    ),
    "tomo-both-noises": (
        "tomo-synth",
        lambda pc: synthesize_tomogram(DensityMatrix2(0.5), 1.0, [0.0], [0.0], n_shots=1, noise_sigma=0.1),
        ("n_shots", "noise_sigma"),
    ),
    "tomo-no-shots": (
        "tomo-synth",
        lambda pc: synthesize_tomogram(DensityMatrix2(0.5), 1.0, [0.0], [0.0], n_shots=0, rng=np.random.default_rng(0)),
        ("n_shots",),
    ),
    "curves-phase": ("transfer-curves", lambda pc: efficiency(np.array([0.0, 1.0]), 1.0, 1.0, 1e10), ("d_omega", "t")),
    "peak-span": (
        "transfer-peak", lambda pc: peak_efficiency(_default("transfer_config", "capture.decay_time=30ms")), ("cfg",)
    ),
    "peak-unresolved": (
        "transfer-peak", lambda pc: peak_efficiency(_default("transfer_config", "capture.decay_time=1ps")), ("cfg",)
    ),
    "peak-phase": (
        "transfer-peak",
        lambda pc: peak_efficiency(_default("transfer_config", "capture.decay_time=20ms", "capture.frequency=6GHz")),
        ("d_omega", "t"),
    ),
    "peak-first-capture-period": (
        "transfer-peak", lambda pc: peak_efficiency(_default("transfer_config", "source.frequency=1e12Hz")), ("cfg",)
    ),
    "peak-window": (
        "transfer-peak",
        lambda pc: peak_efficiency(
            _default(
                "transfer_config",
                "source.frequency=1e14Hz",
                "capture.frequency=1e8Hz",
                "source.decay_time=1us",
                "capture.decay_time=1us",
            )
        ),
        ("cfg",),
    ),
    "stark-overflow": (
        "stark", lambda pc: stark_calibration([1.0], replace(pc, n_bar_qubit_cavity=1e308)),
        ("cfg.n_bar_qubit_cavity", "cfg.stark_shift_per_photon"),
    ),
    "depletion-overflow": (
        "depletion", lambda pc: depletion_recovery([0.0], replace(pc, stark_shift_per_photon=1e308)),
        ("cfg.stark_shift_per_photon",),
    ),
    "beta-inverse": (
        "potential-sweep",
        lambda pc: well_report_sweep([0.0], _default("jpm_params", "device.loop_inductance=1e-320H")),
        ("p.critical_current", "p.loop_inductance"),
    ),
    "beta-segments": (
        "bifurcation", lambda pc: critical_flux(_default("jpm_params", "device.critical_current=1e300A")),
        ("p.critical_current", "p.loop_inductance"),
    ),
    "sweep-phase": (
        "potential-sweep", lambda pc: well_report_sweep([0.0, 1e16 * PHI0], _default("jpm_params")), ("fluxes",)
    ),
    "plasma-quantum": (
        "potential-sweep",
        lambda pc: well_report_sweep([0.5 * PHI0], _default("jpm_params", "device.shunt_capacitance=1e308F")),
        ("p.critical_current", "p.loop_inductance", "p.shunt_capacitance"),
    ),
    # Two angles and one duration would be unidentifiable; the phase rule refuses the grid first.
    "tomo-fit-angles": (
        "tomo-fit", lambda pc: fit_tomogram(TomogramGrid([0.0, 2.0**31], [0.0], [[0.5], [0.5]])), ("grid",)
    ),
}


@pytest.mark.parametrize("row", list(_LIBRARY_REFUSALS))
def test_library_refusals_carry_the_arguments_the_cli_maps(row):
    # A library refusal that run_subcommand keys carries the names of its
    # arguments at fault, and the subcommand's table maps each of them.
    name, call, params = _LIBRARY_REFUSALS[row]
    with pytest.raises((ArgumentError, NumericalError)) as info:
        call(_default("protocol_config"))
    assert info.value.params == params
    assert set(params) <= set(jpmsim.cli._ARGUMENT_KEYS[name])


# Each rule that cli.py once checked again so that its refusal could name
# its key: a pattern for the spellings of the check, and the functions
# that spell it.  The time-axis row is the non-negative end that
# cli._time_axis checked, which a read tomogram's durations share;
# iq_fidelity's own count of at least 1 draws no binomial.
_ONE_HOME_RULES = [
    (r"\b\w*amplitude\w* [<>]=? [01]|\b[01](\.0)? [<>]=? \w*amplitude", {"protocol.ramsey_fringe"}),
    (r"stark_shift_per_photon [!=]= 0", {"protocol.stark_calibration"}),
    (r"powers\w*\.size [!=]= 0|len\(\w*powers\w*\)|_require_nonempty\(.*powers", {"protocol.stark_calibration"}),
    (r"\bt_pi [<>]=? 0", {"tomography.expected_occupation"}),
    (
        r"\b(delays|durations|t_dep|end) [<>]=? 0",
        {"protocol.ramsey_fringe", "protocol.rabi_chevron", "protocol.depletion_recovery", "tomography.TomogramGrid"},
    ),
    (
        r"\.binomial\(|\b2 \*\* 63\b|\b1 << 63\b|\bn_shots [<>]=? 1\b",
        {"errors.binomial_fraction", "protocol.iq_fidelity"},
    ),
]


def test_each_argument_rule_is_written_once():
    # The amplitude in [0, 1], a nonzero Stark shift, a non-empty power
    # list, a positive t_pi, a non-negative time axis and a binomial shot
    # count from 1 to 2^63 - 1 are each checked in the library function
    # that takes the argument, and cli.py checks none of them.  Comparisons, calls and powers are matched as ast.unparse
    # spells them, so docstrings and spacing do not count.
    package = Path(jpmsim.cli.__file__).parent
    checks = []
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, (ast.Compare, ast.Call, ast.BinOp)):
                    checks.append((f"{path.stem}.{getattr(top, 'name', '<module>')}", ast.unparse(node)))
    for pattern, homes in _ONE_HOME_RULES:
        assert {where for where, text in checks if re.search(pattern, text)} == homes, pattern
