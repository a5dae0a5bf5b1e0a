"""Command line interface: config in, deterministic datasets out.

Every subcommand reads one flat key/value config document (all keys
optional, see config.SCHEMA for names and defaults), applies -s/--set
overrides, runs the corresponding computation, and writes one artifact
into the output directory, named after the subcommand (tomo-synth's
is tomogram).  _SUBCOMMANDS maps each subcommand to its compute
function and help text.  Each compute function imports the physics
names it calls, so a subcommand loads only its own layer; json is
imported where a JSON artifact is written and csv where a tomogram is
read.  A compute function returns {column name: column} for a table
and {key: scalar} for a record, so each name is given where its values
are computed, and _write tells the two apart by the values.
_table_text says how a table is encoded.  Outputs are byte-stable for
a fixed config and seed.

Compute functions call the library directly: run_subcommand, the one
error boundary, leads a library refusal's line with the config keys
that _ARGUMENT_KEYS, the one such table, maps its params to.

Exit codes: 0 success, 2 config error, 3 numerical/identifiability
error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from collections.abc import Callable
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .config import RunConfig
from .constants import PHI0
from .errors import ConfigError, NumericalError

if TYPE_CHECKING:
    from .tomography import TomogramGrid

TWO_PI = 2.0 * math.pi

# The efficiencies are free of the line's scale; emitted_energy_J is that of a nominal drive.
NOMINAL_DRIVE_V = 1.0
NOMINAL_LINE_OHM = 50.0


WRITE_BLOCK_ROWS = 2**12
"""Table rows _write encodes at once, so its working set stays near this
many rows whatever the table's length."""


def _json_floats(part: np.ndarray) -> list:
    import json

    values = part.tolist()
    for i in np.flatnonzero(~np.isfinite(part)).tolist():
        values[i] = json.dumps(values[i])  # NaN, Infinity, -Infinity
    return values


def _block_text(columns, start: int, prepare, template: str, separator: str) -> str:
    """Rows start to start + WRITE_BLOCK_ROWS of a table, one %-template per row.

    prepare[k] turns column k's slice into the values its template field
    takes.
    """
    stop = start + WRITE_BLOCK_ROWS
    block = [values(column[start:stop]) for column, values in zip(columns, prepare)]
    return separator.join(map(template.__mod__, zip(*block)))


def _table_text(table: dict, as_csv: bool):
    """The artifact text of a table {column name: column}: its head, each block of rows, its tail.

    A column is a numpy array or list of floats, ints or plain text
    labels, and the table has as many rows as its shortest column.  A
    column name or label holds no comma, quote, backslash, line break or
    non-ASCII character, so both are written verbatim.  CSV prints a
    float with %.12g and anything else with %s, under a line of the
    names; JSON gives what json.dump(rows, indent=2) gives for a list of
    one dict per row, keys in column order.  Each block of
    WRITE_BLOCK_ROWS rows is encoded by _block_text, one %-template per
    row, so the text of the whole table is never held in memory.
    """
    columns = [np.asarray(column) for column in table.values()]
    rows = min((len(column) for column in columns), default=0)
    kinds = [column.dtype.kind for column in columns]
    prepare = [_json_floats if kind == "f" and not as_csv else np.ndarray.tolist for kind in kinds]
    if as_csv:
        yield ",".join(table) + "\n"
        template = ",".join("%.12g" if kind == "f" else "%s" for kind in kinds) + "\n"
        separator = ""
    elif rows == 0:
        yield "[]\n"
        return
    else:
        import json

        yield "[\n"
        # A key is text of the template, so its own % signs are escaped.
        fields = (
            json.dumps(key).replace("%", "%%") + (": %s" if kind in "fiu" else ': "%s"')
            for key, kind in zip(table, kinds)
        )
        template = "  {\n    " + ",\n    ".join(fields) + "\n  }"
        separator = ",\n"
    for start in range(0, rows, WRITE_BLOCK_ROWS):
        text = _block_text(columns, start, prepare, template, separator)
        yield separator + text if start else text
    if not as_csv:
        yield "\n]\n"


def _write(out_dir: Path, stem: str, data: dict, file_format: str) -> Path:
    """Write data to out_dir as stem plus the format's suffix; returns its path.

    data is a table when each value is a column (np.ndim 1), written as
    _table_text encodes it in file_format; a record of scalars is a JSON
    object whatever the format.  out_dir is created here, so a run
    refused before writing leaves no new directory.  The bytes go to a
    new temporary file in out_dir that replaces the artifact only once
    complete, so a failed write leaves no partial file and any older
    artifact of the same name as it was.
    """
    table = all(np.ndim(value) == 1 for value in data.values())
    as_csv = table and file_format == "csv"
    path = out_dir / f"{stem}.{'csv' if as_csv else 'json'}"
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = out_dir / f".{stem}.{os.urandom(8).hex()}.tmp"
    # Created new under a random name with the mode open() gives, 0666 less the umask.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            if table:
                fh.writelines(_table_text(data, as_csv))
            else:
                import json

                fh.write(json.dumps({key: np.asarray(value).tolist() for key, value in data.items()}, indent=2) + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def _linspace(start: float, stop: float, cfg: RunConfig, key: str, span: str, endpoint: bool = True) -> np.ndarray:
    """start to stop in as many points as the count at key, stop left out unless endpoint.

    A refusal of the count names key, and one of a sweep past float64
    names span, the key or keys that set start and stop.  np.linspace
    sizes its array from the count as a float, which rounds the 64 counts
    below 2^60 up to 2^60, past numpy's cap of sys.maxsize bytes, so the
    cap is checked on the float too.
    """
    points = cfg.get(key)
    least = 2 if endpoint else 1
    if points < least:
        raise ConfigError(f"{key} must be at least {least}")
    if points > sys.maxsize // 8 or 8.0 * points > sys.maxsize:
        raise ConfigError(f"{key} = {points} is more points than a float64 array can hold")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.linspace(start, stop, points, endpoint=endpoint)
    except MemoryError as exc:
        raise NumericalError(f"{key} = {points} points: {exc}") from exc
    if not np.isfinite(values).all():
        raise ConfigError(f"{span}: sweep from {start:g} to {stop:g} is out of float64 range")
    return values


def _time_axis(cfg: RunConfig, section: str, name: str) -> np.ndarray:
    """0 to {section}.{name}_stop in {section}.{name}_points steps; errors name the key at fault."""
    stop = f"{section}.{name}_stop"
    return _linspace(0.0, cfg.get(stop), cfg, f"{section}.{name}_points", stop)


def _grid_columns(names: tuple[str, str, str], row_values, col_values, matrix: np.ndarray) -> dict:
    """The row value, column value and cell columns of a matrix, in row-major order, under names."""
    columns = (np.repeat(row_values, col_values.size), np.tile(col_values, row_values.size), matrix.ravel())
    return dict(zip(names, columns))


def _potential_sweep(cfg: RunConfig) -> dict:
    from .potential import well_report_sweep

    params = cfg.jpm_params()
    start, stop = cfg.get("potential.flux_start"), cfg.get("potential.flux_stop")
    span = "potential.flux_start and potential.flux_stop"
    fluxes = _linspace(start, stop, cfg, "potential.flux_points", span)
    wells = well_report_sweep(fluxes, params)
    return {
        "flux (phi0)": (fluxes / PHI0)[wells.flux_index],
        "well_count (1)": wells.well_count,
        "well_label": wells.well_label,
        "minimum_phase (rad)": wells.minimum_phase,
        "barrier_phase (rad)": wells.barrier_phase,
        "barrier_height (J)": wells.barrier_height,
        "plasma_frequency (Hz)": wells.plasma_frequency / TWO_PI,
        "level_count (1)": wells.level_count,
    }


def _bifurcation(cfg: RunConfig) -> dict:
    from . import potential

    params = cfg.jpm_params()
    crit = np.array(potential.critical_flux(params))
    # The count of minima is constant between neighbouring tangencies,
    # which repeat every Phi0, so one probe midway across each gap counts
    # the minima above one critical flux and below the next.
    probes = 0.5 * (crit + np.append(crit[1:], crit[:1] + PHI0))
    _, flux_of, _, _, is_minimum = potential._sweep_extrema(probes, params)
    minima = np.bincount(flux_of[is_minimum], minlength=probes.size)
    return {
        "critical_flux (phi0)": np.divide(crit, PHI0),
        "minima_below (1)": np.roll(minima, 1),
        "minima_above (1)": minima,
    }


def _transfer_curves(cfg: RunConfig) -> dict:
    from .transfer import efficiency

    kappa_1 = cfg._decay_rate("source.decay_time")
    kappa_ratios = cfg.get("transfer.kappa_ratios")
    detuning_ratios = cfg.get("transfer.detuning_ratios")
    if len(kappa_ratios) == 0 and len(detuning_ratios) == 0:
        raise ConfigError("transfer.kappa_ratios and transfer.detuning_ratios are both empty")
    t_max = cfg.get("transfer.t_max_scaled")
    if t_max <= 0.0:
        raise ConfigError("transfer.t_max_scaled must be positive")
    span = "transfer.t_max_scaled and source.decay_time"
    ts = _linspace(0.0, t_max / kappa_1, cfg, "transfer.time_points", span)

    etas, labels = [], []

    def family(kappa_2, delta_omega, key, label):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            eta = efficiency(ts, kappa_1, kappa_2, delta_omega)
        if not np.isfinite(eta).all():
            raise NumericalError(f"{key}: transfer efficiency for {label} is not finite")
        etas.append(eta)
        labels.append(label)

    for ratio in kappa_ratios:
        if ratio <= 0.0:
            raise ConfigError("transfer.kappa_ratios entries must be positive")
        family(ratio * kappa_1, 0.0, "transfer.kappa_ratios", "kappa_ratio=%g" % ratio)
    for ratio in detuning_ratios:
        family(kappa_1, ratio * kappa_1, "transfer.detuning_ratios", "detuning_ratio=%g" % ratio)
    return {
        "t_kappa1 (1)": np.tile(ts * kappa_1, len(labels)),
        "efficiency (1)": np.concatenate(etas),
        # An object column holds a reference per row to its family's label,
        # not a fixed-width copy of the longest one.
        "label": np.repeat(np.array(labels, dtype=object), ts.size),
    }


def _transfer_peak(cfg: RunConfig) -> dict:
    from .transfer import freq_mismatch_peak, kappa_mismatch_peak, peak_efficiency

    tc = cfg.transfer_config()
    kappa_1 = tc.source.decay_rate
    emitted_energy = NOMINAL_DRIVE_V**2 / (2.0 * kappa_1 * NOMINAL_LINE_OHM)
    if emitted_energy == 0.0:
        raise NumericalError(f"emitted energy V0^2/(2 kappa_1 Z0) is 0 at kappa_1 = {kappa_1:.3g}/s", "kappa_1")
    eta_peak, t_opt = peak_efficiency(tc)
    eta_kappa, t_kappa = kappa_mismatch_peak(kappa_1, tc.target.decay_rate)
    if tc.delta_kappa == 0.0:
        eta_freq, t_freq = freq_mismatch_peak(kappa_1, tc.delta_omega)
    else:
        eta_freq, t_freq = None, None
    return {
        "eta_peak": eta_peak,
        "t_opt_s": t_opt,
        "eta_matched_bound": kappa_mismatch_peak(kappa_1, kappa_1)[0],
        "eta_kappa_closed_form": eta_kappa,
        "t_opt_kappa_closed_form_s": t_kappa,
        "eta_freq_closed_form": eta_freq,
        "t_opt_freq_closed_form_s": t_freq,
        "emitted_energy_J": emitted_energy,
    }


def _budget(cfg: RunConfig) -> dict:
    from .protocol import fidelity_budget, relaxation_error

    pc = cfg.protocol_config()
    n_shots = cfg.get("budget.n_shots")
    record = fidelity_budget(pc, n_shots)
    record["n_shots"] = n_shots
    record["analytic_relaxation_error"] = relaxation_error(pc.t_prep, pc.t1)
    return record


def _detector_grid(cfg: RunConfig, section: str, axis: str, sweep: Callable[..., np.ndarray], **options) -> dict:
    """Detuning, {axis} and switch probability columns of sweep over {section}.detunings and its time axis.

    Reads the protocol config, {section}.detunings, {section}.{axis}_stop
    and _points, and {section}.n_shots; options go to sweep as they are.
    """
    pc = cfg.protocol_config()
    detunings = cfg.get(f"{section}.detunings")
    if len(detunings) == 0:
        raise ConfigError(f"{section}.detunings is an empty sweep list")
    times = _time_axis(cfg, section, axis)
    matrix = sweep(detunings, times, pc, n_shots=cfg.get(f"{section}.n_shots"), **options)
    names = ("detuning (Hz)", f"{axis} (s)", "switch_probability (1)")
    return _grid_columns(names, np.divide(detunings, TWO_PI), times, matrix)


def _ramsey(cfg: RunConfig) -> dict:
    from .protocol import ramsey_fringe

    return _detector_grid(
        cfg, "ramsey", "delay", ramsey_fringe, t2=cfg.get("ramsey.t2"), amplitude=cfg.get("ramsey.amplitude")
    )


def _rabi(cfg: RunConfig) -> dict:
    from .protocol import rabi_chevron

    return _detector_grid(cfg, "rabi", "duration", rabi_chevron, rabi_rate=cfg.get("rabi.rate"))


def _stark(cfg: RunConfig) -> dict:
    from .protocol import stark_calibration

    powers = cfg.get("stark.powers")
    n_bar, shift = stark_calibration(powers, cfg.protocol_config())
    return {"power (1)": powers, "n_bar (1)": n_bar, "qubit_shift (Hz)": shift / TWO_PI}


def _depletion(cfg: RunConfig) -> dict:
    from .protocol import depletion_recovery

    pc = cfg.protocol_config()
    times = _time_axis(cfg, "depletion", "time")
    out = depletion_recovery(times, pc)
    return {
        "depletion_time (s)": times,
        "residual_photons (1)": out["residual_photons"],
        "ramsey_contrast (1)": out["ramsey_contrast"],
        "frequency_shift (Hz)": out["frequency_shift"] / TWO_PI,
    }


def _iq(cfg: RunConfig) -> dict:
    from .protocol import iq_fidelity

    model = cfg.iq_model()
    n_shots = cfg.get("iq.n_shots")
    return {
        "n_shots_per_class": n_shots,
        "d_over_sigma": model.separation / model.sigma,
        **iq_fidelity(model, n_shots, np.random.default_rng(cfg.get("seed"))),
    }


def _tomo_synth(cfg: RunConfig) -> dict:
    from .tomography import DensityMatrix2, synthesize_tomogram

    rho = cfg._section(
        "tomo",
        DensityMatrix2,
        excited_population=cfg.get("tomo.beta"),
        coherence_magnitude=cfg.get("tomo.r"),
        coherence_phase=cfg.get("tomo.phi"),
    )
    t_pi = cfg.get("tomo.t_pi")
    thetas = _linspace(0.0, TWO_PI, cfg, "tomo.theta_points", "tomo axis angles", endpoint=False)
    stop = cfg.get("tomo.duration_stop")
    # Default span: one full rotation plus margin, so noisy synthetic
    # grids stay clear of the fit's minimum-span identifiability bound.
    end, key = (2.2 * t_pi, "tomo.t_pi") if stop is None else (stop, "tomo.duration_stop")
    durations = _linspace(0.0, end, cfg, "tomo.duration_points", key)
    # tomo-fit reads the grid back by its cell coordinates, so two equal
    # durations would make a file it refuses.
    if not (np.diff(durations) > 0.0).all():
        raise ConfigError(f"{key}: pulse durations from 0 to {end:g} s are not strictly increasing")
    n_shots, noise_sigma = cfg.get("tomo.n_shots"), cfg.get("tomo.noise_sigma")
    # Only shot or Gaussian noise draws, so only then is numpy.random loaded.
    rng = None if n_shots is None and noise_sigma is None else np.random.default_rng(cfg.get("seed"))
    grid = synthesize_tomogram(rho, t_pi, thetas, durations, n_shots=n_shots, noise_sigma=noise_sigma, rng=rng)
    names = ("axis_angle (rad)", "pulse_duration (s)", "occupation (1)")
    return _grid_columns(names, grid.axis_angles, grid.pulse_durations, grid.occupations)


def _read_tomogram(path: str) -> TomogramGrid:
    """The grid in a tomogram CSV: a header, then one (angle, duration, occupation) row per cell in any order.

    Each axis holds the distinct coordinates, sorted.  -0 and 0 name one
    coordinate, and the axis keeps the one seen first in the file.
    """
    import csv

    from .tomography import TomogramGrid

    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ConfigError(f"{path}: empty tomogram file")
            if len(header) != 3:
                raise ConfigError(f"{path}: tomo-fit reads CSV only; header has {len(header)} columns, not 3")
            try:
                [float(cell) for cell in header]
            except ValueError:
                pass
            else:
                raise ConfigError(f"{path}: starts with a data row, not a header")
            cells = {}
            for row in reader:
                if not row:
                    continue
                if len(row) != 3:
                    raise ConfigError(f"{path}: expected 3 columns, got {len(row)}")
                try:
                    theta, t, occupation = (float(cell) for cell in row)
                except ValueError as exc:
                    raise ConfigError(f"{path}: malformed row {row!r}") from exc
                if not (math.isfinite(theta) and math.isfinite(t)):
                    raise ConfigError(f"{path}: non-finite grid coordinate in row {row!r}")
                if (theta, t) in cells:
                    raise ConfigError(f"{path}: duplicate grid cell ({theta}, {t})")
                cells[(theta, t)] = occupation
    except (csv.Error, UnicodeDecodeError) as exc:  # e.g. a field over csv.field_size_limit()
        raise ConfigError(f"{path}: {exc}") from exc
    if not cells:
        raise ConfigError(f"{path}: no data rows")
    thetas = sorted({key[0] for key in cells})
    ts = sorted({key[1] for key in cells})
    if len(thetas) * len(ts) != len(cells):
        raise ConfigError(f"{path}: grid is not a complete (angle x duration) product")
    occupations = [[cells[theta, t] for t in ts] for theta in thetas]
    try:
        return TomogramGrid(thetas, ts, occupations)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _tomo_fit(cfg: RunConfig) -> dict:
    from .tomography import fit_tomogram, overlap_fidelity

    input_path = cfg.get("tomo.input")
    if input_path is None:
        raise ConfigError("tomo.input must point to a tomogram CSV")
    fit = fit_tomogram(_read_tomogram(input_path))
    rho = fit.rho
    matrix = rho.matrix()
    return {
        "beta": rho.excited_population,
        "r": rho.coherence_magnitude,
        "phi": rho.coherence_phase,
        "t_pi_s": fit.pi_duration,
        "residual_rms": fit.residual_rms,
        "projected": fit.projected,
        "phase_unidentifiable": fit.phase_unidentifiable,
        "rho_00": matrix[0, 0].real,
        "rho_01_real": matrix[0, 1].real,
        "rho_01_imag": matrix[0, 1].imag,
        "rho_11": matrix[1, 1].real,
        "fidelity_vs_ground": overlap_fidelity(rho, [1.0, 0.0]),
        "fidelity_vs_excited": overlap_fidelity(rho, [0.0, 1.0]),
    }


# Each subcommand's compute function and help text, in the order --help lists them.
_SUBCOMMANDS: dict[str, tuple[Callable[[RunConfig], dict], str]] = {
    "potential-sweep": (_potential_sweep, "Sweep the loop flux bias and tabulate every potential well: "
                                          "minimum and barrier phases, depth, plasma frequency, level count."),
    "bifurcation": (_bifurcation, "Locate the flux biases where potential minima appear or vanish "
                                  "and count the minima on either side of each."),
    "transfer-curves": (_transfer_curves, "Tabulate transfer-efficiency curves versus scaled time for "
                                          "families of decay-rate ratios and detuning ratios."),
    "transfer-peak": (_transfer_peak, "Report the peak transfer efficiency and optimal capture time for "
                                      "the configured cavity pair, with closed-form reference values."),
    "budget": (_budget, "Monte Carlo raw-fidelity budget of the measurement protocol, "
                        "split into relaxation, dark-count, and detection-miss terms."),
    "ramsey": (_ramsey, "Detector-read Ramsey fringe dataset versus drive detuning and delay."),
    "rabi": (_rabi, "Detector-read Rabi chevron dataset versus drive detuning and pulse duration."),
    "stark": (_stark, "Photon-number calibration: map drive powers to cavity occupation "
                      "and qubit frequency shift."),
    "depletion": (_depletion, "Post-measurement recovery versus depletion time: residual "
                              "photons, fringe contrast, and frequency shift."),
    "iq": (_iq, "IQ-plane discrimination report: single-shot and separation "
                "fidelities and the decision threshold."),
    "tomo-synth": (_tomo_synth, "Generate a synthetic tomogram grid (axis angle x pulse duration) "
                                "from a configured qubit state."),
    "tomo-fit": (_tomo_fit, "Fit a four-parameter qubit state to a tomogram CSV and report "
                            "the density matrix, pi-pulse duration, and target fidelities."),
}

# Each subcommand's library argument names, as a refusal's params give
# them, and the config keys that set each, space-separated; a refusal's
# line lists its keys in the order they first appear here.
_ARGUMENT_KEYS: dict[str, dict[str, str]] = {
    "potential-sweep": {"p.critical_current": "device.critical_current", "p.loop_inductance": "device.loop_inductance",
                        "p.shunt_capacitance": "device.shunt_capacitance",
                        "fluxes": "potential.flux_start potential.flux_stop"},
    "bifurcation": {"p.critical_current": "device.critical_current", "p.loop_inductance": "device.loop_inductance"},
    "transfer-curves": {"d_omega": "transfer.detuning_ratios", "t": "transfer.t_max_scaled"},
    "transfer-peak": {"cfg": "source.frequency source.decay_time capture.frequency capture.decay_time",
                      "d_omega": "source.frequency capture.frequency",
                      "t": "source.frequency source.decay_time capture.frequency capture.decay_time",
                      "kappa_1": "source.decay_time"},
    "budget": {"n_shots": "budget.n_shots"},
    "ramsey": {"detunings": "ramsey.detunings", "delays": "ramsey.delay_stop", "t2": "ramsey.t2",
               "cfg.t1": "protocol.t1", "amplitude": "ramsey.amplitude", "n_shots": "ramsey.n_shots"},
    "rabi": {"rabi_rate": "rabi.rate", "detunings": "rabi.detunings", "durations": "rabi.duration_stop",
             "n_shots": "rabi.n_shots"},
    "stark": {"cfg.n_bar_qubit_cavity": "protocol.n_bar_qubit_cavity",
              "cfg.stark_shift_per_photon": "protocol.stark_shift_per_photon", "drive_powers": "stark.powers"},
    "depletion": {"t_dep": "depletion.time_stop", "cfg.stark_shift_per_photon": "protocol.stark_shift_per_photon"},
    "iq": {"n_shots": "iq.n_shots"},
    "tomo-synth": {"t": "tomo.duration_stop", "t_pi": "tomo.t_pi", "rho.coherence_phase": "tomo.phi",
                   "n_shots": "tomo.n_shots", "noise_sigma": "tomo.noise_sigma"},
    "tomo-fit": {"grid": "tomo.input"},
}


def run_subcommand(
    name: str,
    config_path: str | None = None,
    overrides=(),
    output_dir: str | None = None,
) -> tuple[int, list[Path]]:
    """Run one subcommand; returns (exit code, written artifact paths).

    The artifact goes into output_dir, else the working directory.  It is
    named after the subcommand, "-" read as "_", except tomo-synth's: the
    tomogram that tomo-fit reads.  This is the CLI's
    one error boundary: a ValueError (ConfigError included) exits 2, a
    NumericalError, a float overflow or division by zero
    (ArithmeticError) or an array too large to allocate (MemoryError) 3
    and an OSError 4, each with one diagnostic line on stderr, which
    starts with the config keys _ARGUMENT_KEYS maps a refusal's params
    to, joined as "a, b and c".  The
    artifact is computed in full before its directory is created and its
    file opened, so exits 2 and 3 leave no file and no new directory.
    Prints one line per artifact on success.
    """
    if name not in _SUBCOMMANDS:
        print(f"unknown subcommand {name!r}", file=sys.stderr)
        return 2, []
    compute, _ = _SUBCOMMANDS[name]
    stem = {"tomo-synth": "tomogram"}.get(name, name.replace("-", "_"))
    try:
        cfg = RunConfig.from_sources(config_path, overrides)
        path = _write(Path(output_dir or "."), stem, compute(cfg), cfg.get("output.format"))
    except (ValueError, NumericalError, ArithmeticError, MemoryError) as exc:
        table = _ARGUMENT_KEYS.get(name, {})
        at_fault = {key for param in getattr(exc, "params", ()) for key in table.get(param, "").split()}
        keys = [key for key in dict.fromkeys(" ".join(table.values()).split()) if key in at_fault]
        named = ", ".join(keys[:-1]) + " and " + keys[-1] if len(keys) > 1 else "".join(keys)
        code, kind = (2, "config") if isinstance(exc, ValueError) else (3, "numerical")
        print(f"{kind} error: {named + ': ' if named else ''}{exc}", file=sys.stderr)
        return code, []
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4, []
    print(f"wrote {path}")
    return 0, [path]


def main(argv=None) -> int:
    """The process entry point: parse argv and run one subcommand; returns its exit code.

    Only the subparser that argv's first word names is built, or all of
    them when it names none (--help, --version, an unknown name).  Once
    the arguments are parsed, main freezes the garbage collector's
    current objects (gc.freeze) for the rest of the process.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    names = argv[:1] if argv[:1] and argv[0] in _SUBCOMMANDS else _SUBCOMMANDS
    parser = argparse.ArgumentParser(
        prog="jpmsim",
        description=(
            "Desk-scale simulator of photon-counter-based superconducting "
            "qubit measurement: potential landscapes, cavity-to-cavity "
            "transfer, measurement fidelity budgets, and state tomography."
        ),
    )
    parser.add_argument("--version", action="version", version=f"jpmsim {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in names:
        summary = _SUBCOMMANDS[name][1]
        sub = subparsers.add_parser(name, help=summary, description=summary)
        sub.add_argument("-c", "--config", default=None, help="path to a key/value config document")
        sub.add_argument(
            "-s",
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        sub.add_argument(
            "-o",
            "--output-dir",
            default=None,
            help="output directory (default: the working directory)",
        )
    args = parser.parse_args(argv)
    # Everything alive here lives until the process exits, so the collector
    # never needs to walk it again, during the run or at shutdown.
    gc.freeze()
    code, _ = run_subcommand(args.command, args.config, args.set, args.output_dir)
    return code


if __name__ == "__main__":
    sys.exit(main())
