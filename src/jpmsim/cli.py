"""Command line interface: config in, deterministic datasets out.

Every subcommand reads one flat key/value config document (all keys
optional, see config.SCHEMA for names and defaults), applies -s/--set
overrides, runs the corresponding computation, and writes one artifact
into the output directory.  _SUBCOMMANDS describes each subcommand
once: its compute function, artifact stem, column header and help
text.  Each compute function imports the physics names it calls, so a
subcommand loads only its own layer; json is imported where a JSON
artifact is written and csv where a tomogram is read.  A table's
compute function returns its columns (numpy arrays or lists, in header
order) of floats, ints or plain text labels, and _write encodes them a
block of WRITE_BLOCK_ROWS rows at a time, one %-template per row, so
the table's text is never whole in memory.  Header names and labels are
written verbatim.  Outputs are byte-stable for a fixed config and
seed: fixed column orders, 12-significant-digit decimals for float
columns in CSV, and newline-terminated JSON with insertion-ordered
keys.

Exit codes: 0 success, 2 config error, 3 numerical/identifiability
error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import tempfile
from collections.abc import Callable
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import __version__
from .config import RunConfig
from .constants import PHI0
from .errors import ConfigError, NumericalError

if TYPE_CHECKING:
    from .tomography import TomogramGrid

OUTPUT_DIR_ENV = "JPMSIM_OUTPUT_DIR"

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


def _table_text(header, columns: list[np.ndarray], as_csv: bool):
    """The artifact text of a table: its head, each block of rows, its tail.

    Each block of WRITE_BLOCK_ROWS rows is encoded by _block_text.  A
    column holds floats, ints or plain text labels, and a header name or
    label needs no quoting or escaping, so both are written verbatim.
    CSV prints a float with %.12g and anything else with %s; JSON gives
    what json.dump(rows, indent=2) gives for a list of one dict per row.
    """
    rows = min((len(column) for column in columns), default=0)
    kinds = [column.dtype.kind for column in columns]
    prepare = [_json_floats if kind == "f" and not as_csv else np.ndarray.tolist for kind in kinds]
    if as_csv:
        yield ",".join(header) + "\n"
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
            for key, kind in zip(header, kinds)
        )
        template = "  {\n    " + ",\n    ".join(fields) + "\n  }"
        separator = ",\n"
    for start in range(0, rows, WRITE_BLOCK_ROWS):
        text = _block_text(columns, start, prepare, template, separator)
        yield separator + text if start else text
    if not as_csv:
        yield "\n]\n"


def _write(out_dir: Path, stem: str, header, data, file_format: str) -> Path:
    """Write a table (columns under header) or, when header is None, a JSON record.

    out_dir is created here, so a run refused before writing leaves no
    new directory.  The bytes go to a temporary file in out_dir that
    replaces the artifact only once complete, so a failed write leaves no
    partial file and any older artifact of the same name as it was.  A
    table is encoded and written one block of rows at a time
    (_table_text), so no text of the whole table is held in memory.
    """
    as_csv = header is not None and file_format == "csv"
    if header is None:
        payload = {key: np.asarray(value).tolist() for key, value in data.items()}
    else:
        columns = [np.asarray(column) for column in data]
    path = out_dir / f"{stem}.{'csv' if as_csv else 'json'}"
    out_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=f".{stem}.", suffix=".tmp")
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            # mkstemp creates the file 0600; give it the mode open() would.
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            if header is None:
                import json

                json.dump(payload, fh, indent=2)
                fh.write("\n")
            else:
                fh.writelines(_table_text(header, columns, as_csv))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def _linspace(start: float, stop: float, points: int, key: str) -> np.ndarray:
    if points < 2:
        raise ConfigError(f"{key} must be at least 2")
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.linspace(start, stop, points)
    if not np.isfinite(values).all():
        raise ConfigError(f"sweep from {start:g} to {stop:g} is out of float64 range")
    return values


def _require_nonempty(cfg: RunConfig, key: str):
    values = cfg.get(key)
    if len(values) == 0:
        raise ConfigError(f"{key} is an empty sweep list")
    return values


def _time_axis(cfg: RunConfig, section: str, name: str) -> np.ndarray:
    """0 to {section}.{name}_stop in {section}.{name}_points steps; errors name the points key."""
    points = f"{section}.{name}_points"
    return _linspace(0.0, cfg.get(f"{section}.{name}_stop"), cfg.get(points), points)


def _grid_columns(row_values: np.ndarray, col_values: np.ndarray, matrix: np.ndarray) -> tuple:
    """(row value, column value, cell) columns of a matrix, in row-major order."""
    return (
        np.repeat(row_values, col_values.size),
        np.tile(col_values, row_values.size),
        matrix.ravel(),
    )


def _potential_sweep(cfg: RunConfig) -> tuple:
    from .potential import well_report_sweep

    params = cfg.jpm_params()
    fluxes = _linspace(
        cfg.get("potential.flux_start"),
        cfg.get("potential.flux_stop"),
        cfg.get("potential.flux_points"),
        "potential.flux_points",
    )
    wells = well_report_sweep(fluxes, params)
    return (
        (fluxes / PHI0)[wells.flux_index],
        wells.well_count,
        wells.well_label,
        wells.minimum_phase,
        wells.barrier_phase,
        wells.barrier_height,
        wells.plasma_frequency / TWO_PI,
        wells.level_count,
    )


def _bifurcation(cfg: RunConfig) -> tuple:
    from .potential import critical_flux, find_extrema_sweep

    params = cfg.jpm_params()
    crit = np.array(critical_flux(params))
    # The count of minima is constant between neighbouring tangencies,
    # which repeat every Phi0, so one probe midway across each gap counts
    # the minima above one critical flux and below the next.
    probes = 0.5 * (crit + np.append(crit[1:], crit[:1] + PHI0))
    minima = [
        sum(1 for _, kind in extrema if kind == "minimum")
        for extrema in find_extrema_sweep(probes, params)
    ]
    return np.divide(crit, PHI0), minima[-1:] + minima[:-1], minima


def _transfer_curves(cfg: RunConfig) -> tuple:
    from .transfer import efficiency

    tc = cfg.transfer_config()
    kappa_1 = tc.source.decay_rate
    kappa_ratios = cfg.get("transfer.kappa_ratios")
    detuning_ratios = cfg.get("transfer.detuning_ratios")
    if len(kappa_ratios) == 0 and len(detuning_ratios) == 0:
        raise ConfigError("transfer.kappa_ratios and transfer.detuning_ratios are both empty")
    t_max = cfg.get("transfer.t_max_scaled")
    if t_max <= 0.0:
        raise ConfigError("transfer.t_max_scaled must be positive")
    ts = _linspace(0.0, t_max / kappa_1, cfg.get("transfer.time_points"), "transfer.time_points")

    etas, labels = [], []

    def family(kappa_2, delta_omega, label):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            eta = efficiency(ts, kappa_1, kappa_2, delta_omega)
        if not np.isfinite(eta).all():
            raise NumericalError(f"transfer efficiency for {label} is not finite")
        etas.append(eta)
        labels.append(label)

    for ratio in kappa_ratios:
        if ratio <= 0.0:
            raise ConfigError("transfer.kappa_ratios entries must be positive")
        family(ratio * kappa_1, 0.0, "kappa_ratio=%g" % ratio)
    for ratio in detuning_ratios:
        family(kappa_1, ratio * kappa_1, "detuning_ratio=%g" % ratio)
    # An object column holds a reference per row to its family's label,
    # not a fixed-width copy of the longest one.
    column = np.repeat(np.array(labels, dtype=object), ts.size)
    return np.tile(ts * kappa_1, len(labels)), np.concatenate(etas), column


def _transfer_peak(cfg: RunConfig) -> dict:
    from .transfer import freq_mismatch_peak, kappa_mismatch_peak, peak_efficiency

    tc = cfg.transfer_config()
    kappa_1 = tc.source.decay_rate
    emitted_energy = NOMINAL_DRIVE_V**2 / (2.0 * kappa_1 * NOMINAL_LINE_OHM)
    if emitted_energy == 0.0:
        raise NumericalError(f"emitted energy V0^2/(2 kappa_1 Z0) is 0 at kappa_1 = {kappa_1:.3g}/s")
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
    record = dict(fidelity_budget(pc, n_shots))
    record["n_shots"] = n_shots
    record["analytic_relaxation_error"] = relaxation_error(pc.t_prep, pc.t1)
    return record


def _detector_grid(
    cfg: RunConfig, section: str, axis: str, sweep: Callable[..., np.ndarray], **options
) -> tuple:
    """(detuning, time, switch probability) columns of sweep over {section}.detunings and its time axis.

    Reads the protocol config, {section}.detunings, {section}.{axis}_stop
    and _points, and {section}.n_shots; options go to sweep as they are.
    """
    pc = cfg.protocol_config()
    detunings = _require_nonempty(cfg, f"{section}.detunings")
    times = _time_axis(cfg, section, axis)
    matrix = sweep(detunings, times, pc, n_shots=cfg.get(f"{section}.n_shots"), **options)
    return _grid_columns(np.divide(detunings, TWO_PI), times, matrix)


def _ramsey(cfg: RunConfig) -> tuple:
    from .protocol import ramsey_fringe

    return _detector_grid(
        cfg, "ramsey", "delay", ramsey_fringe, t2=cfg.get("ramsey.t2"), amplitude=cfg.get("ramsey.amplitude")
    )


def _rabi(cfg: RunConfig) -> tuple:
    from .protocol import rabi_chevron

    return _detector_grid(cfg, "rabi", "duration", rabi_chevron, rabi_rate=cfg.get("rabi.rate"))


def _stark(cfg: RunConfig) -> tuple:
    from .protocol import stark_calibration

    pc = cfg.protocol_config()
    powers = _require_nonempty(cfg, "stark.powers")
    n_bar, shift = stark_calibration(powers, pc)
    return powers, n_bar, shift / TWO_PI


def _depletion(cfg: RunConfig) -> tuple:
    from .protocol import depletion_recovery

    pc = cfg.protocol_config()
    times = _time_axis(cfg, "depletion", "time")
    out = depletion_recovery(times, pc)
    return times, out["residual_photons"], out["ramsey_contrast"], out["frequency_shift"] / TWO_PI


def _iq(cfg: RunConfig) -> dict:
    from .protocol import iq_fidelity

    model = cfg.iq_model()
    n_shots = cfg.get("iq.n_shots")
    return {
        "n_shots_per_class": n_shots,
        "d_over_sigma": model.separation / model.sigma,
        **iq_fidelity(model, n_shots, np.random.default_rng(cfg.get("seed"))),
    }


def _tomo_synth(cfg: RunConfig) -> tuple:
    from .tomography import DensityMatrix2, synthesize_tomogram

    rho = DensityMatrix2(
        excited_population=cfg.get("tomo.beta"),
        coherence_magnitude=cfg.get("tomo.r"),
        coherence_phase=cfg.get("tomo.phi"),
    )
    t_pi = cfg.get("tomo.t_pi")
    theta_points = cfg.get("tomo.theta_points")
    if theta_points < 1:
        raise ConfigError("tomo.theta_points must be positive")
    thetas = np.linspace(0.0, TWO_PI, theta_points, endpoint=False)
    stop = cfg.get("tomo.duration_stop")
    # Default span: one full rotation plus margin, so noisy synthetic
    # grids stay clear of the fit's minimum-span identifiability bound.
    end = 2.2 * t_pi if stop is None else stop
    durations = _linspace(0.0, end, cfg.get("tomo.duration_points"), "tomo.duration_points")
    # tomo-fit reads the grid back by its cell coordinates, so two equal
    # durations would make a file it refuses.
    if not (np.diff(durations) > 0.0).all():
        key = "tomo.t_pi" if stop is None else "tomo.duration_stop"
        raise ConfigError(f"{key}: pulse durations from 0 to {end:g} s are not strictly increasing")
    n_shots, noise_sigma = cfg.get("tomo.n_shots"), cfg.get("tomo.noise_sigma")
    # Only shot or Gaussian noise draws, so only then is numpy.random loaded.
    rng = None if n_shots is None and noise_sigma is None else np.random.default_rng(cfg.get("seed"))
    grid = synthesize_tomogram(rho, t_pi, thetas, durations, n_shots=n_shots, noise_sigma=noise_sigma, rng=rng)
    return _grid_columns(grid.axis_angles, grid.pulse_durations, grid.occupations)


def _read_tomogram(path: str) -> TomogramGrid:
    """The grid in a tomogram CSV: a header, then one (angle, duration, occupation) row per cell in any order.

    Each axis holds the distinct coordinates, sorted.  -0 and 0 name one
    coordinate, and the axis keeps the one seen first in the file.
    """
    import csv

    from .tomography import TomogramGrid

    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty tomogram file") from None
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


class _Subcommand(NamedTuple):
    """One subcommand: compute(cfg) gives the columns under header, or a record when header is None.

    Columns are numpy arrays or lists of floats, ints or plain text
    labels, in header order; header names and labels hold no comma,
    quote, backslash, line break or non-ASCII character.  _write encodes
    them in blocks of rows: in CSV a float as %.12g and an int or label
    as %s, verbatim; in JSON as json.dump(rows, indent=2) would, one
    dict per row.
    """

    compute: Callable[[RunConfig], tuple | dict]
    stem: str
    header: tuple[str, ...] | None
    help: str


_SUBCOMMANDS = {
    "potential-sweep": _Subcommand(
        _potential_sweep,
        "potential_sweep",
        (
            "flux (phi0)",
            "well_count (1)",
            "well_label",
            "minimum_phase (rad)",
            "barrier_phase (rad)",
            "barrier_height (J)",
            "plasma_frequency (Hz)",
            "level_count (1)",
        ),
        "Sweep the loop flux bias and tabulate every potential well: "
        "minimum and barrier phases, depth, plasma frequency, level count.",
    ),
    "bifurcation": _Subcommand(
        _bifurcation,
        "bifurcation",
        ("critical_flux (phi0)", "minima_below (1)", "minima_above (1)"),
        "Locate the flux biases where potential minima appear or vanish "
        "and count the minima on either side of each.",
    ),
    "transfer-curves": _Subcommand(
        _transfer_curves,
        "transfer_curves",
        ("t_kappa1 (1)", "efficiency (1)", "label"),
        "Tabulate transfer-efficiency curves versus scaled time for "
        "families of decay-rate ratios and detuning ratios.",
    ),
    "transfer-peak": _Subcommand(
        _transfer_peak,
        "transfer_peak",
        None,
        "Report the peak transfer efficiency and optimal capture time for "
        "the configured cavity pair, with closed-form reference values.",
    ),
    "budget": _Subcommand(
        _budget,
        "budget",
        None,
        "Monte Carlo raw-fidelity budget of the measurement protocol, "
        "split into relaxation, dark-count, and detection-miss terms.",
    ),
    "ramsey": _Subcommand(
        _ramsey,
        "ramsey",
        ("detuning (Hz)", "delay (s)", "switch_probability (1)"),
        "Detector-read Ramsey fringe dataset versus drive detuning and delay.",
    ),
    "rabi": _Subcommand(
        _rabi,
        "rabi",
        ("detuning (Hz)", "duration (s)", "switch_probability (1)"),
        "Detector-read Rabi chevron dataset versus drive detuning and pulse duration.",
    ),
    "stark": _Subcommand(
        _stark,
        "stark",
        ("power (1)", "n_bar (1)", "qubit_shift (Hz)"),
        "Photon-number calibration: map drive powers to cavity occupation "
        "and qubit frequency shift.",
    ),
    "depletion": _Subcommand(
        _depletion,
        "depletion",
        (
            "depletion_time (s)",
            "residual_photons (1)",
            "ramsey_contrast (1)",
            "frequency_shift (Hz)",
        ),
        "Post-measurement recovery versus depletion time: residual "
        "photons, fringe contrast, and frequency shift.",
    ),
    "iq": _Subcommand(
        _iq,
        "iq",
        None,
        "IQ-plane discrimination report: single-shot and separation "
        "fidelities and the decision threshold.",
    ),
    "tomo-synth": _Subcommand(
        _tomo_synth,
        "tomogram",
        ("axis_angle (rad)", "pulse_duration (s)", "occupation (1)"),
        "Generate a synthetic tomogram grid (axis angle x pulse duration) "
        "from a configured qubit state.",
    ),
    "tomo-fit": _Subcommand(
        _tomo_fit,
        "tomo_fit",
        None,
        "Fit a four-parameter qubit state to a tomogram CSV and report "
        "the density matrix, pi-pulse duration, and target fidelities.",
    ),
}


def _resolve_output_dir(flag_value: str | None, cfg: RunConfig) -> Path:
    if flag_value is not None:
        chosen = flag_value
    elif cfg.get("output.directory") is not None:
        chosen = cfg.get("output.directory")
    else:
        chosen = os.environ.get(OUTPUT_DIR_ENV) or "."
    return Path(chosen)


def run_subcommand(
    name: str,
    config_path: str | None = None,
    overrides=(),
    output_dir: str | None = None,
) -> tuple[int, list[Path]]:
    """Run one subcommand; returns (exit code, written artifact paths).

    This is the CLI's one error boundary: a ValueError (ConfigError
    included) exits 2, a NumericalError, a float overflow or division
    by zero (ArithmeticError) or an array too large to allocate
    (MemoryError) 3 and an OSError 4, each with one
    diagnostic line on stderr.  The artifact is computed in full before
    its directory is created and its file opened, so exits 2 and 3 leave
    no file and no new directory.  Prints one line
    per artifact on success.
    """
    spec = _SUBCOMMANDS.get(name)
    if spec is None:
        print(f"unknown subcommand {name!r}", file=sys.stderr)
        return 2, []
    try:
        cfg = RunConfig.from_sources(config_path, overrides)
        out_dir = _resolve_output_dir(output_dir, cfg)
        data = spec.compute(cfg)
        path = _write(out_dir, spec.stem, spec.header, data, cfg.get("output.format"))
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2, []
    except (NumericalError, ArithmeticError, MemoryError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3, []
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4, []
    print(f"wrote {path}")
    return 0, [path]


def main(argv=None) -> int:
    """The process entry point: parse argv and run one subcommand; returns its exit code.

    Once the arguments are parsed, main freezes the garbage collector's
    current objects (gc.freeze) for the rest of the process.
    """
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
    for name, spec in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=spec.help, description=spec.help)
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
            help=f"output directory (falls back to config, then ${OUTPUT_DIR_ENV}, then the working directory)",
        )
    args = parser.parse_args(argv)
    # Everything alive here lives until the process exits, so the collector
    # never needs to walk it again, during the run or at shutdown.
    gc.freeze()
    code, _ = run_subcommand(args.command, args.config, args.set, args.output_dir)
    return code


if __name__ == "__main__":
    sys.exit(main())
