"""Command line interface: config in, deterministic datasets out.

Every subcommand reads one flat key/value config document (all keys
optional, see config.SCHEMA for names and defaults), applies -s/--set
overrides, runs the corresponding computation, and writes one artifact
into the output directory.  _SUBCOMMANDS describes each subcommand
once: its compute function, artifact stem, column header and help
text.  Outputs are byte-stable for a fixed config and seed: fixed
column orders, 12-significant-digit decimals in CSV, and
newline-terminated JSON with insertion-ordered keys.

Exit codes: 0 success, 2 config error, 3 numerical/identifiability
error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import RunConfig
from .errors import ConfigError, NumericalError
from .potential import PHI0, FluxBias, find_extrema, critical_flux, well_report
from .protocol import (
    depletion_recovery,
    fidelity_budget,
    iq_discriminate,
    rabi_chevron,
    ramsey_fringe,
    relaxation_error,
    stark_calibration,
)
from .tomography import (
    DensityMatrix2,
    TomogramGrid,
    fit_tomogram,
    overlap_fidelity,
    synthesize_tomogram,
)
from .transfer import (
    efficiency_freq_mismatch,
    efficiency_kappa_mismatch,
    emitted_energy,
    freq_mismatch_peak,
    kappa_mismatch_peak,
    peak_efficiency,
)

OUTPUT_DIR_ENV = "JPMSIM_OUTPUT_DIR"

TWO_PI = 2.0 * math.pi


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.12g" % value
    return str(value)


def _native(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _write(out_dir: Path, stem: str, header, data, file_format: str) -> Path:
    """Write a table (rows under header) or, when header is None, a JSON record.

    The bytes go to a temporary file in out_dir that replaces the
    artifact only once complete, so a failed write leaves no partial
    file and any older artifact of the same name as it was.
    """
    as_csv = header is not None and file_format == "csv"
    if header is None:
        payload = {key: _native(value) for key, value in data.items()}
    elif not as_csv:
        payload = [{column: _native(cell) for column, cell in zip(header, row)} for row in data]
    path = out_dir / f"{stem}.{'csv' if as_csv else 'json'}"
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=f".{stem}.", suffix=".tmp")
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            # mkstemp creates the file 0600; give it the mode open() would.
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            if as_csv:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                for row in data:
                    writer.writerow([_format_cell(cell) for cell in row])
            else:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
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


def _require_nonempty(values, key: str):
    if len(values) == 0:
        raise ConfigError(f"{key} is an empty sweep list")
    return values


def _potential_sweep(cfg: RunConfig) -> list:
    params = cfg.jpm_params()
    fluxes = _linspace(
        cfg.get("potential.flux_start"),
        cfg.get("potential.flux_stop"),
        cfg.get("potential.flux_points"),
        "potential.flux_points",
    )
    rows = []
    for flux in fluxes:
        reports = well_report(FluxBias(float(flux)), params)
        for report in reports:
            rows.append(
                (
                    flux / PHI0,
                    len(reports),
                    report.well_label,
                    report.minimum_phase,
                    report.barrier_phase if report.barrier_phase is not None else math.nan,
                    report.barrier_height,
                    report.plasma_frequency / TWO_PI,
                    report.level_count,
                )
            )
    return rows


def _count_minima(flux_webers: float, params) -> int:
    extrema = find_extrema(FluxBias(flux_webers), params)
    return sum(1 for _, kind in extrema if kind == "minimum")


def _bifurcation(cfg: RunConfig) -> list:
    params = cfg.jpm_params()
    epsilon = 1e-6 * PHI0
    return [
        (flux / PHI0, _count_minima(flux - epsilon, params), _count_minima(flux + epsilon, params))
        for flux in critical_flux(params)
    ]


def _transfer_curves(cfg: RunConfig) -> list:
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

    rows = []
    for ratio in kappa_ratios:
        if ratio <= 0.0:
            raise ConfigError("transfer.kappa_ratios entries must be positive")
        eta = efficiency_kappa_mismatch(ts, kappa_1, ratio * kappa_1)
        label = "kappa_ratio=%g" % ratio
        rows.extend((t * kappa_1, e, label) for t, e in zip(ts, eta))
    for ratio in detuning_ratios:
        eta = efficiency_freq_mismatch(ts, kappa_1, ratio * kappa_1)
        label = "detuning_ratio=%g" % ratio
        rows.extend((t * kappa_1, e, label) for t, e in zip(ts, eta))
    return rows


def _transfer_peak(cfg: RunConfig) -> dict:
    tc = cfg.transfer_config()
    eta_peak, t_opt = peak_efficiency(tc)
    eta_kappa, t_kappa = kappa_mismatch_peak(tc.source.decay_rate, tc.target.decay_rate)
    if tc.delta_kappa == 0.0:
        eta_freq, t_freq = freq_mismatch_peak(tc.source.decay_rate, tc.delta_omega)
    else:
        eta_freq, t_freq = None, None
    return {
        "eta_peak": eta_peak,
        "t_opt_s": t_opt,
        "eta_matched_bound": 4.0 * math.exp(-2.0),
        "eta_kappa_closed_form": eta_kappa,
        "t_opt_kappa_closed_form_s": t_kappa,
        "eta_freq_closed_form": eta_freq,
        "t_opt_freq_closed_form_s": t_freq,
        "emitted_energy_J": emitted_energy(tc),
    }


def _budget(cfg: RunConfig) -> dict:
    pc = cfg.protocol_config()
    n_shots = cfg.get("budget.n_shots")
    record = dict(fidelity_budget(pc, n_shots, cfg.iq_model()))
    record["n_shots"] = n_shots
    record["analytic_relaxation_error"] = relaxation_error(pc.t_prep, pc.t1)
    return record


def _ramsey(cfg: RunConfig) -> list:
    pc = cfg.protocol_config()
    detunings = _require_nonempty(cfg.get("ramsey.detunings"), "ramsey.detunings")
    delays = _linspace(
        0.0, cfg.get("ramsey.delay_stop"), cfg.get("ramsey.delay_points"), "ramsey.delay_points"
    )
    matrix = ramsey_fringe(
        detunings,
        delays,
        pc,
        t2=cfg.get("ramsey.t2"),
        amplitude=cfg.get("ramsey.amplitude"),
        n_shots=cfg.get("ramsey.n_shots"),
    )
    return [
        (detunings[i] / TWO_PI, delays[j], matrix[i, j])
        for i in range(len(detunings))
        for j in range(len(delays))
    ]


def _rabi(cfg: RunConfig) -> list:
    pc = cfg.protocol_config()
    detunings = _require_nonempty(cfg.get("rabi.detunings"), "rabi.detunings")
    durations = _linspace(
        0.0,
        cfg.get("rabi.duration_stop"),
        cfg.get("rabi.duration_points"),
        "rabi.duration_points",
    )
    matrix = rabi_chevron(
        detunings,
        durations,
        pc,
        rabi_rate=cfg.get("rabi.rate"),
        n_shots=cfg.get("rabi.n_shots"),
    )
    return [
        (detunings[i] / TWO_PI, durations[j], matrix[i, j])
        for i in range(len(detunings))
        for j in range(len(durations))
    ]


def _stark(cfg: RunConfig) -> list:
    pc = cfg.protocol_config()
    powers = _require_nonempty(cfg.get("stark.powers"), "stark.powers")
    pairs = stark_calibration(powers, pc)
    return [(power, n_bar, shift / TWO_PI) for power, (n_bar, shift) in zip(powers, pairs)]


def _depletion(cfg: RunConfig) -> list:
    pc = cfg.protocol_config()
    times = _linspace(
        0.0,
        cfg.get("depletion.time_stop"),
        cfg.get("depletion.time_points"),
        "depletion.time_points",
    )
    rows = []
    for t_dep in times:
        record = depletion_recovery(float(t_dep), pc)
        rows.append(
            (
                t_dep,
                record["residual_photons"],
                record["ramsey_contrast"],
                record["frequency_shift"] / TWO_PI,
            )
        )
    return rows


def _iq(cfg: RunConfig) -> dict:
    model = cfg.iq_model()
    n_shots = cfg.get("iq.n_shots")
    if n_shots < 1:
        raise ConfigError("iq.n_shots must be positive")
    labels = np.concatenate([np.zeros(n_shots, dtype=int), np.ones(n_shots, dtype=int)])
    rng = np.random.default_rng(cfg.get("seed"))
    result = iq_discriminate(model, labels, rng)
    return {
        "n_shots_per_class": n_shots,
        "d_over_sigma": model.separation / model.effective_sigma,
        "single_shot_fidelity": result["single_shot_fidelity"],
        "separation_fidelity": result["separation_fidelity"],
        "threshold": result["threshold"],
    }


def _tomo_synth(cfg: RunConfig) -> list:
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
    durations = _linspace(
        0.0,
        2.2 * t_pi if stop is None else stop,
        cfg.get("tomo.duration_points"),
        "tomo.duration_points",
    )
    grid = synthesize_tomogram(
        rho,
        t_pi,
        thetas,
        durations,
        n_shots=cfg.get("tomo.n_shots"),
        noise_sigma=cfg.get("tomo.noise_sigma"),
        rng=np.random.default_rng(cfg.get("seed")),
    )
    return [
        (grid.axis_angles[i], grid.pulse_durations[j], grid.occupations[i, j])
        for i in range(grid.axis_angles.size)
        for j in range(grid.pulse_durations.size)
    ]


def _read_tomogram(path: str) -> TomogramGrid:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty tomogram file") from None
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
    thetas = np.unique([key[0] for key in cells])
    ts = np.unique([key[1] for key in cells])
    if thetas.size * ts.size != len(cells):
        raise ConfigError(f"{path}: grid is not a complete (angle x duration) product")
    occupations = np.empty((thetas.size, ts.size))
    for i, theta in enumerate(thetas):
        for j, t in enumerate(ts):
            occupations[i, j] = cells[(float(theta), float(t))]
    try:
        return TomogramGrid(thetas, ts, occupations)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _tomo_fit(cfg: RunConfig) -> dict:
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
    """One subcommand: compute(cfg) gives rows under header, or a record when header is None."""

    compute: Callable[[RunConfig], list | dict]
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
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_subcommand(
    name: str,
    config_path: str | None = None,
    overrides=(),
    output_dir: str | None = None,
) -> tuple[int, list[Path]]:
    """Run one subcommand; returns (exit code, written artifact paths).

    This is the CLI's one error boundary: a ValueError (ConfigError
    included) exits 2, a NumericalError or a float overflow or division
    by zero (ArithmeticError) 3 and an OSError 4, each with one
    diagnostic line on stderr.  The artifact is computed in full before
    its file is opened, so exits 2 and 3 leave no file.  Prints one line
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
    except (NumericalError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3, []
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4, []
    print(f"wrote {path}")
    return 0, [path]


def main(argv=None) -> int:
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
    code, _ = run_subcommand(args.command, args.config, args.set, args.output_dir)
    return code


if __name__ == "__main__":
    sys.exit(main())
