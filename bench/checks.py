"""Output checks that do not rely on jpmsim.

Every check recomputes what it needs from the task's own inputs with
formulas written out here, parses the artifact as a user's script
would, and raises `CheckFailed` naming the layer at fault.  A check
returns a dict of health figures (residuals, gaps, fit errors) that the
traced run reports per layer.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

PHI0 = 2.067833848e-15
TWO_PI = 2.0 * math.pi
SIGMAS = 5.0
"""Statistical checks accept a Monte Carlo estimate within this many binomial sigma."""


class CheckFailed(Exception):
    def __init__(self, layer, message):
        super().__init__(f"{layer}: {message}")
        self.layer = layer


def _require(condition, layer, message):
    if not condition:
        raise CheckFailed(layer, message)


# ---------------------------------------------------------------- parsing


def read_csv(path, columns, rows=None):
    """Parse a CSV artifact into a header and rows of floats or strings."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            table = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckFailed("cli", f"{path}: unreadable ({exc})") from None
    _require(table, "cli", f"{path}: empty file")
    header, body = table[0], table[1:]
    _require(len(header) == columns, "cli", f"{path}: {len(header)} columns, expected {columns}")
    if rows is not None:
        _require(len(body) == rows, "cli", f"{path}: {len(body)} rows, expected {rows}")
    parsed = []
    for row in body:
        _require(len(row) == columns, "cli", f"{path}: ragged row {row!r}")
        cells = []
        for cell in row:
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        parsed.append(cells)
    return header, parsed


def read_json(path, keys, nullable=()):
    """Parse a JSON report; every value must be finite unless it may be null."""
    try:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, UnicodeDecodeError, ValueError) as exc:
        raise CheckFailed("cli", f"{path}: unparsable ({exc})") from None
    _require(isinstance(record, dict), "cli", f"{path}: not a JSON object")
    _require(list(record) == list(keys), "cli", f"{path}: keys {list(record)}, expected {list(keys)}")
    for key, value in record.items():
        if value is None:
            _require(key in nullable, "cli", f"{path}: {key} is null")
        elif isinstance(value, float):
            _require(math.isfinite(value), "cli", f"{path}: {key} is not finite")
    return record


def _finite_columns(rows, columns, path):
    for row in rows:
        for c in columns:
            value = row[c]
            _require(isinstance(value, float) and math.isfinite(value), "cli", f"{path}: non-finite cell {row!r}")


# ------------------------------------------------------------- potential


def beta_from(critical_current, loop_inductance):
    return TWO_PI * loop_inductance * critical_current / PHI0


def residual(delta, phi_e, beta):
    return np.sin(delta) - (phi_e - delta) / beta


def extrema_brackets(phi_e, beta, step=0.02):
    """Independent extremum count for one flux: brackets of residual roots.

    The scan grid is a dense uniform grid plus every stationary point
    of the residual (cos(delta) = -1/beta, in closed form), so the
    residual is monotone between neighbouring grid points and each
    sign change is exactly one root, however close a root pair sits to
    a tangency.  Returns [(lo, hi, kind)] in ascending phase.
    """
    lo, hi = phi_e - beta - 1.0, phi_e + beta + 1.0
    grid = [np.arange(lo, hi, step), [hi]]
    if beta > 1.0:
        base = math.acos(-1.0 / beta)
        k = np.arange(math.floor((lo - base) / TWO_PI), math.ceil((hi + base) / TWO_PI) + 1)
        stationary = np.concatenate([base + TWO_PI * k, -base + TWO_PI * k])
        grid.append(stationary[(stationary > lo) & (stationary < hi)])
    grid = np.unique(np.concatenate(grid))
    sign = np.sign(residual(grid, phi_e, beta))
    idx = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    # Residual rising across the bracket means U'' > 0 there: a minimum.
    return [(grid[i], grid[i + 1], "minimum" if sign[i + 1] > 0 else "maximum") for i in idx]


def _bracket_of(phase, brackets):
    for j, (a, b, _) in enumerate(brackets):
        if a - 1e-9 <= phase <= b + 1e-9:
            return j
    return None


def check_potential_sweep(path, task):
    p = task["params"]
    beta = beta_from(p["critical_current"], p["loop_inductance"])
    _, rows = read_csv(path, 8)
    by_flux = {}
    for row in rows:
        by_flux.setdefault(row[0], []).append(row)
    _require(len(by_flux) == p["flux_points"], "cli", f"{len(by_flux)} fluxes, expected {p['flux_points']}")
    worst = 0.0
    extrema = 0
    for flux, wells in by_flux.items():
        brackets = extrema_brackets(TWO_PI * flux, beta)
        kinds = [k for _, _, k in brackets]
        _require(len(kinds) % 2 == 1 and all(a != b for a, b in zip(kinds, kinds[1:])), "potential", f"flux {flux}: kinds do not alternate")
        minima = [j for j, k in enumerate(kinds) if k == "minimum"]
        extrema += len(brackets)
        _require(len(wells) == len(minima), "potential", f"flux {flux}: {len(wells)} wells, dense scan finds {len(minima)}")
        found = []
        for row in wells:
            _, count, label, phase_min, phase_barrier, height, omega, levels = row
            _require(count == len(minima), "potential", f"flux {flux}: well_count {count}, dense scan finds {len(minima)}")
            _require(isinstance(phase_min, float), "cli", f"flux {flux}: minimum phase {phase_min!r}")
            j = _bracket_of(phase_min, brackets)
            _require(j is not None and kinds[j] == "minimum", "potential", f"flux {flux}: {phase_min} is not a minimum")
            found.append(j)
            r = abs(float(residual(phase_min, TWO_PI * flux, beta)))
            worst = max(worst, r)
            _require(omega > 0.0 and math.isfinite(omega), "potential", f"flux {flux}: plasma frequency {omega}")
            if len(minima) == 1:
                _require(label == "global" and math.isnan(phase_barrier) and math.isinf(height) and math.isinf(levels), "potential", f"flux {flux}: sole well not reported unbounded")
                continue
            _require(all(math.isfinite(v) for v in (phase_barrier, height, levels)) and height > 0.0, "potential", f"flux {flux}: bounded well has non-finite barrier")
            k = _bracket_of(phase_barrier, brackets)
            _require(k is not None and kinds[k] == "maximum" and abs(k - j) == 1, "potential", f"flux {flux}: barrier {phase_barrier} is not an adjacent maximum")
            worst = max(worst, abs(float(residual(phase_barrier, TWO_PI * flux, beta))))
        _require(sorted(found) == minima, "potential", f"flux {flux}: reported minima {found} != {minima}")
    _require(worst <= 1e-9, "potential", f"root residual {worst:.3g} > 1e-9")
    return {"root_residual_max": worst, "extrema": extrema, "fluxes": len(by_flux)}


def tangency_fluxes(beta):
    """Fluxes in [0, 1] Phi0 where a well appears or vanishes."""
    if beta <= 1.0:
        return []
    base = math.acos(-1.0 / beta)
    out = set()
    k_max = int(beta / TWO_PI) + 2
    for k in range(-k_max, k_max + 1):
        for d in (base + TWO_PI * k, -base + TWO_PI * k):
            phi_e = d + beta * math.sin(d)
            if 0.0 <= phi_e <= TWO_PI:
                out.add(round(phi_e / TWO_PI, 12))
    return sorted(out)


def check_bifurcation(path, task):
    p = task["params"]
    beta = beta_from(p["critical_current"], p["loop_inductance"])
    expected = tangency_fluxes(beta)
    _, rows = read_csv(path, 3, rows=len(expected))
    _finite_columns(rows, (0, 1, 2), path)
    for (flux, below, above), want in zip(rows, expected):
        _require(abs(flux - want) <= 1e-9, "potential", f"critical flux {flux}, expected {want}")
        counts = [sum(k == "minimum" for *_, k in extrema_brackets(TWO_PI * (flux + s * 1e-6), beta)) for s in (-1, 1)]
        _require([below, above] == counts and abs(above - below) == 1, "potential", f"flux {flux}: minima {below}/{above}, dense scan {counts}")
    return {}


# -------------------------------------------------------------- transfer


def envelope(t, k1, k2, d_omega):
    a, b = np.exp(-0.5 * k1 * t), np.exp(-0.5 * k2 * t)
    if k1 == k2 and d_omega == 0.0:
        return (k1 * t) ** 2 * np.exp(-k1 * t)
    num = (a - b) ** 2 + 4.0 * a * b * np.sin(0.5 * d_omega * t) ** 2
    return k1 * k2 * num / (0.25 * (k2 - k1) ** 2 + d_omega**2)


def reference_peak(k1, k2, d_omega):
    """Closed-form peak where one applies, else the envelope's dense-grid maximum."""
    if d_omega == 0.0:
        if k1 == k2:
            return 4.0 * math.exp(-2.0)
        r = k2 / k1
        return 4.0 * r ** (-(r + 1.0) / (r - 1.0))
    if k1 == k2:
        a = d_omega / k1
        return 4.0 / (1.0 + a * a) * math.exp(-2.0 * math.atan(a) / a)
    t = np.linspace(0.0, 20.0 / min(k1, k2), 40001)
    return float(envelope(t, k1, k2, d_omega).max())


TRANSFER_PEAK_KEYS = (
    "eta_peak", "t_opt_s", "eta_matched_bound", "eta_kappa_closed_form", "t_opt_kappa_closed_form_s",
    "eta_freq_closed_form", "t_opt_freq_closed_form_s", "emitted_energy_J",
)


def check_transfer_peak(path, task):
    p = task["params"]
    record = read_json(path, TRANSFER_PEAK_KEYS, nullable=("eta_freq_closed_form", "t_opt_freq_closed_form_s"))
    k1, k2 = 1.0 / p["source_decay_time"], 1.0 / p["capture_decay_time"]
    d_omega = TWO_PI * (p["capture_frequency"] - p["source_frequency"])
    want = reference_peak(k1, k2, d_omega)
    gap = abs(record["eta_peak"] - want) / want
    _require(gap <= 1e-3, "transfer", f"eta_peak {record['eta_peak']} vs reference {want} (gap {gap:.2e})")
    _require(record["t_opt_s"] > 0.0, "transfer", "t_opt_s not positive")
    return {"peak_gap": gap}


def check_transfer_curves(path, task):
    p = task["params"]
    _, rows = read_csv(path, 3, rows=p["curves"] * p["time_points"])
    _finite_columns(rows, (0, 1), path)
    _require(all(-1e-12 <= row[1] <= 1.0 for row in rows), "transfer", "efficiency outside [0, 1]")
    return {}


# -------------------------------------------------------------- protocol


def _within(value, expected, n, what, layer="protocol"):
    sigma = math.sqrt(max(expected * (1.0 - expected), 1e-12) / n)
    _require(abs(value - expected) <= SIGMAS * sigma, layer, f"{what} {value} vs expected {expected} ({abs(value - expected) / sigma:.1f} sigma)")


BUDGET_KEYS = ("F_raw", "epsilon_relax", "epsilon_dark", "epsilon_other", "n_shots", "analytic_relaxation_error")


def check_budget(path, task):
    p = task["params"]
    b = read_json(path, BUDGET_KEYS)
    n = p["n_shots"]
    _require(b["n_shots"] == n, "cli", f"n_shots {b['n_shots']}, expected {n}")
    total = b["F_raw"] + b["epsilon_relax"] + b["epsilon_dark"] + b["epsilon_other"]
    _require(abs(total - 1.0) <= 1e-12, "protocol", f"budget terms sum to {total!r}")
    pr, pd, pb = p["relaxation"], p["dark_prob"], p["bright_detect_prob"]
    _within(b["epsilon_relax"], pr * (1.0 - pd), n, "epsilon_relax")
    _within(b["epsilon_other"], (1.0 - pr) * (1.0 - pb) * (1.0 - pd), n, "epsilon_other")
    _within(b["epsilon_dark"], pd, n, "epsilon_dark")
    return {}


def separation_fidelity(separation, sigma, n_samples=1):
    return 1.0 - 0.5 * math.erfc(separation / (2.0 * math.sqrt(2.0) * sigma / math.sqrt(n_samples)))


IQ_KEYS = ("n_shots_per_class", "d_over_sigma", "single_shot_fidelity", "separation_fidelity", "threshold")


def check_iq(path, task):
    p = task["params"]
    r = read_json(path, IQ_KEYS)
    _require(r["n_shots_per_class"] == p["n_shots"], "cli", "n_shots_per_class mismatch")
    want = separation_fidelity(p["separation"], p["sigma"])
    _require(abs(r["separation_fidelity"] - want) <= 1e-12, "protocol", f"separation_fidelity {r['separation_fidelity']} vs {want}")
    _within(r["single_shot_fidelity"], want, 2 * p["n_shots"], "single_shot_fidelity")
    return {}


def check_table(columns, lo=-math.inf, hi=math.inf, value_column=None):
    """Shape-and-range check for the protocol tables of the cold workload."""

    def check(path, task):
        _, rows = read_csv(path, columns, rows=task["params"]["rows"])
        _finite_columns(rows, range(columns), path)
        if value_column is not None:
            _require(all(lo <= row[value_column] <= hi for row in rows), "protocol", f"{path}: value outside [{lo}, {hi}]")
        return {}

    return check


def check_shots(results, fidelity, task):
    """simulate_shot outcomes and their IQ classification."""
    p = task["params"]
    n = len(results) // 2
    excited = sum(r.switch_bit for r in results[0::2]) / n
    ground = sum(r.switch_bit for r in results[1::2]) / n
    pr, pd, pb = p["relaxation"], p["dark_prob"], p["bright_detect_prob"]
    _within(excited, 1.0 - (1.0 - (1.0 - pr) * pb) * (1.0 - pd), n, "excited switch rate")
    _within(ground, pd, n, "ground switch rate")
    _within(fidelity, separation_fidelity(p["separation"], p["sigma"]), 2 * n, "shot classification fidelity")
    return {}


# ------------------------------------------------------------ tomography


def check_tomogram(path, task):
    p = task["params"]
    _, rows = read_csv(path, 3, rows=p["theta_points"] * p["duration_points"])
    _finite_columns(rows, (0, 1, 2), path)
    _require(all(0.0 <= row[2] <= 1.0 for row in rows), "tomography", "occupation outside [0, 1]")
    return {}


TOMO_FIT_KEYS = (
    "beta", "r", "phi", "t_pi_s", "residual_rms", "projected", "phase_unidentifiable",
    "rho_00", "rho_01_real", "rho_01_imag", "rho_11", "fidelity_vs_ground", "fidelity_vs_excited",
)


def check_tomo_fit(path, task):
    """Fitted (beta, r, t_pi) within a shot-noise-scaled tolerance of the truth."""
    p = task["params"]
    r = read_json(path, TOMO_FIT_KEYS)
    n = p.get("n_shots")
    tol = 1e-6 if n is None else SIGMAS * 0.5 / math.sqrt(n)
    errors = {
        "beta": abs(r["beta"] - p["beta"]),
        "r": abs(r["r"] - p["r"]),
        "t_pi": abs(r["t_pi_s"] - p["t_pi"]) / p["t_pi"],
    }
    for name, err in errors.items():
        _require(err <= tol, "tomography", f"fitted {name} off by {err:.3g} (tolerance {tol:.3g})")
    return {"fit_param_err": max(errors.values())}


CHECKS = {
    "potential-sweep": check_potential_sweep,
    "bifurcation": check_bifurcation,
    "transfer-curves": check_transfer_curves,
    "transfer-peak": check_transfer_peak,
    "budget": check_budget,
    "ramsey": check_table(3, 0.0, 1.0, value_column=2),
    "rabi": check_table(3, 0.0, 1.0, value_column=2),
    "stark": check_table(3),
    "depletion": check_table(4),
    "iq": check_iq,
    "tomo-synth": check_tomogram,
    "tomo-fit": check_tomo_fit,
}
"""Subcommand -> check(artifact path, task) -> health figures."""
