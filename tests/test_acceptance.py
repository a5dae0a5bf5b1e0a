"""Acceptance suite: one test per headline guarantee of the package.

Each test pins a quantitative claim to its stated tolerance and runtime
budget.  Expected values come from independent in-file oracles (dense
grid scans with parabolic refinement, direct matrix conjugation,
binomial error bars) or from closed forms evaluated inline; no expected
number is copied from the implementation under test.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.optimize import brentq

from jpmsim.cli import run_subcommand
from jpmsim.potential import (
    DEFAULT_PARAMS,
    PHI0,
    beta_L,
    critical_flux,
    find_extrema_sweep,
    well_report_sweep,
)
from jpmsim.protocol import (
    IqModel,
    ProtocolConfig,
    depletion_recovery,
    fidelity_budget,
    iq_fidelity,
    relaxation_error,
    separation_fidelity,
)
from jpmsim.tomography import (
    DensityMatrix2,
    expected_occupation,
    fit_tomogram,
    overlap_fidelity,
    synthesize_tomogram,
)
from jpmsim.transfer import (
    CavityMode,
    TransferConfig,
    efficiency,
    freq_mismatch_peak,
    kappa_mismatch_peak,
)
from transfer_oracle import mode2_energy_numeric

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


def grid_peak(curve, t_max: float, n: int = 200_001) -> tuple[float, float]:
    # Dense-grid argmax with a three-point parabolic refinement; for
    # these smooth single-peak curves the refinement error is far below
    # every tolerance used here.
    ts = np.linspace(0.0, t_max, n)
    ys = curve(ts)
    i = int(np.argmax(ys))
    if i == 0 or i == n - 1:
        return float(ys[i]), float(ts[i])
    denom = ys[i - 1] - 2.0 * ys[i] + ys[i + 1]
    if denom >= 0.0:
        return float(ys[i]), float(ts[i])
    h = ts[1] - ts[0]
    shift = 0.5 * (ys[i - 1] - ys[i + 1]) / denom
    return float(ys[i] - 0.25 * (ys[i - 1] - ys[i + 1]) * shift), float(ts[i] + shift * h)


def make_config(kappa_1=1e6, kappa_ratio=1.0, detuning_ratio=0.0, carrier_ratio=2e4):
    omega_1 = carrier_ratio * kappa_1
    return TransferConfig(
        source=CavityMode(angular_frequency=omega_1, decay_rate=kappa_1),
        target=CavityMode(
            angular_frequency=omega_1 + detuning_ratio * kappa_1,
            decay_rate=kappa_ratio * kappa_1,
        ),
    )


def oracle_occupation(rho: DensityMatrix2, theta: float, t: float, t_pi: float) -> float:
    # Direct matrix conjugation: R = cos(A) 1 + i sin(A) (cos(theta) X +
    # sin(theta) Y) with A = pi t / (2 t_pi); P = <1| R rho R^dag |1>.
    a = 0.5 * math.pi * t / t_pi
    axis = math.cos(theta) * np.array([[0, 1], [1, 0]], dtype=complex) + math.sin(
        theta
    ) * np.array([[0, -1j], [1j, 0]], dtype=complex)
    r = math.cos(a) * np.eye(2, dtype=complex) + 1j * math.sin(a) * axis
    coh = rho.coherence_magnitude * np.exp(1j * rho.coherence_phase)
    rho_m = np.array(
        [[1.0 - rho.excited_population, coh], [np.conj(coh), rho.excited_population]],
        dtype=complex,
    )
    return float((r @ rho_m @ r.conj().T)[1, 1].real)


def test_matched_transfer_peak_bound():
    t0 = time.perf_counter()
    kappa = 1e6
    t_opt = 2.0 / kappa
    bound = 4.0 / math.e**2
    assert abs(efficiency(t_opt, kappa, kappa, 0.0) - bound) < 1e-9
    # The stationary point really is the global maximum of the curve.
    y_pk, t_pk = grid_peak(lambda t: efficiency(t, kappa, kappa, 0.0), 10.0 / kappa)
    assert abs(y_pk - bound) < 1e-9
    assert abs(t_pk - t_opt) < 1e-6 * t_opt
    # Independent numeric convolution at a carrier a thousand linewidths
    # up reproduces the closed-form bound.
    cfg = make_config(carrier_ratio=1e3)
    assert abs(mode2_energy_numeric(t_opt, cfg) - bound) < 1e-3
    assert time.perf_counter() - t0 < 1.0


def test_decay_mismatch_peak_efficiencies():
    t0 = time.perf_counter()
    kappa_1 = 1e6
    for ratio, expected in ((10.0, 0.239), (6.5, 0.311)):
        eta, t_pk = kappa_mismatch_peak(kappa_1, ratio * kappa_1)
        assert abs(eta - expected) < 1e-3
        # Independent grid search over the mismatch curve lands on the
        # same peak.
        y_g, t_g = grid_peak(
            lambda t: efficiency(t, kappa_1, ratio * kappa_1, 0.0),
            12.0 / kappa_1,
        )
        assert abs(y_g - expected) < 1e-3
        assert abs(y_g - eta) < 1e-9
        assert abs(t_g - t_pk) < 1e-6 * t_pk
    assert time.perf_counter() - t0 < 1.0


def test_frequency_mismatch_sensitivity():
    t0 = time.perf_counter()
    kappa = 1e6
    eta_1, _ = freq_mismatch_peak(kappa, kappa)
    assert abs(eta_1 - 2.0 * math.exp(-math.pi / 2.0)) < 1e-6
    y_g, _ = grid_peak(lambda t: efficiency(t, kappa, kappa, kappa), 10.0 / kappa)
    assert abs(y_g - eta_1) < 1e-9
    peaks = [freq_mismatch_peak(kappa, a * kappa)[0] for a in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert all(later < earlier for earlier, later in zip(peaks, peaks[1:]))
    assert time.perf_counter() - t0 < 1.0


def test_potential_landscape_roots_and_tuning_range():
    t0 = time.perf_counter()
    p = DEFAULT_PARAMS
    beta = beta_L(p)
    assert abs(beta - 3.342) < 5e-4

    # Root finder vs a dense-scan oracle on 10^3 random fluxes across
    # the principal sweep range: identical counts, roots within 1e-9.
    step = 1e-4
    base = np.arange(-beta - 1.0, beta + 1.0 + step, step)
    rng = np.random.default_rng(20260815)
    fluxes = rng.uniform(0.0, 1.0, 1000) * PHI0
    for flux_wb, extrema in zip(fluxes, find_extrema_sweep(fluxes, p)):
        phi_e = 2.0 * math.pi * flux_wb / p.flux_quantum
        grid = base + phi_e
        vals = np.sin(grid) - (phi_e - grid) / beta

        def g(delta):
            return math.sin(delta) - (phi_e - delta) / beta

        roots = sorted(
            brentq(g, grid[i], grid[i + 1], xtol=1e-13, rtol=8.9e-16)
            for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
        )
        got = sorted(delta for delta, _ in extrema)
        assert len(got) == len(roots)
        assert max(abs(a - b) for a, b in zip(got, roots)) < 1e-9

    # Crossing either tangency flux changes the number of wells by
    # exactly one.
    eps = 1e-6 * PHI0
    sides = [f + sign * eps for f in critical_flux(p) for sign in (-1.0, 1.0)]
    minima = [sum(1 for _, k in extrema if k == "minimum") for extrema in find_extrema_sweep(sides, p)]
    for below, above in zip(minima[::2], minima[1::2]):
        assert abs(below - above) == 1

    # Sweeping the bias from the symmetric point toward the upper
    # tangency tunes the shallow-well plasma frequency through the full
    # 4.4-5.9 GHz band.
    sweep = np.linspace(0.5 * PHI0, critical_flux(p)[1] - 1e-6 * PHI0, 700)
    wells = well_report_sweep(sweep, p)
    # The shallowest well of each flux, the first one on a tie: a stable
    # sort by height within each flux_index.
    order = np.lexsort((wells.barrier_height, wells.flux_index))
    first = np.unique(wells.flux_index[order], return_index=True)[1]
    assert first.size == sweep.size
    freqs = wells.plasma_frequency[order][first] / (2.0 * math.pi)
    assert freqs.min() < 4.4e9 < 5.9e9 < freqs.max()
    for target in np.linspace(4.4e9, 5.9e9, 16):
        assert np.abs(freqs - target).min() < 50e6
    assert time.perf_counter() - t0 < 10.0


def test_fidelity_budget_monte_carlo():
    t0 = time.perf_counter()
    budget = fidelity_budget(ProtocolConfig(), 100_000)
    assert abs(budget["F_raw"] - 0.92) < 0.01
    assert abs(budget["epsilon_relax"] - 0.05) < 0.005
    assert abs(budget["epsilon_dark"] - 0.02) < 0.005
    # Analytic preparation-relaxation error for a 780 ns pulse against a
    # 6.6 us lifetime, checked against the time-averaged survival
    # formula evaluated inline.  The headline 0.057 is that value at
    # three-decimal precision (the unrounded number is 0.05683, which
    # sits 1.7e-4 from the rounded form), so the comparison is made at
    # the quoted precision.
    value = relaxation_error(780e-9, 6.6e-6)
    x = 780e-9 / 6.6e-6
    assert abs(value - (1.0 - (1.0 - math.exp(-x)) / x)) < 1e-12
    assert round(value, 3) == 0.057
    assert time.perf_counter() - t0 < 30.0


def test_iq_discrimination_fidelity():
    t0 = time.perf_counter()
    model = IqModel()
    distance = math.hypot(
        model.centroid_1[0] - model.centroid_0[0],
        model.centroid_1[1] - model.centroid_0[1],
    )
    predicted = 1.0 - 0.5 * math.erfc(distance / (2.0 * math.sqrt(2.0) * model.sigma))
    analytic = separation_fidelity(model)
    assert abs(analytic - predicted) < 1e-12
    assert abs(analytic - 0.9998) < 1e-4
    # Empirical single-shot fidelity over 10^5 labelled draws stays
    # inside three binomial standard deviations of the prediction.
    n = 100_000
    out = iq_fidelity(model, n // 2, np.random.default_rng(6))
    assert abs(out["single_shot_fidelity"] - analytic) < 3.0 * math.sqrt(
        analytic * (1.0 - analytic) / n
    )
    assert time.perf_counter() - t0 < 10.0


def test_tomography_overlaps_and_round_trip():
    t0 = time.perf_counter()
    prepared = DensityMatrix2(excited_population=0.09, coherence_magnitude=0.02)
    decayed = DensityMatrix2(excited_population=0.69, coherence_magnitude=0.01)
    assert abs(overlap_fidelity(prepared, (1.0, 0.0)) - 0.91) < 1e-12
    assert abs(overlap_fidelity(decayed, (0.0, 1.0)) - 0.69) < 1e-12

    # Noiseless synthesize-then-fit round-trips all four parameters to
    # 1e-6 relative.
    t_pi = 50e-9
    rho = DensityMatrix2(0.31, 0.18, 1.05)
    grid = synthesize_tomogram(
        rho,
        t_pi,
        np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False),
        np.linspace(0.0, 2.2 * t_pi, 34),
    )
    fit = fit_tomogram(grid)
    assert abs(fit.rho.excited_population - rho.excited_population) < 1e-6 * rho.excited_population
    assert abs(fit.rho.coherence_magnitude - rho.coherence_magnitude) < 1e-6 * rho.coherence_magnitude
    phase_diff = (fit.rho.coherence_phase - rho.coherence_phase + math.pi) % (2.0 * math.pi) - math.pi
    assert abs(phase_diff) < 1e-6 * abs(rho.coherence_phase)
    assert abs(fit.pi_duration - t_pi) < 1e-6 * t_pi

    # Closed-form occupation equals direct matrix conjugation on 10^4
    # random parameter draws.
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(10_000):
        beta = float(rng.uniform(0.02, 0.98))
        r = float(rng.uniform(0.0, 1.0)) * math.sqrt(beta * (1.0 - beta))
        draw = DensityMatrix2(beta, r, float(rng.uniform(-math.pi, math.pi)))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        t = float(rng.uniform(0.0, 4.0 * t_pi))
        worst = max(
            worst,
            abs(expected_occupation(draw, theta, t, t_pi) - oracle_occupation(draw, theta, t, t_pi)),
        )
    assert worst < 1e-12
    assert time.perf_counter() - t0 < 10.0


def test_depletion_recovery_contrast():
    t0 = time.perf_counter()
    cfg = ProtocolConfig()
    contrasts = [
        depletion_recovery(t, cfg)["ramsey_contrast"] for t in np.linspace(0.0, 200e-9, 2001)
    ]
    assert all(b >= a - 1e-15 for a, b in zip(contrasts, contrasts[1:]))
    assert depletion_recovery(40e-9, cfg)["ramsey_contrast"] >= 0.95 - 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_cli_byte_stability(tmp_path, capsys):
    t0 = time.perf_counter()
    runs = []
    for label in ("first", "second"):
        blobs = {}
        tomogram_path = None
        for name in SUBCOMMANDS:
            out_dir = tmp_path / label / name
            out_dir.mkdir(parents=True)
            overrides = (f"tomo.input={tomogram_path}",) if name == "tomo-fit" else ()
            code, paths = run_subcommand(name, overrides=overrides, output_dir=str(out_dir))
            assert code == 0
            if name == "tomo-synth":
                tomogram_path = paths[0]
            blobs[name] = [path.read_bytes() for path in sorted(paths)]
        runs.append(blobs)
    for name in SUBCOMMANDS:
        assert runs[0][name] == runs[1][name]
    assert time.perf_counter() - t0 < 60.0
