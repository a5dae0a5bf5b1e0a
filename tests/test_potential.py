"""Tests for the flux-biased junction potential module.

Expected values are produced by independent oracles defined at the top
of this file: a term-by-term re-implementation of the potential, a
dense-scan-plus-brentq root finder for the extremum condition, and a
Richardson-extrapolated finite difference for the curvature.  Nothing
below asserts against the module's own internals.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from jpmsim.errors import NumericalError
from jpmsim.potential import (
    DEFAULT_PARAMS,
    HBAR,
    MAX_SCAN_CELLS,
    PHI0,
    FluxBias,
    JpmParams,
    beta_L,
    critical_flux,
    find_extrema,
    plasma_frequency,
    potential_curvature,
    potential_energy,
    well_report,
)


def oracle_potential(delta: float, flux_wb: float, p: JpmParams) -> float:
    # Independent arithmetic: Josephson term plus quadratic loop term.
    e_j = p.critical_current * p.flux_quantum / (2.0 * math.pi)
    phi_e = 2.0 * math.pi * flux_wb / p.flux_quantum
    scale = (p.flux_quantum / (2.0 * math.pi)) ** 2 / (2.0 * p.loop_inductance)
    return -e_j * math.cos(delta) + scale * (delta - phi_e) ** 2


def oracle_roots(flux_wb: float, p: JpmParams, step: float = 1e-4) -> list[float]:
    # Dense scan of the extremum condition followed by brentq refinement.
    # The bracket [phi_e - beta - 1, phi_e + beta + 1] contains every
    # root because |sin| <= 1 forces |delta - phi_e| <= beta there.
    beta = 2.0 * math.pi * p.loop_inductance * p.critical_current / p.flux_quantum
    phi_e = 2.0 * math.pi * flux_wb / p.flux_quantum

    def g(delta):
        return np.sin(delta) - (phi_e - delta) / beta

    lo, hi = phi_e - beta - 1.0, phi_e + beta + 1.0
    grid = np.arange(lo, hi + step, step)
    vals = g(grid)
    roots = []
    for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
        roots.append(brentq(g, grid[i], grid[i + 1], xtol=1e-13, rtol=8.9e-16))
    for i in np.flatnonzero(vals == 0.0):
        roots.append(float(grid[i]))
    return sorted(roots)


def fd_curvature(delta: float, flux_wb: float, p: JpmParams, h: float = 1e-3) -> float:
    # Centered second difference with one Richardson step (O(h^4)).
    def d2(step):
        return (
            oracle_potential(delta + step, flux_wb, p)
            - 2.0 * oracle_potential(delta, flux_wb, p)
            + oracle_potential(delta - step, flux_wb, p)
        ) / step**2

    return (4.0 * d2(h / 2.0) - d2(h)) / 3.0


def test_potential_energy_matches_term_by_term_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        delta = float(rng.uniform(-10.0, 10.0))
        flux = float(rng.uniform(-0.5, 1.5)) * PHI0
        got = potential_energy(delta, FluxBias(flux), DEFAULT_PARAMS)
        want = oracle_potential(delta, flux, DEFAULT_PARAMS)
        assert got == pytest.approx(want, rel=1e-12)


def test_potential_energy_broadcasts():
    deltas = np.linspace(0.0, 2.0 * math.pi, 11)
    out = potential_energy(deltas, FluxBias.from_flux_quanta(0.3), DEFAULT_PARAMS)
    assert out.shape == deltas.shape
    for d, u in zip(deltas, out):
        assert u == pytest.approx(oracle_potential(float(d), 0.3 * PHI0, DEFAULT_PARAMS), rel=1e-12)


def test_curvature_matches_finite_difference():
    rng = np.random.default_rng(11)
    for _ in range(100):
        delta = float(rng.uniform(-6.0, 6.0))
        got = potential_curvature(delta, DEFAULT_PARAMS)
        want = fd_curvature(delta, 0.25 * PHI0, DEFAULT_PARAMS)
        assert got == pytest.approx(want, rel=1e-6)


def test_curvature_is_flux_independent():
    # The quadratic term contributes a constant second derivative, so
    # the curvature at fixed phase cannot depend on the applied flux.
    assert potential_curvature(1.3, DEFAULT_PARAMS) == potential_curvature(1.3, DEFAULT_PARAMS)
    u1 = fd_curvature(1.3, 0.1 * PHI0, DEFAULT_PARAMS)
    u2 = fd_curvature(1.3, 0.9 * PHI0, DEFAULT_PARAMS)
    assert u1 == pytest.approx(u2, rel=1e-9)


def test_beta_l_default_device():
    # beta_L = 2 pi L I0 / Phi0, evaluated independently.
    want = 2.0 * math.pi * 1.1e-9 * 1e-6 / PHI0
    assert beta_L(DEFAULT_PARAMS) == pytest.approx(want, rel=1e-15)
    assert beta_L(DEFAULT_PARAMS) == pytest.approx(3.3423883860796266, abs=1e-12)


def test_plasma_frequency_zero_flux():
    reports = well_report(FluxBias(0.0), DEFAULT_PARAMS)
    assert len(reports) == 1
    report = reports[0]
    # Independent chain: FD curvature at the reported minimum, then
    # omega_p = sqrt(U'' / (C * (Phi0 / 2 pi)^2)) / (2 pi) in Hz.
    curv = fd_curvature(report.minimum_phase, 0.0, DEFAULT_PARAMS)
    scale = (PHI0 / (2.0 * math.pi)) ** 2 * DEFAULT_PARAMS.shunt_capacitance
    want_hz = math.sqrt(curv / scale) / (2.0 * math.pi)
    assert report.plasma_frequency / (2.0 * math.pi) == pytest.approx(want_hz, rel=1e-7)
    assert report.plasma_frequency / (2.0 * math.pi) == pytest.approx(7.070874408383186e9, rel=1e-9)


def test_plasma_frequency_rejects_maxima():
    # At a potential maximum the curvature is negative and no real
    # oscillation frequency exists.
    extrema = find_extrema(FluxBias.from_flux_quanta(0.5), DEFAULT_PARAMS)
    maxima = [d for d, kind in extrema if kind == "maximum"]
    assert maxima
    with pytest.raises(NumericalError):
        plasma_frequency(maxima[0], DEFAULT_PARAMS)


def test_find_extrema_against_dense_scan():
    rng = np.random.default_rng(2026)
    for _ in range(60):
        flux = float(rng.uniform(0.0, 1.0)) * PHI0
        got = find_extrema(FluxBias(flux), DEFAULT_PARAMS)
        want = oracle_roots(flux, DEFAULT_PARAMS)
        assert len(got) == len(want)
        for (delta, _), ref in zip(got, want):
            assert abs(delta - ref) < 1e-9


def test_find_extrema_structure():
    rng = np.random.default_rng(99)
    for _ in range(40):
        flux = FluxBias(float(rng.uniform(0.0, 1.0)) * PHI0)
        extrema = find_extrema(flux, DEFAULT_PARAMS)
        deltas = [d for d, _ in extrema]
        kinds = [k for _, k in extrema]
        assert len(extrema) % 2 == 1
        assert deltas == sorted(deltas)
        # Minima and maxima alternate, starting and ending on a minimum.
        assert kinds[::2] == ["minimum"] * len(kinds[::2])
        assert kinds[1::2] == ["maximum"] * len(kinds[1::2])
        # Each reported extremum satisfies the dimensionless condition.
        beta = beta_L(DEFAULT_PARAMS)
        phi_e = 2.0 * math.pi * flux.external_flux / PHI0
        for d in deltas:
            assert abs(math.sin(d) - (phi_e - d) / beta) < 1e-10


def test_find_extrema_flux_parity():
    # Reflecting the bias about half a flux quantum mirrors the phase
    # axis: extrema map to 2 pi - delta with kinds preserved.
    rng = np.random.default_rng(5)
    for _ in range(25):
        q = float(rng.uniform(0.0, 1.0))
        fwd = find_extrema(FluxBias.from_flux_quanta(q), DEFAULT_PARAMS)
        rev = find_extrema(FluxBias.from_flux_quanta(1.0 - q), DEFAULT_PARAMS)
        assert len(fwd) == len(rev)
        for (d, kind), (dr, kind_r) in zip(fwd, reversed(rev)):
            assert 2.0 * math.pi - dr == pytest.approx(d, abs=1e-9)
            assert kind == kind_r


def test_well_report_half_flux():
    # At half a flux quantum the double well is symmetric.
    flux = FluxBias.from_flux_quanta(0.5)
    reports = well_report(flux, DEFAULT_PARAMS)
    assert len(reports) == 2
    left, right = reports
    assert left.well_label == "left"
    assert right.well_label == "right"
    assert left.bounded and right.bounded
    assert left.minimum_phase + right.minimum_phase == pytest.approx(2.0 * math.pi, abs=1e-9)
    assert left.barrier_height == pytest.approx(right.barrier_height, rel=1e-9)
    assert left.plasma_frequency == pytest.approx(right.plasma_frequency, rel=1e-9)
    assert left.plasma_frequency / (2.0 * math.pi) == pytest.approx(6.227688678369018e9, rel=1e-9)

    # Independent barrier height: potential at the central maximum minus
    # potential at the minimum, via the term-by-term oracle.
    extrema = find_extrema(flux, DEFAULT_PARAMS)
    assert len(extrema) == 3
    d_min, d_max = extrema[0][0], extrema[1][0]
    want = oracle_potential(d_max, 0.5 * PHI0, DEFAULT_PARAMS) - oracle_potential(
        d_min, 0.5 * PHI0, DEFAULT_PARAMS
    )
    assert left.barrier_height == pytest.approx(want, rel=1e-10)
    # Level count = barrier height over one plasma quantum.
    assert left.level_count == pytest.approx(want / (HBAR * left.plasma_frequency), rel=1e-9)
    assert left.level_count == pytest.approx(69.91, abs=0.01)


def test_well_report_single_well_unbounded():
    report = well_report(FluxBias(0.0), DEFAULT_PARAMS)[0]
    assert report.well_label == "global"
    assert not report.bounded
    assert report.barrier_phase is None
    assert math.isinf(report.barrier_height)
    assert math.isinf(report.level_count)


def test_well_report_escape_barrier_is_lowest_side():
    # In the asymmetric double-well regime the escape barrier is the
    # lower of the two adjacent maxima when both exist; with a single
    # maximum it is that maximum.
    flux = FluxBias.from_flux_quanta(0.55)
    extrema = find_extrema(flux, DEFAULT_PARAMS)
    minima = [d for d, k in extrema if k == "minimum"]
    maxima = [d for d, k in extrema if k == "maximum"]
    assert len(minima) == 2 and len(maxima) == 1
    left = well_report(flux, DEFAULT_PARAMS)[0]
    u_barrier = oracle_potential(maxima[0], 0.55 * PHI0, DEFAULT_PARAMS)
    u_min = oracle_potential(minima[0], 0.55 * PHI0, DEFAULT_PARAMS)
    assert left.barrier_phase == pytest.approx(maxima[0], abs=1e-9)
    assert left.barrier_height == pytest.approx(u_barrier - u_min, rel=1e-10)


def test_critical_flux_values():
    crit = critical_flux(DEFAULT_PARAMS)
    assert len(crit) == 2
    quanta = [f / PHI0 for f in crit]
    assert quanta[0] == pytest.approx(0.1940512338566182, abs=1e-12)
    assert quanta[1] == pytest.approx(0.8059487661433817, abs=1e-12)
    # Tangency condition, checked independently: at the critical bias a
    # root of the extremum equation has cos(delta) = -1/beta_L.
    beta = beta_L(DEFAULT_PARAMS)
    for f in crit:
        phi_e = 2.0 * math.pi * f / PHI0
        delta = brentq(
            lambda d: math.cos(d) + 1.0 / beta, 0.0, math.pi, xtol=1e-14
        )
        candidates = [delta + 2.0 * math.pi * k for k in range(-2, 3)]
        candidates += [-delta + 2.0 * math.pi * k for k in range(-2, 3)]
        residuals = [abs(math.sin(d) - (phi_e - d) / beta) for d in candidates]
        assert min(residuals) < 1e-9


def test_critical_flux_flips_well_count_by_one():
    eps = 1e-6 * PHI0
    for f in critical_flux(DEFAULT_PARAMS):
        below = sum(1 for _, k in find_extrema(FluxBias(f - eps), DEFAULT_PARAMS) if k == "minimum")
        above = sum(1 for _, k in find_extrema(FluxBias(f + eps), DEFAULT_PARAMS) if k == "minimum")
        assert abs(below - above) == 1


def test_critical_flux_empty_for_monostable_device():
    # beta_L <= 1 keeps the potential monostable at every bias.
    p = JpmParams(critical_current=1e-7, loop_inductance=1.1e-9, shunt_capacitance=2e-12)
    assert 2.0 * math.pi * p.loop_inductance * p.critical_current / PHI0 < 1.0
    assert critical_flux(p) == []
    for q in (0.0, 0.3, 0.5, 0.8):
        extrema = find_extrema(FluxBias.from_flux_quanta(q), p)
        assert sum(1 for _, k in extrema if k == "minimum") == 1


def test_scan_size_limit():
    # The bracket spans 2 beta_L + 2 radians; past MAX_SCAN_CELLS cells
    # of the scan step both solvers refuse before doing the work.
    flux = FluxBias.from_flux_quanta(0.3)
    span = 2.0 * beta_L(DEFAULT_PARAMS) + 2.0
    with pytest.raises(NumericalError, match="scan cells"):
        find_extrema(flux, DEFAULT_PARAMS, scan_step=0.99 * span / MAX_SCAN_CELLS)
    huge = JpmParams(critical_current=1e300, loop_inductance=1.1e-9, shunt_capacitance=2e-12)
    with pytest.raises(NumericalError, match="scan cells"):
        critical_flux(huge)


def test_near_tangency_pair_is_resolved():
    # Just inside a critical flux the new minimum/maximum pair is close
    # together; both roots must still be reported.
    crit = critical_flux(DEFAULT_PARAMS)[1]
    for offset in (1e-5, 1e-6, 1e-7):
        flux = FluxBias(crit * (1.0 - offset))
        got = find_extrema(flux, DEFAULT_PARAMS)
        want = oracle_roots(flux.external_flux, DEFAULT_PARAMS, step=1e-6)
        assert len(got) == len(want)
        for (delta, _), ref in zip(got, want):
            assert abs(delta - ref) < 1e-9


def test_flux_bias_round_trip():
    fb = FluxBias.from_flux_quanta(0.37)
    assert fb.in_flux_quanta == pytest.approx(0.37, rel=1e-15)
    assert fb.external_flux == pytest.approx(0.37 * PHI0, rel=1e-15)


def test_params_validation():
    with pytest.raises(ValueError):
        JpmParams(critical_current=-1e-6, loop_inductance=1.1e-9, shunt_capacitance=2e-12)
    with pytest.raises(ValueError):
        JpmParams(critical_current=1e-6, loop_inductance=0.0, shunt_capacitance=2e-12)
