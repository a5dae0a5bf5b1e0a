"""Tests for the flux-biased junction potential module.

Expected values are produced by independent oracles defined at the top
of this file: a term-by-term re-implementation of the potential, a
dense-scan-plus-brentq root finder for the extremum condition, and a
Richardson-extrapolated finite difference for the curvature.  Nothing
below asserts against the module's own internals.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from jpmsim import potential
from jpmsim.errors import NumericalError
from jpmsim.potential import (
    DEFAULT_PARAMS,
    HBAR,
    MAX_SCAN_CELLS,
    PHI0,
    SCAN_STEP,
    SWEEP_BLOCK_CELLS,
    JpmParams,
    beta_L,
    critical_flux,
    find_extrema_sweep,
    plasma_frequency,
    potential_curvature,
    potential_energy,
    well_report_sweep,
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
        got = potential_energy(delta, flux, DEFAULT_PARAMS)
        want = oracle_potential(delta, flux, DEFAULT_PARAMS)
        assert got == pytest.approx(want, rel=1e-12)


def test_potential_energy_broadcasts():
    deltas = np.linspace(0.0, 2.0 * math.pi, 11)
    out = potential_energy(deltas, 0.3 * PHI0, DEFAULT_PARAMS)
    assert out.shape == deltas.shape
    for d, u in zip(deltas, out):
        assert u == pytest.approx(oracle_potential(float(d), 0.3 * PHI0, DEFAULT_PARAMS), rel=1e-12)


@pytest.mark.parametrize("flux", [math.inf, -math.inf, math.nan])
def test_potential_energy_refuses_non_finite_flux(flux):
    with pytest.raises(ValueError, match="finite"):
        potential_energy(0.0, flux, DEFAULT_PARAMS)


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
    wells = well_report_sweep([0.0], DEFAULT_PARAMS)
    assert wells.minimum_phase.size == 1
    omega = float(wells.plasma_frequency[0])
    # Independent chain: FD curvature at the reported minimum, then
    # omega_p = sqrt(U'' / (C * (Phi0 / 2 pi)^2)) / (2 pi) in Hz.
    curv = fd_curvature(float(wells.minimum_phase[0]), 0.0, DEFAULT_PARAMS)
    scale = (PHI0 / (2.0 * math.pi)) ** 2 * DEFAULT_PARAMS.shunt_capacitance
    want_hz = math.sqrt(curv / scale) / (2.0 * math.pi)
    assert omega / (2.0 * math.pi) == pytest.approx(want_hz, rel=1e-7)
    assert omega / (2.0 * math.pi) == pytest.approx(7.070874408383186e9, rel=1e-9)


def test_plasma_frequency_rejects_maxima():
    # At a potential maximum the curvature is negative and no real
    # oscillation frequency exists.
    extrema = find_extrema_sweep([0.5 * PHI0], DEFAULT_PARAMS)[0]
    maxima = [d for d, kind in extrema if kind == "maximum"]
    assert maxima
    with pytest.raises(NumericalError):
        plasma_frequency(maxima[0], DEFAULT_PARAMS)


def test_find_extrema_against_dense_scan():
    rng = np.random.default_rng(2026)
    fluxes = [float(rng.uniform(0.0, 1.0)) * PHI0 for _ in range(60)]
    for flux, got in zip(fluxes, find_extrema_sweep(fluxes, DEFAULT_PARAMS)):
        want = oracle_roots(flux, DEFAULT_PARAMS)
        assert len(got) == len(want)
        for (delta, _), ref in zip(got, want):
            assert abs(delta - ref) < 1e-9


def test_find_extrema_structure():
    rng = np.random.default_rng(99)
    fluxes = [float(rng.uniform(0.0, 1.0)) * PHI0 for _ in range(40)]
    for flux, extrema in zip(fluxes, find_extrema_sweep(fluxes, DEFAULT_PARAMS)):
        deltas = [d for d, _ in extrema]
        kinds = [k for _, k in extrema]
        assert len(extrema) % 2 == 1
        assert deltas == sorted(deltas)
        # Minima and maxima alternate, starting and ending on a minimum.
        assert kinds[::2] == ["minimum"] * len(kinds[::2])
        assert kinds[1::2] == ["maximum"] * len(kinds[1::2])
        # Each reported extremum satisfies the dimensionless condition.
        beta = beta_L(DEFAULT_PARAMS)
        phi_e = 2.0 * math.pi * flux / PHI0
        for d in deltas:
            assert abs(math.sin(d) - (phi_e - d) / beta) < 1e-10


def test_find_extrema_flux_parity():
    # Reflecting the bias about half a flux quantum mirrors the phase
    # axis: extrema map to 2 pi - delta with kinds preserved.
    rng = np.random.default_rng(5)
    quanta = [float(rng.uniform(0.0, 1.0)) for _ in range(25)]
    forward = find_extrema_sweep([q * PHI0 for q in quanta], DEFAULT_PARAMS)
    reverse = find_extrema_sweep([(1.0 - q) * PHI0 for q in quanta], DEFAULT_PARAMS)
    for fwd, rev in zip(forward, reverse):
        assert len(fwd) == len(rev)
        for (d, kind), (dr, kind_r) in zip(fwd, reversed(rev)):
            assert 2.0 * math.pi - dr == pytest.approx(d, abs=1e-9)
            assert kind == kind_r


def test_well_report_half_flux():
    # At half a flux quantum the double well is symmetric.
    flux = 0.5 * PHI0
    wells = well_report_sweep([flux], DEFAULT_PARAMS)
    assert wells.minimum_phase.size == 2
    assert wells.well_label.tolist() == ["left", "right"]
    assert wells.bounded.all()
    phase, height, omega, levels = (
        getattr(wells, name).tolist()
        for name in ("minimum_phase", "barrier_height", "plasma_frequency", "level_count")
    )
    assert phase[0] + phase[1] == pytest.approx(2.0 * math.pi, abs=1e-9)
    assert height[0] == pytest.approx(height[1], rel=1e-9)
    assert omega[0] == pytest.approx(omega[1], rel=1e-9)
    assert omega[0] / (2.0 * math.pi) == pytest.approx(6.227688678369018e9, rel=1e-9)

    # Independent barrier height: potential at the central maximum minus
    # potential at the minimum, via the term-by-term oracle.
    extrema = find_extrema_sweep([flux], DEFAULT_PARAMS)[0]
    assert len(extrema) == 3
    d_min, d_max = extrema[0][0], extrema[1][0]
    want = oracle_potential(d_max, flux, DEFAULT_PARAMS) - oracle_potential(d_min, flux, DEFAULT_PARAMS)
    assert height[0] == pytest.approx(want, rel=1e-10)
    # Level count = barrier height over one plasma quantum.
    assert levels[0] == pytest.approx(want / (HBAR * omega[0]), rel=1e-9)
    assert levels[0] == pytest.approx(69.91, abs=0.01)


def test_well_report_single_well_unbounded():
    wells = well_report_sweep([0.0], DEFAULT_PARAMS)
    assert wells.minimum_phase.size == 1
    assert wells.well_label[0] == "global"
    assert not wells.bounded[0]
    assert math.isnan(wells.barrier_phase[0])
    assert math.isinf(wells.barrier_height[0])
    assert math.isinf(wells.level_count[0])


def test_well_report_escape_barrier_is_lowest_side():
    # In the asymmetric double-well regime the escape barrier is the
    # lower of the two adjacent maxima when both exist; with a single
    # maximum it is that maximum.
    flux = 0.55 * PHI0
    extrema = find_extrema_sweep([flux], DEFAULT_PARAMS)[0]
    minima = [d for d, k in extrema if k == "minimum"]
    maxima = [d for d, k in extrema if k == "maximum"]
    assert len(minima) == 2 and len(maxima) == 1
    wells = well_report_sweep([flux], DEFAULT_PARAMS)
    u_barrier = oracle_potential(maxima[0], flux, DEFAULT_PARAMS)
    u_min = oracle_potential(minima[0], flux, DEFAULT_PARAMS)
    assert wells.barrier_phase[0] == pytest.approx(maxima[0], abs=1e-9)
    assert wells.barrier_height[0] == pytest.approx(u_barrier - u_min, rel=1e-10)


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
        below, above = (
            sum(1 for _, k in extrema if k == "minimum")
            for extrema in find_extrema_sweep([f - eps, f + eps], DEFAULT_PARAMS)
        )
        assert abs(below - above) == 1


def test_critical_flux_empty_for_monostable_device():
    # beta_L <= 1 keeps the potential monostable at every bias.
    p = JpmParams(critical_current=1e-7, loop_inductance=1.1e-9, shunt_capacitance=2e-12)
    assert 2.0 * math.pi * p.loop_inductance * p.critical_current / PHI0 < 1.0
    assert critical_flux(p) == []
    for extrema in find_extrema_sweep([q * PHI0 for q in (0.0, 0.3, 0.5, 0.8)], p):
        assert sum(1 for _, k in extrema if k == "minimum") == 1


def test_scan_size_limit():
    # The bracket spans 2 beta_L + 2 radians; past MAX_SCAN_CELLS cells
    # of the scan step both solvers refuse before doing the work.  A
    # 50 mA junction (beta_L about 1.67e5) is just past the limit.
    big = JpmParams(critical_current=50e-3, loop_inductance=1.1e-9, shunt_capacitance=2e-12)
    assert (2.0 * beta_L(big) + 2.0) / SCAN_STEP > MAX_SCAN_CELLS
    with pytest.raises(NumericalError, match="scan cells"):
        find_extrema_sweep([0.3 * PHI0], big)
    huge = JpmParams(critical_current=1e300, loop_inductance=1.1e-9, shunt_capacitance=2e-12)
    with pytest.raises(NumericalError, match="scan cells"):
        critical_flux(huge)


def test_near_tangency_pair_is_resolved():
    # Just inside a critical flux the new minimum/maximum pair is close
    # together; both roots must still be reported.
    crit = critical_flux(DEFAULT_PARAMS)[1]
    for offset in (1e-5, 1e-6, 1e-7):
        flux = crit * (1.0 - offset)
        got = find_extrema_sweep([flux], DEFAULT_PARAMS)[0]
        want = oracle_roots(flux, DEFAULT_PARAMS, step=1e-6)
        assert len(got) == len(want)
        for (delta, _), ref in zip(got, want):
            assert abs(delta - ref) < 1e-9


def reference_extrema(flux_wb: float, p: JpmParams, scan_step: float = math.pi / 100, tol: float = 1e-12):
    # The one-flux solver the sweep replaced, kept as its bit-for-bit
    # reference: one scan grid, a vectorized bisection over the crossing
    # cells, a scalar slope bisection for each same-sign cell in which
    # the slope changes sign, and a pair bisection where that cell hides
    # two roots.
    beta = 2.0 * math.pi * p.loop_inductance * p.critical_current / p.flux_quantum
    phi_e = 2.0 * math.pi * flux_wb / p.flux_quantum
    lo, hi = phi_e - beta - 1.0, phi_e + beta + 1.0
    grid = np.linspace(lo, hi, int(math.ceil((hi - lo) / scan_step)) + 1)

    def g(delta):
        return np.sin(delta) - (phi_e - delta) / beta

    def bisect(a, b):
        a, b = np.array(a, dtype=float), np.array(b, dtype=float)
        g_a = g(a)
        while not np.all(b - a <= tol):
            m = 0.5 * (a + b)
            g_m = g(m)
            left = g_a * g_m <= 0.0
            a, b, g_a = np.where(left, a, m), np.where(left, m, b), np.where(left, g_a, g_m)
        return (0.5 * (a + b)).tolist()

    res = g(grid)
    sign = np.sign(res)
    cross = np.flatnonzero(sign[:-1] * sign[1:] < 0.0)
    roots = bisect(grid[cross], grid[cross + 1]) if cross.size else []
    for i in np.flatnonzero(sign == 0.0):
        if 0 < i < grid.size - 1 and sign[i - 1] * sign[i + 1] < 0.0:
            roots.append(float(grid[i]))
    slope = np.sign(np.cos(grid) + 1.0 / beta)
    for i in np.flatnonzero((sign[:-1] * sign[1:] > 0.0) & (slope[:-1] * slope[1:] < 0.0)):
        x, y = float(grid[i]), float(grid[i + 1])
        s_x = math.cos(x) + 1.0 / beta
        while y - x > tol:
            m = 0.5 * (x + y)
            s_m = math.cos(m) + 1.0 / beta
            if s_x * s_m <= 0.0:
                y = m
            else:
                x, s_x = m, s_m
        station = 0.5 * (x + y)
        if float(g(station)) * res[i] < 0.0:
            roots += bisect([grid[i], station], [station, grid[i + 1]])
    kept = []
    for r in sorted(roots):
        if not kept or r - kept[-1] > 10.0 * tol:
            kept.append(r)
    return [(r, "minimum" if math.cos(r) + 1.0 / beta > 0.0 else "maximum") for r in kept]


def reference_wells(flux_wb: float, p: JpmParams):
    # Per-minimum (phase, barrier phase or None, height, omega_p, levels,
    # label) from reference_extrema, one minimum at a time.
    extrema = reference_extrema(flux_wb, p)
    minima = [i for i, (_, kind) in enumerate(extrema) if kind == "minimum"]
    e_j = p.critical_current * p.flux_quantum / (2.0 * math.pi)
    quad = (p.flux_quantum / (2.0 * math.pi)) ** 2 / p.loop_inductance
    wells = []
    for pos, i in enumerate(minima):
        delta = extrema[i][0]
        barrier, height = None, math.inf
        for j in (i - 1, i + 1):
            if 0 <= j < len(extrema):
                h = oracle_potential(extrema[j][0], flux_wb, p) - oracle_potential(delta, flux_wb, p)
                if h < height:
                    barrier, height = extrema[j][0], h
        omega = (2.0 * math.pi / p.flux_quantum) * math.sqrt((e_j * math.cos(delta) + quad) / p.shunt_capacitance)
        levels = height / (HBAR * omega) if barrier is not None else math.inf
        if len(minima) == 1:
            label = "global"
        else:
            label = "left" if pos == 0 else "right" if pos == len(minima) - 1 else "interior"
        wells.append((delta, barrier, height, omega, levels, label))
    return wells


def _device(beta: float) -> JpmParams:
    # The default loop with the critical current that gives this beta_L.
    return JpmParams(
        critical_current=beta * PHI0 / (2.0 * math.pi * 1.1e-9),
        loop_inductance=1.1e-9,
        shunt_capacitance=2e-12,
    )


def _one_flux_extrema(fluxes, p: JpmParams):
    # A one-flux sweep for each flux in turn.
    return [find_extrema_sweep([float(f)], p)[0] for f in fluxes]


def _well_rows(wells):
    # One tuple per well.  An unbounded well's NaN barrier phase reads
    # None, so that rows compare with ==.
    barrier = [b if bounded else None for b, bounded in zip(wells.barrier_phase.tolist(), wells.bounded.tolist())]
    return list(
        zip(
            wells.flux_index.tolist(),
            wells.well_count.tolist(),
            wells.minimum_phase.tolist(),
            barrier,
            wells.barrier_height.tolist(),
            wells.plasma_frequency.tolist(),
            wells.level_count.tolist(),
            wells.well_label.tolist(),
            wells.bounded.tolist(),
        )
    )


def _alternates(extrema) -> bool:
    kinds = [kind for _, kind in extrema]
    return len(kinds) % 2 == 1 and all(a != b for a, b in zip(kinds, kinds[1:]))


def test_sweep_equals_per_flux_calls_across_blocks():
    # Several blocks, a length that is no multiple of the fluxes per
    # block, a window across both tangencies, and fluxes close enough to
    # a tangency that a cell hides a root pair: the sweep must give the
    # bits of a one-flux sweep of each flux.
    p = DEFAULT_PARAMS
    per_block = SWEEP_BLOCK_CELLS // math.ceil((2.0 * beta_L(p) + 2.0) / SCAN_STEP)
    crit = critical_flux(p)
    near = [f * (1.0 + sign * d) for f in crit for sign in (-1.0, 1.0) for d in (1e-5, 1e-6, 1e-7)]
    fluxes = np.concatenate([np.linspace(0.15, 0.85, 2 * per_block + per_block // 2) * PHI0, near])
    assert fluxes.size > 2 * per_block and fluxes.size % per_block != 0

    got = find_extrema_sweep(fluxes, p)
    assert got == _one_flux_extrema(fluxes, p)
    assert got == [reference_extrema(float(f), p) for f in fluxes]

    got = _well_rows(well_report_sweep(fluxes, p))
    want = [
        (i, *row[1:])
        for i, f in enumerate(fluxes)
        for row in _well_rows(well_report_sweep([float(f)], p))
    ]
    assert got == want
    assert [row[2:8] for row in got] == [well for f in fluxes for well in reference_wells(float(f), p)]


def test_sweep_keeps_per_flux_stopping_rule(monkeypatch):
    # With REFINE_TOL a power-of-two fraction of the cell width, the
    # crossing brackets of one flux reach it after different numbers of
    # halvings, so the bits depend on each flux stepping until all of its
    # brackets are within it, as the one-flux solver does.
    p = DEFAULT_PARAMS
    beta = beta_L(p)
    spacing = (2.0 * beta + 2.0) / math.ceil((2.0 * beta + 2.0) / SCAN_STEP)
    fluxes = np.linspace(0.05, 0.95, 40) * PHI0
    for halvings in (16, 20, 24, 28):
        # The solver reads REFINE_TOL when called, not as a default.
        tol = spacing / 2**halvings
        monkeypatch.setattr(potential, "REFINE_TOL", tol)
        got = find_extrema_sweep(fluxes, p)
        assert got == [reference_extrema(float(f), p, tol=tol) for f in fluxes]


def test_sweep_takes_no_tolerance():
    # The bisection tolerance is the module constant REFINE_TOL.
    with pytest.raises(TypeError):
        find_extrema_sweep([0.3 * PHI0], DEFAULT_PARAMS, tol=1e-6)


@pytest.mark.parametrize(
    "fluxes, match",
    [
        ([[0.1 * PHI0, 0.2 * PHI0]], "one-dimensional"),
        ([0.1 * PHI0, math.inf], "must be finite"),
        # Finite in webers, but 2 pi flux / Phi0 is past float64.
        ([0.1 * PHI0, 1e308], "overflows the phase bias"),
    ],
    ids=["2-d", "non-finite", "phase-bias-overflow"],
)
def test_sweep_refuses_bad_fluxes(fluxes, match):
    for solve in (find_extrema_sweep, well_report_sweep):
        with pytest.raises(ValueError, match=match):
            solve(fluxes, DEFAULT_PARAMS)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(
    beta=st.floats(min_value=1.0, max_value=20.0, exclude_min=True),
    which=st.integers(min_value=0, max_value=7),
    offset=st.floats(min_value=-1e-3, max_value=1e-3),
    log_width=st.floats(min_value=-8.0, max_value=-2.0),
    points=st.integers(min_value=2, max_value=40),
)
# Float-step windows around each tangency, where a repeated root would
# be most likely, at the default device's beta_L and across its range.
@example(beta=1.0 + 1e-12, which=0, offset=0.0, log_width=-16.0, points=7)
@example(beta=1.0 + 1e-12, which=1, offset=0.0, log_width=-16.0, points=7)
@example(beta=3.3423883860796266, which=0, offset=0.0, log_width=-16.0, points=7)
@example(beta=3.3423883860796266, which=1, offset=0.0, log_width=-16.0, points=7)
@example(beta=13.0, which=0, offset=0.0, log_width=-16.0, points=7)
@example(beta=13.0, which=1, offset=0.0, log_width=-16.0, points=7)
@example(beta=1e3, which=0, offset=0.0, log_width=-16.0, points=7)
@example(beta=1e3, which=1, offset=0.0, log_width=-16.0, points=7)
def test_sweep_near_tangency_matches_per_flux_calls(beta, which, offset, log_width, points):
    p = _device(beta)
    crit = critical_flux(p)
    center = crit[which % len(crit)] + offset * PHI0
    width = 10.0**log_width * PHI0
    fluxes = np.linspace(center - width, center + width, points)
    got = find_extrema_sweep(fluxes, p)
    assert got == _one_flux_extrema(fluxes, p)
    assert got == [reference_extrema(float(f), p) for f in fluxes]
    assert all(_alternates(extrema) for extrema in got)


def test_sweep_memory_is_bounded():
    # The sweep is solved in blocks of about SWEEP_BLOCK_CELLS cells; one
    # (fluxes x cells) grid with its residual, signs and slopes would
    # take about 0.8 GB here.
    p = _device(13.0)
    fluxes = np.linspace(0.0, 1.0, 20_000) * PHI0
    tracemalloc.start()
    try:
        wells = well_report_sweep(fluxes, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(np.unique(wells.flux_index), np.arange(fluxes.size))
    assert peak < 40e6


def test_large_beta_l_converges():
    # At beta_L ~ 1e4 the float spacing near |delta| ~ 1e4 exceeds
    # REFINE_TOL; a bracket whose midpoint equals one of its ends has
    # converged all the same.
    p = JpmParams(critical_current=3e-3, loop_inductance=1.1e-9, shunt_capacitance=2e-12)
    beta = beta_L(p)
    assert 9e3 < beta < 1.1e4
    flux = 0.3 * PHI0
    extrema = find_extrema_sweep([flux], p)[0]
    assert _alternates(extrema)
    # Two extrema per 2 pi of the 2 beta_L + 2 wide bracket.
    assert abs(len(extrema) - 2.0 * beta / math.pi) < 3.0
    phi_e = 2.0 * math.pi * flux / PHI0
    assert max(abs(math.sin(d) - (phi_e - d) / beta) for d, _ in extrema) < 1e-9


def test_flux_quantum_is_the_module_constant():
    # Phi0 is not a constructor argument, so every conversion (phase
    # bias, the config's phi0 unit, the sweep's flux column) uses the
    # one PHI0.
    assert DEFAULT_PARAMS.flux_quantum == PHI0
    with pytest.raises(TypeError):
        JpmParams(1e-6, 1.1e-9, 2e-12, flux_quantum=2.0 * PHI0)


def test_params_validation():
    with pytest.raises(ValueError):
        JpmParams(critical_current=-1e-6, loop_inductance=1.1e-9, shunt_capacitance=2e-12)
    with pytest.raises(ValueError):
        JpmParams(critical_current=1e-6, loop_inductance=0.0, shunt_capacitance=2e-12)
