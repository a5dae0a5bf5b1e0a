"""Tests for the flux-biased junction potential module.

Expected values are produced by independent oracles defined at the top
of this file: a term-by-term re-implementation of the potential, a
dense-scan-plus-brentq root finder for the extremum condition, and a
Richardson-extrapolated finite difference for the curvature.  No
expected value comes from the module's own internals; a few tests patch
its solver constants or wrap its internals to check the blocking, the
segment widths and the number of residual passes.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from jpmsim import potential
from jpmsim.cli import run_subcommand
from jpmsim.config import RunConfig
from jpmsim.errors import NumericalError
from jpmsim.potential import (
    HBAR,
    MAX_SEGMENTS,
    PHI0,
    JpmParams,
    beta_L,
    critical_flux,
    plasma_frequency,
    potential_curvature,
    well_report_sweep,
)


DEVICE = RunConfig.from_sources().jpm_params()
"""The default device, as the config builds it."""


def energy(delta, flux_wb: float, p: JpmParams):
    # The module's potential at an applied flux in webers.
    return potential._energy(delta, potential._phase_bias(flux_wb), p)


def oracle_potential(delta: float, flux_wb: float, p: JpmParams) -> float:
    # Independent arithmetic: Josephson term plus quadratic loop term.
    e_j = p.critical_current * PHI0 / (2.0 * math.pi)
    phi_e = 2.0 * math.pi * flux_wb / PHI0
    scale = (PHI0 / (2.0 * math.pi)) ** 2 / (2.0 * p.loop_inductance)
    return -e_j * math.cos(delta) + scale * (delta - phi_e) ** 2


def sweep_extrema(fluxes, p: JpmParams) -> list[tuple[list, list]]:
    # The solver's arrays split at its offsets: for each flux, its roots
    # in ascending order and which of them are minima.
    _, _, offsets, roots, is_minimum = potential._sweep_extrema(fluxes, p)
    cuts = offsets[1:-1]
    return [(r.tolist(), m.tolist()) for r, m in zip(np.split(roots, cuts), np.split(is_minimum, cuts))]


def oracle_roots(flux_wb: float, p: JpmParams, step: float = 1e-4) -> list[float]:
    # Dense scan of the extremum condition followed by brentq refinement.
    # The bracket [phi_e - beta - 1, phi_e + beta + 1] contains every
    # root because |sin| <= 1 forces |delta - phi_e| <= beta there.
    beta = 2.0 * math.pi * p.loop_inductance * p.critical_current / PHI0
    phi_e = 2.0 * math.pi * flux_wb / PHI0

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
        got = energy(delta, flux, DEVICE)
        want = oracle_potential(delta, flux, DEVICE)
        assert got == pytest.approx(want, rel=1e-12)


def test_potential_energy_broadcasts():
    deltas = np.linspace(0.0, 2.0 * math.pi, 11)
    out = energy(deltas, 0.3 * PHI0, DEVICE)
    assert out.shape == deltas.shape
    for d, u in zip(deltas, out):
        assert u == pytest.approx(oracle_potential(float(d), 0.3 * PHI0, DEVICE), rel=1e-12)


def test_curvature_matches_finite_difference():
    rng = np.random.default_rng(11)
    for _ in range(100):
        delta = float(rng.uniform(-6.0, 6.0))
        got = potential_curvature(delta, DEVICE)
        want = fd_curvature(delta, 0.25 * PHI0, DEVICE)
        assert got == pytest.approx(want, rel=1e-6)


def test_curvature_is_flux_independent():
    # The quadratic term contributes a constant second derivative, so
    # the curvature at fixed phase cannot depend on the applied flux.
    assert potential_curvature(1.3, DEVICE) == potential_curvature(1.3, DEVICE)
    u1 = fd_curvature(1.3, 0.1 * PHI0, DEVICE)
    u2 = fd_curvature(1.3, 0.9 * PHI0, DEVICE)
    assert u1 == pytest.approx(u2, rel=1e-9)


def test_beta_l_default_device():
    # beta_L = 2 pi L I0 / Phi0, evaluated independently.
    want = 2.0 * math.pi * 1.1e-9 * 1e-6 / PHI0
    assert beta_L(DEVICE) == pytest.approx(want, rel=1e-15)
    assert beta_L(DEVICE) == pytest.approx(3.3423883860796266, abs=1e-12)


def test_plasma_frequency_zero_flux():
    wells = well_report_sweep([0.0], DEVICE)
    assert wells.minimum_phase.size == 1
    omega = float(wells.plasma_frequency[0])
    # Independent chain: FD curvature at the reported minimum, then
    # omega_p = sqrt(U'' / (C * (Phi0 / 2 pi)^2)) / (2 pi) in Hz.
    curv = fd_curvature(float(wells.minimum_phase[0]), 0.0, DEVICE)
    scale = (PHI0 / (2.0 * math.pi)) ** 2 * DEVICE.shunt_capacitance
    want_hz = math.sqrt(curv / scale) / (2.0 * math.pi)
    assert omega / (2.0 * math.pi) == pytest.approx(want_hz, rel=1e-7)
    assert omega / (2.0 * math.pi) == pytest.approx(7.070874408383186e9, rel=1e-9)


def test_plasma_frequency_rejects_maxima():
    # At a potential maximum the curvature is negative and no real
    # oscillation frequency exists.
    _, _, _, roots, is_minimum = potential._sweep_extrema([0.5 * PHI0], DEVICE)
    maxima = roots[~is_minimum].tolist()
    assert maxima
    with pytest.raises(NumericalError):
        plasma_frequency(maxima[0], DEVICE)


def _device(beta: float) -> JpmParams:
    # The default loop with the critical current that gives this beta_L.
    return JpmParams(
        critical_current=beta * PHI0 / (2.0 * math.pi * 1.1e-9),
        loop_inductance=1.1e-9,
        shunt_capacitance=2e-12,
    )


@pytest.mark.parametrize(
    "p",
    [_device(0.5), _device(1.5), DEVICE, _device(13.0)],
    ids=["beta-0.5", "beta-1.5", "default", "beta-13"],
)
def test_find_extrema_against_dense_scan(p):
    rng = np.random.default_rng(2026)
    fluxes = [float(rng.uniform(0.0, 1.0)) * PHI0 for _ in range(60)]
    for flux, (got, _) in zip(fluxes, sweep_extrema(fluxes, p)):
        want = oracle_roots(flux, p)
        assert len(got) == len(want)
        for delta, ref in zip(got, want):
            assert abs(delta - ref) < 1e-9


def test_find_extrema_structure():
    rng = np.random.default_rng(99)
    fluxes = [float(rng.uniform(0.0, 1.0)) * PHI0 for _ in range(40)]
    for flux, (deltas, minima) in zip(fluxes, sweep_extrema(fluxes, DEVICE)):
        assert len(deltas) % 2 == 1
        assert deltas == sorted(deltas)
        # Minima and maxima alternate, starting and ending on a minimum.
        assert all(minima[::2]) and not any(minima[1::2])
        # Each reported extremum satisfies the dimensionless condition.
        beta = beta_L(DEVICE)
        phi_e = 2.0 * math.pi * flux / PHI0
        for d in deltas:
            assert abs(math.sin(d) - (phi_e - d) / beta) < 1e-10


def test_find_extrema_flux_parity():
    # Reflecting the bias about half a flux quantum mirrors the phase
    # axis: extrema map to 2 pi - delta with kinds preserved.
    rng = np.random.default_rng(5)
    quanta = [float(rng.uniform(0.0, 1.0)) for _ in range(25)]
    forward = sweep_extrema([q * PHI0 for q in quanta], DEVICE)
    reverse = sweep_extrema([(1.0 - q) * PHI0 for q in quanta], DEVICE)
    for (roots, minima), (roots_r, minima_r) in zip(forward, reverse):
        assert len(roots) == len(roots_r)
        for d, dr in zip(roots, reversed(roots_r)):
            assert 2.0 * math.pi - dr == pytest.approx(d, abs=1e-9)
        assert minima == minima_r[::-1]


def test_well_report_half_flux():
    # At half a flux quantum the double well is symmetric.
    flux = 0.5 * PHI0
    wells = well_report_sweep([flux], DEVICE)
    assert wells.minimum_phase.size == 2
    assert wells.well_label.tolist() == ["left", "right"]
    assert (wells.well_count == 2).all()
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
    [(roots, _)] = sweep_extrema([flux], DEVICE)
    assert len(roots) == 3
    d_min, d_max = roots[:2]
    want = oracle_potential(d_max, flux, DEVICE) - oracle_potential(d_min, flux, DEVICE)
    assert height[0] == pytest.approx(want, rel=1e-10)
    # Level count = barrier height over one plasma quantum.
    assert levels[0] == pytest.approx(want / (HBAR * omega[0]), rel=1e-9)
    assert levels[0] == pytest.approx(69.91, abs=0.01)


def test_well_report_single_well_unbounded():
    wells = well_report_sweep([0.0], DEVICE)
    assert wells.minimum_phase.size == 1
    assert wells.well_label[0] == "global"
    assert wells.well_count[0] == 1
    assert math.isnan(wells.barrier_phase[0])
    assert math.isinf(wells.barrier_height[0])
    assert math.isinf(wells.level_count[0])


def test_well_report_escape_barrier_is_lowest_side():
    # In the asymmetric double-well regime the escape barrier is the
    # lower of the two adjacent maxima when both exist; with a single
    # maximum it is that maximum.
    flux = 0.55 * PHI0
    _, _, _, roots, is_minimum = potential._sweep_extrema([flux], DEVICE)
    minima, maxima = roots[is_minimum].tolist(), roots[~is_minimum].tolist()
    assert len(minima) == 2 and len(maxima) == 1
    wells = well_report_sweep([flux], DEVICE)
    u_barrier = oracle_potential(maxima[0], flux, DEVICE)
    u_min = oracle_potential(minima[0], flux, DEVICE)
    assert wells.barrier_phase[0] == pytest.approx(maxima[0], abs=1e-9)
    assert wells.barrier_height[0] == pytest.approx(u_barrier - u_min, rel=1e-10)


@pytest.mark.parametrize("current", [3e-6, 5e-6, 30e-6])
def test_symmetric_well_keeps_its_left_barrier(current):
    # At an integer flux the landscape is symmetric about the minimum at
    # delta = phi_e, so its two adjacent maxima are equally high up to the
    # rounding of their energies.  That tie keeps the left maximum at every
    # such flux, whichever way the last bits fall; at 3 uA some right
    # maxima come out lower in float64, which a strict comparison picked.
    p = JpmParams(critical_current=current, loop_inductance=DEVICE.loop_inductance,
                  shunt_capacitance=DEVICE.shunt_capacitance)
    fluxes = np.arange(-3, 4) * PHI0
    wells = well_report_sweep(fluxes, p)
    right_lower = 0
    for index, (flux, (phases, minima)) in enumerate(zip(fluxes, sweep_extrema(fluxes, p))):
        k = int(np.argmin(np.abs(np.array(phases) - 2.0 * math.pi * flux / PHI0)))
        assert minima[k] and 0 < k < len(phases) - 1
        left, centre, right = energy(np.array(phases[k - 1:k + 2]), flux, p)
        assert right - centre == pytest.approx(left - centre, rel=1e-14)
        right_lower += right - centre < left - centre
        well = np.flatnonzero((wells.flux_index == index) & (wells.minimum_phase == phases[k]))
        assert well.size == 1
        assert wells.barrier_phase[well[0]] == phases[k - 1]
        assert wells.barrier_height[well[0]] == left - centre
    if current == 3e-6:
        assert right_lower > 0


def test_critical_flux_values():
    crit = critical_flux(DEVICE)
    assert len(crit) == 2
    quanta = [f / PHI0 for f in crit]
    assert quanta[0] == pytest.approx(0.1940512338566182, abs=1e-12)
    assert quanta[1] == pytest.approx(0.8059487661433817, abs=1e-12)
    # Tangency condition, checked independently: at the critical bias a
    # root of the extremum equation has cos(delta) = -1/beta_L.
    beta = beta_L(DEVICE)
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
    for f in critical_flux(DEVICE):
        _, flux_of, _, _, is_minimum = potential._sweep_extrema([f - eps, f + eps], DEVICE)
        below, above = np.bincount(flux_of[is_minimum], minlength=2).tolist()
        assert abs(below - above) == 1


def test_critical_flux_empty_for_monostable_device():
    # beta_L <= 1 keeps the potential monostable at every bias.
    p = JpmParams(critical_current=1e-7, loop_inductance=1.1e-9, shunt_capacitance=2e-12)
    assert 2.0 * math.pi * p.loop_inductance * p.critical_current / PHI0 < 1.0
    assert critical_flux(p) == []
    _, flux_of, _, _, is_minimum = potential._sweep_extrema([q * PHI0 for q in (0.0, 0.3, 0.5, 0.8)], p)
    assert np.bincount(flux_of[is_minimum], minlength=4).tolist() == [1, 1, 1, 1]


@pytest.mark.parametrize("beta", [1.5, beta_L(DEVICE), 13.0, 40.0], ids=["1.5", "default", "13", "40"])
def test_bifurcation_counts_match_dense_scan(tmp_path, beta):
    # bifurcation's minima below and above each critical flux against the
    # dense-scan oracle 1e-4 Phi0 to either side, where its roots alternate
    # from a minimum: (count + 1) / 2 minima.  The counts do not read the
    # shunt capacitance, so a 1e308 F shunt, whose plasma quantum
    # underflows, writes the same artifact.
    p = _device(beta)
    artifacts = []
    for extra in ((), ("device.shunt_capacitance=1e308F",)):
        out = tmp_path / str(len(artifacts))
        overrides = (f"device.critical_current={p.critical_current!r}A", *extra)
        code, paths = run_subcommand("bifurcation", overrides=overrides, output_dir=str(out))
        assert code == 0 and len(paths) == 1
        artifacts.append(paths[0].read_bytes())
    assert artifacts[0] == artifacts[1]
    with open(paths[0], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(critical_flux(p)) >= 2
    eps = 1e-4 * PHI0
    for row in rows:
        flux = float(row["critical_flux (phi0)"]) * PHI0
        below, above = ((len(oracle_roots(flux + side, p)) + 1) // 2 for side in (-eps, eps))
        assert (int(row["minima_below (1)"]), int(row["minima_above (1)"])) == (below, above)


def test_inconsistent_extremum_structure_is_refused(monkeypatch, tmp_path, capsys):
    # Two adjacent minima at one flux are refused, never reported: exit 3
    # with one line listing that flux's extrema, and no artifact.
    def two_minima(phi_e, beta, turn, reach):
        return np.zeros(3, dtype=np.int64), np.array([0.0, 0.5, 3.0])

    monkeypatch.setattr(potential, "_block_roots", two_minima)
    code, paths = run_subcommand("potential-sweep", output_dir=str(tmp_path / "out"))
    assert (code, paths) == (3, [])
    assert capsys.readouterr().err == (
        "numerical error: inconsistent extremum structure at flux 0.0 Phi0:"
        " [(0.0, 'minimum'), (0.5, 'minimum'), (3.0, 'maximum')]\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_scan_size_limit():
    # The bracket spans 2 beta_L + 2 radians and the residual turns twice
    # every 2 pi; past MAX_SEGMENTS segments both solvers refuse before
    # doing the work.  A 50 mA junction (beta_L about 1.67e5) is just past
    # the limit.
    big = JpmParams(critical_current=50e-3, loop_inductance=1.1e-9, shunt_capacitance=2e-12)
    assert (2.0 * beta_L(big) + 2.0) / math.pi > MAX_SEGMENTS
    with pytest.raises(NumericalError, match="segments"):
        potential._sweep_extrema([0.3 * PHI0], big)
    huge = JpmParams(critical_current=1e300, loop_inductance=1.1e-9, shunt_capacitance=2e-12)
    with pytest.raises(NumericalError, match="segments"):
        critical_flux(huge)


def test_near_tangency_pair_is_resolved():
    # Just inside a critical flux the new minimum/maximum pair is close
    # together; both roots must still be reported.
    crit = critical_flux(DEVICE)[1]
    for offset in (1e-5, 1e-6, 1e-7):
        flux = crit * (1.0 - offset)
        [(got, _)] = sweep_extrema([flux], DEVICE)
        want = oracle_roots(flux, DEVICE, step=1e-6)
        assert len(got) == len(want)
        for delta, ref in zip(got, want):
            assert abs(delta - ref) < 1e-9


def _reference_brackets(flux_wb: float, p: JpmParams):
    # One flux in plain Python: the bracket cut at each turning point
    # 2 pi k -/+ acos(-1/beta_L) of the residual that lies inside it, and a
    # sign test per segment.  Returns beta_L, the residual and a
    # [lower end, upper end, residual at the lower end] list per crossing
    # segment, every one less than 2 pi wide.
    beta = 2.0 * math.pi * p.loop_inductance * p.critical_current / PHI0
    phi_e = 2.0 * math.pi * flux_wb / PHI0
    lo, hi = phi_e - beta - 1.0, phi_e + beta + 1.0

    def g(delta):
        return float(np.sin(delta) - (phi_e - delta) / beta)

    ends = [lo]
    if beta > 1.0:
        turn = math.acos(-1.0 / beta)
        for k in range(math.floor((lo - turn) / (2.0 * math.pi)), math.ceil((hi + turn) / (2.0 * math.pi)) + 1):
            ends += [t for t in (2.0 * math.pi * k - turn, 2.0 * math.pi * k + turn) if lo < t < hi]
    ends.append(hi)
    brackets = [[a, b, g(a)] for a, b in zip(ends, ends[1:]) if g(a) * g(b) != 0.0 and (g(a) < 0.0) != (g(b) < 0.0)]
    return beta, g, brackets


def _with_minima(roots, beta: float):
    # (roots, which are minima), as sweep_extrema gives each flux.
    return roots, [math.cos(r) + 1.0 / beta > 0.0 for r in roots]


def reference_segments(flux_wb: float, p: JpmParams, tol: float = 1e-12):
    # The previous sweep solver, the slow path: the same segments, each
    # halved ceil(log2(2 pi / tol)) times.  Its roots share the sweep's
    # count and kinds, but not its bits.
    beta, g, brackets = _reference_brackets(flux_wb, p)
    for _ in range(math.ceil(math.log2(2.0 * math.pi / tol))):
        for bracket in brackets:
            m = 0.5 * (bracket[0] + bracket[1])
            g_m = g(m)
            if bracket[2] * g_m <= 0.0:
                bracket[1] = m
            else:
                bracket[0], bracket[2] = m, g_m
    return _with_minima([0.5 * (a + b) for a, b, _ in brackets], beta)


def reference_rtsafe(flux_wb: float, p: JpmParams, tol: float = 1e-12, passes: list | None = None):
    # The sweep's bit-for-bit reference: the same segments, and one root at
    # a time in plain Python floats, bracketed Newton from each segment's
    # midpoint with the sweep's step tests and stop rules.  Appends each
    # root's pass count to passes if given.
    beta, g, brackets = _reference_brackets(flux_wb, p)
    roots = []
    for lo, hi, g_lo in brackets:
        x, last = 0.5 * (lo + hi), hi - lo
        for count in range(1, potential.MAX_REFINE_PASSES + 1):
            f = g(x)
            if g_lo * f <= 0.0:
                hi = x
            else:
                lo = x
            slope = float(np.cos(x)) + 1.0 / beta
            # numpy's f / 0 is inf or NaN: either fails every test below.
            step = f / slope if slope != 0.0 else math.nan
            newton, size, mid = x - step, abs(step), 0.5 * (lo + hi)
            close = size <= 0.25 * tol or newton == x
            if lo < newton < hi and size <= 0.5 * last:
                x, last = newton, size
            else:
                x, last = mid, 0.5 * (hi - lo)
            if close or hi - lo <= tol or mid in (lo, hi):
                roots.append(min(max(newton, lo), hi) if close else x)
                break
        else:
            raise AssertionError(f"no convergence in {potential.MAX_REFINE_PASSES} passes")
        if passes is not None:
            passes.append(count)
    return _with_minima(roots, beta)


def reference_extrema(flux_wb: float, p: JpmParams, scan_step: float = math.pi / 100, tol: float = 1e-12):
    # The previous solver: one scan grid, a vectorized bisection over the
    # crossing cells, a scalar slope bisection for each same-sign cell in
    # which the slope changes sign, and a pair bisection where that cell
    # hides two roots.  It brackets each root differently from the sweep,
    # so the two agree within the tolerance, not bit for bit.
    beta = 2.0 * math.pi * p.loop_inductance * p.critical_current / PHI0
    phi_e = 2.0 * math.pi * flux_wb / PHI0
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
    return _with_minima(kept, beta)


def reference_wells(flux_wb: float, p: JpmParams):
    # Per-minimum (phase, barrier phase or None, height, omega_p, levels,
    # label) from reference_rtsafe, one minimum at a time.
    roots, is_minimum = reference_rtsafe(flux_wb, p)
    minima = [i for i, minimum in enumerate(is_minimum) if minimum]
    e_j = p.critical_current * PHI0 / (2.0 * math.pi)
    quad = (PHI0 / (2.0 * math.pi)) ** 2 / p.loop_inductance
    wells = []
    for pos, i in enumerate(minima):
        delta = roots[i]
        barrier, height = None, math.inf
        for j in (i - 1, i + 1):
            if 0 <= j < len(roots):
                h = oracle_potential(roots[j], flux_wb, p) - oracle_potential(delta, flux_wb, p)
                if h < height:
                    barrier, height = roots[j], h
        omega = (2.0 * math.pi / PHI0) * math.sqrt((e_j * math.cos(delta) + quad) / p.shunt_capacitance)
        levels = height / (HBAR * omega) if barrier is not None else math.inf
        if len(minima) == 1:
            label = "global"
        else:
            label = "left" if pos == 0 else "right" if pos == len(minima) - 1 else "interior"
        wells.append((delta, barrier, height, omega, levels, label))
    return wells


def assert_near_previous_solver(fluxes, got, p: JpmParams, tol: float = 1e-12):
    # Against reference_extrema: the same kinds at every flux at least
    # 1e-15 Phi0 from a tangency (nearer, both solvers decide on a residual
    # of about 1e-16), and roots within 2 tol at least 1e-6 Phi0 from one,
    # within 1e-8 rad nearer, where the residual is flat.  Tangencies
    # repeat every Phi0.
    for flux, (roots, minima) in zip(fluxes, got):
        gap = _tangency_gap(float(flux), p)
        if gap < 1e-15:
            continue
        want, want_minima = reference_extrema(float(flux), p, tol=tol)
        assert minima == want_minima
        bound = 2.0 * tol if gap >= 1e-6 else 1e-8
        assert all(abs(d - w) <= bound for d, w in zip(roots, want))


def _tangency_gap(flux_wb: float, p: JpmParams) -> float:
    # Distance in Phi0 to the nearest tangency; they repeat every Phi0.
    return min((abs((flux_wb - c) / PHI0 - round((flux_wb - c) / PHI0)) for c in critical_flux(p)), default=math.inf)


def assert_near_bisection(fluxes, got, p: JpmParams, tol: float = 1e-12):
    # Against reference_segments, the bisection over the same segments:
    # the same count and kinds at every flux, and roots within 2 tol at
    # least 1e-6 Phi0 from a tangency.  Nearer, the residual is flat and
    # each solver stops where its rounding leaves it: within 1e-8 rad, and
    # within 1e-7 rad closer than 1e-15 Phi0.
    for flux, (roots, minima) in zip(fluxes, got):
        want, want_minima = reference_segments(float(flux), p, tol=tol)
        assert minima == want_minima
        gap = _tangency_gap(float(flux), p)
        bound = 2.0 * tol if gap >= 1e-6 else 1e-8 if gap >= 1e-15 else 1e-7
        assert all(abs(d - w) <= bound for d, w in zip(roots, want))


def _one_flux_extrema(fluxes, p: JpmParams):
    # A one-flux sweep for each flux in turn.
    return [extrema for f in fluxes for extrema in sweep_extrema([float(f)], p)]


def _well_rows(wells):
    # One tuple per well.  An unbounded well's NaN barrier phase reads
    # None, so that rows compare with ==.
    barrier = [b if count > 1 else None for b, count in zip(wells.barrier_phase.tolist(), wells.well_count.tolist())]
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
        )
    )


def _alternates(extrema) -> bool:
    _, minima = extrema
    return len(minima) % 2 == 1 and all(a != b for a, b in zip(minima, minima[1:]))


def test_sweep_equals_per_flux_calls_across_blocks(monkeypatch):
    # Several blocks, a length that is no multiple of the fluxes per
    # block, a window across both tangencies, and fluxes close enough to
    # a tangency that the new root pair lies within 1e-3 rad: the sweep
    # must give the bits of a one-flux sweep of each flux.  The solver
    # reads SWEEP_BLOCK_SEGMENTS when called, so a smaller block keeps the
    # per-flux references here to a few hundred fluxes.
    p = DEVICE
    monkeypatch.setattr(potential, "SWEEP_BLOCK_SEGMENTS", 1000)
    blocks = []
    solve_block = potential._block_roots
    monkeypatch.setattr(potential, "_block_roots", lambda phi_e, *args: blocks.append(phi_e.size) or solve_block(phi_e, *args))
    crit = critical_flux(p)
    near = [f * (1.0 + sign * d) for f in crit for sign in (-1.0, 1.0) for d in (1e-5, 1e-6, 1e-7)]
    fluxes = np.concatenate([np.linspace(0.15, 0.85, 295) * PHI0, near])

    got = sweep_extrema(fluxes, p)
    assert len(blocks) > 2 and blocks[-1] < blocks[0]
    assert got == _one_flux_extrema(fluxes, p)
    assert got == [reference_rtsafe(float(f), p) for f in fluxes]
    assert_near_bisection(fluxes, got, p)
    assert_near_previous_solver(fluxes, got, p)

    got = _well_rows(well_report_sweep(fluxes, p))
    want = [
        (i, *row[1:])
        for i, f in enumerate(fluxes)
        for row in _well_rows(well_report_sweep([float(f)], p))
    ]
    assert got == want
    assert [row[2:8] for row in got] == [well for f in fluxes for well in reference_wells(float(f), p)]


def test_sweep_keeps_per_flux_stopping_rule(monkeypatch):
    # With a coarse REFINE_TOL, a power-of-two fraction of the width
    # 2 acos(-1/beta_L) between the two turning points around a maximum
    # of the residual, the roots of one flux stop after different numbers
    # of passes.  Each stops on its own rule, so its bits are those of the
    # scalar reference at that tolerance, and it lies within 2 tol of the
    # bisection's.  No flux lies within 1e-6 Phi0 of a tangency.
    p = DEVICE
    width = 2.0 * math.acos(-1.0 / beta_L(p))
    fluxes = np.linspace(0.05, 0.95, 40) * PHI0
    assert min(abs(f - c) for f in fluxes for c in critical_flux(p)) > 1e-6 * PHI0
    for halvings in (16, 20, 24, 28):
        # The solver reads REFINE_TOL when called, not as a default.
        tol = width / 2**halvings
        monkeypatch.setattr(potential, "REFINE_TOL", tol)
        got = sweep_extrema(fluxes, p)
        passes = [[] for _ in fluxes]
        assert got == [reference_rtsafe(float(f), p, tol=tol, passes=n) for f, n in zip(fluxes, passes)]
        assert any(len(set(n)) > 1 for n in passes)
        assert_near_bisection(fluxes, got, p, tol=tol)
        assert_near_previous_solver(fluxes, got, p, tol=tol)


def test_sweep_takes_no_tolerance():
    # The refinement tolerance is the module constant REFINE_TOL.
    for solve in (potential._sweep_extrema, well_report_sweep):
        with pytest.raises(TypeError):
            solve([0.3 * PHI0], DEVICE, tol=1e-6)


@pytest.mark.parametrize(
    "fluxes, error, match",
    [
        ([[0.1 * PHI0, 0.2 * PHI0]], ValueError, "one-dimensional"),
        # A flux that is not finite, or finite in webers with 2 pi flux / Phi0
        # past float64, puts the bracket end |phi_e| + beta_L + 1 past 2^30.
        ([0.1 * PHI0, math.inf], NumericalError, r"reaches inf rad, past 2\^30"),
        ([0.1 * PHI0, 1e308], NumericalError, r"reaches inf rad, past 2\^30"),
    ],
    ids=["2-d", "non-finite", "phase-bias-overflow"],
)
def test_sweep_refuses_bad_fluxes(fluxes, error, match):
    for solve in (potential._sweep_extrema, well_report_sweep):
        with pytest.raises(error, match=match) as info:
            solve(fluxes, DEVICE)
        assert error is ValueError or info.value.params == ("fluxes",)


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
    got = sweep_extrema(fluxes, p)
    assert got == _one_flux_extrema(fluxes, p)
    assert got == [reference_rtsafe(float(f), p) for f in fluxes]
    assert all(_alternates(extrema) for extrema in got)
    assert_near_bisection(fluxes, got, p)
    assert_near_previous_solver(fluxes, got, p)


def test_sweep_memory_is_bounded():
    # The sweep is solved in blocks of about SWEEP_BLOCK_SEGMENTS
    # segments, so its working set beyond the arrays it returns stays near
    # one block's whatever the sweep length.  At 20,000 fluxes and beta_L
    # 13 that is about 3 MB; one block for the whole sweep
    # (SWEEP_BLOCK_SEGMENTS = 10**12) takes about 21 MB.
    p = _device(13.0)
    fluxes = np.linspace(0.0, 1.0, 20_000) * PHI0
    tracemalloc.start()
    try:
        result = potential._sweep_extrema(fluxes, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _, flux_of, offsets, roots, _ = result
    assert offsets[-1] == roots.size and (np.diff(offsets) >= 1).all()
    assert np.array_equal(flux_of, np.repeat(np.arange(fluxes.size), np.diff(offsets)))
    assert peak - sum(array.nbytes for array in result) < 10e6


def _block_passes(monkeypatch, fluxes, p: JpmParams):
    # Sweeps fluxes and returns, per block, the number of roots still
    # refining at each pass, and the cut segment ends of each block.  The
    # first residual pass of a block is over every segment end (2-d); each
    # refinement pass after it is over the roots not yet done (1-d).
    calls = []
    residual = potential._residual
    monkeypatch.setattr(potential, "_residual", lambda x, *args: calls.append(np.array(x)) or residual(x, *args))
    potential._sweep_extrema(fluxes, p)
    blocks, ends = [], []
    for x in calls:
        if x.ndim == 2:
            ends.append(x)
            blocks.append([])
        else:
            blocks[-1].append(x.size)
    return blocks, ends


@pytest.mark.parametrize(
    "beta",
    [0.5, 1.0, 1.0 + 1e-12, 1.5, beta_L(DEVICE), 13.0, 1e3, 1e4],
    ids=["0.5", "1", "1+1e-12", "1.5", "default", "13", "1e3", "1e4"],
)
def test_every_segment_is_narrower_than_two_pi(monkeypatch, beta):
    # The bisection fallback brings a bracket within REFINE_TOL in
    # ceil(log2(2 pi / REFINE_TOL)) = 43 halvings only if no segment is
    # 2 pi wide or more.  Bracketed Newton takes at least one pass and,
    # here, never more than those 43: beta_L 1 at Phi0 / 2, a triple root,
    # takes the most (27).
    p = _device(beta)
    blocks, ends = _block_passes(monkeypatch, np.linspace(0.0, 1.0, 9) * PHI0, p)
    assert max(float(np.diff(x, axis=1).max()) for x in ends) < 2.0 * math.pi
    assert all(1 <= len(sizes) <= math.ceil(math.log2(2.0 * math.pi / potential.REFINE_TOL)) for sizes in blocks)


@pytest.mark.parametrize("beta", [1.5, beta_L(DEVICE), 13.0], ids=["1.5", "default", "13"])
def test_passes_are_few_across_tangencies(monkeypatch, beta):
    # 1200-flux sweeps over one Phi0 and over windows 0.05-0.3 Phi0 wide
    # across each tangency, where a new root pair lies close to a cut and
    # Newton falls back on bisection.  Measured: at most 13 passes a root
    # and 4.3-5.8 on average, against 43 halvings of the bisection.
    p = _device(beta)
    sweeps = [np.linspace(0.0, 1.0, 1200)]
    for c in critical_flux(p):
        sweeps += [np.linspace(c / PHI0 - 0.4 * w, c / PHI0 + 0.6 * w, 1200) for w in (0.05, 0.1, 0.3)]
    for quanta in sweeps:
        blocks, _ = _block_passes(monkeypatch, quanta * PHI0, p)
        assert max(len(sizes) for sizes in blocks) <= 16
        # sizes[k] roots take more than k passes, so the sum over passes
        # is the total pass count of the block's roots.
        assert sum(sum(sizes) for sizes in blocks) <= 7 * sum(sizes[0] for sizes in blocks)


def test_float_spacing_stop_at_huge_beta_l(monkeypatch):
    # A 20 mA junction, beta_L about 6.7e4: past |delta| ~ 8e3 the float
    # spacing exceeds REFINE_TOL, so those roots stop on a Newton step too
    # small to move the iterate or on a bracket with no float inside.
    p = JpmParams(critical_current=20e-3, loop_inductance=1.1e-9, shunt_capacitance=2e-12)
    beta = beta_L(p)
    assert 6e4 < beta < 7e4
    flux = 0.3 * PHI0
    blocks, _ = _block_passes(monkeypatch, [flux], p)
    assert len(blocks) == 1 and max(len(sizes) for sizes in blocks) <= 16
    [extrema] = sweep_extrema([flux], p)
    assert _alternates(extrema)
    roots, _ = extrema
    assert abs(len(roots) - 2.0 * beta / math.pi) < 3.0
    phi_e = 2.0 * math.pi * flux / PHI0
    assert max(abs(math.sin(d) - (phi_e - d) / beta) for d in roots) < 1e-9


def test_zero_slope_newton_step_warns_nothing():
    # At beta_L = 1 and Phi0 / 2 the one segment's midpoint is pi, where the
    # slope cos(delta) + 1/beta_L is exactly 0, and the residual a rounding
    # 1.2e-16: the Newton step is inf.  It must bisect without a numpy
    # warning (the suite also turns warnings into errors).
    p = _device(1.0)
    assert beta_L(p) == 1.0
    phi_e = potential._phase_bias(0.5 * PHI0)
    mid = 0.5 * ((phi_e - 2.0) + (phi_e + 2.0))
    assert np.cos(mid) + 1.0 == 0.0 and potential._residual(mid, phi_e, 1.0) != 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [extrema] = sweep_extrema([0.5 * PHI0], p)
    # A triple root: the residual's rounding fixes it only to about 1e-5.
    roots, _ = extrema
    assert len(roots) == 1 and abs(roots[0] - math.pi) < 1e-4
    assert extrema == reference_rtsafe(0.5 * PHI0, p)


def test_unconverged_root_is_refused(monkeypatch):
    # A root still refining after MAX_REFINE_PASSES (read when called) is
    # refused, never returned.  At the default device most roots take 4-7.
    monkeypatch.setattr(potential, "MAX_REFINE_PASSES", 3)
    for solve in (potential._sweep_extrema, well_report_sweep):
        with pytest.raises(NumericalError, match="did not converge in 3 passes"):
            solve(np.linspace(0.0, 1.0, 50) * PHI0, DEVICE)


def test_large_beta_l_converges():
    # At beta_L ~ 1e4 the float spacing near |delta| ~ 1e4 exceeds
    # REFINE_TOL; a bracket whose midpoint equals one of its ends has
    # converged all the same.
    p = JpmParams(critical_current=3e-3, loop_inductance=1.1e-9, shunt_capacitance=2e-12)
    beta = beta_L(p)
    assert 9e3 < beta < 1.1e4
    flux = 0.3 * PHI0
    [extrema] = sweep_extrema([flux], p)
    assert _alternates(extrema)
    roots, _ = extrema
    # Two extrema per 2 pi of the 2 beta_L + 2 wide bracket.
    assert abs(len(roots) - 2.0 * beta / math.pi) < 3.0
    phi_e = 2.0 * math.pi * flux / PHI0
    assert max(abs(math.sin(d) - (phi_e - d) / beta) for d in roots) < 1e-9


def test_flux_quantum_is_the_module_constant():
    # Phi0 is neither a field nor a constructor argument, so every
    # conversion (phase bias, the config's phi0 unit, the sweep's flux
    # column) uses the one PHI0.
    assert [field.name for field in dataclasses.fields(JpmParams)] == [
        "critical_current", "loop_inductance", "shunt_capacitance"
    ]
    with pytest.raises(TypeError):
        JpmParams(1e-6, 1.1e-9, 2e-12, 2.0 * PHI0)
    assert RunConfig.from_sources(overrides=("potential.flux_stop=1phi0",)).get("potential.flux_stop") == PHI0


def test_params_validation():
    with pytest.raises(ValueError):
        JpmParams(critical_current=-1e-6, loop_inductance=1.1e-9, shunt_capacitance=2e-12)
    with pytest.raises(ValueError):
        JpmParams(critical_current=1e-6, loop_inductance=0.0, shunt_capacitance=2e-12)
