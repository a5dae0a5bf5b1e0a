"""Tests for the post-pulse tomography module.

The closed-form occupation surface is validated against an independent
2x2 matrix-product oracle: build the rotation operator entry by entry,
conjugate the density matrix, and read off the excited population.
Fit tests are noiseless and noisy round trips against known synthesis
parameters.
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np
import pytest

from jpmsim import tomography
from jpmsim.errors import IdentifiabilityError, NumericalError
from jpmsim.tomography import (
    DensityMatrix2,
    TomogramGrid,
    expected_occupation,
    fit_tomogram,
    overlap_fidelity,
    synthesize_tomogram,
)

# Matrix convention: [[1 - beta, r e^{i phi}], [r e^{-i phi}, beta]]
# with beta the excited population.
RHO_PREPARED = DensityMatrix2(excited_population=0.09, coherence_magnitude=0.02)
RHO_DECAYED = DensityMatrix2(excited_population=0.69, coherence_magnitude=0.01)


def oracle_occupation(rho: DensityMatrix2, theta: float, t: float, t_pi: float) -> float:
    # Direct matrix conjugation: R = cos(A) 1 + i sin(A) (cos(theta) X +
    # sin(theta) Y) with A = pi t / (2 t_pi); P = <1| R rho R^dag |1>.
    a = 0.5 * math.pi * t / t_pi
    axis = math.cos(theta) * np.array([[0, 1], [1, 0]], dtype=complex) + math.sin(
        theta
    ) * np.array([[0, -1j], [1j, 0]], dtype=complex)
    r = math.cos(a) * np.eye(2, dtype=complex) + 1j * math.sin(a) * axis
    beta = rho.excited_population
    coh = rho.coherence_magnitude * np.exp(1j * rho.coherence_phase)
    rho_m = np.array([[1.0 - beta, coh], [np.conj(coh), beta]], dtype=complex)
    rotated = r @ rho_m @ r.conj().T
    return float(rotated[1, 1].real)


def random_rho(rng: np.random.Generator, r_floor: float = 0.0) -> DensityMatrix2:
    beta = float(rng.uniform(0.05, 0.95))
    bound = math.sqrt(beta * (1.0 - beta))
    r = float(rng.uniform(r_floor, 0.95)) * bound
    phi = float(rng.uniform(-math.pi, math.pi))
    return DensityMatrix2(beta, r, phi)


def standard_grid(t_pi: float, n_theta: int = 8, n_t: int = 33) -> tuple[np.ndarray, np.ndarray]:
    thetas = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    times = np.linspace(0.0, 2.0 * t_pi, n_t)
    return thetas, times


def test_occupation_matches_matrix_oracle():
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(10_000):
        rho = random_rho(rng)
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        t_pi = float(rng.uniform(10e-9, 100e-9))
        t = float(rng.uniform(0.0, 4.0 * t_pi))
        got = float(expected_occupation(rho, theta, t, t_pi))
        want = oracle_occupation(rho, theta, t, t_pi)
        worst = max(worst, abs(got - want))
    assert worst < 1e-12


def test_occupation_named_points():
    t_pi = 50e-9
    excited = DensityMatrix2(1.0)
    ground = DensityMatrix2(0.0)
    # No pulse reads the populations straight off.
    assert float(expected_occupation(excited, 0.0, 0.0, t_pi)) == pytest.approx(1.0, abs=1e-15)
    # A pi pulse swaps ground and excited.
    assert float(expected_occupation(ground, 0.0, t_pi, t_pi)) == pytest.approx(1.0, abs=1e-12)
    assert float(expected_occupation(excited, 0.0, t_pi, t_pi)) == pytest.approx(0.0, abs=1e-12)
    # Half pulse on the ground state gives 1/2 for any axis.
    for theta in (0.0, 1.0, 4.0):
        assert float(expected_occupation(ground, theta, t_pi / 2.0, t_pi)) == pytest.approx(
            0.5, abs=1e-12
        )


def test_occupation_aligned_axis_is_flat():
    # Rotating about the axis the Bloch vector points along leaves the
    # state invariant: equatorial state, axis along it.
    rho = DensityMatrix2(0.5, 0.5, -0.5 * math.pi)
    t_pi = 50e-9
    times = np.linspace(0.0, 4.0 * t_pi, 41)
    vals = expected_occupation(rho, -0.5 * math.pi, times, t_pi)
    assert np.max(np.abs(vals - 0.5)) < 1e-12


def test_occupation_periodicity_and_phase_coupling():
    rng = np.random.default_rng(4)
    t_pi = 42e-9
    for _ in range(50):
        rho = random_rho(rng)
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        t = float(rng.uniform(0.0, 2.0 * t_pi))
        base = float(expected_occupation(rho, theta, t, t_pi))
        # Full 2 pi rotation: period 2 t_pi in pulse duration.
        assert float(expected_occupation(rho, theta, t + 2.0 * t_pi, t_pi)) == pytest.approx(
            base, abs=1e-12
        )
        # Axis angle and coherence phase enter only through their sum.
        shift = float(rng.uniform(-2.0, 2.0))
        shifted = DensityMatrix2(
            rho.excited_population, rho.coherence_magnitude, rho.coherence_phase - shift
        )
        assert float(expected_occupation(shifted, theta + shift, t, t_pi)) == pytest.approx(
            base, abs=1e-12
        )


def test_density_matrix_round_trip():
    rho = DensityMatrix2(0.3, 0.25, 1.1)
    m = rho.matrix()
    assert m.shape == (2, 2)
    assert m[1, 1].real == pytest.approx(0.3, rel=1e-15)


def test_density_matrix_positivity():
    with pytest.raises(ValueError):
        DensityMatrix2(1.2)
    with pytest.raises(ValueError):
        DensityMatrix2(0.5, 0.51)
    # The pure-state boundary itself is allowed.
    DensityMatrix2(0.5, 0.5)


def test_density_matrix_refuses_negative_r_and_non_finite_phase():
    with pytest.raises(ValueError, match="coherence_magnitude must be non-negative"):
        DensityMatrix2(0.5, -0.1)
    for phi in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="coherence_phase must be finite"):
            DensityMatrix2(0.5, 0.1, phi)


def test_synthesize_noiseless_matches_surface():
    thetas, times = standard_grid(50e-9)
    grid = synthesize_tomogram(RHO_PREPARED, 50e-9, thetas, times)
    assert grid.occupations.shape == (thetas.size, times.size)
    for i, th in enumerate(thetas):
        for j, t in enumerate(times):
            want = oracle_occupation(RHO_PREPARED, float(th), float(t), 50e-9)
            assert grid.occupations[i, j] == pytest.approx(want, abs=1e-12)


def test_synthesize_binomial_statistics():
    rho = DensityMatrix2(0.2, 0.3, 0.7)
    thetas, times = standard_grid(50e-9)
    n = 10_000
    grid = synthesize_tomogram(rho, 50e-9, thetas, times, n_shots=n, rng=np.random.default_rng(8))
    exact = np.array(
        [[oracle_occupation(rho, float(th), float(t), 50e-9) for t in times] for th in thetas]
    )
    dev = grid.occupations - exact
    # Binomial cell deviations: sigma <= 0.005 at n = 1e4.
    assert np.max(np.abs(dev)) < 5.0 * 0.005
    assert np.abs(dev.mean()) < 3.0 * 0.005 / math.sqrt(dev.size)


def test_synthesize_argument_validation():
    thetas, times = standard_grid(50e-9)
    with pytest.raises(ValueError):
        synthesize_tomogram(RHO_PREPARED, 50e-9, thetas, times, n_shots=100, noise_sigma=0.01)
    with pytest.raises(ValueError, match="noise_sigma"):
        synthesize_tomogram(RHO_PREPARED, 50e-9, thetas, times, noise_sigma=-0.05, rng=np.random.default_rng(1))
    # Either noise draws from a generator it must be given.
    with pytest.raises(ValueError, match="binomial noise requires an rng"):
        synthesize_tomogram(RHO_PREPARED, 50e-9, thetas, times, n_shots=100)
    with pytest.raises(ValueError, match="Gaussian noise requires an rng"):
        synthesize_tomogram(RHO_PREPARED, 50e-9, thetas, times, noise_sigma=0.01)


def test_saturated_gaussian_noise_clips_without_a_warning():
    # At noise_sigma = 1e308 sigma times a deviate beyond 1.8 overflows
    # float64.  Each cell saturates at the clip, 1 for a positive deviate
    # and 0 for a negative one, with no overflow warning (an error under
    # this suite's filterwarnings).
    thetas, times = standard_grid(50e-9)
    grid = synthesize_tomogram(RHO_PREPARED, 50e-9, thetas, times, noise_sigma=1e308, rng=np.random.default_rng(3))
    deviates = np.random.default_rng(3).standard_normal(grid.occupations.shape)
    assert np.max(np.abs(deviates)) > 1.8
    assert np.array_equal(grid.occupations, (deviates > 0.0).astype(float))


def test_fit_noiseless_round_trip_named():
    for rho, phi in ((DensityMatrix2(0.09, 0.02, 0.0), 0.0), (DensityMatrix2(0.69, 0.01, 1.2), 1.2)):
        t_pi = 50e-9
        thetas, times = standard_grid(t_pi)
        grid = synthesize_tomogram(rho, t_pi, thetas, times)
        fit = fit_tomogram(grid)
        assert fit.rho.excited_population == pytest.approx(rho.excited_population, rel=1e-6)
        assert fit.rho.coherence_magnitude == pytest.approx(rho.coherence_magnitude, rel=1e-6)
        phase_err = (fit.rho.coherence_phase - phi + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(phase_err) < 1e-6
        assert fit.pi_duration == pytest.approx(t_pi, rel=1e-6)
        assert fit.residual_rms < 1e-9
        assert not fit.projected and not fit.phase_unidentifiable


def test_fit_noiseless_round_trip_random():
    rng = np.random.default_rng(23)
    for _ in range(20):
        rho = random_rho(rng, r_floor=0.02)
        t_pi = float(rng.uniform(20e-9, 80e-9))
        thetas, times = standard_grid(t_pi)
        grid = synthesize_tomogram(rho, t_pi, thetas, times)
        fit = fit_tomogram(grid)
        assert fit.rho.excited_population == pytest.approx(rho.excited_population, rel=1e-6)
        assert fit.rho.coherence_magnitude == pytest.approx(rho.coherence_magnitude, rel=1e-6)
        phase_err = (fit.rho.coherence_phase - rho.coherence_phase + math.pi) % (
            2.0 * math.pi
        ) - math.pi
        assert abs(phase_err) < 1e-6
        assert fit.pi_duration == pytest.approx(t_pi, rel=1e-6)


def test_fit_equatorial_round_trip():
    # At beta = 1/2 the theta-averaged trace is flat, so t_pi must come
    # from the coherence term r sin(alpha) sin(theta + phi).  The grid is
    # the tomo-synth default: 8 angles, 33 durations over 2.2 t_pi.
    t_pi = 50e-9
    thetas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    times = np.linspace(0.0, 2.2 * t_pi, 33)
    for r in (0.05, 0.2, 0.35, 0.5):
        for phi in (-2.5, -0.7, 0.0, 1.05, 3.0):
            grid = synthesize_tomogram(DensityMatrix2(0.5, r, phi), t_pi, thetas, times)
            fit = fit_tomogram(grid)
            assert fit.rho.excited_population == pytest.approx(0.5, rel=1e-6)
            assert fit.rho.coherence_magnitude == pytest.approx(r, rel=1e-6)
            phase_err = (fit.rho.coherence_phase - phi + math.pi) % (2.0 * math.pi) - math.pi
            assert abs(phase_err) < 1e-6 * max(abs(phi), 1.0)
            assert fit.pi_duration == pytest.approx(t_pi, rel=1e-6)
    # With r = 0 too the surface is flat and carries no t_pi at all.
    flat = synthesize_tomogram(DensityMatrix2(0.5), t_pi, thetas, times)
    with pytest.raises(IdentifiabilityError, match="full rotation period"):
        fit_tomogram(flat)


def test_fit_equatorial_noisy_finds_t_pi():
    t_pi = 50e-9
    thetas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    times = np.linspace(0.0, 2.2 * t_pi, 33)
    rng = np.random.default_rng(31)
    for _ in range(20):
        rho = DensityMatrix2(0.5, float(rng.uniform(0.25, 0.5)), float(rng.uniform(-math.pi, math.pi)))
        grid = synthesize_tomogram(rho, t_pi, thetas, times, noise_sigma=0.02, rng=rng)
        assert fit_tomogram(grid).pi_duration == pytest.approx(t_pi, rel=0.02)


@pytest.mark.parametrize("span", [2.8, 2.82, 2.85])
def test_fit_span_off_whole_periods_finds_t_pi(span):
    # Durations spanning about 2.8 t_pi put the true frequency between the
    # bins, 1/span apart, of an unpadded spectrum, whose peak once seeded
    # t_pi near 0.7 or 1.4 times its value.
    t_pi = 50e-9
    thetas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    times = np.linspace(0.0, span * t_pi, 33)
    rng = np.random.default_rng(2802)
    for _ in range(40):
        rho = random_rho(rng, r_floor=0.02)
        fit = fit_tomogram(synthesize_tomogram(rho, t_pi, thetas, times))
        assert fit.pi_duration == pytest.approx(t_pi, rel=1e-6)
        assert fit.rho.excited_population == pytest.approx(rho.excited_population, rel=1e-6)
        assert fit.rho.coherence_magnitude == pytest.approx(rho.coherence_magnitude, rel=1e-6)


@pytest.mark.parametrize("n_theta", [4, 5, 8, 12])
@pytest.mark.parametrize("steps", ["uniform", "jittered"])
def test_fit_refuses_flat_tomogram(n_theta, steps):
    # beta = 1/2 with r = 0 is the only state whose surface is constant;
    # it holds no t_pi, whatever the grid.
    t_pi = 50e-9
    thetas = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    rng = np.random.default_rng(n_theta)
    for n_t in (9, 17, 33, 65, 101):
        for span in (2.0, 2.5, 3.0, 3.5, 4.0):
            times = np.linspace(0.0, span * t_pi, n_t)
            if steps == "jittered":
                times[1:-1] += rng.uniform(-0.3, 0.3, n_t - 2) * (times[1] - times[0])
            flat = synthesize_tomogram(DensityMatrix2(0.5), t_pi, thetas, times)
            with pytest.raises(IdentifiabilityError, match="full rotation period"):
                fit_tomogram(flat)


def test_fit_with_binomial_noise_recovers_population():
    rho = DensityMatrix2(0.09, 0.02, 0.4)
    t_pi = 50e-9
    thetas, times = standard_grid(t_pi)
    # Span past one full period so the noisy fitted period cannot brush
    # the identifiability bound.
    times = np.linspace(0.0, 2.2 * t_pi, 34)
    errors = []
    for seed in range(100):
        grid = synthesize_tomogram(
            rho, t_pi, thetas, times, n_shots=10_000, rng=np.random.default_rng(seed)
        )
        fit = fit_tomogram(grid)
        errors.append(abs(fit.rho.excited_population - 0.09))
    errors = np.array(errors)
    # Dispersion check over 100 seeds: population recovered within 0.01.
    assert float(errors.max()) < 0.01
    assert float(np.median(errors)) < 0.002


@pytest.mark.parametrize(
    "n_t, t_pi, repeat", [(33, 50e-9, 0), (101, 1.8e-9, 0), (33, 50e-9, 3)], ids=["one-block", "two-blocks", "repeated"]
)
def test_scan_start_matches_a_direct_least_squares_scan(monkeypatch, n_t, t_pi, repeat):
    # The slow path: at each scanned f = k/(16 span), fit (beta - 1/2, a, b)
    # by lstsq on the full design matrix and take the residual sum of
    # squares.  Uneven angles and durations, Gaussian noise.  With 101
    # durations the scan runs in two blocks of k, and t_pi = 1.8 ns puts
    # the minimum (k = 711) in the second.  With repeat set, every
    # repeat-th duration and the span are measured twice, and 0 once more
    # as -0: the scan runs to k = 8 (M - 1) over the M distinct durations.
    rng = np.random.default_rng(2104)
    thetas = np.sort(rng.uniform(0.0, 2.0 * math.pi, 7))
    times = np.sort(np.r_[0.0, 160e-9, rng.uniform(0.0, 160e-9, n_t - 2)])
    if repeat:
        times = np.sort(np.r_[times, -0.0, times[::repeat], times[-1]])
    grid = synthesize_tomogram(DensityMatrix2(0.3, 0.2, 0.5), t_pi, thetas, times, noise_sigma=0.02, rng=rng)
    y = (grid.occupations - 0.5).ravel()
    best = None
    for k in range(2, 8 * (np.unique(times).size - 1) + 1):
        alpha = math.pi * times / (8.0 * 160e-9 / k)
        columns = np.broadcast_arrays(
            np.cos(alpha), -np.sin(alpha) * np.sin(thetas[:, None]), -np.sin(alpha) * np.cos(thetas[:, None])
        )
        design = np.stack(columns, axis=-1).reshape(-1, 3)
        x, *_ = np.linalg.lstsq(design, y, rcond=None)
        cost = float(np.sum((design @ x - y) ** 2))
        if best is None or cost < best[0]:
            best = (cost, k, x)
    _, k, (beta, a, b) = best
    want = [beta + 0.5, math.hypot(a, b), math.atan2(b, a), 8.0 * 160e-9 / k]
    # The scan's k as the fit runs it, to k = 8 (M - 1) over the M distinct
    # durations, and the solve that the scan and the polish share, at that k.
    scans = record_scans(monkeypatch)
    fit_tomogram(grid)
    ((_, turn, solve, k_max), k), = scans
    assert k_max == 8 * (np.unique(times).size - 1)
    (x0, a, b), = solve(np.cos([k * turn]), np.sin([k * turn]))[1]
    got = [x0 + 0.5, math.hypot(a, b), math.atan2(b, a), 8.0 * 160e-9 / k]
    np.testing.assert_allclose(got, want, rtol=1e-9)


def record_scans(monkeypatch):
    # Lets the fit's t_pi scan run and records each call as (arguments, k).
    scans, scan = [], tomography._scan_start

    def recorded(*args):
        scans.append((args, scan(*args)))
        return scans[-1][1]

    monkeypatch.setattr(tomography, "_scan_start", recorded)
    return scans


def test_fit_sets_up_its_projection_and_duration_count_once(monkeypatch):
    # The scan and the polish share one projection, and the scan's bound
    # k = 8 (M - 1) reuses the count of distinct durations that the fit
    # checks first.
    calls = {}
    for name in ("_projection", "_distinct_count"):
        def counted(*args, _name=name, _call=getattr(tomography, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _call(*args)

        monkeypatch.setattr(tomography, name, counted)
    thetas, times = standard_grid(50e-9)
    fit_tomogram(synthesize_tomogram(DensityMatrix2(0.3, 0.2, 0.5), 50e-9, thetas, times))
    assert calls == {"_projection": 1, "_distinct_count": 1}


def start_from(monkeypatch, grid, start):
    # Replaces the start that the fit's t_pi scan finds on grid with a fixed
    # one.  Only its t_pi enters, as the k of f = 1/(2 t_pi) = k/(16 span)
    # that the polish starts from: beta, r and phi come from the linear solve.
    t_pi = start[3]
    monkeypatch.setattr(tomography, "_scan_start", lambda *scan: 8.0 * np.ptp(grid.pulse_durations) / t_pi)


def test_fit_uses_initial_guess(monkeypatch):
    rho = DensityMatrix2(0.3, 0.2, -1.0)
    t_pi = 37e-9
    thetas, times = standard_grid(t_pi)
    grid = synthesize_tomogram(rho, t_pi, thetas, times)
    start_from(monkeypatch, grid, (0.25, 0.15, -0.8, 40e-9))
    fit = fit_tomogram(grid)
    assert fit.rho.excited_population == pytest.approx(0.3, rel=1e-6)
    assert fit.pi_duration == pytest.approx(t_pi, rel=1e-6)


@pytest.mark.parametrize(
    "phi, start",
    [
        # A start with r < 0, or a phase one turn past its canonical value,
        # and a t_pi off the scan's k = 16 on either side.
        (-2.0, (0.3, -0.2, -2.0 + math.pi, 46e-9)),
        (2.9, (0.3, 0.2, 2.9 + 2.0 * math.pi, 53e-9)),
        # At phi = -pi the fitted b = r sin(phi) is a rounding error, and
        # atan2(b, a) returns -pi itself, which the fit reports as pi.
        (-math.pi, (0.3, 0.2, -math.pi, 48e-9)),
    ],
    ids=["negative-r", "phase-past-pi", "minus-pi"],
)
def test_fit_wraps_phase_into_half_open_interval(monkeypatch, phi, start):
    rho = DensityMatrix2(0.3, 0.2, phi)
    t_pi = 50e-9
    thetas, times = standard_grid(t_pi)
    grid = synthesize_tomogram(rho, t_pi, thetas, times)
    start_from(monkeypatch, grid, start)
    fit = fit_tomogram(grid)
    assert -math.pi < fit.rho.coherence_phase <= math.pi
    monkeypatch.undo()
    unseeded = fit_tomogram(grid)
    assert fit.rho.coherence_phase == pytest.approx(unseeded.rho.coherence_phase, abs=1e-12)
    assert fit.rho.coherence_magnitude == pytest.approx(unseeded.rho.coherence_magnitude, abs=1e-12)
    assert fit.rho.excited_population == pytest.approx(unseeded.rho.excited_population, abs=1e-12)


def test_fit_non_uniform_durations():
    # Slightly jittered pulse durations: the t_pi scan and the polish
    # take the durations as they are.
    rho = DensityMatrix2(0.4, 0.25, 2.0)
    t_pi = 50e-9
    thetas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    times = np.linspace(0.0, 2.2 * t_pi, 41) ** 1.0
    times[1:-1] += 0.3e-9 * np.sin(np.arange(1, 40))
    grid = synthesize_tomogram(rho, t_pi, thetas, times)
    fit = fit_tomogram(grid)
    assert fit.rho.excited_population == pytest.approx(0.4, rel=1e-6)
    assert fit.pi_duration == pytest.approx(t_pi, rel=1e-6)


def test_fit_random_durations_over_300_ns():
    # 33 random durations over 6 t_pi.  Seeded at span/2 = 150 ns, as
    # uneven grids once were, the fit settled at t_pi = 84 ns, beta = 0.39.
    rho = DensityMatrix2(0.3, 0.2, 0.5)
    t_pi = 50e-9
    thetas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    times = np.sort(np.r_[0.0, 300e-9, np.random.default_rng(0).uniform(0.0, 300e-9, 31)])
    fit = fit_tomogram(synthesize_tomogram(rho, t_pi, thetas, times))
    assert fit.pi_duration == pytest.approx(t_pi, rel=1e-6)
    assert fit.rho.excited_population == pytest.approx(0.3, rel=1e-6)
    assert fit.rho.coherence_magnitude == pytest.approx(0.2, rel=1e-6)
    assert fit.residual_rms < 1e-9


@pytest.mark.parametrize("spacing", ["random", "jittered"])
def test_fit_uneven_durations_finds_t_pi(spacing):
    # 40 noise-free states, each on 33 uneven durations over 2.2-6 t_pi:
    # 31 random ones between the two ends, or an even grid whose inner
    # durations move by up to 0.3 of a step.
    t_pi = 50e-9
    thetas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    rng = np.random.default_rng(2024)
    for _ in range(40):
        beta = rng.uniform(0.05, 0.95)
        r = rng.uniform(0.1, 1.0) * math.sqrt(beta * (1.0 - beta))
        rho = DensityMatrix2(beta, r, rng.uniform(-math.pi, math.pi))
        span = rng.uniform(2.2, 6.0) * t_pi
        if spacing == "random":
            times = np.sort(np.r_[0.0, span, rng.uniform(0.0, span, 31)])
        else:
            times = np.linspace(0.0, span, 33)
            times[1:-1] += rng.uniform(-0.3, 0.3, 31) * (span / 32)
        fit = fit_tomogram(synthesize_tomogram(rho, t_pi, thetas, times))
        assert fit.pi_duration == pytest.approx(t_pi, rel=1e-6), (beta, r, span)
        assert fit.rho.excited_population == pytest.approx(beta, rel=1e-6)
        assert fit.rho.coherence_magnitude == pytest.approx(r, rel=1e-6)


def test_fit_span_of_one_t_pi_is_refused_or_right():
    # Durations spanning exactly t_pi show half a rotation period: the
    # span check refuses the true optimum, and no other may pass it.
    t_pi = 50e-9
    rng = np.random.default_rng(2101)
    for _ in range(200):
        rho = random_rho(rng)
        thetas = np.linspace(0.0, 2.0 * math.pi, int(rng.integers(4, 12)), endpoint=False)
        times = np.linspace(0.0, t_pi, int(rng.integers(4, 60)))
        try:
            fit = fit_tomogram(synthesize_tomogram(rho, t_pi, thetas, times))
        except IdentifiabilityError:
            continue
        assert fit.pi_duration == pytest.approx(t_pi, rel=1e-6)
        assert fit.rho.excited_population == pytest.approx(rho.excited_population, rel=1e-6)


def test_fit_two_clusters_with_a_gap_finds_t_pi():
    # 33 durations over 2.2-6 t_pi in two clusters, the first 30% and
    # the last 30% of the span, with no duration in the 40% between.
    t_pi = 50e-9
    thetas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    rng = np.random.default_rng(2102)
    for _ in range(60):
        rho = random_rho(rng, r_floor=0.02)
        span = rng.uniform(2.2, 6.0) * t_pi
        times = np.r_[0.0, np.sort(rng.uniform(0.0, 0.3 * span, 16)), np.sort(rng.uniform(0.7 * span, span, 15)), span]
        fit = fit_tomogram(synthesize_tomogram(rho, t_pi, thetas, times))
        assert fit.pi_duration == pytest.approx(t_pi, rel=1e-6), span / t_pi
        assert fit.rho.excited_population == pytest.approx(rho.excited_population, rel=1e-6)
        assert fit.rho.coherence_magnitude == pytest.approx(rho.coherence_magnitude, rel=1e-6)


@pytest.mark.parametrize("offset", [1.0, 10e-6], ids=["1s", "10us"])
def test_fit_refuses_durations_far_from_zero(offset):
    # The phase pi t/t_pi is absolute, so over offset + 0-110 ns the
    # profile varies over 1/t_max in 1/t_pi, far finer than the scan's
    # 1/(16 span) steps.  Unrefused, the 1 s grid exited 3 ("did not
    # converge") and the 10 us grid fit t_pi 46.3 ns with exit 0.
    thetas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    times = offset + np.linspace(0.0, 110e-9, 33)
    grid = synthesize_tomogram(DensityMatrix2(0.3, 0.2, 0.5), 50e-9, thetas, times)
    with pytest.raises(IdentifiabilityError, match="shortest pulse duration exceeds the duration span"):
        fit_tomogram(grid)


@pytest.mark.parametrize("start", [1.0, 3.0])
def test_fit_durations_from_one_span_fit_and_from_three_refuse(start):
    # 40 noise-free states on 17-59 even durations from start x span to
    # (start + 1) x span, span 2.05-6 t_pi.  A shortest duration equal to
    # the span still fits; three spans out, 63 of 100 such grids fit
    # wrongly with exit 0 when unrefused.
    t_pi = 50e-9
    rng = np.random.default_rng(2301)
    for _ in range(40):
        rho = random_rho(rng, r_floor=0.02)
        thetas = np.linspace(0.0, 2.0 * math.pi, int(rng.integers(4, 12)), endpoint=False)
        span = float(rng.uniform(2.05, 6.0)) * t_pi
        times = start * span + np.linspace(0.0, span, int(rng.integers(17, 60)))
        grid = synthesize_tomogram(rho, t_pi, thetas, times)
        if start > 1.0:
            with pytest.raises(IdentifiabilityError, match="shortest pulse duration"):
                fit_tomogram(grid)
        else:
            fit = fit_tomogram(grid)
            assert fit.pi_duration == pytest.approx(t_pi, rel=1e-6)
            assert fit.rho.excited_population == pytest.approx(rho.excited_population, rel=1e-6)


def noisy_and_hard_grids(rng: np.random.Generator):
    # 20 default grids with Gaussian noise 0.02 and 20 at 1000 shots per
    # cell; then 60 hard ones: beta in {0, 1/2, 1}, 4-11 even or random
    # angles, 4-201 even or random durations over 1-8 t_pi, Gaussian
    # noise up to 0.2.
    thetas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    for i in range(40):
        t_pi = float(rng.uniform(20e-9, 80e-9))
        noise = {"noise_sigma": 0.02} if i % 2 else {"n_shots": 1000}
        yield synthesize_tomogram(random_rho(rng), t_pi, thetas, np.linspace(0.0, 2.2 * t_pi, 33), rng=rng, **noise)
    for _ in range(60):
        beta = float(rng.choice([0.0, 0.5, 1.0]))
        rho = DensityMatrix2(beta, float(rng.uniform(0.05, 1.0)) * math.sqrt(beta * (1.0 - beta)), float(rng.uniform(-3.0, 3.0)))
        t_pi, n_theta, n_t = float(rng.uniform(20e-9, 80e-9)), int(rng.integers(4, 12)), int(rng.integers(4, 202))
        span = float(rng.uniform(1.0, 8.0)) * t_pi
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, n_theta)) if rng.random() < 0.5 else np.arange(n_theta) * (2.0 * math.pi / n_theta)
        times = np.linspace(0.0, span, n_t) if rng.random() < 0.5 else np.sort(np.r_[0.0, span, rng.uniform(0.0, span, n_t - 2)])
        yield synthesize_tomogram(rho, t_pi, angles, times, noise_sigma=float(rng.uniform(0.0, 0.2)), rng=rng)


def test_fit_is_a_least_squares_minimum():
    # An independent polish of all four parameters, MINPACK's
    # Levenberg-Marquardt on the closed form with t_pi in units of the
    # fit's, started at the fit, lowers the cost by no more than 1e-10
    # relative.  Projected fits, and fits whose phase was zeroed, report
    # a state other than the optimum and are skipped.
    from scipy.optimize import least_squares

    checked = 0
    for grid in noisy_and_hard_grids(np.random.default_rng(2302)):
        try:
            fit = fit_tomogram(grid)
        except IdentifiabilityError:
            continue
        if fit.projected or fit.phase_unidentifiable:
            continue
        theta, t = grid.axis_angles[:, None], grid.pulse_durations

        def residuals(p, fit=fit, grid=grid, theta=theta, t=t):
            beta, r, phi, scale = p
            alpha = math.pi * t / (scale * fit.pi_duration)
            model = beta + (1.0 - 2.0 * beta) * 0.5 * (1.0 - np.cos(alpha)) - r * np.sin(alpha) * np.sin(theta + phi)
            return (model - grid.occupations).ravel()

        start = [fit.rho.excited_population, fit.rho.coherence_magnitude, fit.rho.coherence_phase, 1.0]
        cost = float(np.sum(residuals(start) ** 2))
        assert cost == pytest.approx(grid.occupations.size * fit.residual_rms**2, rel=1e-9)
        polished = least_squares(residuals, start, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        assert 2.0 * polished.cost >= cost * (1.0 - 1e-10)
        checked += 1
    assert checked >= 80


def test_fit_noiseless_default_grid_finds_t_pi_to_1e_12():
    # The default tomo-synth grid, 8 angles by 33 durations over 2.2 t_pi.
    # The polish sums the residual itself: y^T y - h^T x from the normal
    # equations cancels to rounding noise there and left t_pi 4.2e-9 off.
    # The final solve takes no ridge, which would leave residual_rms near
    # 1e-12 instead of 1e-16.
    rng = np.random.default_rng(2303)
    for _ in range(40):
        rho, t_pi = random_rho(rng), float(rng.uniform(20e-9, 80e-9))
        thetas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
        fit = fit_tomogram(synthesize_tomogram(rho, t_pi, thetas, np.linspace(0.0, 2.2 * t_pi, 33)))
        assert fit.pi_duration == pytest.approx(t_pi, rel=1e-12)
        assert fit.residual_rms < 1e-14


def test_fit_at_the_evaluation_bound_returns_the_scan_point(monkeypatch):
    # The polish has no failure exit: cut to the three evaluations around
    # the scan's best k it takes no step and the fit reports t_pi = 8 span/k.
    t_pi = 50e-9
    thetas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    times = np.linspace(0.0, 2.2 * t_pi, 33)
    grid = synthesize_tomogram(DensityMatrix2(0.3, 0.2, 0.5), t_pi, thetas, times, noise_sigma=0.02, rng=np.random.default_rng(2304))
    monkeypatch.setattr(tomography, "MAX_PROFILE_EVALS", 3)
    scans = record_scans(monkeypatch)
    cut = fit_tomogram(grid)
    (_, k), = scans
    assert cut.pi_duration == 8.0 * (np.ptp(times) / k)
    monkeypatch.undo()
    polished = fit_tomogram(grid)
    assert polished.pi_duration != cut.pi_duration
    assert polished.residual_rms < cut.residual_rms


def test_fit_refuses_a_scan_above_the_cell_cap():
    # The t_pi scan costs O(M^2) in the number of durations M: 10^5
    # durations would take 8e10 cells, about half an hour.  The fit
    # refuses them before it scans.
    thetas = np.linspace(0.0, 2.0 * math.pi, 4, endpoint=False)
    grid = synthesize_tomogram(DensityMatrix2(0.3, 0.2, 0.5), 50e-9, thetas, np.linspace(0.0, 110e-9, 10**5))
    start = time.monotonic()
    with pytest.raises(NumericalError, match="t_pi scan of 100000 durations exceeds 1e\\+08 cells"):
        fit_tomogram(grid)
    assert time.monotonic() - start < 0.5


def test_fit_scan_cell_cap_is_inclusive(monkeypatch):
    # 33 distinct durations scan k = 2 ... 256, 255 points: 8415 cells.
    # A cap of exactly that fits; one cell less refuses.  Every 4th
    # duration measured twice makes 42 durations, still 33 distinct: the
    # same 255 points over 42 durations, 10710 cells.
    t_pi = 50e-9
    thetas, distinct = standard_grid(t_pi)
    for times, cells in ((distinct, "8.41e\\+03"), (np.r_[distinct, distinct[::4]], "1.07e\\+04")):
        grid = synthesize_tomogram(DensityMatrix2(0.3, 0.2, 0.5), t_pi, thetas, times)
        monkeypatch.setattr(tomography, "MAX_SCAN_CELLS", 255 * times.size)
        assert fit_tomogram(grid).pi_duration == pytest.approx(t_pi, rel=1e-6)
        monkeypatch.setattr(tomography, "MAX_SCAN_CELLS", 255 * times.size - 1)
        with pytest.raises(NumericalError, match=f"t_pi scan of {times.size} durations exceeds {cells} cells"):
            fit_tomogram(grid)


@pytest.mark.parametrize(
    "times",
    [[30e-9], [0.0, 60e-9], [0.0, 60e-9, 120e-9], [0.0, 0.0, 60e-9, 60e-9, 120e-9, 120e-9], [-0.0, 0.0, 60e-9, 120e-9]],
    ids=["1", "2", "3", "3-repeated", "3-signed-zeros"],
)
def test_fit_refuses_fewer_than_four_durations(times):
    rho = DensityMatrix2(0.3, 0.2, 0.5)
    thetas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    grid = synthesize_tomogram(rho, 50e-9, thetas, times)
    with pytest.raises(IdentifiabilityError, match="4 distinct pulse durations"):
        fit_tomogram(grid)


def test_fit_projects_unphysical_coherence():
    # Data generated from an over-coherent (non-physical) surface must
    # come back projected onto the physical boundary r <= sqrt(b(1-b)).
    beta, t_pi = 0.2, 50e-9
    r_bad = 1.02 * math.sqrt(beta * (1.0 - beta))
    thetas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    times = np.linspace(0.0, 2.2 * t_pi, 34)
    th, tt = np.meshgrid(thetas, times, indexing="ij")
    alpha = math.pi * tt / t_pi
    surface = (
        beta
        + (1.0 - 2.0 * beta) * 0.5 * (1.0 - np.cos(alpha))
        - r_bad * np.sin(alpha) * np.sin(th + 0.9)
    )
    grid = TomogramGrid(thetas, times, np.clip(surface, 0.0, 1.0))
    fit = fit_tomogram(grid)
    assert fit.projected
    b = fit.rho.excited_population
    assert fit.rho.coherence_magnitude == pytest.approx(math.sqrt(b * (1.0 - b)), rel=1e-9)


def test_fit_flags_unidentifiable_phase():
    # A coherence-free state carries no phase information.
    rho = DensityMatrix2(0.35)
    t_pi = 50e-9
    thetas, times = standard_grid(t_pi)
    grid = synthesize_tomogram(rho, t_pi, thetas, times)
    fit = fit_tomogram(grid)
    assert fit.phase_unidentifiable
    assert fit.rho.coherence_phase == 0.0
    assert fit.rho.coherence_magnitude < 1e-6
    assert fit.rho.excited_population == pytest.approx(0.35, rel=1e-6)


COINCIDENT_AXES = {
    "0-2pi-pi-3pi": [0.0, 2.0 * math.pi, math.pi, 3.0 * math.pi],
    "0-2pi-4pi-6pi": [0.0, 2.0 * math.pi, 4.0 * math.pi, 6.0 * math.pi],
}


@pytest.mark.parametrize("thetas", COINCIDENT_AXES.values(), ids=COINCIDENT_AXES.keys())
def test_fit_counts_axis_angles_modulo_two_pi(thetas):
    # Four distinct floats that name two axes, or one: unrefused, the
    # rank-deficient design fit r 0.458, phi 0.200 and r 0.205, phi 0.487
    # with no error, for a true r 0.2, phi 0.5.
    grid = synthesize_tomogram(DensityMatrix2(0.3, 0.2, 0.5), 50e-9, thetas, np.linspace(0.0, 110e-9, 33))
    with pytest.raises(IdentifiabilityError, match="4 distinct axis angles"):
        fit_tomogram(grid)


def test_fit_takes_four_axes_given_off_by_whole_turns():
    # Angles 2 pi apart name one axis, in either direction: four axes
    # written several turns apart still fit.
    rho = DensityMatrix2(0.3, 0.2, 0.5)
    thetas = [0.0, math.pi / 2.0 + 2.0 * math.pi, math.pi + 4.0 * math.pi, 1.5 * math.pi - 2.0 * math.pi]
    fit = fit_tomogram(synthesize_tomogram(rho, 50e-9, thetas, np.linspace(0.0, 110e-9, 33)))
    assert fit.rho.coherence_magnitude == pytest.approx(0.2, abs=1e-6)
    assert fit.rho.coherence_phase == pytest.approx(0.5, abs=1e-6)
    # Angles within 1e-9 rad around the circle are one axis, also across 0.
    angles = np.array([1e-10, 2.0 * math.pi - 1e-10, -1e-12, 1.0, 1.0 + 5e-10, 2.0])
    assert tomography._axis_count(angles) == 3


def test_fit_identifiability_errors(monkeypatch):
    t_pi = 50e-9
    rho = DensityMatrix2(0.3, 0.2, 0.5)
    # Too few distinct axis angles.
    thetas = np.array([0.0, math.pi / 2.0, math.pi])
    times = np.linspace(0.0, 2.0 * t_pi, 33)
    grid = synthesize_tomogram(rho, t_pi, thetas, times)
    with pytest.raises(IdentifiabilityError):
        fit_tomogram(grid)
    # Durations spanning less than one full rotation: when the fit
    # converges onto the true period the span check flags the grid.
    thetas, _ = standard_grid(t_pi)
    short_times = np.linspace(0.0, 0.8 * t_pi, 33)
    grid = synthesize_tomogram(rho, t_pi, thetas, short_times)
    start_from(monkeypatch, grid, (0.3, 0.2, 0.5, t_pi))
    with pytest.raises(IdentifiabilityError):
        fit_tomogram(grid)


def test_tomogram_grid_validation():
    thetas, times = standard_grid(50e-9)
    good = np.full((thetas.size, times.size), 0.5)
    TomogramGrid(thetas, times, good)
    with pytest.raises(ValueError):
        TomogramGrid(thetas, times, good[:, :-1])
    with pytest.raises(ValueError):
        TomogramGrid(thetas, times, good + 1.0)
    with pytest.raises(ValueError):
        TomogramGrid(thetas, -times, good)
    # Non-finite coordinates are refused here, before any fit.
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            TomogramGrid(np.r_[thetas[:-1], bad], times, good)
        with pytest.raises(ValueError, match="must be finite"):
            TomogramGrid(thetas, np.r_[times[:-1], bad], good)
    # A NaN occupation fails the range check instead of reaching the fit.
    holed = good.copy()
    holed[1, 2] = math.nan
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        TomogramGrid(thetas, times, holed)


def test_overlap_fidelity_named_values():
    # The freshly reset state overlaps the ground target with 0.91; the
    # one-cycle-old excited state overlaps the excited target with 0.69.
    assert overlap_fidelity(RHO_PREPARED, [1.0, 0.0]) == pytest.approx(0.91, abs=1e-12)
    assert overlap_fidelity(RHO_DECAYED, [0.0, 1.0]) == pytest.approx(0.69, abs=1e-12)
    assert overlap_fidelity(RHO_PREPARED, [0.0, 1.0]) == pytest.approx(0.09, abs=1e-12)


def test_overlap_fidelity_of_a_pure_state_with_itself():
    # rho = |psi><psi| for psi = (|0> - i|1>)/sqrt(2).
    rho = DensityMatrix2(0.5, 0.5, 0.5 * math.pi)
    psi = [1.0 / math.sqrt(2.0), -1j / math.sqrt(2.0)]
    assert overlap_fidelity(rho, psi) == pytest.approx(1.0, abs=1e-12)


def test_overlap_fidelity_is_affine_in_the_state():
    # F(rho, target) = <psi|rho|psi> is linear in rho, so mixing two
    # states mixes the fidelity linearly.
    rho_a = DensityMatrix2(0.2, 0.1, 0.3)
    rho_b = DensityMatrix2(0.7, 0.2, -1.0)
    lam = 0.3
    off = lam * 0.1 * cmath.exp(0.3j) + (1.0 - lam) * 0.2 * cmath.exp(-1.0j)
    mixed = DensityMatrix2(lam * 0.2 + (1.0 - lam) * 0.7, abs(off), cmath.phase(off))
    target = [0.6, 0.8j]
    f_mix = overlap_fidelity(mixed, target)
    want = lam * overlap_fidelity(rho_a, target) + (1.0 - lam) * overlap_fidelity(rho_b, target)
    assert f_mix == pytest.approx(want, abs=1e-12)


def test_overlap_fidelity_validation():
    with pytest.raises(ValueError):
        overlap_fidelity(RHO_PREPARED, [1.0, 1.0])  # not normalized
    with pytest.raises(ValueError):
        overlap_fidelity(RHO_PREPARED, [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="2-amplitude"):
        overlap_fidelity(RHO_PREPARED, [0.0, 0.0, 1.0])  # a Bloch vector

