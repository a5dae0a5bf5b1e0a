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

import numpy as np
import pytest

from jpmsim.errors import IdentifiabilityError
from jpmsim.tomography import (
    DensityMatrix2,
    FitResult,
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


def test_fit_uses_initial_guess():
    rho = DensityMatrix2(0.3, 0.2, -1.0)
    t_pi = 37e-9
    thetas, times = standard_grid(t_pi)
    grid = synthesize_tomogram(rho, t_pi, thetas, times)
    fit = fit_tomogram(grid, initial_guess=(0.25, 0.15, -0.8, 40e-9))
    assert fit.rho.excited_population == pytest.approx(0.3, rel=1e-6)
    assert fit.pi_duration == pytest.approx(t_pi, rel=1e-6)


@pytest.mark.parametrize(
    "phi, start",
    [
        # The optimum keeps r < 0 and the flip to r > 0 adds pi to phi.
        (-2.0, (0.3, -0.2, -2.0 + math.pi, 50e-9)),
        # The optimum keeps the phase one turn above its canonical value.
        (2.9, (0.3, 0.2, 2.9 + 2.0 * math.pi, 50e-9)),
    ],
    ids=["negative-r", "phase-past-pi"],
)
def test_fit_wraps_phase_into_half_open_interval(phi, start):
    rho = DensityMatrix2(0.3, 0.2, phi)
    t_pi = 50e-9
    thetas, times = standard_grid(t_pi)
    grid = synthesize_tomogram(rho, t_pi, thetas, times)
    fit = fit_tomogram(grid, initial_guess=start)
    assert -math.pi < fit.rho.coherence_phase <= math.pi
    unseeded = fit_tomogram(grid)
    assert fit.rho.coherence_phase == pytest.approx(unseeded.rho.coherence_phase, abs=1e-12)
    assert fit.rho.coherence_magnitude == pytest.approx(unseeded.rho.coherence_magnitude, abs=1e-12)
    assert fit.rho.excited_population == pytest.approx(unseeded.rho.excited_population, abs=1e-12)


def test_fit_non_uniform_durations():
    # Non-uniform pulse durations skip the FFT seeding path but still
    # converge from the span-based fallback.
    rho = DensityMatrix2(0.4, 0.25, 2.0)
    t_pi = 50e-9
    thetas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    times = np.linspace(0.0, 2.2 * t_pi, 41) ** 1.0
    times[1:-1] += 0.3e-9 * np.sin(np.arange(1, 40))
    grid = synthesize_tomogram(rho, t_pi, thetas, times)
    fit = fit_tomogram(grid)
    assert fit.rho.excited_population == pytest.approx(0.4, rel=1e-6)
    assert fit.pi_duration == pytest.approx(t_pi, rel=1e-6)


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


def test_fit_identifiability_errors():
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
    with pytest.raises(IdentifiabilityError):
        fit_tomogram(grid, initial_guess=(0.3, 0.2, 0.5, t_pi))


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


def test_fit_result_exposes_curvature():
    rho = DensityMatrix2(0.3, 0.2, 0.5)
    t_pi = 50e-9
    thetas, times = standard_grid(t_pi)
    fit = fit_tomogram(synthesize_tomogram(rho, t_pi, thetas, times))
    assert isinstance(fit, FitResult)
    assert fit.curvature.shape == (4, 4)
    # Gauss-Newton curvature is symmetric positive semidefinite.
    assert np.allclose(fit.curvature, fit.curvature.T, rtol=1e-10, atol=1e-6)
    assert np.all(np.linalg.eigvalsh(fit.curvature) > -1e-6)
