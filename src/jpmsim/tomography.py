"""Single-qubit state tomography from detector-read rotation sweeps.

A tomographic pulse rotates the qubit about an equatorial axis at angle
theta for a duration t, after which the excited-state occupation is
read out.  Sweeping (theta, t) over a grid and fitting the resulting
surface recovers the pre-pulse density matrix

    rho = [[1 - beta, r e^{i phi}], [r e^{-i phi}, beta]]

together with the pi-pulse duration t_pi.  The rotation
R = exp[i (pi/2)(t/t_pi)(sigma_x cos theta + sigma_y sin theta)] gives
the closed-form occupation

    P(theta, t) = beta + (1 - 2 beta)(1 - cos alpha)/2
                  - r sin(alpha) sin(theta + phi),  alpha = pi t / t_pi

which this module evaluates, synthesizes noisy grids from, and fits by
damped least squares with analytic gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IdentifiabilityError, NumericalError

PHASE_IDENTIFIABLE_MIN_R = 1e-6
"""Below this coherence magnitude the phase is reported as 0 and flagged."""


def _violates_positivity(beta: float, r: float) -> bool:
    # Small slack so values projected onto the positivity boundary
    # survive round-trips through their own square root.
    return r * r > beta * (1.0 - beta) + 1e-12


@dataclass(frozen=True)
class DensityMatrix2:
    """Qubit density matrix in (population, coherence) form.

    Parameters
    ----------
    excited_population:
        beta = <1|rho|1> in [0, 1].
    coherence_magnitude:
        r = |<0|rho|1>| >= 0, bounded by positivity r^2 <= beta(1-beta).
    coherence_phase:
        phi = arg <0|rho|1> in radians.
    """

    excited_population: float
    coherence_magnitude: float = 0.0
    coherence_phase: float = 0.0

    def __post_init__(self) -> None:
        beta = self.excited_population
        r = self.coherence_magnitude
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"excited_population must lie in [0, 1], got {beta!r}")
        if r < 0.0:
            raise ValueError("coherence_magnitude must be non-negative")
        if _violates_positivity(beta, r):
            raise ValueError("coherence violates positivity: r^2 > beta(1-beta)")
        if not math.isfinite(self.coherence_phase):
            raise ValueError("coherence_phase must be finite")

    def matrix(self) -> np.ndarray:
        """The 2x2 complex matrix, basis order (|0>, |1>)."""
        off = self.coherence_magnitude * np.exp(1j * self.coherence_phase)
        return np.array(
            [[1.0 - self.excited_population, off], [np.conj(off), self.excited_population]]
        )


@dataclass(frozen=True)
class TomogramGrid:
    """Measured occupations on a (axis angle, pulse duration) grid.

    occupations[i, j] is the excited-state occupation for
    axis_angles[i] and pulse_durations[j].
    """

    axis_angles: np.ndarray
    pulse_durations: np.ndarray
    occupations: np.ndarray

    def __post_init__(self) -> None:
        angles = np.asarray(self.axis_angles, dtype=float)
        durations = np.asarray(self.pulse_durations, dtype=float)
        occ = np.asarray(self.occupations, dtype=float)
        object.__setattr__(self, "axis_angles", angles)
        object.__setattr__(self, "pulse_durations", durations)
        object.__setattr__(self, "occupations", occ)
        if occ.shape != (angles.size, durations.size):
            raise ValueError("occupations shape must be (len(axis_angles), len(pulse_durations))")
        if not np.all((occ >= 0.0) & (occ <= 1.0)):
            raise ValueError("occupations must lie in [0, 1]")
        if np.any(durations < 0.0):
            raise ValueError("pulse_durations must be non-negative")


@dataclass(frozen=True)
class FitResult:
    """Outcome of a four-parameter tomographic fit.

    curvature is the Gauss-Newton normal matrix J^T J at the optimum in
    parameter order (beta, r, phi, t_pi); projected reports whether the
    raw optimum violated positivity and was moved to the boundary;
    phase_unidentifiable reports that r was too small to constrain phi.
    """

    rho: DensityMatrix2
    pi_duration: float
    residual_rms: float
    curvature: np.ndarray = field(repr=False)
    projected: bool = False
    phase_unidentifiable: bool = False


def expected_occupation(rho: DensityMatrix2, theta, t, t_pi: float):
    """Excited-state occupation after a tomographic pulse.

    Broadcasts over theta and t.  Periodic in t with period 2 t_pi and
    depends on theta only through theta + phi.
    """
    if not t_pi > 0.0:
        raise ValueError("t_pi must be positive")
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        finite = np.isfinite(math.pi * t / t_pi).all()
    if not finite:
        raise ValueError("rotation angle pi t / t_pi is not finite")
    theta = np.asarray(theta, dtype=float)
    out = _occupation(rho.excited_population, rho.coherence_magnitude, rho.coherence_phase, t_pi, theta, t)
    return out if out.ndim else float(out)


def _occupation(beta, r, phi, t_pi, theta, t):
    # The closed form P(theta, t) of the module docstring, unchecked so
    # the fit evaluates its trial points as they come.
    alpha = math.pi * t / t_pi
    return (
        beta
        + (1.0 - 2.0 * beta) * 0.5 * (1.0 - np.cos(alpha))
        - r * np.sin(alpha) * np.sin(theta + phi)
    )


def synthesize_tomogram(
    rho: DensityMatrix2,
    t_pi: float,
    axis_angles,
    pulse_durations,
    *,
    n_shots: int | None = None,
    noise_sigma: float | None = None,
    rng: np.random.Generator | None = None,
) -> TomogramGrid:
    """Generate a tomogram grid from a known state.

    With n_shots set each cell is a binomial estimate over that many
    shots; with noise_sigma set, additive Gaussian noise is applied and
    the result clipped to [0, 1]; with neither, the exact model
    surface is returned.  A negative noise_sigma is a ValueError.
    """
    if n_shots is not None and noise_sigma is not None:
        raise ValueError("choose binomial or Gaussian noise, not both")
    if noise_sigma is not None and noise_sigma < 0.0:
        raise ValueError(f"noise_sigma must be non-negative, got {noise_sigma!r}")
    angles = np.asarray(axis_angles, dtype=float)
    durations = np.asarray(pulse_durations, dtype=float)
    surface = expected_occupation(rho, angles[:, None], durations[None, :], t_pi)

    if n_shots is not None:
        if rng is None:
            raise ValueError("binomial noise requires an rng")
        if n_shots < 1:
            raise ValueError("n_shots must be positive")
        surface = rng.binomial(n_shots, surface) / n_shots
    elif noise_sigma is not None:
        if rng is None:
            raise ValueError("Gaussian noise requires an rng")
        surface = np.clip(surface + noise_sigma * rng.standard_normal(surface.shape), 0.0, 1.0)

    return TomogramGrid(angles, durations, surface)


def _initial_guess(grid: TomogramGrid) -> np.ndarray:
    theta = grid.axis_angles
    t = grid.pulse_durations
    occ = grid.occupations

    beta0 = float(np.clip(occ[:, int(np.argmin(t))].mean(), 0.0, 1.0))

    span = float(t.max() - t.min())
    t_pi0 = span / 2.0 if span > 0.0 else 1.0
    steps = np.diff(np.sort(t))
    if t.size >= 4 and steps.size and np.allclose(steps, steps[0], rtol=1e-6):
        # Dominant frequency of the theta-averaged trace; the surface
        # oscillates at 1/(2 t_pi) in pulse duration.
        trace = occ.mean(axis=0)
        power = np.abs(np.fft.rfft(trace - trace.mean())) ** 2
        freqs = np.fft.rfftfreq(t.size, d=float(steps[0]))
        peak = int(np.argmax(power[1:])) + 1
        if power[peak] > 0.0 and freqs[peak] > 0.0:
            t_pi0 = 1.0 / (2.0 * freqs[peak])

    # Row nearest the half-pi duration isolates the coherence term:
    # P(theta) = const - r sin(theta)cos(phi) - r cos(theta)sin(phi).
    j = int(np.argmin(np.abs(t - 0.5 * t_pi0)))
    design = np.column_stack([np.ones_like(theta), np.sin(theta), np.cos(theta)])
    coeffs, *_ = np.linalg.lstsq(design, occ[:, j], rcond=None)
    alpha_j = math.sin(math.pi * float(t[j]) / t_pi0)
    scale = alpha_j if abs(alpha_j) > 0.1 else 1.0
    r0 = float(np.hypot(coeffs[1], coeffs[2]) / abs(scale))
    phi0 = float(math.atan2(-coeffs[2], -coeffs[1])) if r0 > 0.0 else 0.0
    r0 = min(r0, 0.5)

    return np.array([beta0, r0, phi0, t_pi0])


def fit_tomogram(grid: TomogramGrid, initial_guess=None) -> FitResult:
    """Least-squares fit of (beta, r, phi, t_pi) to a tomogram grid.

    Runs damped least squares with the analytic Jacobian from an
    automatic (or supplied) starting point, then canonicalizes the
    optimum: t_pi and r are made non-negative by exact reparameterization,
    phi is wrapped to (-pi, pi], a positivity-violating r is projected
    onto sqrt(beta(1-beta)) with the projected flag set, and a
    negligible r zeroes phi with the phase_unidentifiable flag set.
    residual_rms reports the unprojected optimum.

    Raises
    ------
    IdentifiabilityError
        For grids with fewer than 4 distinct axis angles, or whose
        duration span covers less than one full rotation period
        2 t_pi of the fitted surface.
    NumericalError
        If the optimizer fails to converge.
    """
    from scipy.optimize import least_squares

    theta = grid.axis_angles
    t = grid.pulse_durations
    if np.unique(theta).size < 4:
        raise IdentifiabilityError("need at least 4 distinct axis angles")

    x0 = np.asarray(initial_guess, dtype=float) if initial_guess is not None else _initial_guess(grid)
    if x0.shape != (4,):
        raise ValueError("initial guess must be (beta, r, phi, t_pi)")
    if x0[3] <= 0.0:
        raise ValueError("initial t_pi must be positive")

    data = grid.occupations

    def residuals(x: np.ndarray) -> np.ndarray:
        return (_occupation(*x, theta[:, None], t) - data).ravel()

    def jacobian(x: np.ndarray) -> np.ndarray:
        beta, r, phi, t_pi = x
        alpha = math.pi * t / t_pi
        sin_a = np.sin(alpha)
        cos_a = np.cos(alpha)
        sin_th = np.sin(theta[:, None] + phi)
        cos_th = np.cos(theta[:, None] + phi)
        ones = np.ones_like(sin_th)
        d_beta = ones * cos_a
        d_r = -sin_a * sin_th
        d_phi = -r * sin_a * cos_th
        # d alpha/d t_pi = -pi t/t_pi^2; dP/d alpha =
        # (1-2 beta) sin(alpha)/2 - r cos(alpha) sin(theta+phi).
        d_tpi = -(math.pi * t / t_pi**2) * (
            (1.0 - 2.0 * beta) * 0.5 * sin_a * ones - r * cos_a * sin_th
        )
        return np.stack(
            [d_beta.ravel(), d_r.ravel(), d_phi.ravel(), d_tpi.ravel()], axis=1
        )

    result = least_squares(residuals, x0, jac=jacobian, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
    if not result.success:
        raise NumericalError(f"tomogram fit did not converge: {result.message}")

    beta, r, phi, t_pi = (float(v) for v in result.x)
    residual_rms = float(np.sqrt(np.mean(result.fun**2)))
    curvature = result.jac.T @ result.jac

    # Exact sign reparameterizations, then range canonicalization.
    if t_pi < 0.0:
        t_pi, r = -t_pi, -r
    if r < 0.0:
        r, phi = -r, phi + math.pi
    phi = math.pi - (math.pi - phi) % (2.0 * math.pi)
    if phi <= -math.pi:
        phi += 2.0 * math.pi

    projected = False
    if not 0.0 <= beta <= 1.0:
        beta = float(np.clip(beta, 0.0, 1.0))
        projected = True
    bound = math.sqrt(max(beta * (1.0 - beta), 0.0))
    if r > bound:
        if _violates_positivity(beta, r):
            projected = True
        r = bound

    phase_unidentifiable = r < PHASE_IDENTIFIABLE_MIN_R
    if phase_unidentifiable:
        phi = 0.0

    span = float(t.max() - t.min())
    if span < 2.0 * t_pi * (1.0 - 1e-9):
        raise IdentifiabilityError(
            "pulse durations span less than one full rotation period 2 t_pi"
        )

    return FitResult(
        rho=DensityMatrix2(beta, r, phi),
        pi_duration=float(t_pi),
        residual_rms=residual_rms,
        curvature=curvature,
        projected=projected,
        phase_unidentifiable=phase_unidentifiable,
    )


def overlap_fidelity(rho: DensityMatrix2, target) -> float:
    """Overlap <psi|rho|psi> with a pure target state.

    target is a normalized length-2 complex amplitude vector
    (psi_0, psi_1) in the basis (|0>, |1>).
    """
    psi = np.asarray(target)
    if psi.shape != (2,):
        raise ValueError("target must be a 2-amplitude state")
    psi = psi.astype(complex)
    if abs(float(np.linalg.norm(psi)) - 1.0) > 1e-6:
        raise ValueError("state vector target must be normalized")
    value = float(np.real(np.conj(psi) @ rho.matrix() @ psi))
    return min(max(value, 0.0), 1.0)
