"""Single-qubit state tomography from rotation sweeps.

A tomographic pulse rotates the qubit about an equatorial axis at angle
theta for a duration t, after which the excited-state occupation is
read out.  The model is the ideal occupation, with no detector channel
(dark counts, visibility), so a tomogram read through one biases the
fit.  Sweeping (theta, t) over a grid and fitting the resulting surface
recovers the pre-pulse density matrix

    rho = [[1 - beta, r e^{i phi}], [r e^{-i phi}, beta]]

together with the pi-pulse duration t_pi.  The rotation
R = exp[i (pi/2)(t/t_pi)(sigma_x cos theta + sigma_y sin theta)] gives
the closed-form occupation

    P(theta, t) = beta + (1 - 2 beta)(1 - cos alpha)/2
                  - r sin(alpha) sin(theta + phi),  alpha = pi t / t_pi

which this module evaluates, synthesizes noisy grids from, and fits by
a global scan over t_pi polished by Gauss-Newton with analytic gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IdentifiabilityError, NumericalError

PHASE_IDENTIFIABLE_MIN_R = 1e-6
"""Below this coherence magnitude the phase is reported as 0 and flagged."""

MAX_GAUSS_NEWTON_STEPS = 200
"""A fit whose polish has not stopped after this many steps raises NumericalError."""

STEP_TOL = 1e-10
"""The polish stops once a step moves beta, r and phi, and t_pi relative to itself, by no more than this."""

MAX_SCAN_CELLS = 10**8
"""A t_pi scan of more (scan point, duration) cells raises NumericalError before it starts: at about
22 ns per cell (2-CPU x86-64 host) the largest accepted scan, about 3500 durations, takes 2.3 s."""


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

    curvature is the Gauss-Newton normal matrix J^T J of the last polish
    step in parameter order (beta, r, phi, t_pi); projected reports whether the
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

    The cells are ideal occupations P(theta, t), not detector-read ones:
    no dark count or visibility enters.  With n_shots set each cell is a
    binomial estimate over that many shots; with noise_sigma set,
    additive Gaussian noise is applied and the result clipped to [0, 1];
    with neither, the exact model surface is returned.  A negative noise_sigma is a ValueError.
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


def _scan_start(grid: TomogramGrid) -> np.ndarray:
    """(beta, r, phi, t_pi) at the global minimum over t_pi of the residual.

    With a = r cos(phi) and b = r sin(phi) the model reads
    P = 1/2 + (beta - 1/2) cos(alpha) - sin(alpha)(a sin(theta) + b cos(theta)),
    linear in (beta, a, b) for a fixed t_pi, so the residual left by their
    3x3 normal equations G x = h, y^T y - h^T x, is a function of t_pi
    alone (variable projection).  The scan takes f = 1/(2 t_pi) = k/(16 span)
    for k = 2 ... 8 (M - 1), M distinct durations: 16 points per 1/span
    from 1/(8 span) to (M - 1)/(2 span), t_pi down to one mean step.
    """
    theta, t = grid.axis_angles, grid.pulse_durations
    y = grid.occupations - 0.5
    rows = np.stack([np.ones_like(theta), -np.sin(theta), -np.cos(theta)])
    angle_gram, sums = rows @ rows.T, rows @ y
    span = float(t.max() - t.min())
    k_max = 8 * (np.unique(t).size - 1)
    if (k_max - 1) * t.size > MAX_SCAN_CELLS:
        raise NumericalError(f"tomogram fit: t_pi scan of {t.size} durations exceeds {MAX_SCAN_CELLS:.3g} cells")
    turn = 2.0 * math.pi * t / (16.0 * span)  # alpha per unit of k, per duration
    best = (math.inf, math.nan, np.full(3, math.nan))
    block = max(1, (1 << 16) // t.size)  # values of k per block, which bounds memory
    for k0 in range(2, k_max + 1, block):
        z = np.tile(np.exp(1j * turn), (min(block, k_max + 1 - k0), 1))
        z[0] = np.exp(1j * k0 * turn)
        z = np.cumprod(z, axis=0)  # e^{i alpha} for k = k0, k0 + 1, ... by repeated rotation
        cos_a, sin_a = z.real, z.imag
        cc, cs, ss = (np.einsum("kj,kj->k", u, v) for u, v in ((cos_a, cos_a), (cos_a, sin_a), (sin_a, sin_a)))
        gram = angle_gram * np.stack([cc, cs, cs, cs, ss, ss, cs, ss, ss], axis=1).reshape(-1, 3, 3)
        h = np.column_stack([cos_a @ sums[0], sin_a @ sums[1], sin_a @ sums[2]])
        # A tiny ridge keeps a vanishing column (sin(alpha) = 0 at every
        # duration, or coincident axis angles) from fitting rounding noise.
        ridge = 1e-12 * np.trace(gram, axis1=1, axis2=2)[:, None, None] * np.eye(3)
        x = np.linalg.solve(gram + ridge, h[:, :, None])[:, :, 0]
        profile = np.sum(y * y) - np.einsum("kp,kp->k", h, x)
        k = int(np.argmin(profile))
        if profile[k] < best[0]:
            best = (profile[k], k0 + k, x[k])
    _, k, (beta, a, b) = best
    return np.array([beta + 0.5, math.hypot(a, b), math.atan2(b, a), 8.0 * span / k])


def _finite(values: np.ndarray, what: str, x: np.ndarray) -> np.ndarray:
    """values, or a NumericalError naming the fit parameters x if any is NaN or infinite."""
    if not np.isfinite(values).all():
        params = ", ".join("%g" % v for v in x.tolist())
        raise NumericalError(f"tomogram fit: non-finite {what} at (beta, r, phi, t_pi) = ({params})")
    return values


def fit_tomogram(grid: TomogramGrid) -> FitResult:
    """Least-squares fit of (beta, r, phi, t_pi) to a tomogram grid.

    Scans t_pi, down to one mean duration step, for the global minimum
    of the residual and polishes it by Gauss-Newton with the analytic
    Jacobian and step halving.  An even grid of step h cannot tell t_pi
    from its alias t_pi' with 1/t_pi' = 2/h - 1/t_pi: when h is near t_pi
    or longer, the fit may return the alias (e.g. 6 durations over 6.43
    t_pi fit 90.06 ns for a true 50 ns).  The optimum is canonicalized:
    t_pi and r are made non-negative by exact reparameterization,
    phi is wrapped to (-pi, pi], a positivity-violating r is projected
    onto sqrt(beta(1-beta)) with the projected flag set, and a
    negligible r zeroes phi with the phase_unidentifiable flag set.
    residual_rms reports the unprojected optimum.

    Raises
    ------
    IdentifiabilityError
        For grids with fewer than 4 distinct axis angles or fewer than
        4 distinct pulse durations, a constant surface, or a duration
        span that covers less than one full rotation period 2 t_pi of
        the fitted surface.
    NumericalError
        If the t_pi scan would take more than MAX_SCAN_CELLS cells, before
        it scans; if the polish has not met its stop rule after
        MAX_GAUSS_NEWTON_STEPS steps, or meets a non-finite residual or
        Jacobian (a non-finite parameter gives both).
    """
    theta, t = grid.axis_angles, grid.pulse_durations
    if np.unique(theta).size < 4:
        raise IdentifiabilityError("need at least 4 distinct axis angles")
    # A full period 2 t_pi inside the span, sampled above the Nyquist
    # rate, needs at least 4 durations.
    if np.unique(t).size < 4:
        raise IdentifiabilityError("need at least 4 distinct pulse durations")
    # A constant surface (beta = 1/2 with r = 0, or durations far below
    # t_pi) holds no t_pi at all.
    if np.ptp(grid.occupations) == 0.0:
        raise IdentifiabilityError("a flat tomogram shows no full rotation period 2 t_pi")

    def residuals(x: np.ndarray) -> np.ndarray:
        return _finite((_occupation(*x, theta[:, None], t) - grid.occupations).ravel(), "residual", x)

    def jacobian(x: np.ndarray) -> np.ndarray:
        beta, r, phi, t_pi = x
        alpha = math.pi * t / t_pi
        sin_a, cos_a = np.sin(alpha), np.cos(alpha)
        sin_th, cos_th = np.sin(theta[:, None] + phi), np.cos(theta[:, None] + phi)
        # d alpha/d t_pi = -pi t/t_pi^2; dP/d alpha =
        # (1-2 beta) sin(alpha)/2 - r cos(alpha) sin(theta+phi).
        d_tpi = -(math.pi * t / t_pi**2) * ((1.0 - 2.0 * beta) * 0.5 * sin_a - r * cos_a * sin_th)
        columns = np.broadcast_arrays(cos_a, -sin_a * sin_th, -r * sin_a * cos_th, d_tpi)
        return _finite(np.stack([c.ravel() for c in columns], axis=1), "Jacobian", x)

    # A non-finite value stops the fit in _finite, so numpy's warnings
    # on the way there would only add lines to the one diagnostic.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = _scan_start(grid)
        res = residuals(x)
        # Gauss-Newton in units of (1, 1, 1, t_pi).  A step is taken if it
        # lowers the cost and halved if not; the polish stops after a step
        # that moves no parameter by more than STEP_TOL, taken or not.
        for _ in range(MAX_GAUSS_NEWTON_STEPS):
            jac = jacobian(x)
            scale = np.array([1.0, 1.0, 1.0, abs(x[3])])
            step = scale * np.linalg.lstsq(jac * scale, -res, rcond=None)[0]
            while True:
                trial_res = residuals(x + step)
                small = np.abs(step / scale).max() <= STEP_TOL
                if trial_res @ trial_res < res @ res or small:
                    break
                step = 0.5 * step
            if trial_res @ trial_res < res @ res:
                x, res = x + step, trial_res
            if small:
                break
        else:
            raise NumericalError(f"tomogram fit did not converge in {MAX_GAUSS_NEWTON_STEPS} Gauss-Newton steps")

    beta, r, phi, t_pi = (float(v) for v in x)
    residual_rms = float(np.sqrt(np.mean(res**2)))
    curvature = jac.T @ jac

    # Exact sign reparameterizations, then range canonicalization.
    if t_pi < 0.0:
        t_pi, r = -t_pi, -r
    if r < 0.0:
        r, phi = -r, phi + math.pi
    phi = math.pi - (math.pi - phi) % (2.0 * math.pi)
    if phi <= -math.pi:
        phi += 2.0 * math.pi

    projected = not 0.0 <= beta <= 1.0
    beta = min(max(beta, 0.0), 1.0)
    projected = projected or _violates_positivity(beta, r)
    r = min(r, math.sqrt(beta * (1.0 - beta)))

    phase_unidentifiable = r < PHASE_IDENTIFIABLE_MIN_R
    if phase_unidentifiable:
        phi = 0.0

    if float(t.max() - t.min()) < 2.0 * t_pi * (1.0 - 1e-9):
        raise IdentifiabilityError("pulse durations span less than one full rotation period 2 t_pi")

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
