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
a global scan over t_pi polished on the same one-dimensional profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IdentifiabilityError, NumericalError

PHASE_IDENTIFIABLE_MIN_R = 1e-6
"""Below this coherence magnitude the phase is reported as 0 and flagged."""

MAX_PROFILE_EVALS = 40
"""The polish of t_pi evaluates the residual profile at no more than this many t_pi, three per step."""

AXIS_ANGLE_TOL = 1e-9
"""Axis angles closer than this around the circle, in radians, are one axis."""

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
        if not (np.isfinite(angles).all() and np.isfinite(durations).all()):
            raise ValueError("axis_angles and pulse_durations must be finite")
        if np.any(durations < 0.0):
            raise ValueError("pulse_durations must be non-negative")


@dataclass(frozen=True)
class FitResult:
    """Outcome of a four-parameter tomographic fit.

    projected reports whether the raw optimum violated positivity and was
    moved to the boundary;
    phase_unidentifiable reports that r was too small to constrain phi.
    """

    rho: DensityMatrix2
    pi_duration: float
    residual_rms: float
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
        alpha = math.pi * t / t_pi
    if not np.isfinite(alpha).all():
        raise ValueError("rotation angle pi t / t_pi is not finite")
    beta, r = rho.excited_population, rho.coherence_magnitude
    theta = np.asarray(theta, dtype=float)
    out = (
        beta
        + (1.0 - 2.0 * beta) * 0.5 * (1.0 - np.cos(alpha))
        - r * np.sin(alpha) * np.sin(theta + rho.coherence_phase)
    )
    return out if out.ndim else float(out)


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
        # Noise past float64 is +-inf with no warning, which the clip saturates at 0 or 1.
        with np.errstate(over="ignore"):
            surface = np.clip(surface + noise_sigma * rng.standard_normal(surface.shape), 0.0, 1.0)

    return TomogramGrid(angles, durations, surface)


def _axis_count(theta: np.ndarray) -> int:
    """Distinct rotation axes among the angles: theta modulo 2 pi, up to AXIS_ANGLE_TOL."""
    wrapped = np.sort(np.mod(theta, 2.0 * math.pi))
    gaps = np.diff(wrapped, append=wrapped[:1] + 2.0 * math.pi)
    return int(np.count_nonzero(gaps > AXIS_ANGLE_TOL))


def _projection(grid: TomogramGrid):
    """The fit's linear part: y = P - 1/2, the angle rows, turn and a batched solve.

    With a = r cos(phi), b = r sin(phi) and rows = (1, -sin(theta), -cos(theta)),
    P - 1/2 = x . rows(theta) (cos(alpha), sin(alpha), sin(alpha)) is linear in
    x = (beta - 1/2, a, b) at a fixed t_pi = 8 span/k, where alpha = k turn.
    solve(cos_a, sin_a) returns h and x of the normal equations G x = h per row.
    """
    theta, t = grid.axis_angles, grid.pulse_durations
    y = grid.occupations - 0.5
    rows = np.stack([np.ones_like(theta), -np.sin(theta), -np.cos(theta)])
    angle_gram, sums = rows @ rows.T, rows @ y

    def solve(cos_a: np.ndarray, sin_a: np.ndarray, ridge: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
        cc, cs, ss = (np.einsum("kj,kj->k", u, v) for u, v in ((cos_a, cos_a), (cos_a, sin_a), (sin_a, sin_a)))
        gram = angle_gram * np.stack([cc, cs, cs, cs, ss, ss, cs, ss, ss], axis=1).reshape(-1, 3, 3)
        h = np.column_stack([cos_a @ sums[0], sin_a @ sums[1], sin_a @ sums[2]])
        # A tiny ridge keeps a vanishing column (sin(alpha) = 0 at every duration, or
        # coincident axis angles) from fitting rounding noise; the fit's last solve takes none.
        gram += ridge * np.trace(gram, axis1=1, axis2=2)[:, None, None] * np.eye(3)
        return h, np.linalg.solve(gram, h[:, :, None])[:, :, 0]

    return y, rows, (math.pi / 8.0) * (t / np.ptp(t)), solve


def _scan_start(grid: TomogramGrid) -> int:
    """The k at the global minimum of y^T y - h^T x over k = 2 ... 8 (M - 1).

    That residual is a function of t_pi alone (variable projection).  For M distinct durations
    the scan takes 16 points per 1/span from f = 1/(2 t_pi) = 1/(8 span) to (M - 1)/(2 span),
    t_pi down to one mean step.
    """
    y, _, turn, solve = _projection(grid)
    t = grid.pulse_durations
    k_max = 8 * (np.unique(t).size - 1)
    if (k_max - 1) * t.size > MAX_SCAN_CELLS:
        raise NumericalError(f"tomogram fit: t_pi scan of {t.size} durations exceeds {MAX_SCAN_CELLS:.3g} cells")
    minima = []  # (profile, k) at the minimum of each block
    block = max(1, (1 << 16) // t.size)  # values of k per block, which bounds memory
    for k0 in range(2, k_max + 1, block):
        z = np.tile(np.exp(1j * turn), (min(block, k_max + 1 - k0), 1))
        z[0] = np.exp(1j * k0 * turn)
        z = np.cumprod(z, axis=0)  # e^{i alpha} for k = k0, k0 + 1, ... by repeated rotation
        h, x = solve(z.real, z.imag)
        profile = np.sum(y * y) - np.einsum("kp,kp->k", h, x)
        minima.append((profile.min(), k0 + int(np.argmin(profile))))
    return min(minima)[1]


def fit_tomogram(grid: TomogramGrid) -> FitResult:
    """Least-squares fit of (beta, r, phi, t_pi) to a tomogram grid.

    Scans the residual as a function of t_pi alone (variable projection,
    Golub and Pereyra 1973), down to t_pi of one mean duration step, for
    its global minimum, polishes that on the same profile in at most
    MAX_PROFILE_EVALS evaluations, and reads beta, r and phi, in (-pi, pi],
    off the linear solve there.  An even grid of step h cannot tell t_pi
    from its alias t_pi' with 1/t_pi' = 2/h - 1/t_pi: when h is near t_pi
    or longer, the fit may return the alias (e.g. 6 durations over 6.43
    t_pi fit 90.06 ns for a true 50 ns).  A positivity-violating r is
    projected onto sqrt(beta(1-beta)) with the projected flag set, and a
    negligible r zeroes phi with the phase_unidentifiable flag set.
    residual_rms reports the unprojected optimum.

    Raises
    ------
    IdentifiabilityError
        For grids with fewer than 4 distinct axis angles (modulo 2 pi)
        or durations, a constant surface, a shortest duration above the
        duration span, or a span that covers less than one full rotation
        period 2 t_pi of the fitted surface.
    NumericalError
        If the t_pi scan would take more than MAX_SCAN_CELLS cells, before it scans.
    """
    theta, t = grid.axis_angles, grid.pulse_durations
    # Angles 2 pi apart name one axis, so they are counted modulo 2 pi.
    if _axis_count(theta) < 4:
        raise IdentifiabilityError("need at least 4 distinct axis angles modulo 2 pi")
    # A full period 2 t_pi inside the span, sampled above the Nyquist
    # rate, needs at least 4 durations.
    if np.unique(t).size < 4:
        raise IdentifiabilityError("need at least 4 distinct pulse durations")
    # A constant surface (beta = 1/2 with r = 0, or durations far below
    # t_pi) holds no t_pi at all.
    if np.ptp(grid.occupations) == 0.0:
        raise IdentifiabilityError("a flat tomogram shows no full rotation period 2 t_pi")
    # Far from 0 the absolute phase pi t/t_pi varies faster in t_pi than the scan steps.
    span = float(np.ptp(t))
    if t.min() > span:
        raise IdentifiabilityError("the shortest pulse duration exceeds the duration span")

    y, rows, turn, solve = _projection(grid)

    def profile(k: list, ridge: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
        # x and the residual sum of squares per k, summed directly: y^T y - h^T x cancels near a fit.
        alpha = np.multiply.outer(k, turn)
        cos_a, sin_a = np.cos(alpha), np.sin(alpha)
        x = solve(cos_a, sin_a, ridge)[1]
        res = y - (x[:, :1] * cos_a)[:, None, :] - (x[:, 1:] @ rows[1:])[:, :, None] * sin_a[:, None, :]
        return x, np.sum(res * res, axis=(1, 2))

    # Parabolic steps through three points of the profile h apart, from the scan's best k.  The
    # vertex is off the minimum by O(h^2), so the next points lie h^2/4 apart around it.  A vertex
    # beyond the outer points moves them h downhill instead, which must lower the profile.
    k, h = float(_scan_start(grid)), 1.0
    low, mid, high = profile([k - h, k, k + h])[1]
    for _ in range(MAX_PROFILE_EVALS // 3 - 1):
        curv = low + high - 2.0 * mid
        shift = 0.5 * (low - high) / curv if curv > 0.0 else math.copysign(math.inf, low - high)
        walk = abs(shift) >= 1.0
        trial = k + h * min(max(shift, -1.0), 1.0)
        spacing = h if walk else 0.25 * h * h
        # Closer points would not resolve curv from rounding, about eps sqrt(n mid) over n cells.
        if not walk and curv * (spacing / h) ** 2 <= np.finfo(float).eps * math.sqrt(y.size * mid):
            k = trial
            break
        new = profile([trial - spacing, trial, trial + spacing])[1]
        if walk and not new[1] < mid:
            break
        k, h, (low, mid, high) = trial, spacing, new

    # Refused before the final solve, which takes no ridge: at k = 0 every sin(alpha) is 0.
    if k < 16.0 * (1.0 - 1e-9):
        raise IdentifiabilityError("pulse durations span less than one full rotation period 2 t_pi")
    (x,), (cost,) = profile([k], ridge=0.0)
    residual_rms = math.sqrt(cost / y.size)
    beta, r, phi = float(x[0]) + 0.5, math.hypot(x[1], x[2]), math.atan2(x[2], x[1])
    if phi == -math.pi:
        phi = math.pi

    projected = not 0.0 <= beta <= 1.0
    beta = min(max(beta, 0.0), 1.0)
    projected = projected or _violates_positivity(beta, r)
    r = min(r, math.sqrt(beta * (1.0 - beta)))

    phase_unidentifiable = r < PHASE_IDENTIFIABLE_MIN_R
    if phase_unidentifiable:
        phi = 0.0

    return FitResult(
        rho=DensityMatrix2(beta, r, phi),
        pi_duration=8.0 * (span / k),
        residual_rms=residual_rms,
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
