"""Potential landscape of a flux-biased photomultiplier circuit.

The circuit is a single Josephson junction shunted by a capacitor and
enclosed in a gradiometric loop.  Its potential energy as a function of
the junction phase ``delta`` is

    U(delta) = -E_J cos(delta)
               + (Phi0 / 2 pi)^2 (delta - 2 pi Phi_ext / Phi0)^2 / (2 L_g)

with Josephson energy ``E_J = I0 Phi0 / 2 pi``.  Depending on the
screening parameter ``beta_L = 2 pi L_g I0 / Phi0`` and the applied flux,
the landscape holds one or two local minima.  This module locates the
extrema, characterizes each well (depth, small-oscillation plasma
frequency, semiclassical level count) and finds the bias points where
wells appear or vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

PHI0 = 2.067833848e-15
"""Magnetic flux quantum h/2e in webers."""

HBAR = 1.054571817e-34
"""Reduced Planck constant in joule seconds."""

SCAN_STEP = math.pi / 100
"""Default phase step of the bracketing scan used by :func:`find_extrema`."""

REFINE_TOL = 1e-12
"""Default bisection tolerance in radians for extremum refinement."""

MAX_SCAN_CELLS = 10**7
"""Largest bracketing scan :func:`find_extrema` runs (beta_L about 1.6e5
at the default step), so a huge but finite beta_L is refused instead of
allocating gigabytes or looping for hours."""


@dataclass(frozen=True)
class JpmParams:
    """Circuit constants of the photomultiplier loop.

    Parameters
    ----------
    critical_current:
        Junction critical current I0 in amperes.
    loop_inductance:
        Gradiometric loop inductance L_g in henries.
    shunt_capacitance:
        Shunt capacitance C_s in farads.
    flux_quantum:
        Magnetic flux quantum in webers.  Fixed physical constant,
        exposed as a field so every conversion in the module uses one
        value.
    """

    critical_current: float
    loop_inductance: float
    shunt_capacitance: float
    flux_quantum: float = PHI0

    def __post_init__(self) -> None:
        for name in ("critical_current", "loop_inductance", "shunt_capacitance", "flux_quantum"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")

    @property
    def josephson_energy(self) -> float:
        """Josephson energy E_J = I0 Phi0 / 2 pi in joules."""
        return self.critical_current * self.flux_quantum / (2.0 * math.pi)


DEFAULT_PARAMS = JpmParams(
    critical_current=1e-6,
    loop_inductance=1.1e-9,
    shunt_capacitance=2e-12,
)
"""Nominal device: 1 uA junction, 1.1 nH loop, 2 pF shunt."""


@dataclass(frozen=True)
class FluxBias:
    """External flux applied to the loop.

    Parameters
    ----------
    external_flux:
        Applied flux in webers.  Any finite real value is allowed.
    """

    external_flux: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.external_flux):
            raise ValueError("external_flux must be finite")

    @classmethod
    def from_flux_quanta(cls, fraction: float) -> "FluxBias":
        """Build a bias from a value expressed in units of Phi0."""
        return cls(external_flux=fraction * PHI0)

    @property
    def in_flux_quanta(self) -> float:
        """Applied flux in units of Phi0."""
        return self.external_flux / PHI0


@dataclass(frozen=True)
class WellReport:
    """Properties of one local minimum of the potential.

    Attributes
    ----------
    minimum_phase:
        Phase delta of the minimum in radians.
    barrier_phase:
        Phase of the escape-barrier maximum, or ``None`` for a sole
        global well.
    barrier_height:
        Well depth dU in joules, measured to the lowest adjacent
        maximum.  ``math.inf`` when ``bounded`` is False.
    plasma_frequency:
        Small-oscillation angular frequency omega_p in radians/second.
    level_count:
        Semiclassical level estimate n = dU / (hbar omega_p).
    well_label:
        "left" or "right" for a double well, "global" for a sole well.
        Interior minima of landscapes with more than two wells are
        labeled "interior".
    bounded:
        False when the well is the only minimum and has no barrier.
    """

    minimum_phase: float
    barrier_phase: float | None
    barrier_height: float
    plasma_frequency: float
    level_count: float
    well_label: str
    bounded: bool


def _phase_bias(flux: FluxBias, p: JpmParams) -> float:
    return 2.0 * math.pi * flux.external_flux / p.flux_quantum


def potential_energy(delta, flux: FluxBias, p: JpmParams):
    """Potential energy U(delta) in joules.

    Accepts a scalar or array phase and broadcasts over it.
    """
    phi_e = _phase_bias(flux, p)
    quad_scale = (p.flux_quantum / (2.0 * math.pi)) ** 2 / (2.0 * p.loop_inductance)
    return -p.josephson_energy * np.cos(delta) + quad_scale * (np.asarray(delta) - phi_e) ** 2


def potential_curvature(delta, p: JpmParams):
    """Second derivative d2U/ddelta2 in joules.

    Independent of the applied flux: the quadratic term contributes the
    constant (Phi0 / 2 pi)^2 / L_g.
    """
    quad = (p.flux_quantum / (2.0 * math.pi)) ** 2 / p.loop_inductance
    return p.josephson_energy * np.cos(delta) + quad


def beta_L(p: JpmParams) -> float:
    """Screening parameter beta_L = 2 pi L_g I0 / Phi0."""
    return 2.0 * math.pi * p.loop_inductance * p.critical_current / p.flux_quantum


def plasma_frequency(delta: float, p: JpmParams) -> float:
    """Plasma frequency omega_p = (2 pi / Phi0) sqrt(d2U/ddelta2 / C_s).

    Raises
    ------
    NumericalError
        If the curvature at ``delta`` is not positive (no confining
        well at this phase).
    """
    curvature = float(potential_curvature(delta, p))
    if curvature <= 0.0:
        raise NumericalError(f"curvature at delta={delta} is not positive; no well here")
    return (2.0 * math.pi / p.flux_quantum) * math.sqrt(curvature / p.shunt_capacitance)


def _check_scan_size(beta: float, scan_step: float) -> None:
    """Refuse a beta_L whose bracket [phi_e - beta_L - 1, phi_e + beta_L + 1]
    holds more than MAX_SCAN_CELLS scan cells."""
    if not (2.0 * beta + 2.0) / scan_step <= MAX_SCAN_CELLS:
        raise NumericalError(
            f"beta_L {beta:.3g} needs more than {MAX_SCAN_CELLS:.0e} extremum scan cells"
        )


def _residual(delta, phi_e: float, beta: float):
    # Extremum condition rearranged to sin(delta) - (phi_e - delta)/beta_L = 0.
    return np.sin(delta) - (phi_e - delta) / beta


def _bisect_residual(lo, hi, phi_e: float, beta: float, tol: float):
    """Vectorized bisection on the extremum residual.

    ``lo`` and ``hi`` must bracket a sign change element-wise.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    f_lo = _residual(lo, phi_e, beta)
    for _ in range(200):
        if np.all(hi - lo <= tol):
            break
        mid = 0.5 * (lo + hi)
        f_mid = _residual(mid, phi_e, beta)
        left = f_lo * f_mid <= 0.0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        f_lo = np.where(left, f_lo, f_mid)
    else:
        raise NumericalError("extremum bisection failed to reach tolerance")
    return 0.5 * (lo + hi)


def find_extrema(
    flux: FluxBias,
    p: JpmParams,
    *,
    scan_step: float = SCAN_STEP,
    tol: float = REFINE_TOL,
) -> list[tuple[float, str]]:
    """Locate all extrema of the potential for one flux bias.

    Scans the guaranteed bracket
    ``delta in [phi_e - beta_L - 1, phi_e + beta_L + 1]`` (outside it the
    linear term of the extremum condition exceeds 1 in magnitude, so no
    solutions exist) for sign changes of the residual
    ``sin(delta) - (phi_e - delta)/beta_L`` and refines each by
    bisection.  Scan cells where the residual does not change sign but
    its derivative does are subdivided at the interior extremum, so
    root pairs close to a bifurcation are still resolved.

    Returns
    -------
    list of (delta, kind)
        Extrema in ascending phase order, ``kind`` is "minimum" or
        "maximum".  The count is odd and the kinds alternate.

    Raises
    ------
    NumericalError
        If refinement stalls, the extremum structure is inconsistent, or
        the scan would need more than MAX_SCAN_CELLS cells.
    """
    beta = beta_L(p)
    _check_scan_size(beta, scan_step)
    phi_e = _phase_bias(flux, p)
    lo = phi_e - beta - 1.0
    hi = phi_e + beta + 1.0
    n_cells = int(math.ceil((hi - lo) / scan_step))
    grid = np.linspace(lo, hi, n_cells + 1)
    res = _residual(grid, phi_e, beta)
    sign = np.sign(res)

    roots: list[float] = []

    crossing = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    if crossing.size:
        refined = _bisect_residual(grid[crossing], grid[crossing + 1], phi_e, beta, tol)
        roots.extend(np.atleast_1d(refined).tolist())

    # Grid points that are exact zeros count as roots only when the
    # residual truly crosses there; a tangent touch is an inflection of
    # the potential, not an extremum.
    for i in np.flatnonzero(sign == 0):
        if 0 < i < len(grid) - 1 and sign[i - 1] * sign[i + 1] < 0:
            roots.append(float(grid[i]))

    # Same-sign cells containing an extremum of the residual can hide a
    # root pair just before a tangency.  The residual derivative is
    # cos(delta) + 1/beta_L; bisect it to the interior stationary point
    # and split the cell if the residual flips sign there.
    slope = np.cos(grid) + 1.0 / beta
    hidden = np.flatnonzero((sign[:-1] * sign[1:] > 0) & (np.sign(slope[:-1]) * np.sign(slope[1:]) < 0))
    for i in hidden:
        a, b = float(grid[i]), float(grid[i + 1])
        sa = math.cos(a) + 1.0 / beta
        x, y = a, b
        for _ in range(200):
            if y - x <= tol:
                break
            m = 0.5 * (x + y)
            sm = math.cos(m) + 1.0 / beta
            if sa * sm <= 0.0:
                y = m
            else:
                x, sa = m, sm
        station = 0.5 * (x + y)
        r_station = float(_residual(station, phi_e, beta))
        if r_station * res[i] < 0.0:
            pair = _bisect_residual([a, station], [station, b], phi_e, beta, tol)
            roots.extend(np.atleast_1d(pair).tolist())

    roots.sort()
    deduped: list[float] = []
    for r in roots:
        if not deduped or r - deduped[-1] > 10.0 * tol:
            deduped.append(r)

    extrema = [
        (r, "minimum" if math.cos(r) + 1.0 / beta > 0.0 else "maximum") for r in deduped
    ]
    kinds = [k for _, k in extrema]
    if len(extrema) % 2 == 0 or any(a == b for a, b in zip(kinds, kinds[1:])):
        raise NumericalError(
            f"inconsistent extremum structure at flux {flux.in_flux_quanta} Phi0: {extrema}"
        )
    return extrema


def well_report(flux: FluxBias, p: JpmParams) -> list[WellReport]:
    """Characterize every local minimum at one flux bias.

    For each minimum the barrier height is measured to the lowest
    adjacent maximum (the escape barrier).  A landscape with a single
    minimum has no barrier: the report flags it unbounded and labels it
    "global".
    """
    extrema = find_extrema(flux, p)
    minima_idx = [i for i, (_, kind) in enumerate(extrema) if kind == "minimum"]

    reports = []
    for pos, i in enumerate(minima_idx):
        delta_min, _ = extrema[i]
        u_min = float(potential_energy(delta_min, flux, p))
        neighbors = [extrema[j] for j in (i - 1, i + 1) if 0 <= j < len(extrema)]
        barrier_phase: float | None = None
        barrier_height = math.inf
        for delta_max, _ in neighbors:
            height = float(potential_energy(delta_max, flux, p)) - u_min
            if height < barrier_height:
                barrier_height = height
                barrier_phase = delta_max
        bounded = barrier_phase is not None
        omega_p = plasma_frequency(delta_min, p)
        level_count = barrier_height / (HBAR * omega_p) if bounded else math.inf

        if len(minima_idx) == 1:
            label = "global"
        elif pos == 0:
            label = "left"
        elif pos == len(minima_idx) - 1:
            label = "right"
        else:
            label = "interior"

        reports.append(
            WellReport(
                minimum_phase=delta_min,
                barrier_phase=barrier_phase,
                barrier_height=barrier_height if bounded else math.inf,
                plasma_frequency=omega_p,
                level_count=level_count,
                well_label=label,
                bounded=bounded,
            )
        )
    return reports


def critical_flux(p: JpmParams) -> list[float]:
    """Flux biases in webers where the count of minima changes.

    A well appears or vanishes where the line of the extremum condition
    is tangent to sin(delta), which requires
    ``cos(delta) = -1/beta_L`` simultaneously with the extremum
    condition itself.  Returns the tangency fluxes inside the principal
    sweep range [0, Phi0], in ascending order.  Empty for
    ``beta_L <= 1``: the line is then steeper than sin everywhere and
    exactly one extremum exists at every bias.

    Raises
    ------
    NumericalError
        If beta_L is too large for a :func:`find_extrema` scan at the
        default step, which also bounds the loop over branches here.
    """
    beta = beta_L(p)
    if beta <= 1.0:
        return []
    _check_scan_size(beta, SCAN_STEP)
    base = math.acos(-1.0 / beta)
    fluxes = []
    k_max = int(beta / (2.0 * math.pi)) + 2
    for k in range(-k_max, k_max + 1):
        for delta_t in (base + 2.0 * math.pi * k, -base + 2.0 * math.pi * k):
            phi_e = delta_t + beta * math.sin(delta_t)
            if 0.0 <= phi_e <= 2.0 * math.pi:
                fluxes.append(phi_e * p.flux_quantum / (2.0 * math.pi))
    fluxes.sort()
    deduped = []
    for f in fluxes:
        if not deduped or f - deduped[-1] > 1e-15 * p.flux_quantum:
            deduped.append(f)
    return deduped
