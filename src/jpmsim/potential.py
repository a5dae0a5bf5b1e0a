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
from typing import ClassVar

import numpy as np

from .errors import NumericalError

PHI0 = 2.067833848e-15
"""Magnetic flux quantum h/2e in webers."""

HBAR = 1.054571817e-34
"""Reduced Planck constant in joule seconds."""

SCAN_STEP = math.pi / 100
"""Phase step of the bracketing scan used by :func:`find_extrema_sweep`."""

REFINE_TOL = 1e-12
"""Bisection tolerance in radians for extremum refinement."""

MAX_SCAN_CELLS = 10**7
"""Largest bracketing scan :func:`find_extrema_sweep` runs per flux
(beta_L about 1.6e5 at SCAN_STEP), so a huge but finite beta_L is
refused instead of allocating gigabytes or looping for hours."""

SWEEP_BLOCK_CELLS = 2**15
"""Scan cells :func:`find_extrema_sweep` solves at once.  A block holds at
least one whole flux, so a sweep's working set stays near this many
cells whatever its length."""


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

    ``flux_quantum`` is the class constant PHI0, not a field.
    """

    critical_current: float
    loop_inductance: float
    shunt_capacitance: float
    flux_quantum: ClassVar[float] = PHI0

    def __post_init__(self) -> None:
        for name in ("critical_current", "loop_inductance", "shunt_capacitance"):
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
class WellSweep:
    """Every local minimum of a flux sweep, one array entry per well.

    Wells are ordered by flux, then by phase.

    Attributes
    ----------
    flux_index:
        Index of the well's flux in the swept array.
    well_count:
        Number of wells at that flux.
    minimum_phase:
        Phase delta of the minimum in radians.
    barrier_phase:
        Phase of the escape-barrier maximum, or NaN where the well is
        unbounded.
    barrier_height:
        Well depth dU in joules, measured to the lowest adjacent
        maximum.  ``math.inf`` where the well is unbounded.
    plasma_frequency:
        Small-oscillation angular frequency omega_p in radians/second.
    level_count:
        Semiclassical level estimate n = dU / (hbar omega_p); ``math.inf``
        where the well is unbounded.
    well_label:
        "left" or "right" for a double well, "global" for a sole well.
        Interior minima of landscapes with more than two wells are
        labeled "interior".
    bounded:
        False when the well is the only minimum and has no barrier.
    """

    flux_index: np.ndarray
    well_count: np.ndarray
    minimum_phase: np.ndarray
    barrier_phase: np.ndarray
    barrier_height: np.ndarray
    plasma_frequency: np.ndarray
    level_count: np.ndarray
    well_label: np.ndarray
    bounded: np.ndarray


def _phase_bias(external_flux, p: JpmParams):
    return 2.0 * math.pi * external_flux / p.flux_quantum


def _energy(delta, phi_e, p: JpmParams):
    quad_scale = (p.flux_quantum / (2.0 * math.pi)) ** 2 / (2.0 * p.loop_inductance)
    # float_power squares with the C library's pow, as a float64 scalar's
    # ** does, where an array's ** 2 multiplies: this way one phase and an
    # array of phases give the same bits.
    return -p.josephson_energy * np.cos(delta) + quad_scale * np.float_power(
        np.asarray(delta) - phi_e, 2.0
    )


def potential_energy(delta, external_flux: float, p: JpmParams):
    """Potential energy U(delta) in joules at an applied flux in webers.

    Accepts a scalar or array phase and broadcasts over it.  Raises
    ValueError if ``external_flux`` is not finite.
    """
    if not math.isfinite(external_flux):
        raise ValueError("external_flux must be finite")
    return _energy(delta, _phase_bias(external_flux, p), p)


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


def plasma_frequency(delta, p: JpmParams):
    """Plasma frequency omega_p = (2 pi / Phi0) sqrt(d2U/ddelta2 / C_s).

    Accepts a scalar or array phase and broadcasts over it.

    Raises
    ------
    NumericalError
        If the curvature at ``delta`` is not positive (no confining
        well at this phase).
    """
    curvature = potential_curvature(delta, p)
    flat = np.flatnonzero(curvature <= 0.0)
    if flat.size:
        bad = float(np.ravel(delta)[flat[0]])
        raise NumericalError(f"curvature at delta={bad} is not positive; no well here")
    omega = (2.0 * math.pi / p.flux_quantum) * np.sqrt(curvature / p.shunt_capacitance)
    return omega if omega.ndim else float(omega)


def _check_scan_size(beta: float) -> None:
    """Refuse a beta_L whose bracket [phi_e - beta_L - 1, phi_e + beta_L + 1]
    holds more than MAX_SCAN_CELLS scan cells."""
    if not (2.0 * beta + 2.0) / SCAN_STEP <= MAX_SCAN_CELLS:
        raise NumericalError(
            f"beta_L {beta:.3g} needs more than {MAX_SCAN_CELLS:.0e} extremum scan cells"
        )


def _residual(delta, phi_e, beta: float):
    # Extremum condition rearranged to sin(delta) - (phi_e - delta)/beta_L = 0.
    return np.sin(delta) - (phi_e - delta) / beta


def _bisect(f, lo, hi, group):
    """Masked bisection of f on the brackets [lo, hi], each holding a sign change.

    ``f(x, k)`` evaluates the function at ``x`` for the brackets with
    indices ``k``.  Brackets that share a ``group`` label (small
    non-negative integers) step together until every one of them has
    converged: its width is at most REFINE_TOL, or its midpoint equals
    one of its ends because the float spacing there is wider than
    REFINE_TOL.  Returns the midpoint of each bracket at that step.
    """
    out = np.empty(lo.size)
    if lo.size == 0:
        return out
    k = np.arange(lo.size)
    n_groups = int(group.max()) + 1
    f_lo = f(lo, k)
    # A step leaves at least half a width less half a float spacing of
    # the ends, so no bracket can meet either rule before step `quiet`.
    spacing = float(np.spacing(np.maximum(np.abs(lo), np.abs(hi)).max()))
    ratio = float((hi - lo).min()) / (REFINE_TOL + 4.0 * spacing)
    quiet = math.floor(math.log2(ratio)) if ratio > 1.0 else 0
    for step in range(200):
        mid = 0.5 * (lo + hi)
        if step >= quiet:
            done = (hi - lo <= REFINE_TOL) | (mid == lo) | (mid == hi)
            still_open = np.zeros(n_groups, dtype=bool)
            still_open[group[~done]] = True
            finished = ~still_open[group]
            if finished.any():
                out[k[finished]] = mid[finished]
                keep = ~finished
                if not keep.any():
                    return out
                k, group, lo, hi, mid, f_lo = (a[keep] for a in (k, group, lo, hi, mid, f_lo))
        f_mid = f(mid, k)
        left = f_lo * f_mid <= 0.0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        f_lo = np.where(left, f_lo, f_mid)
    raise NumericalError("extremum bisection failed to reach tolerance")


def _block_roots(phi_e, n_cells: int, beta: float):
    """Roots of the residual for a block of fluxes scanned with n_cells cells each.

    Returns (row, root) arrays in no particular order, ``row`` indexing
    ``phi_e``.
    """
    # One flux per column: in the flattened arrays a cell starting at
    # index i ends at i + width.
    width = phi_e.size
    grid = np.linspace(phi_e - beta - 1.0, phi_e + beta + 1.0, n_cells + 1)
    res = _residual(grid, phi_e, beta).ravel()
    grid = grid.ravel()
    # Cells that start this close to zero can hide a root pair (below).
    # The sign then overwrites the residual, so a block holds no more
    # than four arrays of its size at once.
    bound = 2.0 * SCAN_STEP**2
    shallow = (res[:-width] >= -bound) & (res[:-width] <= bound)
    sign = np.sign(res, out=res)
    pair_sign = sign[:-width] * sign[width:]

    # One bisection over the crossing cells of every flux; each flux
    # steps until all of its brackets are within REFINE_TOL.
    cell = np.flatnonzero(pair_sign < 0.0)
    row = cell % width
    c = phi_e[row]
    rows = [row]
    roots = [_bisect(lambda x, k: _residual(x, c[k], beta), grid[cell], grid[cell + width], row)]

    # Grid points that are exact zeros count as roots only when the
    # residual truly crosses there; a tangent touch is an inflection of
    # the potential, not an extremum.
    point = np.flatnonzero(sign[width:-width] == 0.0) + width
    point = point[sign[point - width] * sign[point + width] < 0.0]
    rows.append(point % width)
    roots.append(grid[point])

    # Same-sign cells containing an extremum of the residual can hide a
    # root pair just before a tangency.  The residual derivative is
    # cos(delta) + 1/beta_L; such a cell is bisected to its interior
    # stationary point, each cell stopping on its own width, and split
    # if the residual flips sign there.  Since |d2/ddelta2 residual| =
    # |sin(delta)| <= 1 and the slope vanishes within the cell, the
    # residual moves by at most SCAN_STEP**2 across it: a cell whose
    # start lies further than twice that from zero cannot split, so only
    # the shallow cells get a slope and a bisection.
    cell = np.flatnonzero(shallow & (pair_sign > 0.0))
    slope_sign = np.sign(np.cos(grid[cell]) + 1.0 / beta) * np.sign(np.cos(grid[cell + width]) + 1.0 / beta)
    cell = cell[slope_sign < 0.0]
    a, b = grid[cell], grid[cell + width]
    station = _bisect(lambda x, k: np.cos(x) + 1.0 / beta, a, b, np.arange(cell.size))
    row = cell % width
    split = _residual(station, phi_e[row], beta) * _residual(a, phi_e[row], beta) < 0.0
    if split.any():
        row, a, b, station = row[split], a[split], b[split], station[split]
        pair = np.arange(row.size)
        c = phi_e[np.concatenate([row, row])]
        rows += [row, row]
        roots.append(
            _bisect(
                lambda x, k: _residual(x, c[k], beta),
                np.concatenate([a, station]),
                np.concatenate([station, b]),
                np.concatenate([pair, pair]),
            )
        )
    return np.concatenate(rows), np.concatenate(roots)


def _sweep_extrema(fluxes, p: JpmParams):
    """Extrema of every flux in webers as flat arrays.

    Returns (phi_e, offsets, roots, is_minimum): the phase bias of each
    flux, and the extrema of flux i as ``roots[offsets[i]:offsets[i + 1]]``
    in ascending phase order.
    """
    fluxes = np.asarray(fluxes, dtype=float)
    if fluxes.ndim != 1:
        raise ValueError("fluxes must be a one-dimensional array")
    if not np.isfinite(fluxes).all():
        raise ValueError("external_flux must be finite")
    beta = beta_L(p)
    _check_scan_size(beta)
    with np.errstate(over="ignore"):
        phi_e = _phase_bias(fluxes, p)
    if not np.isfinite(phi_e).all():
        raise ValueError("external_flux overflows the phase bias")
    cells = np.ceil(((phi_e + beta + 1.0) - (phi_e - beta - 1.0)) / SCAN_STEP).astype(np.int64)

    flux_of, roots = [], []
    for n_cells in np.unique(cells).tolist():
        same = np.flatnonzero(cells == n_cells)
        per_block = max(1, SWEEP_BLOCK_CELLS // max(n_cells, 1))
        for start in range(0, same.size, per_block):
            block = same[start : start + per_block]
            row, root = _block_roots(phi_e[block], n_cells, beta)
            flux_of.append(block[row])
            roots.append(root)
    flux_of = np.concatenate(flux_of) if flux_of else np.empty(0, dtype=np.int64)
    roots = np.concatenate(roots) if roots else np.empty(0)
    order = np.lexsort((roots, flux_of))
    flux_of, roots = flux_of[order], roots[order]

    # Crossing cells, exact-zero grid points and split shallow cells are
    # disjoint, so no root arrives twice; a flux whose extrema are not
    # odd in number and alternating is refused, not repaired.
    same_flux = flux_of[1:] == flux_of[:-1]
    is_minimum = np.cos(roots) + 1.0 / beta > 0.0
    counts = np.bincount(flux_of, minlength=fluxes.size)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    bad = counts % 2 == 0
    bad[flux_of[1:][same_flux & (is_minimum[1:] == is_minimum[:-1])]] = True
    if bad.any():
        i = int(np.argmax(bad))
        extrema = _pairs(roots[offsets[i] : offsets[i + 1]], is_minimum[offsets[i] : offsets[i + 1]])
        raise NumericalError(
            f"inconsistent extremum structure at flux {float(fluxes[i]) / PHI0} Phi0: {extrema}"
        )
    return phi_e, offsets, roots, is_minimum


def _pairs(roots, is_minimum) -> list[tuple[float, str]]:
    return list(zip(roots.tolist(), np.where(is_minimum, "minimum", "maximum").tolist()))


def find_extrema_sweep(fluxes, p: JpmParams) -> list[list[tuple[float, str]]]:
    """Locate all extrema of the potential for every flux of a sweep.

    ``fluxes`` is a one-dimensional array of applied fluxes in webers.
    For each flux, scans the guaranteed bracket
    ``delta in [phi_e - beta_L - 1, phi_e + beta_L + 1]`` (outside it the
    linear term of the extremum condition exceeds 1 in magnitude, so no
    solutions exist) for sign changes of the residual
    ``sin(delta) - (phi_e - delta)/beta_L`` and refines each by
    bisection to REFINE_TOL; each flux steps until all of its brackets
    are within it, so a flux gets the same bits alone or in any sweep.
    Scan cells where the residual does not change sign but its
    derivative does are subdivided at the interior extremum, so root
    pairs close to a bifurcation are still resolved.  The fluxes are
    solved together in blocks of about SWEEP_BLOCK_CELLS scan cells, so
    memory stays bounded whatever the sweep length.  One flux is the
    sweep ``[flux]``: ``find_extrema_sweep([flux], p)[0]``.

    Returns
    -------
    list of list of (delta, kind)
        For each flux, its extrema in ascending phase order, ``kind``
        "minimum" or "maximum".  Each count is odd and the kinds
        alternate.

    Raises
    ------
    NumericalError
        If refinement stalls, the extremum structure of a flux is
        inconsistent, or the scan would need more than MAX_SCAN_CELLS
        cells per flux.
    ValueError
        If ``fluxes`` is not one-dimensional, or a flux is not finite or
        its phase bias overflows.
    """
    _, offsets, roots, is_minimum = _sweep_extrema(fluxes, p)
    extrema = _pairs(roots, is_minimum)
    bounds = offsets.tolist()
    return [extrema[a:b] for a, b in zip(bounds, bounds[1:])]


def well_report_sweep(fluxes, p: JpmParams) -> WellSweep:
    """Characterize every local minimum at every flux of a sweep.

    ``fluxes`` is a one-dimensional array of applied fluxes in webers.
    For each minimum the barrier height is measured to the lowest
    adjacent maximum (the escape barrier).  A landscape with a single
    minimum has no barrier: the well is flagged unbounded and labeled
    "global"; otherwise minima are "left", "right" or, between them,
    "interior".  Returns one :class:`WellSweep` for the whole sweep.

    Raises
    ------
    NumericalError
        As :func:`find_extrema_sweep`, or if the curvature at a minimum
        is not positive.
    """
    phi_e, offsets, roots, is_minimum = _sweep_extrema(fluxes, p)
    flux_of = np.repeat(np.arange(phi_e.size), np.diff(offsets))
    energy = _energy(roots, phi_e[flux_of], p)

    j = np.flatnonzero(is_minimum)
    start, stop = offsets[flux_of[j]], offsets[flux_of[j] + 1]
    height = np.full(j.size, math.inf)
    barrier = np.full(j.size, math.nan)
    bounded = np.zeros(j.size, dtype=bool)
    # The left maximum first, the right one only if strictly lower.
    for side, exists in ((j - 1, j - 1 >= start), (j + 1, j + 1 < stop)):
        side = np.clip(side, 0, max(roots.size - 1, 0))
        side_height = energy[side] - energy[j]
        lower = exists & (side_height < height)
        height = np.where(lower, side_height, height)
        barrier = np.where(lower, roots[side], barrier)
        bounded |= lower
    omega = plasma_frequency(roots[j], p)
    quantum = HBAR * omega[bounded]
    if (quantum == 0.0).any():
        raise NumericalError("plasma quantum hbar*omega_p underflows float64; no level count")
    level_count = np.full(j.size, math.inf)
    with np.errstate(over="ignore"):
        level_count[bounded] = height[bounded] / quantum

    well_index = flux_of[j]
    wells = np.bincount(well_index, minlength=phi_e.size)
    position = np.arange(j.size) - (np.cumsum(wells) - wells)[well_index]
    count = wells[well_index]
    label = np.select(
        [count == 1, position == 0, position == count - 1],
        ["global", "left", "right"],
        "interior",
    )
    return WellSweep(
        flux_index=well_index,
        well_count=count,
        minimum_phase=roots[j],
        barrier_phase=barrier,
        barrier_height=height,
        plasma_frequency=omega,
        level_count=level_count,
        well_label=label,
        bounded=bounded,
    )


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
        If beta_L is too large for a :func:`find_extrema_sweep` scan at
        the scan step, which also bounds the loop over branches here.
    """
    beta = beta_L(p)
    if beta <= 1.0:
        return []
    _check_scan_size(beta)
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
