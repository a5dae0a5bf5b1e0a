"""Potential landscape of a flux-biased photomultiplier circuit.

The circuit is a single Josephson junction shunted by a capacitor and
enclosed in a gradiometric loop.  Its potential energy as a function of
the junction phase ``delta`` is

    U(delta) = -E_J cos(delta)
               + (Phi0 / 2 pi)^2 (delta - 2 pi Phi_ext / Phi0)^2 / (2 L_g)

with Josephson energy ``E_J = I0 Phi0 / 2 pi``.  Depending on the
screening parameter ``beta_L = 2 pi L_g I0 / Phi0`` and the applied flux,
the landscape holds one or more local minima.  The extrema are the
roots of the residual ``sin(delta) - (phi_e - delta)/beta_L``, with
``phi_e = 2 pi Phi_ext / Phi0``, whose turning points
``cos(delta) = -1/beta_L`` have a closed form: they cut the phase axis
into segments that each hold at most one root, and they give the bias
points where wells appear or vanish.  Within its segment each root is
refined by Newton's method, with the residual's slope
``cos(delta) + 1/beta_L``, kept inside the bracket by bisection
(rtsafe, *Numerical Recipes* 9.4).  This module locates the extrema,
characterizes each well (depth, small-oscillation plasma frequency,
semiclassical level count) and finds those bias points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, PHI0
from .errors import NumericalError, bounded_phase, require_finite_positive

REFINE_TOL = 1e-12
"""Extremum refinement tolerance in radians.  A root stops once its
bracket is at most this wide, or once its Newton step is at most a
quarter of it.  Every bracket segment is less than 2 pi wide, so the
bisection fallback alone would take ceil(log2(2 pi / REFINE_TOL))
halvings (43 at 1e-12)."""

MAX_SEGMENTS = 10**5
"""Most monotone segments :func:`_sweep_extrema` cuts one flux's
bracket into (beta_L about 1.6e5), so a huge but finite beta_L is
refused instead of allocating gigabytes or looping for hours."""

MAX_REFINE_PASSES = 100
"""Most passes, each a Newton or a bisection step, that one root of
:func:`_sweep_extrema` may take; a root still refining then is
refused.  Most roots take 4 to 7; one within 1e-6 Phi0 of a tangency up
to about 15, and a triple root (beta_L = 1 at Phi0 / 2) 27."""

SWEEP_BLOCK_SEGMENTS = 2**15
"""Bracket segments :func:`_sweep_extrema` solves at once.  A block
holds at least one whole flux, so a sweep's working set stays near this
many segments whatever its length."""


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

    The flux quantum is the module constant PHI0, not a field.
    """

    critical_current: float
    loop_inductance: float
    shunt_capacitance: float

    def __post_init__(self) -> None:
        require_finite_positive(self, "critical_current", "loop_inductance", "shunt_capacitance")

    @property
    def josephson_energy(self) -> float:
        """Josephson energy E_J = I0 Phi0 / 2 pi in joules."""
        return self.critical_current * PHI0 / (2.0 * math.pi)


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

    A well is unbounded exactly when it is the only one at its flux
    (``well_count == 1``).
    """

    flux_index: np.ndarray
    well_count: np.ndarray
    minimum_phase: np.ndarray
    barrier_phase: np.ndarray
    barrier_height: np.ndarray
    plasma_frequency: np.ndarray
    level_count: np.ndarray
    well_label: np.ndarray


def _phase_bias(external_flux):
    return 2.0 * math.pi * external_flux / PHI0


def _inductive_energy(p: JpmParams) -> float:
    """(Phi0 / 2 pi)^2 / L_g in joules: the curvature of U's quadratic term."""
    return (PHI0 / (2.0 * math.pi)) ** 2 / p.loop_inductance


def _energy(delta, phi_e, p: JpmParams):
    quad_scale = 0.5 * _inductive_energy(p)
    # float_power squares with the C library's pow, where an array's ** 2
    # multiplies: the recorded potential_sweep artifacts hold pow's bits, and
    # the product (an ulp off in some squares) is no more stable without FMA.
    return -p.josephson_energy * np.cos(delta) + quad_scale * np.float_power(
        np.asarray(delta) - phi_e, 2.0
    )


def potential_curvature(delta, p: JpmParams):
    """Second derivative d2U/ddelta2 in joules.

    Independent of the applied flux: the quadratic term contributes the
    constant (Phi0 / 2 pi)^2 / L_g.
    """
    return p.josephson_energy * np.cos(delta) + _inductive_energy(p)


def beta_L(p: JpmParams) -> float:
    """Screening parameter beta_L = 2 pi L_g I0 / Phi0."""
    return 2.0 * math.pi * p.loop_inductance * p.critical_current / PHI0


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
    omega = (2.0 * math.pi / PHI0) * np.sqrt(curvature / p.shunt_capacitance)
    return omega if omega.ndim else float(omega)


def _residual(delta, phi_e, beta: float):
    # Extremum condition rearranged to sin(delta) - (phi_e - delta)/beta_L = 0.
    return np.sin(delta) - (phi_e - delta) / beta


def _beta_turns(p: JpmParams):
    """(beta_L, turning points -/+ acos(-1/beta_L) of the residual modulo 2 pi; none for beta_L <= 1).

    The one set-up of both extremum searches.  Raises NumericalError for a
    beta_L with no finite inverse (below about 5.6e-309), or one whose
    bracket [phi_e - beta_L - 1, phi_e + beta_L + 1] holds more than
    MAX_SEGMENTS segments: it is 2 beta_L + 2 wide and the residual turns
    twice every 2 pi.
    """
    beta, params = beta_L(p), ("p.critical_current", "p.loop_inductance")
    if not (beta > 0.0 and math.isfinite(1.0 / beta)):
        raise NumericalError(f"beta_L {beta:.3g} has no finite inverse 1/beta_L", *params)
    if not (2.0 * beta + 2.0) / math.pi <= MAX_SEGMENTS:
        raise NumericalError(f"beta_L {beta:.3g} needs more than {MAX_SEGMENTS:.0e} extremum bracket segments", *params)
    return beta, (np.array([-1.0, 1.0]) * math.acos(-1.0 / beta) if beta > 1.0 else np.empty(0))


def _block_roots(phi_e, beta: float, turn, reach: int):
    """Roots of the residual for a block of fluxes.

    Each flux's bracket is cut at the residual's turning points
    ``2 pi k + turn``, where its slope cos(delta) + 1/beta_L vanishes, for
    the 2 reach + 1 integers k nearest floor(phi_e / 2 pi); those outside
    the bracket are clipped to its ends.  A segment between two cuts is
    2 acos(-1/beta_L) < 2 pi or 2 pi - 2 acos(-1/beta_L) < pi wide, and an
    uncut bracket (beta_L <= 1) 2 beta_L + 2 <= 4.

    Each crossing segment is refined from its midpoint by passes over
    every root still refining.  A pass evaluates the residual, moves the
    bracket end of that sign to the iterate, and takes the Newton step
    where it lands strictly inside the bracket and is at most half the
    last step; otherwise it bisects.  A root stops on its own rule, with
    REFINE_TOL read at call time: a Newton step within REFINE_TOL / 4 or
    too small to move the iterate (kept, clipped into the bracket), or a
    bracket within REFINE_TOL or with no float inside (its next iterate is
    kept).  The last two stop roots where the float spacing exceeds
    REFINE_TOL, |delta| beyond about 8e3.  A root's bits therefore depend
    on its own segment alone.  Returns (row, root) arrays, row indexing
    ``phi_e``, in ascending order of row and then of root.

    Raises
    ------
    NumericalError
        If a root is still refining after MAX_REFINE_PASSES passes.
    """
    lo, hi = phi_e - beta - 1.0, phi_e + beta + 1.0
    k = np.floor(phi_e / (2.0 * math.pi))[:, None, None] + np.arange(-reach, reach + 1.0)[:, None]
    cuts = (2.0 * math.pi * k + turn).reshape(phi_e.size, -1)
    ends = np.column_stack([lo, np.clip(cuts, lo[:, None], hi[:, None]), hi])
    sign = np.sign(_residual(ends, phi_e[:, None], beta))

    # Between two cuts the residual is monotone, so a segment holds a root
    # exactly where the residual changes sign across it.  A zero at a cut
    # is a tangent touch, an inflection of the potential, not an extremum.
    row, seg = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0.0)
    root = np.empty(row.size)
    # The roots still moving: their index into root, flux, bracket, the
    # residual's sign at the bracket's lower end (lo only moves to points
    # where the residual has it), iterate and last step length.
    live = np.arange(row.size)
    c = phi_e[row]
    lo, hi = ends[row, seg], ends[row, seg + 1]
    s_lo = sign[row, seg]
    x, last = 0.5 * (lo + hi), hi - lo
    tol = REFINE_TOL
    for _ in range(MAX_REFINE_PASSES):
        f = _residual(x, c, beta)
        left = s_lo * f <= 0.0
        hi = np.where(left, x, hi)
        lo = np.where(left, lo, x)
        # The slope vanishes only at a turning point; a step there is inf
        # or NaN and fails every test below.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = f / (np.cos(x) + 1.0 / beta)
        newton, size, mid = x - step, np.abs(step), 0.5 * (lo + hi)
        close = (size <= 0.25 * tol) | (newton == x)
        take = (lo < newton) & (newton < hi) & (size <= 0.5 * last)
        x = np.where(take, newton, mid)
        last = np.where(take, size, 0.5 * (hi - lo))
        done = close | (hi - lo <= tol) | (mid == lo) | (mid == hi)
        root[live[done]] = np.where(close, np.clip(newton, lo, hi), x)[done]
        keep = ~done
        live, c, lo, hi, s_lo, x, last = (a[keep] for a in (live, c, lo, hi, s_lo, x, last))
        if not live.size:
            return row, root
    raise NumericalError(
        f"extremum refinement did not converge in {MAX_REFINE_PASSES} passes"
        f" at flux {float(c[0]) / (2.0 * math.pi)} Phi0"
    )


def _sweep_extrema(fluxes, p: JpmParams):
    """Locate every extremum of the potential at every flux of a sweep, as flat arrays.

    ``fluxes`` is a one-dimensional array of applied fluxes in webers.
    Every root of the residual lies in the bracket
    ``[phi_e - beta_L - 1, phi_e + beta_L + 1]``: outside it the linear
    term exceeds 1 in magnitude.  The bracket is cut at the residual's
    turning points, none for beta_L <= 1, and each segment across which
    the residual changes sign holds exactly one root, however close a
    root pair lies to a tangency.  A root's bits depend on its own
    segment alone, so a flux gets the same bits alone or in any sweep.
    The fluxes are solved in blocks of about SWEEP_BLOCK_SEGMENTS
    segments, so memory stays bounded whatever the sweep length.

    Returns (phi_e, flux_of, offsets, roots, is_minimum): the phase bias
    of each flux, the flux index of each extremum, and the extrema of flux
    i as ``roots[offsets[i]:offsets[i + 1]]`` in ascending phase order,
    ``is_minimum`` true at the minima.  Each count is odd and minima and
    maxima alternate.

    Raises
    ------
    NumericalError
        If beta_L has no finite inverse or needs more than MAX_SEGMENTS
        segments per flux, a bracket end |phi_e| + beta_L + 1 passes
        errors.PHASE_LIMIT or is NaN (carrying ``fluxes``), a flux has an
        inconsistent extremum structure, or a root does not converge in
        MAX_REFINE_PASSES passes.
    ValueError
        If ``fluxes`` is not one-dimensional.
    """
    fluxes = np.asarray(fluxes, dtype=float)
    if fluxes.ndim != 1:
        raise ValueError("fluxes must be a one-dimensional array")
    beta, turn = _beta_turns(p)
    with np.errstate(over="ignore"):
        phi_e = _phase_bias(fluxes)
    # Every phase the solver evaluates lies in a bracket, so one bound on its far end covers them all.
    bounded_phase(np.abs(phi_e) + (beta + 1.0), "|phi_e| + beta_L + 1", "fluxes")
    # k within reach of floor(phi_e / 2 pi) puts turning points 2 pi k + turn
    # past both ends of the bracket, so every flux gets the same number of
    # segments.
    reach = math.ceil((beta + 1.0) / (2.0 * math.pi)) + 1
    per_block = max(1, SWEEP_BLOCK_SEGMENTS // (turn.size * (2 * reach + 1) + 1))

    flux_of, roots = [], []
    for start in range(0, fluxes.size, per_block):
        row, root = _block_roots(phi_e[start : start + per_block], beta, turn, reach)
        flux_of.append(start + row)
        roots.append(root)
    flux_of = np.concatenate(flux_of) if flux_of else np.empty(0, dtype=np.int64)
    roots = np.concatenate(roots) if roots else np.empty(0)

    # A flux whose extrema are not odd in number and alternating is
    # refused, not repaired.
    same_flux = flux_of[1:] == flux_of[:-1]
    is_minimum = np.cos(roots) + 1.0 / beta > 0.0
    counts = np.bincount(flux_of, minlength=fluxes.size)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    bad = counts % 2 == 0
    bad[flux_of[1:][same_flux & (is_minimum[1:] == is_minimum[:-1])]] = True
    if bad.any():
        i = int(np.argmax(bad))
        own = slice(offsets[i], offsets[i + 1])
        extrema = list(zip(roots[own].tolist(), np.where(is_minimum[own], "minimum", "maximum").tolist()))
        raise NumericalError(f"inconsistent extremum structure at flux {float(fluxes[i]) / PHI0} Phi0: {extrema}")
    return phi_e, flux_of, offsets, roots, is_minimum


def well_report_sweep(fluxes, p: JpmParams) -> WellSweep:
    """Characterize every local minimum at every flux of a sweep.

    ``fluxes`` is a one-dimensional array of applied fluxes in webers.
    For each minimum the barrier height is measured to the lowest
    adjacent maximum (the escape barrier).  A landscape with a single
    minimum has no barrier: the well is unbounded and labeled
    "global"; otherwise minima are "left", "right" or, between them,
    "interior".  Returns one :class:`WellSweep` for the whole sweep.

    Raises
    ------
    NumericalError
        As :func:`_sweep_extrema`, if the curvature at a minimum is not
        positive, or if a plasma quantum underflows (carrying the p fields).
    """
    phi_e, flux_of, offsets, roots, is_minimum = _sweep_extrema(fluxes, p)
    energy = _energy(roots, phi_e[flux_of], p)

    j = np.flatnonzero(is_minimum)
    well_index = flux_of[j]
    start, stop = offsets[well_index], offsets[well_index + 1]
    height = np.full(j.size, math.inf)
    barrier = np.full(j.size, math.nan)
    # The left maximum first, the right one only if lower by more than the
    # rounding of both energies.  An energy is good to a few ulp of
    # E_J + |U| (its cosine term is at most E_J, its quadratic term at most
    # E_J + |U|), and a landscape symmetric about the well has two heights
    # equal up to that rounding: such a tie keeps the left maximum.
    slack = 1e-13 * (p.josephson_energy + np.abs(energy))
    tie = np.zeros(j.size)
    for side, exists in ((j - 1, j - 1 >= start), (j + 1, j + 1 < stop)):
        side = np.clip(side, 0, max(roots.size - 1, 0))
        side_height = energy[side] - energy[j]
        lower = exists & (side_height < height - tie - slack[side])
        height = np.where(lower, side_height, height)
        barrier = np.where(lower, roots[side], barrier)
        tie = np.where(lower, slack[side], tie)

    wells = np.bincount(well_index, minlength=phi_e.size)
    position = np.arange(j.size) - (np.cumsum(wells) - wells)[well_index]
    count = wells[well_index]
    # A sole well has no adjacent maximum; every other well has one.
    bounded = count > 1
    omega = plasma_frequency(roots[j], p)
    quantum = HBAR * omega[bounded]
    if (quantum == 0.0).any():
        params = ("p.critical_current", "p.loop_inductance", "p.shunt_capacitance")
        raise NumericalError("plasma quantum hbar*omega_p underflows float64; no level count", *params)
    level_count = np.full(j.size, math.inf)
    with np.errstate(over="ignore"):
        level_count[bounded] = height[bounded] / quantum
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
    )


def critical_flux(p: JpmParams) -> list[float]:
    """Flux biases in webers where the count of minima changes.

    A well appears or vanishes where the line of the extremum condition
    is tangent to sin(delta), which requires
    ``cos(delta) = -1/beta_L`` (the turning points at which
    :func:`_sweep_extrema` cuts its brackets) simultaneously with the
    extremum condition itself.  Returns the tangency fluxes inside the principal
    sweep range [0, Phi0], in ascending order.  Empty for
    ``beta_L <= 1``: the line is then steeper than sin everywhere and
    exactly one extremum exists at every bias.

    Raises
    ------
    NumericalError
        As :func:`well_report_sweep` refuses beta_L: one with no finite
        inverse, or one too large (more than MAX_SEGMENTS segments per
        bracket), which also bounds the loop over branches here.
    """
    beta, turns = _beta_turns(p)
    fluxes = []
    k_max = int(beta / (2.0 * math.pi)) + 2
    for k in range(-k_max, k_max + 1):
        for turn in turns.tolist():
            delta_t = 2.0 * math.pi * k + turn
            phi_e = delta_t + beta * math.sin(delta_t)
            if 0.0 <= phi_e <= 2.0 * math.pi:
                fluxes.append(phi_e * PHI0 / (2.0 * math.pi))
    fluxes.sort()
    deduped = []
    for f in fluxes:
        if not deduped or f - deduped[-1] > 1e-15 * PHI0:
            deduped.append(f)
    return deduped
