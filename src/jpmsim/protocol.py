"""Monte Carlo model of counter-based qubit measurement.

One measurement shot prepares a cavity pointer state with a drive
pulse of length t_prep, lets the pointer propagate to the capture
cavity, and asks a threshold detector whether it switched.  The shot
model is phenomenological: qubit relaxation during preparation,
imperfect bright detection, and dark counts are independent Bernoulli
events with configurable rates.  On top of single shots the module builds fidelity
budgets, detector-read Ramsey and Rabi datasets, photon-number
calibration via the qubit frequency shift, post-measurement depletion
recovery, and IQ-plane discrimination of the detector's classical
output.

Randomness contract: every shot consumes exactly 5 uniform draws in a
pinned order -- relaxation, capture, dark count, then the x and y
quadrature noise, one sample each.  Normal deviates come
from the inverse CDF of the uniforms, so the draw count never depends
on outcomes and a batch of shots is bit-identical to the same shots
simulated one at a time from the same generator.  Generator.random
fills its output in C order from one stream, so the shot paths draw a
block in row chunks of at most SHOT_CHUNK_DRAWS uniforms and still
consume exactly the numbers one draw of the whole block would.  A
single shot (simulate_shot) reads its 5 draws as Python floats, passes
the first three to _switches, as the block paths do, and applies the
rule of _iq_points to the last two, so its result is bit-identical to a
one-row block.  A path makes every draw of its layout, read or not:
fidelity_budget reads only the three switch draws, and the label path
of iq_discriminate (2 draws a shot), for a model whose centroid line
runs along I or Q, only that quadrature's uniform, which it compares
with a per-label cutoff instead of transforming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import NumericalError


SPURIOUS_PHOTONS = 100.0
"""Spurious capture-cavity photon number released by one detector switch."""

DEFAULT_DEPLETION_RATE = math.log(1.0 / 0.05) / 40e-9
"""Depletion rate leaving 5% of the spurious photons after 40 ns."""

DEFAULT_DEPHASING_PER_PHOTON = -math.log(0.95) / (
    SPURIOUS_PHOTONS * math.exp(-DEFAULT_DEPLETION_RATE * 40e-9)
)
"""Ramsey-contrast suppression per residual photon, giving 0.95 at 40 ns."""

SHOT_CHUNK_DRAWS = 2**17
"""Uniforms :func:`fidelity_budget` and the label path of
:func:`iq_discriminate` draw at once.  A chunk holds at least one whole
shot, so their working set stays near this many draws whatever the shot
count."""

CUTOFF_GUARD_STEPS = 2**23
"""Half-width, in steps of 2^-53, of the band of uniforms around a
label's cutoff that :func:`iq_discriminate` classifies through the
points themselves rather than by the cutoff."""

MAX_SHOT_DRAWS = 10**9
"""Most uniforms one :func:`fidelity_budget` or :func:`iq_discriminate`
call draws (a budget of 10^8 shots per state), so a huge
shot count is refused instead of drawing for hours."""


@dataclass(frozen=True)
class ProtocolConfig:
    """Parameters of the full measurement cycle.

    Parameters
    ----------
    t_prep:
        Pointer preparation pulse length in seconds.
    t1:
        Qubit energy relaxation time in seconds.
    dark_prob:
        Per-shot probability of a switch with no bright pointer.
    bright_detect_prob:
        Probability that a surviving bright pointer causes a switch;
        folds transfer efficiency and the capture threshold into one
        number.
    stark_shift_per_photon:
        Qubit angular-frequency shift per cavity photon (2 chi) in
        radians/second.
    n_bar_qubit_cavity:
        Mean qubit-cavity photon number at full calibration power.
    depletion_rate:
        Photon depletion rate during the reset interval in 1/second.
    rng_seed:
        Seed for every stochastic operation that owns its generator.
    relaxation_override:
        If not None, use this preparation relaxation probability
        instead of the T1 average over the preparation pulse; the
        default pins the nominal 5% budget entry while
        relaxation_error stays an honest model.
    """

    t_prep: float = 780e-9
    t1: float = 6.6e-6
    dark_prob: float = 0.02
    bright_detect_prob: float = 0.99
    stark_shift_per_photon: float = -2.0 * math.pi * 2e6
    n_bar_qubit_cavity: float = 10.0
    depletion_rate: float = DEFAULT_DEPLETION_RATE
    rng_seed: int = 12345
    relaxation_override: float | None = 0.05

    def __post_init__(self) -> None:
        for name in ("t_prep", "t1", "depletion_rate"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        for name in ("dark_prob", "bright_detect_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        if self.relaxation_override is not None and not 0.0 <= self.relaxation_override <= 1.0:
            raise ValueError("relaxation_override must lie in [0, 1] or be None")
        if self.n_bar_qubit_cavity < 0.0:
            raise ValueError("n_bar_qubit_cavity must be non-negative")

    @property
    def relaxation_prob(self) -> float:
        """Preparation relaxation probability the shot model actually uses."""
        if self.relaxation_override is not None:
            return self.relaxation_override
        return relaxation_error(self.t_prep, self.t1)


@dataclass(frozen=True)
class IqModel:
    """Gaussian model of the two detector-output clouds in the IQ plane.

    A shot records one sample per quadrature, so sigma is the per-axis
    standard deviation of its IQ point.  ``n_samples`` is the class
    constant 1, not a field; only the benchmark's draw notes read it.
    """

    centroid_0: tuple[float, float] = (0.0, 0.0)
    centroid_1: tuple[float, float] = (1.0, 0.0)
    sigma: float = 1.0 / 7.07
    n_samples: ClassVar[int] = 1

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError("sigma must be finite and positive")
        if self.centroid_0 == self.centroid_1:
            raise ValueError("centroids must be distinct")
        if not math.isfinite(self.separation / self.sigma):
            raise ValueError("centroid separation over sigma is out of float64 range")

    @property
    def separation(self) -> float:
        """Centroid distance d."""
        return math.hypot(
            self.centroid_1[0] - self.centroid_0[0],
            self.centroid_1[1] - self.centroid_0[1],
        )


DEFAULT_IQ_MODEL = IqModel()


@dataclass(frozen=True)
class ShotResult:
    """Outcome of one measurement shot."""

    switch_bit: int
    cause: str
    iq_point: tuple[float, float]

    def __post_init__(self) -> None:
        if self.switch_bit not in (0, 1):
            raise ValueError("switch_bit must be 0 or 1")
        if self.cause not in ("bright_capture", "dark_count", "none"):
            raise ValueError(f"unknown cause {self.cause!r}")
        if (self.switch_bit == 1) != (self.cause != "none"):
            raise ValueError("switch_bit must be 1 exactly when cause is not none")


def relaxation_error(t_prep: float, t1: float) -> float:
    """Probability an excitation decays during the preparation window.

    Averages the survival probability e^{-t/T1} uniformly over the
    window, giving 1 - (T1/t_prep)(1 - e^{-t_prep/T1}); for short
    windows this is t_prep/(2 T1).  Raises NumericalError where the
    ratio T1/t_prep is out of float64 range.
    """
    if not (t_prep > 0.0 and t1 > 0.0):
        raise ValueError("t_prep and t1 must be positive")
    error = 1.0 + (t1 / t_prep) * math.expm1(-t_prep / t1)
    if not math.isfinite(error):
        raise NumericalError(f"relaxation error is not finite for T1/t_prep = {t1 / t_prep:.3g}")
    return error


def _iq_points(model: IqModel, bright, uniforms) -> np.ndarray:
    """IQ points of shots, shape (n, 2).

    Each shot sits at centroid_1 where bright (a bool array), else at
    centroid_0, plus sigma times the normal deviates of its x and y
    uniforms, the (n, 2) array ``uniforms``, which the points overwrite.
    """
    from scipy.special import ndtri

    points = ndtri(uniforms, out=uniforms)
    points *= model.sigma
    points += np.where(bright[:, None], model.centroid_1, model.centroid_0)
    return points


def _check_shot_draws(n_shots: int, width: int) -> None:
    """Refuse n_shots shots of width uniforms each when that is more than
    MAX_SHOT_DRAWS draws."""
    if not n_shots * width <= MAX_SHOT_DRAWS:
        raise NumericalError(
            f"{n_shots:.3g} shots of {width} draws need more than {MAX_SHOT_DRAWS:.0e} uniform draws"
        )


def _chunks(n_shots: int, width: int):
    """Consecutive (rows, count) slices over n_shots shots of width draws,
    each at most SHOT_CHUNK_DRAWS draws and at least one shot."""
    step = max(1, SHOT_CHUNK_DRAWS // width)
    for start in range(0, n_shots, step):
        stop = min(start + step, n_shots)
        yield slice(start, stop), stop - start


def _switches(qubit_excited: bool, relax, capture, dark, cfg: ProtocolConfig):
    """Switch causes of shots, as (captured, dark, relaxed).

    relax, capture and dark are the first three draws of the pinned
    layout: one float each for a single shot, or one column each for a
    block of shots.  A shot switches where captured | dark; relaxed and
    captured are False for a ground-state qubit, whose other two draws
    are not read.  Besides the qubit_excited test the rule uses only <
    and >, where a > b is "a and not b" on bools and bool arrays alike.
    """
    relaxed = qubit_excited and relax < cfg.relaxation_prob
    captured = qubit_excited and (capture < cfg.bright_detect_prob) > relaxed
    return captured, (dark < cfg.dark_prob) > captured, relaxed


def simulate_shot(
    qubit_excited: bool,
    cfg: ProtocolConfig,
    rng: np.random.Generator,
    iq_model: IqModel = DEFAULT_IQ_MODEL,
) -> ShotResult:
    """Simulate one measurement shot.

    Bright capture requires the excitation to survive preparation and
    the detector to fire on it; a dark count can fire the detector on
    any shot a bright pointer did not already switch.

    The shot draws its 5 uniforms as Python floats: the three switch
    draws go through _switches, and each IQ axis is sigma times the
    normal deviate of its draw plus the centroid of the switch outcome.
    So the result is bit-identical to a one-row block through those
    kernels, without their per-call array overhead.
    """
    from scipy.special import ndtri

    u = rng.random(5)
    captured, dark, _ = _switches(bool(qubit_excited), *u[:3].tolist(), cfg)
    switch = captured or dark
    z_x, z_y = ndtri(u[3:]).tolist()
    c_x, c_y = iq_model.centroid_1 if switch else iq_model.centroid_0
    cause = "bright_capture" if captured else "dark_count" if dark else "none"
    return ShotResult(int(switch), cause, (float(iq_model.sigma * z_x + c_x), float(iq_model.sigma * z_y + c_y)))


def fidelity_budget(cfg: ProtocolConfig, n_shots: int, iq_model: IqModel | None = None) -> dict:
    """Monte Carlo raw-fidelity budget over n_shots per prepared state.

    Runs an excited-state batch then a ground-state batch from one
    generator seeded with cfg.rng_seed and partitions every error shot
    by its cause, so the returned terms satisfy
    F_raw + epsilon_relax + epsilon_dark + epsilon_other = 1 exactly:

    - epsilon_relax: excited shots lost to preparation relaxation (and
      not rescued by a dark count),
    - epsilon_other: excited shots whose surviving pointer the detector
      missed (again without a dark-count rescue),
    - epsilon_dark: ground shots that switched anyway.

    Only the three switch columns of each shot are read, but all 5
    draws of the pinned layout are made, so the budget consumes the
    stream exactly as the same shots through simulate_shot.
    Each block is drawn and counted in chunks of at most
    SHOT_CHUNK_DRAWS uniforms, so memory stays flat in n_shots; each
    term is an integer count over n_shots.  Raises NumericalError,
    before drawing, for more than MAX_SHOT_DRAWS uniforms in all.

    iq_model is not read: no IQ model changes a shot's draws.  The
    parameter stays for callers that still pass one, as the benchmark's
    allocation probe does.
    """
    if n_shots < 10_000:
        raise ValueError("n_shots must be at least 10^4 for a stable budget")
    _check_shot_draws(2 * n_shots, 5)
    rng = np.random.default_rng(cfg.rng_seed)
    n_miss = n_relax = n_dark = 0
    for _, count in _chunks(n_shots, 5):
        captured, dark, relaxed = _switches(True, *rng.random((count, 5))[:, :3].T, cfg)
        miss = ~(captured | dark)
        n_miss += int(np.count_nonzero(miss))
        n_relax += int(np.count_nonzero(miss & relaxed))
    for _, count in _chunks(n_shots, 5):
        n_dark += int(np.count_nonzero(_switches(False, *rng.random((count, 5))[:, :3].T, cfg)[1]))

    eps_dark = n_dark / n_shots
    return {
        "F_raw": 1.0 - n_miss / n_shots - eps_dark,
        "epsilon_relax": n_relax / n_shots,
        "epsilon_dark": eps_dark,
        "epsilon_other": (n_miss - n_relax) / n_shots,
    }


def ramsey_fringe(
    detunings,
    delays,
    cfg: ProtocolConfig,
    *,
    t2: float | None = None,
    amplitude: float = 1.0,
    n_shots: int | None = None,
) -> np.ndarray:
    """Detector-read Ramsey fringes versus drive detuning and delay.

    The ideal two-pulse excitation probability
    A e^{-tau/T2} cos^2(Delta tau/2) is mapped through the
    measurement channel.  Returns a matrix of shape
    (len(detunings), len(delays)); with n_shots set, each cell is a
    binomial estimate from a generator seeded with cfg.rng_seed.
    """
    if t2 is None:
        t2 = cfg.t1
    if not 0.0 < t2 <= 2.0 * cfg.t1:
        raise ValueError("t2 must be positive and at most 2 T1")
    if not 0.0 <= amplitude <= 1.0:
        raise ValueError("amplitude must lie in [0, 1]")
    detunings = np.asarray(detunings, dtype=float)
    delays = np.asarray(delays, dtype=float)
    if np.any(delays < 0.0):
        raise ValueError("delays must be non-negative")
    with np.errstate(over="ignore", invalid="ignore"):
        phase = 0.5 * np.outer(detunings, delays)
        ideal = amplitude * np.exp(-delays / t2) * np.cos(phase) ** 2
    return _finish_sweep(ideal, cfg, n_shots)


def rabi_chevron(
    detunings,
    durations,
    cfg: ProtocolConfig,
    *,
    rabi_rate: float = 2.0 * math.pi * 5e6,
    n_shots: int | None = None,
) -> np.ndarray:
    """Detector-read Rabi chevron versus drive detuning and pulse length.

    Ideal excitation probability
    (Omega^2/(Omega^2 + Delta^2)) sin^2(sqrt(Omega^2 + Delta^2) t / 2)
    mapped through the measurement channel.  Returns a matrix of shape
    (len(detunings), len(durations)).
    """
    if not rabi_rate > 0.0:
        raise ValueError("rabi_rate must be positive")
    detunings = np.asarray(detunings, dtype=float)
    durations = np.asarray(durations, dtype=float)
    if np.any(durations < 0.0):
        raise ValueError("durations must be non-negative")
    with np.errstate(over="ignore", invalid="ignore"):
        generalized = np.hypot(rabi_rate, detunings)[:, None]
        weight = (rabi_rate / generalized) ** 2
        ideal = weight * np.sin(0.5 * generalized * durations) ** 2
    return _finish_sweep(ideal, cfg, n_shots)


def _finish_sweep(ideal: np.ndarray, cfg: ProtocolConfig, n_shots: int | None) -> np.ndarray:
    """Map ideal excitation probabilities through the measurement channel.

    P_measured = dark_prob + V P_ideal, with the visibility
    V = (1 - eps_relax) p_bright (1 - eps_dark) equal to the analytic raw
    fidelity of the shot model.  With n_shots set, each cell is a
    binomial estimate from a generator seeded with cfg.rng_seed.
    """
    if not np.isfinite(ideal).all():
        raise NumericalError("sweep probability is not finite: a phase or rotation angle overflows float64")
    visibility = (1.0 - cfg.relaxation_prob) * cfg.bright_detect_prob * (1.0 - cfg.dark_prob)
    measured = cfg.dark_prob + visibility * ideal
    if n_shots is None:
        return measured
    if n_shots < 1:
        raise ValueError("n_shots must be positive")
    rng = np.random.default_rng(cfg.rng_seed)
    return rng.binomial(n_shots, measured) / n_shots


def stark_calibration(drive_powers, cfg: ProtocolConfig) -> tuple[np.ndarray, np.ndarray]:
    """Map drive powers to (photon number, qubit shift) arrays.

    Photon number is linear in power and anchored to
    cfg.n_bar_qubit_cavity at the largest power in the sweep; the shift
    is stark_shift_per_photon times the photon number, so the inverse
    map shift -> photon number is exact.  Both arrays have one entry per
    drive power, in order.
    """
    if cfg.stark_shift_per_photon == 0.0:
        raise ValueError("stark_shift_per_photon must be nonzero for calibration")
    powers = np.asarray(drive_powers, dtype=float)
    if powers.size == 0:
        raise ValueError("drive_powers must be non-empty")
    if np.any(powers < 0.0):
        raise ValueError("drive_powers must be non-negative")
    p_max = float(powers.max())
    if p_max == 0.0:
        raise ValueError("at least one drive power must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        n_bar = cfg.n_bar_qubit_cavity * (powers / p_max)
        shifts = cfg.stark_shift_per_photon * n_bar
    if not (np.isfinite(n_bar).all() and np.isfinite(shifts).all()):
        raise NumericalError("stark photon numbers or shifts overflow float64")
    return n_bar, shifts


def depletion_recovery(t_dep, cfg: ProtocolConfig) -> dict:
    """Residual backaction after a depletion interval of length t_dep.

    The SPURIOUS_PHOTONS released by a switch decay at
    cfg.depletion_rate; the residual population suppresses Ramsey
    contrast as e^{-c n}, c = DEFAULT_DEPHASING_PER_PHOTON, and shifts
    the qubit by stark_shift_per_photon * n.  Accepts scalar or array
    t_dep: each value of the returned dict is an array of t_dep's shape,
    or a float for a scalar.  A frequency shift that overflows float64
    raises NumericalError.
    """
    t_dep = np.asarray(t_dep, dtype=float)
    if np.any(t_dep < 0.0):
        raise ValueError("t_dep must be non-negative")
    # As in Python float arithmetic, a product past float64 is +-inf with
    # no warning: a huge rate times a huge time leaves no photons.
    with np.errstate(over="ignore"):
        residual = SPURIOUS_PHOTONS * np.exp(-cfg.depletion_rate * t_dep)
        out = {
            "residual_photons": residual,
            "ramsey_contrast": np.exp(-DEFAULT_DEPHASING_PER_PHOTON * residual),
            "frequency_shift": cfg.stark_shift_per_photon * residual,
        }
    if not np.isfinite(out["frequency_shift"]).all():
        raise NumericalError("depletion frequency shift overflows float64")
    return out if t_dep.ndim else {key: float(value) for key, value in out.items()}


def separation_fidelity(model: IqModel) -> float:
    """Discrimination fidelity from Gaussian overlap alone.

    1 - erfc(d / (2 sqrt(2) sigma)) / 2 for centroid distance d and
    per-shot cloud width sigma.
    """
    from scipy.special import erfc

    return 1.0 - 0.5 * float(erfc(model.separation / (2.0 * math.sqrt(2.0) * model.sigma)))


def _cutoff_classifier(model: IqModel, read: int, label: int, above):
    """Classifier of shots of one label by their read uniform.

    For a centroid line along IQ axis ``read``, a shot's projection is +-(sigma ndtri(u) + c) for its read uniform u:
    the other deviate enters times an exact zero.  fl(fl(sigma z) + c)
    is monotone in z, so ``above`` (points -> projection > threshold) is
    monotone in the deviate, and the exact ndtri is strictly increasing.
    A search over the grid k 2^-53 of Generator.random, on blocks of
    candidate rows through _iq_points and ``above`` (the unread uniform
    set to 0.5, whose deviate is 0), finds a step K at which the
    prediction turns from its value at u = 0 (deviate -inf) to its value
    at u = 1 (+inf).

    The computed ndtri is not monotone on that grid, but Cephes, whose
    ndtri scipy evaluates, states a peak relative error of 7.2e-16: below
    1e-15, so below 8.3e-15 absolutely for any nonzero uniform, whose
    deviate is at most 8.21 in magnitude.  The exact deviate rises by at
    least sqrt(2 pi) 2^-53 per grid step, so over CUTOFF_GUARD_STEPS =
    2^23 steps by at least 2.3e-9, about 10^5 times both errors together.
    So a uniform more than 2^23 steps below K has a computed deviate
    below that of K - 1 and predicts as K - 1 does, and one more than
    2^23 steps above K predicts as K does.  The returned function
    predicts so, and sends the uniforms inside the band through the
    classifier itself, so it equals the classification of the whole
    point per shot wherever the unread uniform is nonzero.  Returns (K, that function).
    """

    def exact(u):
        rows = np.full((u.size, 2), 0.5)
        rows[:, read] = u
        return above(_iq_points(model, np.full(u.size, bool(label)), rows))

    # The prediction at u = 1 (deviate +inf); at u = 0 (-inf) it is the other one.
    p_hi = exact(np.ones(1))[0]
    lo, hi = 0, 2**53
    while hi - lo > 1:
        step = -(-(hi - lo) // 64)
        ks = np.arange(lo + step, hi, step)
        flipped = np.flatnonzero(exact(ks * 2.0**-53) == p_hi)
        i = int(flipped[0]) if flipped.size else ks.size
        lo, hi = (int(ks[i - 1]) if i else lo), (int(ks[i]) if i < ks.size else hi)
    band_lo, band_hi = (hi - CUTOFF_GUARD_STEPS) * 2.0**-53, (hi + CUTOFF_GUARD_STEPS) * 2.0**-53

    def classify(u):
        u = np.ascontiguousarray(u)
        below, beyond = u < band_lo, u > band_hi
        predicted = beyond if p_hi else below
        if np.count_nonzero(below) + np.count_nonzero(beyond) < u.size:
            band = np.flatnonzero(~(below | beyond))
            predicted[band] = exact(u[band])
        return predicted

    return hi, classify


def iq_discriminate(model: IqModel, shots, rng: np.random.Generator | None = None) -> dict:
    """Classify IQ points by projection onto the centroid line.

    shots may be ShotResult records (their stored iq_points and
    switch_bits are used) or an integer label array, in which case
    fresh Gaussian points are drawn from the model using rng (2 uniforms
    per shot, x then y), in chunks of at most SHOT_CHUNK_DRAWS uniforms that
    are classified and counted one by one.  More than MAX_SHOT_DRAWS
    uniforms raise NumericalError before any is drawn.  The threshold is
    the projection of the centroid midpoint; single_shot_fidelity is the
    empirical correct-label rate and separation_fidelity the
    Gaussian-overlap bound.  A threshold, point or projection that
    overflows float64 raises NumericalError; for drawn points that is
    decided from the model before any draw, so it does not depend on rng.

    Every draw of the pinned layout is made.  A model whose centroid
    line runs along the I or Q axis reads only that column of each shot,
    and classifies it by a per-label cutoff on the uniform
    (_cutoff_classifier), found once per call, instead of by ndtri; its
    other column is never transformed.  An off-axis model builds each
    point through _iq_points.  A label array that is not
    one-dimensional raises ValueError before any draw.
    """
    if len(shots) == 0:
        raise ValueError("shots must be non-empty")
    c0 = np.asarray(model.centroid_0, dtype=float)
    c1 = np.asarray(model.centroid_1, dtype=float)
    axis = (c1 - c0) / model.separation
    try:
        with np.errstate(over="raise", invalid="raise"):
            # c0 + c1 can overflow where the difference, which IqModel bounds, does not.
            threshold = float((c0 + 0.5 * (c1 - c0)) @ axis)

            def above(points):
                return points @ axis > threshold

            if isinstance(shots[0], ShotResult):
                labels = np.array([s.switch_bit for s in shots])
                points = np.array([s.iq_point for s in shots], dtype=float)
                wrong = int(np.count_nonzero(above(points) != labels))
            else:
                # Checked as given: a cast to int would truncate 0.5 to 0.
                # Each chunk is compared as a copy: numpy compares a zero-stride
                # label view (cli._iq's) about 20 times slower than the copy costs.
                labels = np.asarray(shots)
                if labels.ndim != 1:
                    raise ValueError("labels must be a one-dimensional array")
                n_ones = 0
                for rows, _ in _chunks(labels.size, 1):
                    part = labels[rows].copy()
                    if np.any((part != 0) & (part != 1)):
                        raise ValueError("labels must be 0 or 1")
                    n_ones += int(np.count_nonzero(part))
                if rng is None:
                    raise ValueError("an rng is required to draw points for label input")
                _check_shot_draws(labels.size, 2)
                # A normal deviate of a nonzero float64 uniform is at most 8.21
                # in magnitude, so no drawn point or projection reaches past
                # these bounds.  Generator.random also draws 0.0 (probability
                # 2^-53), whose deviate is -inf: a point at -inf along the
                # centroid line, which is classified.
                reach = (np.abs(np.stack([c0, c1])) + 8.25 * model.sigma) @ np.abs(axis)
                if not np.isfinite(reach).all():
                    raise NumericalError("IQ points this model can draw overflow float64")
                wrong = 0
                if 0.0 in axis:
                    read = int(axis[0] == 0.0)
                    # Bool labels: numpy compares a bool array with an int about
                    # five times slower than with a bool.
                    counts = ((False, labels.size - n_ones), (True, n_ones))
                    by_cutoff = {label: _cutoff_classifier(model, read, label, above)[1] for label, n in counts if n}
                    for rows, count in _chunks(labels.size, 2):
                        part = labels[rows].copy()
                        u = rng.random((count, 2))[:, read]
                        ones = int(np.count_nonzero(part))
                        for label, n in ((False, count - ones), (True, ones)):
                            if n:
                                predicted = by_cutoff[label](u if n == count else u[part == label])
                                wrong += int(np.count_nonzero(predicted != label))
                else:
                    for rows, count in _chunks(labels.size, 2):
                        part = labels[rows].copy()
                        points = _iq_points(model, part == 1, rng.random((count, 2)))
                        wrong += int(np.count_nonzero(above(points) != part))
    except FloatingPointError as exc:
        raise NumericalError(f"IQ threshold or points overflow float64: {exc}") from None

    return {
        "single_shot_fidelity": 1.0 - wrong / labels.size,
        "separation_fidelity": separation_fidelity(model),
        "threshold": threshold,
    }
