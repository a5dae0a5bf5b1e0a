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
single shot (simulate_shot) reads its 5 draws as Python floats and
passes the first three to _switches, as the block paths do.  A path
makes every draw of its layout, read or not: fidelity_budget reads
only the three switch draws, and iq_fidelity (2 draws a shot) only the
uniform of the quadrature nearest the centroid line.  Its noise frame is
I/Q turned onto that line by at most 45 degrees: the read uniform gives
the deviate along the line, the other one the deviate across it, which
never changes a label and is never transformed.  Each class's read
uniforms are compared with one cutoff.

Every normal deviate and erfc value comes from _ndtri and _erfc:
step-for-step ports of the Cephes ndtri and erfc that scipy compiles,
with each polynomial written out as Horner steps in Cephes's order and
the same libm log and exp.  On a platform where scipy and Python call
one libm they equal scipy's results bit for bit (tests/test_protocol.py
checks this), so simulate_shot draws, and iq_fidelity classifies and
reports, exactly as through scipy, and the module imports no scipy.
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
"""Uniforms :func:`fidelity_budget` and :func:`iq_fidelity` draw at
once.  A chunk holds at least one whole shot, so their working set stays
near this many draws whatever the shot count."""

CUTOFF_GUARD_STEPS = 2**23
"""Half-width, in steps of 2^-53, of the band of uniforms around a
class's cutoff that :func:`iq_fidelity` classifies through the
projection itself rather than by the cutoff."""

MAX_SHOT_DRAWS = 10**9
"""Most uniforms one :func:`fidelity_budget` or :func:`iq_fidelity` call
draws for both classes together (a budget of 10^8 shots per state), so a
huge shot count is refused instead of drawing for hours."""


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


def _check_shot_draws(n_shots: int, width: int) -> None:
    """Refuse n_shots shots of width uniforms each when that is more than
    MAX_SHOT_DRAWS draws."""
    if not n_shots * width <= MAX_SHOT_DRAWS:
        raise NumericalError(
            f"{n_shots:.3g} shots of {width} draws need more than {MAX_SHOT_DRAWS:.0e} uniform draws"
        )


def _chunks(n_shots: int, width: int):
    """Shot counts of consecutive chunks over n_shots shots of width
    draws, each at most SHOT_CHUNK_DRAWS draws and at least one shot."""
    step = max(1, SHOT_CHUNK_DRAWS // width)
    for start in range(0, n_shots, step):
        yield min(step, n_shots - start)


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

    The shot reads its 5 uniforms once as Python floats: the three
    switch draws go through _switches, and each IQ axis is sigma times
    the normal deviate of its draw, from _ndtri, plus the centroid of
    the switch outcome.  So the result is bit-identical to a one-row
    block through _switches and scipy.special.ndtri, without their
    per-call array overhead or a scipy import.
    """
    relax, capture, dark_draw, u_x, u_y = rng.random(5).tolist()
    captured, dark, _ = _switches(bool(qubit_excited), relax, capture, dark_draw, cfg)
    switch = captured or dark
    z_x, z_y = _ndtri(u_x), _ndtri(u_y)
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
    for count in _chunks(n_shots, 5):
        captured, dark, relaxed = _switches(True, *rng.random((count, 5))[:, :3].T, cfg)
        miss = ~(captured | dark)
        n_miss += int(np.count_nonzero(miss))
        n_relax += int(np.count_nonzero(miss & relaxed))
    for count in _chunks(n_shots, 5):
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


# Cephes (S. L. Moshier, Methods and Programs for Mathematical Functions,
# 1989), ndtri.c and ndtr.c: the rational approximations scipy.special
# evaluates for ndtri and erfc.  Each polynomial below is Cephes's polevl
# or p1evl written out: its coefficients in Cephes's order, each Horner
# step one fl(fl(a x) + c).  polevl's first step 0.0 x + c0 is c0, and
# p1evl's 1.0 x + c1 is x + c1, bit for bit; a - c is a + (-c).
_EXP_MINUS_2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242e0
_MAXLOG = 7.09782712893383996843e2


def _ndtri(y: float) -> float:
    """Inverse of the standard normal CDF: Cephes ndtri, step for step.

    Only IEEE arithmetic, sqrt and the libm log that scipy's compiled
    ndtri also calls, with each polynomial written out as Horner steps
    in Cephes's order, so where both use one libm the result equals
    scipy.special.ndtri bit for bit (tests/test_protocol.py checks it).
    y is a uniform in [0, 1]; 0 and 1 give -inf and +inf.
    """
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    upper = y > 1.0 - _EXP_MINUS_2
    if upper:
        y = 1.0 - y
    if y > _EXP_MINUS_2:
        y = y - 0.5
        y2 = y * y
        # P0 / Q0
        x = y + y * (
            y2
            * (
                (((-5.99633501014107895267e1 * y2 + 9.80010754185999661536e1) * y2 - 5.66762857469070293439e1) * y2
                 + 1.39312609387279679503e1) * y2
                - 1.23916583867381258016e0
            )
            / (
                (((((((y2 + 1.95448858338141759834e0) * y2 + 4.67627912898881538453e0) * y2
                     + 8.63602421390890590575e1) * y2 - 2.25462687854119370527e2) * y2
                   + 2.00260212380060660359e2) * y2 - 8.20372256168333339912e1) * y2
                 + 1.59056225126211695515e1) * y2
                - 1.18331621121330003142e0
            )
        )
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        # P1 / Q1
        x1 = z * (
            (((((((4.05544892305962419923e0 * z + 3.15251094599893866154e1) * z + 5.71628192246421288162e1) * z
                 + 4.40805073893200834700e1) * z + 1.46849561928858024014e1) * z + 2.18663306850790267539e0) * z
              - 1.40256079171354495875e-1) * z - 3.50424626827848203418e-2) * z
            - 8.57456785154685413611e-4
        ) / (
            (((((((z + 1.57799883256466749731e1) * z + 4.53907635128879210584e1) * z + 4.13172038254672030440e1) * z
                 + 1.50425385692907503408e1) * z + 2.50464946208309415979e0) * z - 1.42182922854787788574e-1) * z
             - 3.80806407691578277194e-2) * z
            - 9.33259480895457427372e-4
        )
    else:
        # P2 / Q2
        x1 = z * (
            (((((((3.23774891776946035970e0 * z + 6.91522889068984211695e0) * z + 3.93881025292474443415e0) * z
                 + 1.33303460815807542389e0) * z + 2.01485389549179081538e-1) * z + 1.23716634817820021358e-2) * z
              + 3.01581553508235416007e-4) * z + 2.65806974686737550832e-6) * z
            + 6.23974539184983293730e-9
        ) / (
            (((((((z + 6.02427039364742014255e0) * z + 3.67983563856160859403e0) * z + 1.37702099489081330271e0) * z
                 + 2.16236993594496635890e-1) * z + 1.34204006088543189037e-2) * z + 3.28014464682127739104e-4) * z
             + 2.89247864745380683936e-6) * z
            + 6.79019408009981274425e-9
        )
    x = x0 - x1
    return x if upper else -x


def _erfc(a: float) -> float:
    """Complementary error function: Cephes erfc (with its erf below 1),
    step for step, with each polynomial written out as Horner steps in
    Cephes's order, through the libm exp, so bit for bit
    scipy.special.erfc where both use one libm."""
    x = abs(a)
    if x < 1.0:
        # Cephes's erf(a), the same bits for either sign of a: T / U.
        z = a * a
        return 1.0 - a * (
            (((9.60497373987051638749e0 * z + 9.00260197203842689217e1) * z + 2.23200534594684319226e3) * z
             + 7.00332514112805075473e3) * z
            + 5.55923013010394962768e4
        ) / (
            ((((z + 3.35617141647503099647e1) * z + 5.21357949780152679795e2) * z + 4.59432382970980127987e3) * z
             + 2.26290000613890934246e4) * z
            + 4.92673942608635921086e4
        )
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0.0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        # P / Q
        y = z * (
            (((((((2.46196981473530512524e-10 * x + 5.64189564831068821977e-1) * x + 7.46321056442269912687e0) * x
                 + 4.86371970985681366614e1) * x + 1.96520832956077098242e2) * x + 5.26445194995477358631e2) * x
              + 9.34528527171957607540e2) * x + 1.02755188689515710272e3) * x
            + 5.57535335369399327526e2
        ) / (
            (((((((x + 1.32281951154744992508e1) * x + 8.67072140885989742329e1) * x + 3.54937778887819891062e2) * x
                 + 9.75708501743205489753e2) * x + 1.82390916687909736289e3) * x + 2.24633760818710981792e3) * x
             + 1.65666309194161350182e3) * x
            + 5.57535340817727675546e2
        )
    else:
        # R / S
        y = z * (
            ((((5.64189583547755073984e-1 * x + 1.27536670759978104416e0) * x + 5.01905042251180477414e0) * x
              + 6.16021097993053585195e0) * x + 7.40974269950448939160e0) * x
            + 2.97886665372100240670e0
        ) / (
            (((((x + 2.26052863220117276590e0) * x + 9.39603524938001434673e0) * x + 1.20489539808096656605e1) * x
              + 1.70814450747565897222e1) * x + 9.60896809063285878198e0) * x
            + 3.36907645100081516050e0
        )
    return 2.0 - y if a < 0.0 else y


def separation_fidelity(model: IqModel) -> float:
    """Discrimination fidelity from Gaussian overlap alone.

    1 - erfc(d / (2 sqrt(2) sigma)) / 2 for centroid distance d and
    per-shot cloud width sigma, with erfc by _erfc: the value
    scipy.special.erfc gives, without importing scipy.
    """
    return 1.0 - 0.5 * _erfc(float(model.separation / (2.0 * math.sqrt(2.0) * model.sigma)))


def _cutoff_classifier(offset: float, scale: float, threshold: float):
    """Classifier of one label's shots by their read uniform.

    A shot's projection onto the centroid line is offset + scale ndtri(u)
    for its read uniform u, and it predicts label 1 where that exceeds
    threshold.  fl(offset + fl(scale z)) is monotone in z, and the exact
    ndtri is strictly increasing.  A bisection over the grid k 2^-53 of
    Generator.random, 53 scalar steps, finds a step K at which the
    prediction turns from its value at u = 0 (deviate -inf) to its value
    at u = 1 (+inf).  Each step takes the deviate from _ndtri, Cephes's
    ndtri, which scipy evaluates, ported step for step: it equals
    scipy.special.ndtri bit for bit where both call one libm log, so
    every prediction here is the one through scipy.

    The computed ndtri is not monotone on that grid, but Cephes states a
    peak relative error of 7.2e-16: below 1e-15, so below 8.3e-15
    absolutely for any nonzero uniform, whose deviate is at most 8.21 in
    magnitude.  The exact deviate rises by at least sqrt(2 pi) 2^-53 per
    grid step, so over CUTOFF_GUARD_STEPS = 2^23 steps by at least
    2.3e-9, about 10^5 times both errors together.  So a uniform more
    than 2^23 steps below K has a computed deviate below that of K - 1
    and predicts as K - 1 does, and one more than 2^23 steps above K
    predicts as K does, for whichever turn K the bisection finds.  The
    returned function predicts so, and sends the uniforms inside the
    band through the projection itself, so it equals the projection
    rule on every shot.  Returns (K, that function).
    """

    def exact(u):
        return offset + scale * _ndtri(u) > threshold

    # The prediction at u = 1 (deviate +inf); at u = 0 (-inf) it is the other one.
    p_hi = exact(1.0)
    lo, hi = 0, 2**53
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if exact(mid * 2.0**-53) == p_hi:
            hi = mid
        else:
            lo = mid
    band_lo, band_hi = (hi - CUTOFF_GUARD_STEPS) * 2.0**-53, (hi + CUTOFF_GUARD_STEPS) * 2.0**-53

    def classify(u):
        u = np.ascontiguousarray(u)
        below, beyond = u < band_lo, u > band_hi
        predicted = beyond if p_hi else below
        if np.count_nonzero(below) + np.count_nonzero(beyond) < u.size:
            band = np.flatnonzero(~(below | beyond))
            predicted[band] = [exact(v) for v in u[band].tolist()]
        return predicted

    return hi, classify


def _centroid_line(model: IqModel):
    """(c0, c1, unit axis from c0 to c1, threshold), where the threshold
    is the projection of the centroid midpoint onto the axis; a threshold
    that overflows float64 raises NumericalError."""
    c0 = np.asarray(model.centroid_0, dtype=float)
    c1 = np.asarray(model.centroid_1, dtype=float)
    axis = (c1 - c0) / model.separation
    # c0 + c1 can overflow where the difference, which IqModel bounds, does not.
    return c0, c1, axis, _overflow_checked(lambda: float((c0 + 0.5 * (c1 - c0)) @ axis))


def _overflow_checked(compute):
    """compute(), with a float64 overflow in it raised as NumericalError."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return compute()
    except FloatingPointError as exc:
        raise NumericalError(f"IQ threshold or points overflow float64: {exc}") from None


def _report(model: IqModel, wrong: int, n_shots: int, threshold: float) -> dict:
    """The IQ report of n_shots classified shots, wrong of them wrongly."""
    return {
        "single_shot_fidelity": 1.0 - wrong / n_shots,
        "separation_fidelity": separation_fidelity(model),
        "threshold": threshold,
    }


def iq_discriminate(model: IqModel, shots) -> dict:
    """Classify ShotResult records by projecting their stored iq_points
    onto the centroid line.

    A point predicts label 1 where its projection exceeds the threshold,
    the projection of the centroid midpoint; single_shot_fidelity is the
    rate of predictions equal to the records' switch_bits and
    separation_fidelity the Gaussian-overlap bound.  Empty shots raise
    ValueError, anything but ShotResult records TypeError, and a
    threshold or projection that overflows float64 NumericalError.
    """
    shots = list(shots)
    if not shots:
        raise ValueError("shots must be non-empty")
    if not all(isinstance(shot, ShotResult) for shot in shots):
        raise TypeError("shots must be ShotResult records")
    labels = np.array([shot.switch_bit for shot in shots])
    points = np.array([shot.iq_point for shot in shots], dtype=float)
    _, _, axis, threshold = _centroid_line(model)
    wrong = int(np.count_nonzero((_overflow_checked(lambda: points @ axis) > threshold) != labels))
    return _report(model, wrong, len(shots), threshold)


def iq_fidelity(model: IqModel, n_shots: int, rng: np.random.Generator) -> dict:
    """Draw n_shots label-0 shots, then n_shots label-1 shots, from model
    and classify them by projection onto the centroid line.

    Returns iq_discriminate's keys over the 2 n_shots shots.  Each shot
    draws 2 uniforms, in chunks of at most SHOT_CHUNK_DRAWS uniforms that
    are classified and counted one by one.  Before any draw, n_shots < 1
    raises ValueError, and more than MAX_SHOT_DRAWS uniforms for both
    classes, or a model whose threshold or projections can overflow
    float64, raise NumericalError; so no refusal depends on rng.

    A drawn shot's noise is Gaussian in a frame turned from I/Q onto the
    centroid line by at most 45 degrees.  With a the unit axis, its read
    column is the quadrature nearest that line, read = |a_Q| > |a_I| (a
    45-degree tie reads I), and a label-l shot projects to
    fl(c_l . a) + copysign(sigma, a_read) ndtri(u_read).  The other
    column is the deviate across the line: drawn, never transformed and
    never read.  So each class's shots are classified by one cutoff on
    the read uniform (_cutoff_classifier), found with the scalar _ndtri,
    and scipy is not imported.  For a centroid line along I or Q this is
    the projection of the whole drawn point, float for float.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be positive")
    _check_shot_draws(2 * n_shots, 2)
    c0, c1, axis, threshold = _centroid_line(model)
    offsets = [float(c0 @ axis), float(c1 @ axis)]
    # A normal deviate of a nonzero float64 uniform is at most 8.21 in
    # magnitude, so no projection reaches past these bounds.
    # Generator.random also draws 0.0 (probability 2^-53), whose deviate
    # is -inf: a projection at -inf or +inf, which is classified.
    if not all(math.isfinite(abs(offset) + 8.25 * model.sigma) for offset in offsets):
        raise NumericalError("IQ projections this model can draw overflow float64")
    read = int(abs(axis[1]) > abs(axis[0]))
    scale = math.copysign(model.sigma, axis[read])
    wrong = 0
    for label, offset in enumerate(offsets):
        classify = _cutoff_classifier(offset, scale, threshold)[1]
        for count in _chunks(n_shots, 2):
            ones = int(np.count_nonzero(classify(rng.random((count, 2))[:, read])))
            wrong += count - ones if label else ones
    return _report(model, wrong, 2 * n_shots, threshold)
