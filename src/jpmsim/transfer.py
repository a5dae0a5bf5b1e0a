"""Pointer-state energy transfer between two cavities over a matched line.

Mode 1 (the qubit cavity) rings down into a transmission line at rate
kappa_1; mode 2 (the capture cavity) integrates the incident field at
rate kappa_2.  In linear response the fraction of the emitted energy
stored in mode 2 at time t has closed forms for the matched case, for a
decay-rate mismatch, and for a frequency mismatch.  This module
evaluates those closed forms, their peak values, and an independent
numerical oracle that integrates the real (non-rotating-wave) response
of mode 2 to the ring-down drive by composite Simpson quadrature.

All closed-form efficiencies share one envelope.  With
a = exp(-kappa_1 t / 2), b = exp(-kappa_2 t / 2):

    eta(t) = kappa_1 kappa_2 [(a - b)^2 + 4 a b sin^2(d_omega t / 2)]
             / (d_kappa^2 / 4 + d_omega^2)

which reduces to kappa^2 t^2 e^{-kappa t} when both mismatches vanish.
The (a - b) and sin^2 factorization is exact and free of the
catastrophic cancellation the naive (e^x - 1) and (1 - cos) forms
suffer near zero mismatch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError


@dataclass(frozen=True)
class CavityMode:
    """One harmonic mode coupled to the transmission line.

    Parameters
    ----------
    angular_frequency:
        Mode angular frequency omega in radians/second.
    decay_rate:
        Energy leakage rate kappa into the line in 1/second.
    """

    angular_frequency: float
    decay_rate: float

    def __post_init__(self) -> None:
        if not (self.angular_frequency > 0.0 and math.isfinite(self.angular_frequency)):
            raise ValueError("angular_frequency must be finite and positive")
        if not (self.decay_rate > 0.0 and math.isfinite(self.decay_rate)):
            raise ValueError("decay_rate must be finite and positive")


@dataclass(frozen=True)
class TransferConfig:
    """Source and target modes plus the line they share.

    Parameters
    ----------
    source:
        Emitting mode (the qubit cavity).
    target:
        Receiving mode (the capture cavity).
    line_impedance:
        Characteristic impedance Z0 of the connecting line in ohms.
    drive_amplitude:
        Initial ring-down voltage amplitude V0 in volts.  Efficiencies
        are independent of it; it scales only the absolute energies.
    """

    source: CavityMode
    target: CavityMode
    line_impedance: float = 50.0
    drive_amplitude: float = 1.0

    def __post_init__(self) -> None:
        if not (self.line_impedance > 0.0 and math.isfinite(self.line_impedance)):
            raise ValueError("line_impedance must be finite and positive")
        if not (self.drive_amplitude >= 0.0 and math.isfinite(self.drive_amplitude)):
            raise ValueError("drive_amplitude must be finite and non-negative")

    @property
    def delta_kappa(self) -> float:
        """Decay-rate mismatch kappa_2 - kappa_1 in 1/second."""
        return self.target.decay_rate - self.source.decay_rate

    @property
    def delta_omega(self) -> float:
        """Frequency mismatch omega_2 - omega_1 in radians/second."""
        return self.target.angular_frequency - self.source.angular_frequency


def emitted_energy(cfg: TransferConfig) -> float:
    """Total energy V0^2 / (2 kappa_1 Z0) released by the source, in joules."""
    return cfg.drive_amplitude**2 / (2.0 * cfg.source.decay_rate * cfg.line_impedance)


def _exp_half_diff(t, kappa_1: float, kappa_2: float):
    """exp(-kappa_1 t/2) - exp(-kappa_2 t/2) without cancellation.

    For nearly equal rates the direct difference loses all significant
    digits; factoring out exp(-kappa_2 t/2) and using expm1 keeps full
    precision there, while the direct difference is safe (and overflow
    free) once the exponents are well separated.
    """
    t = np.asarray(t, dtype=float)
    x = 0.5 * (kappa_2 - kappa_1) * t
    direct = np.exp(-0.5 * kappa_1 * t) - np.exp(-0.5 * kappa_2 * t)
    small = np.abs(x) <= 1.0
    factored = np.exp(-0.5 * kappa_2 * t) * np.expm1(np.where(small, x, 0.0))
    return np.where(small, factored, direct)


def _square(rate: float, name: str) -> float:
    """rate**2 for a rate in 1/s; NumericalError where float64 overflows."""
    try:
        return rate**2
    except OverflowError:
        raise NumericalError(f"{name} {abs(rate):.3g}/s overflows float64 when squared") from None


def efficiency_matched(t, kappa: float):
    """Stored-energy fraction kappa^2 t^2 e^{-kappa t} for identical modes.

    Peaks at 4/e^2 when t = 2/kappa.  Accepts scalar or array t.
    """
    t = np.asarray(t, dtype=float)
    out = (kappa * t) ** 2 * np.exp(-kappa * t)
    return out if out.ndim else float(out)


def efficiency_kappa_mismatch(t, kappa_1: float, kappa_2: float):
    """Stored-energy fraction for unequal decay rates, equal frequencies.

    Equals 4 kappa_1 kappa_2 (e^{-kappa_1 t/2} - e^{-kappa_2 t/2})^2
    / (kappa_2 - kappa_1)^2 and goes to the matched form continuously
    as kappa_2 -> kappa_1.
    """
    if kappa_2 == kappa_1:
        return efficiency_matched(t, kappa_1)
    # Each rate is divided by the mismatch before the product, so no
    # intermediate overflows when kappa_1 kappa_2 exceeds float64.
    d_kappa = kappa_2 - kappa_1
    diff = _exp_half_diff(t, kappa_1, kappa_2)
    out = 4.0 * (kappa_1 / d_kappa) * (kappa_2 / d_kappa) * diff**2
    return out if out.ndim else float(out)


def efficiency_freq_mismatch(t, kappa: float, delta_omega: float):
    """Stored-energy fraction for detuned modes with equal decay rates.

    Equals 4 kappa^2 e^{-kappa t} sin^2(delta_omega t / 2) /
    delta_omega^2 (the half-angle form of 2 kappa^2 e^{-kappa t}
    (1 - cos delta_omega t) / delta_omega^2) and goes to the matched
    form continuously as delta_omega -> 0.
    """
    if delta_omega == 0.0:
        return efficiency_matched(t, kappa)
    t = np.asarray(t, dtype=float)
    out = (
        4.0
        * _square(kappa, "decay rate")
        * np.exp(-kappa * t)
        * np.sin(0.5 * delta_omega * t) ** 2
        / _square(delta_omega, "frequency mismatch")
    )
    return out if out.ndim else float(out)


def efficiency_envelope(t, cfg: TransferConfig):
    """Stored-energy fraction with both mismatches present.

    General rotating-wave envelope; reduces to each special closed form
    when the other mismatch vanishes.  Accepts scalar or array t.
    """
    k1 = cfg.source.decay_rate
    k2 = cfg.target.decay_rate
    d_omega = cfg.delta_omega
    if k1 == k2 and d_omega == 0.0:
        return efficiency_matched(t, k1)
    t = np.asarray(t, dtype=float)
    diff = _exp_half_diff(t, k1, k2)
    cross = 4.0 * np.exp(-0.5 * (k1 + k2) * t) * np.sin(0.5 * d_omega * t) ** 2
    denom = 0.25 * _square(k2 - k1, "decay-rate mismatch") + _square(d_omega, "frequency mismatch")
    out = k1 * k2 * (diff**2 + cross) / denom
    return out if out.ndim else float(out)


def kappa_mismatch_peak(kappa_1: float, kappa_2: float) -> tuple[float, float]:
    """Peak of efficiency_kappa_mismatch and its time, analytically.

    The stationary condition is e^{d_kappa t/2} = kappa_2/kappa_1, so
    t_opt = 2 ln(kappa_2/kappa_1) / (kappa_2 - kappa_1) and the peak
    value 4 r^{-(r+1)/(r-1)} with r = kappa_2/kappa_1 depends only on
    the rate ratio, symmetrically under r -> 1/r.
    """
    if kappa_2 == kappa_1:
        return 4.0 * math.exp(-2.0), 2.0 / kappa_1
    r = kappa_2 / kappa_1
    t_opt = 2.0 * math.log(r) / (kappa_2 - kappa_1)
    eta = 4.0 * math.exp(-(r + 1.0) / (r - 1.0) * math.log(r))
    return eta, t_opt


def freq_mismatch_peak(kappa: float, delta_omega: float) -> tuple[float, float]:
    """Peak of efficiency_freq_mismatch and its time, analytically.

    Writing u = delta_omega t and a = delta_omega/kappa, the stationary
    condition a sin u = 1 - cos u gives u = 2 arctan(a), and the peak
    value [4/(1+a^2)] e^{-2 arctan(a)/a} decreases strictly with |a|.
    """
    if delta_omega == 0.0:
        return 4.0 * math.exp(-2.0), 2.0 / kappa
    a = delta_omega / kappa
    u = 2.0 * math.atan(a)
    t_opt = u / delta_omega
    eta = 4.0 / (1.0 + a * a) * math.exp(-kappa * t_opt)
    return eta, t_opt


# Streaming pass of peak_efficiency: at most this many panel nodes (a
# 5 GHz carrier over 20 decay times of a 1 us mode needs 4e6), so a huge
# but finite carrier frequency is refused instead of streaming for hours.
MAX_PEAK_NODES = 10**8
# Largest decay over one quadrature step, kappa * h, the Simpson panels
# resolve; a mode that decays faster is refused, not silently misread.
_MAX_DECAY_PER_STEP = 0.1
# Panels per block of the streaming pass, and the largest rescale factor
# e^{kappa_2 h (k - 1)} a block of k panels may reach.
_BLOCK_PANELS = 4096
_BLOCK_LOG_GROWTH = 64.0
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _tone_peak(times: np.ndarray, values: np.ndarray, omega: float, h: float) -> float:
    """Carrier-cycle peak of V2 at the last of the window nodes.

    Tone fit with a linear amplitude/phase drift term: the window signal
    is (P + P'u) cos(omega tau) + (Q + Q'u) sin(omega tau) with u
    centered and scaled to [-1, 1].  The drift term absorbs the slow
    decay and carrier beat across the window; extrapolating the
    quadratures to the window end gives the envelope there with
    O((kappa * T_carrier)^2) accuracy.  Windows too short for the drift
    term fit the bare tone, or take the largest sample.
    """
    if values.size < 4:
        return float(np.abs(values).max(initial=0.0))
    theta = omega * times
    u = (times - times.mean()) / max(times[-1] - times.mean(), h)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    if values.size >= 8:
        design = np.column_stack([cos_t, sin_t, u * cos_t, u * sin_t])
    else:
        design = np.column_stack([cos_t, sin_t])
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    if coef.size == 4:
        p_end = coef[0] + coef[2]
        q_end = coef[1] + coef[3]
    else:
        p_end, q_end = coef[0], coef[1]
    return float(np.hypot(p_end, q_end))


def mode2_energy_numeric(t: float, cfg: TransferConfig, *, points_per_period: int = 40) -> float:
    """Stored-energy fraction in mode 2 at time t by direct quadrature.

    Integrates the real-kernel response of mode 2 to the full ring-down
    drive current, carrier oscillations included, with no rotating-wave
    step; this makes it an oracle independent of the closed forms.  The
    response

        V2(t) = e^{-kappa_2 t/2} [cos(omega_2 t) A(t) + sin(omega_2 t) B(t)]
        A(t)  = integral_0^t I(tau) e^{kappa_2 tau/2} cos(omega_2 tau) dtau
        B(t)  = same with sin(omega_2 tau)
        I(tau) = I_A e^{-kappa_1 tau/2} cos(omega_1 tau)

    is evaluated by composite Simpson quadrature on a grid of
    2*points_per_period points per carrier period, with the decaying
    prefactor folded into every panel so no intermediate overflows.
    The stored energy is taken from the carrier-cycle peak of V2 over
    the trailing carrier period: a least-squares fit of a single tone
    P cos(omega_2 tau) + Q sin(omega_2 tau) to the window samples gives
    the peak as hypot(P, Q).  Fitting instead of taking the discrete
    maximum removes the phase-sampling error of the node grid, which
    would otherwise dominate the quadrature error.

    Raises
    ------
    NumericalError
        If points_per_period < 8 (the envelope extraction needs at
        least a handful of samples per carrier cycle).
    """
    if t < 0.0:
        raise ValueError("t must be non-negative")
    if points_per_period < 8:
        raise NumericalError("points_per_period must be at least 8 to resolve the carrier")
    if t == 0.0 or cfg.drive_amplitude == 0.0:
        return 0.0

    w1 = cfg.source.angular_frequency
    w2 = cfg.target.angular_frequency
    k1 = cfg.source.decay_rate
    k2 = cfg.target.decay_rate
    period = 2.0 * math.pi / max(w1, w2)

    # Fine grid: Simpson panels of two intervals each, at twice the
    # requested per-period density so the even (panel-boundary) nodes
    # alone meet it.
    n_fine = int(math.ceil(t / (period / (2 * points_per_period))))
    n_fine += n_fine % 2
    n_fine = max(n_fine, 4)
    h = t / n_fine
    tau = np.linspace(0.0, t, n_fine + 1)

    # Unit shunt capacitance: it cancels between stored energy
    # C V_peak^2 / 2 and the drive normalization I_A^2 proportional to C.
    amp = 2.0 * cfg.drive_amplitude * math.sqrt(k2 / cfg.line_impedance)
    drive = amp * np.exp(-0.5 * k1 * tau) * np.cos(w1 * tau)
    f_cos = drive * np.cos(w2 * tau)
    f_sin = drive * np.sin(w2 * tau)

    # Scaled integrals a_m = e^{-kappa_2 tau_m/2} A(tau_m) (same for
    # b_m), needed only on the trailing carrier period.  The bulk
    # integral up to the window start is one Simpson sum with the decay
    # e^{-kappa_2 (tau_s - tau)/2} applied inside, so every term stays
    # bounded by the drive amplitude; across the window the panels are
    # accumulated by the recurrence a_m = a_{m-2} d^2 + panel, d =
    # e^{-kappa_2 h/2}.  The window is the closest whole number of
    # panels to one carrier period: a window that overshoots the period
    # lets the slow beat between the two carriers leak into the tone
    # fit and modulate the result as t varies.
    n_window_panels = max(int(round(period / (2.0 * h))), 2)
    start = max(n_fine - 2 * n_window_panels, 0)

    if start > 0:
        weights = np.ones(start + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        decay = np.exp(-0.5 * k2 * (tau[start] - tau[: start + 1]))
        a_run = float(np.dot(weights, f_cos[: start + 1] * decay)) * h / 3.0
        b_run = float(np.dot(weights, f_sin[: start + 1] * decay)) * h / 3.0
    else:
        a_run = 0.0
        b_run = 0.0

    d = math.exp(-0.5 * k2 * h)
    d2 = d * d
    node_times = []
    node_values = []
    for m in range(start + 2, n_fine + 1, 2):
        a_run = a_run * d2 + (h / 3.0) * (f_cos[m - 2] * d2 + 4.0 * f_cos[m - 1] * d + f_cos[m])
        b_run = b_run * d2 + (h / 3.0) * (f_sin[m - 2] * d2 + 4.0 * f_sin[m - 1] * d + f_sin[m])
        node_times.append(tau[m])
        node_values.append(math.cos(w2 * tau[m]) * a_run + math.sin(w2 * tau[m]) * b_run)

    v_peak = _tone_peak(np.asarray(node_times), np.asarray(node_values), w2, h)
    return 0.5 * v_peak**2 / emitted_energy(cfg)


def _node_voltages(cfg: TransferConfig, h: float, n_nodes: int) -> np.ndarray:
    """V2 at the panel nodes tau_j = 2 j h, j = 1..n_nodes, in one pass.

    The same Simpson panels and scaled recurrence a_j = a_{j-1} D + p_j,
    D = e^{-kappa_2 h}, as mode2_energy_numeric, on the fixed step h
    from tau = 0.  Within a block of k panels the recurrence is solved
    in closed form by one cumulative sum,

        a_{j0+i} = D^{i-1} [D a_{j0} + sum_{l<=i} D^{-(l-1)} p_{j0+l}],

    and the block length keeps the rescale factor D^{-(k-1)} at most
    e^64 for any kappa_2 h.  Memory is one block plus one float per node.
    """
    w1 = cfg.source.angular_frequency
    w2 = cfg.target.angular_frequency
    k1 = cfg.source.decay_rate
    k2 = cfg.target.decay_rate
    amp = 2.0 * cfg.drive_amplitude * math.sqrt(k2 / cfg.line_impedance)
    d = math.exp(-0.5 * k2 * h)
    d2 = d * d
    block = min(_BLOCK_PANELS, 1 + int(_BLOCK_LOG_GROWTH / (k2 * h)))
    steps = k2 * h * np.arange(block)
    grow, shrink = np.exp(steps), np.exp(-steps)

    out = np.empty(n_nodes)
    a_run = b_run = 0.0
    for j0 in range(0, n_nodes, block):
        k = min(block, n_nodes - j0)
        tau = h * np.arange(2 * j0, 2 * (j0 + k) + 1)
        drive = amp * np.exp(-0.5 * k1 * tau) * np.cos(w1 * tau)
        cos_t, sin_t = np.cos(w2 * tau), np.sin(w2 * tau)
        runs = []
        for f, run in ((drive * cos_t, a_run), (drive * sin_t, b_run)):
            panels = (h / 3.0) * (f[:-2:2] * d2 + 4.0 * f[1::2] * d + f[2::2])
            runs.append(shrink[:k] * (d2 * run + np.cumsum(grow[:k] * panels)))
        a, b = runs
        out[j0 : j0 + k] = cos_t[2::2] * a + sin_t[2::2] * b
        a_run, b_run = float(a[-1]), float(b[-1])
    return out


def _node_energy(cfg: TransferConfig, volts: np.ndarray, j: int, h: float) -> float:
    """Stored-energy fraction at node j of a streaming pass on step h.

    The trailing-period tone fit of mode2_energy_numeric on the window
    of whole panels ending at tau_j = 2 j h.
    """
    period = 2.0 * math.pi / max(cfg.source.angular_frequency, cfg.target.angular_frequency)
    first = max(j - max(int(round(period / (2.0 * h))), 2), 0)
    times = (2.0 * h) * np.arange(first + 1, j + 1)
    v_peak = _tone_peak(times, volts[first:j], cfg.target.angular_frequency, h)
    return 0.5 * v_peak**2 / emitted_energy(cfg)


def peak_efficiency(cfg: TransferConfig, *, points_per_period: int = 40) -> tuple[float, float]:
    """Maximum of the numeric stored-energy fraction over time.

    Seeds from the argmax of the closed-form envelope on a dense grid
    and brackets the peak in [seed/3, 3 seed] (the envelope is unimodal
    in every regime this model covers).  One streaming quadrature pass
    over [0, bracket end] on the fixed step h = period /
    (2 points_per_period) of mode2_energy_numeric stores V2 at every
    panel node; at a node time the energy equals mode2_energy_numeric
    there up to rounding.  A golden-section search over the node
    indices in the bracket runs the same trailing-period tone fit on
    each probe's window, and a three-point parabola through the best
    node and its neighbours refines the peak.  Returns (eta_peak, t_opt).

    Raises
    ------
    NumericalError
        If points_per_period < 8, if a decay rate is not resolved by the
        step (kappa h > 0.1), if a closed-form rate scale overflows
        float64 or the envelope is not finite on the seed grid, or if
        the pass would need more than MAX_PEAK_NODES panel nodes.
    """
    if points_per_period < 8:
        raise NumericalError("points_per_period must be at least 8 to resolve the carrier")
    k_max = max(cfg.source.decay_rate, cfg.target.decay_rate)
    period = 2.0 * math.pi / max(cfg.source.angular_frequency, cfg.target.angular_frequency)
    h = period / (2 * points_per_period)
    if k_max * h > _MAX_DECAY_PER_STEP:
        raise NumericalError(
            f"decay rate {k_max:.3g}/s is not resolved by the quadrature step {h:.3g} s"
        )

    k_min = min(cfg.source.decay_rate, cfg.target.decay_rate)
    t_max = 20.0 / k_min
    grid = np.linspace(t_max / 4000.0, t_max, 4000)
    with np.errstate(over="ignore", invalid="ignore"):
        envelope = efficiency_envelope(grid, cfg)
    if not np.isfinite(envelope).all():
        raise NumericalError("closed-form envelope is not finite over the seed grid")
    seed = float(grid[int(np.argmax(envelope))])
    if cfg.drive_amplitude == 0.0:
        return 0.0, seed
    lo = max(seed / 3.0, t_max / 4000.0)
    hi = min(3.0 * seed, t_max)

    span = hi / (2.0 * h)
    if not span <= MAX_PEAK_NODES:
        raise NumericalError(
            f"peak search needs {span:.3g} quadrature nodes, more than {MAX_PEAK_NODES:.0e}"
        )
    n_nodes = int(math.ceil(span))
    volts = _node_voltages(cfg, h, n_nodes)

    @functools.lru_cache(maxsize=None)
    def energy(j: int) -> float:
        return _node_energy(cfg, volts, j, h)

    a, b = max(int(lo / (2.0 * h)), 1), n_nodes
    while b - a > 4:
        step = int(round(_INV_PHI * (b - a)))
        if energy(b - step) < energy(a + step):
            a = b - step
        else:
            b = a + step
    j = max(range(a, b + 1), key=energy)
    if not 1 < j < n_nodes:
        return energy(j), 2.0 * h * j
    y0, y1, y2 = energy(j - 1), energy(j), energy(j + 1)
    curvature = y0 - 2.0 * y1 + y2
    if curvature >= 0.0:
        return y1, 2.0 * h * j
    shift = 0.5 * (y0 - y2) / curvature
    return y1 - 0.25 * (y0 - y2) * shift, 2.0 * h * (j + shift)
