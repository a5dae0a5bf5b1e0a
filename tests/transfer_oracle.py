"""Independent quadrature oracle for the transfer closed forms.

mode2_energy_numeric integrates mode 2's real (non-rotating-wave)
response to the ring-down drive by composite Simpson quadrature, one
time at a time.  It shares no code with the closed form efficiency,
and none with peak_efficiency's window energies, which the tests compare
against it node by node: only the grid density POINTS_PER_PERIOD.  Its
trailing-period tone fit (tone_peak, by np.linalg.lstsq) is its own.
It keeps its own drive amplitude V0 and line impedance Z0 and
normalises by its own emitted energy V0^2 / (2 kappa_1 Z0), where the
library drives at V0 = Z0 = 1; run at several V0 and Z0 it checks the
scale invariance the library relies on.

simpson_voltages and node_energy are the windowed slow path that the
library's closed-form window energies replaced: the Simpson recurrence
evaluated in closed form at the nodes of a window of one capture period
(capture_window), as numpy arrays, and the tone fit solved on them.
eager_node_voltages and eager_peak_efficiency are the older slow path
before it: the whole recurrence streamed block by block from tau = 0,
and the library's own seed bracket and search (_seed_bracket,
_golden_peak) over it.  They
keep their own block constants, and eager_peak_efficiency reads its
windows through node_energy too, so the two slow paths differ only in
their node voltages.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Callable

import numpy as np

from jpmsim.transfer import POINTS_PER_PERIOD, TransferConfig, _golden_peak, _seed_bracket

# Panels per block of the streamed pass, and the largest rescale factor
# e^{kappa_2 h (k - 1)} a block of k panels may reach.
BLOCK_PANELS = 4096
BLOCK_LOG_GROWTH = 64.0


def mode2_energy_numeric(
    t: float, cfg: TransferConfig, *, drive_amplitude: float = 1.0, line_impedance: float = 50.0
) -> float:
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
    2 POINTS_PER_PERIOD points per period of the faster carrier, with
    the decaying prefactor folded into every panel so no intermediate
    overflows.  The stored energy is taken from the carrier-cycle peak
    of V2 over the trailing capture period 2 pi / omega_2: a
    least-squares fit of a single tone
    P cos(omega_2 tau) + Q sin(omega_2 tau) to the window samples gives
    the peak as hypot(P, Q).  Fitting instead of taking the discrete
    maximum removes the phase-sampling error of the node grid, which
    would otherwise dominate the quadrature error.  The drive starts at
    voltage amplitude drive_amplitude on a line of impedance
    line_impedance; the fraction, a ratio of energies, is undefined
    without a drive.
    """
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError("t must be finite and non-negative")
    if not (drive_amplitude > 0.0 and line_impedance > 0.0):
        raise ValueError("drive_amplitude and line_impedance must be positive")
    if t == 0.0:
        return 0.0

    w1 = cfg.source.angular_frequency
    w2 = cfg.target.angular_frequency
    k1 = cfg.source.decay_rate
    k2 = cfg.target.decay_rate
    period = 2.0 * math.pi / max(w1, w2)

    # Fine grid: Simpson panels of two intervals each, at twice the
    # requested per-period density so the even (panel-boundary) nodes
    # alone meet it.
    n_fine = int(math.ceil(t / (period / (2 * POINTS_PER_PERIOD))))
    n_fine += n_fine % 2
    n_fine = max(n_fine, 4)
    h = t / n_fine
    tau = np.linspace(0.0, t, n_fine + 1)

    # Unit shunt capacitance: it cancels between stored energy
    # C V_peak^2 / 2 and the drive normalization I_A^2 proportional to C.
    amp = 2.0 * drive_amplitude * math.sqrt(k2 / line_impedance)
    drive = amp * np.exp(-0.5 * k1 * tau) * np.cos(w1 * tau)
    f_cos = drive * np.cos(w2 * tau)
    f_sin = drive * np.sin(w2 * tau)

    # Scaled integrals a_m = e^{-kappa_2 tau_m/2} A(tau_m) (same for
    # b_m), needed only on the trailing capture period.  The bulk
    # integral up to the window start is one Simpson sum with the decay
    # e^{-kappa_2 (tau_s - tau)/2} applied inside, so every term stays
    # bounded by the drive amplitude; across the window the panels are
    # accumulated by the recurrence a_m = a_{m-2} d^2 + panel, d =
    # e^{-kappa_2 h/2}.  The window is the closest whole number of
    # panels to one period of the fitted tone, the capture carrier: a
    # window that overshoots the period lets the slow beat between the
    # two carriers leak into the tone fit and modulate the result as t
    # varies.
    n_window_panels = max(int(round(math.pi / (w2 * h))), 2)
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

    v_peak = tone_peak(np.asarray(node_times), np.asarray(node_values), w2, h)
    emitted_energy = drive_amplitude**2 / (2.0 * k1 * line_impedance)
    return 0.5 * v_peak**2 / emitted_energy


def tone_peak(times: np.ndarray, values: np.ndarray, omega: float, h: float) -> float:
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


def _expm1(z):
    """Complex e^z - 1 to full precision near z = 0, where exp(z) - 1 cancels."""
    x, y = np.real(z), np.imag(z)
    return np.expm1(x) * np.cos(y) - 2.0 * np.sin(0.5 * y) ** 2 + 1j * (np.exp(x) * np.sin(y))


def simpson_voltages(cfg: TransferConfig, h: float) -> Callable[[np.ndarray], np.ndarray]:
    """V2 at panel nodes tau_j = 2 j h, as a function of the node array j >= 1.

    The Simpson panels of mode2_energy_numeric, accumulated on the fixed
    step h from tau = 0 by the recurrence a_j + i b_j = D (a_{j-1} +
    i b_{j-1}) + P_j, D = e^{-kappa_2 h}, with P_j the panel of
    drive(tau) e^{i omega_2 tau}.  The drive, with V0 = Z0 = 1, is
    sqrt(kappa_2) sum_{+-} e^{sigma_+- tau}, sigma_+- = -kappa_1/2 +
    i (omega_2 +- omega_1), so each term's panels are geometric,
    P_l = c q^{l-1} with q = e^{2 sigma h}, and the recurrence sums in
    closed form at any node:

        sum_l D^{j-l} c q^{l-1} = c M^{j-1} expm1(j L) / expm1(L),

    M the larger in modulus of D and q and L = log(smaller / larger), so
    Re L <= 0 and nothing overflows; at L = 0 (matched rates and
    frequencies) the sum is j.  V2 = Re(e^{-i omega_2 tau_j} (a_j + i b_j)).
    """
    w1 = cfg.source.angular_frequency
    w2 = cfg.target.angular_frequency
    k1 = cfg.source.decay_rate
    k2 = cfg.target.decay_rate
    d = math.exp(-0.5 * k2 * h)
    terms = []
    for w in (w2 + w1, w2 - w1):
        e = cmath.exp(complex(-0.5 * k1 * h, w * h))
        c = (h / 3.0) * math.sqrt(k2) * (d * d + 4.0 * d * e + e * e)
        log_ratio = complex((k2 - k1) * h, 2.0 * w * h)  # log(q / D)
        log_m, L = (-k2 * h, log_ratio) if k2 <= k1 else (complex(-k1 * h, 2.0 * w * h), -log_ratio)
        terms.append((c, log_m, L, _expm1(L)))

    def volts(j: np.ndarray) -> np.ndarray:
        s = 0.0
        for c, log_m, L, expm1_l in terms:
            ratio = j if L == 0.0 else _expm1(j * L) / expm1_l
            s = s + c * np.exp((j - 1) * log_m) * ratio
        # The tone fit's own phases, so their rounding cancels in the fit.
        theta = w2 * ((2.0 * h) * j)
        return np.cos(theta) * s.real + np.sin(theta) * s.imag

    return volts


def capture_window(cfg: TransferConfig, h: float) -> int:
    """The whole number of panels of step h nearest one capture period 2 pi / omega_2."""
    return round(math.pi / (cfg.target.angular_frequency * h))


def node_energy(cfg: TransferConfig, volts: Callable[[np.ndarray], np.ndarray], j: int, h: float) -> float:
    """Stored-energy fraction at node j of the Simpson recurrence on step h.

    The tone fit (tone_peak) on the capture_window whole panels, one
    capture period, ending at tau_j = 2 j h (fewer where j is fewer).
    At V0 = Z0 = 1 the source emits 1/(2 kappa_1), so the fraction is
    kappa_1 v_peak^2.
    """
    nodes = np.arange(max(j - capture_window(cfg, h), 0) + 1, j + 1)
    v_peak = tone_peak((2.0 * h) * nodes, volts(nodes), cfg.target.angular_frequency, h)
    return cfg.source.decay_rate * v_peak**2


def eager_node_voltages(cfg: TransferConfig, h: float, n_nodes: int) -> np.ndarray:
    """V2 at the panel nodes tau_j = 2 j h, j = 1..n_nodes, streamed from tau = 0.

    The Simpson panels above, accumulated by the scaled recurrence
    a_j = a_{j-1} D + p_j, D = e^{-kappa_2 h}.  Within a block of k
    panels the recurrence is solved by one cumulative sum,

        a_{j0+i} = D^{i-1} [D a_{j0} + sum_{l<=i} D^{-(l-1)} p_{j0+l}],

    and the block length keeps the rescale factor D^{-(k-1)} at most
    e^BLOCK_LOG_GROWTH; only the running a and b carry over between
    blocks.  The drive has V0 = Z0 = 1.
    """
    w1 = cfg.source.angular_frequency
    w2 = cfg.target.angular_frequency
    k1 = cfg.source.decay_rate
    k2 = cfg.target.decay_rate
    amp = 2.0 * math.sqrt(k2)
    d = math.exp(-0.5 * k2 * h)
    d2 = d * d
    block = min(BLOCK_PANELS, 1 + int(BLOCK_LOG_GROWTH / (k2 * h)))
    steps = k2 * h * np.arange(block)
    grow, shrink = np.exp(steps), np.exp(-steps)

    out = np.empty(n_nodes)
    a_run = b_run = 0.0
    for j0 in range(0, n_nodes, block):
        k = min(block, n_nodes - j0)
        tau = h * np.arange(2 * j0, 2 * (j0 + k) + 1)
        cos_t, sin_t = np.cos(w2 * tau), np.sin(w2 * tau)
        drive = amp * np.exp(-0.5 * k1 * tau) * (cos_t if w1 == w2 else np.cos(w1 * tau))
        runs = []
        for f, run in ((drive * cos_t, a_run), (drive * sin_t, b_run)):
            panels = (h / 3.0) * (f[:-2:2] * d2 + 4.0 * f[1::2] * d + f[2::2])
            runs.append(shrink[:k] * (d2 * run + np.cumsum(grow[:k] * panels)))
        a, b = runs
        out[j0 : j0 + k] = cos_t[2::2] * a + sin_t[2::2] * b
        a_run, b_run = float(a[-1]), float(b[-1])
    return out


def eager_peak_efficiency(cfg: TransferConfig) -> tuple[float, float]:
    """peak_efficiency's seed, bracket and search on eager_node_voltages (no refusals of its own)."""
    period = 2.0 * math.pi / max(cfg.source.angular_frequency, cfg.target.angular_frequency)
    h = period / (2 * POINTS_PER_PERIOD)
    t_max = 20.0 / min(cfg.source.decay_rate, cfg.target.decay_rate)
    a, b = _seed_bracket(cfg, h, t_max / (2.0 * h))
    volts = eager_node_voltages(cfg, h, b)
    energy = functools.lru_cache(maxsize=None)(lambda j: node_energy(cfg, lambda nodes: volts[nodes - 1], j, h))
    return _golden_peak(energy, a, b, h)


def dense_node_peak(cfg: TransferConfig, nodes: np.ndarray) -> tuple[float, float]:
    """The peak of a scan over panel nodes, with no search: (eta, t).

    Reads node_energy on simpson_voltages at each of the increasing
    nodes, then at every node between the best one's two neighbours, so
    it shares with peak_efficiency only the step h.  A parabola through
    the best node and its neighbours gives the peak between nodes.
    """
    period = 2.0 * math.pi / max(cfg.source.angular_frequency, cfg.target.angular_frequency)
    h = period / (2 * POINTS_PER_PERIOD)
    volts = simpson_voltages(cfg, h)

    def best(js: np.ndarray) -> int:
        return int(js[np.argmax([node_energy(cfg, volts, int(j), h) for j in js])])

    i = int(np.searchsorted(nodes, best(nodes)))
    j = best(np.arange(max(nodes[max(i - 1, 0)], 2), nodes[min(i + 1, nodes.size - 1)] + 1))
    y0, y1, y2 = (node_energy(cfg, volts, k, h) for k in (j - 1, j, j + 1))
    shift = 0.5 * (y0 - y2) / min(y0 - 2.0 * y1 + y2, -1e-300)
    return y1 - 0.25 * (y0 - y2) * shift, 2.0 * h * (j + shift)
