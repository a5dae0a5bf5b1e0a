"""Pointer-state energy transfer between two cavities over a matched line.

Mode 1 (the qubit cavity) rings down into a transmission line at rate
kappa_1; mode 2 (the capture cavity) integrates the incident field at
rate kappa_2.  In linear response the fraction of the emitted energy
stored in mode 2 at time t has one closed form, efficiency, which
covers the matched case, a decay-rate mismatch, a frequency mismatch
and both together.  This module evaluates it, the peak values of its
single-mismatch cases, and the numeric peak of the real
(non-rotating-wave) response of mode 2 to the ring-down drive, from a
composite Simpson quadrature and a tone fit over the capture period
ending at each probe node, whose result is a closed form in that node:
a few complex scalars from constants taken once per peak.  The
independent oracle that integrates the same response one time at a
time, and the windowed numpy path the closed form replaced, live with
the tests (tests/transfer_oracle.py).

The closed form is one rotating-wave envelope.  With
a = exp(-kappa_1 t / 2), b = exp(-kappa_2 t / 2):

    eta(t) = kappa_1 kappa_2 [(a - b)^2 + 4 a b sin^2(d_omega t / 2)]
             / (d_kappa^2 / 4 + d_omega^2)

which reduces to kappa^2 t^2 e^{-kappa t} when both mismatches vanish.
The (a - b) and sin^2 factorization is exact and free of the
catastrophic cancellation the naive (e^x - 1) and (1 - cos) forms
suffer near zero mismatch.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, require_finite_positive, sin_cos


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
        require_finite_positive(self, "angular_frequency", "decay_rate")


@dataclass(frozen=True)
class TransferConfig:
    """Source and target modes; no line scale, as efficiencies are ratios of energies.

    Parameters
    ----------
    source:
        Emitting mode (the qubit cavity).
    target:
        Receiving mode (the capture cavity).
    """

    source: CavityMode
    target: CavityMode

    @property
    def delta_kappa(self) -> float:
        """Decay-rate mismatch kappa_2 - kappa_1 in 1/second."""
        return self.target.decay_rate - self.source.decay_rate

    @property
    def delta_omega(self) -> float:
        """Frequency mismatch omega_2 - omega_1 in radians/second."""
        return self.target.angular_frequency - self.source.angular_frequency


def _exp_half_diff(t, kappa_1: float, kappa_2: float):
    """exp(-kappa_1 t/2) - exp(-kappa_2 t/2) without cancellation.

    For nearly equal rates the direct difference loses all significant
    digits; factoring out exp(-kappa_2 t/2) and using expm1 keeps full
    precision there, while the direct difference is safe (and overflow
    free) once the exponents are well separated.
    """
    t = np.asarray(t, dtype=float)
    x = 0.5 * (kappa_2 - kappa_1) * t
    decay_2 = np.exp(-0.5 * kappa_2 * t)
    small = np.abs(x) <= 1.0
    factored = decay_2 * np.expm1(np.where(small, x, 0.0))
    return np.where(small, factored, np.exp(-0.5 * kappa_1 * t) - decay_2)


def efficiency(t, kappa_1: float, kappa_2: float, delta_omega: float):
    """Stored-energy fraction in mode 2 at time t: the envelope above.

    With s = hypot(d_kappa / 2, d_omega) each rate is divided by s
    before the product, so no rate is squared and eta depends only on
    kappa_1 t and the rate ratios: it stays finite for rates beyond
    float64's square root.  A detuning so small against the rates that
    (kappa_1 / s)(kappa_2 / s) overflows gives inf or NaN, never a
    finite value off the curve, and a phase d_omega t / 2 past
    errors.PHASE_LIMIT raises NumericalError.  s = 0 is the matched form
    kappa^2 t^2 e^{-kappa t}, which peaks at 4/e^2 when t = 2/kappa.
    Accepts scalar or array t.
    """
    t = np.asarray(t, dtype=float)
    s = math.hypot(0.5 * (kappa_2 - kappa_1), delta_omega)
    if s == 0.0:
        # e^{-x} is 0 in float64 beyond x ~ 745, so the clamp changes no
        # nonzero value and keeps x^2 from overflowing against it.
        x = np.minimum(kappa_1 * t, 1000.0)
        out = x**2 * np.exp(-x)
    else:
        diff = _exp_half_diff(t, kappa_1, kappa_2)
        sin, _ = sin_cos(0.5 * delta_omega * t, "d_omega t / 2", "d_omega", "t")
        cross = 4.0 * np.exp(-0.5 * (kappa_1 + kappa_2) * t) * sin**2
        out = (kappa_1 / s) * (kappa_2 / s) * (diff**2 + cross)
    return out if out.ndim else float(out)


def kappa_mismatch_peak(kappa_1: float, kappa_2: float) -> tuple[float, float]:
    """Peak of efficiency(t, kappa_1, kappa_2, 0) and its time, analytically.

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
    """Peak of efficiency(t, kappa, kappa, delta_omega) and its time, analytically.

    Writing u = delta_omega t and a = delta_omega/kappa, the stationary
    condition a sin u = 1 - cos u gives u = 2 arctan(a), and the peak
    value [4/(1+a^2)] e^{-2 arctan(a)/a} decreases strictly with |a|.
    """
    if delta_omega == 0.0:
        return kappa_mismatch_peak(kappa, kappa)
    a = delta_omega / kappa
    u = 2.0 * math.atan(a)
    t_opt = u / delta_omega
    eta = 4.0 / (1.0 + a * a) * math.exp(-kappa * t_opt)
    return eta, t_opt


# Quadrature density of the numeric peak (and of the test oracle): the
# Simpson grid has 2 POINTS_PER_PERIOD points per period of the faster
# carrier.
POINTS_PER_PERIOD = 40
# Seed grid of the peak search: the closed-form envelope at this many
# panel nodes, geometric from node 1 (time 2 h) to t_max = 20 / min
# kappa, so neighbouring seed nodes differ by at most 10.5% within
# MAX_PEAK_NODES.
SEED_POINTS = 256
_SEED_STEPS = np.arange(SEED_POINTS) / (SEED_POINTS - 1)
# Peak search: at most this many panel nodes up to t_max (a 5 GHz
# carrier over 20 decay times of a 1 us mode spans 4e6; a 25 ms mode
# reaches the bound).  The search's cost does not grow with the count.
# The bound keeps the seed grid's steps near 10% and the node phase
# omega tau under 1.6e10 rad, where a float64 step is 1.9e-6 rad and a
# window's tone fit reads a phase shift common to its nodes as none.
MAX_PEAK_NODES = 10**11
# Most panel nodes in a tone window, one capture period: a source at most
# 1638 times faster than the capture carrier.
MAX_WINDOW_NODES = 2**16
# Largest decay over one quadrature step, kappa * h, the Simpson panels
# resolve; a mode that decays faster is refused, not silently misread.
_MAX_DECAY_PER_STEP = 0.1
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _end_rows(times: np.ndarray, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """The tone fit on window nodes at times: weights giving its quadratures at the last node.

    The fit is linear least squares.  The window signal is
    (P + P'u) cos(omega tau) + (Q + Q'u) sin(omega tau) with u centered
    and scaled to [-1, 1].  The drift term absorbs the slow decay and
    carrier beat across the window; extrapolating the quadratures to the
    window end (u = 1) gives the envelope there with
    O((kappa * T_carrier)^2) accuracy.  Returns the rows of the design's
    pseudo-inverse that give P + P' and Q + Q' from the samples.
    """
    theta = omega * times
    u = (times - times.mean()) / (times[-1] - times.mean())
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    g = np.linalg.pinv(np.column_stack([cos_t, sin_t, u * cos_t, u * sin_t]))
    return g[0] + g[2], g[1] + g[3]


def _expm1(z: complex) -> complex:
    """Complex e^z - 1 to full precision near z = 0, where exp(z) - 1 cancels."""
    x, y = z.real, z.imag
    return complex(math.expm1(x) * math.cos(y) - 2.0 * math.sin(0.5 * y) ** 2, math.exp(x) * math.sin(y))


def _window_energy(cfg: TransferConfig, h: float, n: int) -> Callable[[int], float]:
    """Stored-energy fraction at panel node j >= n of the Simpson recurrence on step h, from a window of n nodes.

    V2 at the nodes tau_j = 2 j h is the Simpson recurrence of the test
    oracle (tests/transfer_oracle.py) run from tau = 0 on the fixed step
    h: a_j + i b_j = D (a_{j-1} + i b_{j-1}) + P_j, D = e^{-kappa_2 h},
    with P_j the panel of drive(tau) e^{i omega_2 tau}.  The drive, with
    V0 = Z0 = 1 as efficiencies are free of the line's scale, is
    sqrt(kappa_2) sum_{+-} e^{sigma_+- tau}, sigma_+- = -kappa_1/2 +
    i (omega_2 +- omega_1), so each term's panels are geometric,
    P_l = c q^{l-1} with q = e^{2 sigma h}, and the recurrence sums in
    closed form: s_j = sum_l D^{j-l} c q^{l-1} = c M^{j-1} r_j, with
    r_j = expm1(j L) / expm1(L) = sum_{i<j} e^{i L} (j at L = 0), M the
    larger in modulus of D and q and L = log(smaller / larger), so
    Re L <= 0 and nothing overflows.  V2_j = Re(e^{-i theta_j} s_j),
    theta_j = omega_2 tau_j.

    The energy is kappa_1 (P^2 + Q^2), with P and Q the quadratures of
    the tone fit (_end_rows) on the n nodes ending at node j: at
    V0 = Z0 = 1 the source emits 1/(2 kappa_1).  The fit is linear, and
    the window j_b + k, k = 1..n, has the first window's design with each
    (cos, sin) pair turned by theta_0 = omega_2 2 h j_b.  So with g the
    end rows of the first design, P = Re(e^{-i theta_0} X_P), and Q
    likewise, where the exact identity r_{j_b+k} = r_{j_b} + e^{j_b L} r_k
    splits each term of X = g.(e^{-i theta_k} s_{j_b+k}) into

        c M^{j_b} (r_{j_b} U + e^{j_b L} W),
        U = g.(e^{-i theta_k} M^{k-1}),  W = g.(e^{-i theta_k} M^{k-1} r_k),

    with nothing cancelling as L -> 0.  U and W are taken once per peak,
    so a window costs a few complex scalars however far from tau = 0 it
    lies.  No energy is defined before the first window ends (j < n).
    """
    w1, w2 = cfg.source.angular_frequency, cfg.target.angular_frequency
    k1, k2 = cfg.source.decay_rate, cfg.target.decay_rate
    ks = np.arange(1, n + 1)
    times = (2.0 * h) * ks
    theta = w2 * times
    turn = np.cos(theta) - 1j * np.sin(theta)
    g_p, g_q = _end_rows(times, w2)
    d = math.exp(-0.5 * k2 * h)
    terms = []
    for w in (w2 + w1, w2 - w1):
        e = cmath.exp(complex(-0.5 * k1 * h, w * h))
        c = (h / 3.0) * math.sqrt(k2) * (d * d + 4.0 * d * e + e * e)
        log_ratio = complex((k2 - k1) * h, 2.0 * w * h)  # log(q / D)
        log_m, L = (complex(-k2 * h), log_ratio) if k2 <= k1 else (complex(-k1 * h, 2.0 * w * h), -log_ratio)
        expm1_l = _expm1(L)
        ratio = np.cumsum(np.exp((ks - 1) * L))  # r_k
        geo = c * np.exp((ks - 1) * log_m) * turn
        sums = [complex(g @ v) for v in (geo, geo * ratio) for g in (g_p, g_q)]
        terms.append((log_m, L, expm1_l, *sums))

    def energy(j: int) -> float:
        j_b = j - n
        x_p = x_q = 0j
        for log_m, L, expm1_l, u_p, u_q, w_p, w_q in terms:
            a, b = (j_b, 1.0) if L == 0.0 else (_expm1(j_b * L) / expm1_l, cmath.exp(j_b * L))
            m = cmath.exp(j_b * log_m)
            x_p += m * (a * u_p + b * w_p)
            x_q += m * (a * u_q + b * w_q)
        theta_0 = w2 * ((2.0 * h) * j_b)
        cos_0, sin_0 = math.cos(theta_0), math.sin(theta_0)
        p = cos_0 * x_p.real + sin_0 * x_p.imag
        q = cos_0 * x_q.real + sin_0 * x_q.imag
        return k1 * (p * p + q * q)

    return energy


def _seed_bracket(cfg: TransferConfig, h: float, span: float) -> tuple[int, int]:
    """Panel-node indices (a, b) between the neighbours of the seed grid's best node.

    The seed grid is SEED_POINTS nodes, geometric from node 1 (time 2 h)
    to node span (t_max); the seed is the argmax of the closed-form
    envelope on it, so the bracket holds the envelope's highest lobe.
    """
    nodes = np.exp(math.log(span) * _SEED_STEPS)
    with np.errstate(over="ignore", invalid="ignore"):
        envelope = efficiency((2.0 * h) * nodes, cfg.source.decay_rate, cfg.target.decay_rate, cfg.delta_omega)
    if not np.isfinite(envelope).all():
        raise NumericalError("closed-form envelope is not finite over the seed grid", "cfg")
    i = int(np.argmax(envelope))
    return int(nodes[max(i - 1, 0)]), math.ceil(nodes[min(i + 1, SEED_POINTS - 1)])


def _golden_peak(energy: Callable[[int], float], a: int, b: int, h: float) -> tuple[float, float]:
    """(eta, t) at the largest energy over panel nodes a to b, refined by a parabola.

    A golden-section search over the node indices narrows [a, b] to five
    nodes and takes their best, j; a three-point parabola through j and
    its neighbours refines it unless j is b or the parabola does not open
    downwards.
    """
    n_nodes = b
    while b - a > 4:
        step = int(round(_INV_PHI * (b - a)))
        if energy(b - step) < energy(a + step):
            a = b - step
        else:
            b = a + step
    j = max(range(a, b + 1), key=energy)
    if j == n_nodes:
        return energy(j), 2.0 * h * j
    y0, y1, y2 = energy(j - 1), energy(j), energy(j + 1)
    curvature = y0 - 2.0 * y1 + y2
    if curvature >= 0.0:
        return y1, 2.0 * h * j
    shift = 0.5 * (y0 - y2) / curvature
    return y1 - 0.25 * (y0 - y2) * shift, 2.0 * h * (j + shift)


def peak_efficiency(cfg: TransferConfig) -> tuple[float, float]:
    """Maximum of the numeric stored-energy fraction over time.

    Seeds from the argmax of the closed-form envelope on a geometric
    grid of SEED_POINTS times from the first panel node 2 h to t_max =
    20/min kappa, and brackets the peak between the seed's two grid
    neighbours (_seed_bracket), assuming the numeric peak shares the
    envelope's highest lobe.  That fails where the counter-rotating
    terms move the peak off the envelope's: a 30 ps capture decay, where
    kappa_2 exceeds the carrier, seeds at 0.56 ns while the numeric peak
    is at 0.17 ns.  A golden-section search over the panel-node indices
    in the bracket reads the tone fit over the capture period ending at
    each probe node, and a three-point parabola through the best node
    and its neighbours refines the peak (_golden_peak).  V2 at a node is
    the Simpson recurrence from tau = 0 on the fixed step h = period /
    (2 POINTS_PER_PERIOD), and the fit on the nodes of the capture
    period ending there is linear in it, so the energy is a closed form in the
    node (_window_energy): one pseudo-inverse of the fit's design per
    peak, then a few complex scalars per probe however far from tau = 0
    it lies.  At a node time the energy equals the test oracle's there
    up to rounding.  Returns (eta_peak, t_opt), eta_peak in [0, 1].

    Raises
    ------
    NumericalError
        Carrying cfg: if a decay rate is not resolved by the step (kappa
        h > 0.1), if t_max overflows float64 or spans more than
        MAX_PEAK_NODES nodes, if a capture period spans more than
        MAX_WINDOW_NODES, if the envelope is not finite on the seed grid,
        if the bracket starts within the first capture period, where the
        fit defines no stored energy (a source far faster than the
        capture carrier, or one far off it), or if eta_peak is above 1 or
        NaN.  Carrying d_omega and t: a phase refusal of the envelope.
    """
    k_max = max(cfg.source.decay_rate, cfg.target.decay_rate)
    period = 2.0 * math.pi / max(cfg.source.angular_frequency, cfg.target.angular_frequency)
    h = period / (2 * POINTS_PER_PERIOD)
    if k_max * h > _MAX_DECAY_PER_STEP:
        raise NumericalError(f"decay rate {k_max:.3g}/s is not resolved by the quadrature step {h:.3g} s", "cfg")

    k_min = min(cfg.source.decay_rate, cfg.target.decay_rate)
    t_max = 20.0 / k_min
    if not math.isfinite(t_max):
        raise NumericalError(f"seed grid end t_max = 20/min kappa overflows float64 at min kappa {k_min:.3g}/s", "cfg")
    span = t_max / (2.0 * h)
    if not span <= MAX_PEAK_NODES:
        raise NumericalError(
            f"peak search spans {span:.3g} quadrature nodes to t_max, more than {MAX_PEAK_NODES:.0e}", "cfg"
        )
    nodes = POINTS_PER_PERIOD * max(cfg.source.angular_frequency / cfg.target.angular_frequency, 1.0)
    if not nodes <= MAX_WINDOW_NODES:
        raise NumericalError(f"capture period spans {nodes:.3g} quadrature nodes, more than {MAX_WINDOW_NODES}", "cfg")
    window = round(nodes)
    a, b = _seed_bracket(cfg, h, span)
    if a <= window:
        message = f"peak lies within the first capture period ({window} quadrature nodes, search from node {a})"
        raise NumericalError(f"{message}, where the tone fit defines no stored energy", "cfg")
    energy = functools.lru_cache(maxsize=None)(_window_energy(cfg, h, window))
    eta, t_opt = _golden_peak(energy, a, b, h)
    if not eta <= 1.0:
        raise NumericalError(f"peak efficiency {eta:.3g} is not in [0, 1]: more than the source emits", "cfg")
    return eta, t_opt
