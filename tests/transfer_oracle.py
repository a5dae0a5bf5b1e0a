"""Independent quadrature oracle for the transfer closed forms.

mode2_energy_numeric integrates mode 2's real (non-rotating-wave)
response to the ring-down drive by composite Simpson quadrature, one
time at a time.  It shares no code with the closed form efficiency.
With the streamed pass of peak_efficiency, which the tests compare
against it node by node, it shares only the grid density
POINTS_PER_PERIOD and the trailing-period tone fit _tone_peak.  It
keeps its own drive amplitude V0 and line impedance Z0 and normalises
by its own emitted energy V0^2 / (2 kappa_1 Z0), where the library
drives at V0 = Z0 = 1; run at several V0 and Z0 it checks the scale
invariance the library relies on.
"""

from __future__ import annotations

import math

import numpy as np

from jpmsim.transfer import POINTS_PER_PERIOD, TransferConfig, _tone_peak


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
    2 POINTS_PER_PERIOD points per carrier period, with the decaying
    prefactor folded into every panel so no intermediate overflows.
    The stored energy is taken from the carrier-cycle peak of V2 over
    the trailing carrier period: a least-squares fit of a single tone
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
    emitted_energy = drive_amplitude**2 / (2.0 * k1 * line_impedance)
    return 0.5 * v_peak**2 / emitted_energy
