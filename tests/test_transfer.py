"""Tests for the pitch-and-catch energy transfer module.

Peak positions and heights are checked against grid-search oracles on
the closed-form curves and against a numeric oracle that integrates the
drive convolution directly; frozen constants below were produced by
those oracles.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from jpmsim.errors import NumericalError
from jpmsim.transfer import (
    _BLOCK_PANELS,
    _node_energy,
    _node_voltages,
    CavityMode,
    TransferConfig,
    efficiency_envelope,
    efficiency_freq_mismatch,
    efficiency_kappa_mismatch,
    efficiency_matched,
    emitted_energy,
    freq_mismatch_peak,
    kappa_mismatch_peak,
    mode2_energy_numeric,
    peak_efficiency,
)

MATCHED_PEAK = 4.0 / math.e**2


def grid_peak(curve, t_max: float, n: int = 200_001) -> tuple[float, float]:
    # Dense-grid argmax with a three-point parabolic refinement; accuracy
    # is far below 1e-9 for these smooth single-peak curves.
    ts = np.linspace(0.0, t_max, n)
    ys = curve(ts)
    i = int(np.argmax(ys))
    if i == 0 or i == n - 1:
        return float(ys[i]), float(ts[i])
    y0, y1, y2 = ys[i - 1], ys[i + 1], ys[i]
    denom = ys[i - 1] - 2.0 * ys[i] + ys[i + 1]
    if denom >= 0.0:
        return float(ys[i]), float(ts[i])
    h = ts[1] - ts[0]
    shift = 0.5 * (ys[i - 1] - ys[i + 1]) / denom
    t_pk = ts[i] + shift * h
    y_pk = ys[i] - 0.25 * (ys[i - 1] - ys[i + 1]) * shift
    return float(y_pk), float(t_pk)


def make_config(kappa_1=1e6, kappa_ratio=1.0, detuning_ratio=0.0, carrier_ratio=2e4):
    # Carrier well above the linewidth keeps the rotating-envelope
    # description accurate to the tolerances used here.
    omega_1 = carrier_ratio * kappa_1
    return TransferConfig(
        source=CavityMode(angular_frequency=omega_1, decay_rate=kappa_1),
        target=CavityMode(
            angular_frequency=omega_1 + detuning_ratio * kappa_1,
            decay_rate=kappa_ratio * kappa_1,
        ),
    )


def test_matched_peak_value_and_location():
    kappa = 1e6
    assert efficiency_matched(2.0 / kappa, kappa) == pytest.approx(MATCHED_PEAK, abs=1e-12)
    peak, t_opt = grid_peak(lambda t: efficiency_matched(t, kappa), 12.0 / kappa)
    assert peak == pytest.approx(MATCHED_PEAK, abs=1e-9)
    assert t_opt == pytest.approx(2.0 / kappa, rel=1e-6)


def test_efficiency_bounded_by_unity():
    rng = np.random.default_rng(3)
    ts = rng.uniform(0.0, 30e-6, 500)
    for ratio in (1.0, 2.0, 5.0, 10.0):
        vals = efficiency_kappa_mismatch(ts, 1e6, ratio * 1e6)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    for det in (0.0, 0.5, 1.0, 2.0, 4.0):
        vals = efficiency_freq_mismatch(ts, 1e6, det * 1e6)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


def test_kappa_mismatch_reduces_to_matched():
    kappa = 1e6
    ts = np.linspace(0.0, 10.0 / kappa, 101)
    same = efficiency_kappa_mismatch(ts, kappa, kappa)
    matched = efficiency_matched(ts, kappa)
    assert np.allclose(same, matched, rtol=0.0, atol=1e-12)
    # Continuity as the mismatch closes: no cancellation blow-up in the
    # near-degenerate denominator.
    near = efficiency_kappa_mismatch(ts, kappa, kappa * (1.0 + 1e-9))
    assert np.max(np.abs(near - matched)) < 1e-8
    coarse = efficiency_kappa_mismatch(ts, kappa, kappa * (1.0 + 1e-6))
    assert np.max(np.abs(coarse - matched)) < 1e-5


def test_kappa_mismatch_finite_when_rate_product_overflows():
    # eta depends only on kappa_1 t and kappa_2/kappa_1, so rates near
    # 1e160 (kappa_1 kappa_2 above float64's range) must reproduce the
    # unit-rate curve, also for a ratio within 1e-7 of one.
    x = np.linspace(0.0, 8.0, 401)
    r = 1.0000001
    scaled = efficiency_kappa_mismatch(x / 1e160, 1e160, r * 1e160)
    unit = efficiency_kappa_mismatch(x, 1.0, r)
    assert np.all(np.isfinite(scaled))
    assert np.allclose(scaled, unit, rtol=1e-12, atol=0.0)


def test_freq_mismatch_reduces_to_matched():
    kappa = 1e6
    ts = np.linspace(0.0, 10.0 / kappa, 101)
    matched = efficiency_matched(ts, kappa)
    for eps in (1.0, 1e-3):
        near = efficiency_freq_mismatch(ts, kappa, eps)
        assert np.max(np.abs(near - matched)) < 1e-8


def test_kappa_mismatch_peak_closed_form():
    kappa = 1e6
    for ratio, want_eta in ((10.0, 0.23979370012757623), (6.5, 0.31156005922555663)):
        eta, t_opt = kappa_mismatch_peak(kappa, ratio * kappa)
        # Independent oracle: grid search on the closed-form curve.
        g_eta, g_t = grid_peak(
            lambda t: efficiency_kappa_mismatch(t, kappa, ratio * kappa), 20.0 / kappa
        )
        assert eta == pytest.approx(g_eta, abs=1e-9)
        assert t_opt == pytest.approx(g_t, rel=1e-6)
        assert eta == pytest.approx(want_eta, abs=1e-12)
        # t_opt = 2 ln(r) / (kappa_2 - kappa_1).
        assert t_opt == pytest.approx(2.0 * math.log(ratio) / ((ratio - 1.0) * kappa), rel=1e-12)


def test_kappa_mismatch_peak_symmetry():
    kappa = 1e6
    for ratio in (2.0, 6.5, 10.0):
        eta_fwd, _ = kappa_mismatch_peak(kappa, ratio * kappa)
        eta_rev, _ = kappa_mismatch_peak(ratio * kappa, kappa)
        assert eta_fwd == pytest.approx(eta_rev, abs=1e-9)
        # The grid oracle sees the same symmetry on the curves.
        g_fwd, _ = grid_peak(
            lambda t: efficiency_kappa_mismatch(t, kappa, ratio * kappa), 20.0 / kappa
        )
        g_rev, _ = grid_peak(
            lambda t: efficiency_kappa_mismatch(t, ratio * kappa, kappa), 20.0 / kappa
        )
        assert g_fwd == pytest.approx(g_rev, abs=1e-9)


def test_freq_mismatch_peak_values():
    kappa = 1e6
    # Frozen peak efficiencies for detuning/kappa in {0, 0.5, 1, 2, 4},
    # produced by a dense grid search on the closed-form curve.
    want = [
        0.5413411329464508,
        0.5008545065317522,
        0.41575915270152386,
        0.2643999740613845,
        0.12125884361779511,
    ]
    got = []
    for a, ref in zip((0.0, 0.5, 1.0, 2.0, 4.0), want):
        eta, t_opt = freq_mismatch_peak(kappa, a * kappa)
        g_eta, g_t = grid_peak(
            lambda t: efficiency_freq_mismatch(t, kappa, a * kappa), 20.0 / kappa
        )
        assert eta == pytest.approx(g_eta, abs=1e-9)
        assert t_opt == pytest.approx(g_t, rel=1e-6)
        assert eta == pytest.approx(ref, abs=1e-12)
        got.append(eta)
    # Peak transfer strictly decreases with detuning.
    assert all(x > y for x, y in zip(got, got[1:]))
    # Unit detuning ratio reproduces 2 e^(-pi/2).
    assert got[2] == pytest.approx(2.0 * math.exp(-math.pi / 2.0), abs=1e-12)


def test_envelope_reduces_to_special_cases():
    kappa = 1e6
    ts = np.linspace(1e-9, 15.0 / kappa, 400)
    cfg_kappa = make_config(kappa, kappa_ratio=5.0)
    assert np.allclose(
        efficiency_envelope(ts, cfg_kappa),
        efficiency_kappa_mismatch(ts, kappa, 5.0 * kappa),
        rtol=1e-12,
        atol=1e-15,
    )
    cfg_freq = make_config(kappa, detuning_ratio=2.0)
    assert np.allclose(
        efficiency_envelope(ts, cfg_freq),
        efficiency_freq_mismatch(ts, kappa, 2.0 * kappa),
        rtol=1e-12,
        atol=1e-15,
    )


def test_numeric_matches_closed_forms_on_grid():
    # 10x10 grid in (kappa_2/kappa_1, detuning/kappa_1), evaluated at a
    # representative time near the transfer peak for each cell.
    kappa_1 = 1e6
    ratios = [1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.5, 8.0, 10.0, 12.0]
    detunings = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0]
    start = time.monotonic()
    worst = 0.0
    for r in ratios:
        if r == 1.0:
            t_probe = 2.0 / kappa_1
        else:
            t_probe = 2.0 * math.log(r) / ((r - 1.0) * kappa_1)
        for a in detunings:
            cfg = make_config(kappa_1, kappa_ratio=r, detuning_ratio=a)
            closed = float(efficiency_envelope(t_probe, cfg))
            numeric = mode2_energy_numeric(t_probe, cfg)
            err = abs(numeric - closed) / max(closed, 1e-3)
            worst = max(worst, err)
    assert worst < 1e-3
    assert time.monotonic() - start < 60.0


def test_numeric_matched_agreement():
    kappa = 1e6
    cfg = make_config(kappa, carrier_ratio=1e3)
    got = mode2_energy_numeric(2.0 / kappa, cfg)
    assert got == pytest.approx(MATCHED_PEAK, abs=1e-3)


def test_peak_efficiency_matched():
    kappa = 1e6
    cfg = make_config(kappa)
    eta, t_opt = peak_efficiency(cfg)
    assert eta == pytest.approx(MATCHED_PEAK, abs=1e-4)
    assert t_opt == pytest.approx(2.0 / kappa, rel=1e-3)


def test_peak_efficiency_kappa_mismatch():
    kappa = 1e6
    cfg = make_config(kappa, kappa_ratio=6.5)
    eta, t_opt = peak_efficiency(cfg)
    want_eta, want_t = kappa_mismatch_peak(kappa, 6.5 * kappa)
    assert eta == pytest.approx(want_eta, abs=1e-4)
    assert t_opt == pytest.approx(want_t, rel=1e-3)


@pytest.mark.parametrize("detuning_ratio", [0.5, 1.0, 2.0, 4.0])
def test_peak_efficiency_freq_mismatch(detuning_ratio):
    # Equal decay rates, detuned modes: the closed form of
    # freq_mismatch_peak against the numeric peak.
    kappa = 1e6
    cfg = make_config(kappa, detuning_ratio=detuning_ratio)
    eta, t_opt = peak_efficiency(cfg)
    want_eta, want_t = freq_mismatch_peak(kappa, detuning_ratio * kappa)
    assert eta == pytest.approx(want_eta, abs=1e-4)
    assert t_opt == pytest.approx(want_t, rel=1e-3)


def test_peak_efficiency_against_dense_grid_oracle():
    # Independent oracle: dense scan of the numeric envelope around its
    # maximum plus parabolic refinement.
    kappa = 1e6
    cfg = make_config(kappa, kappa_ratio=3.0, detuning_ratio=0.5)
    eta, t_opt = peak_efficiency(cfg)

    seed = t_opt
    ts = np.linspace(0.8 * seed, 1.25 * seed, 241)
    ys = np.array([mode2_energy_numeric(float(t), cfg) for t in ts])
    i = int(np.argmax(ys))
    denom = ys[i - 1] - 2.0 * ys[i] + ys[i + 1]
    assert denom < 0.0
    shift = 0.5 * (ys[i - 1] - ys[i + 1]) / denom
    y_ref = ys[i] - 0.25 * (ys[i - 1] - ys[i + 1]) * shift
    assert eta == pytest.approx(float(y_ref), abs=1e-6)


@pytest.mark.parametrize("carrier_ratio", [2e4, 20.0])
def test_streaming_pass_matches_per_t_oracle_at_nodes(carrier_ratio):
    # The fast path against the slow path it replaces: at node times
    # t_j = 2 j h, where mode2_energy_numeric integrates on the same step
    # h, the one-pass energies equal the per-t oracle.  9000 nodes span
    # several blocks and are no multiple of the block length; the slow
    # carrier (kappa_2 h near 0.05) shortens the blocks to under 1500
    # panels.
    kappa = 1e6
    n_nodes = 9000
    assert n_nodes > 2 * _BLOCK_PANELS and n_nodes % _BLOCK_PANELS
    worst = 0.0
    for r in (1.0 / 12.0, 1.0, 12.0):
        for a in (0.0, 0.5, 2.0):
            cfg = make_config(kappa, kappa_ratio=r, detuning_ratio=a, carrier_ratio=carrier_ratio)
            period = 2.0 * math.pi / max(cfg.source.angular_frequency, cfg.target.angular_frequency)
            h = period / 80.0
            volts = _node_voltages(cfg, h, n_nodes)
            for j in [2, 3, 39, 40, 41, 4096, 4097, 8192, 8193, n_nodes] + list(range(100, n_nodes + 1, 250)):
                t = 2.0 * h * j
                if math.ceil(t / h) != 2 * j:
                    continue  # the oracle would round to a different step here
                want = mode2_energy_numeric(t, cfg)
                got = _node_energy(cfg, volts, j, h)
                worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-9


def test_peak_efficiency_refusals():
    cfg = make_config()
    # A capture mode that decays within a fraction of a carrier cycle is
    # not resolved by the quadrature step.
    with pytest.raises(NumericalError, match="not resolved"):
        peak_efficiency(make_config(kappa_ratio=1e5, carrier_ratio=20.0))
    # A huge but finite carrier would stream ~4e10 nodes: refused at once.
    with pytest.raises(NumericalError, match="quadrature nodes"):
        peak_efficiency(make_config(carrier_ratio=1e9))
    silent = TransferConfig(source=cfg.source, target=cfg.target, drive_amplitude=0.0)
    assert peak_efficiency(silent)[0] == 0.0


def test_numeric_zero_cases():
    cfg = make_config()
    assert mode2_energy_numeric(0.0, cfg) == 0.0
    silent = TransferConfig(source=cfg.source, target=cfg.target, drive_amplitude=0.0)
    assert mode2_energy_numeric(1e-6, silent) == 0.0


def test_numeric_argument_validation():
    cfg = make_config()
    with pytest.raises(ValueError):
        mode2_energy_numeric(-1e-6, cfg)


def test_emitted_energy():
    # V0^2 / (2 kappa_1 Z0): three direct arithmetic checks.
    base = make_config(kappa_1=2.0)
    assert emitted_energy(base) == pytest.approx(1.0 / (2.0 * 2.0 * 50.0), rel=1e-12)
    double_kappa = make_config(kappa_1=4.0)
    assert emitted_energy(double_kappa) == pytest.approx(emitted_energy(base) / 2.0, rel=1e-12)
    release = TransferConfig(
        source=CavityMode(angular_frequency=2.0 * math.pi * 5.02e9, decay_rate=1.0 / 260e-9),
        target=CavityMode(angular_frequency=2.0 * math.pi * 5.02e9, decay_rate=1.0 / 40e-9),
    )
    assert emitted_energy(release) == pytest.approx(2.6e-9, rel=1e-12)


def test_mode_validation():
    with pytest.raises(ValueError):
        CavityMode(angular_frequency=-1.0, decay_rate=1e6)
    with pytest.raises(ValueError):
        CavityMode(angular_frequency=1e9, decay_rate=0.0)
