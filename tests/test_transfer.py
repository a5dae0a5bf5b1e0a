"""Tests for the pitch-and-catch energy transfer module.

Peak positions and heights are checked against grid-search oracles on
the closed-form curves and against a numeric oracle that integrates the
drive convolution directly; frozen constants below were produced by
those oracles.
"""

from __future__ import annotations

import math
import time
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import jpmsim.transfer as transfer
from jpmsim.config import RunConfig
from jpmsim.errors import NumericalError
from jpmsim.transfer import (
    _window_energy,
    CavityMode,
    TransferConfig,
    efficiency,
    freq_mismatch_peak,
    kappa_mismatch_peak,
    peak_efficiency,
)
from transfer_oracle import (
    BLOCK_PANELS,
    capture_window,
    dense_node_peak,
    eager_node_voltages,
    eager_peak_efficiency,
    mode2_energy_numeric,
    node_energy,
    simpson_voltages,
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
    assert efficiency(2.0 / kappa, kappa, kappa, 0.0) == pytest.approx(MATCHED_PEAK, abs=1e-12)
    peak, t_opt = grid_peak(lambda t: efficiency(t, kappa, kappa, 0.0), 12.0 / kappa)
    assert peak == pytest.approx(MATCHED_PEAK, abs=1e-9)
    assert t_opt == pytest.approx(2.0 / kappa, rel=1e-6)


def test_efficiency_bounded_by_unity():
    rng = np.random.default_rng(3)
    ts = rng.uniform(0.0, 30e-6, 500)
    for ratio in (1.0, 2.0, 5.0, 10.0):
        vals = efficiency(ts, 1e6, ratio * 1e6, 0.0)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    for det in (0.0, 0.5, 1.0, 2.0, 4.0):
        vals = efficiency(ts, 1e6, 1e6, det * 1e6)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


def test_kappa_mismatch_reduces_to_matched():
    kappa = 1e6
    ts = np.linspace(0.0, 10.0 / kappa, 101)
    matched = (kappa * ts) ** 2 * np.exp(-kappa * ts)
    same = efficiency(ts, kappa, kappa, 0.0)
    assert np.allclose(same, matched, rtol=0.0, atol=1e-12)
    # Continuity as the mismatch closes: no cancellation blow-up in the
    # near-degenerate denominator.
    near = efficiency(ts, kappa, kappa * (1.0 + 1e-9), 0.0)
    assert np.max(np.abs(near - matched)) < 1e-8
    coarse = efficiency(ts, kappa, kappa * (1.0 + 1e-6), 0.0)
    assert np.max(np.abs(coarse - matched)) < 1e-5


def test_exp_half_diff_matches_a_50_digit_reference():
    # e^{-kappa_1 t/2} - e^{-kappa_2 t/2} against Decimal at 50 digits on the
    # float inputs as given, over a seeded grid: half near-equal rates
    # (kappa_2/kappa_1 - 1 = +-1e-12 ... +-1e-1), where only the factored
    # form keeps digits, half ratios 1e-3 ... 1e3, with kappa_1 t up to 40,
    # so x = (kappa_2 - kappa_1) t/2 falls on both sides of the |x| = 1
    # switch.  exp's condition number is the size of its argument, which is
    # rounded once, so the result carries up to about kappa_1 t/2 ulp beyond
    # the few ulp of exp, expm1 and the difference themselves.  Measured:
    # at most 2.27 + kappa_1 t/2 ulp on this grid (15.5 ulp in all).
    rng = np.random.default_rng(2411)
    n = 4000
    near = 1.0 + rng.choice([-1.0, 1.0], n // 2) * 10.0 ** rng.uniform(-12.0, -1.0, n // 2)
    ratio = np.r_[near, 10.0 ** rng.uniform(-3.0, 3.0, n - n // 2)]
    kappa_1 = 10.0 ** rng.uniform(5.0, 9.0, n)
    t = 10.0 ** rng.uniform(-3.0, math.log10(40.0), n) / kappa_1
    kappa_2 = kappa_1 * ratio
    small = np.abs(0.5 * (kappa_2 - kappa_1) * t) <= 1.0
    assert small.sum() > n // 2 and (~small).sum() > n // 8
    got = transfer._exp_half_diff(t, kappa_1, kappa_2)
    with localcontext() as ctx:
        ctx.prec = 50
        ulps = []
        for value, k1, k2, half in zip(got.tolist(), kappa_1.tolist(), kappa_2.tolist(), (0.5 * t).tolist()):
            exact = (-Decimal(k1) * Decimal(half)).exp() - (-Decimal(k2) * Decimal(half)).exp()
            ulps.append(float(abs(Decimal(value) - exact) / Decimal(math.ulp(float(exact)))))
    assert np.max(np.array(ulps) - 0.5 * kappa_1 * t) < 4.0


@pytest.mark.parametrize("rate", [1e-150, 1e160])
@pytest.mark.parametrize("kappa_ratio, detuning_ratio", [(1.0000001, 0.0), (1.0, 0.5), (5.0, 2.0), (0.2, 4.0)])
def test_kappa_mismatch_finite_when_rate_product_overflows(rate, kappa_ratio, detuning_ratio):
    # eta depends only on kappa_1 t and the ratios of kappa_2 and
    # delta_omega to kappa_1, so rates whose squares leave float64's
    # range (1e-150 underflows, 1e160 overflows) must reproduce the
    # unit-rate curve, also for a decay ratio within 1e-7 of one.
    x = np.linspace(0.0, 8.0, 401)
    scaled = efficiency(x / rate, rate, kappa_ratio * rate, detuning_ratio * rate)
    unit = efficiency(x, 1.0, kappa_ratio, detuning_ratio)
    assert np.all(np.isfinite(scaled))
    assert np.allclose(scaled, unit, rtol=1e-12, atol=0.0)


def test_matched_form_is_zero_not_nan_for_huge_kappa_t():
    # (kappa t)^2 overflows from kappa t ~ 1.3e154 while e^{-kappa t} is
    # 0 from ~745; the clamped argument gives 0 there and leaves every
    # smaller kappa t bit for bit as the unclamped product.
    x = np.linspace(0.0, 800.0, 8001)
    assert np.array_equal(efficiency(x, 1.0, 1.0, 0.0), x**2 * np.exp(-x))
    huge = efficiency(np.array([1e155, 1e200, 1e300, np.inf]), 1.0, 1.0, 0.0)
    assert np.array_equal(huge, np.zeros(4))


def test_freq_mismatch_reduces_to_matched():
    kappa = 1e6
    ts = np.linspace(0.0, 10.0 / kappa, 101)
    matched = efficiency(ts, kappa, kappa, 0.0)
    for eps in (1.0, 1e-3):
        near = efficiency(ts, kappa, kappa, eps)
        assert np.max(np.abs(near - matched)) < 1e-8


def test_kappa_mismatch_peak_closed_form():
    kappa = 1e6
    for ratio, want_eta in ((10.0, 0.23979370012757623), (6.5, 0.31156005922555663)):
        eta, t_opt = kappa_mismatch_peak(kappa, ratio * kappa)
        # Independent oracle: grid search on the closed-form curve.
        g_eta, g_t = grid_peak(lambda t: efficiency(t, kappa, ratio * kappa, 0.0), 20.0 / kappa)
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
        g_fwd, _ = grid_peak(lambda t: efficiency(t, kappa, ratio * kappa, 0.0), 20.0 / kappa)
        g_rev, _ = grid_peak(lambda t: efficiency(t, ratio * kappa, kappa, 0.0), 20.0 / kappa)
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
        g_eta, g_t = grid_peak(lambda t: efficiency(t, kappa, kappa, a * kappa), 20.0 / kappa)
        assert eta == pytest.approx(g_eta, abs=1e-9)
        assert t_opt == pytest.approx(g_t, rel=1e-6)
        assert eta == pytest.approx(ref, abs=1e-12)
        got.append(eta)
    # Peak transfer strictly decreases with detuning.
    assert all(x > y for x, y in zip(got, got[1:]))
    # Unit detuning ratio reproduces 2 e^(-pi/2).
    assert got[2] == pytest.approx(2.0 * math.exp(-math.pi / 2.0), abs=1e-12)


def test_envelope_reduces_to_special_cases():
    # With one mismatch the envelope is a textbook expression, written
    # out here: 4 k1 k2 (e^{-k1 t/2} - e^{-k2 t/2})^2 / (k2 - k1)^2 for
    # unequal rates, 4 k^2 e^{-k t} sin^2(dw t/2) / dw^2 for detuned
    # modes.  Neither mismatch is small here, so neither form cancels.
    kappa = 1e6
    ts = np.linspace(1e-9, 15.0 / kappa, 400)
    k2 = 5.0 * kappa
    kappa_only = 4.0 * kappa * k2 * (np.exp(-0.5 * kappa * ts) - np.exp(-0.5 * k2 * ts)) ** 2 / (k2 - kappa) ** 2
    assert np.allclose(efficiency(ts, kappa, k2, 0.0), kappa_only, rtol=1e-12, atol=1e-15)
    dw = 2.0 * kappa
    freq_only = 4.0 * kappa**2 * np.exp(-kappa * ts) * np.sin(0.5 * dw * ts) ** 2 / dw**2
    assert np.allclose(efficiency(ts, kappa, kappa, dw), freq_only, rtol=1e-12, atol=1e-15)


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
            closed = efficiency(t_probe, cfg.source.decay_rate, cfg.target.decay_rate, cfg.delta_omega)
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
    # At node times t_j = 2 j h, where mode2_energy_numeric integrates on
    # the same step h, the library's closed-form window energies and the
    # windowed slow path they replaced both equal the per-t oracle.  Nodes
    # up to 9000, on both sides of the streamed pass's block boundaries,
    # at a fast carrier and a slow one (kappa_2 h near 0.05).  The
    # SOURCE_FASTER_WINDOWS rows of this carrier, whose capture periods
    # hold 48 and 120 nodes, are compared from their first whole window on.
    kappa = 1e6
    n_nodes = 9000
    worst = 0.0
    pairs = [(r, a) for r in (1.0 / 12.0, 1.0, 12.0) for a in (0.0, 0.5, 2.0)]
    pairs += [row.values[:2] for row in SOURCE_FASTER_WINDOWS if row.values[2] == carrier_ratio]
    for r, a in pairs:
        cfg = make_config(kappa, kappa_ratio=r, detuning_ratio=a, carrier_ratio=carrier_ratio)
        period = 2.0 * math.pi / max(cfg.source.angular_frequency, cfg.target.angular_frequency)
        h = period / 80.0
        n = capture_window(cfg, h)
        energy = _window_energy(cfg, h, n)
        volts = simpson_voltages(cfg, h)
        for j in [40, 41, 4096, 4097, 8192, 8193, n_nodes] + list(range(100, n_nodes + 1, 250)):
            t = 2.0 * h * j
            if j < n or math.ceil(t / h) != 2 * j:
                continue  # before the first whole window, or the oracle would round to a different step here
            want = mode2_energy_numeric(t, cfg)
            for got in (energy(j), node_energy(cfg, volts, j, h)):
                worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-9


PASS_GRID = [(r, a, c) for r in (1.0 / 12.0, 1.0, 12.0) for a in (0.0, 0.5, 2.0) for c in (20.0, 2e4)]
# Rates and frequencies within 1e-15 to 1e-9 (of kappa_1) of a match,
# where L -> 0 and the naive (q^j - D^j) / (q - D) loses every digit.  At
# the fast carrier a detuning below ~4e-12 kappa_1 rounds to none.
NEAR_MATCH = [(1.0 + eps, 0.0, c) for eps in (1e-15, 1e-12, 1e-9) for c in (20.0, 2e4)] + [
    (1.0, eps, c) for eps in (1e-15, 1e-12, 1e-9) for c in (20.0, 2e4)
]
# The faster mode at kappa h = 0.098, near the resolution limit, either
# one: across 12411 nodes D^j / q^j or q^j / D^j reaches e^1168, which
# overflows unless the sum runs in the smaller ratio.
FAST_DECAY = [(25.0, 0.0, 20.0), (0.04, 0.0, 0.8)]


def source_faster(kappa_ratio, source_ratio, carrier_ratio):
    # The capture carrier at omega_1 / source_ratio, as a detuning, so a
    # window of one capture period holds 40 source_ratio nodes.
    detuning_ratio = carrier_ratio * (1.0 / source_ratio - 1.0)
    row_id = f"{kappa_ratio:.3g}-source-{source_ratio}x-{carrier_ratio}"
    return pytest.param(kappa_ratio, detuning_ratio, carrier_ratio, id=row_id)


# A source 1.2 times the capture carrier puts the envelope's highest lobe
# about 2.5 capture periods in (at carrier/kappa 20 and kappa ratio 12,
# within the first, so the peak rows start at 200); at 3 times the lobe
# lies within the first capture period, which peak_efficiency refuses,
# so only the window energies take those rows.
SOURCE_FASTER_PEAKS = [source_faster(r, 1.2, c) for r in (1.0 / 12.0, 1.0, 12.0) for c in (200.0, 2e4)]
SOURCE_FASTER_WINDOWS = [
    source_faster(r, s, c) for s in (1.2, 3.0) for r in (1.0 / 12.0, 1.0, 12.0) for c in (20.0, 2e4)
]


@pytest.mark.parametrize("kappa_ratio, detuning_ratio, carrier_ratio", PASS_GRID + SOURCE_FASTER_PEAKS)
def test_lazy_peak_matches_eager_reference(kappa_ratio, detuning_ratio, carrier_ratio):
    # The closed-form node voltages against the streamed pass they
    # replaced, through the whole search: the same peak and time up to
    # rounding (measured up to 1.4e-14 and 5e-11 relative).
    cfg = make_config(kappa_ratio=kappa_ratio, detuning_ratio=detuning_ratio, carrier_ratio=carrier_ratio)
    eta, t_opt = peak_efficiency(cfg)
    want_eta, want_t = eager_peak_efficiency(cfg)
    assert abs(eta - want_eta) <= 1e-13 * want_eta
    assert abs(t_opt - want_t) <= 1e-10 * want_t


@pytest.mark.parametrize("n_nodes", [1, 1000, 3 * BLOCK_PANELS + 123])
@pytest.mark.parametrize("kappa_ratio, detuning_ratio, carrier_ratio", PASS_GRID + NEAR_MATCH + FAST_DECAY)
def test_block_source_matches_eager_pass(n_nodes, kappa_ratio, detuning_ratio, carrier_ratio):
    # Node by node, the windowed slow path's closed-form voltages equal
    # the streamed pass before it up to rounding of the voltage amplitude
    # (measured up to 5e-15), below one block and across several blocks
    # ending in a partial one.
    cfg = make_config(kappa_ratio=kappa_ratio, detuning_ratio=detuning_ratio, carrier_ratio=carrier_ratio)
    period = 2.0 * math.pi / max(cfg.source.angular_frequency, cfg.target.angular_frequency)
    h = period / 80.0
    want = eager_node_voltages(cfg, h, n_nodes)
    got = simpson_voltages(cfg, h)(np.arange(1, n_nodes + 1))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "kappa_ratio, detuning_ratio, carrier_ratio", PASS_GRID + NEAR_MATCH + FAST_DECAY + SOURCE_FASTER_WINDOWS
)
def test_window_energy_matches_windowed_lstsq_path(kappa_ratio, detuning_ratio, carrier_ratio):
    # Window by window, the closed-form energy (per-peak pseudo-inverse
    # rows, a few complex scalars per window) against the path it
    # replaced: the node voltages of one capture period as numpy arrays
    # and an lstsq tone fit, from the first whole window on (measured up
    # to 1.6e-13, 9000 nodes into the fast-decay rows, where the energy
    # has fallen to 1e-32).  Where the source is the faster carrier the
    # window holds 48 or 120 nodes.
    cfg = make_config(kappa_ratio=kappa_ratio, detuning_ratio=detuning_ratio, carrier_ratio=carrier_ratio)
    period = 2.0 * math.pi / max(cfg.source.angular_frequency, cfg.target.angular_frequency)
    h = period / 80.0
    n = capture_window(cfg, h)
    energy = _window_energy(cfg, h, n)
    volts = simpson_voltages(cfg, h)
    for j in (n, n + 1, 1000, 4097, 9000):
        want = node_energy(cfg, volts, j, h)
        assert abs(energy(j) - want) <= 1e-12 * want, j


@given(
    log_kappa_ratio=st.floats(math.log(1.0 / 12.0), math.log(12.0)),
    detuning_ratio=st.floats(0.0, 2.0),
    log_carrier_ratio=st.floats(math.log(20.0), math.log(2e4)),
)
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
def test_peak_matches_eager_reference_on_drawn_pairs(log_kappa_ratio, detuning_ratio, log_carrier_ratio):
    # test_lazy_peak_matches_eager_reference off its grid: kappa ratios
    # over [1/12, 12] and carrier/kappa over [20, 2e4], both
    # log-uniform, and detunings over [0, 2] kappa_1, with the same bounds.
    cfg = make_config(
        kappa_ratio=math.exp(log_kappa_ratio),
        detuning_ratio=detuning_ratio,
        carrier_ratio=math.exp(log_carrier_ratio),
    )
    eta, t_opt = peak_efficiency(cfg)
    want_eta, want_t = eager_peak_efficiency(cfg)
    assert abs(eta - want_eta) <= 1e-13 * want_eta
    assert abs(t_opt - want_t) <= 1e-10 * want_t


@pytest.mark.parametrize("kappa_ratio", [1.3e-3, 1e-3])
def test_peak_is_the_highest_lobe_of_a_multi_lobe_response(kappa_ratio):
    # At kappa_2 / kappa_1 near 1e-3 and a detuning of 18 kappa_1 the
    # response has several lobes; a bracket of [seed / 3, 3 seed] on a
    # linear seed grid returned one 3.6-3.7 times below the highest.  The
    # search lands within 1e-6 of the peak at the best node of a
    # 20 000-point log grid of nodes up to t_max, refined node by node.
    cfg = make_config(kappa_ratio=kappa_ratio, detuning_ratio=18.0)
    eta, t_opt = peak_efficiency(cfg)
    h = 2.0 * math.pi / cfg.target.angular_frequency / 80.0
    t_max = 20.0 / cfg.target.decay_rate
    nodes = np.unique(np.geomspace(1.0, t_max / (2.0 * h), 20_000).astype(np.int64))
    want_eta, want_t = dense_node_peak(cfg, nodes)
    assert abs(eta - want_eta) <= 1e-6 * want_eta
    assert t_opt == pytest.approx(want_t, rel=1e-2)


@given(
    log_kappa_ratio=st.floats(math.log(1.0 / 12.0), math.log(12.0)),
    detuning_ratio=st.floats(0.0, 2.0),
    log_carrier_ratio=st.floats(math.log(20.0), math.log(2e4)),
)
@example(log_kappa_ratio=math.log(6.5), detuning_ratio=0.0, log_carrier_ratio=math.log(2 * math.pi * 5.02e9 * 260e-9))
@settings(max_examples=6, derandomize=True, database=None, deadline=None)
def test_peak_matches_a_dense_node_scan_on_drawn_pairs(log_kappa_ratio, detuning_ratio, log_carrier_ratio):
    # The default transfer-peak pair's ratios and pairs drawn as in
    # test_peak_matches_eager_reference_on_drawn_pairs: the search's peak
    # is within 1e-6 of the peak at the best node of a scan of at most
    # 2001 nodes over [0.8, 1.25] t_opt, refined node by node.
    cfg = make_config(
        kappa_ratio=math.exp(log_kappa_ratio),
        detuning_ratio=detuning_ratio,
        carrier_ratio=math.exp(log_carrier_ratio),
    )
    eta, t_opt = peak_efficiency(cfg)
    h = 2.0 * math.pi / max(cfg.source.angular_frequency, cfg.target.angular_frequency) / 80.0
    nodes = np.unique(np.linspace(0.8 * t_opt, 1.25 * t_opt, 2001) // (2.0 * h)).astype(np.int64)
    want_eta, _ = dense_node_peak(cfg, nodes)
    assert abs(eta - want_eta) <= 1e-6 * want_eta


@pytest.mark.parametrize("carrier_ratio", [None, 1e6], ids=["default", "carrier-1e6"])
def test_peak_search_evaluates_one_window_per_tone_fit(monkeypatch, carrier_ratio):
    # A peak evaluates one window energy per probe node, from one
    # pseudo-inverse of the tone fit's design taken when the search
    # starts, and never solves a least-squares problem: at the default
    # transfer-peak config (7e4 nodes in the bracket) and at
    # carrier/kappa = 1e6 (1.3e7) under 50 windows, one pinv, no lstsq.
    if carrier_ratio is None:
        cfg = RunConfig.from_sources().transfer_config()
    else:
        cfg = make_config(carrier_ratio=carrier_ratio)
    seen = {"windows": 0, "pinv": 0}
    real_energy = transfer._window_energy
    real_pinv = np.linalg.pinv

    def counting_energy(cfg, h, n):
        energy = real_energy(cfg, h, n)

        def counted(j):
            seen["windows"] += 1
            return energy(j)

        return counted

    def counting_pinv(a, *args, **kwargs):
        seen["pinv"] += 1
        return real_pinv(a, *args, **kwargs)

    def no_lstsq(*args, **kwargs):
        raise AssertionError("peak_efficiency called np.linalg.lstsq")

    monkeypatch.setattr(transfer, "_window_energy", counting_energy)
    monkeypatch.setattr(np.linalg, "pinv", counting_pinv)
    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    peak_efficiency(cfg)
    assert 0 < seen["windows"] < 50
    assert seen["pinv"] == 1


def test_peak_at_a_fast_carrier_matches_the_closed_forms():
    # At carrier/kappa = 1e6 the counter-rotating terms are 1e-6 of the
    # drive, so the numeric peak meets the rotating-wave closed forms.  At
    # 5e8 the search spans 6.4e10 nodes to t_max, near MAX_PEAK_NODES, and
    # the node phases stay resolved.
    kappa = 1e6
    for carrier_ratio, kappa_ratio, detuning_ratio, (want_eta, want_t) in (
        (c, *row)
        for c in (1e6, 5e8)
        for row in (
            (1.0, 0.0, kappa_mismatch_peak(kappa, kappa)),
            (6.5, 0.0, kappa_mismatch_peak(kappa, 6.5 * kappa)),
            (1.0, 1.0, freq_mismatch_peak(kappa, kappa)),
        )
    ):
        cfg = make_config(kappa, kappa_ratio=kappa_ratio, detuning_ratio=detuning_ratio, carrier_ratio=carrier_ratio)
        eta, t_opt = peak_efficiency(cfg)
        assert eta == pytest.approx(want_eta, abs=1e-10)
        assert t_opt == pytest.approx(want_t, rel=1e-5)


def test_peak_efficiency_refusals():
    cfg = make_config()
    # A capture mode that decays within a fraction of a carrier cycle is
    # not resolved by the quadrature step.
    with pytest.raises(NumericalError, match="not resolved"):
        peak_efficiency(make_config(kappa_ratio=1e5, carrier_ratio=20.0))
    # A huge but finite carrier spans ~1.3e11 nodes to t_max: refused at once.
    with pytest.raises(NumericalError, match="quadrature nodes"):
        peak_efficiency(make_config(carrier_ratio=1e9))
    # The efficiency is a ratio of energies: a config holds no drive
    # amplitude, so there is no silent config whose peak reads 0.
    with pytest.raises(TypeError):
        TransferConfig(source=cfg.source, target=cfg.target, drive_amplitude=0.0)


@given(
    log_kappa_ratio=st.floats(math.log(1.0 / 12.0), math.log(12.0)),
    detuning_ratio=st.floats(0.0, 2.0),
    log_carrier_ratio=st.floats(-3.0, 3.0),
)
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
def test_peak_is_an_efficiency_or_a_refusal_at_any_carrier_ratio(log_kappa_ratio, detuning_ratio, log_carrier_ratio):
    # A source carrier 10^x times the capture carrier's, x in [-3, 3], with
    # the kappa ratios and detunings of the drawn pairs above: a passive
    # capture mode stores at most what the source emits, so every peak is
    # in [0, 1], or the search refuses (a peak within the first capture
    # period, or a capture period past MAX_WINDOW_NODES).
    kappa = 1e6
    omega_1 = 2e4 * kappa
    cfg = TransferConfig(
        source=CavityMode(angular_frequency=omega_1, decay_rate=kappa),
        target=CavityMode(
            angular_frequency=omega_1 / 10.0**log_carrier_ratio + detuning_ratio * kappa,
            decay_rate=math.exp(log_kappa_ratio) * kappa,
        ),
    )
    try:
        eta, _ = peak_efficiency(cfg)
    except NumericalError:
        return
    assert 0.0 <= eta <= 1.0


@pytest.mark.parametrize(
    "source_hz, capture_hz, message",
    [
        (1e12, 5.02e9, "first capture period"),
        (5.02e9, 65.5e6, "first capture period"),
        (1e14, 1e8, "capture period spans"),
    ],
)
def test_peak_outside_the_tone_window_is_refused(source_hz, capture_hz, message):
    # A source far faster than the capture carrier, or a capture carrier
    # far off it, puts the envelope's peak within the first capture
    # period, where no window of one capture period ends: refused, where
    # shorter windows once read eta 5.95 and 355.  A source 1e6 times the
    # capture carrier (1 us decays) would need a window of 4e7 nodes, and
    # is refused before any array of that length exists.
    cfg = TransferConfig(
        source=CavityMode(angular_frequency=2.0 * math.pi * source_hz, decay_rate=1e6),
        target=CavityMode(angular_frequency=2.0 * math.pi * capture_hz, decay_rate=1e6),
    )
    tracemalloc.start()
    try:
        with pytest.raises(NumericalError, match=message) as info:
            peak_efficiency(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.params == ("cfg",)
    assert peak < 1e6


@pytest.mark.parametrize("found", [1.5, math.nan])
def test_peak_above_one_or_nan_is_refused(monkeypatch, found):
    # The last check of peak_efficiency, with no clamp: a search that
    # found more than the source emits, or no number, is refused.
    monkeypatch.setattr(transfer, "_golden_peak", lambda *args: (found, 1e-6))
    with pytest.raises(NumericalError, match=r"not in \[0, 1\]"):
        peak_efficiency(make_config())


def test_non_finite_seed_envelope_is_refused(monkeypatch):
    # A closed-form envelope with no number on the seed grid gives the
    # search no seed, so it is refused before any window is read.
    monkeypatch.setattr(transfer, "efficiency", lambda t, *rates: np.full(np.shape(t), math.nan))
    with pytest.raises(NumericalError, match="closed-form envelope is not finite over the seed grid") as info:
        peak_efficiency(make_config())
    assert info.value.params == ("cfg",)


def test_numeric_zero_cases():
    # Nothing is stored at t = 0, whatever the drive; without a drive the
    # fraction is 0/0 and the oracle refuses it.
    cfg = make_config()
    assert mode2_energy_numeric(0.0, cfg) == 0.0
    assert mode2_energy_numeric(0.0, cfg, drive_amplitude=3.0, line_impedance=75.0) == 0.0
    with pytest.raises(ValueError, match="must be positive"):
        mode2_energy_numeric(1e-6, cfg, drive_amplitude=0.0)
    with pytest.raises(ValueError, match="must be positive"):
        mode2_energy_numeric(1e-6, cfg, line_impedance=0.0)


@pytest.mark.parametrize("kappa_ratio, detuning_ratio", [(1.0, 0.0), (6.5, 0.0), (3.0, 0.5)])
def test_numeric_is_scale_free(kappa_ratio, detuning_ratio):
    # The oracle keeps its own drive amplitude V0 and line impedance Z0
    # and divides by its own V0^2 / (2 kappa_1 Z0); across two amplitudes
    # and two impedances the fraction moves only by rounding.  That is
    # the invariance the library's pass at V0 = Z0 = 1 relies on.
    cfg = make_config(kappa_ratio=kappa_ratio, detuning_ratio=detuning_ratio)
    for t in (0.3e-6, 2e-6):
        etas = [
            mode2_energy_numeric(t, cfg, drive_amplitude=v0, line_impedance=z0)
            for v0 in (1e-3, 3.0)
            for z0 in (10.0, 75.0)
        ]
        assert max(etas) - min(etas) <= 1e-13 * max(etas)


def test_numeric_argument_validation():
    cfg = make_config()
    with pytest.raises(ValueError):
        mode2_energy_numeric(-1e-6, cfg)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_numeric_refuses_non_finite_time(t):
    with pytest.raises(ValueError, match="t must be finite and non-negative"):
        mode2_energy_numeric(t, make_config())


def test_mode_validation():
    with pytest.raises(ValueError):
        CavityMode(angular_frequency=-1.0, decay_rate=1e6)
    with pytest.raises(ValueError):
        CavityMode(angular_frequency=1e9, decay_rate=0.0)
