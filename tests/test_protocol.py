"""Tests for the measurement-protocol Monte Carlo module.

Analytic expectations below are evaluated independently inside each
test from the channel arithmetic (relaxation, capture, dark counts
compose multiplicatively), from direct formula evaluation, or from FFT
and erfc oracles; Monte Carlo outputs are compared against those
within binomial error bars.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erfc, ndtri

import jpmsim.protocol
from jpmsim.errors import NumericalError
from jpmsim.protocol import (
    _finish_sweep,
    DEFAULT_DEPHASING_PER_PHOTON,
    DEFAULT_DEPLETION_RATE,
    SHOT_CHUNK_DRAWS,
    SPURIOUS_PHOTONS,
    IqModel,
    ProtocolConfig,
    ShotResult,
    depletion_recovery,
    fidelity_budget,
    iq_discriminate,
    iq_fidelity,
    rabi_chevron,
    ramsey_fringe,
    relaxation_error,
    separation_fidelity,
    simulate_shot,
    stark_calibration,
)
from jpmsim.transfer import kappa_mismatch_peak


def analytic_visibility(cfg: ProtocolConfig) -> float:
    # P(switch | excited) - P(switch | ground) for the three-stage
    # channel: survive relaxation, capture and detect, no dark count.
    return (1.0 - cfg.relaxation_prob) * cfg.bright_detect_prob * (1.0 - cfg.dark_prob)


def test_relaxation_error_direct_formula():
    # Average over a uniform emission time within the preparation
    # window: 1 - (T1/t)(1 - e^(-t/T1)).
    for t, t1 in ((780e-9, 6.6e-6), (100e-9, 6.6e-6), (2e-6, 1e-6)):
        want = 1.0 - (t1 / t) * (1.0 - math.exp(-t / t1))
        assert relaxation_error(t, t1) == pytest.approx(want, rel=1e-12)


def test_relaxation_error_limits():
    # Short-window series: t / (2 T1) to leading order.
    t, t1 = 1e-10, 6.6e-6
    assert relaxation_error(t, t1) == pytest.approx(t / (2.0 * t1), rel=1e-4)
    # Long windows lose everything.
    assert relaxation_error(1.0, 1e-6) == pytest.approx(1.0, abs=1e-5)
    assert 0.0 < relaxation_error(780e-9, 6.6e-6) < 1.0


@pytest.mark.parametrize(
    "t_prep, t1, error, match",
    [
        (0.0, 6.6e-6, ValueError, "must be positive"),
        (780e-9, -1.0, ValueError, "must be positive"),
        # T1/t_prep overflows to inf, and inf times expm1(-1e-320) is -inf.
        (1e-320, 1.0, NumericalError, "not finite for T1/t_prep = inf"),
    ],
    ids=["zero-window", "negative-t1", "ratio-overflow"],
)
def test_relaxation_error_refusals(t_prep, t1, error, match):
    with pytest.raises(error, match=match):
        relaxation_error(t_prep, t1)


def test_simulate_shot_reproducible():
    cfg = ProtocolConfig()
    a = [simulate_shot(True, cfg, np.random.default_rng(42)) for _ in range(20)]
    b = [simulate_shot(True, cfg, np.random.default_rng(42)) for _ in range(20)]
    assert a == b


def test_simulate_shot_deterministic_channels():
    # With every error channel switched off, an excited qubit always
    # switches via capture and a ground qubit never switches.
    cfg = ProtocolConfig(dark_prob=0.0, bright_detect_prob=1.0, relaxation_override=0.0)
    rng = np.random.default_rng(1)
    for _ in range(50):
        shot = simulate_shot(True, cfg, rng)
        assert shot.switch_bit == 1
    for _ in range(50):
        shot = simulate_shot(False, cfg, rng)
        assert shot.switch_bit == 0


def test_shot_result_consistency():
    # A shot record holds its bit and its IQ point; the bit is 0 or 1.
    assert [field.name for field in dataclasses.fields(ShotResult)] == ["switch_bit", "iq_point"]
    for bit in (-1, 2):
        with pytest.raises(ValueError):
            ShotResult(switch_bit=bit, iq_point=(0.0, 0.0))


def test_fidelity_budget_matches_sequential_shots():
    # The batch sampler must consume randomness exactly like repeated
    # single-shot calls: excited block first, then ground block, one
    # generator seeded from the config.
    cfg = ProtocolConfig()
    n = 10_000
    budget = fidelity_budget(cfg, n)

    rng = np.random.default_rng(cfg.rng_seed)
    exc = [simulate_shot(True, cfg, rng) for _ in range(n)]
    gnd = [simulate_shot(False, cfg, rng) for _ in range(n)]
    p_exc = sum(s.switch_bit for s in exc) / n
    p_gnd = sum(s.switch_bit for s in gnd) / n
    assert budget["F_raw"] == p_exc - p_gnd
    # A ground-state shot switches only on a dark count, so the same
    # shot records reproduce the dark-count estimator.
    assert budget["epsilon_dark"] == p_gnd


def _reference_batch(qubit_excited, n_shots, cfg, iq_model, rng):
    # Reference: the full batch sampler, which draws every column of the
    # pinned layout and turns it into switch flags and IQ points,
    # (switch, captured, relaxed, iq_x, iq_y).
    u = rng.random((n_shots, 5))
    if qubit_excited:
        relaxed = u[:, 0] < cfg.relaxation_prob
        captured = ~relaxed & (u[:, 1] < cfg.bright_detect_prob)
    else:
        relaxed = np.zeros(n_shots, dtype=bool)
        captured = np.zeros(n_shots, dtype=bool)
    switch = captured | (~captured & (u[:, 2] < cfg.dark_prob))
    noise = ndtri(u[:, 3:])
    iq_x, iq_y = (
        iq_model.sigma * noise[:, axis] + np.where(switch, c1, c0)
        for axis, (c0, c1) in enumerate(zip(iq_model.centroid_0, iq_model.centroid_1))
    )
    return switch, captured, relaxed, iq_x, iq_y


def _reference_budget(cfg, n_shots):
    rng = np.random.default_rng(cfg.rng_seed)
    switch, _, relaxed, _, _ = _reference_batch(True, n_shots, cfg, IqModel(), rng)
    ground_switch = _reference_batch(False, n_shots, cfg, IqModel(), rng)[0]
    miss = ~switch
    eps_dark = float(np.mean(ground_switch))
    return {
        "F_raw": 1.0 - float(np.mean(miss)) - eps_dark,
        "epsilon_relax": float(np.mean(miss & relaxed)),
        "epsilon_dark": eps_dark,
        "epsilon_other": float(np.mean(miss & ~relaxed)),
    }


def _reference_shot(qubit_excited, cfg, rng, iq_model):
    # (shot record, its switch cause) of a one-row reference block.
    switch, captured, _, iq_x, iq_y = _reference_batch(qubit_excited, 1, cfg, iq_model, rng)
    cause = "bright_capture" if captured[0] else "dark_count" if switch[0] else "none"
    return ShotResult(int(switch[0]), (float(iq_x[0]), float(iq_y[0]))), cause


def _assert_budget_matches_reference(p_r, p_b, p_d, n, seed):
    cfg = ProtocolConfig(relaxation_override=p_r, bright_detect_prob=p_b, dark_prob=p_d, rng_seed=seed)
    budget = fidelity_budget(cfg, n)
    assert budget == _reference_budget(cfg, n)
    assert all(type(value) is float for value in budget.values())


def _edge_probabilities(k):
    # The probabilities at which the word bound ceil(p 2^53) 2^11 is
    # easiest to get wrong: both ends, the smallest subnormal, the first
    # grid step, the grid step k 2^-53 with one ulp on either side, and
    # the last grid step below 1.
    grid = k * 2.0**-53
    return [0.0, 5e-324, 2.0**-53, math.nextafter(grid, 0.0), grid, math.nextafter(grid, 1.0), 1.0 - 2.0**-53, 1.0]


def _first_switch_uniforms(seed):
    # The grid steps k of the first shot's three switch uniforms from the
    # stream of seed, so a probability k 2^-53 sits exactly on a drawn
    # uniform and its ulp neighbours straddle it.
    return [int(u * 2.0**53) for u in np.random.default_rng(seed).random(3)]


# Shot counts n whose 5 n draws fall just below and just above one and
# two multiples of SHOT_CHUNK_DRAWS.
_STRADDLING_SHOTS = [m * SHOT_CHUNK_DRAWS // 5 + extra for m in (1, 2) for extra in (0, 1)]


@pytest.mark.parametrize("p_r, p_b, p_d", [(0.05, 0.99, 0.02), (0.0, 1.0, 0.0), (1.0, 0.5, 1.0), (0.3, 0.9, 0.1)])
def test_fidelity_budget_matches_reference_batch(p_r, p_b, p_d):
    # Comparing raw words with word bounds, and reading only the switch
    # columns, gives the same floats, of type float, as the full float
    # batch sampler with its mean-of-bools arithmetic.
    for n, seed in itertools.product((10_000, 123_457), (1, 7, 99)):
        _assert_budget_matches_reference(p_r, p_b, p_d, n, seed)


@pytest.mark.parametrize("column", [0, 1, 2])
@pytest.mark.parametrize("seed", [20, 21])
def test_fidelity_budget_matches_reference_at_edge_probabilities(seed, column):
    # Each edge probability in the column of one switch draw, where the
    # grid step k is that of the first shot's own draw in the column, so
    # that shot is decided on exactly the bound and one ulp to either
    # side of it.  The other two probabilities are 0, so the column's
    # draw alone decides which count the shot lands in.  Seed 20's first
    # switch uniforms lie below 1/2, where an ulp is finer than the grid
    # step 2^-53, and seed 21's above, where the two are equal.
    k = _first_switch_uniforms(seed)[column]
    assert (k < 2**52) == (seed == 20)
    for p in _edge_probabilities(k):
        probs = [0.0, 0.0, 0.0]
        probs[column] = p
        _assert_budget_matches_reference(*probs, 10_000, seed)


@pytest.mark.parametrize("n", _STRADDLING_SHOTS)
def test_fidelity_budget_matches_reference_across_chunk_edges(n):
    _assert_budget_matches_reference(0.3, 0.9, 0.1, n, 5)


def test_fidelity_budget_matches_reference_in_one_draw_chunks(monkeypatch):
    # A chunk of one draw still holds one whole shot, at both ends of
    # every probability and on the first shot's own grid steps.
    monkeypatch.setattr(jpmsim.protocol, "SHOT_CHUNK_DRAWS", 1)
    seed = 20
    steps = _first_switch_uniforms(seed)
    for probs in zip(*(_edge_probabilities(k) for k in steps)):
        _assert_budget_matches_reference(*probs, 10_000, seed)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.tuples(*[st.floats(0.0, 1.0)] * 3), st.integers(0, 2**32 - 1))
def test_fidelity_budget_matches_reference_on_any_probabilities(probs, seed):
    _assert_budget_matches_reference(*probs, 10_000, seed)


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 + 7])
def test_pcg64_uniform_is_top_53_bits_of_raw_word(seed):
    # The premise of the budget's word bounds: PCG64's Generator.random
    # is (w >> 11) 2^-53 of one raw word w a draw, bit for bit, and
    # leaves the generator where drawing as many raw words does.  A numpy
    # release that changes the conversion fails here by name.
    uniforms, words = np.random.default_rng(seed), np.random.default_rng(seed)
    assert isinstance(uniforms.bit_generator, np.random.PCG64)
    got = uniforms.random(100_000)
    want = (words.bit_generator.random_raw(100_000) >> np.uint64(11)) * 2.0**-53
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert uniforms.bit_generator.state == words.bit_generator.state


def test_word_limits_match_float_rule_at_their_bounds():
    # Words bound - 1 and bound, where they are uint64 words, against
    # the float rule u < p on their uniforms u = (w >> 11) 2^-53, with
    # bound = ceil(p 2^53) 2^11 computed exactly from p's fraction.
    for k in (1, 3, 2**52 + 1, 2**53 - 2, 123_456_789_012_345):
        for p in _edge_probabilities(k):
            ratio = Fraction(p) * 2**53
            bound = -(-ratio.numerator // ratio.denominator) << 11
            limit = jpmsim.protocol._word_limit(p)
            for w in (bound - 1, bound):
                if 0 <= w < 2**64:
                    passes = bool((np.array([w], dtype=np.uint64) < limit)[0])
                    assert passes == ((w >> 11) * 2.0**-53 < p) == (w < bound)
    # Both ends: no word passes 0, every word passes 1.
    ends = np.array([0, 1, 2**11, 2**63, 2**64 - 2**11, 2**64 - 1], dtype=np.uint64)
    assert not (ends < jpmsim.protocol._word_limit(0.0)).any()
    assert (ends < jpmsim.protocol._word_limit(1.0)).all()
    assert jpmsim.protocol._word_limit(0.0) == 0


def _unit_axis(model):
    c0 = np.asarray(model.centroid_0, dtype=float)
    c1 = np.asarray(model.centroid_1, dtype=float)
    return c0, c1, (c1 - c0) / model.separation


def _reference_predictions(model, labels, uniforms):
    # Per shot, the predicted label from its uniforms, and the
    # (overflow-free) midpoint threshold.  The noise frame is I/Q turned
    # onto the centroid line: the read column is the quadrature nearest
    # that line (I on a 45-degree tie), and a label-l shot projects to
    # fl(c_l @ a) + copysign(sigma, a[read]) ndtri(u_read).  The other
    # column is never read.
    c0, c1, axis = _unit_axis(model)
    threshold = float((c0 + 0.5 * (c1 - c0)) @ axis)
    read = int(abs(axis[1]) > abs(axis[0]))
    offsets = np.where(labels == 1, float(c1 @ axis), float(c0 @ axis))
    projections = offsets + math.copysign(model.sigma, axis[read]) * ndtri(uniforms[:, read])
    return projections > threshold, threshold


def _reference_points_predictions(model, labels, uniforms):
    # The whole-point rule: each shot's IQ point, the centroid plus sigma
    # times the deviates of both uniforms, projected onto the unit axis.
    c0, c1, axis = _unit_axis(model)
    noise = ndtri(uniforms)
    points = np.stack(
        [model.sigma * noise[:, column] + np.where(labels == 1, b, a)
         for column, (a, b) in enumerate(zip(c0, c1))],
        axis=1,
    )
    threshold = float((c0 + 0.5 * (c1 - c0)) @ axis)
    return points @ axis > threshold, threshold


def _reference_iq(model, labels, rng, predictions=_reference_predictions):
    # Reference: the whole-array label path, which draws every shot's
    # uniforms at once and classifies all shots with a mean of bools.
    # iq_fidelity(model, n, rng) is this path on labels np.repeat([0, 1], n).
    labels = np.asarray(labels)
    predicted, threshold = predictions(model, labels, rng.random((labels.size, 2)))
    predicted = predicted.astype(int)
    return {
        "single_shot_fidelity": 1.0 - float(np.mean(predicted != labels)),
        "separation_fidelity": separation_fidelity(model),
        "threshold": threshold,
    }


def _aligned_models():
    # Centroid lines along +x, -x, +y and -y (the unit axis is exactly
    # (+-1, 0) or (0, +-1)) from a cloud at 0.01 sigma to one whose
    # classes overlap, and two clouds 1e10 sigma apart, which no drawn
    # point crosses.
    models = [
        IqModel(centroid_0=(0.2, -0.3), centroid_1=(0.2 + dx, -0.3 + dy), sigma=sigma)
        for dx, dy in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))
        for sigma in (0.01, 0.14144271570014144, 0.3, 2.5, 40.0)
    ]
    return models + [IqModel(centroid_1=(1e200, 0.0), sigma=1e190)]


def _off_axis_models():
    # A centroid line in each quadrant, one at exactly 45 degrees (equal
    # axis components, so it reads I), and one 1e-12 rad off the I axis.
    models = [
        IqModel(centroid_0=(0.2, -0.3), centroid_1=(0.2 + math.cos(angle), -0.3 + math.sin(angle)), sigma=0.45)
        for angle in (0.6, 2.2, 3.9, 5.3)
    ]
    return models + [
        IqModel(centroid_1=(0.7, 0.7), sigma=0.45),
        IqModel(centroid_1=(math.cos(1e-12), math.sin(1e-12)), sigma=0.45),
    ]


def _assert_matches_reference(model, n, seed, predictions=_reference_predictions):
    # n shots of each class: the same bits as the reference on the labels
    # np.repeat([0, 1], n) from the same stream, and the generator left
    # where the reference leaves it.
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    _assert_same_iq(iq_fidelity(model, n, rng), _reference_iq(model, np.repeat([0, 1], n), ref, predictions))
    assert rng.bit_generator.state == ref.bit_generator.state


def _assert_same_iq(got, want):
    # Every field by its bits, and each of type float.
    assert {key: value.hex() for key, value in got.items()} == {key: value.hex() for key, value in want.items()}
    assert all(type(value) is float for value in got.values())


def test_iq_discriminate_matches_reference_batch():
    # iq_fidelity at one shot per class, a few, one more than a chunk, and
    # several chunks plus a remainder.  Every model classifies by a cutoff
    # on the read uniform, and must give the same bits as the ndtri
    # reference and leave the generator where it does.
    off_axis = IqModel(centroid_0=(0.2, -0.3), centroid_1=(1.1, 0.4), sigma=0.45)
    rows = SHOT_CHUNK_DRAWS // 2
    for n in (1, 5, rows + 1, 3 * rows + 123):
        for model in (off_axis, *_off_axis_models(), *_aligned_models()):
            _assert_matches_reference(model, n, 11)


def test_one_shot_chunks_match_default_chunking(monkeypatch):
    # A chunk of one draw still holds one whole shot, so each shot is
    # drawn and counted on its own, for an off-axis model and for every
    # aligned one, against the reference as in the default chunking.
    cfg = ProtocolConfig(relaxation_override=0.3, bright_detect_prob=0.9, dark_prob=0.1, rng_seed=3)
    model = IqModel(centroid_1=(1.0, 0.5), sigma=0.4)
    want_budget = fidelity_budget(cfg, 10_000)
    want_iq = iq_fidelity(model, 500, np.random.default_rng(5))
    monkeypatch.setattr(jpmsim.protocol, "SHOT_CHUNK_DRAWS", 1)
    assert fidelity_budget(cfg, 10_000) == want_budget == _reference_budget(cfg, 10_000)
    _assert_same_iq(iq_fidelity(model, 500, np.random.default_rng(5)), want_iq)
    _assert_matches_reference(model, 500, 5)
    for aligned in _aligned_models():
        _assert_matches_reference(aligned, 300, 5)
    assert all(type(value) is float for value in want_budget.values())


class _BlockRng:
    # A stand-in generator whose random(shape) hands out the next rows of
    # a prepared block, one copy per call.
    def __init__(self, block):
        self.block, self.start = np.asarray(block, dtype=float), 0

    def random(self, shape):
        rows = self.block[self.start:self.start + shape[0]]
        assert rows.shape == shape
        self.start += shape[0]
        return rows.copy()


def _classifier(model, label):
    # _cutoff_classifier's (K, classify) for one label of model, as
    # iq_fidelity builds it, and the read column.
    c0, c1, axis = _unit_axis(model)
    threshold = float((c0 + 0.5 * (c1 - c0)) @ axis)
    read = int(abs(axis[1]) > abs(axis[0]))
    offset = float((c1 if label else c0) @ axis)
    scale = math.copysign(model.sigma, axis[read])
    return (*jpmsim.protocol._cutoff_classifier(offset, scale, threshold), read)


def _assert_cutoff_matches_ndtri_near_cutoff(model):
    # Every uniform within 2^12 grid steps of each class's cutoff, and both
    # edges of its guard band with their outer neighbours, per row against
    # the ndtri reference, and on the I or Q axis also against the
    # whole-point reference; then the same block as that class's shots
    # through iq_fidelity from a stand-in generator, with seeded rows as
    # the other class's, against the reference on the same rows.
    # Returns the ndtri reference's predictions in step order, per class.
    guard = jpmsim.protocol.CUTOFF_GUARD_STEPS
    predictions = []
    for label in (0, 1):
        step, classify, read = _classifier(model, label)
        offsets = np.union1d(np.arange(-(2**12), 2**12 + 1), [-guard - 1, -guard, guard, guard + 1])
        steps = step + offsets
        steps = steps[(steps >= 0) & (steps < 2**53)]
        block = np.random.default_rng(label).random((steps.size, 2))
        block[:, read] = steps * 2.0**-53
        labels = np.full(steps.size, label)
        want = _reference_predictions(model, labels, block)[0]
        assert np.array_equal(classify(block[:, read]), want)
        if 0.0 in _unit_axis(model)[2]:
            assert np.array_equal(_reference_points_predictions(model, labels, block)[0], want)
        if step < 2**53:
            # The ndtri reference itself turns between the cutoff and the step below it.
            assert want[steps == step - 1] != want[steps == step]
        other = np.random.default_rng(2 + label).random(block.shape)
        both = np.concatenate([other, block] if label else [block, other])
        _assert_same_iq(
            iq_fidelity(model, steps.size, _BlockRng(both)),
            _reference_iq(model, np.repeat([0, 1], steps.size), _BlockRng(both)),
        )
        predictions.append(want)
    return predictions


@pytest.mark.parametrize(
    "model",
    [IqModel(), IqModel(centroid_1=(-1.0, 0.0), sigma=0.3), IqModel(centroid_1=(0.0, 1.0), sigma=2.5),
     IqModel(centroid_0=(0.2, 0.0), centroid_1=(0.2, -1.0), sigma=40.0), IqModel(sigma=0.01),
     IqModel(centroid_1=(0.7, 0.7), sigma=0.45), IqModel(centroid_0=(0.2, -0.3), centroid_1=(-0.9, 0.4), sigma=0.3),
     IqModel(centroid_1=(-0.3, -2.0), sigma=1.5)],
    ids=["+x", "-x", "+y", "-y", "no-crossing", "45-degrees", "reads-I", "reads-Q"],
)
def test_cutoff_classifies_every_uniform_near_the_cutoff_as_ndtri_does(model):
    _assert_cutoff_matches_ndtri_near_cutoff(model)


def test_cutoff_band_covers_a_step_back_of_ndtri():
    # The computed ndtri is not monotone on the uniform grid: near u = 0.9
    # some deviate is below its left neighbour's.  A class-0 cloud at the
    # origin whose threshold 0.5 falls between those two deviates predicts
    # False, True, False, True on four neighbouring steps, so one cutoff
    # alone would misclassify one of them; the guard band does not.
    steps = np.arange(int(0.9 * 2**53), int(0.9 * 2**53) + 200_000)
    deviates = ndtri(steps * 2.0**-53)
    for i in np.flatnonzero(np.diff(deviates) < 0):
        sigma = 0.5 / (0.5 * (deviates[i] + deviates[i + 1]))
        if (sigma * deviates[i - 1:i + 3] > 0.5).tolist() == [False, True, False, True]:
            break
    else:
        pytest.skip("this ndtri steps back nowhere in the window, so no cloud can straddle a step back")
    want = _assert_cutoff_matches_ndtri_near_cutoff(IqModel(sigma=sigma))[0]
    assert np.count_nonzero(np.diff(want.astype(int))) == 3


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def test_scalar_ports_equal_scipy_bit_for_bit():
    # _ndtri and _erfc are step-for-step ports of the Cephes code scipy
    # compiles, and call the same libm log and exp.  So they give scipy's
    # bits, compared here as int64, on seeded uniforms and their 8th
    # powers at both ends, the first grid steps k 2^-53 at both ends, a
    # run of neighbours on both sides of each branch edge (e^-2, 1 - e^-2
    # and e^-32, where sqrt(-2 log y) = 8), 0, 1 and 2^-1074; and erfc
    # on each branch of either sign and past MAXLOG.  A failure here on
    # some platform means its libm differs from the one scipy's compiled
    # code calls, and the cutoff path is then no longer the ndtri path.
    u = np.random.default_rng(31).random(20_000)
    steps = np.arange(1, 2001) * 2.0**-53
    edges = [jpmsim.protocol._EXP_MINUS_2, 1.0 - jpmsim.protocol._EXP_MINUS_2, math.exp(-32.0)]
    near = []
    for edge in edges:
        for direction in (0.0, 1.0):
            v = edge
            for _ in range(64):
                near.append(v)
                v = float(np.nextafter(v, direction))
    ys = np.concatenate([u, u**8, 1.0 - u**8, steps, 1.0 - steps, near, [0.0, 1.0, 2.0**-1074]])
    assert np.array_equal(_bits([jpmsim.protocol._ndtri(y) for y in ys.tolist()]), _bits(ndtri(ys)))

    x = np.random.default_rng(32).random(5000)
    xs = np.concatenate([
        2.0 * x - 1.0, 1.0 + 7.0 * x, 8.0 + 18.6 * x, -1.0 - 30.0 * x, 26.6 + 0.1 * x, 27.0 + 1e3 * x,
        np.nextafter([1.0, 8.0], 0.0), [0.0, -0.0, 1.0, -1.0, 8.0, -8.0, 1e300, -1e300, np.inf, -np.inf, 2.0**-1074],
    ])
    assert np.array_equal(_bits([jpmsim.protocol._erfc(a) for a in xs.tolist()]), _bits(erfc(xs)))


def _random_aligned_models(n, seed):
    # Centroid lines along +x, -x, +y and -y in turn, separations d from
    # 1e-3 to 1e3 and sigma / d from 10^-2.5 to 10^1.5, log-uniform, with
    # a random first centroid.
    rng = np.random.default_rng(seed)
    models = []
    for i in range(n):
        d = 10.0 ** rng.uniform(-3.0, 3.0)
        sigma = d * 10.0 ** rng.uniform(-2.5, 1.5)
        c0 = tuple(rng.normal(0.0, 2.0 * d, 2).tolist())
        step = [(d, 0.0), (-d, 0.0), (0.0, d), (0.0, -d)][i % 4]
        models.append(IqModel(centroid_0=c0, centroid_1=(c0[0] + step[0], c0[1] + step[1]), sigma=sigma))
    return models


def test_cutoff_path_matches_ndtri_path_on_random_aligned_models():
    # The fast path against the slow ones it replaces: every field of
    # iq_fidelity by its bits and the generator state after, against
    # the along-line and the whole-point scipy ndtri references; and each
    # class's bisection step K is a turn of both, which predict
    # differently at K - 1 and at K (at u = 1 when K is 2^53).
    for i, model in enumerate(_random_aligned_models(100, 7)):
        assert 0.0 in _unit_axis(model)[2], model
        for predictions in (_reference_predictions, _reference_points_predictions):
            _assert_matches_reference(model, 500, 100 + i, predictions)
        for label in (0, 1):
            step, _, read = _classifier(model, label)
            rows = np.full((2, 2), 0.5)
            rows[:, read] = [(step - 1) * 2.0**-53, step * 2.0**-53]
            for predictions in (_reference_predictions, _reference_points_predictions):
                turn = predictions(model, np.full(2, label), rows)[0]
                assert turn[0] != turn[1], (model, label, step)


def test_whole_point_reference_equals_the_along_line_rule_on_axis():
    # On the I or Q axis the unread component of the unit axis is an exact
    # zero, so the along-line rule computes the whole point's projection
    # float for float: the same predictions and threshold bits on the same
    # blocks, which hold seeded rows, rows whose read uniform is 0.0
    # (deviate -inf) and, per class, rows at its cutoff step and both
    # neighbours.  This is what keeps every on-axis artifact's bytes.
    for i, model in enumerate(_aligned_models() + _random_aligned_models(100, 7)):
        read = _classifier(model, 0)[2]
        draws = np.random.default_rng(i)
        block, labels = draws.random((1000, 2)), draws.integers(0, 2, 1000)
        block[:4, read] = 0.0
        for label in (0, 1):
            step = _classifier(model, label)[0]
            near = [k * 2.0**-53 for k in (step - 1, step, step + 1) if 0 <= k <= 2**53]
            rows = draws.random((len(near), 2))
            rows[:, read] = near
            block, labels = np.concatenate([block, rows]), np.concatenate([labels, np.full(len(near), label)])
        assert np.all(block[:, 1 - read] > 0.0)
        want, got = _reference_predictions(model, labels, block), _reference_points_predictions(model, labels, block)
        assert np.array_equal(got[0], want[0]), model
        assert got[1].hex() == want[1].hex()


def test_a_zero_uniform_is_classified_or_refused_by_path():
    # Generator.random draws from [0, 1), and ndtri(0.0) is -inf.  In the
    # read column of any model that is a projection at -inf along the
    # centroid line, classified as the reference does, and for an aligned
    # model as the whole-point reference does.  The other column is never
    # read: a shot whose unread uniform is 0.0 classifies as one whose
    # unread uniform is 0.5, where the whole-point reference would
    # multiply -inf by the zero axis component.
    aligned = IqModel(sigma=0.3)
    off_axis = IqModel(centroid_1=(1.0, 0.5), sigma=0.3)
    labels = np.repeat([0, 1], 2)
    block = np.random.default_rng(3).random((4, 2))
    block[1:3, 0] = 0.0
    unread = block.copy()
    unread[1:3, 1] = 0.0
    finite = block.copy()
    finite[1:3, 1] = 0.5
    for model in (aligned, off_axis):
        _assert_same_iq(iq_fidelity(model, 2, _BlockRng(block)), _reference_iq(model, labels, _BlockRng(block)))
        _assert_same_iq(iq_fidelity(model, 2, _BlockRng(unread)), _reference_iq(model, labels, _BlockRng(finite)))
    _assert_same_iq(
        iq_fidelity(aligned, 2, _BlockRng(block)),
        _reference_iq(aligned, labels, _BlockRng(block), _reference_points_predictions),
    )


def test_off_axis_models_reach_separation_fidelity():
    # Off the I and Q axes the read uniform gives the deviate along the
    # centroid line, so single_shot_fidelity is a binomial estimate of
    # separation_fidelity: within 5 standard errors at 4e5 shots.  The
    # generator ends where one draw of every shot's 2 uniforms leaves it.
    n = 400_000
    models = _off_axis_models()
    assert _unit_axis(models[4])[2][0] == _unit_axis(models[4])[2][1]
    for i, model in enumerate(models):
        assert 0.0 not in _unit_axis(model)[2], model
        rng, ref = np.random.default_rng(40 + i), np.random.default_rng(40 + i)
        got = iq_fidelity(model, n // 2, rng)["single_shot_fidelity"]
        ref.random((n, 2))
        assert rng.bit_generator.state == ref.bit_generator.state
        want = separation_fidelity(model)
        assert abs(got - want) < 5.0 * math.sqrt(want * (1.0 - want) / n), (model, got, want)


def _traced_peak_mb(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_shot_paths_memory_is_flat_in_shot_count():
    # The tracemalloc peak of a 4e6-shot call stays near that of a
    # 1e5-shot one: only a chunk of draws is held at a time.
    cfg = ProtocolConfig()
    small, large = (_traced_peak_mb(lambda: fidelity_budget(cfg, n)) for n in (100_000, 4_000_000))
    assert large < 10.0 and large < 2.0 * small
    # The default model and an off-axis one.
    for model in (IqModel(), IqModel(centroid_1=(1.0, 0.5), sigma=0.4)):
        small, large = (_traced_peak_mb(lambda: iq_fidelity(model, n // 2, np.random.default_rng(1)))
                        for n in (100_000, 4_000_000))
        assert large < 10.0 and large < 2.0 * small


def test_shot_paths_working_set_is_near_one_chunk():
    # At 10^6 shots the tracemalloc peak stays within 1.6 chunks of
    # draws: the budget holds a chunk of words and its boolean columns
    # (about 1.2 chunks), iq_fidelity a chunk of uniforms and a
    # contiguous copy of the read column (about 1.5).  Small calls first
    # import numpy.random, whose own allocations would otherwise count
    # in the first call's peak.
    limit_mb = 1.6 * SHOT_CHUNK_DRAWS * 8 / 1e6
    cfg = ProtocolConfig()
    fidelity_budget(cfg, 10_000)
    assert _traced_peak_mb(lambda: fidelity_budget(cfg, 1_000_000)) < limit_mb
    for model in (IqModel(), IqModel(centroid_1=(1.0, 0.5), sigma=0.4)):
        iq_fidelity(model, 1_000, np.random.default_rng(1))
        assert _traced_peak_mb(lambda: iq_fidelity(model, 1_000_000, np.random.default_rng(1))) < limit_mb


@pytest.mark.parametrize("centroid_1", [(1.0, 0.0), (1.0, 2.0)], ids=["on-axis", "off-axis"])
def test_simulate_shot_matches_reference_batch(centroid_1):
    # The scalar shot against a one-row block of the reference sampler:
    # the same switch bit, the same IQ bits (float.hex tells -0.0 from
    # 0.0), the same field types and the same stream position.  The
    # reference's causes show that every switch path ran.  The off-axis
    # centroid exercises both components of the point.
    model = IqModel(centroid_1=centroid_1)
    causes = set()
    for p_r, p_b, p_d in ((0.05, 0.99, 0.02), (0.3, 0.9, 0.1), (0.0, 1.0, 0.0), (1.0, 0.0, 1.0)):
        cfg = ProtocolConfig(relaxation_override=p_r, bright_detect_prob=p_b, dark_prob=p_d)
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        for i in range(500):
            shot = simulate_shot(i % 3 != 0, cfg, rng, model)
            want, cause = _reference_shot(i % 3 != 0, cfg, ref, model)
            assert shot.switch_bit == want.switch_bit
            assert [v.hex() for v in shot.iq_point] == [v.hex() for v in want.iq_point]
            assert type(shot.switch_bit) is int and type(shot.iq_point) is tuple
            assert all(type(v) is float for v in shot.iq_point)
            causes.add(cause)
        assert rng.bit_generator.state == ref.bit_generator.state
    assert causes == {"bright_capture", "dark_count", "none"}


def test_fidelity_budget_closure():
    # F_raw + epsilon_relax + epsilon_dark + epsilon_other is exactly 1
    # by construction of the partitioned estimators.
    cfg = ProtocolConfig()
    budget = fidelity_budget(cfg, 20_000)
    total = (
        budget["F_raw"]
        + budget["epsilon_relax"]
        + budget["epsilon_dark"]
        + budget["epsilon_other"]
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_fidelity_budget_values():
    # Independent channel arithmetic with the override error rates:
    # visibility   = (1 - eps_r) p_b (1 - eps_d) = 0.92169
    # eps_relax    = eps_r (1 - eps_d)           = 0.049
    # eps_other    = (1 - eps_r)(1 - p_b)(1 - eps_d) = 0.00931
    cfg = ProtocolConfig()
    n = 100_000
    budget = fidelity_budget(cfg, n)
    sigma = 3.0 / math.sqrt(n)
    assert budget["F_raw"] == pytest.approx(analytic_visibility(cfg), abs=2.0 * sigma)
    assert budget["epsilon_relax"] == pytest.approx(0.05 * 0.98, abs=sigma)
    assert budget["epsilon_dark"] == pytest.approx(0.02, abs=sigma)
    assert budget["epsilon_other"] == pytest.approx(0.95 * 0.01 * 0.98, abs=sigma)


def test_fidelity_budget_rejects_small_samples():
    with pytest.raises(ValueError):
        fidelity_budget(ProtocolConfig(), 9_999)


def test_fidelity_budget_dark_count_sensitivity():
    # Doubling the dark-count probability lowers the raw fidelity by
    # about (1 - eps_r) p_b * 0.02, the linearized budget arithmetic.
    base = fidelity_budget(ProtocolConfig(), 100_000)
    worse = fidelity_budget(ProtocolConfig(dark_prob=0.04), 100_000)
    want = analytic_visibility(ProtocolConfig(dark_prob=0.04)) - analytic_visibility(
        ProtocolConfig()
    )
    assert worse["F_raw"] - base["F_raw"] == pytest.approx(want, abs=3e-3)


def test_measured_probability_channel():
    cfg = ProtocolConfig()
    vis = analytic_visibility(cfg)
    # Ideal probability 0 -> dark counts only; 1 -> dark + visibility.
    assert _finish_sweep(0.0, cfg, None) == pytest.approx(cfg.dark_prob, rel=1e-12)
    assert _finish_sweep(1.0, cfg, None) == pytest.approx(cfg.dark_prob + vis, rel=1e-12)
    p = np.linspace(0.0, 1.0, 11)
    out = _finish_sweep(p, cfg, None)
    assert np.all(np.diff(out) > 0.0)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_ramsey_fringe_structure():
    cfg = ProtocolConfig(dark_prob=0.0, bright_detect_prob=1.0, relaxation_override=0.0, t1=1.0)
    delays = np.linspace(0.0, 8e-6, 641)
    detunings = 2.0 * math.pi * np.array([-1e6, 0.0, 1e6])
    grid = ramsey_fringe(detunings, delays, cfg, t2=2.0, amplitude=1.0)
    assert grid.shape == (3, 641)
    # Zero detuning with no decay stays at the maximum.
    assert np.allclose(grid[1], 1.0, atol=1e-9)
    # Opposite detunings give identical fringes (cos^2 is even).
    assert np.allclose(grid[0], grid[2], atol=1e-12)
    # Fringe frequency oracle: FFT of the demeaned zero-padded trace
    # peaks at the detuning frequency.
    trace = grid[0] - grid[0].mean()
    padded = np.zeros(1 << 14)
    padded[: trace.size] = trace
    freqs = np.fft.rfftfreq(padded.size, d=delays[1] - delays[0])
    peak = freqs[int(np.argmax(np.abs(np.fft.rfft(padded))))]
    assert peak == pytest.approx(1e6, rel=0.02)


def test_ramsey_fringe_decay_and_channel():
    cfg = ProtocolConfig()
    delays = np.linspace(0.0, 2e-6, 81)
    grid = ramsey_fringe(np.array([0.0]), delays, cfg, t2=0.5e-6, amplitude=1.0)
    vis = analytic_visibility(cfg)
    # All points sit inside the channel range [dark, dark + visibility].
    assert np.all(grid >= cfg.dark_prob - 1e-12)
    assert np.all(grid <= cfg.dark_prob + vis + 1e-12)
    # The envelope decays toward the mixed-state plateau 0.5.
    ideal_tail = math.exp(-delays[-1] / 0.5e-6)
    assert grid[0, -1] == pytest.approx(cfg.dark_prob + vis * ideal_tail, rel=1e-9)
    with pytest.raises(ValueError):
        ramsey_fringe(np.array([0.0]), delays, cfg, t2=100.0, amplitude=1.0)


def test_ramsey_fringe_sampled():
    cfg = ProtocolConfig()
    delays = np.linspace(0.0, 2e-6, 21)
    exact = ramsey_fringe(np.array([0.0]), delays, cfg, amplitude=1.0)
    noisy = ramsey_fringe(np.array([0.0]), delays, cfg, amplitude=1.0, n_shots=100_000)
    again = ramsey_fringe(np.array([0.0]), delays, cfg, amplitude=1.0, n_shots=100_000)
    assert np.array_equal(noisy, again)
    assert np.max(np.abs(noisy - exact)) < 5.0 * math.sqrt(0.25 / 100_000)


def test_rabi_chevron_structure():
    cfg = ProtocolConfig(dark_prob=0.0, bright_detect_prob=1.0, relaxation_override=0.0)
    rate = 2.0 * math.pi * 5e6
    durations = np.linspace(0.0, 400e-9, 801)
    detunings = rate * np.array([-1.0, 0.0, 1.0])
    grid = rabi_chevron(detunings, durations, cfg, rabi_rate=rate)
    assert grid.shape == (3, 801)
    assert np.allclose(grid[0], grid[2], atol=1e-12)
    # On resonance the oscillation reaches 1 and returns to 0 after a
    # full period 2 pi / Omega.
    assert grid[1].max() == pytest.approx(1.0, abs=1e-9)
    i_period = int(round((2.0 * math.pi / rate) / (durations[1] - durations[0])))
    assert grid[1, i_period] == pytest.approx(0.0, abs=1e-6)
    # At detuning = Omega the peak excitation halves.
    assert grid[0].max() == pytest.approx(0.5, abs=1e-3)


def test_stark_calibration_round_trip():
    cfg = ProtocolConfig()
    powers = [0.0, 0.25, 0.5, 1.0]
    n_bars, shifts = stark_calibration(powers, cfg)
    assert n_bars.shape == shifts.shape == (4,)
    assert n_bars[0] == 0.0 and shifts[0] == 0.0
    # Max power pins the photon number to the configured qubit-cavity
    # occupation, and every shift is 2 chi n_bar.
    assert n_bars[-1] == pytest.approx(cfg.n_bar_qubit_cavity, rel=1e-12)
    for n_bar, shift in zip(n_bars, shifts):
        assert shift == pytest.approx(cfg.stark_shift_per_photon * n_bar, rel=1e-12)
    # Linearity: shift per unit power is constant.
    assert shifts[2] == pytest.approx(2.0 * shifts[1], rel=1e-12)


def test_stark_calibration_validation():
    cfg = ProtocolConfig()
    with pytest.raises(ValueError):
        stark_calibration([], cfg)
    with pytest.raises(ValueError):
        stark_calibration([-0.1, 0.5], cfg)


def test_capture_cavity_photon_estimate():
    # Transfer arithmetic: a saturation point near 8 photons in the
    # readout cavity delivers n_bar * eta_peak ~ 2.5-3 to the capture
    # cavity at the measured decay-rate ratio of 6.5.
    eta, _ = kappa_mismatch_peak(1e6, 6.5e6)
    delivered = 8.0 * eta
    assert 2.4 < delivered < 3.0


def test_depletion_recovery_monotone():
    cfg = ProtocolConfig()
    times = np.linspace(0.0, 100e-9, 26)
    residuals = []
    contrasts = []
    shifts = []
    for t in times:
        out = depletion_recovery(float(t), cfg)
        residuals.append(out["residual_photons"])
        contrasts.append(out["ramsey_contrast"])
        shifts.append(abs(out["frequency_shift"]))
    assert all(x > y for x, y in zip(residuals, residuals[1:]))
    assert all(x < y for x, y in zip(contrasts, contrasts[1:]))
    assert all(x > y for x, y in zip(shifts, shifts[1:]))
    assert all(0.0 <= c <= 1.0 for c in contrasts)


def test_depletion_recovery_endpoints():
    cfg = ProtocolConfig()
    start = depletion_recovery(0.0, cfg)
    assert start["residual_photons"] == pytest.approx(SPURIOUS_PHOTONS, rel=1e-12)
    # Expected photon decay: n0 e^{-kappa_dep t}; the configured rate
    # leaves 5% of the photons after the 40 ns depletion interval.
    at_40 = depletion_recovery(40e-9, cfg)
    want_res = SPURIOUS_PHOTONS * math.exp(-cfg.depletion_rate * 40e-9)
    assert at_40["residual_photons"] == pytest.approx(want_res, rel=1e-12)
    assert at_40["residual_photons"] == pytest.approx(0.05 * SPURIOUS_PHOTONS, rel=1e-9)
    assert at_40["ramsey_contrast"] == pytest.approx(0.95, abs=1e-9)
    # Frequency shift tracks the residual photons.
    assert at_40["frequency_shift"] == pytest.approx(
        cfg.stark_shift_per_photon * want_res, rel=1e-12
    )
    late = depletion_recovery(1e-6, cfg)
    assert late["residual_photons"] < 1e-20
    assert late["ramsey_contrast"] == pytest.approx(1.0, abs=1e-12)


def test_depletion_recovery_broadcasts():
    # An array of times gives the per-time scalar results, each to 1 ulp,
    # in arrays of its shape.
    cfg = ProtocolConfig()
    times = np.linspace(0.0, 1e-6, 501)
    out = depletion_recovery(times, cfg)
    for key, column in out.items():
        assert column.shape == times.shape
        scalar = [depletion_recovery(t, cfg)[key] for t in times.tolist()]
        np.testing.assert_array_max_ulp(column, np.array(scalar), maxulp=1)
    grid = depletion_recovery(times.reshape(3, 167), cfg)
    assert all(np.array_equal(grid[key], out[key].reshape(3, 167)) for key in out)


def test_depletion_recovery_scalar_gives_floats():
    cfg = ProtocolConfig()
    for t_dep in (0.0, 20e-9, np.float64(40e-9), np.array(1e-6)):
        out = depletion_recovery(t_dep, cfg)
        assert sorted(out) == ["frequency_shift", "ramsey_contrast", "residual_photons"]
        assert all(type(value) is float for value in out.values())


@pytest.mark.parametrize("position", [0, 2, -1])
def test_depletion_recovery_refuses_a_negative_time_anywhere(position):
    cfg = ProtocolConfig()
    times = np.linspace(0.0, 1e-7, 6)
    times[position] = -1e-12
    for t_dep in (times, times.reshape(2, 3), float(times[position])):
        with pytest.raises(ValueError, match="t_dep must be non-negative"):
            depletion_recovery(t_dep, cfg)


def test_depletion_contrast_formula():
    # Contrast is exp(-c * n_res) with c calibrated so that 5 residual
    # photons cost 5% of contrast.
    cfg = ProtocolConfig()
    out = depletion_recovery(20e-9, cfg)
    want = math.exp(-DEFAULT_DEPHASING_PER_PHOTON * out["residual_photons"])
    assert out["ramsey_contrast"] == pytest.approx(want, rel=1e-12)


def test_calibrate_depletion_rate():
    # The default rate leaves 5% of the spurious photons after 40 ns.
    assert math.exp(-DEFAULT_DEPLETION_RATE * 40e-9) == pytest.approx(0.05, rel=1e-12)


def test_separation_fidelity_value():
    # erfc oracle, evaluated here directly: the centroids sit 7.07
    # sigma apart, so F = 1 - erfc(d / (2 sqrt(2) sigma)) / 2.
    model = IqModel()
    d = model.separation / model.sigma
    want = 1.0 - 0.5 * erfc(d / (2.0 * math.sqrt(2.0)))
    assert separation_fidelity(model) == pytest.approx(want, rel=1e-14)
    assert separation_fidelity(model) == pytest.approx(0.9997961124207752, abs=1e-13)


def test_separation_fidelity_rotation_invariant():
    base = IqModel(centroid_0=(0.0, 0.0), centroid_1=(1.0, 0.0), sigma=0.2)
    for angle in (0.3, 1.2, 2.9):
        c, s = math.cos(angle), math.sin(angle)
        rotated = IqModel(centroid_0=(0.0, 0.0), centroid_1=(c, s), sigma=0.2)
        assert separation_fidelity(rotated) == pytest.approx(separation_fidelity(base), rel=1e-12)


def test_iq_model_validation():
    with pytest.raises(ValueError):
        IqModel(centroid_0=(0.3, 0.3), centroid_1=(0.3, 0.3), sigma=0.1)
    with pytest.raises(ValueError):
        IqModel(sigma=0.0)
    # One sample per quadrature is fixed: n_samples is no field.
    with pytest.raises(TypeError):
        IqModel(n_samples=2)
    # d / sigma must be a finite float: a separation that overflows, or a
    # subnormal sigma, would give an infinite ratio and a NaN threshold.
    for model in (dict(centroid_0=(1e308, 0.0), centroid_1=(-1e308, 0.0)), dict(sigma=1e-320)):
        with pytest.raises(ValueError, match="out of float64 range"):
            IqModel(**model)


def test_iq_discriminate_within_binomial_errors():
    model = IqModel(centroid_0=(0.0, 0.0), centroid_1=(1.0, 0.0), sigma=0.35)
    n = 50_000
    out = iq_fidelity(model, n, np.random.default_rng(7))
    pred = separation_fidelity(model)
    sigma = math.sqrt(pred * (1.0 - pred) / (2.0 * n))
    assert out["separation_fidelity"] == pytest.approx(pred, rel=1e-12)
    assert abs(out["single_shot_fidelity"] - pred) < 3.0 * sigma
    # Threshold sits at the projected midpoint of the centroids.
    assert out["threshold"] == pytest.approx(0.5, abs=1e-12)


def test_iq_discriminate_far_apart_centroids():
    # |c1 - c0| = 1e200 squares past float64; the centroid axis is
    # normalised by the hypot separation, so d / sigma = 1e10 still
    # classifies every point correctly.
    model = IqModel(centroid_1=(1e200, 0.0), sigma=1e190)
    out = iq_fidelity(model, 1000, np.random.default_rng(7))
    assert out["single_shot_fidelity"] == 1.0
    assert out["threshold"] == 5e199


@pytest.mark.parametrize(
    "centroid_0, centroid_1, sigma",
    [
        # Off-axis centroids: the projected threshold overflows.
        ((1.4e308, 1.4e308), (1.5e308, 1.5e308), 1e305),
        # A centroid at the limit: the drawn points overflow.
        ((0.0, 0.0), (1.79e308, 0.0), 1e306),
    ],
    ids=["threshold", "points"],
)
def test_iq_discriminate_overflow_is_numerical_error(centroid_0, centroid_1, sigma):
    model = IqModel(centroid_0=centroid_0, centroid_1=centroid_1, sigma=sigma)
    with pytest.raises(NumericalError, match="overflow"):
        iq_fidelity(model, 1000, np.random.default_rng(7))


def test_iq_discriminate_overflow_refusal_does_not_depend_on_draws():
    # A cloud 4.8 sigma below the float64 limit rarely draws a point past
    # it, but it can, so the model is refused for every seed and shot
    # count, before any draw is made.
    model = IqModel(centroid_1=(1.75e308, 0.0), sigma=1e306)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        with pytest.raises(NumericalError, match="overflow"):
            iq_fidelity(model, 1, rng)
        assert rng.random() == np.random.default_rng(seed).random()


def test_iq_discriminate_consumes_shot_results():
    cfg = ProtocolConfig()
    rng = np.random.default_rng(cfg.rng_seed)
    shots = [simulate_shot(True, cfg, rng) for _ in range(2_000)]
    shots += [simulate_shot(False, cfg, rng) for _ in range(2_000)]
    out = iq_discriminate(IqModel(), shots)
    # Stored IQ points cluster tightly around their centroids at the
    # default 7 sigma separation: discrimination is near perfect.
    assert out["single_shot_fidelity"] > 0.999


def test_iq_discriminate_reproducible():
    model = IqModel()
    a = iq_fidelity(model, 500, np.random.default_rng(3))
    b = iq_fidelity(model, 500, np.random.default_rng(3))
    assert a == b


@pytest.mark.parametrize(
    "n_shots, model, error",
    [
        (0, IqModel(), ValueError),
        (-3, IqModel(), ValueError),
        (jpmsim.protocol.MAX_SHOT_DRAWS // 4 + 1, IqModel(), NumericalError),
        (10, IqModel(centroid_1=(1.79e308, 0.0), sigma=1e306), NumericalError),
    ],
    ids=["zero", "negative", "above-draw-bound", "overflow"],
)
def test_iq_fidelity_refusals_leave_the_generator_unchanged(n_shots, model, error):
    # No shot count or model is refused after a draw: 4 n_shots uniforms
    # one past MAX_SHOT_DRAWS, for both classes together, is refused at once.
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(error):
        iq_fidelity(model, n_shots, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize(
    "shots, error",
    [([], ValueError), ((), ValueError), (np.array([0, 1]), TypeError), ([0, 1], TypeError),
     ([ShotResult(1, (1.0, 0.0)), (0.0, 0.0)], TypeError), (7, TypeError)],
    ids=["empty-list", "empty-tuple", "label-array", "label-list", "mixed", "not-iterable"],
)
def test_iq_discriminate_refuses_anything_but_shot_records(shots, error):
    # One line, of the documented type, and no AttributeError from a
    # label that has no switch_bit.
    with pytest.raises(error) as caught:
        iq_discriminate(IqModel(), shots)
    assert type(caught.value) is error and "\n" not in str(caught.value)


def test_protocol_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(t_prep=-1e-9)
    with pytest.raises(ValueError):
        ProtocolConfig(dark_prob=1.5)
    with pytest.raises(ValueError):
        ProtocolConfig(relaxation_override=-0.1)


def test_relaxation_override_and_derived_probability():
    # With the override cleared the shot-level relaxation probability
    # comes from the T1 average over the preparation window.
    cfg = ProtocolConfig(relaxation_override=None)
    assert cfg.relaxation_prob == pytest.approx(relaxation_error(cfg.t_prep, cfg.t1), rel=1e-12)
    assert ProtocolConfig().relaxation_prob == 0.05
