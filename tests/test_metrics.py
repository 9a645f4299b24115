"""Suppression metrics over non-overlapping blocks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naec.audio_io import SAMPLE_RATE, AudioSignal
from naec.metrics import CEILING_DB, SILENCE_FLOOR, MetricCurve, erle, steady_state, terle


def _sig(*block_values, block=1600):
    """Constant-amplitude blocks, one amplitude per 0.1 s block."""
    return AudioSignal(np.repeat(np.asarray(block_values, dtype=float), block))


def test_erle_two_block_example():
    y = _sig(1.0, 1.0)
    e = _sig(0.5, 0.1)
    curve = erle(y, e)
    np.testing.assert_allclose(curve.values, [20 * np.log10(2.0), 20.0], rtol=1e-12)
    np.testing.assert_allclose(curve.times, [0.1, 0.2], rtol=1e-12)


def test_identical_signals_give_zero_db():
    y = _sig(0.3, 0.7, 0.5)
    curve = erle(y, y)
    np.testing.assert_allclose(curve.values, np.zeros(3), atol=1e-12)


def test_silent_residual_hits_ceiling():
    y = _sig(1.0)
    e = _sig(0.0)
    assert erle(y, e).values[0] == CEILING_DB


def test_silent_microphone_blocks_stay_finite():
    """A zero-mic block is measured at the floor: finite, and no divide-by-zero warning."""
    curve = erle(_sig(0.0, 0.0), _sig(1e-3, 0.0))
    np.testing.assert_allclose(
        curve.values[0], 10 * np.log10(SILENCE_FLOOR / (1600 * 1e-6)), rtol=1e-12
    )
    assert curve.values[1] == CEILING_DB
    assert np.isfinite(steady_state(curve, tail_fraction=1.0))
    d = _sig(0.0, 1.0)
    assert np.isfinite(terle(d, _sig(1e-3, 1.0), _sig(0.0, 0.0)).values).all()


def test_partial_trailing_block_is_dropped():
    y = AudioSignal(np.ones(1600 + 799))
    curve = erle(y, y)
    assert len(curve) == 1


def test_terle_uses_echo_over_residual():
    d = _sig(1.0)
    s = _sig(0.25)
    e = AudioSignal(s.samples + 0.1)  # residual echo of amplitude 0.1
    curve = terle(d, e, s)
    np.testing.assert_allclose(curve.values, [20.0], rtol=1e-12)


def test_terle_perfect_recovery_hits_ceiling():
    d = _sig(1.0, 0.5)
    s = _sig(0.3, 0.2)
    assert np.all(terle(d, s, s).values == CEILING_DB)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        erle(_sig(1.0), AudioSignal(np.ones(100)))


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.01, max_value=100.0))
def test_common_scale_cancels(scale):
    rng = np.random.default_rng(0)
    y = AudioSignal(rng.standard_normal(4800))
    e = AudioSignal(rng.standard_normal(4800) * 0.1)
    base = erle(y, e).values
    scaled = erle(
        AudioSignal(scale * y.samples), AudioSignal(scale * e.samples)
    ).values
    np.testing.assert_allclose(scaled, base, atol=1e-9)


def test_residual_scale_shifts_curve():
    rng = np.random.default_rng(1)
    y = AudioSignal(rng.standard_normal(3200))
    e = AudioSignal(rng.standard_normal(3200))
    base = erle(y, e).values
    tenth = erle(y, AudioSignal(e.samples / 10.0)).values
    np.testing.assert_allclose(tenth, base + 20.0, atol=1e-9)


def test_steady_state_tail_mean():
    curve = MetricCurve(0.1, np.arange(1, 11) * 0.1, np.arange(10.0))
    # last 30% of ten blocks is three blocks: values 7, 8, 9
    assert steady_state(curve) == pytest.approx(8.0)
    assert steady_state(curve, tail_fraction=1.0) == pytest.approx(4.5)


def test_steady_state_single_block():
    curve = MetricCurve(0.1, np.array([0.1]), np.array([5.0]))
    assert steady_state(curve) == 5.0
    with pytest.raises(ValueError):
        steady_state(MetricCurve(0.1, np.array([]), np.array([])))


def test_block_length_parameter():
    y = AudioSignal(np.ones(SAMPLE_RATE))
    curve = erle(y, y, block_len=0.25)
    assert len(curve) == 4
    np.testing.assert_allclose(curve.times, [0.25, 0.5, 0.75, 1.0])
