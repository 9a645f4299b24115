"""Analysis/synthesis transform: shapes, reconstruction, overlap property."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naec.audio_io import AudioSignal
from naec.sim import white_noise
from naec.stft import (
    ColaError,
    Spectrogram,
    StftConfig,
    analyze,
    check_cola,
    n_frames_for,
    ola_norm,
    synthesize,
)


def test_config_defaults():
    c = StftConfig()
    assert c.window_len == 1024
    assert c.hop == 256
    assert c.fft_len == 1024
    assert c.n_bins == 513


def test_config_validation():
    with pytest.raises(ValueError):
        StftConfig(window_len=1000)  # not a power of two
    with pytest.raises(ValueError):
        StftConfig(hop=0)
    with pytest.raises(ValueError):
        StftConfig(hop=2048)
    with pytest.raises(ValueError, match="divide"):
        StftConfig(window_len=512, hop=3)  # the overlap sum is flat, but not per hop


def test_periodic_hann_window():
    w = StftConfig().window_samples()
    assert w[0] == 0.0
    assert w[512] == pytest.approx(1.0)
    # periodic window: w[i] mirrors w[N - i] for the interior samples
    assert np.allclose(w[1:], w[1:][::-1])
    with pytest.raises(ValueError):
        w[0] = 1.0  # read-only


def test_overlap_sum_is_constant():
    c = StftConfig()
    check_cola(c)  # should not raise
    np.testing.assert_allclose(ola_norm(c), np.full(c.hop, 1.5), rtol=1e-12)  # 4 * 3/8
    with pytest.raises(ColaError):
        check_cola(StftConfig(window_len=1024, hop=1024))


def test_frame_count_formula():
    c = StftConfig()
    # anything up to one window is a single (zero-padded) frame
    assert n_frames_for(1, c) == 1
    assert n_frames_for(1024, c) == 1
    assert n_frames_for(1025, c) == 2
    assert n_frames_for(1024 + 256, c) == 2
    assert n_frames_for(1024 + 257, c) == 3


def test_analysis_matches_direct_dft(rng):
    c = StftConfig(window_len=64, hop=16)
    x = rng.standard_normal(200)
    spec = analyze(AudioSignal(x), c)
    w = c.window_samples()
    padded = np.concatenate([x, np.zeros(64)])
    for m in range(spec.n_frames):
        frame = padded[m * 16 : m * 16 + 64]
        np.testing.assert_allclose(
            spec.data[:, m], np.fft.rfft(frame * w), rtol=0, atol=1e-12
        )


def test_round_trip_interior_exact():
    x = white_noise(0.5, seed=2, level=0.3)
    c = StftConfig()
    out = synthesize(analyze(x, c))
    pad = c.window_len - c.hop
    err = np.abs(out.samples[pad : len(x) - pad] - x.samples[pad : len(x) - pad])
    assert np.max(err) <= 1e-9


def test_round_trip_small_window(rng):
    c = StftConfig(window_len=32, hop=8)
    x = rng.standard_normal(300) * 0.2
    out = synthesize(analyze(AudioSignal(x), c))
    pad = c.window_len - c.hop
    err = np.abs(out.samples[pad:300 - pad] - x[pad:300 - pad])
    assert np.max(err) <= 1e-9


def test_zero_spectrogram_synthesizes_zeros():
    c = StftConfig(window_len=64, hop=16)
    spec = Spectrogram(np.zeros((c.n_bins, 5), dtype=np.complex128), c)
    out = synthesize(spec)
    assert np.all(out.samples == 0.0)


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
def test_analysis_is_linear(scale):
    c = StftConfig(window_len=64, hop=16)
    x = np.random.default_rng(7).standard_normal(128)
    a = analyze(AudioSignal(x), c).data
    b = analyze(AudioSignal(scale * x), c).data
    np.testing.assert_allclose(b, scale * a, rtol=1e-12, atol=1e-12)


def test_spectrogram_validation():
    c = StftConfig(window_len=64, hop=16)
    with pytest.raises(ValueError):
        Spectrogram(np.zeros((10, 5), dtype=np.complex128), c)  # wrong bin count
    bad = np.zeros((c.n_bins, 2), dtype=np.complex128)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        Spectrogram(bad, c)
