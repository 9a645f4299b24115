"""The engine on inputs a real call sends it, beyond the benchmark's levels."""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from naec import (
    SAMPLE_RATE,
    AudioSignal,
    CtfConfig,
    EngineConfig,
    NonlinearitySpec,
    RoomSpec,
    SceneSpec,
    StreamingEngine,
    erle,
    run,
    speech_like,
    steady_state,
    synthesize_scene,
)


def _double_talk(seconds):
    """Far end and microphone: clipped speech echo under a near-end talker at
    SER 0 dB, T60 0.3 s."""
    spec = SceneSpec(
        far_end=speech_like(seconds, seed=3, level=0.3),
        room=RoomSpec(t60=0.3, rir_length=4096),
        nonlinearity=NonlinearitySpec(kind="hard_clip", clip_ratio=0.2),
        near_end=speech_like(seconds, seed=4, level=0.1),
        snr_db=60.0,
        seed=1,
    )
    return spec.far_end.samples, synthesize_scene(spec).microphone.samples


@pytest.fixture(scope="module")
def double_talk():
    """4 s of the double-talk scene."""
    return _double_talk(4.0)


@pytest.fixture(scope="module")
def long_double_talk():
    """6 s of the double-talk scene."""
    return _double_talk(6.0)


@lru_cache(maxsize=1)
def _int16_double_talk():
    """2 s of the double-talk scene on the int16 grid, as ``read_wav`` gives a
    16-bit WAV: every sample a multiple of 2^-15 in [-1, 1)."""
    return tuple(np.clip(np.round(x * 32768.0), -32768, 32767) / 32768.0
                 for x in _double_talk(2.0))


@lru_cache(maxsize=None)
def _run_at_unit_gain(optimizer, frames_l):
    far, mic = _int16_double_talk()
    return run(AudioSignal(far), AudioSignal(mic),
               EngineConfig(optimizer=optimizer, ctf=CtfConfig(frames_l=frames_l)))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the engine does not scale its channels by powers of two "
                          "(ROADMAP item 18)")
@pytest.mark.parametrize("optimizer", ["auxiva", "ilrma"])
@pytest.mark.parametrize("frames_l", [1, 3])
@pytest.mark.parametrize("a, b", [(0, 1), (1, 0), (1, 1), (-10, 5), (15, 15)])
def test_power_of_two_gains_scale_the_output_exactly(optimizer, frames_l, a, b):
    """A microphone gain of 2^a and a far-end gain of 2^b give, byte for
    byte, 2^a times the output at unit gains, and the same ``EngineStats``
    but for ``elapsed_s``. Every power-of-two gain is exact in binary
    floating point, so this holds for an engine that scales each channel by
    a power of two. (15, 15) feeds the scene's int16 samples as floats, so
    its output must be 2^15 times that of the WAV path."""
    far, mic = _int16_double_talk()
    expected, expected_stats = _run_at_unit_gain(optimizer, frames_l)
    out, stats = run(AudioSignal(np.ldexp(far, b)), AudioSignal(np.ldexp(mic, a)),
                     EngineConfig(optimizer=optimizer, ctf=CtfConfig(frames_l=frames_l)))
    assert out.samples.tobytes() == np.ldexp(expected.samples, a).tobytes()
    assert replace(stats, elapsed_s=0.0) == replace(expected_stats, elapsed_s=0.0)


@pytest.mark.parametrize("optimizer", ["auxiva", "ilrma"])
@pytest.mark.parametrize("far_gain", [
    1.0,
    pytest.param(1000.0, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the tracked inverse loses definiteness on a loud far end (ROADMAP item 18)")),
])
def test_loud_far_end_keeps_the_output_bounded(double_talk, optimizer, far_gain):
    """With only the far end scaled by ``far_gain``, as int16 samples fed as
    floats scale it, every output sample after the first second stays within
    4x the microphone's peak."""
    far, mic = double_talk
    out, _ = run(AudioSignal(far_gain * far), AudioSignal(mic), EngineConfig(optimizer=optimizer))
    peak = np.abs(out.samples[SAMPLE_RATE:]).max() / np.abs(mic).max()
    assert peak <= 4.0, peak


def _run_counting_resets(far, mic, optimizer):
    """``run``'s output, pushed hop by hop through one engine, and the number
    of bins its ``step`` reset."""
    engine = StreamingEngine(EngineConfig(optimizer=optimizer))
    hop = engine.hop
    parts = [engine.push(mic[j : j + hop], far[j : j + hop]) for j in range(0, len(mic), hop)]
    return np.concatenate(parts + [engine.flush()])[: len(mic)], engine._state.broken_bins


@pytest.mark.parametrize("optimizer", ["auxiva", "ilrma"])
@pytest.mark.parametrize("level, resets", [
    pytest.param(1e200, {"auxiva": 5082, "ilrma": 5082}, id="1e200"),
    pytest.param(1e30, {"auxiva": 0, "ilrma": 0}, id="1e30", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="a finite burst stays in V and costs 3 dB of ERLE (ROADMAP item 4)")),
])
def test_mic_burst_is_forgotten(long_double_talk, optimizer, level, resets):
    """A microphone held at ``level`` for 0.1 s at 2.0 s. The output stays
    finite; from 0.5 s after the burst it peaks at no more than 4x the clean
    microphone's peak, and its steady ERLE is within 1 dB of a clean run's.
    A 1e200 burst overflows the covariances, and ``step`` resets the broken
    bins: 5082 on either optimizer, as ILRMA's weight leaves an overflowed
    bin out of its sums. ERLE is not taken over the
    burst itself, whose squares overflow."""
    far, mic = long_double_talk
    start, stop = 2 * SAMPLE_RATE, 2 * SAMPLE_RATE + SAMPLE_RATE // 10
    burst = mic.copy()
    burst[start:stop] = level
    clean, _ = _run_counting_resets(far, mic, optimizer)
    out, broken = _run_counting_resets(far, burst, optimizer)
    after = slice(stop + SAMPLE_RATE // 2, len(mic))
    assert np.isfinite(out).all()
    peak = np.abs(out[after]).max() / np.abs(mic).max()
    assert peak <= 4.0, peak
    steady = [steady_state(erle(AudioSignal(mic[after]), AudioSignal(x[after])))
              for x in (clean, out)]
    assert abs(steady[1] - steady[0]) <= 1.0, steady
    assert broken == resets[optimizer]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a far-end burst stays in V, whose tracked inverse loses "
                          "definiteness (ROADMAP items 4 and 18)")
@pytest.mark.parametrize("optimizer", ["auxiva", "ilrma"])
@pytest.mark.parametrize("level", [100.0, 1e3], ids=["100", "1e3"])
def test_far_burst_is_forgotten(long_double_talk, optimizer, level):
    """The far end held at +-``level`` (its samples' signs) for 0.1 s at
    2.0 s, the microphone as recorded. The output stays finite; from 0.5 s
    after the burst it peaks at no more than 4x the microphone's peak, and
    its steady ERLE is within 1 dB of a clean run's."""
    far, mic = long_double_talk
    start, stop = 2 * SAMPLE_RATE, 2 * SAMPLE_RATE + SAMPLE_RATE // 10
    burst = far.copy()
    burst[start:stop] = level * np.sign(far[start:stop])
    clean, _ = _run_counting_resets(far, mic, optimizer)
    out, _ = _run_counting_resets(burst, mic, optimizer)
    after = slice(stop + SAMPLE_RATE // 2, len(mic))
    assert np.isfinite(out).all()
    peak = np.abs(out[after]).max() / np.abs(mic).max()
    assert peak <= 4.0, peak
    steady = [steady_state(erle(AudioSignal(mic[after]), AudioSignal(x[after])))
              for x in (clean, out)]
    assert abs(steady[1] - steady[0]) <= 1.0, steady
