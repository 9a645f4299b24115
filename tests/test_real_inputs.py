"""The engine on inputs a real call sends it, beyond the benchmark's levels."""

import numpy as np
import pytest

from naec import (
    SAMPLE_RATE,
    AudioSignal,
    EngineConfig,
    NonlinearitySpec,
    RoomSpec,
    SceneSpec,
    run,
    speech_like,
    synthesize_scene,
)


@pytest.fixture(scope="module")
def double_talk():
    """4 s of clipped speech echo under a near-end talker at SER 0 dB, T60 0.3 s."""
    spec = SceneSpec(
        far_end=speech_like(4.0, seed=3, level=0.3),
        room=RoomSpec(t60=0.3, rir_length=4096),
        nonlinearity=NonlinearitySpec(kind="hard_clip", clip_ratio=0.2),
        near_end=speech_like(4.0, seed=4, level=0.1),
        snr_db=60.0,
        seed=1,
    )
    return spec.far_end.samples, synthesize_scene(spec).microphone.samples


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
