"""Streaming engine: chunked equivalence, latency, passthrough, config."""

import numpy as np
import pytest

from naec import auxiva
from naec.audio_io import SAMPLE_RATE, AudioSignal
from naec.ctf import CtfConfig
from naec.metrics import erle, steady_state
from naec.nonlin import odd_powers
from naec.pipeline import (
    EngineConfig,
    EngineStats,
    StreamingEngine,
    engine_from_mapping,
    run,
    run_streaming,
)
from naec.sim import (
    NonlinearitySpec,
    RoomSpec,
    SceneSpec,
    speech_like,
    synthesize_scene,
    white_noise,
)
from naec.stft import Spectrogram, StftConfig, analyze, synthesize


def test_default_engine_config():
    c = EngineConfig()
    assert c.optimizer == "auxiva"
    assert c.ctf.dim == 10
    with pytest.raises(ValueError):
        EngineConfig(optimizer="lms")


def test_push_validates_chunk_shape():
    engine = StreamingEngine()
    with pytest.raises(ValueError):
        engine.push(np.zeros(100), np.zeros(100))
    with pytest.raises(ValueError):
        engine.push(np.zeros(256), np.zeros(255))


@pytest.mark.parametrize("window_len, hop", [(1024, 256), (512, 128), (64, 16), (1024, 128)])
def test_latency_then_hop_sized_output(window_len, hop):
    engine = StreamingEngine(EngineConfig(stft=StftConfig(window_len, hop)))
    assert engine.latency_chunks == window_len // hop - 1
    chunk = np.zeros(hop)
    for _ in range(engine.latency_chunks):
        assert len(engine.push(chunk, chunk)) == 0
    for _ in range(3):
        assert len(engine.push(chunk, chunk)) == hop
    assert len(engine.flush()) == engine.latency_chunks * hop
    stats = engine.stats
    assert stats.n_samples_out == stats.n_samples_in == (engine.latency_chunks + 3) * hop


@pytest.mark.parametrize(
    "window_len, hop, optimizer",
    [(1024, 256, "auxiva"), (512, 128, "ilrma"), (64, 16, "auxiva"), (1024, 128, "ilrma")],
)
def test_streaming_overlap_add_matches_batch_synthesis(
    small_scene, monkeypatch, window_len, hop, optimizer
):
    """The engine's hop-shifted overlap-add equals ``synthesize`` of its own frames, bit for bit."""
    spec, comps = small_scene
    frames = []
    core = auxiva.process_frame

    def capture(state, obs):
        frames.append(core(state, obs))
        return frames[-1]

    monkeypatch.setattr(auxiva, "process_frame", capture)
    sc = StftConfig(window_len, hop)
    cfg = EngineConfig(optimizer=optimizer, stft=sc, ctf=CtfConfig(frames_l=2))
    out, stats = run(spec.far_end, comps.microphone, cfg)
    assert len(frames) == stats.n_frames
    batch = synthesize(Spectrogram(np.array(frames).T, sc)).samples
    start = window_len - hop
    assert out.samples.tobytes() == batch[start : start + len(out)].tobytes()


def test_flush_closes_engine():
    engine = StreamingEngine()
    engine.push(np.zeros(256), np.zeros(256))
    engine.flush()
    with pytest.raises(RuntimeError):
        engine.push(np.zeros(256), np.zeros(256))
    with pytest.raises(RuntimeError):
        engine.flush()


def test_run_matches_manual_push_loop(small_scene):
    spec, comps = small_scene
    batch, stats = run(spec.far_end, comps.microphone)
    engine = StreamingEngine()
    hop = engine.hop
    n = len(comps.microphone)
    pad = (-n) % hop
    mic = np.concatenate([comps.microphone.samples, np.zeros(pad)])
    far = np.concatenate([spec.far_end.samples, np.zeros(pad)])
    parts = [
        engine.push(mic[i : i + hop], far[i : i + hop]) for i in range(0, n + pad, hop)
    ]
    parts.append(engine.flush())
    manual = np.concatenate(parts)[:n]
    np.testing.assert_array_equal(batch.samples, manual)
    assert stats.n_samples_out >= n


def test_run_streaming_irregular_chunks_bit_exact(small_scene):
    spec, comps = small_scene
    batch, _ = run(spec.far_end, comps.microphone)
    rng = np.random.default_rng(0)
    mic, far = comps.microphone.samples, spec.far_end.samples
    chunks = []
    pos = 0
    while pos < len(mic):
        step = int(rng.integers(1, 700))
        chunks.append((mic[pos : pos + step], far[pos : pos + step]))
        pos += step
    streamed, _ = run_streaming(chunks)
    assert len(streamed) == len(batch)
    np.testing.assert_array_equal(streamed.samples, batch.samples)


@pytest.mark.parametrize("optimizer", ["auxiva", "ilrma"])
def test_push_rejects_non_finite_and_stays_usable(small_scene, optimizer):
    spec, comps = small_scene
    config = EngineConfig(optimizer=optimizer)
    clean, dirty = StreamingEngine(config), StreamingEngine(config)
    hop = clean.hop
    mic, far = comps.microphone.samples, spec.far_end.samples
    n_chunks = len(mic) // hop
    expected, got = [], []
    for j in range(n_chunks):
        y, x = mic[j * hop : (j + 1) * hop], far[j * hop : (j + 1) * hop]
        if j in (20, 40):
            bad_y, bad_x = y.copy(), x.copy()
            if j == 20:
                bad_y[7] = np.nan
            else:
                bad_x[-1] = np.inf
            with pytest.raises(ValueError, match="non-finite"):
                dirty.push(bad_y, bad_x)
        expected.append(clean.push(y, x))
        got.append(dirty.push(y, x))
    expected.append(clean.flush())
    got.append(dirty.flush())
    assert np.concatenate(got).tobytes() == np.concatenate(expected).tobytes()
    a, b = clean.stats, dirty.stats
    assert (a.n_frames, a.n_samples_in, a.n_samples_out, a.skipped_bins) == (
        b.n_frames, b.n_samples_in, b.n_samples_out, b.skipped_bins
    )


@pytest.fixture(scope="module")
def spiky_scene():
    """8 s clipped speech echo in a T60 = 0.3 s room, the criterion-8 scene shortened."""
    scene = SceneSpec(
        far_end=speech_like(8.0, seed=21, level=0.3),
        room=RoomSpec(t60=0.3, rir_length=4096),
        nonlinearity=NonlinearitySpec(kind="hard_clip", clip_ratio=0.2),
        snr_db=60.0,
        seed=1,
    )
    return scene.far_end.samples, synthesize_scene(scene).microphone.samples


def _push_all(config, mic, far, burst_chunk=None):
    engine = StreamingEngine(config)
    hop = engine.hop
    n = len(mic) // hop
    parts = []
    for j in range(n):
        y = mic[j * hop : (j + 1) * hop].copy()
        if j == burst_chunk:
            y[7] = 1e200
        parts.append(engine.push(y, far[j * hop : (j + 1) * hop]))
    parts.append(engine.flush())
    return np.concatenate(parts)[: n * hop], engine.stats


# |y|^2 of a 1e200 sample overflows inside the optimizer; these warnings are
# the expected symptom of the burst, not a failure.
@pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning",
)
@pytest.mark.parametrize("optimizer", ["auxiva", "ilrma"])
def test_covariance_overflow_resets_bins_and_adaptation_recovers(spiky_scene, optimizer):
    """A finite 1e200 mic sample overflows every covariance; the bins reset and re-adapt."""
    far, mic = spiky_scene
    config = EngineConfig(optimizer=optimizer)
    clean, _ = _push_all(config, mic, far)
    out, stats = _push_all(config, mic, far, burst_chunk=100)
    assert np.isfinite(out).all()
    assert stats.skipped_bins == 0
    # ERLE is taken after the burst (chunk 100 ends at 1.6 s): the burst's own
    # block has an infinite output energy.
    after = slice(2 * SAMPLE_RATE, len(out))
    ref = AudioSignal(mic[after])
    clean_erle = steady_state(erle(ref, AudioSignal(clean[after])))
    assert steady_state(erle(ref, AudioSignal(out[after]))) >= clean_erle - 1.0


def test_run_zero_length_input():
    """``run`` pushes nothing for an empty signal; flush still runs its 3 frames."""
    empty = AudioSignal(np.zeros(0))
    for optimizer in ("auxiva", "ilrma"):
        out, stats = run(empty, empty, EngineConfig(optimizer=optimizer))
        assert len(out) == 0
        assert stats.n_samples_in == 0 and stats.n_samples_out == 0
        assert stats.n_frames == 3


def test_zero_far_end_is_passthrough():
    mic = white_noise(1.0, seed=6, level=0.2)
    far = AudioSignal(np.zeros(len(mic)))
    for optimizer in ("auxiva", "ilrma"):
        out, stats = run(far, mic, EngineConfig(optimizer=optimizer))
        assert np.max(np.abs(out.samples - mic.samples)) <= 1e-12
        assert stats.skipped_bins == 0


def test_run_validates_inputs():
    a = AudioSignal(np.zeros(1000))
    b = AudioSignal(np.zeros(999))
    with pytest.raises(ValueError):
        run(a, b)
    c = AudioSignal(np.zeros(1000), sample_rate=8000)
    with pytest.raises(ValueError):
        run(c, AudioSignal(np.zeros(1000), sample_rate=8000))


def test_stats_realtime_factor():
    stats = EngineStats(n_samples_in=SAMPLE_RATE, elapsed_s=0.5)
    assert stats.realtime_factor == pytest.approx(2.0)
    assert EngineStats().realtime_factor == np.inf


def test_echo_reduction_on_synthetic_scene(small_scene):
    spec, comps = small_scene
    for optimizer in ("auxiva", "ilrma"):
        out, stats = run(spec.far_end, comps.microphone, EngineConfig(optimizer=optimizer))
        assert steady_state(erle(comps.microphone, out)) > 3.0
        assert stats.n_frames > 0


def test_subband_filter_model_convergence():
    """Echo built from per-bin filters on the reference spectra is cancelled."""
    sc = StftConfig()
    far = white_noise(2.0, seed=9, level=0.2)
    pad = sc.window_len - sc.hop
    cfg = CtfConfig(frames_l=2, order_p=2)
    refs = odd_powers(far.samples, cfg.order_p)
    # trailing zeros keep the resynthesized echo fully overlapped inside the
    # region that is later trimmed back to the far-end length
    specs = [
        analyze(
            AudioSignal(np.concatenate([np.zeros(pad), r, np.zeros(sc.window_len)])),
            sc,
        )
        for r in refs
    ]
    rng = np.random.default_rng(4)
    n_frames = specs[0].n_frames
    echo = np.zeros((sc.n_bins, n_frames), dtype=np.complex128)
    for i in range(cfg.order_p):
        for lag in range(cfg.frames_l):
            h = np.fft.rfft(rng.standard_normal(32), sc.fft_len) * 0.5**(i + lag)
            echo[:, lag:] += h[:, None] * specs[i].data[:, : n_frames - lag]
    mic_td = synthesize(Spectrogram(echo, sc)).samples
    mic = AudioSignal(mic_td[pad : pad + len(far)])
    out, _ = run(far, mic, EngineConfig(ctf=cfg))
    assert steady_state(erle(mic, out)) > 15.0


class TestEngineFromMapping:
    def test_defaults(self):
        c = engine_from_mapping({})
        assert c == EngineConfig()

    def test_all_keys(self):
        c = engine_from_mapping(
            {
                "engine.optimizer": "ilrma",
                "engine.frames_l": "2",
                "engine.order_p": "1",
                "engine.alpha": "0.95",
                "engine.beta": "0.5",
                "engine.bases_b": "4",
                "engine.diag_load": "1e-5",
                "engine.window_len": "512",
                "engine.hop": "128",
            }
        )
        assert c.optimizer == "ilrma"
        assert c.ctf == CtfConfig(frames_l=2, order_p=1)
        assert c.ilrma.alpha == 0.95 and c.auxiva.alpha == 0.95
        assert c.ilrma.bases_b == 4
        assert c.auxiva.beta == 0.5
        assert c.stft.window_len == 512 and c.stft.hop == 128

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="engine.step_size"):
            engine_from_mapping({"engine.step_size": "0.1"})

    def test_prefix_isolation(self):
        c = engine_from_mapping(
            {"engine.a.optimizer": "ilrma", "scene.seed": "1"}, prefix="engine.a"
        )
        assert c.optimizer == "ilrma"
