"""Streaming engine: chunked equivalence, latency, passthrough, config."""

import contextlib
import re
import warnings
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import naec
from conftest import engine_irfft, engine_rfft
from naec import auxiva, ctf, stft
from naec.audio_io import SAMPLE_RATE, AudioSignal
from naec.auxiva import AuxivaConfig, pack_observations, unpack_observations
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
from naec.stft import StftConfig
from oracles import Spectrogram, analyze, frame_observations, synthesize


def test_public_names_resolve_and_batch_oracles_are_test_only():
    for name in naec.__all__:
        assert getattr(naec, name, None) is not None, name
    oracles = {
        stft: ["Spectrogram", "analyze", "synthesize", "n_frames_for", "_ENVELOPE_FLOOR"],
        ctf: ["_check_shapes", "build_observation", "frame_observations",
              "batch_observations", "constrained_matrix"],
        auxiva: ["offline_batch", "weight"],
    }
    for module, names in oracles.items():
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)


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
def test_streaming_overlap_add_matches_batch_synthesis(small_scene, window_len, hop, optimizer):
    """The engine's hop-shifted overlap-add equals ``synthesize`` of its own
    frames, the state's ``out`` after each push, bit for bit, with the
    inverse FFT the engine runs. The pushes end with the silent frames of
    ``flush``, and their output is ``run``'s."""
    spec, comps = small_scene
    sc = StftConfig(window_len, hop)
    cfg = EngineConfig(optimizer=optimizer, stft=sc, ctf=CtfConfig(frames_l=2))
    out, stats = run(spec.far_end, comps.microphone, cfg)
    engine = StreamingEngine(cfg)
    pad = np.zeros(-len(out) % hop + engine.latency_chunks * hop)
    mic, far = (np.concatenate([x.samples, pad]) for x in (comps.microphone, spec.far_end))
    parts, frames = [], []
    for j in range(0, len(mic), hop):
        parts.append(engine.push(mic[j : j + hop], far[j : j + hop]))
        frames.append(engine._state.out.copy())
    assert len(frames) == stats.n_frames
    assert np.concatenate(parts)[: len(out)].tobytes() == out.samples.tobytes()
    batch = synthesize(Spectrogram(np.array(frames).T, sc), irfft=engine_irfft).samples
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

    def reject(j, y, x):
        bad_y, bad_x = y.copy(), x.copy()
        if j == 20:
            bad_y[7] = np.nan
        elif j == 40:
            bad_x[-1] = np.inf
        elif j == 60:
            bad_x[3] = 1e200  # finite, but its cube overflows
        else:
            bad_x[5] = 1e70  # finite with a finite cube; only x**5, the highest power, overflows
        with pytest.raises(ValueError, match="non-finite"):
            dirty.push(bad_y, bad_x)

    for j in range(n_chunks):
        y, x = mic[j * hop : (j + 1) * hop], far[j * hop : (j + 1) * hop]
        if j in (20, 40, 60, 80):
            reject(j, y, x)
        expected.append(clean.push(y, x))
        got.append(dirty.push(y, x))
    reject(80, y, x)  # a flush right after a rejected push
    expected.append(clean.flush())
    got.append(dirty.flush())
    assert np.concatenate(got).tobytes() == np.concatenate(expected).tobytes()
    a, b = clean.stats, dirty.stats
    assert (a.n_frames, a.n_samples_in, a.n_samples_out, a.skipped_bins) == (
        b.n_frames, b.n_samples_in, b.n_samples_out, b.skipped_bins
    )


# (window_len, hop, order_p, frames_l): the benchmark's two framings, a
# short window with six lags, and a hop of an eighth of the window.
FRAMINGS = [(1024, 256, 3, 1), (1024, 256, 3, 3), (64, 16, 2, 6), (1024, 128, 1, 2)]


def _framing_config(window_len, hop, order_p, frames_l):
    return EngineConfig(stft=StftConfig(window_len, hop), ctf=CtfConfig(frames_l, order_p))


@pytest.mark.parametrize("window_len, hop, order_p, frames_l", FRAMINGS)
def test_framing_equals_the_numpy_expressions(window_len, hop, order_p, frames_l):
    """Each frame's observations (the engine's buffer after the push) and
    emitted hop are, byte for byte, those of plain numpy framing: odd
    powers, a shifted time buffer times the window, one rfft, a (P, L, K)
    reference history stacked after the microphone, and the windowed irfft
    of the demixed frame (the state's ``out``) overlap-added and divided by
    ``ola_norm``. The transforms are the engine's, the kernels' FFTs."""
    config = _framing_config(window_len, hop, order_p, frames_l)
    sc, n_bins, n_frames = config.stft, config.stft.n_bins, 3 * window_len // hop
    rng = np.random.default_rng(window_len + order_p + frames_l)
    chunks = rng.standard_normal((n_frames, 2, hop)) * rng.choice([0.01, 0.5, 3.0], (n_frames, 1, 1))
    window, norm = sc.window_samples(), stft.ola_norm(sc)
    buf = np.zeros((order_p + 1, window_len))
    history = np.zeros((order_p, frames_l, n_bins), dtype=np.complex128)
    acc = np.zeros(window_len)
    engine = StreamingEngine(config)
    for j, (mic, far) in enumerate(chunks):
        out = engine.push(mic, far)
        buf[:, :-hop] = buf[:, hop:]
        buf[0, -hop:] = mic
        buf[1:, -hop:] = odd_powers(far, order_p)
        spec = engine_rfft(buf * window)
        history[:, 1:] = history[:, :-1]
        history[:, 0] = spec[1:]
        obs = np.column_stack([spec[0], history.reshape(-1, n_bins).T])
        assert unpack_observations(engine._state.obs, n_bins).tobytes() == obs.tobytes(), j
        assert engine._state.obs.tobytes() == pack_observations(obs).tobytes(), j
        acc += engine_irfft(engine._state.out, n=window_len) * window
        expected = acc[:hop] / norm if j >= engine.latency_chunks else np.empty(0)
        assert out.tobytes() == expected.tobytes(), j
        acc[:-hop] = acc[hop:]
        acc[-hop:] = 0.0


@pytest.mark.parametrize("window_len, hop, order_p, frames_l", FRAMINGS)
def test_observation_buffer_is_the_batch_frame_observations(window_len, hop, order_p, frames_l):
    """After n frames the engine's one observation buffer, which its state
    reads, holds, byte for byte, the planes of the stacked observations of
    frame n of the batch spectrograms of the pre-padded microphone and
    far-end powers, taken with the engine's FFT."""
    config = _framing_config(window_len, hop, order_p, frames_l)
    sc, n_frames = config.stft, 2 * window_len // hop + frames_l
    rng = np.random.default_rng(hop + frames_l)
    mic, far = 0.3 * rng.standard_normal((2, n_frames * hop))
    pad = np.zeros(window_len - hop)
    mic_spec = analyze(AudioSignal(np.concatenate([pad, mic])), sc, rfft=engine_rfft)
    ref_specs = [analyze(AudioSignal(np.concatenate([pad, x])), sc, rfft=engine_rfft)
                 for x in odd_powers(far, order_p)]
    engine = StreamingEngine(config)
    buffer = engine._state.obs
    for n in range(n_frames):
        engine.push(mic[n * hop : (n + 1) * hop], far[n * hop : (n + 1) * hop])
        expected = frame_observations(mic_spec, ref_specs, n, config.ctf)
        assert unpack_observations(engine._state.obs, sc.n_bins).tobytes() == expected.tobytes(), n
        assert engine._state.obs.tobytes() == pack_observations(expected).tobytes(), n
    assert engine._state.obs is buffer


@pytest.mark.parametrize("optimizer", ["auxiva", "ilrma"])
@pytest.mark.parametrize("window_len, hop, order_p, frames_l", FRAMINGS)
def test_fused_push_equals_the_kernels_called_in_turn(window_len, hop, order_p, frames_l,
                                                      optimizer):
    """A stream through the one-call ``push`` kernel gives, byte for byte,
    the output, skipped bins, frame counts and state of a second engine
    driven by ``lib.frame_in``, ``auxiva.process_frame`` and ``lib.ola`` in
    turn. A 1e200 microphone burst breaks bins, so the reset path runs; a
    NaN chunk is rejected by both and leaves them usable; ``flush`` ends it."""
    lib = auxiva._kernels
    config = replace(_framing_config(window_len, hop, order_p, frames_l), optimizer=optimizer)
    fused, manual = StreamingEngine(config), StreamingEngine(config)
    resets = []
    reset = fused._state.reset_bins
    fused._state.reset_bins = lambda bins: (resets.append(bins), reset(bins))
    rng = np.random.default_rng(window_len + frames_l)
    n_chunks = 3 * window_len // hop
    chunks = 0.3 * rng.standard_normal((n_chunks, 2, hop))
    burst, rejected = n_chunks // 3, 2 * n_chunks // 3
    chunks[burst, 0, hop // 2] = 1e200

    def by_hand(mic, far):
        manual._tail[0], manual._tail[1] = mic, far
        if not lib.frame_in(manual._handle):
            return None
        auxiva.process_frame(manual._state, manual._state.obs)
        lib.ola(manual._handle)
        return manual._emit.copy() if manual._state.frames > manual.latency_chunks else np.empty(0)

    got, expected = [], []
    for j, (mic, far) in enumerate(chunks):
        if j == rejected:
            nan_mic = mic.copy()
            nan_mic[3] = np.nan
            with pytest.raises(ValueError, match="non-finite"):
                fused.push(nan_mic, far)
            assert by_hand(nan_mic, far) is None
        got.append(fused.push(mic, far))
        expected.append(by_hand(mic, far))
    got.append(fused.flush())
    expected += [by_hand(np.zeros(hop), np.zeros(hop)) for _ in range(manual.latency_chunks)]
    assert len(resets) >= 1
    assert np.concatenate(got).tobytes() == np.concatenate(expected).tobytes()
    assert fused.stats.skipped_bins == manual.stats.skipped_bins
    assert fused.stats.n_frames == manual.stats.n_frames == fused._state.frames
    assert fused._state.frames == n_chunks + fused.latency_chunks
    for name in ("inv", "trace", "row_planes", "obs", "out"):
        assert getattr(fused._state, name).tobytes() == getattr(manual._state, name).tobytes()


@pytest.mark.parametrize("optimizer", ["auxiva", "ilrma"])
def test_compiled_frame_calls_no_numpy_fft_or_errstate(optimizer):
    """``push`` and ``flush`` call neither numpy's FFTs nor ``np.errstate``:
    the transforms and both weights are compiled. A change that brings numpy
    back into a compiled frame fails here."""
    rng = np.random.default_rng(5)
    engine = StreamingEngine(EngineConfig(optimizer=optimizer))
    forbidden = [mock.patch.object(np.fft, name, side_effect=AssertionError(name))
                 for name in ("rfft", "irfft")]
    forbidden.append(mock.patch.object(np, "errstate", side_effect=AssertionError("errstate")))
    with contextlib.ExitStack() as stack:
        for patch in forbidden:
            stack.enter_context(patch)
        parts = [engine.push(*(0.3 * rng.standard_normal((2, engine.hop)))) for _ in range(8)]
        parts.append(engine.flush())
    out = np.concatenate(parts)
    assert len(out) == 8 * engine.hop and np.isfinite(out).all() and np.any(out)


def test_push_takes_strided_float32_and_int16_chunks():
    """Chunks that are strided views, float32 or int16 give the output of
    their contiguous float64 copies, byte for byte."""
    rng = np.random.default_rng(11)
    hop, n_chunks = 256, 12
    wide = 0.3 * rng.standard_normal((2, n_chunks, 2 * hop))
    kinds = {
        "strided": wide[:, :, ::2],
        "float32": wide[:, :, :hop].astype(np.float32),
        "int16": (20000 * wide[:, :, :hop]).astype(np.int16),
    }
    for kind, (mics, fars) in kinds.items():
        chunks = list(zip(mics, fars))
        for optimizer in ("auxiva", "ilrma"):
            outputs = []
            for convert in (lambda c: c, lambda c: np.ascontiguousarray(c, dtype=np.float64)):
                engine = StreamingEngine(EngineConfig(optimizer=optimizer))
                parts = [engine.push(convert(y), convert(x)) for y, x in chunks]
                outputs.append(np.concatenate(parts + [engine.flush()]))
            assert outputs[0].tobytes() == outputs[1].tobytes(), (kind, optimizer)
            assert np.isfinite(outputs[0]).all()


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


@pytest.mark.parametrize("optimizer", ["auxiva", "ilrma"])
def test_finite_burst_raises_no_warning(spiky_scene, optimizer):
    """A 1e200 mic sample overflows |e|^2 in the frame weight and the
    covariance; the engine answers with a bin reset, so it must not also
    raise numpy warnings, which an application may have made errors."""
    far, mic = spiky_scene
    n = 120 * EngineConfig().stft.hop
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, stats = _push_all(EngineConfig(optimizer=optimizer), mic[:n], far[:n],
                               burst_chunk=100)
    assert np.isfinite(out).all()
    assert stats.skipped_bins == 0


@pytest.mark.parametrize("optimizer", ["auxiva", "ilrma"])
def test_exact_digital_silence_adapts_like_dither(spiky_scene, optimizer):
    """Exact zeros on both channels (a mute, a stream start) do not collapse adaptation.

    The reference fills the same span with 1e-6 RMS noise. Without ILRMA's
    silence guard an all-zero frame floors the NMF model and its next weight
    buries the covariance for tens of seconds (4 to 14 dB lower ERLE here).
    """
    far, mic = spiky_scene
    config = EngineConfig(optimizer=optimizer)
    dither = np.random.default_rng(0).standard_normal((2, SAMPLE_RATE)) * 1e-6
    for span in (slice(3 * SAMPLE_RATE, 3 * SAMPLE_RATE + SAMPLE_RATE // 2),
                 slice(0, 256), slice(0, SAMPLE_RATE)):
        scores = []
        for fill in (np.zeros((2, span.stop - span.start)), dither[:, : span.stop - span.start]):
            f, m = far.copy(), mic.copy()
            f[span], m[span] = fill
            out, _ = run(AudioSignal(f), AudioSignal(m), config)
            scores.append(steady_state(erle(AudioSignal(m), out)))
        assert abs(scores[0] - scores[1]) <= 1.0, (span, scores)


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
            h = np.fft.rfft(rng.standard_normal(32), sc.window_len) * 0.5**(i + lag)
            echo[:, lag:] += h[:, None] * specs[i].data[:, : n_frames - lag]
    mic_td = synthesize(Spectrogram(echo, sc)).samples
    mic = AudioSignal(mic_td[pad : pad + len(far)])
    out, _ = run(far, mic, EngineConfig(ctf=cfg))
    assert steady_state(erle(mic, out)) > 15.0


SECTIONS = (StftConfig, CtfConfig, AuxivaConfig)
# A valid non-default value for every engine setting, as a config file writes it.
NON_DEFAULT = {
    "optimizer": "ilrma", "window_len": "2048", "hop": "128", "frames_l": "2",
    "order_p": "1", "alpha": "0.95", "beta": "0.5", "diag_load": "1e-5",
}


def _settings(c: EngineConfig) -> dict:
    """Every independently settable value of an engine config, by key."""
    sections = (c.stft, c.ctf, c.auxiva)
    return {"optimizer": c.optimizer,
            **{f.name: getattr(s, f.name) for s in sections for f in fields(s)}}


class TestEngineFromMapping:
    def test_settings_have_distinct_names(self):
        names = ["optimizer"] + [f.name for cls in SECTIONS for f in fields(cls)]
        assert len(set(names)) == len(names) == 8
        assert set(_settings(EngineConfig())) == set(NON_DEFAULT)

    @pytest.mark.parametrize("key", sorted(NON_DEFAULT))
    def test_each_key_sets_exactly_its_field(self, key):
        c = engine_from_mapping({f"engine.{key}": NON_DEFAULT[key]})
        default = _settings(EngineConfig())
        assert _settings(c) == {**default, key: type(default[key])(NON_DEFAULT[key])}
        assert _settings(c)[key] != default[key]

    def test_readme_engine_row_lists_exactly_the_keys(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        row = next(line for line in readme.read_text().splitlines()
                   if line.startswith("| `engine.` |"))
        keys = re.findall(r"`([a-z_]+)`", re.sub(r"\([^)]*\)", "", row.split("|")[2]))
        assert sorted(keys) == sorted(NON_DEFAULT)

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
                "engine.diag_load": "1e-5",
                "engine.window_len": "512",
                "engine.hop": "128",
            }
        )
        assert c.optimizer == "ilrma"
        assert c.ctf == CtfConfig(frames_l=2, order_p=1)
        assert c.auxiva == AuxivaConfig(alpha=0.95, beta=0.5, diag_load=1e-5)
        assert c.stft.window_len == 512 and c.stft.hop == 128

    def test_unknown_key(self):
        # ILRMA's rank-1 model has no basis count, so no engine.bases_b.
        for key in ("engine.step_size", "engine.bases_b"):
            with pytest.raises(ValueError, match=key):
                engine_from_mapping({key: "4"})
        with pytest.raises(ValueError, match="'engine'"):
            engine_from_mapping({"engine": "ilrma"})

    def test_prefix_isolation(self):
        c = engine_from_mapping(
            {"engine.a.optimizer": "ilrma", "scene.seed": "1"}, prefix="engine.a"
        )
        assert c.optimizer == "ilrma"


@pytest.mark.parametrize("optimizer", ["auxiva", "ilrma"])
def test_long_silence_leaves_the_inverse_and_the_rows_as_they_are(spiky_scene, optimizer):
    """At alpha = 0.5, 1150 silent frames between two echo segments would
    scale P by 2^1150 if a silent bin were updated. A bin whose s |y|^2 is
    0 is left as it is instead: once the window and the lags hold only
    zeros, P, tau and the rows keep their bytes through the silence, no bin
    is reset or skipped, the output stays finite, and the second segment is
    cancelled by 20 dB or more, with or without the silence."""
    far, mic = spiky_scene
    hop, split, silent = 256, 4 * SAMPLE_RATE, 1150
    config = EngineConfig(optimizer=optimizer, auxiva=AuxivaConfig(alpha=0.5))
    for gap in (0, silent):
        engine = StreamingEngine(config)
        state = engine._state
        resets = []
        reset = state.reset_bins
        state.reset_bins = lambda bins: (resets.append(bins), reset(bins))
        f = np.concatenate([far[:split], np.zeros(gap * hop), far[split:]])
        m = np.concatenate([mic[:split], np.zeros(gap * hop), mic[split:]])
        parts = []
        for j in range(len(m) // hop):
            parts.append(engine.push(m[j * hop : (j + 1) * hop], f[j * hop : (j + 1) * hop]))
            quiet = j - split // hop
            if gap and quiet == 10:  # the window and the lags hold only zeros
                held = state.inv.tobytes(), state.trace.tobytes(), state.rows.tobytes()
            elif gap and 10 < quiet < gap:
                assert (state.inv.tobytes(), state.trace.tobytes(),
                        state.rows.tobytes()) == held, quiet
        out = np.concatenate(parts + [engine.flush()])[: len(m)]
        assert np.isfinite(out).all()
        assert not resets and engine.stats.skipped_bins == 0
        after = slice(split + gap * hop, len(m))
        assert steady_state(erle(AudioSignal(m[after]), AudioSignal(out[after]))) >= 20.0


@pytest.mark.parametrize("optimizer, parent_db", [("auxiva", 20.4), ("ilrma", 19.4)])
def test_muted_microphone_recovers_after_an_echo_path_change(optimizer, parent_db):
    """A microphone muted to exact zeros for 600 frames at alpha = 0.5 while
    the far end plays, then unmuted after the microphone has moved. The
    mute leaves the microphone coordinate with its loading alone, so P_00
    stays bounded and the first unmuted frames adapt at once: ERLE over the
    first 2 s after the unmute is within 1.5 dB of the engine that solved the
    rows from V (20.4 dB for AuxIVA, 19.4 dB for ILRMA; 19.7 and 18.9 dB
    here). An engine whose P_00 grew by 1 / alpha per muted frame read
    -18 dB, worse than no cancellation."""
    hop, split, muted = 256, 3 * SAMPLE_RATE, 600
    n = split + muted * hop + 4 * SAMPLE_RATE
    far = speech_like(n / SAMPLE_RATE, seed=21, level=0.3)
    mics = [synthesize_scene(SceneSpec(
        far_end=far, room=RoomSpec(t60=0.3, rir_length=4096, mic_pos=pos),
        nonlinearity=NonlinearitySpec(kind="hard_clip", clip_ratio=0.2), snr_db=60.0, seed=seed,
    )).microphone.samples for seed, pos in ((1, (4.0, 2.0, 1.2)), (2, (3.0, 4.0, 1.5)))]
    unmute = split + muted * hop
    m = np.concatenate([mics[0][:split], np.zeros(muted * hop), mics[1][unmute:]])
    out, _ = _push_all(EngineConfig(optimizer=optimizer, auxiva=AuxivaConfig(alpha=0.5)),
                       m, far.samples)
    after = slice(unmute, len(out))
    curve = erle(AudioSignal(m[after]), AudioSignal(out[after]))
    assert np.mean(curve.values[:20]) >= parent_db - 1.5
