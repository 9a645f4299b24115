"""End-to-end acceptance checks for the echo-cancellation package.

Each test is one releasable claim about the system, with explicit
tolerances. Thresholds marked by a brute-force least-squares oracle are
computed inside the test so the claim stays self-validating.
"""

import time

import numpy as np
import pytest

from conftest import random_hpd
from naec.audio_io import AudioSignal, read_wav
from naec.auxiva import AuxivaConfig, AuxivaState, process_frame
from naec.cli import EXIT_OK, main
from naec.ctf import CtfConfig
from naec.ilrma import (
    NMF_FLOOR,
    NmfSourceModel,
    update_activations,
    update_bases,
)
from naec.metrics import erle, steady_state, terle
from naec.nonlin import odd_powers
from naec.pipeline import EngineConfig, run
from naec.sim import (
    NonlinearitySpec,
    RoomSpec,
    SceneSpec,
    hard_clip,
    image_method_rir,
    speech_like,
    synthesize_scene,
    white_noise,
)
from naec.stft import StftConfig
from oracles import (
    Spectrogram,
    analyze,
    batch_observations,
    constrained_matrix,
    nlms,
    nmf_batch_sweep,
    offline_batch,
    online_recursion,
    synthesize,
)

SAMPLE_RATE = 16000


def _least_squares_erle_db(mic, far, ctf_config, skip_frames=8):
    """Best achievable subband-domain suppression with a fixed per-bin filter.

    Solves the regularized normal equations over all frames past the
    overlap-add warm-up and reports the global residual reduction in dB.
    """
    sc = StftConfig()
    pad = sc.window_len - sc.hop
    refs = odd_powers(far.samples, ctf_config.order_p)
    ref_specs = [
        analyze(AudioSignal(np.concatenate([np.zeros(pad), r])), sc) for r in refs
    ]
    mic_spec = analyze(AudioSignal(np.concatenate([np.zeros(pad), mic.samples])), sc)
    obs = batch_observations(mic_spec, ref_specs, ctf_config)[skip_frames:]
    a, y = obs[:, :, 1:], obs[:, :, 0]
    dim = a.shape[2]
    gram = np.einsum("nkd,nke->kde", a.conj(), a)
    rhs = np.einsum("nkd,nk->kd", a.conj(), y)
    lam = 1e-9 * np.maximum(np.einsum("kdd->k", gram).real, 1e-30) / dim
    w = np.linalg.solve(gram + lam[:, None, None] * np.eye(dim), rhs[:, :, None])
    resid = y - np.einsum("nkd,kd->nk", a, w[:, :, 0])
    return 10.0 * np.log10(np.sum(np.abs(y) ** 2) / np.sum(np.abs(resid) ** 2))


def test_criterion_01_stft_perfect_reconstruction():
    """2 s of noise survives analysis/synthesis with interior error <= 1e-9."""
    x = white_noise(2.0, seed=1, level=0.3)
    start = time.perf_counter()
    out = synthesize(analyze(x))
    elapsed = time.perf_counter() - start
    pad = 1024 - 256
    err = np.abs(out.samples[pad : len(x) - pad] - x.samples[pad : len(x) - pad])
    assert np.max(err) <= 1e-9
    assert elapsed < 1.0


def test_criterion_02_constrained_demixing_inverse_identity():
    """(W V)^-1 e1 equals V^-1 e1 for 1000 random cases, rel. error <= 1e-10."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    dims = [2, 4, 10]
    for trial in range(1000):
        dim = dims[trial % 3]
        v = random_hpd(rng, dim, 1)[0]
        tail = rng.standard_normal(dim - 1) + 1j * rng.standard_normal(dim - 1)
        w = constrained_matrix(np.concatenate([[1.0 + 0j], tail]))
        e1 = np.zeros(dim, dtype=np.complex128)
        e1[0] = 1.0
        lhs = np.linalg.solve(w @ v, e1)
        ref = np.linalg.solve(v, e1)
        assert np.linalg.norm(lhs - ref) / np.linalg.norm(ref) <= 1e-10
    assert time.perf_counter() - start < 5.0


def test_criterion_03_model_matched_convergence():
    """Both optimizers reach >= 25 dB steady ERLE when the echo follows the
    subband filter model exactly; a least-squares oracle confirms the
    threshold is attainable."""
    sc = StftConfig()
    cfg = CtfConfig(frames_l=3, order_p=3)
    far = speech_like(10.0, seed=11, level=0.25)
    pad = sc.window_len - sc.hop
    refs = odd_powers(far.samples, cfg.order_p)
    # trailing zeros keep the resynthesized echo fully overlapped inside the
    # region that is later trimmed back to the far-end length
    ref_specs = [
        analyze(
            AudioSignal(np.concatenate([np.zeros(pad), r, np.zeros(sc.window_len)])),
            sc,
        )
        for r in refs
    ]
    rng = np.random.default_rng(7)
    n_frames = ref_specs[0].n_frames
    scales = [0.8, 0.5, 0.3]
    echo = np.zeros((sc.n_bins, n_frames), dtype=np.complex128)
    for i in range(cfg.order_p):
        for lag in range(cfg.frames_l):
            h = np.fft.rfft(rng.standard_normal(64), sc.window_len)
            h *= scales[i] * 0.7**lag
            echo[:, lag:] += h[:, None] * ref_specs[i].data[:, : n_frames - lag]
    mic_td = synthesize(Spectrogram(echo, sc)).samples
    mic = AudioSignal(mic_td[pad : pad + len(far)])

    oracle_db = _least_squares_erle_db(mic, far, cfg)
    assert oracle_db >= 25.0  # the target is achievable for a fixed filter
    for optimizer in ("auxiva", "ilrma"):
        out, _ = run(far, mic, EngineConfig(optimizer=optimizer, ctf=cfg))
        assert steady_state(erle(mic, out)) >= 25.0


def test_criterion_04_cross_frame_model_beats_single_frame():
    """L=3 steady ERLE exceeds L=1 by >= 2 dB on a reverberant clipped scene."""
    scene = SceneSpec(
        far_end=speech_like(10.0, seed=7, level=0.3, pause_weight=0.0),
        room=RoomSpec(mic_pos=(2.6, 3.0, 1.2), t60=0.8, rir_length=16384),
        nonlinearity=NonlinearitySpec(kind="hard_clip", clip_ratio=0.2),
        snr_db=60.0,
        seed=5,
    )
    comps = synthesize_scene(scene)
    results = {}
    for frames_l in (3, 1):
        out, _ = run(
            scene.far_end,
            comps.microphone,
            EngineConfig(ctf=CtfConfig(frames_l=frames_l)),
        )
        results[frames_l] = steady_state(erle(comps.microphone, out))
    assert results[3] - results[1] >= 2.0


def _criterion_05_scene(near_end: bool = True) -> SceneSpec:
    """Clipped speech echo at 0 dB SER in a T60 = 0.3 s room, or its single-talk twin."""
    return SceneSpec(
        far_end=speech_like(10.0, seed=3, level=0.3),
        near_end=speech_like(10.0, seed=4, level=0.1) if near_end else None,
        room=RoomSpec(t60=0.3, rir_length=8192),
        nonlinearity=NonlinearitySpec(kind="hard_clip", clip_ratio=0.2),
        ser_db=0.0,
        snr_db=60.0,
        seed=5,
    )


def test_criterion_05_double_talk_preserves_near_end():
    """At 0 dB SER both optimizers reach > 5 dB true ERLE and always leave
    the output closer to the near end than the raw microphone."""
    scene = _criterion_05_scene()
    comps = synthesize_scene(scene)
    tail = int(0.7 * len(comps.microphone))
    mic_residual = np.sum(
        (comps.microphone.samples[tail:] - comps.near.samples[tail:]) ** 2
    )
    for optimizer in ("auxiva", "ilrma"):
        out, _ = run(scene.far_end, comps.microphone, EngineConfig(optimizer=optimizer))
        assert steady_state(terle(comps.echo, out, comps.near)) > 5.0
        out_residual = np.sum((out.samples[tail:] - comps.near.samples[tail:]) ** 2)
        assert out_residual < mic_residual


def _nlms_output(mic: AudioSignal, far: AudioSignal, mu: float) -> AudioSignal:
    """``oracles.nlms`` on the default engine's observations of the scene,
    resynthesized and aligned with the microphone as ``run`` aligns its output."""
    sc, cfg = StftConfig(), CtfConfig()
    pad = sc.window_len - sc.hop
    mic_spec, *ref_specs = (analyze(AudioSignal(np.concatenate([np.zeros(pad), x])), sc)
                            for x in (mic.samples, *odd_powers(far.samples, cfg.order_p)))
    errors = nlms(batch_observations(mic_spec, ref_specs, cfg), mu)
    return AudioSignal(synthesize(Spectrogram(errors.T, sc)).samples[pad : pad + len(mic)])


@pytest.mark.parametrize("near_end, margin_db", [(False, 1.5), (True, 2.5)],
                         ids=["single_talk", "double_talk"])
def test_auxiva_beats_adaptive_nlms_at_its_best_step(near_end, margin_db):
    """The paper's claim that online SBSS beats adaptive NAEC, against a
    per-bin NLMS on the same odd-power CTF observations with no double-talk
    detector (``oracles.nlms``) at the best step size of a fixed grid. On
    criterion 5's scene AuxIVA's steady ERLE (single talk) or true ERLE
    (double talk) exceeds the best NLMS's by ``margin_db``.

    Margins from a panel of 8 such scenes (far, near and scene seeds
    3 + 10i, 4 + 10i, 5 + i): AuxIVA led by 2.24 to 4.26 dB in single talk
    and 3.39 to 14.24 dB in double talk (3.00 and 3.46 dB on this scene).
    ILRMA, not asserted here, led the best NLMS on every panel scene, by
    0.22 to 3.25 dB in single talk and 1.91 dB or more in double talk.
    """
    scene = _criterion_05_scene(near_end)
    comps = synthesize_scene(scene)

    def score(out):
        curve = terle(comps.echo, out, comps.near) if near_end else erle(comps.microphone, out)
        return steady_state(curve)

    best_nlms = max(score(_nlms_output(comps.microphone, scene.far_end, mu))
                    for mu in (0.002, 0.01, 0.05, 0.5))
    auxiva_db = score(run(scene.far_end, comps.microphone)[0])
    assert auxiva_db - best_nlms >= margin_db, (auxiva_db, best_nlms)


def test_criterion_06_nmf_update_property_suite():
    """Fixed point, batch consistency, and floor preservation over 1000
    random 8-bin instances, all at 1e-12."""
    rng = np.random.default_rng(66)
    start = time.perf_counter()
    for _ in range(1000):
        m = NmfSourceModel(8)
        m.t1 = rng.uniform(0.2, 2.0, 8)
        m.v1 = rng.uniform(0.2, 2.0)
        m.recompute_variance()

        # factor-one fixed point: matching power leaves the model untouched
        t_before, v_before = m.t1.copy(), m.v1.copy()
        e_match = np.sqrt(m.r1)
        update_bases(m, e_match)
        update_activations(m, e_match)
        np.testing.assert_allclose(m.t1, t_before, rtol=1e-12)
        np.testing.assert_allclose(m.v1, v_before, rtol=1e-12)

        # online update pair consistent with the batch sweep on one column
        e1 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        t_ref, v_ref, r_ref = nmf_batch_sweep(
            m.t1.reshape(8, 1), m.v1.reshape(1, 1), (np.abs(e1) ** 2)[:, None], NMF_FLOOR
        )
        update_bases(m, e1)
        update_activations(m, e1)
        np.testing.assert_allclose(m.t1, t_ref[:, 0], rtol=1e-12)
        np.testing.assert_allclose(m.v1, v_ref[0, 0], rtol=1e-12)
        np.testing.assert_allclose(m.r1, r_ref[:, 0], rtol=1e-12)

        # silence drives the basis to the floor, never below
        update_bases(m, np.zeros(8, dtype=complex))
        np.testing.assert_array_equal(m.t1, np.full(8, NMF_FLOOR))
        assert np.all(m.v1 >= NMF_FLOOR) and np.all(m.r1 >= NMF_FLOOR)
    assert time.perf_counter() - start < 5.0


def test_criterion_07_online_matches_offline_fixed_point():
    """On a repeated 16-frame batch the online rows agree with the loaded
    recursion tracked densely (``online_recursion``) to 3e-5 relative error
    per bin (9.4e-6 measured), and their mean over the last D frames agrees
    with the batch fixed point to 2e-3 (7.9e-4 measured). Every frame is the
    same rank-1 observation, so the rows are set by the shape of the loading
    on C. The batch solution loads C uniformly; the recursion loads one
    coordinate per frame, so its shape rotates with period D and the rows of
    a single frame sit up to 3.8e-2 from the fixed point, while over one
    rotation these offsets cancel to first order."""
    rng = np.random.default_rng(42)
    n_bins, dim, n_frames = 16, 7, 16
    frame = rng.standard_normal((n_bins, dim)) + 1j * rng.standard_normal((n_bins, dim))
    frame[:, 0] += 2.0 * (rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins))
    obs = np.tile(frame[None, :, :], (n_frames, 1, 1))

    config = AuxivaConfig()
    offline_rows = offline_batch(obs, config, iterations=200)
    state = AuxivaState(n_bins, dim, config)
    last = []
    for _ in range(100):
        for n in range(n_frames):
            process_frame(state, obs[n])
            last = (last + [state.rows.copy()])[-dim:]
    dense = online_recursion(np.tile(obs, (100, 1, 1)), config)
    rel = np.abs(state.rows - dense) / np.maximum(np.abs(dense), 1e-30)
    assert np.max(rel) <= 3e-5
    mean = np.mean(last, axis=0)
    rel = np.abs(mean - offline_rows) / np.maximum(np.abs(offline_rows), 1e-30)
    assert np.max(rel) <= 2e-3


def test_criterion_08_faster_than_real_time():
    """A 10 s default-configuration run finishes in under 10 s of wall time."""
    scene = SceneSpec(
        far_end=speech_like(10.0, seed=21, level=0.3),
        room=RoomSpec(t60=0.3, rir_length=4096),
        nonlinearity=NonlinearitySpec(kind="hard_clip", clip_ratio=0.2),
        snr_db=60.0,
        seed=1,
    )
    comps = synthesize_scene(scene)
    start = time.perf_counter()
    out, stats = run(scene.far_end, comps.microphone, EngineConfig())
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert stats.realtime_factor > 1.0
    assert len(out) == len(comps.microphone)


def test_criterion_09_simulator_fidelity():
    """Reverb decay, SER/SNR calibration, and clipping match their targets."""
    # Schroeder decay of the generated response hits -60 dB at T60 +- 20%
    room = RoomSpec(t60=0.2, rir_length=8192)
    h = image_method_rir(room).samples
    first = np.nonzero(h)[0][0]
    tail = h[first:]
    energy = np.cumsum(tail[::-1] ** 2)[::-1]
    edc_db = 10.0 * np.log10(energy / energy[0])
    crossing = np.nonzero(edc_db <= -60.0)[0][0] / SAMPLE_RATE
    assert 0.8 * room.t60 <= crossing <= 1.2 * room.t60

    # SER and SNR of a synthesized scene match the request to 0.01 dB
    scene = SceneSpec(
        far_end=white_noise(1.0, seed=1, level=0.2),
        near_end=speech_like(1.0, seed=2, level=0.1),
        room=RoomSpec(t60=0.25, rir_length=2048),
        ser_db=4.2,
        snr_db=17.0,
        seed=3,
    )
    comps = synthesize_scene(scene)
    ser = 10.0 * np.log10(
        np.mean(comps.near.samples**2) / np.mean(comps.echo.samples**2)
    )
    mix = comps.echo.samples + comps.near.samples
    snr = 10.0 * np.log10(np.mean(mix**2) / np.mean(comps.noise.samples**2))
    assert abs(ser - 4.2) <= 0.01
    assert abs(snr - 17.0) <= 0.01

    # hard clipping matches the saturation rule on an exhaustive value grid
    grid = np.array([-1.0, -0.5, -0.2, -0.05, 0.0, 0.05, 0.2, 0.5, 1.0])
    for a in grid:
        for b in grid:
            for c in grid:
                x = np.array([a, b, c])
                got = hard_clip(AudioSignal(x), 0.2).samples
                x_max = 0.2 * np.max(np.abs(x))
                expected = x.copy() if x_max == 0.0 else np.clip(x, -x_max, x_max)
                np.testing.assert_array_equal(got, expected)
    np.testing.assert_allclose(
        hard_clip(AudioSignal(np.array([1.0, 0.1, -0.5])), 0.2).samples,
        [0.2, 0.1, -0.2],
        rtol=0,
        atol=0,
    )


def test_criterion_10_simulation_outputs_are_reproducible(tmp_path):
    """Two identical simulate invocations write byte-identical CSV and WAVs."""
    cfg = tmp_path / "scene.cfg"
    cfg.write_text(
        "scene.duration_s = 1.5\n"
        "scene.seed = 12\n"
        "scene.snr_db = 35\n"
        "room.t60 = 0.25\n"
        "room.rir_length = 2048\n"
        "nonlinearity.kind = hard_clip\n"
        "far_end.kind = speech_like\n"
        "far_end.level = 0.3\n"
        "near_end.kind = speech_like\n"
        "scene.ser_db = 2\n"
    )
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(d)]) == EXIT_OK
    names = ["metrics.csv", "far.wav", "microphone.wav", "echo.wav",
             "near.wav", "enhanced.wav"]
    for name in names:
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    # cross-check one artifact is actually audio, not an empty placeholder
    assert len(read_wav(dirs[0] / "enhanced.wav")) == int(1.5 * SAMPLE_RATE)


def test_longer_ctf_keeps_cancelling_more_in_a_long_room():
    """The paper's long-CTF claim: in a T60 = 0.8 s room steady ERLE rises
    strictly with the CTF length L = 1, 3, 6 and 10. The scene is scene 0 of
    the benchmark's ``longrir_speech_auxiva_l6`` panel at seed 1 (16 s of
    continuous speech, a 16384-tap RIR, hard clip at 0.2). Its ERLE read
    3.66, 6.08, 8.83 and 12.21 dB (the three-scene panel means 3.75, 5.71,
    8.09 and 11.49 dB); the bounds are half the smallest of these steps,
    1.2 dB per step, and 3 dB at L = 1."""
    far_seed, _, scene_seed = (int(s) for s in np.random.SeedSequence([1, 0]).generate_state(3))
    spec = SceneSpec(
        far_end=speech_like(16.0, far_seed, 0.3, 0.0),
        room=RoomSpec(t60=0.8, rir_length=16384),
        nonlinearity=NonlinearitySpec(kind="hard_clip", clip_ratio=0.2),
        ser_db=0.0,
        snr_db=60.0,
        seed=scene_seed,
    )
    mic = synthesize_scene(spec).microphone
    scores = []
    for frames_l in (1, 3, 6, 10):
        out, _ = run(spec.far_end, mic, EngineConfig(ctf=CtfConfig(frames_l=frames_l)))
        scores.append(steady_state(erle(mic, out)))
    assert scores[0] >= 3.0, scores
    assert (np.diff(scores) >= 1.2).all(), scores
