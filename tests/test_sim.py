"""Room simulation, loudspeaker models, and scene mixing."""

import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from naec.audio_io import SAMPLE_RATE, AudioSignal, parse_flat_config, write_wav
from naec.sim import (
    SCENE_KEYS,
    SIGNAL_KEYS,
    SPEED_OF_SOUND,
    NonlinearitySpec,
    RoomSpec,
    SceneSpec,
    apply_nonlinearity,
    hard_clip,
    image_method_rir,
    music_like,
    power_series_nonlinearity,
    sabine_reflection,
    scene_from_mapping,
    speech_like,
    synthesize_scene,
    white_noise,
)


def schroeder_decay_time(h, db=-60.0):
    """Time where the backward-integrated energy first falls ``db`` below start."""
    energy = np.cumsum(h[::-1] ** 2)[::-1]
    edc = 10.0 * np.log10(energy / energy[0])
    below = np.nonzero(edc <= db)[0]
    return below[0] / SAMPLE_RATE if len(below) else np.inf


class TestRoomSpec:
    def test_defaults(self):
        r = RoomSpec()
        assert r.dimensions == (6.0, 5.0, 3.0)
        assert r.source_pos == (2.0, 3.0, 1.2)
        assert r.mic_pos == (4.0, 2.0, 1.2)

    def test_positions_must_be_inside(self):
        with pytest.raises(ValueError):
            RoomSpec(source_pos=(0.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            RoomSpec(mic_pos=(6.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            RoomSpec(mic_pos=(np.nan, 1.0, 1.0))

    @pytest.mark.parametrize("dims", [(np.nan, 5.0, 3.0), (np.inf, 5.0, 3.0), (6.0, 0.0, 3.0)])
    def test_dimensions_must_be_positive_and_finite(self, dims):
        with pytest.raises(ValueError, match="dimensions"):
            RoomSpec(dimensions=dims)

    def test_minimum_separation(self):
        with pytest.raises(ValueError):
            RoomSpec(source_pos=(2.0, 3.0, 1.2), mic_pos=(2.0, 3.0, 1.25))

    def test_t60_range(self):
        with pytest.raises(ValueError):
            RoomSpec(t60=0.05)
        with pytest.raises(ValueError):
            RoomSpec(t60=2.5)


class TestSabine:
    def test_reflection_formula(self):
        room = RoomSpec(t60=0.3)
        volume = 6.0 * 5.0 * 3.0
        area = 2.0 * (6.0 * 5.0 + 6.0 * 3.0 + 5.0 * 3.0)
        absorption = 0.161 * volume / (area * 0.3)
        assert sabine_reflection(room) == pytest.approx(np.sqrt(1 - absorption))

    def test_unreachable_t60_raises(self):
        # a very short T60 in this volume would need absorption above one
        with pytest.raises(ValueError):
            sabine_reflection(RoomSpec(t60=0.1))


class TestImageMethod:
    def test_direct_path_delay_within_one_sample(self):
        room = RoomSpec(t60=0.5, rir_length=2048)
        h = image_method_rir(room).samples
        dist = np.linalg.norm(
            np.subtract(room.source_pos, room.mic_pos).astype(float)
        )
        expected = dist / SPEED_OF_SOUND * SAMPLE_RATE
        first = np.nonzero(h)[0][0]
        assert abs(first - expected) <= 1.0

    def test_reflection_override_gives_single_spike(self):
        room = RoomSpec(t60=0.5, rir_length=2048)
        h = image_method_rir(room, reflection=0.0).samples
        nz = np.nonzero(h)[0]
        assert len(nz) == 1
        dist = np.linalg.norm(np.subtract(room.source_pos, room.mic_pos))
        assert h[nz[0]] == pytest.approx(1.0 / (4.0 * np.pi * dist))

    def test_decay_matches_requested_t60(self):
        room = RoomSpec(t60=0.2, rir_length=6144)
        h = image_method_rir(room).samples
        first = np.nonzero(h)[0][0]
        decay = schroeder_decay_time(h[first:])
        assert 0.8 * 0.2 <= decay <= 1.2 * 0.2

    def test_deterministic(self):
        room = RoomSpec(rir_length=1024)
        a = image_method_rir(room).samples
        b = image_method_rir(room).samples
        np.testing.assert_array_equal(a, b)


class TestNonlinearities:
    def test_hard_clip_three_sample_example(self):
        out = hard_clip(AudioSignal(np.array([1.0, 0.1, -0.5])), 0.2)
        np.testing.assert_allclose(out.samples, [0.2, 0.1, -0.2], rtol=0, atol=0)

    def test_hard_clip_zero_signal(self):
        out = hard_clip(AudioSignal(np.zeros(8)), 0.2)
        np.testing.assert_array_equal(out.samples, np.zeros(8))

    def test_hard_clip_full_ratio_is_identity(self, rng):
        x = rng.standard_normal(64)
        out = hard_clip(AudioSignal(x), 1.0)
        np.testing.assert_array_equal(out.samples, x)

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(
            np.float64,
            st.integers(min_value=1, max_value=32),
            elements=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
        ),
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_hard_clip_bounds_and_small_sample_identity(self, x, ratio):
        out = hard_clip(AudioSignal(x), ratio).samples
        x_max = ratio * np.max(np.abs(x))
        assert np.all(np.abs(out) <= x_max + 1e-15)
        inside = np.abs(x) <= x_max
        np.testing.assert_array_equal(out[inside], x[inside])

    def test_power_series_scalar_example(self):
        out = power_series_nonlinearity(AudioSignal(np.array([0.5])), [1.0, -0.3])
        assert out.samples[0] == pytest.approx(0.4625)

    def test_power_series_identity_with_single_coeff(self, rng):
        x = rng.standard_normal(32)
        out = power_series_nonlinearity(AudioSignal(x), [1.0])
        np.testing.assert_array_equal(out.samples, x)

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(
            np.float64,
            st.integers(min_value=1, max_value=16),
            elements=st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
        )
    )
    def test_power_series_odd_symmetry(self, x):
        coeffs = [1.0, -0.2, 0.05]
        pos = power_series_nonlinearity(AudioSignal(x), coeffs).samples
        neg = power_series_nonlinearity(AudioSignal(-x), coeffs).samples
        np.testing.assert_array_equal(neg, -pos)

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(
            np.float64,
            st.integers(min_value=1, max_value=16),
            elements=st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
        ),
        st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=6),
    )
    def test_power_series_matches_term_by_term_loop(self, x, coeffs):
        acc, term = np.zeros_like(x), x.copy()
        for i, a in enumerate(coeffs):
            if i > 0:
                term = term * (x * x)
            acc += a * term
        out = power_series_nonlinearity(AudioSignal(x), coeffs).samples
        assert out.tobytes() == acc.tobytes()  # bit-identical, signed zeros included

    def test_apply_dispatch(self, rng):
        x = AudioSignal(rng.standard_normal(32))
        clip = apply_nonlinearity(x, NonlinearitySpec(kind="hard_clip", clip_ratio=0.5))
        np.testing.assert_array_equal(clip.samples, hard_clip(x, 0.5).samples)
        none = apply_nonlinearity(x, NonlinearitySpec(kind="none"))
        np.testing.assert_array_equal(none.samples, x.samples)
        assert none.samples is not x.samples

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NonlinearitySpec(kind="cubic")
        with pytest.raises(ValueError):
            NonlinearitySpec(clip_ratio=0.0)
        with pytest.raises(ValueError):
            NonlinearitySpec(kind="power_series", coeffs=())
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="coeffs must be finite"):
                NonlinearitySpec(kind="power_series", coeffs=(1.0, bad))


class TestSceneSynthesis:
    def test_components_sum_to_microphone(self, small_scene):
        _, comps = small_scene
        np.testing.assert_allclose(
            comps.microphone.samples,
            comps.echo.samples + comps.near.samples + comps.noise.samples,
            rtol=0,
            atol=0,
        )

    def test_ser_is_exact(self):
        spec = SceneSpec(
            far_end=white_noise(1.0, seed=1, level=0.2),
            near_end=speech_like(1.0, seed=2, level=0.1),
            room=RoomSpec(t60=0.25, rir_length=2048),
            ser_db=-3.7,
            snr_db=None,
        )
        comps = synthesize_scene(spec)
        ser = 10.0 * np.log10(
            np.mean(comps.near.samples**2) / np.mean(comps.echo.samples**2)
        )
        assert ser == pytest.approx(-3.7, abs=1e-10)

    def test_snr_is_exact(self):
        spec = SceneSpec(
            far_end=white_noise(1.0, seed=1, level=0.2),
            room=RoomSpec(t60=0.25, rir_length=2048),
            snr_db=12.5,
        )
        comps = synthesize_scene(spec)
        mix = comps.echo.samples + comps.near.samples
        snr = 10.0 * np.log10(np.mean(mix**2) / np.mean(comps.noise.samples**2))
        assert snr == pytest.approx(12.5, abs=1e-10)

    def test_noiseless_scene(self):
        spec = SceneSpec(
            far_end=white_noise(0.5, seed=1, level=0.2),
            room=RoomSpec(t60=0.25, rir_length=1024),
            snr_db=None,
        )
        comps = synthesize_scene(spec)
        np.testing.assert_array_equal(comps.noise.samples, np.zeros(len(comps.noise)))
        np.testing.assert_array_equal(comps.microphone.samples, comps.echo.samples)

    def test_infinite_snr_equals_none(self):
        far = white_noise(0.5, seed=1, level=0.2)
        room = RoomSpec(t60=0.25, rir_length=1024)
        a = synthesize_scene(SceneSpec(far_end=far, room=room, snr_db=None))
        b = synthesize_scene(SceneSpec(far_end=far, room=room, snr_db=np.inf))
        np.testing.assert_array_equal(a.microphone.samples, b.microphone.samples)

    @pytest.mark.parametrize("kwargs", [
        {"ser_db": np.nan}, {"ser_db": np.inf}, {"snr_db": np.nan}, {"snr_db": -np.inf},
    ])
    def test_spec_rejects_non_numbers(self, short_noise, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SceneSpec(far_end=short_noise, **kwargs)

    def test_deterministic(self, small_scene):
        spec, comps = small_scene
        again = synthesize_scene(spec)
        np.testing.assert_array_equal(comps.microphone.samples, again.microphone.samples)
        np.testing.assert_array_equal(comps.noise.samples, again.noise.samples)


class TestSignalGenerators:
    def test_white_noise_level(self):
        x = white_noise(1.0, seed=0, level=0.25)
        assert np.sqrt(np.mean(x.samples**2)) == pytest.approx(0.25)

    def test_generators_are_deterministic(self):
        for gen in (white_noise, speech_like, music_like):
            a = gen(0.5, 3, 0.1)
            b = gen(0.5, 3, 0.1)
            np.testing.assert_array_equal(a.samples, b.samples)
            c = gen(0.5, 4, 0.1)
            assert not np.array_equal(a.samples, c.samples)

    def test_speech_has_pauses_and_activity(self):
        x = speech_like(4.0, seed=2, level=0.2).samples
        block = SAMPLE_RATE // 10
        rms = np.sqrt(np.mean(x[: len(x) // block * block].reshape(-1, block) ** 2, axis=1))
        assert rms.max() > 10.0 * rms.min()  # clear level contrast across time

    def test_pause_free_speech_is_always_active(self):
        x = speech_like(4.0, seed=2, level=0.2, pause_weight=0.0).samples
        block = SAMPLE_RATE // 10
        rms = np.sqrt(np.mean(x[: len(x) // block * block].reshape(-1, block) ** 2, axis=1))
        assert rms.min() > 0.01 * rms.max()

    def test_pause_weight_validation(self):
        with pytest.raises(ValueError):
            speech_like(1.0, seed=0, pause_weight=1.0)

    def test_all_pause_draw_raises_naming_its_inputs(self):
        # seed 1 draws a pause as its first segment, which covers all of 0.1 s
        with pytest.raises(ValueError, match=r"no sound \(duration_s = 0.1, pause_weight = 0.2"):
            speech_like(0.1, seed=1)
        assert np.abs(speech_like(0.1, seed=1, pause_weight=0.0).samples).max() > 0

    @pytest.mark.parametrize("generator", [speech_like, music_like, white_noise])
    def test_duration_must_be_at_least_one_sample(self, generator):
        for duration in (0.0, 0.5 / SAMPLE_RATE, np.inf):
            with pytest.raises(ValueError, match="duration_s must be at least one sample"):
                generator(duration, seed=2)
        if generator is white_noise:
            x = generator(1.0 / SAMPLE_RATE, seed=2)
            assert len(x) == 1 and abs(x.samples[0]) == pytest.approx(0.1)
        else:  # one sample is valid, but every segment's fade-in starts at zero
            with pytest.raises(ValueError, match=r"no sound \(duration_s = 6.25e-05"):
                generator(1.0 / SAMPLE_RATE, seed=2)

    def test_duration_and_peak_cap(self):
        x = speech_like(1.25, seed=7, level=0.9)
        assert len(x) == int(1.25 * SAMPLE_RATE)
        assert np.max(np.abs(x.samples)) <= 0.95 + 1e-12


class TestFlatConfig:
    def test_parse_basic(self):
        text = "a.b = 1\n# comment\nc = hello  # trailing\n\na.b= 2\n"
        assert parse_flat_config(text) == {"a.b": "2", "c": "hello"}

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_flat_config("not a pair\n")
        with pytest.raises(ValueError):
            parse_flat_config("= value\n")

    def test_scene_defaults(self):
        spec = scene_from_mapping({"scene.duration_s": "0.5"})
        assert spec.room.t60 == 0.3
        assert spec.nonlinearity.kind == "hard_clip"
        assert spec.near_end is None
        assert spec.snr_db == 60.0
        assert len(spec.far_end) == SAMPLE_RATE // 2
        # absent signal keys leave the generator's own level and pause_weight
        np.testing.assert_array_equal(spec.far_end.samples, speech_like(0.5, seed=1).samples)

    def test_signal_keys_reach_the_generator(self):
        spec = scene_from_mapping({
            "scene.duration_s": "0.5", "far_end.seed": "7", "far_end.level": "0.3",
            "far_end.pause_weight": "0",
        })
        expected = speech_like(0.5, seed=7, level=0.3, pause_weight=0.0)
        np.testing.assert_array_equal(spec.far_end.samples, expected.samples)

    @pytest.mark.parametrize("extra, key", [
        ({"far_end.kind": "wav", "far_end.path": "far.wav", "far_end.level": "5"}, "level"),
        ({"far_end.kind": "wav", "far_end.path": "far.wav", "far_end.seed": "99"}, "seed"),
        ({"far_end.kind": "noise", "far_end.path": "far.wav"}, "path"),
        ({"far_end.path": "far.wav"}, "path"),
        ({"near_end.seed": "3"}, "seed"),
        ({"near_end.kind": "none", "near_end.level": "0.1"}, "level"),
    ])
    def test_signal_keys_the_kind_does_not_read_are_rejected(self, extra, key):
        prefix = next(iter(extra)).split(".")[0]
        with pytest.raises(ValueError, match=rf"{prefix}\.{key} does not apply"):
            scene_from_mapping({"scene.duration_s": "0.5", **extra})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="room.hieght"):
            scene_from_mapping({"room.hieght": "3"})
        with pytest.raises(ValueError, match="'room'"):
            scene_from_mapping({"room": "3"})

    def test_snr_none_token(self):
        spec = scene_from_mapping({"scene.duration_s": "0.5", "scene.snr_db": "none"})
        assert spec.snr_db is None

    def test_seed_override_controls_signal_seeds(self):
        base = {"scene.duration_s": "0.5"}
        a = scene_from_mapping(base, seed_override=3)
        b = scene_from_mapping({**base, "scene.seed": "3"})
        np.testing.assert_array_equal(a.far_end.samples, b.far_end.samples)

    def test_wav_far_end_with_base_dir(self, tmp_path, short_noise):
        write_wav(short_noise, tmp_path / "far.wav")
        spec = scene_from_mapping(
            {"far_end.kind": "wav", "far_end.path": "far.wav"}, base_dir=tmp_path
        )
        np.testing.assert_allclose(
            spec.far_end.samples, short_noise.samples, atol=1e-7
        )

    def test_near_end_section(self):
        spec = scene_from_mapping(
            {
                "scene.duration_s": "0.5",
                "near_end.kind": "speech_like",
                "scene.ser_db": "3",
            }
        )
        assert spec.near_end is not None
        assert spec.ser_db == 3.0


# A valid non-default value for every room and loudspeaker field: the config
# text and the field value it must set.
NON_DEFAULT = {
    "room.dimensions": ("7 5.5 3.1", (7.0, 5.5, 3.1)),
    "room.source_pos": ("2.5 3 1.3", (2.5, 3.0, 1.3)),
    "room.mic_pos": ("4 2.5 1", (4.0, 2.5, 1.0)),
    "room.t60": ("0.5", 0.5),
    "room.rir_length": ("2048", 2048),
    "nonlinearity.kind": ("power_series", "power_series"),
    "nonlinearity.clip_ratio": ("0.5", 0.5),
    "nonlinearity.coeffs": ("1 -0.2", (1.0, -0.2)),
}
README = Path(__file__).resolve().parent.parent / "README.md"


def _spec_fields(spec: SceneSpec) -> dict:
    """Every room and loudspeaker field of a scene spec, by config key."""
    return {f"{prefix}.{f.name}": getattr(obj, f.name)
            for prefix, obj in (("room", spec.room), ("nonlinearity", spec.nonlinearity))
            for f in fields(obj)}


class TestSceneLoaderKeys:
    BASE = {"scene.duration_s": "0.1", "far_end.kind": "noise"}

    def test_every_field_has_a_case(self):
        assert set(_spec_fields(scene_from_mapping(self.BASE))) == set(NON_DEFAULT)

    @pytest.mark.parametrize("key", sorted(NON_DEFAULT))
    def test_each_key_sets_exactly_its_field(self, key):
        text, value = NON_DEFAULT[key]
        default = _spec_fields(scene_from_mapping(self.BASE))
        assert value != default[key]
        spec = scene_from_mapping({**self.BASE, key: text})
        assert _spec_fields(spec) == {**default, key: value}

    @pytest.mark.parametrize("section, keys", [
        ("scene.", SCENE_KEYS),
        ("room.", [f.name for f in fields(RoomSpec)]),
        ("nonlinearity.", [f.name for f in fields(NonlinearitySpec)]),
        ("far_end.", SIGNAL_KEYS),
    ])
    def test_readme_row_lists_exactly_the_keys(self, section, keys):
        row = next(line for line in README.read_text().splitlines()
                   if line.startswith(f"| `{section}`"))
        listed = re.findall(r"`([a-z_0-9]+)`", re.sub(r"\([^)]*\)", "", row.split("|")[2]))
        assert sorted(listed) == sorted(keys)
