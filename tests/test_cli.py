"""Command-line interface: subcommands, outputs, and exit codes."""

import json

import numpy as np
import pytest

from naec.audio_io import AudioSignal, read_wav, write_wav
from naec.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from naec.sim import white_noise

SCENE_CFG = """
scene.duration_s = 1.0
scene.seed = 9
scene.snr_db = 40
room.t60 = 0.25
room.rir_length = 2048
nonlinearity.kind = hard_clip
far_end.kind = speech_like
far_end.level = 0.3
"""


@pytest.fixture
def wav_pair(tmp_path):
    far = white_noise(0.7, seed=1, level=0.2)
    mic = AudioSignal(far.samples * 0.3 + white_noise(0.7, seed=2, level=0.02).samples)
    write_wav(far, tmp_path / "far.wav")
    write_wav(mic, tmp_path / "mic.wav")
    return tmp_path / "far.wav", tmp_path / "mic.wav"


def _write_cfg(tmp_path, text, name="scene.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestProcess:
    def test_happy_path(self, tmp_path, wav_pair, capsys):
        far, mic = wav_pair
        out = tmp_path / "out"
        assert main(["process", str(far), str(mic), "--out-dir", str(out)]) == EXIT_OK
        assert (out / "enhanced.wav").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["command"] == "process"
        assert summary["stats"]["n_frames"] > 0
        assert summary["stats"]["broken_bins"] == summary["stats"]["skipped_bins"] == 0
        printed = capsys.readouterr().out
        assert "frames processed:" in printed
        assert "skipped bins:" in printed
        assert "real-time factor:" in printed
        enhanced = read_wav(out / "enhanced.wav")
        assert len(enhanced) == len(read_wav(mic))

    def test_missing_input_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["process", str(tmp_path / "no.wav"), str(tmp_path / "no2.wav"),
             "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_USAGE
        assert "not found" in capsys.readouterr().err

    def test_length_mismatch_is_usage_error(self, tmp_path, capsys):
        write_wav(white_noise(0.5, 1), tmp_path / "a.wav")
        write_wav(white_noise(0.6, 1), tmp_path / "b.wav")
        code = main(
            ["process", str(tmp_path / "a.wav"), str(tmp_path / "b.wav"),
             "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_USAGE

    def test_rejects_scene_keys(self, tmp_path, wav_pair):
        far, mic = wav_pair
        cfg = _write_cfg(tmp_path, "room.t60 = 0.4\n")
        code = main(
            ["process", str(far), str(mic), "--config", str(cfg),
             "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_USAGE

    def test_rejects_seed(self, tmp_path, wav_pair):
        far, mic = wav_pair
        assert main(["process", str(far), str(mic), "--seed", "3",
                     "--out-dir", str(tmp_path)]) == EXIT_USAGE

    def test_engine_config_applies(self, tmp_path, wav_pair):
        far, mic = wav_pair
        cfg = _write_cfg(tmp_path, "engine.optimizer = ilrma\nengine.frames_l = 1\n")
        out = tmp_path / "out"
        assert main(
            ["process", str(far), str(mic), "--config", str(cfg),
             "--out-dir", str(out)]
        ) == EXIT_OK

    def test_alpha_one_is_usage_error(self, tmp_path, wav_pair, capsys):
        """At alpha = 1 no bin would ever update and the output would be the microphone."""
        far, mic = wav_pair
        cfg = _write_cfg(tmp_path, "engine.alpha = 1\n")
        out = tmp_path / "out"
        assert main(["process", str(far), str(mic), "--config", str(cfg),
                     "--out-dir", str(out)]) == EXIT_USAGE == 1
        assert "alpha must be in (0, 1)" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []


class TestSimulate:
    def test_requires_config(self, tmp_path):
        assert main(["simulate", "--out-dir", str(tmp_path)]) == EXIT_USAGE

    def test_happy_path(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, SCENE_CFG)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        for name in ("far.wav", "microphone.wav", "echo.wav", "enhanced.wav",
                     "metrics.csv", "summary.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["command"] == "simulate"
        assert summary["sweep"] is None
        assert "erle_db" in summary["results"][0]["steady_state"]
        assert "simulate:" in capsys.readouterr().out

    def test_double_talk_adds_terle(self, tmp_path):
        cfg = _write_cfg(
            tmp_path,
            SCENE_CFG + "near_end.kind = speech_like\nscene.ser_db = 0\n",
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        assert (out / "near.wav").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert "terle_db" in summary["results"][0]["steady_state"]
        csv_text = (out / "metrics.csv").read_text()
        assert "terle" in csv_text

    def test_sweep_produces_tagged_series(self, tmp_path):
        cfg = _write_cfg(
            tmp_path,
            SCENE_CFG + "sweep.key = engine.frames_l\nsweep.values = 1 3\n",
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        csv_text = (out / "metrics.csv").read_text()
        assert "erle[engine.frames_l=1]" in csv_text
        assert "erle[engine.frames_l=3]" in csv_text
        summary = json.loads((out / "summary.json").read_text())
        assert [r["grid"] for r in summary["results"]] == [
            {"engine.frames_l": "1"},
            {"engine.frames_l": "3"},
        ]
        assert not (out / "enhanced.wav").exists()  # per-point WAVs are skipped

    def test_sweep_key_without_values(self, tmp_path):
        cfg = _write_cfg(tmp_path, SCENE_CFG + "sweep.key = room.t60\n")
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) \
            == EXIT_USAGE

    def test_named_engine_sections_rejected(self, tmp_path):
        cfg = _write_cfg(tmp_path, SCENE_CFG + "engine.a.optimizer = auxiva\n")
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) \
            == EXIT_USAGE

    def test_unknown_top_prefix(self, tmp_path):
        for line in ("mixer.gain = 1\n", "room = 1\n", "engine = ilrma\n"):
            cfg = _write_cfg(tmp_path, SCENE_CFG + line)
            assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) \
                == EXIT_USAGE

    @pytest.mark.parametrize("sweep", [
        "sweep.key = rooms.t60\nsweep.values = 0.3 0.5",  # no section reads rooms.*
        "sweep.key = room.t60\nsweep.values = 0.3 5",  # t60 = 5 is out of range
        "sweep.key = room.t6\nsweep.values = 0.3",
        "sweep.key = room\nsweep.values = 0.3",
        "sweep.key = sweep.values\nsweep.values = 1",
    ])
    def test_invalid_sweep_stops_before_any_work(self, tmp_path, capsys, sweep):
        cfg = _write_cfg(tmp_path, SCENE_CFG + sweep + "\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().out == ""
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("lines, key", [
        ("scene.snr_db = nan", "snr_db"),
        ("scene.snr_db = -inf", "snr_db"),
        ("near_end.kind = speech_like\nscene.ser_db = nan", "ser_db"),
        ("scene.duration_s = 0", "scene.duration_s"),
        ("scene.duration_s = -1", "scene.duration_s"),
        ("far_end.kind = music_like\nfar_end.pause_weight = 0.1", "far_end.pause_weight"),
        ("far_end.kind = noise\nfar_end.pause_weight = 0.1", "far_end.pause_weight"),
        ("room.dimensions = nan 5 3", "dimensions"),
        ("scene.duration_s = 0.00001", "scene.duration_s"),
        ("scene.duration_s = 0.1\nscene.seed = 0", "pause_weight"),  # all pauses
        ("nonlinearity.kind = power_series\nnonlinearity.coeffs = 1 nan", "coeffs"),
        ("far_end.kind = wav\nfar_end.path = far.wav\nfar_end.seed = 99", "far_end.seed"),
        ("far_end.kind = wav\nfar_end.path = far.wav\nfar_end.level = 5", "far_end.level"),
        ("far_end.path = far.wav", "far_end.path"),
        ("near_end.seed = 3", "near_end.seed"),
        ("near_end.kind = none\nnear_end.level = 0.1", "near_end.level"),
    ])
    def test_outside_scene_value_is_usage_error(self, tmp_path, capsys, lines, key):
        cfg = _write_cfg(tmp_path, SCENE_CFG + lines + "\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert key in captured.err and captured.out == ""
        assert list(out.iterdir()) == []

    def test_non_cola_window_is_usage_error(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, SCENE_CFG + "engine.hop = 512\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_USAGE
        assert "window_len/hop" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_window_below_32_points_is_usage_error(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, SCENE_CFG + "engine.window_len = 16\nengine.hop = 4\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_USAGE == 1
        assert "window_len must be at least 32" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_diag_load_is_usage_error(self, tmp_path, capsys, value):
        cfg = _write_cfg(tmp_path, SCENE_CFG + f"engine.diag_load = {value}\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_USAGE == 1
        assert "diag_load must be positive and finite" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_invalid_sweep_value_stops_before_any_work(self, tmp_path, capsys):
        cfg = _write_cfg(
            tmp_path, SCENE_CFG + "sweep.key = engine.alpha\nsweep.values = 0.9 2\n"
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().out == ""  # no sweep point ran
        assert list(out.iterdir()) == []

    def test_synthesis_failure_is_runtime_error(self, tmp_path, capsys):
        # t60 at the spec minimum is physically unreachable in the default
        # room, which only surfaces once synthesis derives wall absorption
        cfg = _write_cfg(tmp_path, "scene.duration_s = 0.5\nroom.t60 = 0.1\n")
        code = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert code == EXIT_RUNTIME
        assert "error" in capsys.readouterr().err


class TestCompare:
    CFG = SCENE_CFG + (
        "engine.ctf.optimizer = auxiva\n"
        "engine.ctf.frames_l = 3\n"
        "engine.mtf.optimizer = auxiva\n"
        "engine.mtf.frames_l = 1\n"
    )

    def test_happy_path(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, self.CFG)
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        assert (out / "enhanced.ctf.wav").exists()
        assert (out / "enhanced.mtf.wav").exists()
        summary = json.loads((out / "summary.json").read_text())
        names = [e["name"] for e in summary["engines"]]
        assert names == ["ctf", "mtf"]
        csv_text = (out / "metrics.csv").read_text()
        assert "erle.ctf" in csv_text and "erle.mtf" in csv_text
        printed = capsys.readouterr().out
        assert "ctf:" in printed and "mtf:" in printed

    def test_requires_two_sections(self, tmp_path):
        cfg = _write_cfg(tmp_path, SCENE_CFG + "engine.solo.optimizer = auxiva\n")
        assert main(["compare", "--config", str(cfg), "--out-dir", str(tmp_path)]) \
            == EXIT_USAGE

    def test_rejects_plain_engine_keys(self, tmp_path):
        cfg = _write_cfg(tmp_path, self.CFG + "engine.optimizer = auxiva\n")
        assert main(["compare", "--config", str(cfg), "--out-dir", str(tmp_path)]) \
            == EXIT_USAGE

    def test_invalid_section_stops_before_any_work(self, tmp_path, capsys):
        cfg = _write_cfg(
            tmp_path, SCENE_CFG + "engine.a.optimizer = auxiva\nengine.b.alpha = 2\n"
        )
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_USAGE
        assert "alpha" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_rejects_sweep(self, tmp_path):
        cfg = _write_cfg(tmp_path, self.CFG + "sweep.key = room.t60\nsweep.values = 0.2\n")
        assert main(["compare", "--config", str(cfg), "--out-dir", str(tmp_path)]) \
            == EXIT_USAGE


class TestParsing:
    def test_unknown_subcommand(self):
        assert main(["transmogrify"]) == EXIT_USAGE

    def test_no_subcommand(self):
        assert main([]) == EXIT_USAGE

    def test_malformed_config_line(self, tmp_path):
        cfg = _write_cfg(tmp_path, "this is not a key value pair\n")
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) \
            == EXIT_USAGE

    def test_seed_override_changes_scene(self, tmp_path):
        cfg = _write_cfg(tmp_path, SCENE_CFG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out_a),
                     "--seed", "1"]) == EXIT_OK
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out_b),
                     "--seed", "2"]) == EXIT_OK
        a = read_wav(out_a / "microphone.wav")
        b = read_wav(out_b / "microphone.wav")
        assert not np.array_equal(a.samples, b.samples)
