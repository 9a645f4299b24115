"""WAV round trips, validation, and the metrics CSV writer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from naec.audio_io import (
    SAMPLE_RATE,
    AudioFormatError,
    AudioSignal,
    SampleRateError,
    read_wav,
    write_result_csv,
    write_wav,
)
from naec.metrics import MetricCurve


def test_signal_basics():
    s = AudioSignal(np.zeros(160))
    assert len(s) == 160
    assert s.sample_rate == SAMPLE_RATE
    assert s.duration == pytest.approx(0.01)
    assert s.samples.dtype == np.float64


def test_signal_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        AudioSignal(np.zeros((2, 10)))
    with pytest.raises(ValueError):
        AudioSignal(np.array([0.0, np.nan]))
    with pytest.raises(ValueError):
        AudioSignal(np.array([np.inf]))


def test_float32_round_trip(tmp_path, short_noise):
    path = tmp_path / "x.wav"
    write_wav(short_noise, path)
    back = read_wav(path)
    assert len(back) == len(short_noise)
    assert np.max(np.abs(back.samples - short_noise.samples)) <= 1e-7


def test_pcm16_round_trip(tmp_path, short_noise):
    path = tmp_path / "x.wav"
    write_wav(short_noise, path, fmt="pcm16")
    back = read_wav(path)
    assert np.max(np.abs(back.samples - short_noise.samples)) <= 2.0**-15


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-0.999, max_value=0.999, allow_nan=False),
        min_size=1,
        max_size=64,
    )
)
def test_pcm16_quantization_error_bounded(tmp_path_factory, samples):
    path = tmp_path_factory.mktemp("wav") / "q.wav"
    sig = AudioSignal(np.asarray(samples))
    write_wav(sig, path, fmt="pcm16")
    back = read_wav(path)
    assert np.max(np.abs(back.samples - sig.samples)) <= 2.0**-15


def test_read_rejects_stereo(tmp_path):
    path = tmp_path / "stereo.wav"
    wavfile.write(path, SAMPLE_RATE, np.zeros((100, 2), dtype=np.int16))
    with pytest.raises(AudioFormatError):
        read_wav(path)


def test_read_rejects_wrong_rate(tmp_path):
    path = tmp_path / "slow.wav"
    wavfile.write(path, 8000, np.zeros(100, dtype=np.int16))
    with pytest.raises(SampleRateError):
        read_wav(path)


def test_read_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_wav(tmp_path / "nope.wav")


def test_write_clips_out_of_range(tmp_path):
    loud = AudioSignal(np.array([0.0, 2.0, -2.0]))
    path = tmp_path / "loud.wav"
    with pytest.warns(UserWarning):
        write_wav(loud, path, fmt="pcm16")
    back = read_wav(path)
    assert np.max(np.abs(back.samples)) <= 1.0


def test_result_table_from_curves_orders_series(tmp_path):
    c1 = MetricCurve(0.1, np.array([0.1, 0.2]), np.array([1.0, 2.0]))
    c2 = MetricCurve(0.1, np.array([0.1]), np.array([3.0]))
    path = tmp_path / "m.csv"
    write_result_csv({"b": c1, "a": c2}, path)
    series = [line.split(",")[2] for line in path.read_text().splitlines()[1:]]
    assert series == ["b", "b", "a"]


def test_csv_format(tmp_path):
    curves = {"erle": MetricCurve(0.1, np.array([0.1, 0.2]), np.array([1.5, -3.25]))}
    path = tmp_path / "m.csv"
    write_result_csv(curves, path)
    assert path.read_text().splitlines() == [
        "time_s,value_db,series",  # exact float reprs
        "0.1,1.5,erle",
        "0.2,-3.25,erle",
    ]
    for times in ([0.1, 0.1], [0.2, 0.1]):
        bad = MetricCurve(0.1, np.array(times), np.zeros(2))
        with pytest.raises(ValueError, match="strictly increasing"):
            write_result_csv({"erle": bad}, path)
