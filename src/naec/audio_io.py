"""Audio file I/O and experiment-result serialization.

Every pipeline entry point works on mono 16 kHz signals. WAV files outside
that contract are rejected outright; there is no silent resampling.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.io import wavfile

SAMPLE_RATE = 16000

_PCM16_SCALE = 32768.0


class AudioFormatError(ValueError):
    """Unsupported WAV encoding or channel layout."""


class SampleRateError(ValueError):
    """WAV sample rate differs from the 16 kHz pipeline rate."""


@dataclass
class AudioSignal:
    """Mono time-domain signal with nominal amplitude range [-1, 1]."""

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise AudioFormatError(
                f"expected a mono 1-D signal, got shape {self.samples.shape}"
            )
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("signal contains non-finite samples")
        self.sample_rate = int(self.sample_rate)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return len(self) / self.sample_rate


def read_wav(path) -> AudioSignal:
    """Read a mono 16 kHz WAV file (16-bit PCM or 32-bit float).

    Raises AudioFormatError for anything but mono int16/float32 content and
    SampleRateError when the file rate is not 16 kHz.
    """
    path = Path(path)
    rate, data = wavfile.read(path)
    if data.ndim != 1:
        raise AudioFormatError(f"{path}: expected mono, got {data.shape[1]} channels")
    if data.dtype == np.int16:
        samples = data / _PCM16_SCALE
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
    else:
        raise AudioFormatError(
            f"{path}: unsupported sample format {data.dtype}, "
            "expected 16-bit PCM or 32-bit float"
        )
    if rate != SAMPLE_RATE:
        raise SampleRateError(f"{path}: sample rate {rate} Hz, expected {SAMPLE_RATE}")
    return AudioSignal(samples, rate)


def write_wav(signal: AudioSignal, path, fmt: str = "float32") -> None:
    """Write ``signal`` as a mono WAV file.

    ``fmt="float32"`` keeps intermediate artifacts lossless, ``fmt="pcm16"``
    produces a listening copy; PCM samples outside [-1, 1] are clipped with a
    warning before quantization.
    """
    path = Path(path)
    x = signal.samples
    if fmt == "float32":
        wavfile.write(path, signal.sample_rate, x.astype(np.float32))
    elif fmt == "pcm16":
        if np.any(np.abs(x) > 1.0):
            warnings.warn(f"{path}: clipping samples outside [-1, 1] for 16-bit output")
            x = np.clip(x, -1.0, 1.0)
        q = np.clip(np.round(x * _PCM16_SCALE), -32768, 32767).astype(np.int16)
        wavfile.write(path, signal.sample_rate, q)
    else:
        raise ValueError(f"unknown WAV format {fmt!r}, expected 'float32' or 'pcm16'")


@dataclass
class ResultTable:
    """Rows of (time_s, value_db, series) ready for CSV export."""

    rows: list = field(default_factory=list)

    def append(self, time_s: float, value_db: float, series: str) -> None:
        self.rows.append((float(time_s), float(value_db), str(series)))

    @classmethod
    def from_curves(cls, curves) -> "ResultTable":
        """Build a table from a mapping of series label -> metric curve."""
        table = cls()
        for label, curve in curves.items():
            for t, v in zip(curve.times, curve.values):
                table.append(t, v, label)
        return table


def write_result_csv(table: ResultTable, path) -> None:
    """Write ``table`` grouped by series, times ascending within each series.

    Floats are written with ``repr`` so a generic CSV reader recovers the
    exact values.
    """
    grouped = {}  # series in order of first appearance
    for time_s, value_db, series in table.rows:
        grouped.setdefault(series, []).append((time_s, value_db))
    for series, pairs in grouped.items():
        times = [t for t, _ in pairs]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(f"series {series!r}: time_s must be strictly increasing")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "value_db", "series"])
        for series, pairs in grouped.items():
            for time_s, value_db in pairs:
                writer.writerow([repr(time_s), repr(value_db), series])
