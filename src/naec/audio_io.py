"""Audio file I/O and the experiment formats: WAV, flat config, result CSV.

Every pipeline entry point works on mono 16 kHz signals. WAV files outside
that contract are rejected outright; there is no silent resampling.

Configs are flat ``key = value`` text with dotted keys (``room.t60 = 0.3``),
read by ``parse_flat_config``; ``from_flat`` builds one config dataclass from
the keys under a prefix, so config loaders write no default of their own.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, fields
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


def parse_flat_config(text: str) -> dict:
    """Parse ``key = value`` lines with dotted keys; '#' starts a comment."""
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        mapping[key] = value.strip()
    return mapping


def check_keys(mapping, prefix: str, names) -> None:
    """Raise ValueError naming each key under ``prefix`` (or ``prefix`` alone) not in ``names``."""
    dot = prefix + "."
    unknown = sorted(k for k in mapping
                     if (k == prefix or k.startswith(dot)) and k[len(dot):] not in names)
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")


def from_flat(cls, mapping, prefix: str, others=()):
    """The frozen dataclass ``cls`` built from the ``prefix.<field>`` keys of ``mapping``.

    Each value is converted by the type of its field's default, a tuple
    from space-separated floats; an absent key keeps the default. A key
    under the prefix that is neither a field nor in ``others`` raises
    ValueError.
    """
    check_keys(mapping, prefix, {*(f.name for f in fields(cls)), *others})
    given = {f: mapping[f"{prefix}.{f.name}"] for f in fields(cls)
             if f"{prefix}.{f.name}" in mapping}
    return cls(**{f.name: tuple(float(v) for v in value.split())
                  if isinstance(f.default, tuple) else type(f.default)(value)
                  for f, value in given.items()})


def write_result_csv(curves, path) -> None:
    """Write ``{series: MetricCurve}`` as ``(time_s, value_db, series)`` rows.

    Series follow the mapping's order, each with its times strictly
    increasing. Floats are written with ``repr`` so a generic CSV reader
    recovers the exact values.
    """
    for series, curve in curves.items():
        if np.any(np.diff(curve.times) <= 0):
            raise ValueError(f"series {series!r}: time_s must be strictly increasing")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "value_db", "series"])
        for series, curve in curves.items():
            for time_s, value_db in zip(curve.times, curve.values):
                writer.writerow([repr(float(time_s)), repr(float(value_db)), series])
