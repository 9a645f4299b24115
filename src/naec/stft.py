"""Short-time Fourier analysis and weighted overlap-add synthesis.

Analysis applies a plain windowed DFT per frame (frame ``n`` covers input
samples ``[n*hop, n*hop + window_len)``), so spectrogram values match the
windowed-DFT quantities used by the frequency-domain echo model. All window
normalization happens at synthesis time. ``StftConfig`` admits only hops
that divide the window at least four times, so every sample away from the
edges lies under ``window_len/hop`` frames and the squared periodic Hann
window overlap-adds to a constant: the hop-long ``ola_norm`` is flat.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio_io import AudioSignal

_ENVELOPE_FLOOR = 1e-12


class ColaError(ValueError):
    """Window/hop pair whose squared window does not overlap-add to a constant."""


@dataclass(frozen=True)
class StftConfig:
    """Analysis/synthesis parameters: periodic Hann window, 1024 taps, 75% overlap."""

    window_len: int = 1024
    hop: int = 256

    def __post_init__(self):
        if self.window_len <= 0 or self.window_len & (self.window_len - 1):
            raise ValueError(f"window_len must be a positive power of two, got {self.window_len}")
        if self.hop <= 0 or self.window_len % self.hop:
            raise ValueError(f"hop must divide window_len={self.window_len}, got {self.hop}")
        if self.window_len // self.hop < 4:
            raise ColaError(f"window_len/hop must be >= 4, got {self.window_len}/{self.hop}")

    @property
    def fft_len(self) -> int:
        return self.window_len

    @property
    def n_bins(self) -> int:
        return self.fft_len // 2 + 1

    def window_samples(self) -> np.ndarray:
        return _hann_periodic(self.window_len)


@lru_cache(maxsize=8)
def _hann_periodic(n: int) -> np.ndarray:
    # periodic variant; the symmetric one breaks exact overlap-add
    w = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))
    w.flags.writeable = False
    return w


@dataclass
class Spectrogram:
    """One-sided complex spectrogram, shape (n_bins, n_frames)."""

    data: np.ndarray
    config: StftConfig

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 2 or self.data.shape[0] != self.config.n_bins:
            raise ValueError(
                f"expected shape ({self.config.n_bins}, n_frames), got {self.data.shape}"
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("spectrogram contains non-finite entries")

    @property
    def n_bins(self) -> int:
        return self.data.shape[0]

    @property
    def n_frames(self) -> int:
        return self.data.shape[1]


def n_frames_for(num_samples: int, config: StftConfig) -> int:
    """Number of analysis frames covering ``num_samples`` input samples."""
    if num_samples <= config.window_len:
        return 1
    return 1 + int(np.ceil((num_samples - config.window_len) / config.hop))


def analyze(signal: AudioSignal, config: StftConfig = StftConfig()) -> Spectrogram:
    """Windowed one-sided DFT of ``signal``; short input is zero-padded."""
    x = signal.samples
    n = n_frames_for(len(x), config)
    padded_len = (n - 1) * config.hop + config.window_len
    if padded_len > len(x):
        x = np.concatenate([x, np.zeros(padded_len - len(x))])
    frames = np.lib.stride_tricks.sliding_window_view(x, config.window_len)[:: config.hop]
    data = np.fft.rfft(frames * config.window_samples(), axis=1)
    return Spectrogram(data.T, config)


def ola_norm(config: StftConfig) -> np.ndarray:
    """Squared-window overlap sum at each offset within a hop, shape (hop,).

    Summed oldest frame first, as ``synthesize`` sums its envelope, so both
    divide by the same bits.
    """
    w2, hop = config.window_samples() ** 2, config.hop
    norm = np.zeros(hop)
    for m in reversed(range(config.window_len // hop)):
        norm += w2[m * hop : (m + 1) * hop]
    return norm


def synthesize(spec: Spectrogram) -> AudioSignal:
    """Weighted overlap-add inverse; output length (n_frames-1)*hop + window_len."""
    config = spec.config
    w = config.window_samples()
    hop, wl = config.hop, config.window_len
    n = spec.n_frames
    out_len = (n - 1) * hop + wl
    acc = np.zeros(out_len)
    env = np.zeros(out_len)
    frames = np.fft.irfft(spec.data.T, n=config.fft_len, axis=1)
    w2 = w * w
    for m in range(n):
        acc[m * hop : m * hop + wl] += w * frames[m]
        env[m * hop : m * hop + wl] += w2
    out = np.where(env > _ENVELOPE_FLOOR, acc / np.maximum(env, _ENVELOPE_FLOOR), 0.0)
    return AudioSignal(out)
