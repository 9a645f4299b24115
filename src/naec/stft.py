"""Short-time Fourier settings: the periodic Hann window and its overlap-add norm.

The engine (``pipeline``) frames its input itself: frame ``n`` covers input
samples ``[n*hop, n*hop + window_len)``, windowed and transformed by a plain
one-sided DFT, and synthesis windows again and overlap-adds. All window
normalization happens at synthesis time. ``StftConfig`` admits only
power-of-two windows of at least 32 points, the smallest real FFT of the
compiled kernels, and hops that divide the window at least four times, so
every sample away from the edges lies under ``window_len/hop`` frames and
the squared periodic Hann window overlap-adds to a constant: the hop-long
``ola_norm`` is flat. The batch analysis and synthesis the tests hold the
engine to are in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


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
        if self.window_len < 32:  # the smallest real FFT the kernels run
            raise ValueError(f"window_len must be at least 32, got {self.window_len}")

    @property
    def n_bins(self) -> int:
        return self.window_len // 2 + 1

    def window_samples(self) -> np.ndarray:
        return _hann_periodic(self.window_len)


@lru_cache(maxsize=8)
def _hann_periodic(n: int) -> np.ndarray:
    # periodic variant; the symmetric one breaks exact overlap-add
    w = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))
    w.flags.writeable = False
    return w


def ola_norm(config: StftConfig) -> np.ndarray:
    """Squared-window overlap sum at each offset within a hop, shape (hop,).

    Summed oldest frame first, as the batch synthesis of ``tests/oracles.py``
    sums its envelope, so both divide by the same bits.
    """
    w2, hop = config.window_samples() ** 2, config.hop
    norm = np.zeros(hop)
    for m in reversed(range(config.window_len // hop)):
        norm += w2[m * hop : (m + 1) * hop]
    return norm

