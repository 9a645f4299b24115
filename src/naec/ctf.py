"""Convolutive-transfer-function observation stacking and constrained demixing.

Per time-frequency point (k, n) the observation vector has dimension
``P*L + 1`` and layout::

    [Y(k,n),
     X_1(k,n), X_1(k,n-1), ..., X_1(k,n-L+1),     # basis 1, lags 0..L-1
     ...,
     X_P(k,n), ..., X_P(k,n-L+1)]                 # basis P

where Y is the microphone spectrum and X_i the spectrum of the i-th
odd-power reference channel. Lags before the start of the signal are zero.

Only one demixing row ever adapts; its first element is pinned to 1 so the
row rewrites the microphone entry and leaves every reference entry alone.
A row is a plain complex array of length P*L + 1, and the rows of all bins
a (K, P*L + 1) array. Rows use the Hermitian convention: the near-end
estimate is ``w^H y``. The engine keeps one observation buffer for its
whole life, in planes (``auxiva.pack_observations``), and the buffer is
also its reference history: each frame the ``frame_in`` kernel of
``_kernels.c`` moves the lags in place and writes the new spectra. The
batch stacking of whole spectrograms, which the tests hold that buffer to,
and the full constrained demixing matrix are test oracles, in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CtfConfig:
    """Number of cross-frame taps L and expansion order P; L=1 is the MTF model."""

    frames_l: int = 3
    order_p: int = 3

    def __post_init__(self):
        if self.frames_l < 1:
            raise ValueError(f"frames_l must be >= 1, got {self.frames_l}")
        if self.order_p < 1:
            raise ValueError(f"order_p must be >= 1, got {self.order_p}")

    @property
    def dim(self) -> int:
        """Observation dimension P*L + 1."""
        return self.order_p * self.frames_l + 1


def passthrough_row(dim: int) -> np.ndarray:
    """Demixing row that leaves the microphone untouched (w_tail = 0)."""
    row = np.zeros(dim, dtype=np.complex128)
    row[0] = 1.0
    return row


def demix_frame(rows: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Near-end estimates E(k, n) = rows(k)^H obs(k) for every bin.

    ``rows`` and ``obs`` are both (K, P*L + 1).
    """
    return np.einsum("kd,kd->k", rows.conj(), obs)

