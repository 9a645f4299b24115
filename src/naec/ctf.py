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
estimate is ``w^H y``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .stft import Spectrogram


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


def _check_shapes(mic: Spectrogram, refs: Sequence[Spectrogram], config: CtfConfig):
    if len(refs) != config.order_p:
        raise ValueError(f"expected {config.order_p} reference spectrograms, got {len(refs)}")
    for r in refs:
        if r.data.shape != mic.data.shape:
            raise ValueError(
                f"reference shape {r.data.shape} does not match microphone {mic.data.shape}"
            )


def build_observation(
    mic: Spectrogram,
    refs: Sequence[Spectrogram],
    k: int,
    n: int,
    config: CtfConfig,
) -> np.ndarray:
    """Stacked observation vector y(k, n) of dimension P*L + 1."""
    _check_shapes(mic, refs, config)
    y = np.zeros(config.dim, dtype=np.complex128)
    y[0] = mic.data[k, n]
    pos = 1
    for ref in refs:
        for lag in range(config.frames_l):
            if n - lag >= 0:
                y[pos] = ref.data[k, n - lag]
            pos += 1
    return y


def stack_observations(mic_frame: np.ndarray, ref_history: np.ndarray) -> np.ndarray:
    """Observations of frame n in the layout above, shape (K, P*L + 1).

    ``mic_frame`` is Y(., n), shape (K,); ``ref_history[i, lag]`` is
    X_{i+1}(., n - lag), shape (P, L, K).
    """
    n_refs, n_lags, n_bins = ref_history.shape
    obs = np.empty((n_bins, n_refs * n_lags + 1), dtype=np.complex128)
    obs[:, 0] = mic_frame
    obs[:, 1:] = ref_history.reshape(-1, n_bins).T
    return obs


def frame_observations(
    mic: Spectrogram,
    refs: Sequence[Spectrogram],
    n: int,
    config: CtfConfig,
) -> np.ndarray:
    """Observation vectors for every bin of frame n, shape (K, P*L + 1)."""
    _check_shapes(mic, refs, config)
    history = np.zeros((config.order_p, config.frames_l, mic.n_bins), dtype=np.complex128)
    for i, ref in enumerate(refs):
        for lag in range(min(config.frames_l, n + 1)):
            history[i, lag] = ref.data[:, n - lag]
    return stack_observations(mic.data[:, n], history)


def batch_observations(
    mic: Spectrogram,
    refs: Sequence[Spectrogram],
    config: CtfConfig,
) -> np.ndarray:
    """Observations for every frame, shape (N, K, P*L + 1)."""
    return np.stack(
        [frame_observations(mic, refs, n, config) for n in range(mic.n_frames)]
    )


def demix_frame(rows: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Near-end estimates E(k, n) = rows(k)^H obs(k) for every bin.

    ``rows`` and ``obs`` are both (K, P*L + 1).
    """
    return np.einsum("kd,kd->k", rows.conj(), obs)


def constrained_matrix(row: np.ndarray) -> np.ndarray:
    """Full (P*L+1)-square demixing matrix: first row w^H, rest [0 | I].

    ``row`` is the whole 1-D row w, whose first element must be exactly 1.
    """
    row = np.asarray(row, dtype=np.complex128)
    if row.ndim != 1 or row[0] != 1.0:
        raise ValueError(f"expected a 1-D row with first element exactly 1, got {row}")
    mat = np.eye(len(row), dtype=np.complex128)
    mat[0, :] = row.conj()
    return mat
