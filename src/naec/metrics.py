"""ERLE and true-ERLE curves over non-overlapping time blocks.

ERLE compares microphone energy against residual-output energy; true ERLE
uses the known echo and near-end components of a synthetic scene to measure
suppression without rewarding near-end damage. Inputs must already be
time-aligned (the pipeline compensates its own latency).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import AudioSignal

CEILING_DB = 80.0
SILENCE_FLOOR = 1e-12


@dataclass
class MetricCurve:
    """Per-block dB values with block-end timestamps."""

    block_len: float
    times: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def _block_energies(x: np.ndarray, block: int) -> np.ndarray:
    n_blocks = len(x) // block
    if n_blocks == 0:
        raise ValueError(f"signal shorter than one block of {block} samples")
    trimmed = x[: n_blocks * block]
    return np.sum(trimmed.reshape(n_blocks, block) ** 2, axis=1)


def _ratio_curve(num: AudioSignal, den: np.ndarray, block_len: float) -> MetricCurve:
    block = int(round(block_len * num.sample_rate))
    top = np.maximum(_block_energies(num.samples, block), SILENCE_FLOOR)
    bottom = _block_energies(den, block)
    values = np.where(
        bottom < SILENCE_FLOOR,
        CEILING_DB,
        10.0 * np.log10(top / np.maximum(bottom, SILENCE_FLOOR)),
    )
    times = (np.arange(len(values)) + 1) * block_len
    return MetricCurve(block_len=block_len, times=times, values=values)


def _check_aligned(*signals: AudioSignal) -> None:
    lengths = {len(s) for s in signals}
    if len(lengths) != 1:
        raise ValueError(f"signals must have equal lengths, got {sorted(lengths)}")
    rates = {s.sample_rate for s in signals}
    if len(rates) != 1:
        raise ValueError(f"signals must share a sample rate, got {sorted(rates)}")


def erle(y: AudioSignal, e: AudioSignal, block_len: float = 0.1) -> MetricCurve:
    """Echo return loss enhancement 10*log10(E[y^2] / E[e^2]) per block.

    Blocks whose residual energy falls below the silence floor report the
    80 dB curve ceiling; a microphone block below it counts as the floor, so
    an exactly silent microphone gives a finite value.
    """
    _check_aligned(y, e)
    return _ratio_curve(y, e.samples, block_len)


def terle(
    d: AudioSignal, e: AudioSignal, s: AudioSignal, block_len: float = 0.1
) -> MetricCurve:
    """True ERLE 10*log10(E[d^2] / E[(e - s)^2]) per block (double-talk measure)."""
    _check_aligned(d, e, s)
    return _ratio_curve(d, e.samples - s.samples, block_len)


def steady_state(curve: MetricCurve, tail_fraction: float = 0.3) -> float:
    """Mean of the last ``tail_fraction`` of blocks (at least one block)."""
    if len(curve) == 0:
        raise ValueError("empty curve")
    n_tail = max(1, int(round(tail_fraction * len(curve))))
    return float(np.mean(curve.values[-n_tail:]))
