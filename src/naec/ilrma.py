"""ILRMA-style updates: NMF source model for the near-end plus row updates.

The near-end power spectrogram is modeled per frame as a nonnegative
low-rank product r1(k) = sum_b t1(k, b) v1(b); the multiplicative updates

    t1(k, b) <- t1(k, b) * sqrt( |e1(k)|^2 v1(b) r1(k)^-2 / (v1(b) r1(k)^-1) )
    v1(b)    <- v1(b)    * sqrt( sum_k |e1(k)|^2 t1(k, b) r1(k)^-2
                                 / sum_k t1(k, b) r1(k)^-1 )

are kept in their literal form (the bases factor algebraically collapses to
sqrt(|e1|^2 / r1); tests pin that equivalence). The variance r1 is refreshed
after every bases/activation update, every entry is floored at ``nmf_floor``,
and the covariance recursion uses the per-bin weight 1/r1(k) instead of the
per-frame scalar of the AuxIVA variant:

    V1(k, n) = alpha * V1(k, n-1) + (1 - alpha) * (1 / r1(k, n)) * y y^H

The online optimizer is the AuxIVA core: ``IlrmaState`` subclasses
``AuxivaState``, adds the NMF model and overrides only ``frame_weight``, so
``process_frame`` here is ``auxiva.process_frame``. Online activations
carry over between frames (frame 0 starts uniform at 1/B); bases start at
the constant 1. The offline mode keeps a full (B, N) activation matrix and
uses batch sums, serving as the oracle for the online updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .auxiva import AuxivaState, solve_demixing_rows
from .auxiva import process_frame as process_frame  # the shared core, re-exported
from .ctf import demix_frame, passthrough_row


@dataclass(frozen=True)
class IlrmaConfig:
    alpha: float = 0.99
    bases_b: int = 10
    diag_load: float = 1e-6
    nmf_floor: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.bases_b < 1:
            raise ValueError(f"bases_b must be >= 1, got {self.bases_b}")
        if self.diag_load <= 0.0 or self.nmf_floor <= 0.0:
            raise ValueError("diag_load and nmf_floor must be positive")


class NmfSourceModel:
    """Bases t1 (K x B), current-frame activations v1 (B,) and variance r1 (K,)."""

    def __init__(self, n_bins: int, bases_b: int, floor: float = 1e-12):
        self.floor = floor
        self.t1 = np.ones((n_bins, bases_b))
        self.v1 = np.full(bases_b, 1.0 / bases_b)
        self.r1 = np.empty(n_bins)
        self.recompute_variance()

    def recompute_variance(self) -> None:
        """r1 = t1 @ v1, floored so divisions stay finite."""
        self.r1 = np.maximum(self.t1 @ self.v1, self.floor)


def update_bases(model: NmfSourceModel, e1: np.ndarray) -> None:
    """Multiplicative bases update from the current frame's outputs e1 (K,)."""
    p = np.abs(np.asarray(e1)) ** 2
    num = p[:, np.newaxis] * model.v1[np.newaxis, :] * (model.r1 ** -2.0)[:, np.newaxis]
    den = model.v1[np.newaxis, :] * (model.r1 ** -1.0)[:, np.newaxis]
    model.t1 = np.maximum(model.t1 * np.sqrt(num / den), model.floor)
    model.recompute_variance()


def update_activations(model: NmfSourceModel, e1: np.ndarray) -> None:
    """Multiplicative activation update; the cross-bin sums run over all K."""
    p = np.abs(np.asarray(e1)) ** 2
    num = model.t1.T @ (p * model.r1 ** -2.0)
    den = model.t1.T @ (model.r1 ** -1.0)
    model.v1 = np.maximum(model.v1 * np.sqrt(num / den), model.floor)
    model.recompute_variance()


class IlrmaState(AuxivaState):
    """The AuxIVA covariance/rows state plus the NMF source model."""

    def __init__(self, n_bins: int, dim: int, config: IlrmaConfig = IlrmaConfig()):
        super().__init__(n_bins, dim, config)
        self.model = NmfSourceModel(n_bins, config.bases_b, config.nmf_floor)

    def frame_weight(self, obs: np.ndarray) -> np.ndarray:
        """Per-bin 1/r1(k) after NMF bases then activations updates on E with the previous rows."""
        e_pre = demix_frame(self.rows, obs)
        update_bases(self.model, e_pre)
        update_activations(self.model, e_pre)
        return 1.0 / self.model.r1


@dataclass
class OfflineIlrmaResult:
    """Converged rows plus the batch NMF model (activations are B x N here)."""

    rows: np.ndarray
    t1: np.ndarray
    v1: np.ndarray
    r1: np.ndarray


def nmf_batch_sweep(
    t1: np.ndarray, v1: np.ndarray, power: np.ndarray, floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One batch sweep of the bases/activations updates against |e1|^2.

    ``power`` is (K, N), ``t1`` (K, B), ``v1`` (B, N). Returns refreshed
    (t1, v1, r1); the variance is recomputed after each half-update.
    """
    r1 = np.maximum(t1 @ v1, floor)
    num = (power * r1 ** -2.0) @ v1.T
    den = (r1 ** -1.0) @ v1.T
    t1 = np.maximum(t1 * np.sqrt(num / den), floor)
    r1 = np.maximum(t1 @ v1, floor)
    num = t1.T @ (power * r1 ** -2.0)
    den = t1.T @ (r1 ** -1.0)
    v1 = np.maximum(v1 * np.sqrt(num / den), floor)
    r1 = np.maximum(t1 @ v1, floor)
    return t1, v1, r1


def itakura_saito(power: np.ndarray, variance: np.ndarray) -> float:
    """Itakura-Saito divergence sum(p/r - log(p/r) - 1) between power and model."""
    ratio = np.asarray(power) / np.asarray(variance)
    return float(np.sum(ratio - np.log(ratio) - 1.0))


def offline_batch(
    observations: np.ndarray,
    config: IlrmaConfig = IlrmaConfig(),
    iterations: int = 20,
    seed: int | None = None,
) -> OfflineIlrmaResult:
    """Batch alternation of NMF sweeps and row solves over (N, K, D) observations.

    With ``seed`` given, bases and activations start from random positive
    values (the usual batch NMF initialization); otherwise both start
    uniform, matching the online mode.
    """
    observations = np.asarray(observations, dtype=np.complex128)
    if observations.ndim != 3:
        raise ValueError(f"expected (N, K, D) observations, got {observations.shape}")
    n_frames, n_bins, dim = observations.shape
    b = config.bases_b
    if seed is None:
        t1 = np.ones((n_bins, b))
        v1 = np.full((b, n_frames), 1.0 / b)
    else:
        rng = np.random.default_rng(seed)
        t1 = rng.uniform(0.5, 1.5, size=(n_bins, b))
        v1 = rng.uniform(0.5, 1.5, size=(b, n_frames))
    rows = np.tile(passthrough_row(dim), (n_bins, 1))
    r1 = np.maximum(t1 @ v1, config.nmf_floor)
    for _ in range(iterations):
        e = np.einsum("kd,nkd->kn", rows.conj(), observations)
        power = np.abs(e) ** 2
        t1, v1, r1 = nmf_batch_sweep(t1, v1, power, config.nmf_floor)
        cov = (
            np.einsum("kn,nkd,nke->kde", 1.0 / r1, observations, observations.conj())
            / n_frames
        )
        cov = 0.5 * (cov + cov.conj().transpose(0, 2, 1))
        rows, _ = solve_demixing_rows(cov, rows, config.diag_load)
    return OfflineIlrmaResult(rows=rows, t1=t1, v1=v1, r1=r1)
