"""ILRMA-style updates: NMF source model for the near-end plus row updates.

The near-end power spectrogram is modeled per frame as a nonnegative
low-rank product r1(k) = sum_b t1(k, b) v1(b); the multiplicative updates

    t1(k, b) <- t1(k, b) * sqrt( |e1(k)|^2 v1(b) r1(k)^-2 / (v1(b) r1(k)^-1) )
    v1(b)    <- v1(b)    * sqrt( sum_k |e1(k)|^2 t1(k, b) r1(k)^-2
                                 / sum_k t1(k, b) r1(k)^-1 )

run online with the bases factor in its collapsed form sqrt(|e1|^2 / r1)
(a test pins it against the literal formula). The variance r1 is refreshed
after every bases/activation update, every entry is floored at ``NMF_FLOOR``,
and the covariance recursion uses the per-bin weight 1/r1(k) instead of the
per-frame scalar of the AuxIVA variant:

    V1(k, n) = alpha * V1(k, n-1) + (1 - alpha) * (1 / r1(k, n)) * y y^H

The online optimizer is the AuxIVA core: ``IlrmaState`` subclasses
``AuxivaState``, adds an NMF model of ``AuxivaConfig.bases_b`` bases and
overrides only ``frame_weight``; ``auxiva.process_frame`` drives it. Online
activations carry over between frames (frame 0 starts uniform at 1/B);
bases start at the constant 1; after a covariance overflow, non-finite
bases rows and activations return to these values. A frame whose
pre-update output is all zero (digital silence) skips both updates and
reuses the last 1/r1. ``nmf_batch_sweep`` runs both updates with batch
sums over a full (B, N) activation matrix; it is the oracle for the online
updates.
"""

from __future__ import annotations

import numpy as np

from .auxiva import AuxivaConfig, AuxivaState
from .ctf import demix_frame

NMF_FLOOR = 1e-12


class NmfSourceModel:
    """Bases t1 (K x B), current-frame activations v1 (B,) and variance r1 (K,)."""

    def __init__(self, n_bins: int, bases_b: int, floor: float = NMF_FLOOR):
        self.floor = floor
        self.t1 = np.ones((n_bins, bases_b))
        self.v1 = np.full(bases_b, 1.0 / bases_b)
        self.r1 = np.empty(n_bins)
        self.recompute_variance()

    def recompute_variance(self) -> None:
        """r1 = t1 @ v1, floored so divisions stay finite."""
        self.r1 = np.maximum(self.t1 @ self.v1, self.floor)


def update_bases(model: NmfSourceModel, e1: np.ndarray) -> None:
    """Multiplicative bases update from the current frame's outputs e1 (K,),
    with the factor in its collapsed form sqrt(|e1|^2 / r1), shared by all bases."""
    factor = np.sqrt(np.abs(np.asarray(e1)) ** 2 / model.r1)
    model.t1 = np.maximum(model.t1 * factor[:, np.newaxis], model.floor)
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

    def __init__(self, n_bins: int, dim: int, config: AuxivaConfig = AuxivaConfig()):
        super().__init__(n_bins, dim, config)
        self.model = NmfSourceModel(n_bins, config.bases_b)

    def frame_weight(self, obs: np.ndarray) -> np.ndarray:
        """Per-bin 1/r1(k) after NMF bases then activations updates on E with the previous rows."""
        e_pre = demix_frame(self.rows, obs)
        if e_pre.any():  # an all-zero frame would floor every t1 and v1
            update_bases(self.model, e_pre)
            update_activations(self.model, e_pre)
        return 1.0 / self.model.r1

    def reset_bins(self, bins: np.ndarray) -> None:
        """Reset the bins' prior and row, and any non-finite NMF entries."""
        super().reset_bins(bins)
        m = self.model
        m.t1[~np.isfinite(m.t1).all(axis=1)] = 1.0
        m.v1[~np.isfinite(m.v1)] = 1.0 / m.v1.size
        m.recompute_variance()


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
