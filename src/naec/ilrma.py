"""ILRMA-style updates: a rank-1 NMF source model for the near-end plus row updates.

The near-end power spectrum is modeled per frame as the rank-1 product
r1(k) = t1(k) v1 of a per-bin basis t1 and one activation v1 (bases that
start equal stay equal under these one-frame updates, so more of them would
add nothing); the multiplicative Itakura-Saito updates

    t1(k) <- t1(k) * sqrt( |e1(k)|^2 v1 r1(k)^-2 / (v1 r1(k)^-1) ) = t1(k) * sqrt(|e1(k)|^2 / r1(k))
    v1    <- v1    * sqrt( sum_k |e1(k)|^2 t1(k) r1(k)^-2 / sum_k t1(k) r1(k)^-1 )

run online on the current frame's outputs, the basis update in its
collapsed form sqrt(|e1|^2 / r1) (a test pins it against the literal
formula). The variance r1 is refreshed after each update, every entry is
floored at ``NMF_FLOOR``, and the covariance recursion uses the per-bin
weight 1/r1(k) instead of the per-frame scalar of the AuxIVA variant:

    V1(k, n) = alpha * V1(k, n-1) + (1 - alpha) * (1 / r1(k, n)) * y y^H

The online optimizer is the AuxIVA core: ``IlrmaState`` subclasses
``AuxivaState`` and adds the NMF model, whose buffers its ``kernel`` points
at, so ``step`` runs ``ilrma_weight`` (``_kernels.c``) for the weight: the
pre-update demix, both updates, both refreshes and 1/r1, eight bins per
vector operation. The basis and the activation start at 1 and carry over
between frames; after a bin reset, non-finite basis entries and a
non-finite activation return to 1. A frame whose pre-update output is all
zero (digital silence) skips both updates and reuses the last 1/r1.

``update_bases`` and ``update_activations`` are the kernel's test oracle,
kept in the package because ``bench/spans.py`` wraps them by name.
They agree with it to rounding, not bytes: the kernel takes |e1|^2 as
re^2 + im^2 and r1^-2 as (1 / r1)^2 and sums num and den in a fixed order,
where numpy uses hypot, its own power function and BLAS. Every build of the
kernel gives the same bytes.
"""

from __future__ import annotations

import numpy as np

from .auxiva import AuxivaConfig, AuxivaState, aligned_zeros, padded_bins

NMF_FLOOR = 1e-12


class _Buffer:
    """A model attribute kept in a fixed buffer: reading gives ``view(model)``,
    assigning copies into it, so the buffer's address never changes."""

    def __init__(self, view):
        self.view = view

    def __get__(self, model, owner=None):
        return self if model is None else self.view(model)

    def __set__(self, model, value):
        self.view(model)[...] = value


class NmfSourceModel:
    """Basis t1 (K,), activation v1 (a 0-d array) and variance r1 (K,).

    The values live in buffers laid out for the compiled weight kernel:
    ``basis`` holds t1 and ``variance`` r1, each with the bins padded to
    whole blocks of ``LANES`` and ``ALIGN``-byte aligned, and ``activation``
    holds v1; ``t1``, ``v1`` and ``r1`` are views of them. Assigning to t1,
    v1 or r1 copies into the buffers, so their addresses stay valid for the
    model's life.
    """

    t1 = _Buffer(lambda m: m.basis[: m.n_bins])
    v1 = _Buffer(lambda m: m.activation)
    r1 = _Buffer(lambda m: m.variance[: m.n_bins])

    def __init__(self, n_bins: int):
        self.n_bins = n_bins
        self.basis = aligned_zeros(padded_bins(n_bins))
        self.basis[...] = 1.0
        self.variance = aligned_zeros(padded_bins(n_bins))
        self.variance[...] = 1.0
        self.activation = np.ones(())
        self.recompute_variance()

    def recompute_variance(self) -> None:
        """r1 = t1 v1, floored so divisions stay finite."""
        self.r1 = np.maximum(self.t1 * self.v1, NMF_FLOOR)


def update_bases(model: NmfSourceModel, e1: np.ndarray) -> None:
    """Multiplicative basis update from the current frame's outputs e1 (K,),
    with the factor in its collapsed form sqrt(|e1|^2 / r1)."""
    factor = np.sqrt(np.abs(np.asarray(e1)) ** 2 / model.r1)
    model.t1 = np.maximum(model.t1 * factor, NMF_FLOOR)
    model.recompute_variance()


def update_activations(model: NmfSourceModel, e1: np.ndarray) -> None:
    """Multiplicative activation update; the sums run over all K bins."""
    p = np.abs(np.asarray(e1)) ** 2
    num = model.t1 @ (p * model.r1 ** -2.0)
    den = model.t1 @ (model.r1 ** -1.0)
    model.v1 = np.maximum(model.v1 * np.sqrt(num / den), NMF_FLOOR)
    model.recompute_variance()


class IlrmaState(AuxivaState):
    """The AuxIVA covariance/rows state plus the NMF source model."""

    def __init__(self, n_bins: int, dim: int, config: AuxivaConfig = AuxivaConfig()):
        super().__init__(n_bins, dim, config)
        self.model = m = NmfSourceModel(n_bins)
        k = self.kernel
        k.floor = NMF_FLOOR
        k.basis, k.v1, k.r1 = (a.ctypes.data for a in (m.basis, m.activation, m.variance))

    def reset_bins(self, bins: np.ndarray) -> None:
        """Reset the bins' prior and row, and any non-finite NMF entries,
        the basis's padding lanes included."""
        super().reset_bins(bins)
        m = self.model
        for buffer in (m.basis, m.activation):
            buffer[~np.isfinite(buffer)] = 1.0
        m.recompute_variance()
