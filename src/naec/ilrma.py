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
overrides the frame weight; ``auxiva.process_frame`` drives it. Online
activations carry over between frames (frame 0 starts uniform at 1/B);
bases start at the constant 1; after a bin reset, non-finite
bases rows and activations return to these values. A frame whose
pre-update output is all zero (digital silence) skips both updates and
reuses the last 1/r1.

With the compiled kernels loaded, ``step`` runs ``ilrma_weight``
(``_kernels.c``) for a state whose ``kernel`` has ``n_bases`` > 0: the
pre-update demix, both updates, both refreshes and 1/r1, eight bins per
vector operation. Without them, ``frame_weight`` runs
``ctf.demix_frame``, ``update_bases`` and
``update_activations``, which are also the kernel's test oracle. The two
paths agree to rounding, not bytes: the kernel takes |e1|^2 as re^2 + im^2
and r1^-2 as (1 / r1)^2 and sums t1 v1 and the activation sums in a fixed
order, where numpy uses hypot, its own power function and BLAS. Every build
of the kernel gives the same bytes.
"""

from __future__ import annotations

import numpy as np

from .auxiva import AuxivaConfig, AuxivaState, aligned_zeros, padded_bins
from .ctf import demix_frame

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
    """Bases t1 (K x B), current-frame activations v1 (B,) and variance r1 (K,).

    The values live in buffers laid out for the compiled weight kernel:
    ``bases`` holds t1 basis-major with the bins padded to whole blocks of
    ``LANES``, (B, ceil(K / LANES) * LANES), and ``variance`` holds r1 padded
    the same way, both ``ALIGN``-byte aligned; ``t1`` and ``r1`` are views
    of them. Assigning to t1, v1 or r1 copies into the buffers, so their
    addresses stay valid for the model's life.
    """

    t1 = _Buffer(lambda m: m.bases[:, : m.n_bins].T)
    v1 = _Buffer(lambda m: m.activations)
    r1 = _Buffer(lambda m: m.variance[: m.n_bins])

    def __init__(self, n_bins: int, bases_b: int):
        self.n_bins = n_bins
        self.bases = aligned_zeros((bases_b, padded_bins(n_bins)))
        self.bases[...] = 1.0
        self.variance = aligned_zeros(padded_bins(n_bins))
        self.variance[...] = 1.0
        self.activations = np.full(bases_b, 1.0 / bases_b)
        self.recompute_variance()

    def recompute_variance(self) -> None:
        """r1 = t1 @ v1, floored so divisions stay finite."""
        self.r1 = np.maximum(self.t1 @ self.v1, NMF_FLOOR)


def update_bases(model: NmfSourceModel, e1: np.ndarray) -> None:
    """Multiplicative bases update from the current frame's outputs e1 (K,),
    with the factor in its collapsed form sqrt(|e1|^2 / r1), shared by all bases."""
    factor = np.sqrt(np.abs(np.asarray(e1)) ** 2 / model.r1)
    model.t1 = np.maximum(model.t1 * factor[:, np.newaxis], NMF_FLOOR)
    model.recompute_variance()


def update_activations(model: NmfSourceModel, e1: np.ndarray) -> None:
    """Multiplicative activation update; the cross-bin sums run over all K."""
    p = np.abs(np.asarray(e1)) ** 2
    num = model.t1.T @ (p * model.r1 ** -2.0)
    den = model.t1.T @ (model.r1 ** -1.0)
    model.v1 = np.maximum(model.v1 * np.sqrt(num / den), NMF_FLOOR)
    model.recompute_variance()


class IlrmaState(AuxivaState):
    """The AuxIVA covariance/rows state plus the NMF source model."""

    def __init__(self, n_bins: int, dim: int, config: AuxivaConfig = AuxivaConfig()):
        super().__init__(n_bins, dim, config)
        self.model = m = NmfSourceModel(n_bins, config.bases_b)
        k = self.kernel
        k.n_bases, k.floor = config.bases_b, NMF_FLOOR
        k.bases, k.v1, k.r1 = (a.ctypes.data for a in (m.bases, m.activations, m.variance))

    def frame_weight(self, obs: np.ndarray) -> np.ndarray:
        """Per-bin 1/r1(k) after NMF bases then activations updates on E with the previous rows."""
        e_pre = demix_frame(self.rows, obs)
        if e_pre.any():  # an all-zero frame would floor every t1 and v1
            update_bases(self.model, e_pre)
            update_activations(self.model, e_pre)
        return 1.0 / self.model.r1

    def reset_bins(self, bins: np.ndarray) -> None:
        """Reset the bins' prior and row, and any non-finite NMF entries,
        the bases' padding lanes included."""
        super().reset_bins(bins)
        m = self.model
        m.bases[:, ~np.isfinite(m.bases).all(axis=0)] = 1.0
        m.v1[~np.isfinite(m.v1)] = 1.0 / m.v1.size
        m.recompute_variance()

