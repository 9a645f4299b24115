"""Auxiliary-function (AuxIVA-style) updates for the constrained demixing row.

Online mode keeps, per frequency bin, an exponentially weighted covariance
of the stacked observation vector

    V1(k, n) = alpha * V1(k, n-1) + (1 - alpha) * Phi(r1(n)) * y(k, n) y(k, n)^H

with a single per-frame weight Phi(r1) = r1**(beta - 2) driven by the
cross-band norm r1(n) = sqrt(sum_k |w(k)^H y(k, n)|^2). The row update is
the first column of the inverse covariance, renormalized so its leading
element is exactly 1:

    w(k, n) <- V1(k, n)^{-1} e1,   w(k, n) <- w(k, n) / w[0]

The covariance recursion is stored as written; diagonal loading
(relative to the trace) is applied only at solve time, which keeps the row
invariant under any global rescaling of a bin's V1. A bin whose solve still
fails keeps its previous row and is counted in ``skipped_bins``. A bin whose
covariance overflows (a huge finite input makes y y^H infinite) restarts
from the initial prior and passthrough row instead of freezing for good.

``process_frame`` is the online core of both optimizers. The recursion's
weight is ``state.frame_weight(obs)``: Phi(r1) here, the per-bin 1/r1(k) of
the NMF model in ``IlrmaState``, a subclass that overrides only that method.

Offline mode replaces the recursion by the batch mean over all frames and
serves as the convergence oracle for the online mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctf import demix_frame, passthrough_row

COV_INIT_SCALE = 1e-3
R_FLOOR = 1e-8  # floor on r1, so Phi(r1) stays finite on a silent frame


@dataclass(frozen=True)
class AuxivaConfig:
    alpha: float = 0.99
    beta: float = 0.4
    diag_load: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 < self.beta < 2.0:
            raise ValueError(f"beta must be in (0, 2), got {self.beta}")
        if self.diag_load <= 0.0:
            raise ValueError(f"diag_load must be positive, got {self.diag_load}")


class AuxivaState:
    """Per-bin covariance and demixing row plus global frame/skip counters."""

    def __init__(self, n_bins: int, dim: int, config: AuxivaConfig = AuxivaConfig()):
        self.config = config
        self.n_bins = n_bins
        self.dim = dim
        self.cov = np.tile(
            COV_INIT_SCALE * np.eye(dim, dtype=np.complex128), (n_bins, 1, 1)
        )
        self.rows = np.tile(passthrough_row(dim), (n_bins, 1))
        self.frame_count = 0
        self.skipped_bins = 0

    def frame_weight(self, obs: np.ndarray) -> float:
        """Covariance weight for this frame: Phi(r1) from the pre-update rows."""
        return weight(compute_r1(self, obs), self.config)

    def reset_bins(self, bins: np.ndarray) -> None:
        """Return the selected bins to the initial prior and passthrough row."""
        self.cov[bins] = COV_INIT_SCALE * np.eye(self.dim)
        self.rows[bins] = passthrough_row(self.dim)


def ewma_covariance_update(
    cov: np.ndarray, obs: np.ndarray, alpha: float, gain
) -> None:
    """In-place V <- alpha*V + (1-alpha)*gain * y y^H per bin.

    ``gain`` is a scalar (shared weight) or a length-K vector (per-bin
    weight); ``cov`` is (K, D, D) and ``obs`` (K, D). y y^H is exactly
    Hermitian, so ``cov`` stays exactly Hermitian with no re-symmetrization.
    """
    update = np.einsum("kd,ke->kde", obs, obs.conj())
    gain = np.asarray(gain, dtype=np.float64)
    if gain.ndim == 1:
        gain = gain[:, np.newaxis, np.newaxis]
    cov *= alpha
    cov += (1.0 - alpha) * gain * update


def loaded_covariance(cov: np.ndarray, diag_load: float) -> np.ndarray:
    """Copy of (K, D, D) covariances with trace-relative diagonal loading."""
    dim = cov.shape[-1]
    load = diag_load * np.einsum("kdd->k", cov).real / dim
    out = cov.copy()
    idx = np.arange(dim)
    out[:, idx, idx] += load[:, np.newaxis]
    return out


def solve_demixing_rows(
    cov: np.ndarray, prev_rows: np.ndarray, diag_load: float
) -> tuple[np.ndarray, int]:
    """First column of each loaded inverse covariance, leading element pinned to 1.

    Bins whose solve fails (or produces non-finite values) keep their
    previous row; the count of such bins is returned alongside the rows.
    """
    n_bins, dim = prev_rows.shape
    loaded = loaded_covariance(cov, diag_load)
    e1 = np.zeros((n_bins, dim, 1), dtype=np.complex128)
    e1[:, 0, 0] = 1.0
    try:
        sol = np.linalg.solve(loaded, e1)[:, :, 0]
    except np.linalg.LinAlgError:
        sol = np.full((n_bins, dim), np.nan, dtype=np.complex128)
        for k in range(n_bins):
            try:
                sol[k] = np.linalg.solve(loaded[k], e1[k])[:, 0]
            except np.linalg.LinAlgError:
                pass
    bad = ~np.isfinite(sol).all(axis=1)
    bad |= np.abs(sol[:, 0]) < np.finfo(np.float64).tiny
    with np.errstate(divide="ignore", invalid="ignore"):
        sol = sol / sol[:, :1]
    sol[:, 0] = 1.0
    rows = np.where(bad[:, np.newaxis], prev_rows, sol)
    return rows, int(bad.sum())


def compute_r1(state: AuxivaState, obs: np.ndarray) -> float:
    """Cross-band output norm sqrt(sum_k |w^H y|^2) with pre-update rows, floored."""
    e = demix_frame(state.rows, obs)
    r1 = float(np.sqrt(np.sum(np.abs(e) ** 2)))
    return max(r1, R_FLOOR)


def weight(r1: float, config: AuxivaConfig) -> float:
    """Weighting function Phi(r1) = r1**(beta - 2); finite because r1 is floored."""
    return float(r1 ** (config.beta - 2.0))


def process_frame(state: AuxivaState, obs: np.ndarray) -> np.ndarray:
    """One online update with the frame's observations, returning E(k, n).

    Steps: weight the frame from the previous rows (``state.frame_weight``),
    update every covariance, reset the bins whose covariance overflowed
    (``state.reset_bins``), re-solve every row, then re-demix so the emitted
    frame uses the updated rows. Serves both optimizers.
    """
    obs = np.asarray(obs, dtype=np.complex128)
    if obs.shape != (state.n_bins, state.dim):
        raise ValueError(
            f"expected observations of shape ({state.n_bins}, {state.dim}), got {obs.shape}"
        )
    gain = state.frame_weight(obs)
    ewma_covariance_update(state.cov, obs, state.config.alpha, gain)
    broken = ~np.isfinite(np.einsum("kdd->k", state.cov))
    if broken.any():
        state.reset_bins(broken)
    state.rows, skipped = solve_demixing_rows(
        state.cov, state.rows, state.config.diag_load
    )
    state.skipped_bins += skipped
    state.frame_count += 1
    return demix_frame(state.rows, obs)


def offline_batch(
    observations: np.ndarray,
    config: AuxivaConfig = AuxivaConfig(),
    iterations: int = 20,
) -> np.ndarray:
    """Batch fixed-point iteration over (N, K, D) observations; returns (K, D) rows.

    Each sweep computes all per-frame weights with the current rows, forms
    the weighted mean covariance per bin, and re-solves every row with the
    same leading-element normalization as the online mode.
    """
    observations = np.asarray(observations, dtype=np.complex128)
    if observations.ndim != 3:
        raise ValueError(f"expected (N, K, D) observations, got {observations.shape}")
    n_frames, n_bins, dim = observations.shape
    rows = np.tile(passthrough_row(dim), (n_bins, 1))
    for _ in range(iterations):
        e = np.einsum("kd,nkd->nk", rows.conj(), observations)
        r = np.sqrt(np.sum(np.abs(e) ** 2, axis=1))
        r = np.maximum(r, R_FLOOR)
        phi = r ** (config.beta - 2.0)
        cov = (
            np.einsum("n,nkd,nke->kde", phi, observations, observations.conj())
            / n_frames
        )
        cov = 0.5 * (cov + cov.conj().transpose(0, 2, 1))
        rows, _ = solve_demixing_rows(cov, rows, config.diag_load)
    return rows
