"""Auxiliary-function (AuxIVA-style) updates for the constrained demixing row.

Online mode keeps, per frequency bin, an exponentially weighted covariance
of the stacked observation vector

    V1(k, n) = alpha * V1(k, n-1) + (1 - alpha) * Phi(r1(n)) * y(k, n) y(k, n)^H

with a single per-frame weight Phi(r1) = r1**(beta - 2) driven by the
cross-band norm r1(n) = sqrt(sum_k |w(k)^H y(k, n)|^2). The row is the first
column of the loaded inverse covariance with its leading element pinned to 1,
which for V1 = [[a, b^H], [b, C]] is the Schur form

    w(k, n) = [1; -(C + lambda I)^{-1} b],   lambda = diag_load * tr(V1) / D

``ewma_covariance_update`` and ``solve_demixing_rows`` each make one pass
over all bins per frame. Both run a compiled C kernel (``_kernels.c``) when
one is loaded: ``build_kernels`` compiles it with ``cc`` when this module is
first imported and caches the shared object under ``__pycache__``. Without
a compiler, or if the build or load fails, the numpy code in the same two
functions runs instead; it is also the reference the tests compare the
kernels against. The kernels do the numpy code's arithmetic in the same
order, written out in real operations that are never fused into
multiply-adds (numpy's complex products are on CPUs with FMA), so the two
paths agree to rounding. The row solve is Gaussian elimination without
pivoting (C + lambda I is positive definite); numpy runs it with the bins
on the contiguous last axis, the kernel eight bins at a time, one per lane
of a vector type, with each lane doing a one-bin solve's operations in its
order, so a bin's row does not depend on its block or the ISA picked at run
time. The recursion is stored as written and the loading is trace-relative
with no square roots, so a power-of-two rescale of a bin's V1 leaves its
row bit-identical. A bin whose trace or solution is non-finite keeps its
previous row and is counted in ``skipped_bins``. The EWMA update returns
how many bins' traces overflowed; only then are those bins found and
restarted from the initial prior and passthrough row.

``process_frame`` is the online core of both optimizers. The recursion's
weight is ``state.frame_weight(obs)``: Phi(r1) here, the per-bin 1/r1(k) of
the NMF model in ``IlrmaState``, a subclass that overrides only that method.

Offline mode (``offline_batch``) replaces the recursion by the batch mean
over all frames and serves as the convergence oracle for the online mode.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ctf import demix_frame, passthrough_row

COV_INIT_SCALE = 1e-3
R_FLOOR = 1e-8  # floor on r1, so Phi(r1) stays finite on a silent frame
KERNEL_SOURCE = Path(__file__).with_name("_kernels.c")
KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def build_kernels(cache_dir: Path = KERNEL_SOURCE.parent / "__pycache__", cc: str = "cc"):
    """The compiled ``ewma`` and ``solve`` kernels, or None if any step fails.

    The shared object is cached as ``kernels-<sha256 of source and flags>.so``
    in ``cache_dir``, compiled there on first use by ``cc`` into a temporary
    file that is then renamed into place, and loaded through ``ctypes``.
    """
    try:
        source = KERNEL_SOURCE.read_bytes()
        digest = hashlib.sha256(source + " ".join(KERNEL_FLAGS).encode()).hexdigest()
        target = cache_dir / f"kernels-{digest}.so"
        if not target.exists():
            cache_dir.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache_dir)
            os.close(fd)
            try:
                subprocess.run([cc, *KERNEL_FLAGS, "-o", tmp, str(KERNEL_SOURCE)],
                               capture_output=True, check=True, timeout=120)
                os.replace(tmp, target)
            finally:
                if os.path.exists(tmp):
                    os.remove(tmp)
        lib = ctypes.CDLL(str(target))
    except (OSError, subprocess.SubprocessError):
        return None
    size, ptr, real = ctypes.c_long, ctypes.c_void_p, ctypes.c_double
    lib.ewma.argtypes = (size, size, ptr, ptr, real, ptr, size)
    lib.ewma.restype = size
    lib.solve.argtypes = (size, size, ptr, ptr, real, ptr)
    lib.solve.restype = size
    return lib


_kernels = build_kernels()  # None: the numpy code below runs instead


@dataclass(frozen=True)
class AuxivaConfig:
    """Online-core settings of both optimizers; ``beta`` is AuxIVA's, ``bases_b`` ILRMA's."""

    alpha: float = 0.99
    beta: float = 0.4
    diag_load: float = 1e-6
    bases_b: int = 10

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 < self.beta < 2.0:
            raise ValueError(f"beta must be in (0, 2), got {self.beta}")
        if self.diag_load <= 0.0:
            raise ValueError(f"diag_load must be positive, got {self.diag_load}")
        if self.bases_b < 1:
            raise ValueError(f"bases_b must be >= 1, got {self.bases_b}")


class AuxivaState:
    """Per-bin covariance and demixing row plus the count of skipped bins."""

    def __init__(self, n_bins: int, dim: int, config: AuxivaConfig = AuxivaConfig()):
        self.config = config
        self.n_bins = n_bins
        self.dim = dim
        self.cov = np.tile(
            COV_INIT_SCALE * np.eye(dim, dtype=np.complex128), (n_bins, 1, 1)
        )
        self.rows = np.tile(passthrough_row(dim), (n_bins, 1))
        self.skipped_bins = 0

    def frame_weight(self, obs: np.ndarray) -> float:
        """Covariance weight for this frame: Phi(r1) from the pre-update rows."""
        return weight(compute_r1(self, obs), self.config)

    def reset_bins(self, bins: np.ndarray) -> None:
        """Return the selected bins to the initial prior and passthrough row."""
        self.cov[bins] = COV_INIT_SCALE * np.eye(self.dim)
        self.rows[bins] = passthrough_row(self.dim)


def _kernel_layout(cov: np.ndarray) -> bool:
    """Whether the kernel can update ``cov`` in place: C-contiguous complex128 (K, D, D)."""
    return (cov.dtype == np.complex128 and cov.ndim == 3 and cov.shape[1] == cov.shape[2]
            and cov.flags.c_contiguous and cov.flags.writeable)


def nonfinite_trace(cov: np.ndarray) -> np.ndarray:
    """Mask of the bins whose trace, as the row solve takes it, is not finite."""
    return ~np.isfinite(np.einsum("kdd->k", cov).real)


def ewma_covariance_update(
    cov: np.ndarray, obs: np.ndarray, alpha: float, gain
) -> int:
    """In-place V <- alpha*V + (1-alpha)*gain * y y^H per bin.

    ``gain`` is a scalar (shared weight) or a length-K vector (per-bin
    weight); ``cov`` is (K, D, D) and ``obs`` (K, D). y y^H is exactly
    Hermitian, so ``cov`` stays exactly Hermitian with no re-symmetrization.
    Returns the number of bins whose updated trace is not finite (the
    ``nonfinite_trace`` count). Runs the compiled kernel when it is loaded and
    ``cov`` is a C-contiguous complex128 (K, D, D) array, else the numpy
    code below.
    """
    gain = np.asarray(gain, dtype=np.float64)
    n_bins = len(cov)
    # A 0-d gain becomes (1,) under ascontiguousarray, so take the stride first.
    stride = {(): 0, (1,): 0, (n_bins,): 1}.get(gain.shape)
    if _kernels is not None and stride is not None and _kernel_layout(cov):
        obs = np.ascontiguousarray(obs, dtype=np.complex128)
        if obs.shape == cov.shape[:2]:
            gain = np.ascontiguousarray(gain)
            return _kernels.ewma(n_bins, obs.shape[1], cov.ctypes.data, obs.ctypes.data,
                                 alpha, gain.ctypes.data, stride)
    update = np.einsum("kd,ke->kde", obs, obs.conj())
    if gain.ndim == 1:
        gain = gain[:, np.newaxis, np.newaxis]
    cov *= alpha
    cov += (1.0 - alpha) * gain * update
    return int(np.count_nonzero(nonfinite_trace(cov)))


def solve_demixing_rows(
    cov: np.ndarray, prev_rows: np.ndarray, diag_load: float
) -> tuple[np.ndarray, int]:
    """Rows [1; -(C + lambda I)^{-1} b] of every bin's loaded covariance.

    ``cov`` is (K, D, D) and Hermitian, ``prev_rows`` (K, D). Bins whose
    trace or solution is non-finite keep their previous row; the count of
    such bins is returned alongside the rows. Runs the compiled kernel when
    it is loaded, else the numpy code below.
    """
    n_bins, dim = prev_rows.shape
    if _kernels is not None and np.shape(cov) == (n_bins, dim, dim):
        cov = np.ascontiguousarray(cov, dtype=np.complex128)
        prev_rows = np.ascontiguousarray(prev_rows, dtype=np.complex128)
        rows = np.empty_like(prev_rows)
        skipped = _kernels.solve(n_bins, dim, cov.ctypes.data, prev_rows.ctypes.data,
                                 diag_load, rows.ctypes.data)
        if skipped < 0:
            raise MemoryError("row solve workspace")
        return rows, skipped
    n = dim - 1
    trace = np.einsum("kdd->k", cov).real
    # Augmented [C + lambda I | b] with the bins on the contiguous last axis.
    a = np.empty((n, dim, n_bins), dtype=np.complex128)
    a[:, :n] = cov[:, 1:, 1:].transpose(1, 2, 0)
    a[:, n] = cov[:, 1:, 0].T
    a.reshape(n * dim, n_bins)[:: dim + 1] += diag_load * trace / dim
    with np.errstate(all="ignore"):
        # Forward elimination on the upper triangle: row j is final at step j;
        # it is scaled by its real pivot and, by Hermitian symmetry, its
        # conjugate supplies the multipliers for the rows below.
        for j in range(n):
            inv_pivot = 1.0 / a[j, j].real
            lower = a[j, j + 1 : n].conj()
            a[j, j + 1 :] *= inv_pivot
            for i in range(j + 1, n):
                a[i, i:] -= lower[i - j - 1] * a[j, i:]
        # Back substitution on the unit upper triangle leaves (C + lambda I)^{-1} b.
        x = a[:, n]
        for col in range(n - 1, 0, -1):
            x[:col] -= a[:col, col] * x[col]
    bad = ~(np.isfinite(x).all(axis=0) & np.isfinite(trace))
    rows = np.empty_like(prev_rows)
    rows[:, 0] = 1.0
    np.negative(x.T, out=rows[:, 1:])
    return np.where(bad[:, np.newaxis], prev_rows, rows), int(bad.sum())


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
    if ewma_covariance_update(state.cov, obs, state.config.alpha, gain):
        state.reset_bins(nonfinite_trace(state.cov))
    state.rows, skipped = solve_demixing_rows(
        state.cov, state.rows, state.config.diag_load
    )
    state.skipped_bins += skipped
    return demix_frame(state.rows, obs)


def offline_batch(
    observations: np.ndarray,
    config: AuxivaConfig = AuxivaConfig(),
    iterations: int = 20,
) -> np.ndarray:
    """Batch fixed-point sweeps over (N, K, D) observations; returns (K, D) rows.

    From passthrough rows, each sweep weights every frame by Phi(r1(n)) of its
    outputs, shared by all bins, forms the weighted mean covariance per bin,
    and re-solves every row with the online mode's normalization.
    """
    obs = np.asarray(observations, dtype=np.complex128)
    if obs.ndim != 3:
        raise ValueError(f"expected (N, K, D) observations, got {obs.shape}")
    n_frames, n_bins, dim = obs.shape
    rows = np.tile(passthrough_row(dim), (n_bins, 1))
    for _ in range(iterations):
        e = np.einsum("kd,nkd->nk", rows.conj(), obs)
        r1 = np.maximum(np.sqrt(np.sum(np.abs(e) ** 2, axis=1)), R_FLOOR)
        phi = np.broadcast_to((r1 ** (config.beta - 2.0))[:, np.newaxis], e.shape)
        cov = np.einsum("nk,nkd,nke->kde", phi, obs, obs.conj()) / n_frames
        cov = 0.5 * (cov + cov.conj().transpose(0, 2, 1))
        rows, _ = solve_demixing_rows(cov, rows, config.diag_load)
    return rows
