"""Auxiliary-function (AuxIVA-style) updates for the constrained demixing row.

Online mode keeps, per frequency bin, an exponentially weighted covariance
of the stacked observation vector

    V1(k, n) = alpha * V1(k, n-1) + (1 - alpha) * Phi(r1(n)) * y(k, n) y(k, n)^H

with a single per-frame weight Phi(r1) = r1**(beta - 2) driven by the
cross-band norm r1(n) = sqrt(sum_k |w(k)^H y(k, n)|^2). The row is the first
column of the loaded inverse covariance with its leading element pinned to 1,
which for V1 = [[a, b^H], [b, C]] is the Schur form

    w(k, n) = [1; -(C + lambda I)^{-1} b],   lambda = diag_load * tr(V1) / D

The covariances are held in one block-planar layout shared with the
compiled kernels (``pack_covariance``): blocks of ``LANES`` bins, each a
real and an imaginary plane of the D(D+1)/2 upper-triangle entries with the
bins innermost, so an entry of a block is one vector of ``LANES`` bins.
Row 0 stores conj(b), the first column below the diagonal, which is what
the row solve reads; the rest of the upper triangle is stored as is. The
lanes of a short last block repeat the last bin. ``pack_covariance`` and
``unpack_covariance`` convert to and from the (K, D, D) Hermitian form,
which the state exposes as ``AuxivaState.covariance``.

``process_frame`` is the online core of both optimizers. The recursion's
weight is Phi(r1) here and the per-bin 1/r1(k) of the NMF model in
``IlrmaState``, a subclass that overrides the weight. ``build_kernels``
compiles ``_kernels.c`` with ``cc`` when this module is first imported and
caches the shared object under ``__pycache__``. With the kernels loaded, a
frame is three compiled calls on buffers the state owns, whose addresses it
takes once: the weight (``state.kernel_weight``: here the ``demix`` kernel,
which also takes r1 and Phi), the EWMA, and the row solve, which also
demixes the frame with the new rows; none of them makes a numpy call.
``process_frame`` and the two ``kernel_weight`` methods are the only
callers of these kernels; the engine's framing (``naec.pipeline``) calls
``fft_plan``, ``frame_in`` and ``ola`` of the same library.

Without a compiler, or if the build or load fails, ``process_frame`` runs
``state.frame_weight``, ``ewma_covariance_update``,
``solve_demixing_rows`` and ``ctf.demix_frame``: numpy code on the same
planes, with the bins on the contiguous last axis, and the reference the
tests compare the kernels against. The EWMA is written out in real
operations on both paths, so its planes are bit-identical; the numpy
solve's complex products may be fused into multiply-adds on CPUs with FMA,
while the kernels never fuse, so rows agree to rounding. Both demixes do
the operations of ``ctf.demix_frame`` in its order, so for the same rows
and observations they give its bytes; the ``demix`` kernel sums the
weight's |e|^2 as re^2 + im^2 in bin order, where ``output_norm`` takes
numpy's ``abs`` and pairwise sum, so AuxIVA's weight agrees to rounding,
not bytes. The row solve is Gaussian
elimination without pivoting (C + lambda I is positive definite), and a
kernel bin's row does not depend on its block or the ISA picked at run
time. The recursion is stored as written and the loading is trace-relative
with no square roots, so a power-of-two rescale of a bin's V1 leaves its
row bit-identical. A bin whose trace or solution is non-finite keeps its
previous row and is counted in ``skipped_bins``. The EWMA update returns
how many bins' traces overflowed; only then are those bins found and
restarted from the initial prior and passthrough row.
"""

from __future__ import annotations

import ctypes
import functools
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
LANES = 8  # bins per block of the covariance planes, as in _kernels.c
ALIGN = 64  # byte alignment of the planes, one vector of LANES doubles


def build_kernels(cache_dir: Path = KERNEL_SOURCE.parent / "__pycache__", cc: str = "cc"):
    """The compiled kernels of ``process_frame`` (``ewma``, ``solve``, ``demix``,
    ``ilrma_weight``) and of the engine's framing (``fft_plan``, ``frame_in``,
    ``ola``, and the ``rfft`` and ``irfft`` they run), or None if any step
    fails.

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
    lib.solve.argtypes = (size, size, ptr, ptr, real, ptr, ptr, ptr)
    lib.solve.restype = size
    lib.demix.argtypes = (size, size, ptr, ptr, ptr, real, real, ptr)
    lib.demix.restype = None
    lib.ilrma_weight.argtypes = (size, size, size, ptr, ptr, ptr, ptr, ptr, real, ptr)
    lib.ilrma_weight.restype = size
    lib.fft_plan.argtypes = (size, ptr)
    lib.fft_plan.restype = size
    lib.rfft.argtypes = (size, size, ptr, ptr, ptr)
    lib.rfft.restype = None
    lib.irfft.argtypes = (size, ptr, ptr, ptr)
    lib.irfft.restype = None
    lib.frame_in.argtypes = (size, size, size, size, ptr, ptr, ptr, ptr, ptr, ptr)
    lib.frame_in.restype = size
    lib.ola.argtypes = (size, size, ptr, ptr, ptr, ptr, ptr, ptr, ptr)
    lib.ola.restype = None
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
    """Per-bin covariance planes and demixing rows plus the count of skipped bins.

    The planes ``cov`` and the rows, with the frame's covariance weight
    ``gain`` (padded to whole blocks of ``LANES`` bins, ``ALIGN``-byte
    aligned) and its output ``out``, are buffers that live as long as the
    state and are only written in place; ``cov`` and ``rows`` cannot be
    rebound. The compiled path takes their ``addresses`` once, here.
    """

    def __init__(self, n_bins: int, dim: int, config: AuxivaConfig = AuxivaConfig()):
        self.config = config
        self.n_bins = n_bins
        self.dim = dim
        self._cov = pack_covariance(np.broadcast_to(_prior(dim), (n_bins, dim, dim)))
        self._rows = np.tile(passthrough_row(dim), (n_bins, 1))
        self.gain = aligned_zeros(padded_bins(n_bins))
        self.out = np.empty(n_bins, dtype=np.complex128)
        self.addresses = tuple(a.ctypes.data for a in (self._cov, self._rows, self.gain, self.out))
        self.obs, self.obs_address = None, 0  # the last frame's, see process_frame
        self.skipped_bins = 0

    cov = property(lambda self: self._cov, doc="The covariance planes (``pack_covariance``).")
    rows = property(lambda self: self._rows, doc="The (K, D) demixing rows.")

    @property
    def covariance(self) -> np.ndarray:
        """The (K, D, D) Hermitian covariances, unpacked from ``cov``."""
        return unpack_covariance(self.cov, self.n_bins)

    def frame_weight(self, obs: np.ndarray) -> float:
        """Covariance weight for this frame: Phi(r1) from the pre-update rows."""
        return weight(compute_r1(self, obs), self.config)

    def kernel_weight(self, obs_address: int) -> int:
        """``frame_weight`` into ``gain[0]`` by the compiled ``demix``, which
        leaves the outputs in ``out``; returns the gain's stride over bins, 0.

        The kernel sums |e|^2 as re^2 + im^2 in bin order, where
        ``output_norm`` takes numpy's ``abs`` and pairwise sum, so the two
        agree to rounding. An |e|^2 that overflows on a finite burst makes
        the weight 0 or NaN, which the EWMA's count of broken bins handles.
        """
        _, rows, gain, out = self.addresses
        _kernels.demix(self.n_bins, self.dim, rows, obs_address, out,
                       R_FLOOR, self.config.beta - 2.0, gain)
        return 0

    def reset_bins(self, bins: np.ndarray) -> None:
        """Return the selected bins (a mask or indices) to the initial prior and passthrough row."""
        mask = np.zeros(self.n_bins, dtype=bool)
        mask[bins] = True
        prior = pack_covariance(_prior(self.dim)[np.newaxis])
        lanes = mask[_lane_bins(self.n_bins)].reshape(len(self.cov), 1, 1, LANES)
        np.copyto(self.cov, prior, where=lanes)
        self.rows[mask] = passthrough_row(self.dim)


def _prior(dim: int) -> np.ndarray:
    return COV_INIT_SCALE * np.eye(dim, dtype=np.complex128)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


# The index arrays below are cached per K or D, as a frame would otherwise
# spend more time building them than the numpy code spends using them.
@functools.lru_cache(maxsize=16)
def _lane_bins(n_bins: int) -> np.ndarray:
    """The bin held by each lane of the planes; a short last block repeats bin K - 1."""
    return _read_only(np.minimum(np.arange(padded_bins(n_bins)), n_bins - 1))[0]


@functools.lru_cache(maxsize=16)
def _upper(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each plane entry: the upper triangle in row-major order."""
    return _read_only(*np.triu_indices(dim))


@functools.lru_cache(maxsize=16)
def _entries(dim: int) -> np.ndarray:
    """(D, D) plane entry that holds V[i, j] or, below the diagonal, its conjugate."""
    rows, cols = _upper(dim)
    index = np.empty((dim, dim), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(len(rows))
    return _read_only(index)[0]


@functools.lru_cache(maxsize=16)
def _augmented(dim: int) -> np.ndarray:
    """Plane entry of each element of the row solve's augmented (D-1, D)
    matrix, flattened: C[i, c] = V[i + 1, c + 1] for c < D - 1, b[i] = V[i + 1, 0]."""
    i, c = np.indices((dim - 1, dim))
    return _read_only(_entries(dim)[i + 1, (c + 1) % dim].ravel())[0]


def _dim(cov: np.ndarray) -> int:
    """D from planes of D(D+1)/2 entries."""
    return (int(np.sqrt(8 * cov.shape[2] + 1)) - 1) // 2


def padded_bins(n_bins: int) -> int:
    """K rounded up to whole blocks of ``LANES`` bins."""
    return -(-n_bins // LANES) * LANES


def aligned_zeros(shape) -> np.ndarray:
    """Zeroed float64 array of ``shape``, ``ALIGN``-byte aligned.

    Only the aligned view is returned; it keeps its over-allocated buffer
    alive as its base, so its ``nbytes`` is its whole footprint.
    """
    nbytes = int(np.prod(shape)) * 8
    raw = np.zeros(nbytes + ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % ALIGN
    return raw[start : start + nbytes].view(np.float64).reshape(shape)


def pack_covariance(cov: np.ndarray) -> np.ndarray:
    """Planes of the (K, D, D) covariances ``cov``: (ceil(K / LANES), 2,
    D(D+1)/2, LANES) float64, ``ALIGN``-byte aligned.

    Stores the upper triangle, with row 0 taken as the conjugate of the
    first column below the diagonal: the entries the row solve reads of a
    (K, D, D) matrix, bit for bit.
    """
    n_bins, dim, _ = cov.shape
    rows, cols = _upper(dim)
    lanes = np.asarray(cov)[_lane_bins(n_bins)]
    tri = lanes[:, rows, cols]
    tri[:, 1:dim] = lanes[:, 1:, 0].conj()
    planes = aligned_zeros((len(lanes) // LANES, 2, len(rows), LANES))
    tri = tri.reshape(len(planes), LANES, -1).transpose(0, 2, 1)
    planes[:, 0] = tri.real
    planes[:, 1] = tri.imag
    return planes


def unpack_covariance(cov: np.ndarray, n_bins: int) -> np.ndarray:
    """The exactly Hermitian (K, D, D) covariances held in the planes ``cov``."""
    dim = _dim(cov)
    rows, cols = _upper(dim)
    tri = np.empty((len(cov), LANES, len(rows)), dtype=np.complex128)
    tri.real = cov[:, 0].transpose(0, 2, 1)
    tri.imag = cov[:, 1].transpose(0, 2, 1)
    tri = tri.reshape(-1, len(rows))[:n_bins]
    out = np.empty((n_bins, dim, dim), dtype=np.complex128)
    out[:, cols, rows] = tri.conj()
    out[:, rows, cols] = tri
    return out


def _trace(cov: np.ndarray) -> np.ndarray:
    """(blocks, LANES) traces: the real diagonal summed in index order, as the kernels do."""
    trace = np.zeros(cov.shape[::3])
    for at in np.diagonal(_entries(_dim(cov))):
        trace += cov[:, 0, at]
    return trace


def nonfinite_trace(cov: np.ndarray, n_bins: int) -> np.ndarray:
    """Mask of the K bins whose trace, as the row solve takes it, is not finite."""
    return ~np.isfinite(_trace(cov).reshape(-1)[:n_bins])


def ewma_covariance_update(
    cov: np.ndarray, obs: np.ndarray, alpha: float, gain
) -> int:
    """In-place V <- alpha*V + (1-alpha)*gain * y y^H per bin, on the planes ``cov``.

    ``gain`` is a scalar (shared weight) or a length-K vector (per-bin
    weight); ``obs`` is (K, D). Only the upper triangle is stored, so the
    covariances stay exactly Hermitian. Returns the number of bins whose
    updated trace is not finite (the ``nonfinite_trace`` count). The ``ewma``
    kernel gives the same planes bit for bit.
    """
    n_bins, dim = np.shape(obs)
    lanes = _lane_bins(n_bins)
    y = np.asarray(obs, dtype=np.complex128)[lanes]
    rows, cols = _upper(dim)
    y_i, y_j = y[:, rows], y[:, cols]  # per lane and plane entry
    gain = np.broadcast_to(np.asarray(gain, dtype=np.float64), (n_bins,))
    scale = (1.0 - alpha) * gain[lanes, np.newaxis]
    planes = (len(cov), LANES, len(rows))
    with np.errstate(over="ignore", invalid="ignore"):
        # y_i conj(y_j), written out as the kernel does.
        ur = (y_i.real * y_j.real + y_i.imag * y_j.imag) * scale
        ui = (y_i.imag * y_j.real - y_i.real * y_j.imag) * scale
        cov *= alpha
        cov[:, 0] += ur.reshape(planes).transpose(0, 2, 1)
        cov[:, 1] += ui.reshape(planes).transpose(0, 2, 1)
    return int(np.count_nonzero(nonfinite_trace(cov, n_bins)))


def solve_demixing_rows(
    cov: np.ndarray, prev_rows: np.ndarray, diag_load: float
) -> tuple[np.ndarray, int]:
    """Rows [1; -(C + lambda I)^{-1} b] of every bin's loaded covariance.

    ``cov`` holds the planes of Hermitian covariances, ``prev_rows`` is
    (K, D). Bins whose trace or solution is non-finite keep their previous
    row; the count of such bins is returned alongside the rows. The
    ``solve`` kernel's rows agree to rounding.
    """
    n_bins, dim = prev_rows.shape
    n, n_lanes = dim - 1, cov.shape[0] * LANES
    trace = _trace(cov).reshape(n_lanes)
    # Augmented [C + lambda I | b] with the lanes on the contiguous last axis:
    # C from the upper triangle (its unread lower part mirrors it), b = conj(row 0).
    a = np.empty((n, dim, n_lanes), dtype=np.complex128)
    parts = a.view(np.float64).reshape(n * dim, len(cov), LANES, 2)
    for part in (0, 1):
        parts[..., part] = cov[:, part, _augmented(dim)].transpose(1, 0, 2)
    np.negative(a[:, n].imag, out=a[:, n].imag)
    a.reshape(n * dim, n_lanes)[:: dim + 1] += diag_load * trace / dim
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
        x = a[:, n, :n_bins]
        for col in range(n - 1, 0, -1):
            x[:col] -= a[:col, col, :n_bins] * x[col]
    bad = ~(np.isfinite(x).all(axis=0) & np.isfinite(trace[:n_bins]))
    rows = np.empty_like(prev_rows)
    rows[:, 0] = 1.0
    np.negative(x.T, out=rows[:, 1:])
    return np.where(bad[:, np.newaxis], prev_rows, rows), int(bad.sum())


def compute_r1(state: AuxivaState, obs: np.ndarray) -> float:
    """Cross-band output norm sqrt(sum_k |w^H y|^2) with pre-update rows, floored."""
    return output_norm(demix_frame(state.rows, obs))


def output_norm(e: np.ndarray) -> float:
    """sqrt(sum_k |e(k)|^2), floored at ``R_FLOOR``."""
    return max(float(np.sqrt(np.sum(np.abs(e) ** 2))), R_FLOOR)


def weight(r1: float, config: AuxivaConfig) -> float:
    """Weighting function Phi(r1) = r1**(beta - 2); finite because r1 is floored."""
    return float(r1 ** (config.beta - 2.0))


def process_frame(state: AuxivaState, obs: np.ndarray) -> np.ndarray:
    """One online update with the frame's observations, returning E(k, n).

    Steps: weight the frame from the previous rows, update every covariance,
    reset the bins whose covariance overflowed (``state.reset_bins``),
    re-solve every row, then re-demix so the emitted frame uses the updated
    rows. Serves both optimizers. With the kernels loaded this is three
    compiled calls on the state's buffers: the weight
    (``state.kernel_weight``), the EWMA, and the row solve, which also
    demixes into ``state.out``. Without them, the numpy functions run:
    ``state.frame_weight``, ``ewma_covariance_update``,
    ``solve_demixing_rows`` and ``ctf.demix_frame``.

    ``obs`` may be any (K, D) array; it is converted to a C-contiguous
    complex128 array, whose address the state keeps. Passed the same array
    again, as the engine passes its observation buffer every frame, it is
    neither converted nor asked for its address again.
    """
    if obs is not state.obs:
        state.obs = np.ascontiguousarray(obs, dtype=np.complex128)
        state.obs_address = state.obs.ctypes.data
    obs = state.obs
    if obs.shape != (state.n_bins, state.dim):
        raise ValueError(
            f"expected observations of shape ({state.n_bins}, {state.dim}), got {obs.shape}"
        )
    n_bins, dim, config = state.n_bins, state.dim, state.config
    if _kernels is None:
        # A finite burst may overflow |e|^2; the EWMA's count of broken bins
        # handles it, so numpy's warnings are only noise.
        with np.errstate(over="ignore", invalid="ignore"):
            gain = state.frame_weight(obs)
        if ewma_covariance_update(state.cov, obs, config.alpha, gain):
            state.reset_bins(nonfinite_trace(state.cov, n_bins))
        rows, skipped = solve_demixing_rows(state.cov, state.rows, config.diag_load)
        state.rows[...] = rows
        state.skipped_bins += skipped
        return demix_frame(state.rows, obs)
    obs_address = state.obs_address
    cov, rows, gain, out = state.addresses
    stride = state.kernel_weight(obs_address)
    broken = _kernels.ewma(n_bins, dim, cov, obs_address, config.alpha, gain, stride)
    if broken < 0:
        raise MemoryError("EWMA workspace")
    if broken:
        state.reset_bins(nonfinite_trace(state.cov, n_bins))
    # In place: a bin's previous row is read only to keep it.
    skipped = _kernels.solve(n_bins, dim, cov, rows, config.diag_load, rows, obs_address, out)
    if skipped < 0:
        raise MemoryError("row solve workspace")
    state.skipped_bins += skipped
    return state.out.copy()

