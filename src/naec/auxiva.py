"""Auxiliary-function (AuxIVA-style) updates for the constrained demixing row.

Online mode weights, per frequency bin, a covariance of the stacked
observation vector y by Phi(r1) = r1**(beta - 2), a single per-frame weight
driven by the cross-band norm r1(n) = sqrt(sum_k |w(k)^H y(k, n)|^2), and
loads it by a trace-relative rho on one coordinate per frame:

    V(k, n) = alpha V(k, n-1) + s y y^H + rho e_j e_j^H,   s = (1 - alpha) Phi,
    rho = (1 - alpha) diag_load tau,   j = n mod D

with tau the trace of V after the frame's data. Each coordinate is loaded
once every D frames, so the loading adds up to about diag_load tau / D on
every diagonal entry. A bin to which the frame adds nothing (s |y|^2 = 0)
is left as it is. The state tracks P = V^-1 and tau instead of V: the
recursion is two Sherman-Morrison updates of P, O(D^2) per bin (the
``update`` kernel of ``_kernels.c`` lists them), and the row is the first
column of P with its leading element pinned to 1, w = P e_1 / P_00, the
Schur form [1; -C^{-1} b] of the loaded V = [[a, b^H], [b, C]]. The row
does not depend on a, so the loading of coordinate 0 leaves it alone; it
keeps P_00 bounded while the microphone is muted to exact zeros.

The state's per-bin buffers keep the bins innermost, in blocks of ``LANES``
bins whose lanes past the last bin repeat it, as the compiled kernels read
them. P is block-planar (``pack_covariance``): per block a real and an
imaginary plane of the D(D+1)/2 upper-triangle entries, whose diagonal
imaginary parts are never written; ``AuxivaState.inverse`` unpacks it. The
observations and rows are channel-major planes (``pack_observations``);
``AuxivaState.rows`` reads and writes the rows' planes as (K, D) rows.

``process_frame`` is the online core of both optimizers; ``IlrmaState``
sets the weight to the per-bin 1/r1(k) of its NMF model. ``build_kernels``
compiles ``_kernels.c`` with ``cc`` when this module is first imported,
caches the shared object under ``__pycache__`` and raises ImportError if it
cannot. A frame is one ``step`` call on ``state.kernel``: the weight, then
``update``, which also writes the rows and demixes the frame.
``compute_r1``, ``ewma_covariance_update``, ``solve_demixing_rows`` and
``ctf.demix_frame`` are the kernels' test oracles, kept in the package
because ``bench/spans.py`` wraps them by name: numpy code in the kernel's
real operations and order, so P, tau, rows and output are the
kernel's bytes for the same weight, and a bin's result does not depend on
the other bins. AuxIVA's weight agrees to rounding: the ``demix`` kernel
sums |e|^2 as re^2 + im^2 in bin order, ``compute_r1`` with numpy's ``abs``
and pairwise sum.

Rescaling P, tau and the weight by 2^-m, 2^m and 2^m rescales the update's
results by the same powers of two and leaves the rows bit-identical. A bin
whose tau or tr(P) is not finite is broken: ``process_frame`` restarts it
from the prior and passthrough row (``reset_bins``). A bin whose row is not
finite keeps its previous row and is counted in ``skipped_bins``.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ctf import demix_frame, passthrough_row

COV_INIT_SCALE = 1e-3
R_FLOOR = 1e-8  # floor on r1, so Phi(r1) stays finite on a silent frame
KERNEL_SOURCE = Path(__file__).with_name("_kernels.c")
# -fno-math-errno: sqrt is one (vector) instruction, with no libm call for errno.
# -Bsymbolic: the kernels call their own ``step``, not glibc's legacy regexp one.
KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared", "-Wl,-Bsymbolic")
LANES = 8  # bins per block of the per-bin planes, as in _kernels.c
ALIGN = 64  # byte alignment of the planes, one vector of LANES doubles
_TURN = np.array([1.0, -1.0])[:, np.newaxis, np.newaxis]  # see ewma_covariance_update


def build_kernels(cache_dir: Path = KERNEL_SOURCE.parent / "__pycache__", cc: str = "cc"):
    """The compiled kernels of ``_kernels.c``: ``step`` and the kernels it
    runs for ``process_frame``, ``push`` and the framing kernels it runs for
    the engine, and the tests' ``layout``.

    The shared object is cached as ``kernels-<sha256 of source and flags>.so``
    in ``cache_dir``, compiled there on first use by ``cc`` into a temporary
    file that is then renamed into place, and loaded through ``ctypes``. A
    fresh build removes the other ``kernels-*.so`` there, the stale builds
    of earlier sources. If ``cache_dir`` cannot be written, the build goes
    to a private temporary directory, removed once the library is loaded.
    Raises ImportError, with the compiler command and its stderr, if the
    build fails.
    """
    source = KERNEL_SOURCE.read_bytes()
    digest = hashlib.sha256(source + " ".join(KERNEL_FLAGS).encode()).hexdigest()
    target = cache_dir / f"kernels-{digest}.so"
    private = None
    if not target.exists():
        try:
            cache_dir.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache_dir)
        except OSError:  # an unwritable cache
            cache_dir = private = Path(tempfile.mkdtemp(prefix="naec-kernels-"))
            target = cache_dir / target.name
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache_dir)
        os.close(fd)
        command = [cc, *KERNEL_FLAGS, "-o", tmp, str(KERNEL_SOURCE)]
        try:
            subprocess.run(command, capture_output=True, check=True, timeout=120)
            os.replace(tmp, target)
        except (OSError, subprocess.SubprocessError) as error:
            stderr = (getattr(error, "stderr", None) or b"").decode(errors="replace")
            raise ImportError(f"naec needs a C compiler with GCC vector extensions; "
                              f"`{' '.join(command)}` failed: {error}\n{stderr}") from error
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        for stale in cache_dir.glob("kernels-*.so"):
            if stale != target:
                with contextlib.suppress(OSError):
                    stale.unlink()
    lib = ctypes.CDLL(str(target))
    if private is not None:
        shutil.rmtree(private, ignore_errors=True)
    size, ptr, real = ctypes.c_long, ctypes.c_void_p, ctypes.c_double
    lib.update.argtypes = (size, size, ptr, ptr, ptr, real, ptr, size, real, size, ptr, ptr, ptr,
                           ptr)
    lib.update.restype = size
    lib.demix.argtypes = (size, size, ptr, ptr, ptr, real, real, ptr)
    lib.demix.restype = None
    lib.ilrma_weight.argtypes = (size, size, ptr, ptr, ptr, ptr, ptr, real, ptr, ptr)
    lib.ilrma_weight.restype = size
    lib.fft_plan.argtypes = (size, ptr)
    lib.fft_plan.restype = size
    lib.rfft.argtypes = (size, size, ptr, ptr, ptr)
    lib.rfft.restype = None
    lib.irfft.argtypes = (size, ptr, ptr, ptr)
    lib.irfft.restype = None
    for name in ("step", "frame_in", "ola", "push", "layout"):  # each takes one pointer
        getattr(lib, name).argtypes = (ptr,)
        getattr(lib, name).restype = None if name == "ola" else size
    return lib


_kernels = build_kernels()


@dataclass(frozen=True)
class AuxivaConfig:
    """Online-core settings of both optimizers; ``beta`` is AuxIVA's only."""

    alpha: float = 0.99
    beta: float = 0.4
    diag_load: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.beta < 2.0:
            raise ValueError(f"beta must be in (0, 2), got {self.beta}")
        if self.diag_load <= 0.0:
            raise ValueError(f"diag_load must be positive, got {self.diag_load}")


class KernelState(ctypes.Structure):
    """``struct state`` of ``_kernels.c``: what ``step`` reads and counts."""

    _fields_ = [*((name, ctypes.c_long) for name in ("n_bins", "dim")),
                *((name, ctypes.c_double) for name in ("alpha", "diag_load", "floor", "exponent")),
                *((name, ctypes.c_void_p) for name in ("inv", "trace", "basis", "r1", "work",
                                                       "rows", "obs", "gain", "v1", "out")),
                ("frames", ctypes.c_long), ("skipped_bins", ctypes.c_long)]


class AuxivaState:
    """Per-bin inverse covariances, traces and demixing rows plus the count of skipped bins.

    The planes ``inv`` of P = V^-1, ``row_planes`` of the rows and ``obs``
    of the frame's observations, the traces ``trace`` of V, the frame's
    weight ``gain``, its output ``out`` (K of a padded buffer) and the
    kernels' workspace ``work``, all ``ALIGN``-byte aligned, live as long as
    the state and are only written in place; the planes cannot be rebound.
    ``kernel``, at ``handle``, holds their addresses, taken once here, the
    settings and the counters ``frames`` and ``skipped_bins``.
    """

    def __init__(self, n_bins: int, dim: int, config: AuxivaConfig = AuxivaConfig()):
        self.config = config
        self.n_bins = n_bins
        self.dim = dim
        self._inv = pack_covariance(np.broadcast_to(_prior(dim), (n_bins, dim, dim)))
        self.trace = aligned_zeros(padded_bins(n_bins))
        self.trace[...] = dim * COV_INIT_SCALE
        self._row_planes = pack_observations(np.tile(passthrough_row(dim), (n_bins, 1)))
        self._obs = aligned_zeros((dim, 2, padded_bins(n_bins)))
        self.gain = aligned_zeros(padded_bins(n_bins))
        self.out = aligned_zeros((padded_bins(n_bins), 2)).view(np.complex128)[:n_bins, 0]
        blocks = padded_bins(n_bins) // LANES
        self.work = aligned_zeros((max(6 * dim, blocks), LANES))
        self.kernel = KernelState(
            n_bins=n_bins, dim=dim, alpha=config.alpha, diag_load=config.diag_load, floor=R_FLOOR,
            exponent=config.beta - 2.0, rows=self.row_planes.ctypes.data, **{
                name: getattr(self, name).ctypes.data
                for name in ("inv", "trace", "work", "gain", "obs", "out")})
        self.handle = ctypes.c_void_p(ctypes.addressof(self.kernel))

    inv = property(lambda self: self._inv, doc="The planes of P = V^-1 (``pack_covariance``).")
    row_planes = property(lambda self: self._row_planes, doc="The rows' planes.")
    obs = property(lambda self: self._obs, doc="The planes of the frame's observations.")
    rows = property(lambda self: unpack_observations(self.row_planes, self.n_bins),
                    lambda self, rows: pack_observations(rows, self.row_planes),
                    doc="The (K, D) demixing rows, unpacked; assigning packs them.")
    frames = property(lambda self: self.kernel.frames, doc="Frames processed.")
    skipped_bins = property(lambda self: self.kernel.skipped_bins, doc="Rows kept over all frames.")

    @property
    def inverse(self) -> np.ndarray:
        """The (K, D, D) Hermitian inverse covariances P, unpacked from ``inv``."""
        return unpack_covariance(self.inv, self.n_bins)

    def reset_bins(self, bins: np.ndarray) -> None:
        """Return the selected bins (a mask or indices) to the initial prior and passthrough row."""
        mask = np.zeros(self.n_bins, dtype=bool)
        mask[bins] = True
        prior = pack_covariance(_prior(self.dim)[np.newaxis])
        lanes = mask[_lane_bins(self.n_bins)]
        np.copyto(self.inv, prior, where=lanes.reshape(len(self.inv), 1, 1, LANES))
        self.trace[lanes] = self.dim * COV_INIT_SCALE
        self.rows = np.where(mask[:, np.newaxis], passthrough_row(self.dim), self.rows)


def _prior(dim: int) -> np.ndarray:
    """P of the initial covariance COV_INIT_SCALE * I."""
    return np.eye(dim, dtype=np.complex128) / COV_INIT_SCALE


def _lane_bins(n_bins: int) -> np.ndarray:
    """The bin held by each lane of the planes; a short last block repeats bin K - 1."""
    return np.minimum(np.arange(padded_bins(n_bins)), n_bins - 1)


def _upper(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each plane entry: the upper triangle in row-major order."""
    return np.triu_indices(dim)


def _entries(dim: int) -> np.ndarray:
    """(D, D) plane entry that holds V[i, j] or, below the diagonal, its conjugate."""
    rows, cols = _upper(dim)
    index = np.empty((dim, dim), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(len(rows))
    return index


def _signs(dim: int) -> np.ndarray:
    """(D, D, 1) sign of P_ab's imaginary part, at [b, a], against plane entry ``_entries``."""
    above = np.triu(np.ones((dim, dim), dtype=bool), 1)
    return np.where(above, -1.0, 1.0)[..., np.newaxis]


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
    """Planes of the upper triangles of the (K, D, D) Hermitian ``cov``:
    (ceil(K / LANES), 2, D(D+1)/2, LANES) float64, ``ALIGN``-byte aligned."""
    n_bins, dim, _ = cov.shape
    rows, cols = _upper(dim)
    tri = np.asarray(cov)[_lane_bins(n_bins)][:, rows, cols]
    planes = aligned_zeros((len(tri) // LANES, 2, len(rows), LANES))
    tri = tri.reshape(len(planes), LANES, -1).transpose(0, 2, 1)
    planes[:, 0] = tri.real
    planes[:, 1] = tri.imag
    return planes


def pack_observations(obs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Planes of the (K, D) complex observations or rows ``obs``, into ``out``
    if given: (D, 2, ``padded_bins(K)``) float64, ``ALIGN``-byte aligned, each
    channel's real parts, then its imaginary parts; lanes past K repeat bin K - 1."""
    obs = np.asarray(obs)
    n_bins, dim = obs.shape
    out = aligned_zeros((dim, 2, padded_bins(n_bins))) if out is None else out
    out[:, 0, :n_bins], out[:, 1, :n_bins] = obs.real.T, obs.imag.T
    out[:, :, n_bins:] = out[:, :, n_bins - 1 : n_bins]
    return out


def unpack_observations(planes: np.ndarray, n_bins: int) -> np.ndarray:
    """The (K, D) complex array held in the planes ``planes`` (``pack_observations``)."""
    pairs = np.ascontiguousarray(planes[:, :, :n_bins].transpose(2, 0, 1))  # (K, D, 2)
    return pairs.view(np.complex128)[..., 0]


def unpack_covariance(cov: np.ndarray, n_bins: int) -> np.ndarray:
    """The exactly Hermitian (K, D, D) matrices held in the planes ``cov``."""
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


def _trace(inv: np.ndarray) -> np.ndarray:
    """(blocks, LANES) traces: the real diagonal summed in index order, as the kernel does."""
    return np.add.reduce(inv[:, 0, np.diagonal(_entries(_dim(inv)))], axis=1, initial=0.0)


def nonfinite_trace(inv: np.ndarray, trace: np.ndarray, n_bins: int) -> np.ndarray:
    """Mask of the K broken bins: those whose trace of V or of P is not finite."""
    return ~(np.isfinite(trace[:n_bins]) & np.isfinite(_trace(inv).reshape(-1)[:n_bins]))


def ewma_covariance_update(inv: np.ndarray, trace: np.ndarray, obs: np.ndarray, alpha: float,
                           gain, diag_load: float, coord: int) -> int:
    """In place, P = V^-1 and tau = tr(V) of every bin after
    V <- alpha V + s y y^H + rho e_j e_j^H, j = ``coord``, s = (1 - alpha) gain.

    ``inv`` holds the planes of P, ``trace`` tau (padded like ``gain`` in
    ``AuxivaState``), ``obs`` is (K, D) and ``gain`` a scalar or a length-K
    vector. The ``update`` kernel of ``_kernels.c`` documents the steps;
    these are its real operations in its order, so P and tau are its bytes.
    The lanes of all blocks run along one axis of N = blocks * LANES, and
    every sum is a reduction over a leading axis, which numpy takes in index
    order. Returns the number of broken bins (``nonfinite_trace``).
    """
    n_bins, dim = np.shape(obs)
    blocks, _, tri, _ = inv.shape
    rows, cols = _upper(dim)
    lanes = _lane_bins(n_bins)
    y = np.asarray(obs, dtype=np.complex128)[lanes].view(np.float64)
    yy = y.reshape(-1, dim, 2).transpose(2, 1, 0).copy()  # (2, D, N)
    turned = yy[::-1] * -_TURN
    gain = np.broadcast_to(np.asarray(gain, dtype=np.float64), (n_bins,))
    s = (1.0 - alpha) * gain[lanes]
    planes = inv.transpose(1, 2, 0, 3).reshape(2, tri, -1)  # a copy, (2, tri, N)
    p = planes[:, _entries(dim)]  # p[:, b, a] = P_ab, as real and imaginary parts
    p[1] *= _signs(dim)
    # On stacked real and imaginary parts P y is Re(P) y + Im(P) (i y), and
    # x conj(z) is x Re(z) + turn(x) Im(z), turn(x) = (Im x, -Re x).
    with np.errstate(all="ignore"):
        u = np.add.reduce(p[0] * yy[:, :, None] + p[1] * turned[:, :, None], axis=1, initial=0.0)
        z = np.stack([u, yy]) * yy
        q, norm = np.add.reduce(z[:, 0] + z[:, 1], axis=1, initial=0.0)
        e = s * norm
        moved = e != 0.0  # a bin with s |y|^2 = 0 is left as it is
        c1 = np.where(moved, s / (alpha + s * q), 0.0)
        tau = trace.reshape(-1)
        tau[...] = np.where(moved, tau * alpha + e, tau)
        rho = np.where(e > 0.0, (1.0 - alpha) * diag_load * tau, 0.0)
        tau += rho
        a1 = c1 * u
        a1t = a1[::-1] * _TURN
        v = p[:, coord] - (a1 * u[0, coord] + a1t * u[1, coord])
        c2 = rho / (alpha + rho * v[0, coord])
        a2 = c2 * v
        a2t = a2[::-1] * _TURN
        diagonal = np.diagonal(_entries(dim))
        kept = planes[1, diagonal]  # never written
        # P - c1 u u^H - c2 v v^H on the upper entries (a, b), in place.
        for x, xt, w in ((a1, a1t, u[:, cols]), (a2, a2t, v[:, cols])):
            x, xt = x[:, rows], xt[:, rows]
            x *= w[0]
            xt *= w[1]
            x += xt
            planes -= x
        planes *= np.where(moved, 1.0 / alpha, 1.0)
        planes[1, diagonal] = kept
        inv[...] = planes.reshape(2, tri, blocks, LANES).transpose(2, 0, 1, 3)
    return int(np.count_nonzero(nonfinite_trace(inv, trace, n_bins)))


def solve_demixing_rows(
    inv: np.ndarray, trace: np.ndarray, prev_rows: np.ndarray
) -> tuple[np.ndarray, int]:
    """Rows P e_1 (1 / P_00) of every bin, from the planes ``inv`` of P.

    ``prev_rows`` is (K, D). Broken bins (``nonfinite_trace``) and bins
    whose row is not finite keep their previous row; the count of the
    latter, the skipped bins, is returned alongside the rows. The rows are
    the ``update`` kernel's bytes.
    """
    n_bins, dim = prev_rows.shape
    rows = np.empty((len(inv), LANES, dim, 2))
    rows[:, :, 0] = 1.0, 0.0
    with np.errstate(all="ignore"):
        rows[:, :, 1:] = (inv[:, :, 1:dim] * (1.0 / inv[:, np.newaxis, 0, :1] * _TURN)
                          ).transpose(0, 3, 2, 1)
    rows = rows.view(np.complex128).reshape(-1, dim)[:n_bins]
    broken = nonfinite_trace(inv, trace, n_bins)
    bad = ~np.isfinite(rows).all(axis=1) & ~broken
    return np.where((bad | broken)[:, np.newaxis], prev_rows, rows), int(bad.sum())


def compute_r1(rows: np.ndarray, obs: np.ndarray) -> float:
    """Cross-band output norm sqrt(sum_k |w^H y|^2) with the pre-update ``rows``,
    floored at ``R_FLOOR``."""
    return max(float(np.sqrt(np.sum(np.abs(demix_frame(rows, obs)) ** 2))), R_FLOOR)


def process_frame(state: AuxivaState, obs: np.ndarray) -> np.ndarray:
    """One online update with the frame's observations, returning E(k, n):
    one ``step`` call (weight, update, rows, demix into ``state.out``), then
    ``reset_broken`` if a bin broke. ``obs`` is any (K, D) array, packed
    into ``state.obs``, or ``state.obs`` itself as the engine passes it."""
    if obs is not state.obs:
        if np.shape(obs) != (state.n_bins, state.dim):
            raise ValueError(f"expected observations of shape ({state.n_bins}, {state.dim}), "
                             f"got {np.shape(obs)}")
        pack_observations(obs, state.obs)
    if _kernels.step(state.handle):
        reset_broken(state)
    return state.out.copy()


def reset_broken(state: AuxivaState) -> None:
    """Restart the broken bins (``nonfinite_trace``) from the prior and
    passthrough row, and demix ``state.obs`` into ``state.out`` again."""
    state.reset_bins(nonfinite_trace(state.inv, state.trace, state.n_bins))
    state.out[...] = demix_frame(state.rows, unpack_observations(state.obs, state.n_bins))
