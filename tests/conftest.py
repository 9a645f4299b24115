"""Shared fixtures: small deterministic signals and scenes."""

import ctypes

import numpy as np
import pytest

from naec import auxiva
from naec.audio_io import AudioSignal
from naec.ctf import passthrough_row
from naec.sim import (
    NonlinearitySpec,
    RoomSpec,
    SceneSpec,
    speech_like,
    synthesize_scene,
    white_noise,
)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def short_noise():
    return white_noise(0.5, seed=3, level=0.1)


@pytest.fixture
def short_speech():
    return speech_like(1.0, seed=5, level=0.2)


@pytest.fixture(scope="session")
def small_scene():
    """2 s single-talk clipped scene in a moderately live room."""
    spec = SceneSpec(
        far_end=speech_like(2.0, seed=8, level=0.3),
        room=RoomSpec(t60=0.25, rir_length=2048),
        nonlinearity=NonlinearitySpec(kind="hard_clip", clip_ratio=0.3),
        snr_db=40.0,
        seed=17,
    )
    return spec, synthesize_scene(spec)


def random_hpd(rng, dim, n_bins=1):
    """Random Hermitian positive-definite matrices, shape (n_bins, dim, dim)."""
    a = rng.standard_normal((n_bins, dim, dim)) + 1j * rng.standard_normal(
        (n_bins, dim, dim)
    )
    mats = np.einsum("kij,klj->kil", a, a.conj())
    idx = np.arange(dim)
    mats[:, idx, idx] += 0.1
    return mats


@pytest.fixture
def signal_pair(short_noise):
    mic = AudioSignal(short_noise.samples * 0.5)
    return short_noise, mic


def kernel_update(lib, planes, trace, obs, alpha, gain, diag_load, coord, rows):
    """``lib``'s update kernel on the aligned ``planes`` of P and ``trace`` in
    place, weighted by ``gain``, a scalar or K of them, padded as
    ``trace_buffer`` pads, on coordinate ``coord``, with the (K, D) ``rows``
    read as the previous rows and overwritten; returns its broken count, its
    skipped count and the frame demixed with the new rows. The (K, D)
    ``obs`` and ``rows`` go to the kernel as their planes (``pack_observations``),
    and every buffer through a ``KernelState`` of their addresses."""
    n_bins, dim = obs.shape
    obs_planes, row_planes = auxiva.pack_observations(obs), auxiva.pack_observations(rows)
    out = auxiva.aligned_zeros((auxiva.padded_bins(n_bins), 2)).view(np.complex128)[:, 0]
    gain = trace_buffer(gain, n_bins)
    work = auxiva.aligned_zeros((6 * dim, auxiva.LANES))
    channel = np.arange(dim, dtype=np.dtype(ctypes.c_long))  # the planes in channel order
    _assert_kernel_inputs(planes, trace, gain)
    buffers = {"inv": planes, "trace": trace, "obs": obs_planes, "channel": channel,
               "gain": gain, "rows": row_planes, "out": out, "work": work}
    kernel = auxiva.KernelState(n_bins=n_bins, dim=dim, alpha=alpha, diag_load=diag_load,
                                frames=coord, **{k: a.ctypes.data for k, a in buffers.items()})
    broken = lib.update(ctypes.addressof(kernel))
    assert kernel.frames == coord  # step counts the frame
    rows[...] = auxiva.unpack_observations(row_planes, n_bins)
    return broken, kernel.skipped_bins, out[:n_bins]


def _assert_kernel_inputs(planes, *arrays):
    """The kernels take C-contiguous arrays of doubles and ALIGN-byte aligned planes."""
    assert planes.dtype == np.float64 and planes.ctypes.data % auxiva.ALIGN == 0
    for a in (planes, *arrays):
        assert a.flags.c_contiguous and a.dtype in (np.float64, np.complex128)


def aligned_copy(a):
    """An ``ALIGN``-byte aligned copy of the float64 array ``a``, as the kernels take."""
    out = auxiva.aligned_zeros(a.shape)
    out[...] = a
    return out


def trace_buffer(trace, n_bins):
    """The traces ``trace`` (a scalar or K of them) padded as ``AuxivaState.trace``."""
    out = auxiva.aligned_zeros(auxiva.padded_bins(n_bins))
    out[...] = np.broadcast_to(trace, (n_bins,))[auxiva._lane_bins(n_bins)]
    return out


def update_planes(planes, trace, obs, alpha, gain, diag_load, coord, prev_rows):
    """One update of the planes of P and the padded ``trace`` in place by the
    loaded kernel; returns (broken, rows, skipped)."""
    rows = np.array(prev_rows, dtype=np.complex128)
    broken, skipped, _ = kernel_update(auxiva._kernels, planes, trace, obs, alpha, gain,
                                       diag_load, coord, rows)
    return broken, rows, skipped


def update_dense(inv, trace, obs, alpha, gain, diag_load=1e-6, coord=1):
    """``update_planes`` on (K, D, D) ``inv`` and K traces, both in place; returns (broken, rows)."""
    n_bins, dim = obs.shape
    planes, padded = auxiva.pack_covariance(inv), trace_buffer(trace, n_bins)
    prev = np.tile(passthrough_row(dim), (n_bins, 1))
    broken, rows, _ = update_planes(planes, padded, obs, alpha, gain, diag_load, coord, prev)
    inv[...] = auxiva.unpack_covariance(planes, n_bins)
    trace[...] = padded[:n_bins]
    return broken, rows


def rows_of(inv, prev_rows, trace=1.0):
    """The rows that an update leaving P as it is reads from (K, D, D) ``inv``
    (alpha = 1, gain 0, zero observations), and the skipped count."""
    obs = np.zeros(prev_rows.shape, dtype=np.complex128)
    planes, padded = auxiva.pack_covariance(inv), trace_buffer(trace, len(inv))
    return update_planes(planes, padded, obs, 1.0, 0.0, 1e-6, 1, prev_rows)[1:]


def fft_plan(lib, n):
    """``lib``'s twiddle plan of an n-point real FFT, as the engine builds it."""
    plan = auxiva.aligned_zeros(lib.fft_plan(n, None))
    lib.fft_plan(n, plan.ctypes.data)
    return plan


def engine_rfft(x, lib=None):
    """The real FFT over the last axis that an engine frames with: ``lib``'s
    (by default the loaded kernels') ``rfft``, through its windowed load with
    a window of ones, which leaves every sample's bits as they are."""
    lib = lib or auxiva._kernels
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.shape[-1]
    rows = x.reshape(-1, n)
    planes = np.empty((len(rows), 2, n // 2 + 1))
    plan, ones = fft_plan(lib, n), np.ones(n)
    lib.rfft(n, len(rows), plan.ctypes.data, ones.ctypes.data, rows.ctypes.data,
             planes.ctypes.data)
    out = np.empty((len(rows), n // 2 + 1), dtype=np.complex128)
    out.real, out.imag = planes[:, 0], planes[:, 1]
    return out.reshape(*x.shape[:-1], n // 2 + 1)


def engine_irfft(spec, n, lib=None):
    """The inverse of ``engine_rfft`` to n samples over the last axis:
    ``lib``'s ``irfft`` row by row."""
    lib = lib or auxiva._kernels
    spec = np.ascontiguousarray(spec, dtype=np.complex128)
    rows = spec.reshape(-1, spec.shape[-1])
    out = np.empty((len(rows), n))
    plan = fft_plan(lib, n)
    for row, x in zip(rows, out):
        lib.irfft(n, plan.ctypes.data, row.ctypes.data, x.ctypes.data)
    return out.reshape(*spec.shape[:-1], n)
