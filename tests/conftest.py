"""Shared fixtures: small deterministic signals and scenes."""

import functools
from unittest import mock

import numpy as np
import pytest

from naec import auxiva
from naec.audio_io import AudioSignal
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


def kernel_ewma(lib, planes, obs, alpha, gain, stride):
    """``lib``'s EWMA kernel on the aligned ``planes`` in place, bin k weighted
    by ``gain[k * stride]``; returns its count of bins with a broken trace."""
    _assert_kernel_inputs(planes, obs, gain)
    n_bins, dim = obs.shape
    return lib.ewma(n_bins, dim, planes.ctypes.data, obs.ctypes.data, alpha,
                    gain.ctypes.data, stride)


def kernel_solve(lib, planes, prev, diag_load, obs=None):
    """``lib``'s row solve on the aligned ``planes``: the new (K, D) rows, the
    count of bins that kept ``prev``, and, given ``obs``, the frame demixed
    with the new rows (else None)."""
    rows = np.empty_like(prev)
    out = None if obs is None else np.empty(len(prev), dtype=np.complex128)
    frame = () if obs is None else (obs, out)
    _assert_kernel_inputs(planes, prev, *frame)
    skipped = lib.solve(*prev.shape, planes.ctypes.data, prev.ctypes.data, diag_load,
                        rows.ctypes.data, *([a.ctypes.data for a in frame] or [None, None]))
    return rows, skipped, out


def _assert_kernel_inputs(planes, *arrays):
    """The kernels take C-contiguous arrays of doubles and ALIGN-byte aligned planes."""
    assert planes.dtype == np.float64 and planes.ctypes.data % auxiva.ALIGN == 0
    for a in (planes, *arrays):
        assert a.flags.c_contiguous and a.dtype in (np.float64, np.complex128)


def kernel_gain(gain):
    """A scalar or per-bin gain as the EWMA kernel's buffer and stride."""
    gain = np.atleast_1d(np.asarray(gain, dtype=np.float64))
    return gain, int(gain.size > 1)


def ewma_dense(cov, obs, alpha, gain):
    """The EWMA on (K, D, D) ``cov``, in place through the planes: the loaded
    kernel, or ``ewma_covariance_update`` inside ``numpy_path``."""
    planes = auxiva.pack_covariance(cov)
    if auxiva._kernels is None:
        broken = auxiva.ewma_covariance_update(planes, obs, alpha, gain)
    else:
        broken = kernel_ewma(auxiva._kernels, planes, obs, alpha, *kernel_gain(gain))
    cov[...] = auxiva.unpack_covariance(planes, len(cov))
    return broken


def solve_dense(cov, prev_rows, diag_load):
    """The row solve on (K, D, D) ``cov``: the loaded kernel, or
    ``solve_demixing_rows`` inside ``numpy_path``; returns (rows, skipped)."""
    planes = auxiva.pack_covariance(cov)
    if auxiva._kernels is None:
        return auxiva.solve_demixing_rows(planes, prev_rows, diag_load)
    return kernel_solve(auxiva._kernels, planes, prev_rows, diag_load)[:2]


def numpy_path():
    """Context in which ``naec.auxiva`` runs its numpy code, as with no C compiler."""
    return mock.patch.object(auxiva, "_kernels", None)


def on_both_paths(test):
    """Run ``test`` on the compiled kernels (when loaded), then on the numpy path."""

    @functools.wraps(test)
    def run(*args, **kwargs):
        test(*args, **kwargs)
        with numpy_path():
            test(*args, **kwargs)

    return run


def fft_plan(lib, n):
    """``lib``'s twiddle plan of an n-point real FFT, as the engine builds it."""
    plan = auxiva.aligned_zeros(lib.fft_plan(n, None))
    lib.fft_plan(n, plan.ctypes.data)
    return plan


def engine_rfft(x, lib=None):
    """The real FFT over the last axis that an engine built now frames with:
    ``lib``'s (by default the loaded kernels') ``rfft``, or ``np.fft.rfft``
    inside ``numpy_path``."""
    lib = auxiva._kernels if lib is None else lib
    if lib is None:
        return np.fft.rfft(x)
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.shape[-1]
    rows = x.reshape(-1, n)
    out = np.empty((len(rows), n // 2 + 1), dtype=np.complex128)
    plan = fft_plan(lib, n)
    lib.rfft(n, len(rows), plan.ctypes.data, rows.ctypes.data, out.ctypes.data)
    return out.reshape(*x.shape[:-1], n // 2 + 1)


def engine_irfft(spec, n, lib=None):
    """The inverse of ``engine_rfft`` to n samples over the last axis:
    ``lib``'s ``irfft`` row by row, or ``np.fft.irfft`` inside ``numpy_path``."""
    lib = auxiva._kernels if lib is None else lib
    if lib is None:
        return np.fft.irfft(spec, n=n)
    spec = np.ascontiguousarray(spec, dtype=np.complex128)
    rows = spec.reshape(-1, spec.shape[-1])
    out = np.empty((len(rows), n))
    plan = fft_plan(lib, n)
    for row, x in zip(rows, out):
        lib.irfft(n, plan.ctypes.data, row.ctypes.data, x.ctypes.data)
    return out.reshape(*spec.shape[:-1], n)
