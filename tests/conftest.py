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


def ewma_dense(cov, obs, alpha, gain):
    """``ewma_covariance_update`` on (K, D, D) ``cov``, in place through the planes."""
    planes = auxiva.pack_covariance(cov)
    broken = auxiva.ewma_covariance_update(planes, obs, alpha, gain)
    cov[...] = auxiva.unpack_covariance(planes, len(cov))
    return broken


def solve_dense(cov, prev_rows, diag_load):
    """``solve_demixing_rows`` on (K, D, D) ``cov``."""
    return auxiva.solve_demixing_rows(auxiva.pack_covariance(cov), prev_rows, diag_load)


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
