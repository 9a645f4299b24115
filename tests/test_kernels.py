"""The compiled per-bin kernels against the numpy code they replace, and their build."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import naec
from conftest import numpy_path, random_hpd
from naec import AudioSignal, auxiva
from naec.ilrma import IlrmaState

SRC = Path(__file__).resolve().parent.parent / "src"
needs_kernels = pytest.mark.skipif(auxiva._kernels is None, reason="no compiled kernels")

# Runs the default engine on saved (far, mic) samples in a fresh interpreter.
RUN_SAVED = """
import sys, numpy as np, naec
far, mic = (naec.AudioSignal(x) for x in np.load(sys.argv[1]))
out, _ = naec.run(far, mic)
np.save(sys.argv[2], out.samples)
print(naec.auxiva._kernels is None)
"""


def test_kernels_loaded_when_a_compiler_is_found():
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    assert auxiva._kernels is not None


def test_failed_build_gives_no_kernels(tmp_path):
    assert auxiva.build_kernels(tmp_path, cc="naec-no-such-compiler") is None
    assert list(tmp_path.iterdir()) == []  # the temporary output is removed
    (tmp_path / "file").write_text("")
    assert auxiva.build_kernels(tmp_path / "file" / "cache") is None  # unwritable


def test_import_without_compiler_runs_the_numpy_path(tmp_path):
    """A package copy with no cached kernel and no ``cc`` on PATH imports and
    gives the numpy path's output byte for byte."""
    shutil.copytree(SRC / "naec", tmp_path / "naec",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "bin").mkdir()
    rng = np.random.default_rng(7)
    far = 0.3 * rng.standard_normal(8000)
    mic = np.tanh(2.0 * far) + 0.01 * rng.standard_normal(8000)
    np.save(tmp_path / "in.npy", np.stack([far, mic]))
    env = {**os.environ, "PYTHONPATH": str(tmp_path), "PATH": str(tmp_path / "bin")}
    proc = subprocess.run(
        [sys.executable, "-c", RUN_SAVED, str(tmp_path / "in.npy"), str(tmp_path / "out.npy")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "True"
    assert not list((tmp_path / "naec" / "__pycache__").glob("*.so"))
    with numpy_path():
        expected, _ = naec.run(AudioSignal(far), AudioSignal(mic))
    assert np.load(tmp_path / "out.npy").tobytes() == expected.samples.tobytes()


def _ewma_both(cov, obs, alpha, gain):
    """EWMA of copies of ``cov`` on the kernels and on the numpy path."""
    got, expected = cov.copy(), cov.copy()
    auxiva.ewma_covariance_update(got, obs, alpha, gain)
    with numpy_path():
        auxiva.ewma_covariance_update(expected, obs, alpha, gain)
    return got, expected


@needs_kernels
@pytest.mark.parametrize("gain", ["float", "0-d", "numpy-scalar", "(1,)", "per-bin"])
@pytest.mark.parametrize("n_bins", [1, 64])
def test_ewma_gain_shapes_match_numpy(rng, gain, n_bins):
    """A 0-d gain is shared by all bins: the kernel must not step through it."""
    cov = random_hpd(rng, 5, n_bins)
    obs = rng.standard_normal((n_bins, 5)) + 1j * rng.standard_normal((n_bins, 5))
    value = {
        "float": 2.5,
        "0-d": np.array(2.5),
        "numpy-scalar": np.float64(2.5),
        "(1,)": np.array([2.5]),
        "per-bin": rng.uniform(0.1, 3.0, n_bins),
    }[gain]
    got, expected = _ewma_both(cov, obs, 0.9, value)
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)


@needs_kernels
def test_kernels_take_non_contiguous_inputs(rng):
    k, d = 9, 4
    cov = random_hpd(rng, d, 2 * k)
    obs = (rng.standard_normal((k, 2 * d)) + 1j * rng.standard_normal((k, 2 * d)))[:, ::2]
    got, expected = _ewma_both(cov[:k], obs, 0.95, 1.7)
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)
    prev = np.tile(np.eye(1, 2 * d, dtype=complex), (k, 1))[:, ::2]
    rows, skipped = auxiva.solve_demixing_rows(cov[::2], prev, 1e-6)
    with numpy_path():
        expected_rows, _ = auxiva.solve_demixing_rows(cov[::2], prev, 1e-6)
    assert skipped == 0
    np.testing.assert_allclose(rows, expected_rows, rtol=1e-12, atol=0)


@needs_kernels
@pytest.mark.parametrize("dim", [4, 10, 19])
@pytest.mark.parametrize("state_type", [auxiva.AuxivaState, IlrmaState],
                         ids=["auxiva", "ilrma"])
def test_process_frame_paths_agree_over_300_frames(rng, dim, state_type):
    n_bins = 65
    compiled, reference = state_type(n_bins, dim), state_type(n_bins, dim)
    for _ in range(300):
        obs = rng.standard_normal((n_bins, dim)) + 1j * rng.standard_normal((n_bins, dim))
        auxiva.process_frame(compiled, obs)
        with numpy_path():
            auxiva.process_frame(reference, obs)
    err = np.linalg.norm(compiled.rows - reference.rows) / np.linalg.norm(reference.rows)
    assert err <= 1e-12, err
    assert compiled.skipped_bins == reference.skipped_bins == 0
