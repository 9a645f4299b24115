"""The compiled per-bin kernels against their numpy oracles, and their build."""

import contextlib
import ctypes
import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import naec
import oracles
from conftest import (
    aligned_copy,
    engine_irfft,
    engine_rfft,
    fft_plan,
    kernel_update,
    random_hpd,
    trace_buffer,
    update_planes,
)
from naec import AudioSignal, auxiva
from naec.auxiva import (
    ALIGN,
    LANES,
    pack_covariance,
    pack_observations,
    padded_bins,
    unpack_covariance,
    unpack_observations,
)
from naec.ctf import CtfConfig, demix_frame, passthrough_row
from naec.ilrma import IlrmaState
from naec.pipeline import EngineConfig, KernelEngine, StreamingEngine, run_streaming
from naec.stft import StftConfig

SRC = Path(__file__).resolve().parent.parent / "src"

OPTIMIZERS = ("auxiva", "ilrma")

# Runs the default engine with each optimizer on saved (far, mic) samples in
# a fresh interpreter and prints the path the kernels were loaded from.
RUN_SAVED = f"""
import sys, numpy as np, naec
far, mic = (naec.AudioSignal(x) for x in np.load(sys.argv[1]))
outs = [naec.run(far, mic, naec.EngineConfig(optimizer=o))[0].samples for o in {OPTIMIZERS}]
np.save(sys.argv[2], np.stack(outs))
print(naec.auxiva._kernels._name)
"""


def _package_copy(tmp_path):
    """A copy of the package without its cache, and a saved (far, mic) pair."""
    shutil.copytree(SRC / "naec", tmp_path / "naec",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rng = np.random.default_rng(7)
    far = 0.3 * rng.standard_normal(8000)
    mic = np.tanh(2.0 * far) + 0.01 * rng.standard_normal(8000)
    np.save(tmp_path / "in.npy", np.stack([far, mic]))
    return far, mic


def _run_saved(tmp_path, **env):
    return subprocess.run(
        [sys.executable, "-c", RUN_SAVED, str(tmp_path / "in.npy"), str(tmp_path / "out.npy")],
        env={**os.environ, "PYTHONPATH": str(tmp_path), **env}, cwd=tmp_path,
        capture_output=True, text=True, timeout=120)


def test_kernels_loaded_when_a_compiler_is_found():
    """The package's kernels are the cached build of its source and flags."""
    digest = hashlib.sha256(auxiva.KERNEL_SOURCE.read_bytes()
                            + " ".join(auxiva.KERNEL_FLAGS).encode()).hexdigest()
    cached = auxiva.KERNEL_SOURCE.parent / "__pycache__" / f"kernels-{digest}.so"
    assert Path(auxiva._kernels._name) == cached and cached.exists()


def test_failed_build_raises_import_error_naming_the_compiler(tmp_path):
    """A missing compiler, or one that fails, raises ImportError with the
    compiler command and its stderr, and leaves no temporary output."""
    with pytest.raises(ImportError, match="naec-no-such-compiler"):
        auxiva.build_kernels(tmp_path / "cache", cc="naec-no-such-compiler")
    assert list((tmp_path / "cache").iterdir()) == []
    failing = tmp_path / "failing-cc"
    failing.write_text("#!/bin/sh\necho 'no vector extensions here' >&2\nexit 1\n")
    failing.chmod(0o755)
    with pytest.raises(ImportError, match=f"(?s){failing}.*no vector extensions here"):
        auxiva.build_kernels(tmp_path / "cache", cc=str(failing))
    assert list((tmp_path / "cache").iterdir()) == []


def test_import_without_compiler_raises_import_error(tmp_path):
    """A package copy with no cached kernel and no ``cc`` on PATH does not
    import: ``import naec`` raises ImportError naming the compiler."""
    _package_copy(tmp_path)
    (tmp_path / "bin").mkdir()
    proc = _run_saved(tmp_path, PATH=str(tmp_path / "bin"))
    assert proc.returncode != 0
    assert re.search(r"ImportError: naec needs a C compiler.*`cc -O2", proc.stderr), proc.stderr
    assert not list((tmp_path / "naec" / "__pycache__").glob("*.so"))
    assert not (tmp_path / "out.npy").exists()


def test_unwritable_cache_builds_working_kernels(tmp_path):
    """A package copy whose ``__pycache__`` cannot be written (a file stands
    in its place) still imports: it builds in a private temporary directory,
    removed once the library is loaded, and its engine gives the loaded
    kernels' output byte for byte, with either optimizer."""
    far, mic = _package_copy(tmp_path)
    (tmp_path / "naec" / "__pycache__").write_text("")
    proc = _run_saved(tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded_from = Path(proc.stdout.strip())
    assert loaded_from.name == Path(auxiva._kernels._name).name
    assert not loaded_from.exists() and not loaded_from.parent.exists()
    expected = [naec.run(AudioSignal(far), AudioSignal(mic),
                         naec.EngineConfig(optimizer=o))[0].samples for o in OPTIMIZERS]
    assert np.load(tmp_path / "out.npy").tobytes() == np.stack(expected).tobytes()


def test_fresh_build_prunes_stale_kernels(tmp_path):
    """A fresh build removes the other ``kernels-*.so`` of its cache and
    loads; a cache hit leaves the directory as it is."""
    (tmp_path / "kernels-stale.so").write_bytes(b"")
    (tmp_path / "other.so").write_bytes(b"")
    lib = auxiva.build_kernels(tmp_path)
    built = Path(lib._name)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["other.so", built.name])
    assert lib.layout((ctypes.c_long * 64)()) > 0
    (tmp_path / "kernels-stale.so").write_bytes(b"")
    assert Path(auxiva.build_kernels(tmp_path)._name) == built
    assert (tmp_path / "kernels-stale.so").exists()


def _unaligned_copy(a):
    """A copy of ``a`` 8 bytes off ``ALIGN``, which the kernels cannot take."""
    raw = np.empty(a.nbytes + ALIGN, dtype=np.uint8)
    start = (8 - raw.ctypes.data) % ALIGN
    out = raw[start : start + a.nbytes].view(a.dtype).reshape(a.shape)
    out[...] = a
    return out


def _strided_copy(a):
    """A non-contiguous view holding the values of ``a``."""
    return np.repeat(a, 2, axis=0)[::2]


def _inverse_inputs(rng, n_bins, dim):
    """Planes of random Hermitian positive-definite P (diagonal imaginary
    parts 0, as the update keeps them), their padded traces tr(P^-1), random
    observations and random previous rows."""
    cov = random_hpd(rng, dim, n_bins)
    inv = np.linalg.inv(cov)
    inv[:, range(dim), range(dim)] = inv[:, range(dim), range(dim)].real
    obs = rng.standard_normal((n_bins, dim)) + 1j * rng.standard_normal((n_bins, dim))
    prev = rng.standard_normal((n_bins, dim)) + 1j * rng.standard_normal((n_bins, dim))
    return pack_covariance(inv), trace_buffer(np.einsum("kdd->k", cov).real, n_bins), obs, prev


def _numpy_update(planes, trace, obs, alpha, gain, diag_load, coord, prev):
    """The numpy twin of one ``update`` call: (broken, rows, skipped, out)."""
    broken = auxiva.ewma_covariance_update(planes, trace, obs, alpha, gain, diag_load, coord)
    rows, skipped = auxiva.solve_demixing_rows(planes, trace, prev)
    return broken, rows, skipped, demix_frame(rows, obs)


@pytest.mark.parametrize("gain", ["float", "0-d", "numpy-scalar", "(1,)", "per-bin"])
@pytest.mark.parametrize("n_bins", [1, 64])
def test_ewma_gain_shapes_match_numpy(rng, gain, n_bins):
    """The numpy update takes a shared gain in any scalar shape, or one per
    bin, on planes and observations of any layout, and gives the planes,
    traces and rows of the kernel with that gain, padded, byte for byte:
    both do the same real operations in the same order."""
    planes, trace, obs, prev = _inverse_inputs(rng, n_bins, 5)
    value = {
        "float": 2.5,
        "0-d": np.array(2.5),
        "numpy-scalar": np.float64(2.5),
        "(1,)": np.array([2.5]),
        "per-bin": rng.uniform(0.1, 3.0, n_bins),
    }[gain]
    got, got_trace, rows = aligned_copy(planes), aligned_copy(trace), prev.copy()
    assert kernel_update(auxiva._kernels, got, got_trace, obs, 0.9, value, 1e-3, 3,
                         rows)[:2] == (0, 0)
    for p, y, r in ((aligned_copy(planes), obs, prev),
                    (_unaligned_copy(planes), _strided_copy(obs), _strided_copy(prev))):
        t = aligned_copy(trace)
        broken, expected, skipped, _ = _numpy_update(p, t, y, 0.9, value, 1e-3, 3, r)
        assert (broken, skipped) == (0, 0)
        assert p.tobytes() == got.tobytes() and t.tobytes() == got_trace.tobytes()
        assert expected.tobytes() == rows.tobytes()
    assert np.isfinite(got).all()


def _assert_padding_follows_the_last_bin(gain, n_bins):
    bits = gain.view(np.int64)
    assert not np.isnan(gain).any() and (bits[n_bins:] == bits[n_bins - 1]).all()


@pytest.mark.parametrize("n_bins", [9, 513])
def test_weight_fills_every_lane_of_the_gain(rng, n_bins):
    """``update`` reads each block's weights as one vector, so ``weight``
    writes every lane of ``gain``, padding included, over a buffer of NaN:
    AuxIVA the same Phi(r1) bits into each lane, and ILRMA 1 / r1 with bin
    K - 1's bits in the padding lanes, within ``step``, on the frame whose
    ``step`` resets bin K - 1 and after it, and alone."""
    dim = 4
    frames = rng.standard_normal((6, n_bins, dim)) + 1j * rng.standard_normal((6, n_bins, dim))
    state = auxiva.AuxivaState(n_bins, dim)
    state.rows = frames[0]
    state.gain[...] = np.nan
    assert _weight(auxiva._kernels, state, frames[1]) == 1
    bits = state.gain.view(np.int64)
    assert np.isfinite(state.gain[0]) and (bits == bits[0]).all()
    state = IlrmaState(n_bins, dim)
    frames[4, n_bins - 1, 0] = 1e200  # overflows bin K - 1's |e|^2 and trace
    for n, frame in enumerate(frames):
        state.gain[...] = np.nan
        with np.errstate(all="ignore"):
            auxiva.process_frame(state, frame)
        assert state.broken_bins == (n >= 4)
        if n == 4:
            assert state.rows[n_bins - 1].tobytes() == passthrough_row(dim).tobytes()
        _assert_padding_follows_the_last_bin(state.gain, n_bins)
    state.gain[...] = np.nan
    assert _weight(auxiva._kernels, state, frames[0]) == 1
    _assert_padding_follows_the_last_bin(state.gain, n_bins)


@pytest.mark.parametrize("dim", [4, 10, 19])
@pytest.mark.parametrize("state_type", [auxiva.AuxivaState, IlrmaState],
                         ids=["auxiva", "ilrma"])
def test_process_frame_paths_agree_over_300_frames(rng, dim, state_type):
    """The compiled ``process_frame`` follows the numpy driver of
    ``oracles`` to rounding over 300 frames."""
    n_bins = 65
    compiled, reference = state_type(n_bins, dim), state_type(n_bins, dim)
    for _ in range(300):
        obs = rng.standard_normal((n_bins, dim)) + 1j * rng.standard_normal((n_bins, dim))
        auxiva.process_frame(compiled, obs)
        oracles.process_frame(reference, obs)
    err = np.linalg.norm(compiled.rows - reference.rows) / np.linalg.norm(reference.rows)
    assert err <= 1e-12, err
    assert compiled.skipped_bins == reference.skipped_bins == 0


LANE_BINS = [1, 7, 8, 9, 513]  # one lane, a short block, a full block, a tail, the engine's K
LANE_DIMS = [2, 4, 10, 19, 22]  # update is compiled with D a constant at 4, a variable else


def _per_lane(planes):
    """(lanes, 2, entries): each lane's real and imaginary entries."""
    return planes.transpose(0, 3, 1, 2).reshape(-1, 2, planes.shape[2])


@pytest.mark.parametrize("dim", LANE_DIMS)
@pytest.mark.parametrize("n_bins", LANE_BINS)
def test_pack_unpack_is_exact_and_hermitian(rng, n_bins, dim):
    """Unpacking gives back an exactly Hermitian input bit for bit, packing its
    output gives back the planes, and the lanes of a short last block hold
    copies of the last bin."""
    upper = np.triu(random_hpd(rng, dim, n_bins))
    idx = np.arange(dim)
    upper[:, idx, idx] = upper[:, idx, idx].real
    cov = upper + np.triu(upper, 1).conj().transpose(0, 2, 1)
    planes = pack_covariance(cov)
    back = unpack_covariance(planes, n_bins)
    assert back.tobytes() == cov.tobytes()
    assert np.array_equal(back, back.conj().transpose(0, 2, 1))
    assert pack_covariance(back).tobytes() == planes.tobytes()
    lanes = _per_lane(planes)
    assert len(lanes) == -(-n_bins // LANES) * LANES
    for pad in lanes[n_bins:]:
        assert pad.tobytes() == lanes[n_bins - 1].tobytes()


# (K, D): the engine's at the five FRAMINGS of test_pipeline.py, then a K
# below one block, one whole block and one with K mod LANES = 4.
PLANE_SIZES = [(513, 4), (513, 10), (33, 13), (513, 3), (513, 7), (7, 10), (8, 4), (12, 19)]


@pytest.mark.parametrize("n_bins, dim", PLANE_SIZES)
def test_observation_planes_round_trip(rng, n_bins, dim):
    """``pack_observations`` lays (K, D) observations or rows out as aligned
    (D, 2, padded K) planes, each channel's real parts and then its imaginary
    parts, with bin K - 1 in the padding lanes; ``unpack_observations`` gives
    the input back byte for byte, signed zeros included; and a state's
    ``rows`` writes and reads its row planes the same way."""
    obs = _flush_like(rng, n_bins, dim)
    planes = pack_observations(obs)
    assert planes.shape == (dim, 2, padded_bins(n_bins)) and planes.ctypes.data % ALIGN == 0
    assert planes[:, 0, :n_bins].tobytes() == np.ascontiguousarray(obs.real.T).tobytes()
    assert planes[:, 1, :n_bins].tobytes() == np.ascontiguousarray(obs.imag.T).tobytes()
    for pad in range(n_bins, padded_bins(n_bins)):
        assert planes[..., pad].tobytes() == planes[..., n_bins - 1].tobytes()
    assert unpack_observations(planes, n_bins).tobytes() == obs.tobytes()
    state = auxiva.AuxivaState(n_bins, dim)
    state.rows = obs
    assert state.row_planes.tobytes() == planes.tobytes()
    assert state.rows.tobytes() == obs.tobytes()


@pytest.mark.parametrize("optimizer", ["auxiva", "ilrma"])
@pytest.mark.parametrize("window_len", [256, 1024, 4096])
def test_engine_planes_are_aligned(optimizer, window_len):
    """Every state the engine builds holds ALIGN-byte aligned planes and
    traces, which the kernels take in place."""
    for order_p in (1, 3, 5):
        for frames_l in range(1, 7):
            config = EngineConfig(optimizer=optimizer,
                                  stft=StftConfig(window_len=window_len, hop=window_len // 4),
                                  ctf=CtfConfig(frames_l=frames_l, order_p=order_p))
            state = StreamingEngine(config)._state
            for buffer in (state.inv, state.trace):
                assert buffer.ctypes.data % ALIGN == 0 and buffer.flags.c_contiguous
            assert state.inv.shape == (-(-state.n_bins // LANES), 2,
                                       state.dim * (state.dim + 1) // 2, LANES)
            assert state.trace.shape == (padded_bins(state.n_bins),)


@pytest.mark.parametrize("dim", [4, 10])
@pytest.mark.parametrize("state_type", [auxiva.AuxivaState, IlrmaState],
                         ids=["auxiva", "ilrma"])
def test_bin_reset_after_overflow_gives_the_prior_row(rng, dim, state_type):
    """A bin whose trace overflows returns to the prior P = I / 1e-3, its
    trace to D * 1e-3 and its row to the passthrough row byte for byte, and
    its output is the microphone entry, in ``process_frame`` and in the
    numpy driver of ``oracles``. The reset covers the last bin, whose
    copies fill the short last block. In the kernel's ILRMA model the
    padding lanes of the basis, the variance and the gain still hold bin
    K - 1's values a few frames later (the numpy driver's NMF updates write
    only the K bins)."""
    n_bins, burst_bins = 9, [3, 8]

    def frame():
        return rng.standard_normal((n_bins, dim)) + 1j * rng.standard_normal((n_bins, dim))

    for process_frame in (auxiva.process_frame, oracles.process_frame):
        state = state_type(n_bins, dim)
        for _ in range(5):
            process_frame(state, frame())
        obs = frame()
        obs[burst_bins, 0] = 1e200
        out = process_frame(state, obs)
        for k in burst_bins:
            assert state.rows[k].tobytes() == passthrough_row(dim).tobytes()
            assert out[k] == obs[k, 0]
        np.testing.assert_array_equal(state.inverse[burst_bins],
                                      np.broadcast_to(np.eye(dim) / 1e-3, (2, dim, dim)))
        np.testing.assert_array_equal(state.trace[burst_bins], dim * 1e-3)
        lanes = _per_lane(state.inv)
        for pad in lanes[n_bins:]:
            assert pad.tobytes() == lanes[n_bins - 1].tobytes()
        assert (state.trace[n_bins:] == state.trace[n_bins - 1]).all()
        if state_type is IlrmaState and process_frame is auxiva.process_frame:
            for _ in range(3):
                process_frame(state, frame())
            for buffer in (state.model.basis, state.model.variance, state.gain):
                assert (buffer[n_bins:] == buffer[n_bins - 1]).all(), buffer


@pytest.mark.parametrize("dim", LANE_DIMS)
@pytest.mark.parametrize("n_bins", LANE_BINS)
def test_solve_over_all_bins_equals_one_bin_calls(rng, n_bins, dim):
    """Each lane is one bin's scalar update: block position and block-mates
    change no bit of its planes, trace, row or output; and the numpy twin
    gives the kernel's bytes for every bin (planes, trace, rows and output),
    so its rows do not depend on the number of bins either. A bin with a
    zero observation or gain keeps its planes and trace."""
    planes, trace, obs, prev = _inverse_inputs(rng, n_bins, dim)
    gain = rng.uniform(0.1, 3.0, n_bins)
    obs[3::5], gain[4::5] = 0.0, 0.0
    coord = n_bins % dim
    got, got_trace, rows = aligned_copy(planes), aligned_copy(trace), prev.copy()
    *counts, out = kernel_update(auxiva._kernels, got, got_trace, obs, 0.99, gain, 1e-6, coord,
                                 rows)
    assert counts == [0, 0]
    for k in [*range(3, n_bins, 5), *range(4, n_bins, 5)]:
        assert _per_lane(got)[k].tobytes() == _per_lane(planes)[k].tobytes()
        assert got_trace[k] == trace[k]
    inv = unpack_covariance(planes, n_bins)
    for k in range(n_bins):
        one, one_trace, one_rows = (pack_covariance(inv[k : k + 1]), trace_buffer(trace[k], 1),
                                    prev[k : k + 1].copy())
        kernel_update(auxiva._kernels, one, one_trace, obs[k : k + 1], 0.99, gain[k : k + 1],
                      1e-6, coord, one_rows)
        assert _per_lane(one)[0].tobytes() == _per_lane(got)[k].tobytes()
        assert one_trace[0] == got_trace[k] and one_rows.tobytes() == rows[k].tobytes()
    broken, numpy_rows, skipped, numpy_out = _numpy_update(planes, trace, obs, 0.99, gain, 1e-6,
                                                           coord, prev)
    assert (broken, skipped) == (0, 0)
    assert planes.tobytes() == got.tobytes() and trace.tobytes() == got_trace.tobytes()
    assert numpy_rows.tobytes() == rows.tobytes() and numpy_out.tobytes() == out.tobytes()


@pytest.mark.parametrize("per_bin", [False, True], ids=["auxiva", "ilrma"])
def test_kept_rows_demix_the_frame_as_the_numpy_update(rng, per_bin):
    """In a full block and in the short last block, the update keeps the
    previous row of a broken lane (a 1e200 burst overflows its trace) and of
    a skipped one (its P gives an overflowing row, and an observation whose
    |y|^2 underflows leaves P as it is) and demixes the frame with it: the
    rows, the output and the counts are the numpy twin's bytes, under
    AuxIVA's shared weight and ILRMA's per-bin one. So do ``process_frame``
    and the numpy driver of ``oracles``, with either optimizer, for the
    skipped lanes."""
    n_bins, dim = 13, 4  # blocks of bins 0-7 and 8-12
    planes, trace, obs, prev = _inverse_inputs(rng, n_bins, dim)
    broken_bins, skipped_bins = [3, 11], [5, 12]
    for k in skipped_bins:
        planes[k // LANES, 0, [0, dim - 1], k % LANES] = 1e-300, 1e200
    obs[skipped_bins] *= 1e-200
    burst = obs.copy()
    burst[broken_bins, 1] = 1e200
    gain = rng.uniform(0.1, 3.0, n_bins) if per_bin else 1.0
    rows = prev.copy()
    got = kernel_update(auxiva._kernels, aligned_copy(planes), aligned_copy(trace), burst, 0.99,
                        gain, 1e-6, 1, rows)
    with np.errstate(all="ignore"):
        expected = _numpy_update(aligned_copy(planes), aligned_copy(trace), burst, 0.99, gain,
                                 1e-6, 1, prev)
    assert got[:2] == (expected[0], expected[2]) == (2, 2)
    assert rows.tobytes() == expected[1].tobytes() and got[2].tobytes() == expected[3].tobytes()
    kept = broken_bins + skipped_bins
    assert rows[kept].tobytes() == prev[kept].tobytes()
    assert got[2][kept].tobytes() == demix_frame(prev[kept], burst[kept]).tobytes()
    for state_type in (auxiva.AuxivaState, IlrmaState):
        for process_frame in (auxiva.process_frame, oracles.process_frame):
            state = state_type(n_bins, dim)
            state.inv[...], state.trace[...], state.rows = planes, trace, prev
            with np.errstate(all="ignore"):
                out = process_frame(state, obs)
            assert state.skipped_bins == 2
            assert state.rows[skipped_bins].tobytes() == prev[skipped_bins].tobytes()
            assert out[skipped_bins].tobytes() == demix_frame(prev[skipped_bins],
                                                              obs[skipped_bins]).tobytes()


@pytest.mark.parametrize("fault", ["nan", "1e200"])
@pytest.mark.parametrize("dim", LANE_DIMS)
@pytest.mark.parametrize("n_bins", LANE_BINS)
def test_faulty_bin_leaves_its_lane_mates_alone(rng, n_bins, dim, fault):
    """A bin with a NaN in P (a finite trace of V) or overflowed by a 1e200
    observation is broken: it keeps its previous row, is counted as broken,
    not skipped, and leaves every other bin's planes, trace and row
    byte-equal to a clean run, in the kernel and in the numpy update, which
    also takes unaligned planes and non-contiguous rows."""
    planes, trace, obs, prev = _inverse_inputs(rng, n_bins, dim)
    bad = sorted({0, n_bins // 2, n_bins - 1})
    faulty, faulty_obs = aligned_copy(planes), obs.copy()
    if fault == "nan":
        for k in bad:  # the stored upper entry (0, dim - 1)
            faulty[k // LANES, 0, dim - 1, k % LANES] = np.nan
    else:
        faulty_obs[bad] = 1e200
    good = np.setdiff1d(np.arange(n_bins), bad)
    clean, clean_trace, clean_rows = aligned_copy(planes), aligned_copy(trace), prev.copy()
    kernel_update(auxiva._kernels, clean, clean_trace, obs, 0.99, 1.0, 1e-6, 1, clean_rows)
    runs = []
    p, t, rows = aligned_copy(faulty), aligned_copy(trace), prev.copy()
    runs.append((p, t, *kernel_update(auxiva._kernels, p, t, faulty_obs, 0.99, 1.0, 1e-6, 1,
                                      rows)[:2], rows))
    p, t = _unaligned_copy(faulty), aligned_copy(trace)
    with np.errstate(all="ignore"):
        broken, rows, skipped, _ = _numpy_update(p, t, faulty_obs, 0.99, 1.0, 1e-6, 1,
                                                 _strided_copy(prev))
    runs.append((p, t, broken, skipped, rows))
    for p, t, broken, skipped, rows in runs:
        assert (broken, skipped) == (len(bad), 0)
        assert rows[good].tobytes() == clean_rows[good].tobytes()
        assert rows[bad].tobytes() == prev[bad].tobytes()
        assert t[good].tobytes() == clean_trace[good].tobytes()
        for k in good:
            assert _per_lane(p)[k].tobytes() == _per_lane(clean)[k].tobytes()
        np.testing.assert_array_equal(auxiva.nonfinite_trace(p, t, n_bins),
                                      np.isin(np.arange(n_bins), bad))


@pytest.mark.parametrize("dim", [4, 10, 19])
@pytest.mark.parametrize("state_type", [auxiva.AuxivaState, IlrmaState],
                         ids=["auxiva", "ilrma"])
def test_mic_burst_resets_the_same_bins_on_both_paths(rng, dim, state_type):
    """A 1e200 microphone burst in some bins: the count of reset bins after
    each frame is the same on both paths, the compiled ``process_frame`` and
    the numpy driver of ``oracles``, and rises only at the burst, by the
    burst's bins alone on both optimizers. The frame
    of the burst through ``step`` leaves the state's bytes, padding lanes
    included, as its weight and update kernels followed by the numpy
    ``oracles.reset_broken`` do (the drivers' weights agree only to
    rounding, so their states are compared by their rows)."""
    n_bins, burst_frame, burst_bins = 65, 20, [3, 8, 64]
    frames = rng.standard_normal((40, n_bins, dim)) + 1j * rng.standard_normal((40, n_bins, dim))
    frames[burst_frame, burst_bins, 0] = 1e200

    def run(process_frame, state, frames):
        counts = []
        with np.errstate(all="ignore"):
            for obs in frames:
                process_frame(state, obs)
                counts.append(state.broken_bins)
        return counts

    compiled, reference = state_type(n_bins, dim), state_type(n_bins, dim)
    counts = run(auxiva.process_frame, compiled, frames)
    assert run(oracles.process_frame, reference, frames) == counts
    assert counts[burst_frame - 1] == 0 < counts[burst_frame] == counts[-1] == len(burst_bins)
    assert compiled.skipped_bins == reference.skipped_bins == 0
    err = np.linalg.norm(compiled.rows - reference.rows) / np.linalg.norm(reference.rows)
    assert err <= 1e-12, err
    stepped, by_parts = state_type(n_bins, dim), state_type(n_bins, dim)
    for state in (stepped, by_parts):
        run(auxiva.process_frame, state, frames[:burst_frame])
    run(auxiva.process_frame, stepped, frames[burst_frame : burst_frame + 1])
    with np.errstate(all="ignore"):
        _step_with_oracle_reset(by_parts, frames[burst_frame])
    assert _state_bytes(stepped) == _state_bytes(by_parts)
    assert stepped.broken_bins == counts[burst_frame]


@pytest.mark.parametrize("n_bins", [1, 65])
def test_ewma_returns_the_count_of_broken_bins(rng, n_bins):
    """The kernel and its numpy twin count the bins whose updated trace of V
    or of P is not finite."""
    planes, trace, obs, prev = _inverse_inputs(rng, n_bins, 4)
    for update in (update_planes, _numpy_update):
        assert update(aligned_copy(planes), aligned_copy(trace), obs, 0.9, 1.0, 1e-6, 1, prev)[0] == 0
    obs[-1, 2] = 1e200
    for update in (update_planes, _numpy_update):
        with np.errstate(all="ignore"):
            assert update(aligned_copy(planes), aligned_copy(trace), obs, 0.9, 1.0, 1e-6, 1, prev)[0] == 1


# A definition with external linkage: return type at the start of a line,
# then the name and the parameter list up to the opening brace.
KERNEL_DEFINITION = re.compile(r"^(long|void) (\w+)\(([^)]*)\)\s*\{", re.MULTILINE)


def _ctype(declaration):
    """The ctypes type of a C parameter or return type of the kernels."""
    if "*" in declaration:
        return ctypes.c_void_p
    return {"long": ctypes.c_long, "double": ctypes.c_double, "void": None}[declaration.split()[0]]


def test_build_kernels_declares_every_kernel():
    """``build_kernels`` gives every external function of ``_kernels.c`` its
    restype and one argtype per C parameter, of the parameter's type;
    without them ``ctypes`` would pass 64-bit pointers as C ints."""
    lib = auxiva.build_kernels()
    definitions = KERNEL_DEFINITION.findall(auxiva.KERNEL_SOURCE.read_text())
    assert {"update", "weight", "frame_in", "ola"} <= {name for _, name, _ in definitions}
    for restype, name, params in definitions:
        kernel = getattr(lib, name)
        assert kernel.argtypes is not None, name
        assert list(kernel.argtypes) == [_ctype(p) for p in params.split(",")], name
        assert kernel.restype is _ctype(restype), name


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_clean_push_is_one_kernel_call(optimizer):
    """Each push and each frame of ``flush`` makes exactly one Python-level
    kernel call, ``push``, also a push whose 1e200 microphone sample breaks
    bins, which ``step`` resets: every other kernel of the library and
    ``auxiva.process_frame`` raise if called. The engine binds ``push`` when
    it is built, so the counting one is in place by then."""
    lib = auxiva._kernels
    rng = np.random.default_rng(2)
    calls = []
    push = lib.push
    names = {name for _, name, _ in KERNEL_DEFINITION.findall(auxiva.KERNEL_SOURCE.read_text())}
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            lib, "push", lambda handle: calls.append(handle) or push(handle)))
        engine = StreamingEngine(EngineConfig(optimizer=optimizer))
        for name in names - {"push"}:
            stack.enter_context(mock.patch.object(lib, name, side_effect=AssertionError(name)))
        stack.enter_context(mock.patch.object(auxiva, "process_frame",
                                              side_effect=AssertionError("process_frame")))
        chunks = 0.3 * rng.standard_normal((8, 2, engine.hop))
        chunks[6, 0, 5] = 1e200
        parts = [engine.push(*chunk) for chunk in chunks]
        parts.append(engine.flush())
    assert len(calls) == 8 + engine.latency_chunks
    assert np.isfinite(np.concatenate(parts)).all() and engine.stats.skipped_bins == 0
    assert engine._state.broken_bins > 0


def test_structs_have_the_kernels_layout():
    """``layout`` reports the size and field offsets of ``struct state`` and
    ``struct engine``, naming the fields in their declaration order: they are
    those of ``KernelState`` and ``KernelEngine``."""
    out = (ctypes.c_long * 64)()
    count = auxiva._kernels.layout(out)
    expected, names = [], []
    for struct, c_name in ((auxiva.KernelState, "state"), (KernelEngine, "engine")):
        expected += [ctypes.sizeof(struct), *(getattr(struct, f).offset for f, _ in struct._fields_)]
        names += [(c_name, f) for f, _ in struct._fields_]
    assert list(out[:count]) == expected
    assert re.findall(r"AT\((state|engine), (\w+)\)", auxiva.KERNEL_SOURCE.read_text()) == names


def _strict_build(target, *flags):
    """``_kernels.c`` built by ``cc`` into ``target`` with the loaded flags,
    ``flags`` and ``-Wall -Wextra -Werror``; raises if the build fails."""
    subprocess.run(["cc", *auxiva.KERNEL_FLAGS, *flags, "-Wall", "-Wextra", "-Werror",
                    "-o", str(target), str(auxiva.KERNEL_SOURCE)],
                   check=True, capture_output=True, timeout=120)
    return target


@pytest.fixture(scope="session")
def baseline_build(tmp_path_factory):
    """The kernels built once per session for the baseline ISA alone
    (``-DLANE_CLONES=``), warnings as errors."""
    return _strict_build(tmp_path_factory.mktemp("baseline") / "kernels.so", "-DLANE_CLONES=")


def test_kernel_source_compiles_without_warnings(tmp_path, baseline_build):
    """``-Wall -Wextra -Werror`` builds of the kernels as loaded and of the
    baseline ISA alone (``baseline_build``) succeed."""
    assert _strict_build(tmp_path / "kernels.so").exists() and baseline_build.exists()


@pytest.mark.parametrize("flags", [(), ("-DLANE_CLONES=",)], ids=["loaded", "baseline"])
def test_kernel_source_passes_the_warnings_gate(flags):
    """``cc -Wall -Wextra -Werror -fsyntax-only`` with the build's flags finds
    nothing in ``_kernels.c``: a parameter or local that a refactor leaves
    unused fails here in a fraction of a second, before any build."""
    proc = subprocess.run(["cc", *auxiva.KERNEL_FLAGS, *flags, "-Wall", "-Wextra", "-Werror",
                           "-fsyntax-only", str(auxiva.KERNEL_SOURCE)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


def test_kernel_times_tool_runs():
    """``tools/kernel_times.py`` at its shortest settings exits 0 and prints
    one row of the two builds' µs per kernel: ``frame_in``, ``step``, ``ola``,
    ``weight`` and ``update`` of the L = 1 and ILRMA engines, and the FFTs.
    Its loop library calls the kernels by their C signatures, which a kernel
    change must keep in step."""
    tool = SRC.parent / "tools" / "kernel_times.py"
    proc = subprocess.run([sys.executable, str(tool), "--processes", "1", "--repeats", "1",
                           "--loop-ms", "0.2", "--frames-l", "1"],
                          env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("kernel"))
    rows = [line.split() for line in lines[header + 1:]]
    kernels = [f"{k}_{e}" for e in ("l1", "ilrma_l1")
               for k in ("frame_in", "step", "ola", "weight", "update")]
    assert sorted(row[0] for row in rows) == sorted(kernels + ["rfft_4rows", "irfft"])
    assert all(len(row) == 3 and float(row[1]) > 0 and float(row[2]) > 0 for row in rows), rows


def test_baseline_build_gives_the_loaded_rows(rng, baseline_build):
    """Every kernel built for the baseline ISA alone gives the loaded kernels'
    bytes, whichever clone the CPU runs: a compiled frame's weight, planes,
    counts, rows and output, with a bin reset; an update with per-bin
    weights; NMF weights; the FFTs and their plans; and the engine's
    framing, ``frame_in`` and ``ola``."""
    lib = ctypes.CDLL(str(baseline_build))
    for name in ("update", "weight", "step", "fft_plan", "rfft", "irfft", "frame_in", "ola",
                 "push"):
        getattr(lib, name).argtypes = getattr(auxiva._kernels, name).argtypes
        getattr(lib, name).restype = getattr(auxiva._kernels, name).restype
    for n in (32, 64, 1024, 2048):
        assert fft_plan(lib, n).tobytes() == fft_plan(auxiva._kernels, n).tobytes()
        x = rng.standard_normal((5, n))
        spec = engine_rfft(x, lib)
        assert spec.tobytes() == engine_rfft(x, auxiva._kernels).tobytes()
        assert engine_irfft(spec, n, lib).tobytes() == engine_irfft(spec, n, auxiva._kernels).tobytes()
    chunks = 0.3 * rng.standard_normal((40, 2, 256))
    for optimizer in OPTIMIZERS:
        config = EngineConfig(optimizer=optimizer)
        loaded = run_streaming(chunks, config)[0].samples
        with mock.patch.object(auxiva, "_kernels", lib):
            base = run_streaming(chunks, config)[0].samples
        assert base.tobytes() == loaded.tobytes(), optimizer
    for dim in LANE_DIMS:
        planes, trace, obs, prev = _inverse_inputs(rng, 513, dim)
        prev[512, 1], obs[512, 1] = 0.0, 1e200  # overflows bin 512's trace, not its output
        obs[5] = 0.0  # bin 5 is left as it is, and its row overflows
        loaded, base = auxiva.AuxivaState(513, dim), auxiva.AuxivaState(513, dim)
        for state in (loaded, base):
            state.inv[...] = planes
            state.inv[5 // LANES, 0, 0, 5 % LANES] = 1e-300
            state.inv[5 // LANES, 0, 1, 5 % LANES] = 1e200
            state.trace[...] = trace
            state.rows = prev
        auxiva.process_frame(loaded, obs)
        pack_observations(obs, base.obs)
        lib.step(base.handle)  # the same frame, bin reset included, on the baseline build
        assert base.broken_bins == loaded.broken_bins == 1
        assert base.skipped_bins == loaded.skipped_bins == 1
        assert _state_bytes(base) == _state_bytes(loaded)
        gain = rng.uniform(0.1, 3.0, 513)
        results = []
        for library in (auxiva._kernels, lib):
            p, t, rows = aligned_copy(planes), aligned_copy(trace), prev.copy()
            assert kernel_update(library, p, t, obs, 0.9, gain, 1e-6, 2 % dim, rows)[0] == 1
            results.append((p.tobytes(), t.tobytes(), rows.tobytes()))
        assert results[0] == results[1]
        for seed in NMF_SEEDS:
            loaded, base = (_nmf_state(np.random.default_rng(seed), 513, dim) for _ in range(2))
            for frame in _nmf_frames(rng, 513, dim):
                assert _weight(auxiva._kernels, loaded, frame) == 1
                assert _weight(lib, base, frame) == 1
                assert _nmf_bytes(base) == _nmf_bytes(loaded)


def _weight(lib, state, obs):
    """``lib``'s weight kernel as ``step`` calls it, on ``state.handle``,
    with ``obs`` packed into the state's observation planes: ``state``'s rows
    and, for an ``IlrmaState``, its model, into its ``out``, ``gain`` and
    workspace. Returns the kernel's result."""
    pack_observations(obs, state.obs)
    return lib.weight(state.handle)


def _nmf_bytes(state):
    m = state.model
    return m.basis.tobytes(), m.v1.tobytes(), m.variance.tobytes(), state.gain.tobytes()


def _state_bytes(state):
    """Every buffer and counter of a state, padding lanes included."""
    k = state.kernel
    buffers = [state.inv, state.trace, state.row_planes, state.obs, state.gain, state.out]
    if isinstance(state, IlrmaState):
        buffers += [state.model.basis, state.model.activation, state.model.variance]
    return [b.tobytes() for b in buffers] + [k.frames, k.skipped_bins, k.broken_bins]


def _step_with_oracle_reset(state, obs):
    """``step`` on ``state`` with the numpy reset: the loaded weight and
    update kernels on the state's buffers, then ``oracles.reset_broken`` if
    the update found a broken bin."""
    lib = auxiva._kernels
    _weight(lib, state, obs)
    broken = lib.update(state.handle)
    state.kernel.frames += 1
    if broken:
        oracles.reset_broken(state)


NMF_SEEDS = [1, 2, 10, 33]  # four random models and row sets per size


def _nmf_state(rng, n_bins, dim):
    """An ILRMA state with random rows and a random NMF model, set through
    ``t1``, ``v1`` and ``recompute_variance``, so the padding lanes of the
    basis and the variance hold bin K - 1's values."""
    state = IlrmaState(n_bins, dim)
    rows = state.rows
    rows[:, 1:] = 0.3 * (rng.standard_normal((n_bins, dim - 1))
                         + 1j * rng.standard_normal((n_bins, dim - 1)))
    state.rows = rows
    state.model.t1 = rng.uniform(0.2, 2.0, n_bins)
    state.model.v1 = rng.uniform(0.2, 2.0)
    state.model.recompute_variance()
    return state


def _nmf_frames(rng, n_bins, dim, count=3):
    return rng.standard_normal((count, n_bins, dim)) + 1j * rng.standard_normal((count, n_bins, dim))


def _flush_like(rng, n_bins, dim):
    """Observations with exact +0.0 and -0.0 entries, some rows all zero, as a
    flush of silence gives, and the rest random."""
    obs = rng.standard_normal((n_bins, dim)) + 1j * rng.standard_normal((n_bins, dim))
    zeros = rng.random((n_bins, dim, 2)) < 0.4
    signs = np.where(rng.random((n_bins, dim, 2)) < 0.5, -0.0, 0.0)
    parts = obs.view(np.float64).reshape(n_bins, dim, 2)
    parts[zeros] = signs[zeros]
    obs[::3] = signs[::3, :, 0] + 0j
    obs[1::3, 0] = complex(-0.0, -0.0)
    return obs


@pytest.mark.parametrize("dim", LANE_DIMS)
@pytest.mark.parametrize("n_bins", LANE_BINS)
def test_demix_kernels_equal_demix_frame(rng, n_bins, dim):
    """The weight kernel's pre-update demix and the update's demix give
    ``ctf.demix_frame``'s bytes, signed zeros included, for passthrough rows
    (as the first frames and a flush have), updated rows and rows a skipped
    bin keeps."""
    obs = _flush_like(rng, n_bins, dim)
    passthrough = np.tile(passthrough_row(dim), (n_bins, 1))
    signed = passthrough.copy()
    signed[:, 1:] = complex(-0.0, -0.0)
    random_rows = rng.standard_normal((n_bins, dim)) + 1j * rng.standard_normal((n_bins, dim))
    for rows in (passthrough, signed, random_rows):
        state = auxiva.AuxivaState(n_bins, dim)
        state.rows = rows
        _weight(auxiva._kernels, state, obs)
        assert state.out.tobytes() == demix_frame(rows, obs).tobytes()
    planes, trace, _, prev = _inverse_inputs(rng, n_bins, dim)
    planes[0, 0, 0, 0], planes[0, 0, dim - 1, 0] = 1e-300, 1e200  # bin 0's row overflows
    rows = prev.copy()
    _, skipped, out = kernel_update(auxiva._kernels, planes, trace, obs, 0.99, 1.0, 1e-6, 1,
                                    rows)
    assert skipped == 1
    assert rows[0].tobytes() == prev[0].tobytes()
    assert out.tobytes() == demix_frame(rows, obs).tobytes()


def _weights_both(compiled, reference, obs):
    """One frame's weight on the NMF kernel and on the numpy updates."""
    _weight(auxiva._kernels, compiled, obs)
    with np.errstate(all="ignore"):
        return oracles.frame_weight(reference, obs, reference.rows)


def _assert_models_close(compiled, reference, expected_gain):
    for name in ("t1", "v1", "r1"):
        np.testing.assert_allclose(getattr(compiled.model, name),
                                   getattr(reference.model, name), rtol=1e-12, atol=0)
    np.testing.assert_allclose(compiled.gain[: compiled.n_bins], expected_gain, rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed", NMF_SEEDS)
@pytest.mark.parametrize("n_bins, dim", [(9, 4), (513, 4), (65, 10)])
def test_nmf_kernel_agrees_with_the_numpy_updates(n_bins, dim, seed):
    """The weight kernel follows ``update_bases`` + ``update_activations`` to
    rounding over several frames. The padding lanes of the last block hold
    a huge basis and variances; were they summed, v1 would be far off."""
    compiled, reference = (_nmf_state(np.random.default_rng(seed), n_bins, dim)
                           for _ in range(2))
    pad = np.s_[n_bins:]
    compiled.model.basis[pad] = 1e150
    compiled.model.variance[pad] = 1e-150
    for obs in _nmf_frames(np.random.default_rng(dim), n_bins, dim, count=5):
        gain = _weights_both(compiled, reference, obs)
        _assert_models_close(compiled, reference, gain)


def test_nmf_kernel_propagates_non_finite_as_numpy_does(rng):
    """NaN and Inf basis entries and outputs stay non-finite in the same
    entries on both paths, so a bin reset resets the same basis entries."""
    n_bins, dim = 21, 4
    compiled, reference = (_nmf_state(np.random.default_rng(5), n_bins, dim)
                           for _ in range(2))
    for state in (compiled, reference):
        state.model.t1[2] = np.nan
        state.model.t1[7] = np.inf
        state.model.t1[20] = np.inf  # the last bin, whose copies pad its block
        state.model.recompute_variance()
    obs = _nmf_frames(rng, n_bins, dim, count=1)[0]
    obs[11] = 1e200  # |e|^2 overflows in bin 11
    gain = _weights_both(compiled, reference, obs)
    for name in ("t1", "v1", "r1"):
        got, expected = getattr(compiled.model, name), getattr(reference.model, name)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(expected))
        np.testing.assert_array_equal(np.isposinf(got), np.isposinf(expected))
    np.testing.assert_array_equal(np.isfinite(compiled.gain[:n_bins]), np.isfinite(gain))
    assert not np.isfinite(reference.model.t1).all()
    resets = []
    for state in (compiled, reference):
        before = np.isfinite(state.model.t1)
        oracles.reset_broken(state)
        resets.append(~before)
        assert np.isfinite(state.model.basis).all()
    np.testing.assert_array_equal(*resets)


@pytest.mark.parametrize("n_bins", [9, 513])
def test_all_zero_frame_skips_the_nmf_update(n_bins):
    """A frame whose pre-update outputs are all zero, signed zeros included,
    leaves the model byte for byte and weights by the last 1/r1, in the
    kernel and in a compiled ``process_frame``."""
    state = _nmf_state(np.random.default_rng(3), n_bins, 4)
    before = _nmf_bytes(state)[:3]
    obs = np.zeros((n_bins, 4), dtype=np.complex128)
    obs[::2] = complex(-0.0, -0.0)
    assert _weight(auxiva._kernels, state, obs) == 0
    assert _nmf_bytes(state)[:3] == before
    auxiva.process_frame(state, obs)
    assert _nmf_bytes(state)[:3] == before
    assert state.gain[:n_bins].tobytes() == (1.0 / state.model.r1).tobytes()


@pytest.mark.parametrize("state_type", [auxiva.AuxivaState, IlrmaState],
                         ids=["auxiva", "ilrma"])
def test_kernel_addresses_stay_valid(rng, state_type):
    """The addresses a state's ``kernel`` takes at construction are those of
    its buffers after 300 frames and a bin reset, ``handle`` is the kernel's
    address, the observation planes hold the last frame, and the planes
    cannot be rebound."""
    n_bins, dim = 65, 4
    state = state_type(n_bins, dim)
    frames = rng.standard_normal((300, n_bins, dim)) + 1j * rng.standard_normal((300, n_bins, dim))
    frames[150, [3, 64], 0] = 1e200  # overflows two bins' trace
    counts = []
    with np.errstate(all="ignore"):
        for obs in frames:
            out = auxiva.process_frame(state, obs)
            counts.append(state.broken_bins)
    assert counts[149] == 0 < counts[150] == counts[-1]
    k = state.kernel
    buffers = {"inv": state.inv, "trace": state.trace, "rows": state.row_planes,
               "gain": state.gain, "out": state.out, "work": state.work, "obs": state.obs,
               "channel": state.channel}
    if state_type is IlrmaState:
        m = state.model
        buffers.update(basis=m.basis, v1=m.activation, r1=m.variance)
    for name, buffer in buffers.items():
        assert getattr(k, name) == buffer.ctypes.data, name
    assert state.handle.value == ctypes.addressof(k)
    assert out.tobytes() == state.out.tobytes() and out.ctypes.data != state.out.ctypes.data
    assert unpack_observations(state.obs, n_bins).tobytes() == frames[-1].tobytes()
    for name in ("inv", "row_planes", "obs", "channel"):
        with pytest.raises(AttributeError):
            setattr(state, name, getattr(state, name).copy())


FFT_SIZES = [2**e for e in range(5, 13)]  # 32 to 4096 points; StftConfig admits no window below 32


def test_fft_plan_of_the_engine_fits_in_48_kb():
    """The plan of the engine's 1024-point FFT, twiddles and workspace, is at
    most 6144 doubles (48 KB, an L1 data cache of the bench's Xeon)."""
    assert auxiva._kernels.fft_plan(1024, None) <= 6144


@pytest.mark.parametrize("n", FFT_SIZES)
def test_rfft_kernel_agrees_with_numpy(rng, n):
    """The kernel's forward FFT of 1 to 6 rows of any scale agrees with
    ``np.fft.rfft`` to 1e-14 of each row's largest bin, the imaginary parts
    at DC and Nyquist are exactly +0.0, and repeated calls, with the same
    plan or a new one, give the same bytes."""
    lib = auxiva._kernels
    for rows in range(1, 7):
        x = rng.standard_normal((rows, n)) * rng.choice([1e-6, 1.0, 1e6], (rows, 1))
        got = engine_rfft(x, lib)
        expected = np.fft.rfft(x)
        err = np.abs(got - expected).max(axis=1)
        assert (err <= 1e-14 * np.abs(expected).max(axis=1)).all(), (rows, err)
        assert got[:, [0, -1]].imag.tobytes() == np.zeros((rows, 2)).tobytes()
        assert engine_rfft(x, lib).tobytes() == got.tobytes()
    plan, ones = fft_plan(lib, n), np.ones(n)
    out = [np.empty((2, n // 2 + 1)) for _ in range(2)]
    for planes in out:
        lib.rfft(n, 1, plan.ctypes.data, ones.ctypes.data, x[0].ctypes.data, planes.ctypes.data)
    assert out[0].tobytes() == out[1].tobytes() == np.stack([got[0].real, got[0].imag]).tobytes()


@pytest.mark.parametrize("n", FFT_SIZES)
@pytest.mark.parametrize("n_rows", [1, 2, 3, 4, 5])
def test_rfft_of_rows_equals_row_by_row_calls(rng, n, n_rows):
    """``rfft`` transforms rows two at a time, an odd last row paired with
    itself: the spectra of a (rows, n) array are, byte for byte, those of
    one-row calls, so no row reads another's lanes."""
    x = rng.standard_normal((n_rows, n)) * rng.choice([1e-3, 1.0, 1e3], (n_rows, 1))
    rows = np.stack([engine_rfft(row) for row in x])
    assert engine_rfft(x).tobytes() == rows.tobytes()


@pytest.mark.parametrize("n", FFT_SIZES)
def test_irfft_kernel_agrees_with_numpy(rng, n):
    """The kernel's inverse FFT agrees with ``np.fft.irfft`` to 1e-14 of the
    largest sample, and like it ignores the imaginary parts at DC and
    Nyquist: spectra that differ only there give the same bytes. Repeated
    calls give the same bytes, and so does the inverse of the forward."""
    lib = auxiva._kernels
    spec = rng.standard_normal((4, n // 2 + 1)) + 1j * rng.standard_normal((4, n // 2 + 1))
    got = engine_irfft(spec, n, lib)
    expected = np.fft.irfft(spec, n=n)
    err = np.abs(got - expected).max(axis=1)
    assert (err <= 1e-14 * np.abs(expected).max(axis=1)).all(), err
    real_ends = spec.copy()
    real_ends[:, [0, -1]] = real_ends[:, [0, -1]].real
    assert engine_irfft(real_ends, n, lib).tobytes() == got.tobytes()
    assert engine_irfft(spec, n, lib).tobytes() == got.tobytes()
    x = rng.standard_normal((2, n))
    np.testing.assert_allclose(engine_irfft(engine_rfft(x, lib), n, lib), x, rtol=0, atol=1e-14 * n)


@pytest.mark.parametrize("dim", LANE_DIMS)
@pytest.mark.parametrize("n_bins", LANE_BINS)
def test_demix_kernel_weight_agrees_with_compute_r1(rng, n_bins, dim):
    """AuxIVA's compiled weight, with r1 summed as re^2 + im^2 in bin order,
    agrees with ``weight(compute_r1(...))`` to 1e-13 relative for r1 far
    above and below 1, and equals it exactly at the floor (a silent frame)
    and when |e|^2 overflows (weight 0)."""
    state = auxiva.AuxivaState(n_bins, dim)
    state.rows = rng.standard_normal((n_bins, dim)) + 1j * rng.standard_normal((n_bins, dim))
    obs = rng.standard_normal((n_bins, dim)) + 1j * rng.standard_normal((n_bins, dim))
    for scale in (1e-5, 1.0, 1e5):
        frame = np.ascontiguousarray(scale * obs)
        _weight(auxiva._kernels, state, frame)
        expected = oracles.weight(auxiva.compute_r1(state.rows, frame), state.config)
        assert abs(state.gain[0] - expected) <= 1e-13 * expected, scale
    for frame in (np.zeros_like(obs), np.full_like(obs, 1e200)):
        _weight(auxiva._kernels, state, frame)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = oracles.weight(auxiva.compute_r1(state.rows, frame), state.config)
        assert state.gain[0] == expected
