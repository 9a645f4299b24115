"""Observation stacking layout and the constrained demixing row."""

import numpy as np
import pytest

from naec.ctf import CtfConfig, demix_frame, passthrough_row
from naec.stft import StftConfig
from oracles import (
    Spectrogram,
    batch_observations,
    build_observation,
    constrained_matrix,
    frame_observations,
)


def _specs(n_frames=4, order_p=2, seed=0):
    c = StftConfig(window_len=32, hop=8)
    rng = np.random.default_rng(seed)

    def make():
        d = rng.standard_normal((c.n_bins, n_frames)) + 1j * rng.standard_normal(
            (c.n_bins, n_frames)
        )
        return Spectrogram(d, c)

    return make(), [make() for _ in range(order_p)]


def test_dim_formula():
    assert CtfConfig(frames_l=3, order_p=3).dim == 10
    assert CtfConfig(frames_l=1, order_p=1).dim == 2
    with pytest.raises(ValueError):
        CtfConfig(frames_l=0)
    with pytest.raises(ValueError):
        CtfConfig(order_p=0)


def test_observation_layout_channel_major_lag_minor():
    mic, refs = _specs(n_frames=5, order_p=2)
    cfg = CtfConfig(frames_l=3, order_p=2)
    n = 4
    y = build_observation(mic, refs, k=1, n=n, config=cfg)
    expected = [
        mic.data[1, n],
        refs[0].data[1, n], refs[0].data[1, n - 1], refs[0].data[1, n - 2],
        refs[1].data[1, n], refs[1].data[1, n - 1], refs[1].data[1, n - 2],
    ]
    np.testing.assert_array_equal(y, expected)


def test_history_before_start_is_zero():
    mic, refs = _specs(n_frames=3, order_p=1)
    cfg = CtfConfig(frames_l=3, order_p=1)
    y = build_observation(mic, refs, k=0, n=0, config=cfg)
    assert y[0] == mic.data[0, 0]
    assert y[1] == refs[0].data[0, 0]
    assert y[2] == 0.0 and y[3] == 0.0
    y1 = build_observation(mic, refs, k=0, n=1, config=cfg)
    assert y1[2] == refs[0].data[0, 0]
    assert y1[3] == 0.0


def test_frame_observations_matches_pointwise():
    mic, refs = _specs(n_frames=4, order_p=3)
    cfg = CtfConfig(frames_l=2, order_p=3)
    obs = frame_observations(mic, refs, n=2, config=cfg)
    assert obs.shape == (mic.n_bins, cfg.dim)
    for k in range(mic.n_bins):
        np.testing.assert_array_equal(obs[k], build_observation(mic, refs, k, 2, cfg))


def test_batch_observations_shape():
    mic, refs = _specs(n_frames=4, order_p=2)
    cfg = CtfConfig(frames_l=2, order_p=2)
    obs = batch_observations(mic, refs, cfg)
    assert obs.shape == (4, mic.n_bins, cfg.dim)
    np.testing.assert_array_equal(obs[3], frame_observations(mic, refs, 3, cfg))


def test_reference_count_must_match_order():
    mic, refs = _specs(order_p=2)
    with pytest.raises(ValueError):
        build_observation(mic, refs, 0, 0, CtfConfig(frames_l=1, order_p=3))


def test_passthrough_leaves_microphone_entry():
    row = passthrough_row(5)
    y = np.arange(5) + 1j * np.arange(5)
    assert demix_frame(row[np.newaxis], y[np.newaxis])[0] == y[0]


def test_row_requires_unit_leading_element():
    with pytest.raises(ValueError):
        constrained_matrix(np.array([0.5, 0.0, 0.0], dtype=np.complex128))
    with pytest.raises(ValueError):
        constrained_matrix(np.ones((2, 3), dtype=np.complex128))
    assert constrained_matrix(np.array([1.0, 2.0 + 1j, 0.0])).shape == (3, 3)


def test_demix_frame_is_hermitian_inner_product(rng):
    k, d = 6, 4
    rows = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
    obs = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
    out = demix_frame(rows, obs)
    expected = np.array([np.vdot(rows[i], obs[i]) for i in range(k)])
    np.testing.assert_allclose(out, expected, rtol=1e-13)


def test_constrained_matrix_structure(rng):
    tail = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    row = np.concatenate([[1.0 + 0j], tail])
    mat = constrained_matrix(row)
    np.testing.assert_array_equal(mat[0], row.conj())
    np.testing.assert_array_equal(mat[1:, 1:], np.eye(4))
    np.testing.assert_array_equal(mat[1:, 0], np.zeros(4))
    # unit triangular structure: applying the matrix only rewrites entry 0
    y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    out = mat @ y
    np.testing.assert_array_equal(out[1:], y[1:])
    assert out[0] == pytest.approx(np.vdot(row, y))
