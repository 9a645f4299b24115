"""Covariance recursion, row solves, and batch/online fixed points."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ewma_dense, on_both_paths, random_hpd, solve_dense
from naec.auxiva import (
    R_FLOOR,
    AuxivaConfig,
    AuxivaState,
    compute_r1,
    process_frame,
    weight,
)
from naec.ctf import passthrough_row
from oracles import constrained_matrix, offline_batch


def test_config_validation():
    with pytest.raises(ValueError):
        AuxivaConfig(alpha=0.0)
    with pytest.raises(ValueError):
        AuxivaConfig(alpha=1.1)
    with pytest.raises(ValueError):
        AuxivaConfig(beta=2.0)
    with pytest.raises(ValueError):
        AuxivaConfig(diag_load=0.0)


def test_state_starts_at_passthrough():
    state = AuxivaState(4, 3)
    np.testing.assert_array_equal(state.rows[:, 0], np.ones(4))
    np.testing.assert_array_equal(state.rows[:, 1:], np.zeros((4, 2)))
    np.testing.assert_array_equal(
        state.covariance, np.broadcast_to(1e-3 * np.eye(3), (4, 3, 3))
    )
    assert state.skipped_bins == 0


@on_both_paths
def test_ewma_update_matches_dense_formula(rng):
    k, d, alpha, phi = 3, 4, 0.9, 2.5
    cov = random_hpd(rng, d, k)
    obs = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
    expected = alpha * cov + (1 - alpha) * phi * np.einsum(
        "kd,ke->kde", obs, obs.conj()
    )
    expected = 0.5 * (expected + expected.conj().transpose(0, 2, 1))
    ewma_dense(cov, obs, alpha, phi)
    np.testing.assert_allclose(cov, expected, rtol=1e-13)
    np.testing.assert_allclose(cov, cov.conj().transpose(0, 2, 1), rtol=0, atol=1e-15)


@on_both_paths
def test_ewma_per_bin_gain(rng):
    k, d = 4, 2
    cov = random_hpd(rng, d, k)
    before = cov.copy()
    obs = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
    gains = np.array([0.0, 1.0, 2.0, 3.0])
    ewma_dense(cov, obs, 0.5, gains)
    np.testing.assert_allclose(cov[0], 0.5 * before[0], rtol=1e-14)
    rank1 = np.outer(obs[2], obs[2].conj())
    expected = 0.5 * before[2] + 0.5 * 2.0 * rank1
    expected = 0.5 * (expected + expected.conj().T)
    np.testing.assert_allclose(cov[2], expected, rtol=1e-13)


@on_both_paths
def test_ewma_keeps_covariance_exactly_hermitian(rng):
    """The recursion needs no re-Hermitization: only the upper triangle is
    stored, and y y^H keeps its diagonal exactly real."""
    k, d = 6, 5
    for gain_of in (lambda: float(rng.uniform(0.1, 10.0)), lambda: rng.uniform(0.1, 10.0, k)):
        cov = np.tile(1e-3 * np.eye(d, dtype=np.complex128), (k, 1, 1))
        for scale in np.logspace(-6, 3, 200):
            obs = scale * (rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d)))
            ewma_dense(cov, obs, 0.99, gain_of())
            assert np.array_equal(cov, cov.conj().transpose(0, 2, 1))
            assert not np.einsum("kdd->kd", cov).imag.any()


def _lapack_rows(cov, diag_load):
    """Oracle: solve(V + lambda I, e1) per bin, normalized by its first entry."""
    n_bins, dim, _ = cov.shape
    load = diag_load * np.einsum("kdd->k", cov).real / dim
    loaded = cov + load[:, np.newaxis, np.newaxis] * np.eye(dim)
    e1 = np.zeros((n_bins, dim, 1), dtype=np.complex128)
    e1[:, 0, 0] = 1.0
    sol = np.linalg.solve(loaded, e1)[:, :, 0]
    return sol / sol[:, :1]


@on_both_paths
def test_loading_is_trace_relative(rng):
    """The tail is -(C + lambda I)^{-1} b with lambda = diag_load * tr(V) / D."""
    dim, n_bins = 3, 2
    cov = random_hpd(rng, dim, n_bins)
    prev = np.tile(passthrough_row(dim), (n_bins, 1))
    for diag_load in (0.1, 1.0):
        rows, skipped = solve_dense(cov, prev, diag_load)
        assert skipped == 0
        for k in range(n_bins):
            load = diag_load * np.trace(cov[k]).real / dim
            loaded = cov[k, 1:, 1:] + load * np.eye(dim - 1)
            tail = -np.linalg.solve(loaded, cov[k, 1:, 0])
            np.testing.assert_allclose(rows[k, 1:], tail, rtol=1e-12)
            assert rows[k, 0] == 1.0


@on_both_paths
def test_row_solve_matches_inverse_first_column(rng):
    n_bins = 513
    for dim in (2, 4, 10, 19):
        cov = random_hpd(rng, dim, n_bins)
        prev = np.tile(passthrough_row(dim), (n_bins, 1))
        for diag_load in (1e-12, 1e-6):
            rows, skipped = solve_dense(cov, prev, diag_load)
            assert skipped == 0
            expected = _lapack_rows(cov, diag_load)
            err = np.linalg.norm(rows - expected, axis=1) / np.linalg.norm(expected, axis=1)
            assert err.max() <= 1e-9, (dim, diag_load, err.max())
            np.testing.assert_array_equal(rows[:, 0], np.ones(n_bins))  # pinned exactly
        for k in range(8):
            col = np.linalg.inv(cov[k])[:, 0]
            rows, _ = solve_dense(cov[k : k + 1], prev[k : k + 1], 1e-12)
            np.testing.assert_allclose(rows[0], col / col[0], rtol=1e-8)


@on_both_paths
def test_row_solve_keeps_previous_on_singular(rng):
    cov = np.zeros((3, 3, 3), dtype=np.complex128)
    cov[1] = random_hpd(rng, 3, 1)[0]
    cov[2] = random_hpd(rng, 3, 1)[0]
    cov[2, 0, 0] = np.inf  # infinite trace, finite tail
    prev = np.tile(passthrough_row(3), (3, 1))
    prev[0, 1] = 0.25
    prev[2, 2] = -0.5
    rows, skipped = solve_dense(cov, prev, diag_load=1e-30)
    assert skipped == 2
    np.testing.assert_array_equal(rows[0], prev[0])
    np.testing.assert_array_equal(rows[2], prev[2])
    assert np.isfinite(rows[1]).all()


def test_constrained_product_inverse_identity(rng):
    """Demixing through the full constrained matrix equals the plain solve."""
    for dim in (2, 4, 10):
        v = random_hpd(rng, dim, 1)[0]
        tail = rng.standard_normal(dim - 1) + 1j * rng.standard_normal(dim - 1)
        w = constrained_matrix(np.concatenate([[1.0 + 0j], tail]))
        e1 = np.zeros(dim, dtype=np.complex128)
        e1[0] = 1.0
        a = np.linalg.solve(w @ v, e1)
        b = np.linalg.solve(v, e1)
        assert np.linalg.norm(a - b) / np.linalg.norm(b) <= 1e-10


def test_r1_and_weight(rng):
    state = AuxivaState(3, 2)
    obs = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    r1 = compute_r1(state, obs)
    # passthrough rows: outputs are the first observation entries
    assert r1 == pytest.approx(np.sqrt(np.sum(np.abs(obs[:, 0]) ** 2)))
    assert weight(r1, state.config) == pytest.approx(r1 ** (0.4 - 2.0))
    assert compute_r1(state, np.zeros((3, 2), dtype=complex)) == R_FLOOR


def test_process_frame_counts_and_shape(rng):
    state = AuxivaState(5, 3)
    obs = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    out = process_frame(state, obs)
    assert out.shape == (5,)
    assert state.skipped_bins == 0
    with pytest.raises(ValueError):
        process_frame(state, np.zeros((5, 4), dtype=complex))


@on_both_paths
def test_process_frame_reads_a_reused_buffer_afresh(rng):
    """One buffer rewritten in place every frame, as the engine passes it, a
    strided view and fresh arrays give the same frames byte for byte."""
    frames = rng.standard_normal((6, 9, 4)) + 1j * rng.standard_normal((6, 9, 4))
    states = [AuxivaState(9, 4) for _ in range(3)]
    buffer = np.empty((9, 4), dtype=np.complex128)
    wide = np.empty((9, 8), dtype=np.complex128)
    for obs in frames:
        buffer[...] = obs
        wide[:, ::2] = obs
        outs = [process_frame(s, o) for s, o in zip(states, (buffer, wide[:, ::2], obs.copy()))]
        assert outs[0].tobytes() == outs[1].tobytes() == outs[2].tobytes()
    assert states[0].obs is buffer


def test_zero_references_keep_passthrough(rng):
    """With silent reference channels the row never moves off passthrough."""
    state = AuxivaState(4, 3)
    for _ in range(10):
        obs = np.zeros((4, 3), dtype=np.complex128)
        obs[:, 0] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        out = process_frame(state, obs)
        np.testing.assert_array_equal(out, obs[:, 0])
    np.testing.assert_array_equal(state.rows[:, 1:], np.zeros((4, 2)))


def test_offline_batch_scale_invariant(rng):
    obs = rng.standard_normal((12, 4, 3)) + 1j * rng.standard_normal((12, 4, 3))
    rows_a = offline_batch(obs, iterations=8)
    rows_b = offline_batch(100.0 * obs, iterations=8)
    np.testing.assert_allclose(rows_a, rows_b, rtol=1e-9)


def test_offline_batch_validates_shape():
    with pytest.raises(ValueError, match=r"\(N, K, D\)"):
        offline_batch(np.zeros((4, 3), dtype=complex))


@on_both_paths
@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=-40, max_value=40),
)
def test_solved_rows_always_unit_leading(seed, s):
    rng = np.random.default_rng(seed)
    cov = random_hpd(rng, 3, 4)
    prev = np.tile(passthrough_row(3), (4, 1))
    rows, _ = solve_dense(cov, prev, 1e-6)
    assert np.isfinite(rows).all()
    np.testing.assert_array_equal(rows[:, 0], np.ones(4))
    # A global rescale of each covariance leaves the rows unchanged.
    scaled, _ = solve_dense(2.0**s * cov, prev, 1e-6)
    np.testing.assert_array_equal(scaled, rows)
