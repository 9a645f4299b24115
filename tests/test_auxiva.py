"""The tracked inverse covariance, its rows, and batch/online fixed points."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hpd, rows_of, update_dense, update_planes
from naec import auxiva
from naec.auxiva import (
    R_FLOOR,
    pack_covariance,
    AuxivaConfig,
    AuxivaState,
    compute_r1,
    process_frame,
    unpack_observations,
)
from naec.ctf import passthrough_row
from oracles import constrained_matrix, ewma, frame_weight, loaded_rows, offline_batch, weight


def test_config_validation():
    with pytest.raises(ValueError):
        AuxivaConfig(alpha=0.0)
    for alpha in (1.0, 1.1):  # at 1, s = (1 - alpha) Phi is 0 and no bin ever updates
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            AuxivaConfig(alpha=alpha)
    with pytest.raises(ValueError):
        AuxivaConfig(beta=2.0)
    with pytest.raises(ValueError):
        AuxivaConfig(diag_load=0.0)


def test_state_starts_at_passthrough():
    state = AuxivaState(4, 3)
    np.testing.assert_array_equal(state.rows[:, 0], np.ones(4))
    np.testing.assert_array_equal(state.rows[:, 1:], np.zeros((4, 2)))
    np.testing.assert_array_equal(
        state.inverse, np.broadcast_to(np.eye(3) / 1e-3, (4, 3, 3))
    )
    np.testing.assert_array_equal(state.trace, np.full(8, 3 * 1e-3))
    assert state.skipped_bins == 0 and state.frames == 0


def _dense_update(cov, obs, alpha, gain, diag_load, coord):
    """The recursion V <- alpha V + s y y^H + rho e_j e_j^H on (K, D, D)
    ``cov`` with its loading, returning V and the trace the update tracks;
    a bin whose s |y|^2 is 0 keeps its V."""
    n_bins, dim = obs.shape
    e = (1.0 - alpha) * np.broadcast_to(gain, (n_bins,)) * np.sum(np.abs(obs) ** 2, axis=1)
    tau = alpha * np.einsum("kdd->k", cov).real + e
    rho = np.where(e > 0, (1.0 - alpha) * diag_load * tau, 0.0)
    new = ewma(cov, obs, alpha, gain)
    new[:, coord, coord] += rho
    moved = e != 0
    return (np.where(moved[:, None, None], new, cov),
            np.where(moved, tau + rho, np.einsum("kdd->k", cov).real))


def test_ewma_update_matches_dense_formula(rng):
    """P after one update is the inverse of the loaded recursion's V, and tau its trace."""
    k, d, alpha, phi = 3, 4, 0.9, 2.5
    for diag_load in (1e-6, 0.3):
        for coord in range(d):
            cov = random_hpd(rng, d, k)
            obs = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
            inv, trace = np.linalg.inv(cov), np.einsum("kdd->k", cov).real
            update_dense(inv, trace, obs, alpha, phi, diag_load, coord)
            expected, tau = _dense_update(cov, obs, alpha, phi, diag_load, coord)
            np.testing.assert_allclose(inv, np.linalg.inv(expected), rtol=1e-10, atol=0)
            np.testing.assert_allclose(trace, tau, rtol=1e-13)


def test_ewma_per_bin_gain(rng):
    """Each bin takes its own gain; a bin whose gain is 0 is left as it
    is: its P and tau keep their bytes."""
    k, d = 4, 2
    cov = random_hpd(rng, d, k)
    inv = auxiva.unpack_covariance(pack_covariance(np.linalg.inv(cov)), k)
    inv[:, range(d), range(d)] = inv[:, range(d), range(d)].real  # as the update keeps it
    trace = np.einsum("kdd->k", cov).real
    before, before_trace = inv.copy(), trace.copy()
    obs = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
    gains = np.array([0.0, 1.0, 2.0, 3.0])
    update_dense(inv, trace, obs, 0.5, gains)
    assert inv[0].tobytes() == before[0].tobytes()
    assert trace[0] == before_trace[0]
    expected, tau = _dense_update(cov, obs, 0.5, gains, 1e-6, 1)
    np.testing.assert_allclose(inv[1:], np.linalg.inv(expected[1:]), rtol=1e-10)
    np.testing.assert_allclose(trace[1:], tau[1:], rtol=1e-13)


def test_ewma_keeps_covariance_exactly_hermitian(rng):
    """Only the upper triangle of P is stored and the imaginary parts of its
    diagonal are never written, so they stay exactly 0 over observations of
    any scale and both kinds of gain, and P stays positive on its diagonal."""
    k, d = 6, 5
    for gain_of in (lambda: float(rng.uniform(0.1, 10.0)), lambda: rng.uniform(0.1, 10.0, k)):
        state = AuxivaState(k, d)
        for n, scale in enumerate(np.logspace(-6, 3, 200)):
            obs = scale * (rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d)))
            update_planes(state.inv, state.trace, obs, 0.99, gain_of(), 1e-6, n % d, state.rows)
            diagonal = np.diagonal(auxiva._entries(d))
            assert state.inv[:, 1, diagonal].tobytes() == np.zeros_like(
                state.inv[:, 1, diagonal]).tobytes()
            inv = state.inverse
            assert np.array_equal(inv, inv.conj().transpose(0, 2, 1))
            assert (np.einsum("kdd->kd", inv).real > 0).all()


def test_loading_is_trace_relative(rng):
    """Frame n loads coordinate n mod D of every bin by
    rho = (1 - alpha) diag_load tau, tau the trace after the frame's data;
    a bin whose observation is zero is left as it is, its P at the prior."""
    dim, n_bins, alpha = 3, 2, 0.5
    state = AuxivaState(n_bins, dim, AuxivaConfig(alpha=alpha, diag_load=0.1))
    cov = np.broadcast_to(1e-3 * np.eye(dim), (n_bins, dim, dim)).astype(complex)
    for n in range(4):
        obs = rng.standard_normal((n_bins, dim)) + 1j * rng.standard_normal((n_bins, dim))
        obs[1] = 0.0
        weight_before = frame_weight(state, obs, state.rows)
        process_frame(state, obs)
        cov, tau = _dense_update(cov, obs, alpha, weight_before, 0.1, n % dim)
        np.testing.assert_allclose(state.inverse[0], np.linalg.inv(cov[0]), rtol=1e-9)
        np.testing.assert_allclose(state.trace[0], tau[0], rtol=1e-12)
        np.testing.assert_array_equal(state.inverse[1], np.eye(dim) / 1e-3)
        assert state.trace[1] == dim * 1e-3
    assert state.frames == 4


def test_row_solve_matches_inverse_first_column(rng):
    """The row is P's first column over P_00, its first entry exactly 1, and
    it equals the loaded solve of V = P^-1 without loading."""
    n_bins = 513
    for dim in (2, 4, 10, 19):
        cov = random_hpd(rng, dim, n_bins)
        inv = np.linalg.inv(cov)
        inv = 0.5 * (inv + inv.conj().transpose(0, 2, 1))
        prev = np.tile(passthrough_row(dim), (n_bins, 1))
        rows, skipped = rows_of(inv, prev)
        assert skipped == 0
        np.testing.assert_array_equal(rows[:, 0], np.ones(n_bins))  # pinned exactly
        col = inv[:, :, 0]
        np.testing.assert_allclose(rows, col / col[:, :1], rtol=1e-14, atol=0)
        expected, _ = loaded_rows(cov, prev, 0.0)
        err = np.linalg.norm(rows - expected, axis=1) / np.linalg.norm(expected, axis=1)
        assert err.max() <= 1e-8, (dim, err.max())


def test_row_solve_keeps_previous_on_singular(rng):
    """A bin whose trace is not finite (broken, reset by ``process_frame``)
    and one whose row overflows (skipped, counted) keep their previous rows."""
    inv = np.linalg.inv(random_hpd(rng, 3, 3))
    inv[2, 0, 0] = 1e-300  # P_00 so small that the row overflows
    inv[2, 0, 1], inv[2, 1, 0] = 1e200, 1e200
    prev = np.tile(passthrough_row(3), (3, 1))
    prev[0, 1] = 0.25
    prev[2, 2] = -0.5
    rows, skipped = rows_of(inv, prev, trace=np.array([np.inf, 1.0, 1.0]))
    assert skipped == 1
    np.testing.assert_array_equal(rows[0], prev[0])
    np.testing.assert_array_equal(rows[2], prev[2])
    assert np.isfinite(rows[1]).all() and not np.array_equal(rows[1], prev[1])


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
    r1 = compute_r1(state.rows, obs)
    # passthrough rows: outputs are the first observation entries
    assert r1 == pytest.approx(np.sqrt(np.sum(np.abs(obs[:, 0]) ** 2)))
    assert weight(r1, state.config) == pytest.approx(r1 ** (0.4 - 2.0))
    assert compute_r1(state.rows, np.zeros((3, 2), dtype=complex)) == R_FLOOR


def test_process_frame_counts_and_shape(rng):
    state = AuxivaState(5, 3)
    obs = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    out = process_frame(state, obs)
    assert out.shape == (5,)
    assert state.skipped_bins == 0
    with pytest.raises(ValueError):
        process_frame(state, np.zeros((5, 4), dtype=complex))


def test_process_frame_reads_a_reused_buffer_afresh(rng):
    """One buffer rewritten in place every frame, a strided view and fresh
    arrays give the same frames byte for byte: each is packed into the
    state's own observation planes, whose address its kernel keeps."""
    frames = rng.standard_normal((6, 9, 4)) + 1j * rng.standard_normal((6, 9, 4))
    states = [AuxivaState(9, 4) for _ in range(3)]
    buffer = np.empty((9, 4), dtype=np.complex128)
    wide = np.empty((9, 8), dtype=np.complex128)
    for obs in frames:
        buffer[...] = obs
        wide[:, ::2] = obs
        outs = [process_frame(s, o) for s, o in zip(states, (buffer, wide[:, ::2], obs.copy()))]
        assert outs[0].tobytes() == outs[1].tobytes() == outs[2].tobytes()
    for state in states:
        assert unpack_observations(state.obs, 9).tobytes() == frames[-1].tobytes()
        assert state.kernel.obs == state.obs.ctypes.data


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


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=-40, max_value=40),
)
def test_solved_rows_always_unit_leading(seed, s):
    """Rows are finite with a leading 1, and an update of P, tau and the
    gain rescaled by 2^-s, 2^s and 2^s gives P rescaled and the same rows,
    bit for bit: the update is invariant to a power-of-two rescale."""
    rng = np.random.default_rng(seed)
    cov = random_hpd(rng, 3, 4)
    obs = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    inv, trace = np.linalg.inv(cov), np.einsum("kdd->k", cov).real
    inv = 0.5 * (inv + inv.conj().transpose(0, 2, 1))
    scaled, scaled_trace = 2.0**-s * inv, 2.0**s * trace
    _, rows = update_dense(inv, trace, obs, 0.99, 1.5, 1e-3)
    assert np.isfinite(rows).all()
    np.testing.assert_array_equal(rows[:, 0], np.ones(4))
    _, scaled_rows = update_dense(scaled, scaled_trace, obs, 0.99, 2.0**s * 1.5, 1e-3)
    assert scaled_rows.tobytes() == rows.tobytes()
    assert scaled.tobytes() == (2.0**-s * inv).tobytes()
    assert scaled_trace.tobytes() == (2.0**s * trace).tobytes()


def test_inverse_stays_stable_over_20000_frames():
    """``process_frame`` at D = 10 and alpha = 0.99 on a cycled block of
    observations: after 20000 frames the imaginary parts of P's diagonal
    are exactly 0, P_00 > 0, and the rows agree to 1e-5 relative with the
    loaded solve of the recursion's V, tracked densely alongside with the
    same weights and loading."""
    rng = np.random.default_rng(11)
    n_bins, dim, alpha = 16, 10, 0.99
    block = rng.standard_normal((97, n_bins, dim)) + 1j * rng.standard_normal((97, n_bins, dim))
    block[..., 1:] *= rng.uniform(0.05, 3.0, dim - 1)
    state = AuxivaState(n_bins, dim, AuxivaConfig(alpha=alpha))
    cov = np.broadcast_to(1e-3 * np.eye(dim), (n_bins, dim, dim)).astype(complex)
    for n in range(20000):
        obs = block[n % len(block)]
        gain = frame_weight(state, obs, state.rows)
        process_frame(state, obs)
        cov, _ = _dense_update(cov, obs, alpha, gain, state.config.diag_load, n % dim)
    diagonal = np.diagonal(auxiva._entries(dim))
    assert not state.inv[:, 1, diagonal].any()
    assert (state.inverse[:, 0, 0].real > 0).all()
    expected, _ = loaded_rows(cov, state.rows, 0.0)
    err = np.linalg.norm(state.rows - expected, axis=1) / np.linalg.norm(expected, axis=1)
    assert err.max() <= 1e-5, err.max()


def test_muted_microphone_keeps_p00_bounded(rng):
    """With the microphone coordinate at exactly 0 and the references live,
    b stays 0 and V_00 = a holds the prior and the loading that frame n
    adds to coordinate 0 when n mod D = 0, rho = load tau_pre with
    tau = (1 + load) tau_pre after it. Every load decays by alpha per frame,
    so P_00 = 1 / a stays below 1 / (rho alpha^age) for the last load,
    instead of growing by 1 / alpha per frame (2^600 here). The slack of
    1e-4 covers the first update, which takes P_00 from 2000 to 1 / rho,
    about 2e-7, and so loses about 9 of P_00's digits."""
    n_bins, dim, alpha, diag_load = 5, 4, 0.5, 1e-6
    state = AuxivaState(n_bins, dim, AuxivaConfig(alpha=alpha, diag_load=diag_load))
    load = (1.0 - alpha) * diag_load
    for n in range(600):
        obs = rng.standard_normal((n_bins, dim)) + 1j * rng.standard_normal((n_bins, dim))
        obs[:, 0] = 0.0
        process_frame(state, obs)
        if n % dim == 0:
            rho, age = load * state.trace[:n_bins] / (1.0 + load), 0
        else:
            age += 1
        assert (state.inverse[:, 0, 0].real * rho * alpha**age <= 1.0 + 1e-4).all(), n
    assert np.isfinite(state.rows).all() and state.skipped_bins == 0
