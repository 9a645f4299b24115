"""Rank-constrained spectral model: multiplicative updates and batch mode."""

import numpy as np
import pytest

from naec.ilrma import (
    IlrmaConfig,
    IlrmaState,
    NmfSourceModel,
    itakura_saito,
    nmf_batch_sweep,
    offline_batch,
    process_frame,
    update_activations,
    update_bases,
)


def _literal_bases_update(t1, v1, r1, p, floor):
    """Loop transcription of the multiplicative bases update."""
    k_bins, b = t1.shape
    out = np.empty_like(t1)
    for k in range(k_bins):
        for j in range(b):
            num = p[k] * v1[j] / r1[k] ** 2
            den = v1[j] / r1[k]
            out[k, j] = max(t1[k, j] * np.sqrt(num / den), floor)
    return out


def test_model_initial_state():
    m = NmfSourceModel(4, 5)
    np.testing.assert_array_equal(m.t1, np.ones((4, 5)))
    np.testing.assert_array_equal(m.v1, np.full(5, 0.2))
    np.testing.assert_array_equal(m.r1, np.ones(4))


def test_bases_update_matches_literal_formula(rng):
    m = NmfSourceModel(6, 3)
    m.t1 = rng.uniform(0.5, 2.0, (6, 3))
    m.v1 = rng.uniform(0.5, 2.0, 3)
    m.recompute_variance()
    e1 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    expected = _literal_bases_update(
        m.t1, m.v1, m.r1, np.abs(e1) ** 2, m.floor
    )
    update_bases(m, e1)
    np.testing.assert_allclose(m.t1, expected, rtol=1e-13)
    np.testing.assert_allclose(m.r1, np.maximum(m.t1 @ m.v1, m.floor), rtol=0)


def test_activation_update_sums_over_bins(rng):
    m = NmfSourceModel(5, 2)
    m.t1 = rng.uniform(0.5, 2.0, (5, 2))
    m.v1 = rng.uniform(0.5, 2.0, 2)
    m.recompute_variance()
    e1 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    p = np.abs(e1) ** 2
    expected = np.empty(2)
    for j in range(2):
        num = np.sum(m.t1[:, j] * p / m.r1**2)
        den = np.sum(m.t1[:, j] / m.r1)
        expected[j] = max(m.v1[j] * np.sqrt(num / den), m.floor)
    update_activations(m, e1)
    np.testing.assert_allclose(m.v1, expected, rtol=1e-13)


def test_perfect_fit_is_a_fixed_point(rng):
    """When |e1|^2 already equals t1 @ v1 both updates change nothing."""
    m = NmfSourceModel(8, 2)
    m.t1 = rng.uniform(0.5, 2.0, (8, 2))
    m.v1 = rng.uniform(0.5, 2.0, 2)
    m.recompute_variance()
    e1 = np.sqrt(m.r1)  # power exactly matches the model variance
    t_before, v_before = m.t1.copy(), m.v1.copy()
    update_bases(m, e1)
    update_activations(m, e1)
    np.testing.assert_allclose(m.t1, t_before, rtol=1e-12)
    np.testing.assert_allclose(m.v1, v_before, rtol=1e-12)


def test_zero_power_floors_bases():
    m = NmfSourceModel(3, 2, floor=1e-12)
    update_bases(m, np.zeros(3, dtype=complex))
    np.testing.assert_array_equal(m.t1, np.full((3, 2), 1e-12))
    assert np.all(m.r1 >= 1e-12)


def test_online_pair_equals_single_column_batch_sweep(rng):
    m = NmfSourceModel(6, 3)
    m.t1 = rng.uniform(0.5, 2.0, (6, 3))
    m.v1 = rng.uniform(0.5, 2.0, 3)
    m.recompute_variance()
    e1 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    t_ref, v_ref, r_ref = nmf_batch_sweep(
        m.t1.copy(), m.v1.copy()[:, None], (np.abs(e1) ** 2)[:, None], m.floor
    )
    update_bases(m, e1)
    update_activations(m, e1)
    np.testing.assert_allclose(m.t1, t_ref, rtol=1e-13)
    np.testing.assert_allclose(m.v1, v_ref[:, 0], rtol=1e-13)
    np.testing.assert_allclose(m.r1, r_ref[:, 0], rtol=1e-13)


def test_batch_sweep_never_increases_divergence(rng):
    k_bins, b, n = 12, 3, 20
    power = rng.uniform(0.05, 4.0, (k_bins, n))
    t1 = rng.uniform(0.5, 1.5, (k_bins, b))
    v1 = rng.uniform(0.5, 1.5, (b, n))
    prev = itakura_saito(power, np.maximum(t1 @ v1, 1e-12))
    for _ in range(15):
        t1, v1, r1 = nmf_batch_sweep(t1, v1, power, 1e-12)
        cur = itakura_saito(power, r1)
        assert cur <= prev + 1e-9
        prev = cur


def test_itakura_saito_zero_at_match(rng):
    p = rng.uniform(0.1, 2.0, 10)
    assert itakura_saito(p, p) == pytest.approx(0.0, abs=1e-12)
    assert itakura_saito(p, 2.0 * p) > 0.0


def test_online_state_and_zero_reference_passthrough(rng):
    state = IlrmaState(4, 3, IlrmaConfig(bases_b=2))
    for _ in range(8):
        obs = np.zeros((4, 3), dtype=np.complex128)
        obs[:, 0] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        out = process_frame(state, obs)
        np.testing.assert_array_equal(out, obs[:, 0])
    np.testing.assert_array_equal(state.rows[:, 1:], np.zeros((4, 2)))
    assert state.frame_count == 8


def test_process_frame_shape_check():
    state = IlrmaState(4, 3)
    with pytest.raises(ValueError):
        process_frame(state, np.zeros((3, 3), dtype=complex))


def test_offline_batch_shapes_and_determinism(rng):
    obs = rng.standard_normal((10, 5, 3)) + 1j * rng.standard_normal((10, 5, 3))
    res_a = offline_batch(obs, IlrmaConfig(bases_b=2), iterations=6)
    res_b = offline_batch(obs, IlrmaConfig(bases_b=2), iterations=6)
    assert res_a.rows.shape == (5, 3)
    assert res_a.t1.shape == (5, 2)
    assert res_a.v1.shape == (2, 10)
    np.testing.assert_array_equal(res_a.rows, res_b.rows)
    seeded = offline_batch(obs, IlrmaConfig(bases_b=2), iterations=6, seed=1)
    assert not np.array_equal(seeded.t1, res_a.t1)


def test_config_validation():
    with pytest.raises(ValueError):
        IlrmaConfig(bases_b=0)
    with pytest.raises(ValueError):
        IlrmaConfig(alpha=1.5)
