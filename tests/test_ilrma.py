"""Rank-1 NMF source model: multiplicative updates and batch mode."""

import numpy as np
import pytest

from naec.auxiva import AuxivaConfig, process_frame
from naec.ilrma import (
    NMF_FLOOR,
    IlrmaState,
    NmfSourceModel,
    update_activations,
    update_bases,
)
from oracles import itakura_saito, nmf_batch_sweep


def _literal_bases_update(t1, v1, r1, p, floor):
    """Loop transcription of the multiplicative basis update."""
    out = np.empty_like(t1)
    for k in range(len(t1)):
        num = p[k] * v1 / r1[k] ** 2
        den = v1 / r1[k]
        out[k] = max(t1[k] * np.sqrt(num / den), floor)
    return out


def _random_model(rng, n_bins, low=0.5):
    m = NmfSourceModel(n_bins)
    m.t1 = rng.uniform(low, 2.0, n_bins)
    m.v1 = rng.uniform(low, 2.0)
    m.recompute_variance()
    return m


def test_model_initial_state():
    m = NmfSourceModel(4)
    np.testing.assert_array_equal(m.t1, np.ones(4))
    assert m.v1 == 1.0
    np.testing.assert_array_equal(m.r1, np.ones(4))
    # the padding lanes the kernel computes on start as the bins do
    np.testing.assert_array_equal(m.basis, np.ones(8))
    np.testing.assert_array_equal(m.variance, np.ones(8))


@pytest.mark.parametrize("n_bins", [9, 513])
def test_setters_give_the_padding_lanes_bin_k_minus_1(rng, n_bins):
    """Assigning t1 or r1, and ``recompute_variance``, copy bin K - 1 into the
    padding lanes of the basis and the variance, the invariant the compiled
    weight and update rely on, bit for bit."""
    m = NmfSourceModel(n_bins)
    padding = m.basis.size - n_bins
    m.t1 = rng.uniform(0.2, 2.0, n_bins)
    assert m.basis[n_bins:].tobytes() == np.full(padding, m.t1[-1]).tobytes()
    m.v1 = 0.7
    m.recompute_variance()
    assert m.variance[-1] != 1.0  # the padding lanes moved off their start
    assert m.variance[n_bins:].tobytes() == np.full(padding, m.r1[-1]).tobytes()
    m.r1 = rng.uniform(0.2, 2.0, n_bins)
    assert m.variance[n_bins:].tobytes() == np.full(padding, m.r1[-1]).tobytes()


def test_bases_update_matches_literal_formula(rng):
    m = _random_model(rng, 6)
    e1 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    expected = _literal_bases_update(
        m.t1, float(m.v1), m.r1, np.abs(e1) ** 2, NMF_FLOOR
    )
    update_bases(m, e1)
    np.testing.assert_allclose(m.t1, expected, rtol=1e-13)
    np.testing.assert_allclose(m.r1, np.maximum(m.t1 * m.v1, NMF_FLOOR), rtol=0)


def test_activation_update_sums_over_bins(rng):
    m = _random_model(rng, 5)
    e1 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    p = np.abs(e1) ** 2
    num = sum(m.t1[k] * p[k] / m.r1[k] ** 2 for k in range(5))
    den = sum(m.t1[k] / m.r1[k] for k in range(5))
    expected = max(m.v1 * np.sqrt(num / den), NMF_FLOOR)
    update_activations(m, e1)
    np.testing.assert_allclose(m.v1, expected, rtol=1e-13)


def test_perfect_fit_is_a_fixed_point(rng):
    """When |e1|^2 already equals t1 v1 both updates change nothing."""
    m = _random_model(rng, 8)
    e1 = np.sqrt(m.r1)  # power exactly matches the model variance
    t_before, v_before = m.t1.copy(), m.v1.copy()
    update_bases(m, e1)
    update_activations(m, e1)
    np.testing.assert_allclose(m.t1, t_before, rtol=1e-12)
    np.testing.assert_allclose(m.v1, v_before, rtol=1e-12)


def test_zero_power_floors_bases():
    m = NmfSourceModel(3)
    update_bases(m, np.zeros(3, dtype=complex))
    np.testing.assert_array_equal(m.t1, np.full(3, 1e-12))
    assert np.all(m.r1 >= 1e-12)


def test_online_pair_equals_single_column_batch_sweep(rng):
    m = _random_model(rng, 6)
    e1 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    t_ref, v_ref, r_ref = nmf_batch_sweep(
        m.t1.reshape(6, 1), m.v1.reshape(1, 1), (np.abs(e1) ** 2)[:, None], NMF_FLOOR
    )
    update_bases(m, e1)
    update_activations(m, e1)
    np.testing.assert_allclose(m.t1, t_ref[:, 0], rtol=1e-13)
    np.testing.assert_allclose(m.v1, v_ref[0, 0], rtol=1e-13)
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
    state = IlrmaState(4, 3, AuxivaConfig(alpha=0.95))
    for _ in range(8):
        obs = np.zeros((4, 3), dtype=np.complex128)
        obs[:, 0] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        out = process_frame(state, obs)
        np.testing.assert_array_equal(out, obs[:, 0])
    np.testing.assert_array_equal(state.rows[:, 1:], np.zeros((4, 2)))


def test_process_frame_shape_check():
    state = IlrmaState(4, 3)
    with pytest.raises(ValueError):
        process_frame(state, np.zeros((3, 3), dtype=complex))


def test_config_validation():
    with pytest.raises(ValueError):
        AuxivaConfig(diag_load=-1.0)
    with pytest.raises(ValueError):
        AuxivaConfig(alpha=1.5)
