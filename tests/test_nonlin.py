"""Odd-power reference expansion."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from naec.nonlin import odd_powers


def test_small_vector_by_hand():
    x = np.array([2.0, -1.0, 0.5])
    out = odd_powers(x, 3)
    np.testing.assert_array_equal(out[0], x)
    np.testing.assert_array_equal(out[1], [8.0, -1.0, 0.125])
    np.testing.assert_array_equal(out[2], [32.0, -1.0, 0.03125])


def test_first_channel_is_identity(rng):
    x = rng.standard_normal(100)
    out = odd_powers(x, 5)
    assert out.shape == (5, 100)
    np.testing.assert_array_equal(out[0], x)


@settings(max_examples=50, deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(min_value=1, max_value=32),
        elements=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    ),
    st.integers(min_value=1, max_value=4),
)
def test_odd_symmetry(x, p):
    np.testing.assert_array_equal(odd_powers(-x, p), -odd_powers(x, p))


def test_channels_are_consecutive_odd_powers(rng):
    x = rng.uniform(-1.0, 1.0, 50)
    out = odd_powers(x, 4)
    for i in range(4):
        np.testing.assert_allclose(out[i], x ** (2 * i + 1), rtol=1e-12, atol=1e-300)

