"""Odd-power expansion of the far-end signal into nonlinear reference channels.

Channel ``i`` (1-based) carries ``x**(2*i - 1)``, so channel 1 is the signal
itself. Expansion happens in the time domain; each channel is then analyzed
separately so the references are true spectra of the powered signals.
The order P is ``CtfConfig.order_p``, which also validates it.
"""

from __future__ import annotations

import numpy as np


def odd_powers(x: np.ndarray, order_p: int) -> np.ndarray:
    """Stack [x, x**3, ..., x**(2P-1)] as a (P, len(x)) array.

    Built by repeated multiplication with x**2 so every pipeline path that
    expands the same samples produces bit-identical channels.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((order_p, x.shape[0]))
    out[0] = x
    if order_p > 1:
        x2 = x * x
        for i in range(1, order_p):
            out[i] = out[i - 1] * x2
    return out
