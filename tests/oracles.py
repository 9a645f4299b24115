"""Batch forms of the online updates, kept as test oracles only.

No part of the package calls these; the tests compare the online updates
against them.
"""

import numpy as np


def nmf_batch_sweep(
    t1: np.ndarray, v1: np.ndarray, power: np.ndarray, floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One batch sweep of the bases/activations updates against |e1|^2.

    ``power`` is (K, N), ``t1`` (K, B), ``v1`` (B, N). Returns refreshed
    (t1, v1, r1); the variance is recomputed after each half-update.
    """
    r1 = np.maximum(t1 @ v1, floor)
    num = (power * r1 ** -2.0) @ v1.T
    den = (r1 ** -1.0) @ v1.T
    t1 = np.maximum(t1 * np.sqrt(num / den), floor)
    r1 = np.maximum(t1 @ v1, floor)
    num = t1.T @ (power * r1 ** -2.0)
    den = t1.T @ (r1 ** -1.0)
    v1 = np.maximum(v1 * np.sqrt(num / den), floor)
    r1 = np.maximum(t1 @ v1, floor)
    return t1, v1, r1


def itakura_saito(power: np.ndarray, variance: np.ndarray) -> float:
    """Itakura-Saito divergence sum(p/r - log(p/r) - 1) between power and model."""
    ratio = np.asarray(power) / np.asarray(variance)
    return float(np.sum(ratio - np.log(ratio) - 1.0))
