"""Machine-speed calibration for the end-to-end timings.

A shared machine switches for minutes at a time into a state where all
compute runs about 1.6-1.7 times slower (other tenants load it); a run
that falls wholly into such a phase cannot be repaired by taking minima
over its own passes. So each run also times a fixed numpy kernel with the
engine's mix of work (a batched 10 x 10 complex solve, an outer-product
covariance update and four 1024-point rffts) between passes, and scales
its push and cold-start times by ``REFERENCE_MS / fastest kernel time``:
they are reported as they would read on the reference machine at its
normal speed. The kernel does not use ``naec``, so a change to the program
cannot move it. The scaling is approximate: in some slow phases the kernel
slows more than the engine does.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

# Fastest kernel time on the reference machine: 2-core Intel Xeon VM at
# 2.1 GHz, numpy 2.4 with OpenBLAS 0.3.31 on one thread.
REFERENCE_MS = 1.45
REPEATS = 10


class Kernel:
    """Fixed inputs from a fixed seed; ``sample`` is the median of ``REPEATS`` timings in ms."""

    def __init__(self, n_bins: int = 513, dim: int = 10):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((n_bins, dim, dim)) + 1j * rng.standard_normal((n_bins, dim, dim))
        self.cov = a @ a.conj().transpose(0, 2, 1) + dim * np.eye(dim)
        self.rhs = np.zeros((n_bins, dim, 1), dtype=np.complex128)
        self.rhs[:, 0] = 1.0
        self.obs = rng.standard_normal((n_bins, dim)) + 1j * rng.standard_normal((n_bins, dim))
        self.frames = rng.standard_normal((4, 1024))

    def _once(self) -> int:
        t0 = perf_counter_ns()
        np.linalg.solve(self.cov, self.rhs)
        cov = 0.99 * self.cov + np.einsum("kd,ke->kde", self.obs, self.obs.conj())
        0.5 * (cov + cov.conj().transpose(0, 2, 1))
        np.fft.rfft(self.frames, axis=-1)
        return perf_counter_ns() - t0

    def sample(self) -> float:
        return float(np.median([self._once() for _ in range(REPEATS)])) / 1e6
