"""Batch forms of the online engine and a numpy driver of its online core,
kept as test oracles only.

No part of the package calls these; the tests compare the engine's framing,
observation stacking and online updates against them.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from naec.audio_io import AudioSignal
from naec.auxiva import (
    COV_INIT_SCALE,
    LANES,
    R_FLOOR,
    AuxivaConfig,
    AuxivaState,
    _lane_bins,
    _prior,
    compute_r1,
    ewma_covariance_update,
    nonfinite_trace,
    pack_covariance,
    pack_observations,
    solve_demixing_rows,
    unpack_observations,
)
from naec.ctf import CtfConfig, demix_frame, passthrough_row
from naec.ilrma import NMF_FLOOR, IlrmaState, update_activations, update_bases
from naec.stft import StftConfig

_ENVELOPE_FLOOR = 1e-12


@dataclass
class Spectrogram:
    """One-sided complex spectrogram, shape (n_bins, n_frames)."""

    data: np.ndarray
    config: StftConfig

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 2 or self.data.shape[0] != self.config.n_bins:
            raise ValueError(
                f"expected shape ({self.config.n_bins}, n_frames), got {self.data.shape}"
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("spectrogram contains non-finite entries")

    @property
    def n_bins(self) -> int:
        return self.data.shape[0]

    @property
    def n_frames(self) -> int:
        return self.data.shape[1]


def n_frames_for(num_samples: int, config: StftConfig) -> int:
    """Number of analysis frames covering ``num_samples`` input samples."""
    if num_samples <= config.window_len:
        return 1
    return 1 + int(np.ceil((num_samples - config.window_len) / config.hop))


def analyze(signal: AudioSignal, config: StftConfig = StftConfig(),
            rfft=np.fft.rfft) -> Spectrogram:
    """Windowed one-sided DFT of ``signal`` by ``rfft`` over the last axis;
    short input is zero-padded."""
    x = signal.samples
    n = n_frames_for(len(x), config)
    padded_len = (n - 1) * config.hop + config.window_len
    if padded_len > len(x):
        x = np.concatenate([x, np.zeros(padded_len - len(x))])
    frames = np.lib.stride_tricks.sliding_window_view(x, config.window_len)[:: config.hop]
    data = rfft(frames * config.window_samples())
    return Spectrogram(data.T, config)


def synthesize(spec: Spectrogram, irfft=np.fft.irfft) -> AudioSignal:
    """Weighted overlap-add inverse by ``irfft`` over the last axis; output
    length (n_frames-1)*hop + window_len."""
    config = spec.config
    w = config.window_samples()
    hop, wl = config.hop, config.window_len
    n = spec.n_frames
    out_len = (n - 1) * hop + wl
    acc = np.zeros(out_len)
    env = np.zeros(out_len)
    frames = irfft(spec.data.T, n=wl)
    w2 = w * w
    for m in range(n):
        acc[m * hop : m * hop + wl] += w * frames[m]
        env[m * hop : m * hop + wl] += w2
    out = np.where(env > _ENVELOPE_FLOOR, acc / np.maximum(env, _ENVELOPE_FLOOR), 0.0)
    return AudioSignal(out)


def _check_shapes(mic: Spectrogram, refs: Sequence[Spectrogram], config: CtfConfig):
    if len(refs) != config.order_p:
        raise ValueError(f"expected {config.order_p} reference spectrograms, got {len(refs)}")
    for r in refs:
        if r.data.shape != mic.data.shape:
            raise ValueError(
                f"reference shape {r.data.shape} does not match microphone {mic.data.shape}"
            )


def build_observation(
    mic: Spectrogram,
    refs: Sequence[Spectrogram],
    k: int,
    n: int,
    config: CtfConfig,
) -> np.ndarray:
    """Stacked observation vector y(k, n) of dimension P*L + 1."""
    _check_shapes(mic, refs, config)
    y = np.zeros(config.dim, dtype=np.complex128)
    y[0] = mic.data[k, n]
    pos = 1
    for ref in refs:
        for lag in range(config.frames_l):
            if n - lag >= 0:
                y[pos] = ref.data[k, n - lag]
            pos += 1
    return y


def frame_observations(
    mic: Spectrogram,
    refs: Sequence[Spectrogram],
    n: int,
    config: CtfConfig,
) -> np.ndarray:
    """Observation vectors for every bin of frame n, shape (K, P*L + 1)."""
    _check_shapes(mic, refs, config)
    obs = np.zeros((mic.n_bins, config.dim), dtype=np.complex128)
    obs[:, 0] = mic.data[:, n]
    for i, ref in enumerate(refs):
        for lag in range(min(config.frames_l, n + 1)):
            obs[:, 1 + i * config.frames_l + lag] = ref.data[:, n - lag]
    return obs


def batch_observations(
    mic: Spectrogram,
    refs: Sequence[Spectrogram],
    config: CtfConfig,
) -> np.ndarray:
    """Observations for every frame, shape (N, K, P*L + 1)."""
    return np.stack(
        [frame_observations(mic, refs, n, config) for n in range(mic.n_frames)]
    )


def constrained_matrix(row: np.ndarray) -> np.ndarray:
    """Full (P*L+1)-square demixing matrix: first row w^H, rest [0 | I].

    ``row`` is the whole 1-D row w, whose first element must be exactly 1.
    """
    row = np.asarray(row, dtype=np.complex128)
    if row.ndim != 1 or row[0] != 1.0:
        raise ValueError(f"expected a 1-D row with first element exactly 1, got {row}")
    mat = np.eye(len(row), dtype=np.complex128)
    mat[0, :] = row.conj()
    return mat


def offline_batch(
    observations: np.ndarray,
    config: AuxivaConfig = AuxivaConfig(),
    iterations: int = 20,
) -> np.ndarray:
    """Batch fixed-point sweeps over (N, K, D) observations; returns (K, D) rows.

    From passthrough rows, each sweep weights every frame by Phi(r1(n)) of its
    outputs, shared by all bins, forms the weighted mean covariance per bin,
    and re-solves every row with the online mode's normalization, loaded
    by ``loaded_rows``.
    """
    obs = np.asarray(observations, dtype=np.complex128)
    if obs.ndim != 3:
        raise ValueError(f"expected (N, K, D) observations, got {obs.shape}")
    n_frames, n_bins, dim = obs.shape
    rows = np.tile(passthrough_row(dim), (n_bins, 1))
    for _ in range(iterations):
        e = np.einsum("kd,nkd->nk", rows.conj(), obs)
        r1 = np.maximum(np.sqrt(np.sum(np.abs(e) ** 2, axis=1)), R_FLOOR)
        phi = np.broadcast_to((r1 ** (config.beta - 2.0))[:, np.newaxis], e.shape)
        cov = np.einsum("nk,nkd,nke->kde", phi, obs, obs.conj()) / n_frames
        cov = 0.5 * (cov + cov.conj().transpose(0, 2, 1))
        rows, _ = loaded_rows(cov, rows, config.diag_load)
    return rows


def ewma(cov: np.ndarray, obs: np.ndarray, alpha: float, gain) -> np.ndarray:
    """The covariance recursion alpha V + (1 - alpha) gain y y^H on (K, D, D)
    ``cov``, with a scalar or per-bin ``gain``, kept exactly Hermitian."""
    gain = np.broadcast_to(np.asarray(gain, dtype=np.float64), (len(cov),))
    out = alpha * cov + ((1.0 - alpha) * gain)[:, np.newaxis, np.newaxis] * np.einsum(
        "kd,ke->kde", obs, obs.conj())
    return 0.5 * (out + out.conj().transpose(0, 2, 1))


def online_recursion(observations: np.ndarray, config: AuxivaConfig = AuxivaConfig()
                     ) -> np.ndarray:
    """The online recursion tracked densely over (N, K, D) observations;
    returns the (K, D) rows after the last frame.

    Frame n weights the bins by Phi(r1) of the previous rows' outputs, sets
    V <- alpha V + s y y^H + rho e_j e_j^H per bin with s = (1 - alpha) Phi,
    j = n mod D and rho = (1 - alpha) diag_load tau, tau = tr(V) after the
    data, leaves a bin whose s |y|^2 is 0 as it is, and solves the rows of V
    by ``loaded_rows`` without further loading.
    """
    obs = np.asarray(observations, dtype=np.complex128)
    n_frames, n_bins, dim = obs.shape
    cov = np.broadcast_to(1e-3 * np.eye(dim), (n_bins, dim, dim)).astype(np.complex128)
    rows = np.tile(passthrough_row(dim), (n_bins, 1))
    for n, y in enumerate(obs):
        r1 = max(np.sqrt(np.sum(np.abs(np.einsum("kd,kd->k", rows.conj(), y)) ** 2)), R_FLOOR)
        phi = r1 ** (config.beta - 2.0)
        new = ewma(cov, y, config.alpha, phi)
        new[:, n % dim, n % dim] += (1.0 - config.alpha) * config.diag_load * np.einsum(
            "kdd->k", new).real
        moved = (1.0 - config.alpha) * phi * np.sum(np.abs(y) ** 2, axis=1) != 0.0
        cov = np.where(moved[:, np.newaxis, np.newaxis], new, cov)
        rows, _ = loaded_rows(cov, rows, 0.0)
    return rows


def loaded_rows(cov: np.ndarray, prev_rows: np.ndarray, diag_load: float
                ) -> tuple[np.ndarray, int]:
    """Rows [1; -(C + lambda I)^{-1} b] of the (K, D, D) Hermitian ``cov``
    = [[a, b^H], [b, C]], lambda = diag_load * tr(V) / D, by Gaussian
    elimination without pivoting over all bins at once; bins whose trace or
    solution is not finite keep ``prev_rows``, and their count is returned.
    This was the engine's row solve before it tracked the inverse."""
    n_bins, dim = prev_rows.shape
    n = dim - 1
    trace = np.einsum("kdd->k", cov).real
    a = np.empty((n, dim, n_bins), dtype=np.complex128)  # [C + lambda I | b], bins last
    a[:, :n] = cov[:, 1:, 1:].transpose(1, 2, 0)
    a[:, n] = cov[:, 1:, 0].T
    a[np.arange(n), np.arange(n)] += diag_load * trace / dim
    with np.errstate(all="ignore"):
        for j in range(n):
            inv_pivot = 1.0 / a[j, j].real
            lower = a[j, j + 1 : n].conj()
            a[j, j + 1 :] *= inv_pivot
            for i in range(j + 1, n):
                a[i, i:] -= lower[i - j - 1] * a[j, i:]
        x = a[:, n]
        for col in range(n - 1, 0, -1):
            x[:col] -= a[:col, col] * x[col]
    bad = ~(np.isfinite(x).all(axis=0) & np.isfinite(trace))
    rows = np.empty_like(prev_rows)
    rows[:, 0] = 1.0
    rows[:, 1:] = -x.T
    return np.where(bad[:, np.newaxis], prev_rows, rows), int(bad.sum())


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


def nlms(observations: np.ndarray, mu: float) -> np.ndarray:
    """Per-bin NLMS echo canceller on (N, K, D) observations; returns the (N, K) errors.

    The adaptive baseline of the paper's comparison, on the engine's own
    odd-power CTF observation: bin k predicts the microphone entry y_0 from
    the D - 1 reference entries x with a filter h, outputs e = y_0 - h^H x,
    and takes h <- h + mu x conj(e) / (|x|^2 + p), regularized by p, the
    long-term far-end power of the bin: the mean of |x|^2 over the frames so
    far. No double-talk detector and no step-size control.
    """
    n_frames, n_bins, dim = observations.shape
    h = np.zeros((n_bins, dim - 1), dtype=np.complex128)
    total = np.zeros(n_bins)
    out = np.empty((n_frames, n_bins), dtype=np.complex128)
    for n, obs in enumerate(observations):
        x, y = obs[:, 1:], obs[:, 0]
        power = np.sum(x.real**2 + x.imag**2, axis=1)
        total += power
        out[n] = e = y - np.einsum("kd,kd->k", h.conj(), x)
        denom = power + total / (n + 1)
        h += mu * x * np.where(denom > 0.0, e.conj() / np.maximum(denom, 1e-300), 0.0)[:, None]
    return out


def weight(r1: float, config: AuxivaConfig) -> float:
    """Weighting function Phi(r1) = r1**(beta - 2); finite because r1 is floored."""
    return float(r1 ** (config.beta - 2.0))


def frame_weight(state: AuxivaState, obs: np.ndarray, rows: np.ndarray):
    """The covariance weight of a frame from the (K, D) pre-update ``rows``:
    AuxIVA's Phi(r1), or for an ``IlrmaState`` the per-bin 1/r1(k) after
    the NMF updates on the outputs, which update ``state.model``."""
    if not isinstance(state, IlrmaState):
        return weight(compute_r1(rows, obs), state.config)
    e_pre = demix_frame(rows, obs)
    if e_pre.any():  # an all-zero frame would floor t1 and v1
        update_bases(state.model, e_pre)
        update_activations(state.model, e_pre)
    return 1.0 / state.model.r1


def process_frame(state: AuxivaState, obs: np.ndarray) -> np.ndarray:
    """``auxiva.process_frame`` in numpy on the same state: ``frame_weight``,
    ``ewma_covariance_update``, ``solve_demixing_rows`` and
    ``ctf.demix_frame`` on the unpacked (K, D) observations and rows.

    For the same weight, P, tau, the rows and the output are the kernel's
    bytes; the weights agree with the compiled ones to rounding. Broken bins
    are reset by ``reset_broken``, as the ``step`` kernel does.
    """
    state.obs[state.channel] = pack_observations(obs)
    config, kernel = state.config, state.kernel
    coord = kernel.frames % state.dim
    kernel.frames += 1
    obs, prev = unpack_observations(state.logical_obs, state.n_bins), state.rows
    # A finite burst may overflow |e|^2; the update's count of broken bins
    # handles it, so numpy's warnings are only noise.
    with np.errstate(over="ignore", invalid="ignore"):
        gain = frame_weight(state, obs, prev)
    broken = ewma_covariance_update(state.inv, state.trace, obs, config.alpha, gain,
                                    config.diag_load, coord)
    rows, skipped = solve_demixing_rows(state.inv, state.trace, prev)
    state.rows = rows
    kernel.skipped_bins += skipped
    if broken:
        reset_broken(state)
    else:
        state.out[...] = demix_frame(rows, obs)
    return state.out.copy()


def reset_broken(state: AuxivaState) -> None:
    """The ``step`` kernel's bin reset in numpy: restart the broken bins
    (``nonfinite_trace``) from the prior P = I / COV_INIT_SCALE, tau =
    D COV_INIT_SCALE and the passthrough row, the padding lanes following
    bin K - 1, add their count to ``broken_bins``, and demix
    ``state.logical_obs`` into ``state.out`` again. For an ``IlrmaState``,
    non-finite basis entries and activation return to 1, and r1 is
    refreshed over the whole padded buffer."""
    mask = nonfinite_trace(state.inv, state.trace, state.n_bins)
    lanes = mask[_lane_bins(state.n_bins)]
    prior = pack_covariance(_prior(state.dim)[np.newaxis])
    np.copyto(state.inv, prior, where=lanes.reshape(len(state.inv), 1, 1, LANES))
    state.trace[lanes] = state.dim * COV_INIT_SCALE
    state.rows = np.where(mask[:, np.newaxis], passthrough_row(state.dim), state.rows)
    state.kernel.broken_bins += int(np.count_nonzero(mask))
    if isinstance(state, IlrmaState):
        m = state.model
        for buffer in (m.basis, m.activation):
            buffer[~np.isfinite(buffer)] = 1.0
        m.variance[...] = np.maximum(m.basis * m.activation, NMF_FLOOR)
    state.out[...] = demix_frame(state.rows, unpack_observations(state.logical_obs, state.n_bins))
