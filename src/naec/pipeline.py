"""Streaming echo-cancellation engine.

The engine consumes hop-sized chunks of the microphone and far-end signals,
updates the adaptive demixing filter once per chunk, and emits enhanced
samples with a fixed latency of ``window_len/hop - 1`` chunks (the analysis
look-ahead of the overlapped transform). ``run`` is ``run_streaming`` fed
the whole signal as one chunk, so chunked and whole-signal operation produce
bit-identical output by construction.

Internally each chunk advances rolling time-domain buffers for the
microphone and the expanded reference channels, computes one transform
frame, stacks it with the reference frame history into the observation
vector (``ctf.stack_observations``), runs one step of the optimizer core
(``auxiva.process_frame``, which serves both optimizers through their state
class), and overlap-adds the demixed frame into the output accumulator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from . import auxiva
from .audio_io import SAMPLE_RATE, AudioSignal
from .auxiva import AuxivaConfig, AuxivaState
from .ctf import CtfConfig, stack_observations
from .ilrma import IlrmaConfig, IlrmaState
from .nonlin import odd_powers
from .stft import StftConfig, check_cola

OPTIMIZERS = ("auxiva", "ilrma")


@dataclass(frozen=True)
class EngineConfig:
    """Optimizer choice plus transform / filter / adaptation parameters."""

    optimizer: str = "auxiva"
    stft: StftConfig = field(default_factory=StftConfig)
    ctf: CtfConfig = field(default_factory=CtfConfig)
    auxiva: AuxivaConfig = field(default_factory=AuxivaConfig)
    ilrma: IlrmaConfig = field(default_factory=IlrmaConfig)

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(
                f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}"
            )


@dataclass
class EngineStats:
    """Processing counters; ``realtime_factor`` > 1 means faster than audio."""

    n_frames: int = 0
    n_samples_in: int = 0
    n_samples_out: int = 0
    skipped_bins: int = 0
    elapsed_s: float = 0.0

    @property
    def realtime_factor(self) -> float:
        if self.elapsed_s <= 0.0:
            return float("inf")
        return self.n_samples_in / SAMPLE_RATE / self.elapsed_s


class StreamingEngine:
    """Push-based canceller; single use (push until done, then flush once)."""

    def __init__(self, config: EngineConfig | None = None):
        self.config = config = config if config is not None else EngineConfig()
        sc = config.stft
        check_cola(sc)
        self._window = sc.window_samples()
        self._hop = sc.hop
        self._wl = sc.window_len
        self._fft_len = sc.fft_len
        self._pad = self._wl - self._hop
        self._n_bins = sc.n_bins
        p, l = config.ctf.order_p, config.ctf.frames_l
        self._order_p = p
        self._mic_buf = np.zeros(self._wl)
        self._ref_bufs = np.zeros((p, self._wl))
        self._hist = np.zeros((p, l, self._n_bins), dtype=np.complex128)
        if config.optimizer == "auxiva":
            self._state = AuxivaState(self._n_bins, config.ctf.dim, config.auxiva)
        else:
            self._state = IlrmaState(self._n_bins, config.ctf.dim, config.ilrma)
        # Output overlap-add accumulators cover the not-yet-emitted region;
        # the implicit zero history of the buffers pre-pads the stream by
        # window_len - hop samples, which are dropped on emission.
        self._acc = np.zeros(self._wl)
        self._env = np.zeros(self._wl)
        self._frames = 0
        self._emit_z = self._pad
        self._closed = False
        self._n_in = 0
        self._n_out = 0
        self._elapsed = 0.0

    @property
    def hop(self) -> int:
        return self._hop

    @property
    def latency_chunks(self) -> int:
        return self._wl // self._hop - 1

    @property
    def stats(self) -> EngineStats:
        return EngineStats(
            n_frames=self._frames,
            n_samples_in=self._n_in,
            n_samples_out=self._n_out,
            skipped_bins=self._state.skipped_bins,
            elapsed_s=self._elapsed,
        )

    def push(self, mic_chunk, ref_chunk) -> np.ndarray:
        """Feed one hop of microphone and far-end samples.

        Returns the newly available enhanced samples (empty during the
        initial latency period, one hop per call afterwards). A chunk with a
        NaN or Inf raises ValueError and leaves the engine as it was.
        """
        if self._closed:
            raise RuntimeError("engine already flushed")
        mic = np.asarray(mic_chunk, dtype=np.float64)
        ref = np.asarray(ref_chunk, dtype=np.float64)
        if mic.shape != (self._hop,) or ref.shape != (self._hop,):
            raise ValueError(
                f"chunks must have shape ({self._hop},), "
                f"got {mic.shape} and {ref.shape}"
            )
        if not (np.isfinite(mic).all() and np.isfinite(ref).all()):
            raise ValueError("chunks contain non-finite samples")
        out = self._process_chunk(mic, ref)
        self._n_in += self._hop
        return out

    def _process_chunk(self, mic: np.ndarray, ref: np.ndarray) -> np.ndarray:
        t0 = time.perf_counter()
        hop, wl = self._hop, self._wl
        self._mic_buf[:-hop] = self._mic_buf[hop:]
        self._mic_buf[-hop:] = mic
        self._ref_bufs[:, :-hop] = self._ref_bufs[:, hop:]
        self._ref_bufs[:, -hop:] = odd_powers(ref, self._order_p)
        y_spec = np.fft.rfft(self._mic_buf * self._window)
        x_spec = np.fft.rfft(self._ref_bufs * self._window, axis=-1)
        self._hist[:, 1:] = self._hist[:, :-1]
        self._hist[:, 0] = x_spec
        obs = stack_observations(y_spec, self._hist)
        enhanced = auxiva.process_frame(self._state, obs)

        frame_td = np.fft.irfft(enhanced, n=self._fft_len)[:wl]
        start = self._frames * hop  # frame position on the padded time axis
        off = start - self._emit_z
        if off >= 0:
            self._acc[off : off + wl] += frame_td * self._window
            self._env[off : off + wl] += self._window**2
        else:
            self._acc[: wl + off] += frame_td[-off:] * self._window[-off:]
            self._env[: wl + off] += self._window[-off:] ** 2
        self._frames += 1

        emit_n = self._frames * hop - self._emit_z
        if emit_n <= 0:
            out = np.empty(0)
        else:
            acc, env = self._acc[:emit_n], self._env[:emit_n]
            out = np.where(env > 1e-12, acc / np.where(env > 1e-12, env, 1.0), 0.0)
            self._acc[:-emit_n] = self._acc[emit_n:]
            self._acc[-emit_n:] = 0.0
            self._env[:-emit_n] = self._env[emit_n:]
            self._env[-emit_n:] = 0.0
            self._emit_z += emit_n
            self._n_out += emit_n
        self._elapsed += time.perf_counter() - t0
        return out

    def flush(self) -> np.ndarray:
        """Drain the pipeline; returns the remaining enhanced samples.

        Feeds silence through the same processing path until every input
        sample is fully overlapped, so the tail matches batch synthesis of
        the zero-padded stream. The engine is closed afterwards.
        """
        if self._closed:
            raise RuntimeError("engine already flushed")
        zero = np.zeros(self._hop)
        parts = [self._process_chunk(zero, zero) for _ in range(self.latency_chunks)]
        self._closed = True
        return np.concatenate(parts) if parts else np.empty(0)


def run(
    far: AudioSignal,
    mic: AudioSignal,
    config: EngineConfig | None = None,
) -> tuple[AudioSignal, EngineStats]:
    """Process whole signals through the streaming engine.

    ``run_streaming`` with the whole signal as one chunk; the output is
    trimmed to the input length and stays sample-aligned with the microphone.
    """
    if len(mic) != len(far):
        raise ValueError(f"length mismatch: mic {len(mic)}, far {len(far)}")
    if mic.sample_rate != SAMPLE_RATE or far.sample_rate != SAMPLE_RATE:
        raise ValueError(f"signals must be sampled at {SAMPLE_RATE} Hz")
    return run_streaming([(mic.samples, far.samples)], config)


def run_streaming(
    chunks: Iterable,
    config: EngineConfig | None = None,
    sink: Callable[[np.ndarray], None] | None = None,
) -> tuple[AudioSignal, EngineStats]:
    """Drive the engine from an iterable of (mic_chunk, ref_chunk) pairs.

    Chunks may have any length; they are rebuffered to the engine hop
    internally. Enhanced samples are passed to ``sink`` as they become
    available and also collected into the returned signal, trimmed to the
    total input length.
    """
    engine = StreamingEngine(config)
    hop = engine.hop
    pend_mic = np.empty(0)
    pend_ref = np.empty(0)
    total_in = 0
    emitted = 0
    parts = []

    def deliver(block: np.ndarray) -> None:
        nonlocal emitted
        block = block[: max(0, total_in - emitted)]
        if len(block) == 0:
            return
        emitted += len(block)
        parts.append(block)
        if sink is not None:
            sink(block)

    for mic_chunk, ref_chunk in chunks:
        mic = np.asarray(mic_chunk, dtype=np.float64)
        ref = np.asarray(ref_chunk, dtype=np.float64)
        if mic.shape != ref.shape or mic.ndim != 1:
            raise ValueError("mic and ref chunks must be 1-D and equally long")
        total_in += len(mic)
        pend_mic = np.concatenate([pend_mic, mic])
        pend_ref = np.concatenate([pend_ref, ref])
        while len(pend_mic) >= hop:
            out = engine.push(pend_mic[:hop], pend_ref[:hop])
            pend_mic, pend_ref = pend_mic[hop:], pend_ref[hop:]
            deliver(out)
    if len(pend_mic):
        pad = np.zeros(hop - len(pend_mic))
        deliver(engine.push(np.concatenate([pend_mic, pad]), np.concatenate([pend_ref, pad])))
    deliver(engine.flush())
    out = np.concatenate(parts) if parts else np.empty(0)
    return AudioSignal(out), engine.stats


def engine_from_mapping(mapping: Mapping, prefix: str = "engine") -> EngineConfig:
    """Build an EngineConfig from flat dotted keys under ``prefix``.

    Recognized keys (all optional): optimizer, frames_l, order_p, alpha,
    beta, bases_b, diag_load, window_len, hop. ``alpha`` sets the smoothing
    factor of whichever optimizer is selected. Unknown keys under the
    prefix raise ValueError.
    """
    dot = prefix + "."
    m = {k[len(dot):]: v for k, v in mapping.items() if k.startswith(dot)}
    known = {
        "optimizer", "frames_l", "order_p", "alpha", "beta",
        "bases_b", "diag_load", "window_len", "hop",
    }
    unknown = set(m) - known
    if unknown:
        raise ValueError(
            f"unknown engine config keys: {sorted(dot + k for k in unknown)}"
        )
    stft_kw = {}
    if "window_len" in m:
        stft_kw["window_len"] = int(m["window_len"])
    if "hop" in m:
        stft_kw["hop"] = int(m["hop"])
    ctf = CtfConfig(
        frames_l=int(m.get("frames_l", 3)),
        order_p=int(m.get("order_p", 3)),
    )
    aux_kw = {}
    ilr_kw = {}
    if "alpha" in m:
        aux_kw["alpha"] = ilr_kw["alpha"] = float(m["alpha"])
    if "diag_load" in m:
        aux_kw["diag_load"] = ilr_kw["diag_load"] = float(m["diag_load"])
    if "beta" in m:
        aux_kw["beta"] = float(m["beta"])
    if "bases_b" in m:
        ilr_kw["bases_b"] = int(m["bases_b"])
    return EngineConfig(
        optimizer=m.get("optimizer", "auxiva"),
        stft=StftConfig(**stft_kw),
        ctf=ctf,
        auxiva=AuxivaConfig(**aux_kw),
        ilrma=IlrmaConfig(**ilr_kw),
    )
