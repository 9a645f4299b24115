"""Streaming echo-cancellation engine.

The engine consumes hop-sized chunks of the microphone and far-end signals,
updates the adaptive demixing filter once per chunk, and emits enhanced
samples with a fixed latency of ``window_len/hop - 1`` chunks (the analysis
look-ahead of the overlapped transform). ``run`` is ``run_streaming`` fed
the whole signal as one chunk, so chunked and whole-signal operation produce
bit-identical output by construction.

Internally each chunk shifts one time buffer holding the microphone (row 0)
and the odd-power reference channels (rows 1..P), transforms all rows with
one FFT, stacks the frame with the reference frame history into the
observation vector (``ctf.stack_observations``), runs one step of the
optimizer core (``auxiva.process_frame`` on the optimizer's state class in
``STATES``, configured by ``EngineConfig.auxiva``), and overlap-adds the
demixed frame into a one-window accumulator aligned to the next sample to
emit. The hop divides the window at least four times, so each emitted hop
has been covered by exactly ``window_len/hop`` frames and is divided by
the flat ``stft.ola_norm``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping

import numpy as np

from . import auxiva
from .audio_io import SAMPLE_RATE, AudioSignal, from_flat
from .auxiva import AuxivaConfig, AuxivaState
from .ctf import CtfConfig, stack_observations
from .ilrma import IlrmaState
from .nonlin import odd_powers
from .stft import StftConfig, ola_norm

STATES = {"auxiva": AuxivaState, "ilrma": IlrmaState}  # optimizer name -> state class


@dataclass(frozen=True)
class EngineConfig:
    """Optimizer choice plus transform / filter / online-core parameters."""

    optimizer: str = "auxiva"
    stft: StftConfig = field(default_factory=StftConfig)
    ctf: CtfConfig = field(default_factory=CtfConfig)
    auxiva: AuxivaConfig = field(default_factory=AuxivaConfig)

    def __post_init__(self):
        if self.optimizer not in STATES:
            raise ValueError(
                f"optimizer must be one of {tuple(STATES)}, got {self.optimizer!r}"
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
        self._window = sc.window_samples()
        self._norm = ola_norm(sc)
        self._hop = sc.hop
        self._wl = sc.window_len
        p, l = config.ctf.order_p, config.ctf.frames_l
        self._order_p = p
        # Row 0: microphone, rows 1..P: odd powers of the far end. The zero
        # history pre-pads the stream by window_len - hop samples, which the
        # first latency_chunks frames shift out of the accumulator unemitted.
        self._buf = np.zeros((p + 1, self._wl))
        self._hist = np.zeros((p, l, sc.n_bins), dtype=np.complex128)
        self._state = STATES[config.optimizer](sc.n_bins, config.ctf.dim, config.auxiva)
        self._acc = np.zeros(self._wl)  # starts at the next sample to emit
        self._frames = 0
        self._closed = False
        self._n_in = 0
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
            n_samples_out=max(0, self._frames - self.latency_chunks) * self._hop,
            skipped_bins=self._state.skipped_bins,
            elapsed_s=self._elapsed,
        )

    def push(self, mic_chunk, ref_chunk) -> np.ndarray:
        """Feed one hop of microphone and far-end samples.

        Returns the newly available enhanced samples: empty for the first
        ``latency_chunks`` calls, exactly one hop per call afterwards. A
        chunk with a NaN or Inf, or a far-end chunk whose odd powers
        overflow, raises ValueError and leaves the engine as it was.
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
        with np.errstate(over="ignore"):
            powers = odd_powers(ref, self._order_p)
        if not (np.isfinite(mic).all() and np.isfinite(powers).all()):
            raise ValueError("chunks contain non-finite samples or far-end powers")
        out = self._process_chunk(mic, powers)
        self._n_in += self._hop
        return out

    def _process_chunk(self, mic: np.ndarray, powers: np.ndarray) -> np.ndarray:
        t0 = time.perf_counter()
        hop, buf, acc = self._hop, self._buf, self._acc
        buf[:, :-hop] = buf[:, hop:]
        buf[0, -hop:] = mic
        buf[1:, -hop:] = powers
        spec = np.fft.rfft(buf * self._window, axis=-1)
        self._hist[:, 1:] = self._hist[:, :-1]
        self._hist[:, 0] = spec[1:]
        obs = stack_observations(spec[0], self._hist)
        enhanced = auxiva.process_frame(self._state, obs)

        acc += np.fft.irfft(enhanced, n=self._wl) * self._window
        self._frames += 1
        out = acc[:hop] / self._norm if self._frames > self.latency_chunks else np.empty(0)
        acc[:-hop] = acc[hop:]
        acc[-hop:] = 0.0
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
        parts = [self._process_chunk(zero, odd_powers(zero, self._order_p))
                 for _ in range(self.latency_chunks)]
        self._closed = True
        return np.concatenate(parts)


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
) -> tuple[AudioSignal, EngineStats]:
    """Drive the engine from an iterable of (mic_chunk, ref_chunk) pairs.

    Chunks may have any length; they are rebuffered to the engine hop
    internally (the last partial hop is zero-padded). The enhanced samples
    are returned trimmed to the total input length.
    """
    engine = StreamingEngine(config)
    hop = engine.hop
    pend_mic = pend_ref = np.empty(0)
    total_in = 0
    parts = []
    for mic_chunk, ref_chunk in chunks:
        mic = np.asarray(mic_chunk, dtype=np.float64)
        ref = np.asarray(ref_chunk, dtype=np.float64)
        if mic.shape != ref.shape or mic.ndim != 1:
            raise ValueError("mic and ref chunks must be 1-D and equally long")
        total_in += len(mic)
        pend_mic = np.concatenate([pend_mic, mic])
        pend_ref = np.concatenate([pend_ref, ref])
        while len(pend_mic) >= hop:
            parts.append(engine.push(pend_mic[:hop], pend_ref[:hop]))
            pend_mic, pend_ref = pend_mic[hop:], pend_ref[hop:]
    if len(pend_mic):
        pad = np.zeros(hop - len(pend_mic))
        parts.append(engine.push(np.concatenate([pend_mic, pad]), np.concatenate([pend_ref, pad])))
    parts.append(engine.flush())
    return AudioSignal(np.concatenate(parts)[:total_in]), engine.stats


def engine_from_mapping(mapping: Mapping, prefix: str = "engine") -> EngineConfig:
    """Build an EngineConfig from flat dotted keys under ``prefix``.

    Recognized keys (all optional): ``optimizer`` and the field names of
    ``StftConfig``, ``CtfConfig`` and ``AuxivaConfig``, which share none;
    each section is read by ``audio_io.from_flat``. Unknown keys under the
    prefix raise ValueError.
    """
    sections = {"stft": StftConfig, "ctf": CtfConfig, "auxiva": AuxivaConfig}
    names = {"optimizer"} | {f.name for cls in sections.values() for f in fields(cls)}
    kwargs = {name: from_flat(cls, mapping, prefix, names) for name, cls in sections.items()}
    if f"{prefix}.optimizer" in mapping:
        kwargs["optimizer"] = mapping[f"{prefix}.optimizer"]
    return EngineConfig(**kwargs)
