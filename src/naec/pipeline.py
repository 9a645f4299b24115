"""Streaming echo-cancellation engine.

The engine consumes hop-sized chunks of the microphone and far-end signals,
updates the adaptive demixing filter once per chunk, and emits enhanced
samples with a fixed latency of ``window_len/hop - 1`` chunks (the analysis
look-ahead of the overlapped transform). ``run`` is ``run_streaming`` fed
the whole signal as one chunk, so chunked and whole-signal operation produce
bit-identical output by construction.

The engine allocates its buffers once and each frame writes them in place.
A time buffer holds the last window of the microphone (row 0) and of the
odd-power reference channels (rows 1..P). One observation buffer, the
state's ``obs``, is also the reference history: it holds the P*L + 1
channels, each as a real and an imaginary plane of the K bins
(``auxiva.pack_observations``), and the state's ``channel`` table names
the plane pair of each channel in the order of ``ctf``. Each reference's
L lag slots are a ring: a frame writes its new spectrum over the oldest
lag and rotates the table's entries, so no plane moves
(``state.logical_obs`` is the buffer in ``ctf`` order). A frame is one
call of the ``push`` kernel of ``_kernels.c`` on a ``KernelEngine``
filled once, which runs three steps:

1. ``frame_in``: the new hop's odd powers into a (P+1, hop) tail buffer,
   and the check that the microphone and every power are finite, which
   rejects a chunk before any engine state is written; then the time
   buffer shifts by a hop and takes the tail, and the real FFTs of its
   P+1 rows, two rows at a time and windowed as they are loaded, go into
   the observation planes, each reference's over its oldest lag.
2. ``step``, the compiled ``auxiva.process_frame`` (which is not called),
   on the optimizer's state (``STATES``, configured by
   ``EngineConfig.auxiva``), which demixes into ``state.out``.
3. ``ola``: the inverse real FFT of ``state.out``, the synthesis window,
   the overlap-add into a one-window accumulator that starts at the next
   sample to emit, its first hop divided by the flat ``stft.ola_norm``
   into the emit buffer, and the accumulator's shift. The hop divides the
   window at least four times, so each emitted hop has been covered by
   ``window_len/hop`` frames.

The FFTs use a plan the engine builds once (``fft_plan``), 46 KB at the
default 1024-point window. A bin that breaks is reset inside ``step``, so
every frame is the one call, and its return value says whether the frame
emits a hop.
"""

from __future__ import annotations

import ctypes
import time
from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping

import numpy as np

from . import auxiva
from .audio_io import SAMPLE_RATE, AudioSignal, from_flat
from .auxiva import AuxivaConfig, AuxivaState, aligned_zeros
from .ctf import CtfConfig
from .ilrma import IlrmaState
from .nonlin import odd_powers  # noqa: F401 - unused; bench/spans.py wraps it at this name
from .stft import StftConfig, ola_norm

STATES = {"auxiva": AuxivaState, "ilrma": IlrmaState}  # optimizer name -> state class


class KernelEngine(ctypes.Structure):
    """``struct engine`` of ``_kernels.c``: what ``push`` reads and writes."""

    _fields_ = [("state", ctypes.c_void_p),
                *((name, ctypes.c_long) for name in ("order_p", "frames_l", "hop", "window_len")),
                *((name, ctypes.c_void_p) for name in ("tail", "buf", "window", "plan",
                                                       "synth", "acc", "norm", "emit"))]


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
    broken_bins: int = 0
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
        self._hop = hop = sc.hop
        self._wl = wl = sc.window_len
        p, l = config.ctf.order_p, config.ctf.frames_l
        # Buffers written in place every frame; the kernels' struct below
        # holds their addresses. Row 0 of the time buffers is the microphone,
        # rows 1..P the odd powers of the far end. The zero history pre-pads
        # the stream by window_len - hop samples, which the first
        # latency_chunks frames shift out of the accumulator unemitted.
        self._tail = np.zeros((p + 1, hop))  # the new hop of each row
        self._buf = np.zeros((p + 1, wl))
        self._synth = np.zeros(wl)  # the demixed frame, back in time
        self._acc = np.zeros(wl)  # starts at the next sample to emit
        self._emit = np.zeros(hop)
        self._state = state = STATES[config.optimizer](sc.n_bins, config.ctf.dim, config.auxiva)
        lib = auxiva._kernels
        self._push = lib.push  # bound once: a push is this one call
        self._mic, self._ref = self._tail[0], self._tail[1]
        self._plan = aligned_zeros(lib.fft_plan(wl, None))
        lib.fft_plan(wl, self._plan.ctypes.data)
        self._kernel = KernelEngine(state.handle.value, p, l, hop, wl, *(
            a.ctypes.data for a in (self._tail, self._buf, self._window, self._plan,
                                    self._synth, self._acc, self._norm, self._emit)))
        self._handle = ctypes.c_void_p(ctypes.addressof(self._kernel))
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
            n_frames=self._state.frames,
            n_samples_in=self._n_in,
            n_samples_out=max(0, self._state.frames - self.latency_chunks) * self._hop,
            skipped_bins=self._state.skipped_bins,
            broken_bins=self._state.broken_bins,
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
        t0 = time.perf_counter()
        self._mic[...] = mic
        self._ref[...] = ref
        out = self._run_frame(t0)
        self._n_in += self._hop
        return out

    def _run_frame(self, t0: float) -> np.ndarray:
        """One frame from the tail to the emitted hop, timed from ``t0``: one
        ``push`` kernel call, which says whether the frame emits. A rejected
        tail raises."""
        emitted = self._push(self._handle)
        if emitted < 0:
            raise ValueError("chunks contain non-finite samples or far-end powers")
        out = self._emit.copy() if emitted else np.empty(0)
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
        parts = []
        for _ in range(self.latency_chunks):
            t0 = time.perf_counter()
            self._tail[:2] = 0.0
            parts.append(self._run_frame(t0))
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
