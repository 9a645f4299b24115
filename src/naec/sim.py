"""Synthetic scene generation: room impulse responses, loudspeaker
nonlinearity, and SER/SNR-controlled mixing.

Echo paths come from the classic rectangular-room image method with a
uniform wall reflection coefficient derived from the requested T60 via
Sabine's relation. Scenes are fully determined by their spec (including the
seed): identical specs yield bit-identical components.

A scene can be described in the flat ``key = value`` config format of
``audio_io`` with dotted sections (``room.t60 = 0.3`` and so on);
``scene_from_mapping`` reads it through ``audio_io.from_flat``, so every
default is the one its dataclass or signal generator declares. See the
README for the schema.
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np
from scipy.signal import fftconvolve, lfilter

from .audio_io import SAMPLE_RATE, AudioSignal, check_keys, from_flat, read_wav
from .nonlin import odd_powers

SPEED_OF_SOUND = 343.0

_MIN_SOURCE_MIC_DIST = 0.1


@dataclass(frozen=True)
class RoomSpec:
    """Rectangular room geometry, target T60 and RIR length in samples."""

    dimensions: tuple = (6.0, 5.0, 3.0)
    source_pos: tuple = (2.0, 3.0, 1.2)
    mic_pos: tuple = (4.0, 2.0, 1.2)
    t60: float = 0.3
    rir_length: int = 4096

    def __post_init__(self):
        dims = np.asarray(self.dimensions, dtype=np.float64)
        src = np.asarray(self.source_pos, dtype=np.float64)
        mic = np.asarray(self.mic_pos, dtype=np.float64)
        if dims.shape != (3,) or src.shape != (3,) or mic.shape != (3,):
            raise ValueError("dimensions and positions must be 3-vectors")
        if not np.all((dims > 0) & (dims < np.inf)):
            raise ValueError(f"room dimensions must be positive and finite, got {self.dimensions}")
        for name, pos in (("source", src), ("mic", mic)):
            if not (np.all(pos > 0) and np.all(pos < dims)):
                raise ValueError(f"{name} position {tuple(pos)} not strictly inside room")
        if np.linalg.norm(src - mic) < _MIN_SOURCE_MIC_DIST:
            raise ValueError(
                f"source and mic must be at least {_MIN_SOURCE_MIC_DIST} m apart"
            )
        if not 0.1 <= self.t60 <= 2.0:
            raise ValueError(f"t60 must be in [0.1, 2.0] s, got {self.t60}")
        if self.rir_length < 1:
            raise ValueError(f"rir_length must be positive, got {self.rir_length}")


@dataclass(frozen=True)
class NonlinearitySpec:
    """Loudspeaker model: hard clipping, an odd power series, or none."""

    kind: str = "hard_clip"
    clip_ratio: float = 0.2
    coeffs: tuple = (1.0,)

    def __post_init__(self):
        if self.kind not in ("hard_clip", "power_series", "none"):
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if not 0.0 < self.clip_ratio <= 1.0:
            raise ValueError(f"clip_ratio must be in (0, 1], got {self.clip_ratio}")
        if self.kind == "power_series" and len(self.coeffs) == 0:
            raise ValueError("power_series requires at least one coefficient")
        if not np.all(np.isfinite(np.asarray(self.coeffs, dtype=np.float64))):
            raise ValueError(f"coeffs must be finite, got {self.coeffs}")


@dataclass
class SceneSpec:
    """Declarative synthetic scene; ``ser_db`` only applies with a near end."""

    far_end: AudioSignal
    room: RoomSpec = field(default_factory=RoomSpec)
    nonlinearity: NonlinearitySpec = field(default_factory=NonlinearitySpec)
    near_end: AudioSignal | None = None
    ser_db: float = 0.0
    snr_db: float | None = 60.0
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.ser_db):
            raise ValueError(f"ser_db must be finite, got {self.ser_db}")
        if self.snr_db is not None and not self.snr_db > -np.inf:
            raise ValueError(f"snr_db must be a number above -inf, got {self.snr_db}")


@dataclass
class SceneComponents:
    """Ground-truth decomposition y = d + s + noise of the microphone signal."""

    microphone: AudioSignal
    echo: AudioSignal
    near: AudioSignal
    noise: AudioSignal


def sabine_reflection(room: RoomSpec) -> float:
    """Uniform wall reflection coefficient realizing the room's T60.

    Sabine: T60 = 0.161 V / (A * absorption). Raises when the requested T60
    would need absorption >= 1 (room too small / too dead).
    """
    lx, ly, lz = room.dimensions
    volume = lx * ly * lz
    area = 2.0 * (lx * ly + lx * lz + ly * lz)
    absorption = 0.161 * volume / (area * room.t60)
    if absorption >= 1.0:
        raise ValueError(
            f"t60={room.t60} s unreachable for this room "
            f"(needs absorption {absorption:.2f} >= 1)"
        )
    return float(np.sqrt(1.0 - absorption))


def image_method_rir(
    room: RoomSpec,
    *,
    reflection: float | None = None,
) -> AudioSignal:
    """Rectangular-room impulse response via the mirror-image source method.

    Each image adds its gain at its delay rounded to the nearest sample.
    ``reflection`` overrides the Sabine-derived wall coefficient (mainly for
    diagnostics such as the anechoic single-impulse case). The image method
    is deterministic, so unlike the other scene generators it takes no seed.
    """
    beta = sabine_reflection(room) if reflection is None else float(reflection)
    dims = np.asarray(room.dimensions)
    src = np.asarray(room.source_pos)
    mic = np.asarray(room.mic_pos)
    n_samp = room.rir_length
    max_dist = n_samp / SAMPLE_RATE * SPEED_OF_SOUND
    order = np.ceil(max_dist / (2.0 * dims)).astype(int)
    grids = [np.arange(-order[a], order[a] + 1) for a in range(3)]
    h = np.zeros(n_samp)
    for p in itertools.product((0, 1), (0, 1), (0, 1)):
        diffs, amps = [], []
        for a in range(3):
            img = (1 - 2 * p[a]) * (src[a] + 2.0 * grids[a] * dims[a])
            diffs.append(img - mic[a])
            amps.append(beta ** (np.abs(grids[a] + p[a]) + np.abs(grids[a])))
        dist = np.sqrt(
            diffs[0][:, None, None] ** 2
            + diffs[1][None, :, None] ** 2
            + diffs[2][None, None, :] ** 2
        ).ravel()
        refl = (
            amps[0][:, None, None] * amps[1][None, :, None] * amps[2][None, None, :]
        ).ravel()
        keep = dist > 1e-9
        dist, refl = dist[keep], refl[keep]
        gain = refl / (4.0 * np.pi * dist)
        idx = np.rint(dist / SPEED_OF_SOUND * SAMPLE_RATE).astype(np.intp)
        inside = idx < n_samp
        np.add.at(h, idx[inside], gain[inside])
    return AudioSignal(h)


def hard_clip(signal: AudioSignal, clip_ratio: float = 0.2) -> AudioSignal:
    """Memoryless saturation at x_max = clip_ratio * max|x|.

    An all-zero signal is returned unchanged (the threshold degenerates
    to 0).
    """
    x = signal.samples
    x_max = clip_ratio * np.max(np.abs(x)) if len(x) else 0.0
    if x_max == 0.0:
        return AudioSignal(x.copy(), signal.sample_rate)
    return AudioSignal(np.clip(x, -x_max, x_max), signal.sample_rate)


def power_series_nonlinearity(signal: AudioSignal, coeffs) -> AudioSignal:
    """sum_i coeffs[i] * x**(2i+1), an explicit odd power series loudspeaker."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if not len(coeffs):
        raise ValueError("coeffs must be nonempty")
    terms = coeffs[:, np.newaxis] * odd_powers(signal.samples, len(coeffs))
    return AudioSignal(np.sum(terms, axis=0, initial=0.0), signal.sample_rate)


def apply_nonlinearity(signal: AudioSignal, spec: NonlinearitySpec) -> AudioSignal:
    if spec.kind == "hard_clip":
        return hard_clip(signal, spec.clip_ratio)
    if spec.kind == "power_series":
        return power_series_nonlinearity(signal, spec.coeffs)
    return AudioSignal(signal.samples.copy(), signal.sample_rate)


def _fit_length(x: np.ndarray, n: int) -> np.ndarray:
    if len(x) >= n:
        return x[:n]
    return np.concatenate([x, np.zeros(n - len(x))])


def synthesize_scene(spec: SceneSpec) -> SceneComponents:
    """Generate microphone, echo, near-end and noise components of a scene.

    The near end is scaled so the signal-to-echo ratio matches ``ser_db``
    exactly; noise is white Gaussian scaled against the noise-free mixture
    d + s to match ``snr_db`` (``None`` means noiseless).
    """
    x = spec.far_end
    if x.sample_rate != SAMPLE_RATE:
        raise ValueError(f"far-end sample rate {x.sample_rate}, expected {SAMPLE_RATE}")
    n = len(x)
    driven = apply_nonlinearity(x, spec.nonlinearity)
    rir = image_method_rir(spec.room)
    d = fftconvolve(driven.samples, rir.samples)[:n]
    if spec.near_end is not None:
        e_d = np.mean(d**2)
        if e_d <= 0.0:
            raise ValueError("echo has zero energy; cannot realize the requested SER")
        s_raw = _fit_length(spec.near_end.samples, n)
        e_s = np.mean(s_raw**2)
        if e_s <= 0.0:
            raise ValueError("near end has zero energy; cannot realize the requested SER")
        s = s_raw * np.sqrt(e_d * 10.0 ** (spec.ser_db / 10.0) / e_s)
    else:
        s = np.zeros(n)
    if spec.snr_db is None or np.isinf(spec.snr_db):
        noise = np.zeros(n)
    else:
        rng = np.random.default_rng(spec.seed)
        noise = rng.standard_normal(n)
        e_mix = np.mean((d + s) ** 2)
        noise *= np.sqrt(e_mix * 10.0 ** (-spec.snr_db / 10.0) / np.mean(noise**2))
    y = d + s + noise
    return SceneComponents(
        microphone=AudioSignal(y),
        echo=AudioSignal(d),
        near=AudioSignal(s),
        noise=AudioSignal(noise),
    )


# ---------------------------------------------------------------------------
# Deterministic test signals


def _n_samples(duration_s: float, name: str = "duration_s") -> int:
    """Sample count of ``duration_s``, which must be at least one sample long."""
    if not 1.0 / SAMPLE_RATE <= duration_s < np.inf:
        raise ValueError(
            f"{name} must be at least one sample (1/{SAMPLE_RATE} s) and finite, "
            f"got {duration_s}"
        )
    return int(round(duration_s * SAMPLE_RATE))


def white_noise(duration_s: float, seed: int, level: float = 0.1) -> AudioSignal:
    """Gaussian noise with RMS ``level``."""
    rng = np.random.default_rng(seed)
    n = _n_samples(duration_s)
    x = rng.standard_normal(n)
    return AudioSignal(x * (level / np.sqrt(np.mean(x**2))))


def _resonator(x: np.ndarray, fc: float, bandwidth: float) -> np.ndarray:
    r = np.exp(-np.pi * bandwidth / SAMPLE_RATE)
    theta = 2.0 * np.pi * fc / SAMPLE_RATE
    return lfilter([1.0 - r], [1.0, -2.0 * r * np.cos(theta), r * r], x)


def _fade(seg: int, max_edge: int) -> np.ndarray:
    """Segment envelope with raised-cosine edges of min(max_edge, seg // 4) samples."""
    edge = min(max_edge, seg // 4)
    env = np.ones(seg)
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(edge) / edge))
    env[:edge] = ramp
    env[seg - edge :] = ramp[::-1]
    return env


def _finish(x: np.ndarray, rng: np.random.Generator, level: float, silent: str) -> AudioSignal:
    """Add a white floor 45 dB below the signal, scale to RMS ``level``, cap peaks at 0.95.

    An all-zero ``x`` has no level to scale to: it raises ValueError(``silent``).
    """
    if not x.any():
        raise ValueError(silent)
    x = x + rng.standard_normal(len(x)) * (np.sqrt(np.mean(x**2)) * 10 ** (-45.0 / 20.0))
    x = x * (level / np.sqrt(np.mean(x**2)))
    peak = np.max(np.abs(x))
    if peak > 0.95:
        x *= 0.95 / peak
    return AudioSignal(x)


def speech_like(
    duration_s: float, seed: int, level: float = 0.1, pause_weight: float = 0.2
) -> AudioSignal:
    """Speech-shaped test signal: voiced/unvoiced segments with pauses.

    Voiced segments are glottal-style pulse trains shaped by random formant
    resonators; unvoiced segments are band-shaped noise bursts. A faint
    broadband floor keeps every frequency bin weakly excited. ``pause_weight``
    sets the fraction of silent segments; 0 gives uninterrupted speech. A
    draw of nothing but pauses has no level to scale to and raises ValueError.
    """
    if not 0.0 <= pause_weight < 1.0:
        raise ValueError("pause_weight must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    n = _n_samples(duration_s)
    out = np.zeros(n + SAMPLE_RATE)
    active = 1.0 - pause_weight
    probs = [0.625 * active, 0.375 * active, pause_weight]
    pos = 0
    while pos < n:
        seg = int(rng.uniform(0.08, 0.35) * SAMPLE_RATE)
        kind = rng.choice(3, p=probs)
        if kind == 0:
            f0 = rng.uniform(110.0, 240.0)
            exc = np.zeros(seg)
            pulses = np.arange(0.0, seg, SAMPLE_RATE / f0)
            exc[np.floor(pulses).astype(int)] = 1.0
            x = exc
            for fc, bw in (
                (rng.uniform(300.0, 900.0), rng.uniform(60.0, 150.0)),
                (rng.uniform(900.0, 2200.0), rng.uniform(80.0, 200.0)),
                (rng.uniform(2200.0, 3600.0), rng.uniform(120.0, 300.0)),
            ):
                x = x + 0.8 * _resonator(x, fc, bw)
        elif kind == 1:
            x = _resonator(rng.standard_normal(seg), rng.uniform(2500.0, 6500.0), 1500.0)
        else:
            pos += seg
            continue
        out[pos : pos + seg] += x * _fade(seg, 160) * rng.uniform(0.4, 1.0)
        pos += seg
    return _finish(out[:n], rng, level, (
        f"speech_like drew no sound (duration_s = {duration_s}, pause_weight = "
        f"{pause_weight}, seed = {seed}): only pauses, or less than a segment's "
        "fade-in; use a longer duration_s or a smaller pause_weight"))


def music_like(duration_s: float, seed: int, level: float = 0.1) -> AudioSignal:
    """Sustained-chord test signal with a strongly low-rank spectrogram."""
    rng = np.random.default_rng(seed)
    n = _n_samples(duration_s)
    out = np.zeros(n + SAMPLE_RATE)
    midi_scale = np.array([48, 50, 52, 55, 57, 60, 62, 64, 67, 69, 72])
    pos = 0
    while pos < n:
        seg = int(rng.uniform(0.4, 0.9) * SAMPLE_RATE)
        t = np.arange(seg) / SAMPLE_RATE
        x = np.zeros(seg)
        for note in rng.choice(midi_scale, size=3, replace=False):
            f = 440.0 * 2.0 ** ((note - 69) / 12.0)
            for harm in range(1, 6):
                x += (0.6**harm) * np.cos(
                    2.0 * np.pi * f * harm * t + rng.uniform(0.0, 2.0 * np.pi)
                )
        out[pos : pos + seg] += x * _fade(seg, 320) * rng.uniform(0.5, 1.0)
        pos += seg
    return _finish(out[:n], rng, level, (
        f"music_like drew no sound (duration_s = {duration_s}): "
        "less than a chord's fade-in; use a longer duration_s"))


# ---------------------------------------------------------------------------
# Scene loader for the flat config format of ``audio_io``

SCENE_PREFIXES = ("scene", "room", "nonlinearity", "far_end", "near_end")
SCENE_KEYS = ("duration_s", "seed", "ser_db", "snr_db")
_GENERATORS = {"speech_like": speech_like, "music_like": music_like, "noise": white_noise}
# The signal keys besides ``kind`` that each kind reads: a generator reads its
# parameters but ``duration_s``, which is the scene's.
_KIND_KEYS = {"none": (), "wav": ("path",)} | {
    kind: tuple(p for p in inspect.signature(gen).parameters if p != "duration_s")
    for kind, gen in _GENERATORS.items()}
SIGNAL_KEYS = ("kind", *dict.fromkeys(k for keys in _KIND_KEYS.values() for k in keys))


def _signal_from_mapping(
    m: Mapping, prefix: str, duration_s: float, default_kind: str,
    default_seed: int, base_dir: Path | None,
) -> AudioSignal | None:
    kind = m.get(f"{prefix}.kind", default_kind)
    if kind not in _KIND_KEYS:
        raise ValueError(f"unknown {prefix}.kind {kind!r}")
    for key in SIGNAL_KEYS:
        if key != "kind" and f"{prefix}.{key}" in m and key not in _KIND_KEYS[kind]:
            raise ValueError(f"{prefix}.{key} does not apply to {prefix}.kind = {kind}")
    if kind == "none":
        return None
    if kind == "wav":
        path = m.get(f"{prefix}.path")
        if path is None:
            raise ValueError(f"{prefix}.kind = wav requires {prefix}.path")
        p = Path(path)
        if base_dir is not None and not p.is_absolute():
            p = base_dir / p
        return read_wav(p)
    seed = int(m.get(f"{prefix}.seed", default_seed))
    given = {k: float(m[f"{prefix}.{k}"]) for k in _KIND_KEYS[kind]
             if k != "seed" and f"{prefix}.{k}" in m}
    return _GENERATORS[kind](duration_s, seed, **given)


def scene_from_mapping(
    mapping: Mapping,
    base_dir: Path | None = None,
    seed_override: int | None = None,
) -> SceneSpec:
    """Build a SceneSpec from a flat dotted-key mapping.

    ``room.*`` and ``nonlinearity.*`` keys are the fields of ``RoomSpec`` and
    ``NonlinearitySpec``, ``scene.*`` keys are ``SCENE_KEYS`` and signal keys
    ``SIGNAL_KEYS``; an absent key keeps its dataclass or generator default.
    Unknown keys raise, so typos do not silently fall back to defaults, and
    so do signal keys their kind does not read (``path`` on a generated
    kind, ``seed`` or ``level`` on ``wav``, any key but ``kind`` on ``none``).
    Signal seeds default to scene.seed + 1 (far end) and + 2 (near end).
    """
    m = mapping
    check_keys(m, "scene", SCENE_KEYS)
    for prefix in ("far_end", "near_end"):
        check_keys(m, prefix, SIGNAL_KEYS)
    room = from_flat(RoomSpec, m, "room")
    nonlin = from_flat(NonlinearitySpec, m, "nonlinearity")
    seed = int(m.get("scene.seed", SceneSpec.seed))
    if seed_override is not None:
        seed = seed_override
    duration_s = float(m.get("scene.duration_s", 10.0))
    _n_samples(duration_s, "scene.duration_s")
    kwargs = {k: None if k == "snr_db" and v.lower() == "none" else float(v)
              for k in ("ser_db", "snr_db") if (v := m.get(f"scene.{k}")) is not None}
    far = _signal_from_mapping(m, "far_end", duration_s, "speech_like", seed + 1, base_dir)
    if far is None:
        raise ValueError("far_end.kind must not be 'none'")
    near = _signal_from_mapping(m, "near_end", duration_s, "none", seed + 2, base_dir)
    return SceneSpec(far_end=far, room=room, nonlinearity=nonlin, near_end=near,
                     seed=seed, **kwargs)
