"""Online semi-blind source separation for nonlinear acoustic echo
cancellation, with a synthetic-scene simulator and ERLE/tERLE evaluation."""

from .audio_io import (
    SAMPLE_RATE,
    AudioFormatError,
    AudioSignal,
    SampleRateError,
    read_wav,
    write_wav,
)
from .auxiva import AuxivaConfig, AuxivaState
from .ctf import CtfConfig
from .ilrma import IlrmaState
from .metrics import MetricCurve, erle, steady_state, terle
from .nonlin import odd_powers
from .pipeline import (
    EngineConfig,
    EngineStats,
    StreamingEngine,
    engine_from_mapping,
    run,
    run_streaming,
)
from .sim import (
    NonlinearitySpec,
    RoomSpec,
    SceneComponents,
    SceneSpec,
    hard_clip,
    image_method_rir,
    music_like,
    scene_from_mapping,
    speech_like,
    synthesize_scene,
    white_noise,
)
from .stft import ColaError, StftConfig

__version__ = "0.1.0"

__all__ = [
    "SAMPLE_RATE",
    "AudioFormatError",
    "AudioSignal",
    "AuxivaConfig",
    "AuxivaState",
    "ColaError",
    "CtfConfig",
    "EngineConfig",
    "EngineStats",
    "IlrmaState",
    "MetricCurve",
    "NonlinearitySpec",
    "RoomSpec",
    "SampleRateError",
    "SceneComponents",
    "SceneSpec",
    "StftConfig",
    "StreamingEngine",
    "engine_from_mapping",
    "erle",
    "hard_clip",
    "image_method_rir",
    "music_like",
    "odd_powers",
    "read_wav",
    "run",
    "run_streaming",
    "scene_from_mapping",
    "speech_like",
    "steady_state",
    "synthesize_scene",
    "terle",
    "white_noise",
    "write_wav",
]
