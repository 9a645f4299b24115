"""The benchmark's three streaming workloads and the scenes they run.

Every workload is mono 16 kHz with the default STFT (1024/256), P = 3, a
hard clip at 0.2 and the image-method room of ``naec.sim``. A workload's
engine is described by the flat ``engine.*`` keys that ``naec process
--config`` reads, so the cold start measured by ``setup_s`` is the one a
command-line user pays.

Each run processes a panel of ``n_scenes`` scenes drawn from the seed.
Steady-state ERLE spreads by a fifth to a third (quartile distance over
median) from one 16 s speech or music scene to the next, so the quality
metrics are panel means; one scene per run would make ``erle_db`` and
``terle_db`` too unsteady to bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from naec import (
    NonlinearitySpec,
    RoomSpec,
    SceneSpec,
    music_like,
    speech_like,
    synthesize_scene,
)

# 1000 hops of 256 samples: p99 of the per-hop times has ten hops beyond it.
SCENE_S = 16.0
FAR_LEVEL = 0.3
NEAR_LEVEL = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    engine: dict  # flat engine.* keys, as in a `naec --config` file
    far_kind: str  # "music_like" or "speech_like"
    pause_weight: float  # speech_like only; 0 gives continuous speech
    double_talk: bool  # speech_like near end at SER 0 dB
    t60: float
    rir_length: int
    n_scenes: int


WORKLOADS = {
    w.name: w
    for w in (
        # Smallest D = 4: engine framing and NMF weighting take their largest
        # share of a frame, the O(D^3) row solve its smallest.
        Workload(
            name="mtf_music_ilrma_l1",
            engine={"engine.optimizer": "ilrma", "engine.frames_l": "1"},
            far_kind="music_like",
            pause_weight=0.0,
            double_talk=False,
            t60=0.3,
            rir_length=4096,
            n_scenes=16,
        ),
        # The default engine (auxiva, L = 3, D = 10) in double talk at SER
        # 0 dB: the row solve dominates and terle_db shows near-end damage.
        Workload(
            name="dt_speech_auxiva_l3",
            engine={"engine.optimizer": "auxiva", "engine.frames_l": "3"},
            far_kind="speech_like",
            pause_weight=0.2,
            double_talk=True,
            t60=0.3,
            rir_length=4096,
            n_scenes=16,
        ),
        # Largest D = 19 in a 0.8 s room: covariance update and row solve take
        # nearly all of a frame, closest to the 16 ms hop. Runnable, but not
        # in BENCHMARK.json: a run costs over a minute on a 2-core machine and
        # its push times spread too widely from run to run to bound.
        Workload(
            name="longrir_speech_auxiva_l6",
            engine={"engine.optimizer": "auxiva", "engine.frames_l": "6"},
            far_kind="speech_like",
            pause_weight=0.0,
            double_talk=False,
            t60=0.8,
            rir_length=16384,
            n_scenes=3,
        ),
    )
}


@dataclass
class Scene:
    """What the engine sees (far, mic) plus the ground truth the metrics need."""

    far: np.ndarray
    mic: np.ndarray
    echo: np.ndarray
    near: np.ndarray


def make_scene(workload: Workload, seed: int, index: int) -> Scene:
    """Scene ``index`` of the panel drawn from ``seed``; same arguments, same samples."""
    far_seed, near_seed, scene_seed = (
        int(s) for s in np.random.SeedSequence([seed, index]).generate_state(3)
    )
    if workload.far_kind == "music_like":
        far = music_like(SCENE_S, far_seed, FAR_LEVEL)
    else:
        far = speech_like(SCENE_S, far_seed, FAR_LEVEL, workload.pause_weight)
    near = speech_like(SCENE_S, near_seed, NEAR_LEVEL) if workload.double_talk else None
    comps = synthesize_scene(
        SceneSpec(
            far_end=far,
            room=RoomSpec(t60=workload.t60, rir_length=workload.rir_length),
            nonlinearity=NonlinearitySpec(kind="hard_clip", clip_ratio=0.2),
            near_end=near,
            ser_db=0.0,
            snr_db=60.0,
            seed=scene_seed,
        )
    )
    return Scene(
        far=far.samples,
        mic=comps.microphone.samples,
        echo=comps.echo.samples,
        near=comps.near.samples,
    )
