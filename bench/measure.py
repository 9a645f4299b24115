"""Closed-loop measurement of one workload; see ``run.py`` for the contract.

One process drives ``StreamingEngine`` the way ``naec process`` and
``naec.run`` do: each ``push`` is sent as soon as the previous one returns,
then ``flush`` drains the stream. Every workload runs faster than real time,
so a push's wall time is the time to serve one 16 ms hop.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np
import scipy

import naec
from naec import (
    SAMPLE_RATE,
    AudioSignal,
    StreamingEngine,
    engine_from_mapping,
    erle,
    steady_state,
    terle,
)
from calibrate import REFERENCE_MS, Kernel
from spans import ROOT_TARGETS, ROOTS, Tracer
from workloads import SCENE_S, Scene, Workload, make_scene

COLD_STARTS = 3
MIN_TRACED_PAIRS = 3  # the overhead compares floors over at least three passes each
CHILD_TIMEOUT_S = 120
# A fresh interpreter builds the workload's engine from its flat config
# keys, as `naec process --config` does before it reads any audio.
COLD_START_CODE = (
    "import json, sys; import naec; "
    "naec.StreamingEngine(naec.engine_from_mapping(json.loads(sys.argv[1])))"
)


@dataclass
class Pass:
    """Output, timings and counters of one closed-loop pass over a scene."""

    out: np.ndarray
    push_ns: np.ndarray  # wall time of each push, in hop order
    flush_ns: int
    frames: int
    failed: int  # pushes that raised or returned non-finite samples
    skipped_bins: int
    errors: list


def stream(config, scene: Scene) -> Pass:
    """Push every hop as soon as the previous push returns, then flush.

    Chunking, zero padding and trimming are those of ``naec.run``.
    """
    engine = StreamingEngine(config)
    hop = engine.hop
    n = len(scene.mic)
    padded = max(1, math.ceil(n / hop)) * hop
    mic = np.concatenate([scene.mic, np.zeros(padded - n)])
    far = np.concatenate([scene.far, np.zeros(padded - n)])
    push_ns = np.empty(padded // hop, dtype=np.int64)
    parts, failed, errors = [], 0, []
    for j, start in enumerate(range(0, padded, hop)):
        mic_chunk, far_chunk = mic[start : start + hop], far[start : start + hop]
        t0 = perf_counter_ns()
        try:
            out = engine.push(mic_chunk, far_chunk)
        except Exception as exc:  # a failed push is counted, not fatal
            push_ns[j] = perf_counter_ns() - t0
            failed += 1
            errors.append(repr(exc))
            continue
        push_ns[j] = perf_counter_ns() - t0
        if not np.isfinite(out).all():
            failed += 1
        parts.append(out)
    t0 = perf_counter_ns()
    parts.append(engine.flush())
    flush_ns = perf_counter_ns() - t0
    stats = engine.stats
    return Pass(np.concatenate(parts)[:n], push_ns, flush_ns, stats.n_frames,
                failed, stats.skipped_bins, errors)


def hop_floor(passes: list) -> tuple[np.ndarray, int]:
    """Per-hop minimum push time over equally long passes, and the minimum flush.

    Every pass does the same arithmetic at a given hop index, whatever the
    scene, so the minimum over passes strips what other tenants of a shared
    machine add to a push for seconds at a time and keeps what the engine
    itself spends. A cost that only some scenes trigger at a hop is hidden
    too. Slow phases that span a whole run are left to ``calibrate``.
    """
    return np.stack([p.push_ns for p in passes]).min(axis=0), min(p.flush_ns for p in passes)


def sha256(x: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(x, dtype="<f8").tobytes()).hexdigest()


def reference_pass(config, scene: Scene) -> Pass:
    """``naec.run`` on the same inputs, the batch side of the batch/stream claim.

    ``run`` drives the same closed push loop internally; spans on ``push``
    and ``flush`` time it, so this pass also counts towards the per-hop floor.
    """
    tracer = Tracer(ROOT_TARGETS)
    tracer.install()
    try:
        out, stats = naec.run(AudioSignal(scene.far), AudioSignal(scene.mic), config)
    finally:
        tracer.uninstall()
    push_ns = np.array([t1 - t0 for name, t0, t1, _ in tracer.spans if name == "pipeline.push"])
    flush_ns = sum(t1 - t0 for name, t0, t1, _ in tracer.spans if name == "pipeline.flush")
    return Pass(out.samples, push_ns, flush_ns, stats.n_frames, 0, stats.skipped_bins, [])


def cold_start(workload: Workload, importtime: bool = False) -> tuple[float, str]:
    """Wall seconds for a fresh interpreter to import naec and build the engine."""
    src = str(Path(naec.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           "-c", COLD_START_CODE, json.dumps(workload.engine)]
    t0 = perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return perf_counter() - t0, proc.stderr


def import_seconds(stderr: str, modules: tuple) -> dict:
    """Cumulative import time per module from ``-X importtime`` output."""
    found = {}
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if line.startswith("import time:") and len(fields) == 3:
            name = fields[2].strip()
            if name in modules and name not in found:
                found[name] = int(fields[1]) / 1e6
    return found


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(nproc: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def src_lines() -> int:
    """Non-blank lines of the naec package, the ROADMAP's design-quality count."""
    pkg = Path(naec.__file__).resolve().parent
    return sum(1 for p in pkg.rglob("*.py") for line in p.read_text().splitlines() if line.strip())


def state_kb(config) -> float:
    """Kilobytes of arrays held by a fresh engine and its optimizer state."""
    seen, total = set(), 0
    todo = [(StreamingEngine(config), 0)]
    while todo:
        obj, depth = todo.pop()
        for value in vars(obj).values():
            if isinstance(value, np.ndarray) and id(value) not in seen:
                seen.add(id(value))
                total += value.nbytes
            elif hasattr(value, "__dict__") and depth < 2:
                todo.append((value, depth + 1))
    return total / 1024


def run_end_to_end(workload: Workload, seed: int, seconds: float) -> dict:
    """Stream every panel scene once, then cycle the panel until ``seconds`` have passed.

    The first scene also goes through ``naec.run``, which is both the
    reference for byte identity and one more timed pass. Push timings are
    the per-hop floor over all passes; they and the cold starts are scaled
    to the reference machine's speed.
    """
    config = engine_from_mapping(workload.engine)
    scenes = [make_scene(workload, seed, i) for i in range(workload.n_scenes)]
    # Cold starts are spread over the run (start, middle, end) so their
    # median does not hinge on the machine's load at one moment.
    setup = [cold_start(workload)[0]]
    kernel = Kernel()
    kernel_ms = [kernel.sample()]
    t_start = perf_counter()
    ref = reference_pass(config, scenes[0])
    streamed, outputs = [], []
    repeats_match = True
    while len(streamed) < len(scenes) or perf_counter() - t_start < seconds:
        k = len(streamed) % len(scenes)
        kernel_ms.append(kernel.sample())
        streamed.append(stream(config, scenes[k]))
        if k == len(outputs):
            outputs.append(streamed[-1].out)
        else:
            repeats_match &= streamed[-1].out.tobytes() == outputs[k].tobytes()
        streamed[-1].out = None  # outputs holds the one copy per scene
        if len(streamed) == len(scenes) // 2:
            setup.append(cold_start(workload)[0])
    setup.append(cold_start(workload)[0])

    matches_run = outputs[0].tobytes() == ref.out.tobytes()
    finite = all(np.isfinite(o).all() for o in outputs)
    erles = [
        steady_state(erle(AudioSignal(s.mic), AudioSignal(o))) for s, o in zip(scenes, outputs)
    ]
    terles = [
        steady_state(terle(AudioSignal(s.echo), AudioSignal(o), AudioSignal(s.near)))
        for s, o in zip(scenes, outputs)
    ]
    push_ns, flush_ns = hop_floor([ref, *streamed])
    scale = REFERENCE_MS / min(kernel_ms)
    push_ms = push_ns / 1e6
    p50, p99 = np.percentile(push_ms, [50, 99])
    audio_s = len(push_ns) * config.stft.hop / SAMPLE_RATE
    rtf = audio_s / ((push_ns.sum() + flush_ns) / 1e9)
    attempted = sum(len(p.push_ns) for p in (ref, *streamed))
    failed = sum(p.failed for p in streamed)
    return {
        "correct": bool(matches_run and repeats_match and finite),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "rtf": (rtf / scale, "x"),
            "push_ms_p50": (float(p50) * scale, "ms"),
            "push_ms_p99": (float(p99) * scale, "ms"),
            "erle_db": (statistics.fmean(erles), "dB"),
            "terle_db": (statistics.fmean(terles), "dB"),
            "setup_s": (statistics.median(setup) * scale, "s"),
        },
        "record": {
            "measured": {"rtf": rtf, "push_ms_p50": float(p50), "push_ms_p99": float(p99),
                         "setup_s": statistics.median(setup)},
            "kernel_ms": {"min": min(kernel_ms), "median": statistics.median(kernel_ms),
                          "reference": REFERENCE_MS, "samples": len(kernel_ms)},
            "timed_passes": 1 + len(streamed),
            "hops_per_pass": len(push_ns),
            "hops_beyond_p99": int(np.sum(push_ms > p99)),
            "push_failed_frac": failed / attempted,
            "push_errors": [e for p in streamed for e in p.errors][:5],
            "skipped_bins": sum(p.skipped_bins for p in (ref, *streamed)),
            "cold_starts_s": setup,
            "scenes": workload.n_scenes,
            "scene_s": SCENE_S,
            "erle_db_per_scene": erles,
            "terle_db_per_scene": terles,
            "stream_matches_run": matches_run,
            "repeat_passes_match": repeats_match,
            "run_sha256": sha256(ref.out),
            "scene_sha256": [sha256(o) for o in outputs],
        },
    }


def _per_layer(summary: dict, installed: set, frames: int, pushes: int, flush_frames: int) -> dict:
    """µs per frame (self time) and calls per frame for every traced layer."""
    metrics = {}
    push, flush = summary["pipeline.push"], summary["pipeline.flush"]
    if "pipeline.push" in installed:
        metrics["pipeline.push_us"] = (push["total_ns"] / pushes / 1e3, "us")
        metrics["pipeline.push_self_us"] = (push["self_ns"] / pushes / 1e3, "us")
    if "pipeline.flush" in installed:
        metrics["pipeline.flush_self_us"] = (flush["self_ns"] / flush_frames / 1e3, "us")
    for name, rec in summary.items():
        if name in ROOTS or name not in installed:
            continue
        us_name = name + ("_self_us" if name == "optimizer.process_frame" else "_us")
        metrics[us_name] = (rec["self_ns"] / frames / 1e3, "us")
        metrics[name + "_calls"] = (rec["calls"] / frames, "1/frame")
    return metrics


def run_traced(workload: Workload, seed: int, seconds: float) -> dict:
    """Per-layer split: alternate untraced and traced passes over the first scene."""
    config = engine_from_mapping(workload.engine)
    starts = [cold_start(workload, importtime=True)[1] for _ in range(COLD_STARTS)]
    imports = [import_seconds(s, ("naec", "scipy.signal")) for s in starts]
    scene = make_scene(workload, seed, 0)
    ref = reference_pass(config, scene).out

    plain, traced = [], []
    tracer = Tracer()
    t_start = perf_counter()
    while len(traced) < MIN_TRACED_PAIRS or perf_counter() - t_start < seconds:
        # Alternate which side goes first so drift cancels in the overhead.
        for is_traced in (False, True) if len(traced) % 2 == 0 else (True, False):
            if is_traced:
                tracer.install()
            try:
                (traced if is_traced else plain).append(stream(config, scene))
            finally:
                tracer.uninstall()
    matches = all(p.out.tobytes() == ref.tobytes() for p in plain + traced)

    summary = tracer.summary()
    root_ns = sum(summary[r]["total_ns"] for r in ROOTS)
    self_sum_ns = sum(rec["self_ns"] for rec in summary.values())
    pushes = sum(len(p.push_ns) for p in traced)
    frames = sum(p.frames for p in traced)
    metrics = _per_layer(summary, tracer.installed, frames, pushes, frames - pushes)
    metrics["optimizer.skipped_bins"] = (sum(p.skipped_bins for p in traced), "count")
    for module, key in (("naec", "import.naec_s"), ("scipy.signal", "import.scipy_signal_s")):
        values = [i[module] for i in imports if module in i]
        if values:
            metrics[key] = (statistics.median(values), "s")
    (t_push, t_flush), (u_push, u_flush) = hop_floor(traced), hop_floor(plain)
    overhead = (t_push.sum() + t_flush) / (u_push.sum() + u_flush) - 1.0
    metrics["trace.overhead_pct"] = (100.0 * float(overhead), "%")
    return {
        "correct": bool(matches and self_sum_ns == root_ns),
        "attempted": pushes,
        "failed": sum(p.failed for p in traced),
        "metrics": metrics,
        "record": {
            "traced_passes": len(traced),
            "traced_pushes": pushes,
            "traced_frames": frames,
            "self_sum_equals_push_total": self_sum_ns == root_ns,
            "absent": tracer.absent,
            "calls": {name: rec["calls"] for name, rec in summary.items()},
            "share_of_push_pct": {
                name: 100.0 * rec["self_ns"] / root_ns for name, rec in summary.items()
            },
            "traced_outputs_match_run": matches,
            "run_sha256": sha256(ref),
        },
    }
