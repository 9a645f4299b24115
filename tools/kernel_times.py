"""Per-call times of the engine's frame kernels, without ctypes overhead.

Builds, with ``cc``, a small loop library that calls a kernel through a
function pointer in a timed loop, and runs it on two builds of
``naec``'s ``_kernels.c``: the library ``naec`` loads (its AVX-512F clone
on a CPU that has it) and a ``-DLANE_CLONES=`` build for the baseline ISA
alone. For each build it prints µs per call of ``frame_in``, ``step`` and
``ola``, and of the two stages of ``step``, ``weight`` and ``update``, on a
default AuxIVA engine at each L of ``--frames-l`` and on an ILRMA engine at
L = 1 (``ilrma_l1``, the bench's ``mtf_music_ilrma_l1`` engine), and of
``rfft`` (4 rows, P = 3, times the engine's window) and ``irfft`` at the
engine's window length.
``update`` is timed with the frame counter advanced after each call, as
``step`` advances it, so each load falls on the next coordinate. Each
figure is the best of ``--repeats`` timed loops of about ``--loop-ms``
each in one process, and the median
of those bests over ``--processes`` fresh processes, run one at a time.

From the repository root (``PYTHONPATH`` picks the checkout measured):

    PYTHONPATH=src python3 tools/kernel_times.py [--json times.json]
"""

from __future__ import annotations

import argparse
import ctypes
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

LOOPS = r"""
#include <time.h>
typedef void (*one_ptr)(const void *);
typedef long (*state_fn)(void *);
typedef void (*rfft_fn)(long, long, double *, const double *, const double *, double *);
typedef void (*irfft_fn)(long, double *, const double *, double *);
static double now(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return t.tv_sec * 1e9 + t.tv_nsec;
}
double per_call(one_ptr f, const void *arg, long calls)
{
    const double t0 = now();
    for (long i = 0; i < calls; i++)
        f(arg);
    return (now() - t0) / calls;
}
double per_frame(state_fn f, void *state, long *frames, long calls)
{
    const double t0 = now();
    for (long i = 0; i < calls; i++) {
        f(state);
        ++*frames;
    }
    return (now() - t0) / calls;
}
double per_rfft(rfft_fn f, long n, long rows, double *plan, const double *window, const double *x,
                double *out, long calls)
{
    const double t0 = now();
    for (long i = 0; i < calls; i++)
        f(n, rows, plan, window, x, out);
    return (now() - t0) / calls;
}
double per_irfft(irfft_fn f, long n, double *plan, const double *spec, double *x, long calls)
{
    const double t0 = now();
    for (long i = 0; i < calls; i++)
        f(n, plan, spec, x);
    return (now() - t0) / calls;
}
"""

BUILDS = ("loaded", "baseline")  # the library naec loads; the -DLANE_CLONES= build


def build(workdir: Path) -> dict:
    """The loop library and the baseline build, compiled into ``workdir``."""
    from naec import auxiva

    loops, baseline = workdir / "loops.so", workdir / "baseline.so"
    (workdir / "loops.c").write_text(LOOPS)
    subprocess.run(["cc", "-O2", "-fPIC", "-shared", "-o", str(loops), str(workdir / "loops.c")],
                   check=True)
    subprocess.run(["cc", *auxiva.KERNEL_FLAGS, "-DLANE_CLONES=", "-o", str(baseline),
                    str(auxiva.KERNEL_SOURCE)], check=True)
    return {"loops": str(loops), "baseline": str(baseline)}


def measure(paths: dict, frames_l: list, repeats: int, loop_ms: float) -> dict:
    """One process's best ns per call of each kernel in each build."""
    import numpy as np

    from naec import auxiva
    from naec.ctf import CtfConfig
    from naec.pipeline import EngineConfig, StreamingEngine

    loops = ctypes.CDLL(paths["loops"])
    ptr, size = ctypes.c_void_p, ctypes.c_long
    loops.per_call.argtypes = (ptr, ptr, size)
    loops.per_frame.argtypes = (ptr, ptr, ptr, size)
    loops.per_rfft.argtypes = (ptr, size, size, ptr, ptr, ptr, ptr, size)
    loops.per_irfft.argtypes = (ptr, size, ptr, ptr, ptr, size)
    for f in (loops.per_call, loops.per_frame, loops.per_rfft, loops.per_irfft):
        f.restype = ctypes.c_double
    libs = {"loaded": auxiva._kernels, "baseline": ctypes.CDLL(paths["baseline"])}

    def address(lib, name):
        return ctypes.cast(getattr(lib, name), ptr).value

    def best(loop):
        """The best ns per call of ``loop(calls)`` over loops of about ``loop_ms``."""
        calls = max(10, int(loop_ms * 1e6 / loop(10)))  # the first loop warms the caches
        return min(loop(calls) for _ in range(repeats))

    rng = np.random.default_rng(0)
    configs = {f"l{l}": EngineConfig(ctf=CtfConfig(frames_l=l)) for l in frames_l}
    configs["ilrma_l1"] = EngineConfig(optimizer="ilrma", ctf=CtfConfig(frames_l=1))
    engines = {}
    for name, config in configs.items():
        engine = StreamingEngine(config)
        for mic, far in 0.3 * rng.standard_normal((20, 2, engine.hop)):
            engine.push(mic, far)
        engines[name] = engine
    n, window = engine._wl, engine._window  # every engine frames alike
    plan = auxiva.aligned_zeros(auxiva._kernels.fft_plan(n, None))
    auxiva._kernels.fft_plan(n, plan.ctypes.data)
    x = rng.standard_normal((4, n))
    spec = np.empty((4, 2, n // 2 + 1))
    out = np.empty(n)
    half = rng.standard_normal((n // 2 + 1, 2))
    times = {}
    for name, lib in libs.items():
        row = times[name] = {}
        for config, engine in engines.items():
            state = engine._state
            frames = ctypes.addressof(state.kernel) + auxiva.KernelState.frames.offset
            for kernel, arg in (("frame_in", engine._handle), ("step", state.handle),
                                ("ola", engine._handle)):
                f = address(lib, kernel)
                row[f"{kernel}_{config}"] = best(lambda calls: loops.per_call(f, arg, calls))
            for kernel in ("weight", "update"):
                f = address(lib, kernel)
                row[f"{kernel}_{config}"] = best(
                    lambda calls: loops.per_frame(f, state.handle, frames, calls))
        f = address(lib, "rfft")
        row["rfft_4rows"] = best(lambda calls: loops.per_rfft(f, n, 4, plan.ctypes.data,
                                                              window.ctypes.data, x.ctypes.data,
                                                              spec.ctypes.data, calls))
        f = address(lib, "irfft")
        row["irfft"] = best(lambda calls: loops.per_irfft(f, n, plan.ctypes.data,
                                                          half.ctypes.data, out.ctypes.data, calls))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--frames-l", type=int, nargs="+", default=[1, 3, 6])
    parser.add_argument("--processes", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--loop-ms", type=float, default=5.0, help="length of one timed loop")
    parser.add_argument("--json", type=Path, help="also write the medians and every process's bests")
    parser.add_argument("--child", help=argparse.SUPPRESS)  # the build paths, as JSON
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(json.loads(args.child), args.frames_l, args.repeats,
                                args.loop_ms)))
        return 0
    with tempfile.TemporaryDirectory(prefix="kernel-times-") as tmp:
        t0 = time.perf_counter()
        paths = build(Path(tmp))
        runs = []
        for _ in range(args.processes):
            command = [sys.executable, __file__, "--child", json.dumps(paths), "--repeats",
                       str(args.repeats), "--loop-ms", str(args.loop_ms), "--frames-l",
                       *map(str, args.frames_l)]
            result = subprocess.run(command, check=True, capture_output=True, text=True)
            runs.append(json.loads(result.stdout))
    medians = {b: {k: statistics.median(r[b][k] for r in runs) / 1e3 for k in runs[0][b]}
               for b in BUILDS}
    print(f"µs per call, median over {args.processes} processes of the best of {args.repeats} "
          f"loops of {args.loop_ms:g} ms ({time.perf_counter() - t0:.0f} s)")
    print(f"{'kernel':<18}" + "".join(f"{b:>10}" for b in BUILDS))
    for kernel in medians["loaded"]:
        print(f"{kernel:<18}" + "".join(f"{medians[b][kernel]:>10.3f}" for b in BUILDS))
    if args.json:
        args.json.write_text(json.dumps({"us_median": medians, "ns_best_per_process": runs},
                                        indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
