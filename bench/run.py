"""naec benchmark: streaming echo cancellation driven from outside.

Run from the repository root:

    python3 bench/run.py --workload dt_speech_auxiva_l3 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no timers inside the
engine: real-time factor, push latency p50/p99, panel-mean steady-state
ERLE and true ERLE, and the cold start ``setup_s``. It streams every scene
of the workload's panel once and keeps cycling the panel until
``--seconds`` have passed. Push times are per-hop minima over all passes;
they and ``setup_s`` are scaled to a reference machine speed by a fixed
calibration kernel (``calibrate.py``), and the record keeps the values as
measured. ``--trace 1`` gives the
per-layer split instead: parent-linked spans around the public functions of
``pipeline``, ``nonlin``, ``auxiva``, ``ilrma`` and ``ctf`` (µs of self time
per frame and calls per frame), import times from ``-X importtime``, and the
tracing overhead. Nothing under ``src/`` is changed; the package is imported
from ``src/`` of the checkout this file sits in.

Every run checks its outputs: each push's samples must be finite, the
push-loop output on the first scene must be byte-identical to ``naec.run``
on the same inputs, and every repeated pass must reproduce its first pass.
A failed check sets ``correct`` to false and the exit code to 1.

Stdout ends with a human-readable table, one JSON record (sample counts,
environment, output hashes, per-scene quality, ``src_lines`` and
``pipeline.state_kb``) and, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``. ``attempted`` counts
pushes and ``failed`` the pushes that raised or returned non-finite samples.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_blas_threads() -> int:
    """Run BLAS on one thread; returns the usable core count for the record.

    A canceller serves one stream per core. On a 2-core machine two OpenBLAS
    threads per stream spin against each other and against other tenants,
    which made push times swing by a fifth from run to run (one thread:
    about 3%). Must run before numpy is imported; cold starts inherit it.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "naec" / "__init__.py").is_file():
        print(f"error: no naec package under {SRC}", file=sys.stderr)
        return 2
    nproc = _pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run = measure.run_traced if args.trace else measure.run_end_to_end
    result = run(workload, args.seed, args.seconds)

    env = measure.environment(nproc)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **result["record"],
        "src_lines": measure.src_lines(),
        "pipeline.state_kb": measure.state_kb(measure.engine_from_mapping(workload.engine)),
        "env": env,
    }
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"{'attempted / failed pushes':40s} {result['attempted']:>7d} / {result['failed']}")
    print(json.dumps(record))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
