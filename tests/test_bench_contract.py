"""What the benchmark under ``bench/`` needs from ``naec``, checked without editing it.

The benchmark wraps functions by name and reads import times from a fresh
interpreter, so a renamed function or a changed import path changes what it
reports even when every engine test passes.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = Path(__file__).resolve().parent.parent / "src"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_every_span_has_a_target_in_naec():
    spans = _spans()
    for name in spans.SPAN_NAMES:
        targets = [(m, a) for m, a, n in spans.TARGETS if n == name]
        assert any(_resolves(m, a) for m, a in targets), (name, targets)


def test_engine_cold_start_imports_scipy_signal():
    # Pins the benchmark's `import.scipy_signal_s` metric, which is read from
    # `-X importtime` of this cold start and dropped when scipy.signal is not
    # imported. Remove this test in the benchmark change that replaces that
    # metric, before scipy leaves the engine's import path.
    code = (
        "import sys, naec; naec.StreamingEngine(naec.engine_from_mapping({})); "
        "print('scipy.signal' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert proc.stdout.strip() == "True"


def _strict_json(text):
    """``json.loads`` that refuses NaN and the infinities, which are not JSON."""

    def refuse(constant):
        raise ValueError(f"non-JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


BENCHMARK = _strict_json((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_ends_in_a_result_with_every_per_layer_metric(workload):
    """A traced benchmark run exits 0 and its last line is a strict JSON
    result, ``correct``, with every ``per_layer`` metric BENCHMARK.json
    declares: a span target that no longer resolves drops its metric."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = _strict_json(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    missing = {m["name"] for m in BENCHMARK["per_layer"]} - set(result["metrics"])
    assert not missing, missing
