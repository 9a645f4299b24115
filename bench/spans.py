"""Parent-linked spans around the public functions of each ``naec`` layer.

Timers are installed from outside at the name each caller looks up:
``naec.ilrma`` imports ``ewma_covariance_update``, ``solve_demixing_rows``
and ``demix_frame`` into its own namespace, the engine calls ``odd_powers``
through ``naec.pipeline`` and binds ``process_frame`` when it is built, so
an engine must be built after ``install`` to be traced.

A span's self time is its duration minus the durations of its direct
children, so nested calls (``compute_r1`` calls ``demix_frame``) are never
subtracted twice, and the self times of all spans add up exactly to the
durations of the root spans (``push`` and ``flush``).
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter_ns

# (module, attribute, span name). Functions reached from two namespaces
# share one span name.
TARGETS = (
    ("naec.pipeline", "StreamingEngine.push", "pipeline.push"),
    ("naec.pipeline", "StreamingEngine.flush", "pipeline.flush"),
    ("naec.pipeline", "odd_powers", "nonlin.odd_powers"),
    ("naec.auxiva", "process_frame", "optimizer.process_frame"),
    ("naec.ilrma", "process_frame", "optimizer.process_frame"),
    ("naec.auxiva", "compute_r1", "auxiva.compute_r1"),
    ("naec.auxiva", "ewma_covariance_update", "auxiva.ewma_covariance_update"),
    ("naec.ilrma", "ewma_covariance_update", "auxiva.ewma_covariance_update"),
    ("naec.auxiva", "solve_demixing_rows", "auxiva.solve_demixing_rows"),
    ("naec.ilrma", "solve_demixing_rows", "auxiva.solve_demixing_rows"),
    ("naec.auxiva", "demix_frame", "ctf.demix_frame"),
    ("naec.ilrma", "demix_frame", "ctf.demix_frame"),
    ("naec.ilrma", "update_bases", "ilrma.update_bases"),
    ("naec.ilrma", "update_activations", "ilrma.update_activations"),
)
ROOTS = ("pipeline.push", "pipeline.flush")
ROOT_TARGETS = tuple(t for t in TARGETS if t[2] in ROOTS)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))


class Tracer:
    """Records spans as (name, start_ns, end_ns, parent index) in memory."""

    def __init__(self, targets: tuple = TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []
        self.absent: list[str] = []
        self.installed: set[str] = set()

    def _wrap(self, name, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0, 0, open_[-1] if open_ else -1])
            open_.append(idx)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                open_.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1

        return traced

    def install(self) -> None:
        """Wrap every target that exists; names that do not are listed in ``absent``."""
        self.absent = []
        for module_name, attr, name in self.targets:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((owner, leaf, fn))
            self.installed.add(name)
            setattr(owner, leaf, self._wrap(name, fn))

    def uninstall(self) -> None:
        for owner, leaf, fn in reversed(self._saved):
            setattr(owner, leaf, fn)
        self._saved.clear()

    def summary(self) -> dict:
        """Per span name: call count, total and self nanoseconds."""
        child_ns = [0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in SPAN_NAMES}
        for (name, t0, t1, _), children in zip(self.spans, child_ns):
            rec = out[name]
            rec["calls"] += 1
            rec["total_ns"] += t1 - t0
            rec["self_ns"] += t1 - t0 - children
        return out
