"""Span recorder for the traced benchmark run.

The recorder replaces a module attribute (the name a caller looks a function
up by) with a wrapper that records one span per call: name, start, end,
parent span and the workload phase active at the time. Spans stay in memory
in flat arrays (a traced detect run records about a million of them) and
are written out once, when the run ends. Counters (windows, samples,
FLOPs, ...) are recorded at the same boundaries by small per-name hooks.

With tracing off no module attribute is touched.
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.phases: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("H")
        self.span_phase = array("B")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.models: dict[int, object] = {}
        self.patched: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.phase = "setup"

    @property
    def phase(self) -> str:
        return self.phases[self._phase_id]

    @phase.setter
    def phase(self, name: str) -> None:
        if name not in self.phases:
            self.phases.append(name)
        self._phase_id = self.phases.index(name)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[(self.phase, key)] += amount

    def traced(self, fn, name: str, hook=None):
        """Return ``fn`` wrapped to record one span per call under ``name``.

        ``hook(tracer, args, kwargs, result)`` runs after each call to
        record work counts.
        """
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_id[name]
        stack, starts, ends = self._stack, self.span_start, self.span_end

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            index = len(starts)
            self.span_name.append(name_id)
            self.span_phase.append(self._phase_id)
            self.span_parent.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                starts[index] = start
                ends[index] = end
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced_call

    def wrap(self, module, attr: str, name: str, hook=None) -> None:
        """Trace calls made through ``module.attr``; undone by :meth:`restore`."""
        fn = getattr(module, attr)
        setattr(module, attr, self.traced(fn, name, hook))
        self.patched.append((module, attr, fn))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        for module, attr, fn in reversed(self.patched):
            setattr(module, attr, fn)
        self.patched.clear()

    # --- aggregation -----------------------------------------------------------

    def totals(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name: call count, busy time and self time in ``phase``.

        Self time is a span's duration minus the time its child spans
        cover; calls are single-threaded, so children never overlap.
        """
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        if phase not in self.phases or not self.span_start:
            return out
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        parent = np.frombuffer(self.span_parent, dtype=np.dtype("l"))
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        mine = np.frombuffer(self.span_phase, dtype=np.uint8) == self.phases.index(phase)
        names = np.frombuffer(self.span_name, dtype=np.uint16)[mine]
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        busy = np.bincount(names, weights=dur[mine], minlength=k)
        own = np.bincount(names, weights=(dur - child)[mine], minlength=k)
        for i, name in enumerate(self.names):
            if calls[i]:
                out[name] = {"calls": int(calls[i]), "busy_s": float(busy[i]),
                             "self_s": float(own[i])}
        return out

    def write(self, path: Path) -> None:
        """Write every span to a compressed ``.npz`` file: per span the name
        and phase index, parent span index (-1 for none), and start and end
        in seconds from the first span; ``names`` and ``phases`` give the
        strings behind the indices."""
        path.parent.mkdir(parents=True, exist_ok=True)
        start = np.frombuffer(self.span_start)
        origin = start[0] if len(start) else 0.0
        np.savez_compressed(
            path,
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            phase=np.frombuffer(self.span_phase, dtype=np.uint8),
            parent=np.frombuffer(self.span_parent, dtype=np.dtype("l")),
            start=start - origin,
            end=np.frombuffer(self.span_end) - origin,
            names=np.array(self.names), phases=np.array(self.phases))
