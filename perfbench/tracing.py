"""Spans around the public calls into each hoim layer, recorded from outside.

The tracer replaces module attributes and class methods with thin wrappers
for the duration of a ``with tracer.patched():`` block and restores the
originals afterwards, so untraced runs in the same process execute the
unmodified code.  Each call becomes one span (id, parent id, layer name,
start, end, unit of work); spans stay in memory until the run writes them
out.  A layer's self time is its span's duration minus the durations of
its direct children.

The record-path functions are patched where ``hoim.engine`` looks them up
(``hoim.engine.snap_to_spins`` and so on) and the system methods on their
classes, because the engine reaches them through those names.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict

from hoim import cli, engine, hypercut, instances, naesat, oracle

LAYERS = (
    "instances.parse",
    "polynomial.build_objective",
    "naesat.build",
    "hypercut.build",
    "naesat.drift",
    "hypercut.drift",
    "hypercut.phase_penalty",
    "naesat.energy",
    "hypercut.energy",
    "naesat.snap",
    "hypercut.snap",
    "polynomial.count_satisfied",
    "hypercut.count_cut",
    "engine.run",
    "engine.lyapunov_audit",
    "oracle.finite_diff_gradient",
    "cli",
)

_NaeSystem, _CutSystem = naesat.NaeSystem, hypercut.CutSystem
_TARGETS = (
    (instances, "parse_dimacs", "instances.parse"),
    (instances, "parse_hypergraph", "instances.parse"),
    (cli, "parse_dimacs", "instances.parse"),
    (cli, "parse_hypergraph", "instances.parse"),
    (naesat, "build_objective", "polynomial.build_objective"),
    (_NaeSystem, "from_instance", "naesat.build"),
    (_CutSystem, "from_hypergraph", "hypercut.build"),
    (_NaeSystem, "drift", "naesat.drift"),
    (_CutSystem, "drift", "hypercut.drift"),
    (hypercut, "phase_penalty", "hypercut.phase_penalty"),
    (_NaeSystem, "energy", "naesat.energy"),
    (_CutSystem, "energy", "hypercut.energy"),
    (engine, "snap_to_spins", "naesat.snap"),
    (engine, "snap_to_labels", "hypercut.snap"),
    (engine, "count_satisfied", "polynomial.count_satisfied"),
    (engine, "count_cut", "hypercut.count_cut"),
    (engine, "run", "engine.run"),
    (cli, "run", "engine.run"),
    (cli, "lyapunov_audit", "engine.lyapunov_audit"),
    (oracle, "finite_diff_gradient", "oracle.finite_diff_gradient"),
    (cli, "main", "cli"),
)


class Tracer:
    """In-memory span recorder.  ``unit`` tags spans with the unit of work they
    belong to, the benchmark's equivalent of a request id."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float, int]] = []
        self.unit = 0
        self._stack: list[int] = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end, self.unit))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every layer entry point; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name in _TARGETS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                if isinstance(original, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(name, original.__func__)))
                else:
                    setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def per_unit(self) -> dict[int, dict]:
        """Per unit of work: calls and self seconds per layer (benchmark spans
        ``bench.*`` included), and the self seconds under each ``bench.*`` span kind."""
        child_time: dict[int, float] = defaultdict(float)
        parent_of: dict[int, int | None] = {}
        name_of: dict[int, str] = {}
        for span_id, parent, name, start, end, _unit in self.spans:
            parent_of[span_id] = parent
            name_of[span_id] = name
            if parent is not None:
                child_time[parent] += end - start
        units: dict[int, dict] = defaultdict(lambda: {"calls": defaultdict(int), "self": defaultdict(float),
                                                      "under": defaultdict(float)})
        for span_id, parent, name, start, end, unit in self.spans:
            own = (end - start) - child_time[span_id]
            table = units[unit]
            table["calls"][name] += 1
            table["self"][name] += own
            root = span_id
            while parent_of[root] is not None:
                root = parent_of[root]
            table["under"][name_of[root]] += own
        return units

    def write(self, path) -> None:
        """Write every span as one JSON line: id, parent, name, start, end, unit."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, unit in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                         "start": start, "end": end, "unit": unit}) + "\n")


def layer_metrics(units: dict[int, dict]) -> dict[str, tuple[float, str]]:
    """Median over units of each layer's calls, self seconds and microseconds per call."""
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        calls = statistics.median_low(u["calls"].get(layer, 0) for u in units.values())
        seconds = statistics.median(u["self"].get(layer, 0.0) for u in units.values())
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.s"] = (seconds, "s")
        out[f"{layer}.us_per_call"] = (seconds / calls * 1e6 if calls else 0.0, "us")
    return out
