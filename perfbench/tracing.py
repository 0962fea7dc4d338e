"""Spans around calls into the gcluster layers, recorded from outside the library.

``instrument(tracer)`` swaps module attributes for timing wrappers and puts
the originals back on exit. A call is caught only if it looks the name up
where it was patched, so every binding site is listed in ``_SITES``:

* ``gcluster.bench`` imported ``wards_gc``, ``kmeans_gc`` and ``vns_gc`` by
  name, so its own bindings are patched next to the defining modules'.
* ``gcluster.vns`` calls ``ward.wards_gc``, ``ward.wards_gc_from`` and
  ``kmeans_mod.kmeans_gc`` through the modules, so patching the module
  attributes catches them.
* ``gcluster.kmeans`` as an attribute of the package is the *function*
  ``kmeans``; the module comes from ``importlib.import_module``.

Spans stay in memory and are written out as JSON lines when a run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass, field

# (module, attribute, span name). One span name may have several binding sites.
_SITES = (
    ("gcluster.bench", "run_algorithm", "bench.run_algorithm"),
    ("gcluster.bench", "wards_gc", "ward.wards_gc"),
    ("gcluster.bench", "kmeans_gc", "kmeans.kmeans_gc"),
    ("gcluster.bench", "vns_gc", "vns.vns_gc"),
    ("gcluster.ward", "wards_gc", "ward.wards_gc"),
    ("gcluster.ward", "wards_gc_from", "ward.wards_gc_from"),
    ("gcluster.kmeans", "kmeans_gc", "kmeans.kmeans_gc"),
    ("gcluster.kmeans", "pmedian_greedy", "kmeans.pmedian_greedy"),
    ("gcluster.kmeans", "pmedian_local_search", "kmeans.pmedian_local_search"),
    ("gcluster.kmeans", "kmeans", "kmeans.lloyd"),
    ("gcluster.vns", "vns_gc", "vns.vns_gc"),
    ("gcluster.vns", "shake", "vns.shake"),
    ("gcluster.stats", "apply_merge", "stats.apply_merge"),
    ("gcluster.stats", "apply_removal", "stats.apply_removal"),
    ("gcluster.stats", "evaluate", "stats.evaluate"),
)


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float = 0.0
    run_id: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder for one benchmark process. Records only while
    ``recording`` is set, so certification calls leave no spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.recording = False
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].span_id if self._stack else None
        s = Span(len(self.spans), parent, name, 0.0, run_id=self.run_id)
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _observe_probes(span: Span, kwargs: dict) -> None:
    """Count bisection probes by chaining onto ``kmeans_gc``'s on_probe hook."""
    inner = kwargs.get("on_probe")
    span.attrs.update(probe_ks=[], feasible_probes=0)

    def on_probe(probe):
        span.attrs["probe_ks"].append(probe.k)
        span.attrs["feasible_probes"] += int(probe.feasible)
        if inner is not None:
            inner(probe)

    kwargs["on_probe"] = on_probe


def _record_result(name: str, span: Span, result) -> None:
    if name == "kmeans.lloyd":
        span.attrs["passes"] = result.iterations
    elif name == "vns.vns_gc":
        trace = result[1]
        span.attrs.update(iterations=trace.iterations, improvements=trace.improvements)


def _wrap(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        with tracer.span(name) as s:
            if name == "kmeans.kmeans_gc":
                _observe_probes(s, kwargs)
            result = fn(*args, **kwargs)
            _record_result(name, s, result)
            return result

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch every binding site in ``_SITES``; restore them on exit."""
    saved = []
    try:
        for mod_name, attr, span_name in _SITES:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, _wrap(tracer, original, span_name))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover. Calls are
    single-threaded, so children never overlap and their durations add."""
    own = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent_id is not None and s.parent_id in own:
            own[s.parent_id] -= s.duration
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and counters for the spans of one traced operation."""

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def count(name):
        return sum(1 for s in spans if s.name == name)

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    own = self_times(spans)
    vns_ids = {s.span_id for s in spans if s.name == "vns.vns_gc"}
    starter_s = sum(
        s.duration
        for s in spans
        if s.parent_id in vns_ids and s.name in ("ward.wards_gc", "kmeans.kmeans_gc")
    )
    iterations = attr_sum("vns.vns_gc", "iterations")
    improvements = attr_sum("vns.vns_gc", "improvements")
    probe_ks = [k for s in spans if s.name == "kmeans.kmeans_gc" for k in s.attrs["probe_ks"]]
    probes = len(probe_ks)
    ward_ids = {s.span_id for s in spans if s.name.startswith("ward.")}
    merges = sum(1 for s in spans if s.name == "stats.apply_merge" and s.parent_id in ward_ids)
    return {
        "ward.wards_gc_s": total("ward.wards_gc"),
        "ward.self_s": sum(own[s.span_id] for s in spans if s.name.startswith("ward.")),
        "ward.merges": merges,
        "ward.wards_gc_from_s": total("ward.wards_gc_from"),
        "ward.wards_gc_from_calls": count("ward.wards_gc_from"),
        "stats.apply_merge_s": total("stats.apply_merge"),
        "stats.apply_merge_calls": count("stats.apply_merge"),
        "stats.apply_removal_s": total("stats.apply_removal"),
        "stats.apply_removal_calls": count("stats.apply_removal"),
        "stats.evaluate_s": total("stats.evaluate"),
        "vns.rebuild_s": sum(
            s.duration for s in spans if s.name == "ward.wards_gc_from" and s.parent_id in vns_ids
        ),
        "vns.shake_s": total("vns.shake"),
        "vns.starter_s": starter_s,
        "vns.loop_s": total("vns.vns_gc") - starter_s,
        "vns.iterations": iterations,
        "vns.improvements": improvements,
        "vns.accept_ratio": improvements / iterations if iterations else 0.0,
        "kmeans.pmedian_greedy_s": total("kmeans.pmedian_greedy"),
        "kmeans.pmedian_local_search_s": total("kmeans.pmedian_local_search"),
        "kmeans.lloyd_s": total("kmeans.lloyd"),
        "kmeans.lloyd_passes": attr_sum("kmeans.lloyd", "passes"),
        "kmeans.probes": probes,
        "kmeans.probe_k_sum": sum(probe_ks),
        "kmeans.feasible_probe_ratio": (
            attr_sum("kmeans.kmeans_gc", "feasible_probes") / probes if probes else 0.0
        ),
    }
