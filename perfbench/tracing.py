"""Traced mode: spans around calls into each layer's public functions.

A :class:`Tracer` replaces public functions (and public methods of public
classes) of the program with thin wrappers that record one span per call:
``[name, start, end, parent, run_id]``.  Spans live in memory and are
written out once, at the end of the run.  The wrappers are installed from
the benchmark's own files — the program is not edited — and every binding
replaced is put back by :meth:`Tracer.restore`.

A span's *layer* is the part of its name before the first dot, which is
the name of the ``repro`` subpackage the wrapped function belongs to.  A
span's *self time* is its duration minus the time its child spans cover;
children of one parent never overlap because the program runs one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

#: The program's layers, as named by its subpackages.
LAYERS = (
    "arrivals", "distributions", "kernels", "replay", "shaping", "stream",
    "scenario", "monitor", "stats", "selfsim", "engine", "experiments",
)


def _arg(fn, args, kwargs, name):
    """Value of parameter ``name`` in a call ``fn(*args, **kwargs)``."""
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _count_arrivals(tracer, fn, args, kwargs, result, span):
    tracer.counters["arrivals.count"] += int(result.sum())


def _count_group_sources(tracer, fn, args, kwargs, result, span):
    tracer.counters["kernels.sources"] += (
        _arg(fn, args, kwargs, "n_groups")
        * _arg(fn, args, kwargs, "group_size"))


def _count_sources(tracer, fn, args, kwargs, result, span):
    tracer.counters["kernels.sources"] += _arg(fn, args, kwargs, "n_sources")


def _count_conditioning(tracer, fn, args, kwargs, result, span):
    # Only the synth spec's conditioning stage counts: the shaping
    # experiment's policer grid is part of its own compute time.
    if tracer.within(span, "scenario.run_spec"):
        tracer.counters["shaping.offered"] += int(result.accept.size)
        tracer.counters["shaping.accepted"] += int(result.accept.sum())


def _classify_observe(tracer, fn, args, kwargs, result, span):
    # A call that emitted a snapshot did the estimation work as well as
    # the ingest; the two kinds have different latency, so they are
    # separate span names.
    kind = "snapshot" if result else "ingest"
    span[0] = f"monitor.{kind}"
    tracer.counters[f"monitor.{kind}_calls"] += 1


def _count_report(tracer, fn, args, kwargs, result, span):
    counters = tracer.counters
    counters["monitor.snapshots"] += len(result.snapshots)
    counters["monitor.alarms"] += len(result.alarms)
    counters["monitor.memory_bytes"] = max(counters["monitor.memory_bytes"],
                                           result.memory_bytes)


#: (span name, module, attribute, counter hook).  An attribute written
#: ``Class.method`` wraps the method on the class that defines it; a bare
#: name wraps the function wherever a ``repro`` module binds it.
TARGETS = (
    ("arrivals.counts", "repro.arrivals.pareto_renewal",
     "pareto_renewal_counts", _count_arrivals),
    ("arrivals.burst_lull", "repro.arrivals.pareto_renewal",
     "burst_lull_summary", None),
    ("distributions.pareto_sample", "repro.distributions.pareto",
     "Pareto.sample", None),
    ("kernels.groups", "repro.kernels.superpose", "superpose_onoff_groups",
     _count_group_sources),
    ("kernels.onoff", "repro.kernels.superpose", "superpose_onoff",
     _count_sources),
    ("stats.normality", "repro.stats.anderson_darling",
     "anderson_darling_normal", None),
    ("selfsim.vt", "repro.selfsim.variance_time", "variance_time_curve", None),
    ("replay.synthesize", "repro.replay.source", "synthesize_packets", None),
    ("shaping.apply", "repro.shaping.elements", "TokenBucketPolicer.apply",
     _count_conditioning),
    ("stream.update", "repro.stream.summary", "StreamSummary.update", None),
    ("stream.merge", "repro.stream.summary", "StreamSummary.merge", None),
    ("scenario.run_spec", "repro.scenario.pipeline", "run_spec", None),
    ("scenario.summary", "repro.scenario.shard", "sharded_summary", None),
    ("scenario.battery", "repro.scenario.battery", "run_battery", None),
    ("monitor.observe", "repro.monitor.service", "MonitorService.observe",
     _classify_observe),
    ("monitor.finalize", "repro.monitor.service", "MonitorService.finalize",
     _count_report),
    ("monitor.windows", "repro.monitor.windows", "SlidingCountLadder.update",
     None),
    ("monitor.windows", "repro.monitor.windows", "DecayedTopK.update", None),
    ("monitor.windows", "repro.monitor.windows",
     "WindowedQuantileSketch.update", None),
    ("monitor.poisson_check", "repro.monitor.estimators",
     "OnlinePoissonCheck.update", None),
    ("engine.run_experiments", "repro.engine.runner", "run_experiments", None),
    ("experiments.superpose.run_config", "repro.experiments.superpose_exp",
     "run_config", None),
)


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []          # [name, start, end, parent]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------
    def wrap(self, fn, name: str, hook=None):
        """``fn`` recording one span per call under ``name``."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if hook is not None:
                hook(self, fn, args, kwargs, result, span)
            return result

        return traced

    def within(self, span, name: str) -> bool:
        """Whether an ancestor of ``span`` is named ``name``."""
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    # -- installing ----------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch_function(self, fn, name: str, hook=None) -> None:
        """Wrap ``fn`` at every module-level binding in a ``repro`` module."""
        wrapped = self.wrap(fn, name, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "repro":
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapped)

    def patch_method(self, cls, attr: str, name: str, hook=None) -> None:
        """Wrap method ``attr`` on the class in ``cls``'s MRO defining it."""
        owner = next(c for c in cls.__mro__ if attr in vars(c))
        self._set(owner, attr, self.wrap(vars(owner)[attr], name, hook))

    def patch_registry(self, registry: dict) -> None:
        """Wrap each experiment entry point as ``experiments.<name>.compute``."""
        for exp, fn in list(registry.items()):
            self._undo.append((registry, exp, fn))
            registry[exp] = self.wrap(fn, f"experiments.{exp}.compute")

    def install(self) -> None:
        """Wrap every entry of :data:`TARGETS` and the experiment registry."""
        for name, module, attr, hook in TARGETS:
            mod = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                self.patch_method(getattr(mod, cls_name), meth, name, hook)
            else:
                self.patch_function(getattr(mod, attr), name, hook)
        from repro.experiments import REGISTRY

        self.patch_registry(REGISTRY)

    def restore(self) -> None:
        """Put back every binding replaced, newest first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- output --------------------------------------------------------
    def dump(self, path) -> None:
        """Write the spans as JSON: one ``[name, start, end, parent,
        run_id]`` row per span, times in seconds of ``perf_counter``."""
        rows = [s + [self.run_id] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": rows}, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def busy_by_name(spans, within: str | None = None) -> dict[str, float]:
    """Total (inclusive) duration per span name, nested repeats counted once.

    A span whose ancestor carries the same name is already inside that
    ancestor's interval, so only the outermost one is summed.  With
    ``within``, only spans that have an ancestor of that name count.
    """
    totals: dict[str, float] = defaultdict(float)
    for name, start, end, parent in spans:
        ancestors = []
        while parent >= 0:
            ancestors.append(spans[parent][0])
            parent = spans[parent][3]
        if name in ancestors or (within and within not in ancestors):
            continue
        totals[name] += end - start
    return dict(totals)


def self_by_layer(spans) -> dict[str, float]:
    """Self time summed per layer (span name up to the first dot)."""
    totals = {layer: 0.0 for layer in LAYERS}
    for (name, *_), own in zip(spans, self_times(spans)):
        layer = name.split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def covered(spans) -> float:
    """Seconds covered by top-level spans (those without a parent)."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)
