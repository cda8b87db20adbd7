"""Traced-run recorder: timing wrappers on each layer's public functions.

The wrappers are installed from the benchmark's own files on the class
attributes (and, for module-level functions, on the names in the caller's
module, which is where the caller looks them up), and removed again
afterwards.  Spans — layer, function, start, end, parent — stay in memory;
a layer's self time is its spans' duration minus the time their child spans
cover.  Work counts are taken at the same boundaries.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: The benchmark's clock: CPU seconds of this (single-threaded) process.
#: Unlike wall time it leaves out the time the host gives to other jobs,
#: including time stolen by the hypervisor, which on a shared host swings
#: wall-clock speed by up to 2x between runs.
clock = time.process_time

# (layer, "module:Owner.attr" or "module:function", work counter or None).
# A work counter maps the call's positional arguments to the units of work
# it was asked for.  Every selector class that defines its own
# ``select_batch`` is listed, since a wrapper on the base class misses
# overrides.
TARGETS = (
    ("rng", "repro.rng.streams:BatchStreams.uniform_flat",
     lambda args: int(np.asarray(args[1]).sum())),
    ("sampling.{name}", "repro.sampling.base:Sampler.sample_batch", None),
    ("sampling.weights", "repro.sampling.batch:BatchStepContext.transition_weights", None),
    ("sampling.weights", "repro.sampling.batch:BatchStepContext.gather_weights", None),
    ("graph.has_edges", "repro.graph.csr:CSRGraph.has_edges", lambda args: len(args[1])),
    ("runtime.hints", "repro.runtime.frontier:NodeHintTables.lookup", None),
    ("runtime.select", "repro.runtime.selector:SamplerSelector.select_batch", None),
    ("runtime.select", "repro.runtime.selector:CostModelSelector.select_batch", None),
    ("runtime.select", "repro.runtime.selector:FixedSelector.select_batch", None),
    ("runtime.select", "repro.runtime.selector:RandomSelector.select_batch", None),
    ("gpusim.accounting", "repro.gpusim.device:DeviceSpec.lane_times_ns", None),
    ("gpusim.accounting", "repro.gpusim.counters:CostCounters.merge", None),
    ("gpusim.accounting", "repro.gpusim.counters:CounterBatch.totals", None),
    ("walks.update", "repro.walks.spec:WalkSpec.update_batch", None),
    ("walks.update", "repro.walks.state:WalkerFrontier.advance", None),
    ("service.assembly", "repro.walks.state:WalkerFrontier.paths", None),
    ("service.assembly", "repro.gpusim.executor:KernelExecutor.execute", None),
    ("service.assembly", "repro.service.session:WalkSession.collect", None),
    ("scheduler.tick", "repro.service.scheduler:ServiceScheduler.tick", None),
    ("service.session_open", "repro.service.scheduler:ServiceScheduler.session", None),
    ("compiler.compile", "repro.service.service:WalkService.compile", None),
    ("runtime.profile", "repro.service.service:WalkService.profile", None),
    ("service.submit", "repro.service.session:WalkSession.submit", None),
    ("graph.overlay", "repro.graph.delta:DeltaCSRGraph.apply_delta", None),
    ("graph.snapshot", "repro.graph.delta:DeltaCSRGraph.snapshot", None),
    ("graph.repair", "repro.service.service:repair_csr_caches", None),
    ("graph.rebind", "repro.service.service:rebind_engine_caches", None),
)


def _resolve(target: str):
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory span recorder; :meth:`install` wraps every target."""

    def __init__(self) -> None:
        self.origin = clock()
        # Each span is [layer, function, start, end, parent index].
        self.spans: list[list] = []
        self.work: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str, label: str) -> int:
        index = len(self.spans)
        self.spans.append([name, label, clock(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][3] = clock()

    def _wrap(self, layer: str, label: str, original, work):
        keyed = "{name}" in layer

        def traced(*args, **kwargs):
            name = layer.format(name=args[0].name) if keyed else layer
            if work is not None:
                self.work[name] += work(args)
            index = self._open(name, label)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(index)

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        for layer, target, work in TARGETS:
            owner, attr = _resolve(target)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, target.split(":")[1], original, work))

    def restore(self) -> None:
        """Put every original back; raises if one is not back afterwards."""
        saved, self._saved = self._saved, []
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        for owner, attr, original in saved:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"{owner!r}.{attr} was not restored")

    @contextmanager
    def span(self, layer: str):
        """Record one benchmark-level span around the ``with`` body."""
        index = self._open(layer, layer)
        try:
            yield
        finally:
            self._close(index)

    # ------------------------------------------------------------------ #
    def self_seconds(self) -> dict[str, float]:
        """Total self time per layer."""
        child = [0.0] * len(self.spans)
        for _name, _label, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, _label, start, end, _parent), covered in zip(self.spans, child, strict=True):
            totals[name] += end - start - covered
        return totals

    def durations_ms(self, layer: str) -> list[float]:
        return [(s[3] - s[2]) * 1e3 for s in self.spans if s[0] == layer]

    def write_chrome(self, path: Path) -> None:
        """Chrome trace-event JSON (open in chrome://tracing or Perfetto)."""
        events = [
            {
                "name": label, "cat": name, "ph": "X", "pid": 0, "tid": 0,
                "ts": (start - self.origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": i, "parent": parent},
            }
            for i, (name, label, start, end, parent) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
