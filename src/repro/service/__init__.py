"""Session-based service API: compile → plan → execute, decoupled.

The serving surface of the reproduction and the front door of every run
(:meth:`WalkService.session`); :meth:`repro.runtime.engine.WalkEngine.run`
is the only other entry.  The package keeps a workload *hot* across
requests:

* :class:`WalkService` — owns the shared immutable state (graph, compiled
  workloads, profiles, hint tables, transition caches, device fleet);
* :class:`ExecutionPlan` / :func:`negotiate_plan` — device placement as an
  explicit, auditable negotiation against declared
  :class:`ServiceCapabilities` instead of scattered constructor flags (the
  backend follows from the device count);
* :class:`WalkSession` — per-tenant execution: incremental
  :meth:`~WalkSession.submit` (returning :class:`QueryTicket`\\ s), streaming
  :meth:`~WalkSession.stream` (yielding :class:`WalkChunk`\\ s as walks
  finish) and exact :meth:`~WalkSession.collect`;
* :class:`ServiceScheduler` — cross-session continuous batching: many
  sessions' walkers fused into shared supersteps, with weighted round-robin
  tenant fairness, an SLO priority lane, and in-flight-budget backpressure
  (:class:`~repro.errors.QueueFull`), configured per submission through the
  frozen :class:`SubmitOptions`.

A session's ``collect()`` — standalone or scheduler-attached — is
bit-identical to ``WalkEngine.run`` over the same queries; the parity suites
enforce it.
"""

from repro.service.plan import (
    BACKENDS,
    DeviceFleet,
    ExecutionPlan,
    ServiceCapabilities,
    declare_capabilities,
    negotiate_plan,
)
from repro.service.scheduler import ServiceScheduler, TenantStats
from repro.service.service import WalkService, build_selector
from repro.service.session import (
    QueryTicket,
    SubmitOptions,
    WalkChunk,
    WalkSession,
)

__all__ = [
    "BACKENDS",
    "DeviceFleet",
    "ExecutionPlan",
    "ServiceCapabilities",
    "declare_capabilities",
    "negotiate_plan",
    "WalkService",
    "build_selector",
    "QueryTicket",
    "SubmitOptions",
    "WalkChunk",
    "WalkSession",
    "ServiceScheduler",
    "TenantStats",
]
