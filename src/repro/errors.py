"""Exception hierarchy for the FlexiWalker reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch a single exception type at API boundaries while still being
able to distinguish the failure category when needed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GraphError(ReproError):
    """Raised when a graph is malformed or an operation on it is invalid."""


class GraphFormatError(GraphError):
    """Raised when parsing an on-disk graph representation fails."""


class SamplingError(ReproError):
    """Raised when a sampling kernel is invoked on an invalid context."""


class WalkSpecError(ReproError):
    """Raised when a user-supplied walk specification is invalid."""


class CompilerError(ReproError):
    """Raised when Flexi-Compiler cannot analyse user walk logic.

    Note that many analysis failures are *not* errors: when the analyser
    detects unsupported constructs it falls back to eRVS-only mode (see
    Section 7.1 of the paper) and emits a :class:`CompilerWarning` instead.
    """


class CompilerWarning(UserWarning):
    """Warning emitted when Flexi-Compiler falls back to a safe mode."""


class RuntimeSelectionError(ReproError):
    """Raised when Flexi-Runtime cannot select a sampling strategy."""


class SimulationError(ReproError):
    """Raised when the GPU execution simulator is configured inconsistently."""


class ServiceError(ReproError):
    """Raised by the session-based service API (:mod:`repro.service`).

    Covers plan-negotiation failures (requesting more devices than the
    service fleet owns, unknown partition policies), invalid submissions
    (duplicate query ids within a session) and collecting results from a
    session that never received queries.
    """


class QueueFull(ServiceError):
    """Backpressure signal of the continuous-batching scheduler.

    Raised by :meth:`~repro.service.session.WalkSession.submit` on a
    scheduler-attached session when the in-flight walker budget
    (``max_inflight_walkers``) is exhausted, or when the submission would
    push the tenant's outstanding-walker quota past its limit, and the
    submission did not opt into blocking admission
    (``SubmitOptions(block_on_full=True)``).
    """


class FaultError(ReproError):
    """Raised when an injected fault is unrecoverable.

    Produced by the fault-injection runtime (:mod:`repro.runtime.faults`)
    when a transient fault exhausts its configured retry budget
    (``FaultPlan.max_retries``).  Recoverable faults — transient kernel
    faults that eventually retry through, permanent device failures covered
    by a checkpoint — never surface as exceptions; they show up as
    ``recovery_time_ns`` / ``degraded_devices`` on the run result instead.
    """


class DeadlineExceeded(ServiceError):
    """A ticket's walkers were cancelled because its deadline expired.

    Raised by :meth:`~repro.service.session.QueryTicket.paths` when the
    ticket was submitted with ``SubmitOptions(deadline_ticks=...)`` and the
    scheduler cancelled its remaining walkers at the deadline.
    """


class BenchmarkError(ReproError):
    """Raised by the benchmark harness on invalid experiment configuration."""


class OutOfMemoryError(SimulationError):
    """Simulated GPU out-of-memory condition (reported as OOM in tables)."""


class OutOfTimeError(SimulationError):
    """Simulated out-of-time condition (reported as OOT in tables)."""
