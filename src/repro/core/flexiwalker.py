"""The FlexiWalker facade: compile → profile → select → walk (Fig. 6).

.. deprecated::
    ``FlexiWalker.run`` / ``run_queries`` are legacy spellings kept for
    backward compatibility.  New code should use the session-based service
    API (:mod:`repro.service`), which keeps compiled workloads hot across
    requests, supports incremental query submission and streams results::

        from repro import WalkService, Node2VecSpec, load_dataset, make_queries

        graph = load_dataset("YT", weights="uniform")
        service = WalkService(graph)
        session = service.session(Node2VecSpec())
        session.submit(make_queries(graph.num_nodes, walk_length=80))
        result = session.collect()

    See ``MIGRATION.md`` for the full old → new mapping.

The facade still performs the full pipeline of the paper's Fig. 6 — it is
now a thin shim over a single-session :class:`~repro.service.WalkService`:

1. **Compile time** — Flexi-Compiler analyses the workload's ``get_weight``
   and generates the max/sum estimation helpers plus the per-node
   preprocessing (falling back to eRVS-only when the code is too complex).
2. **Profiling** — two lightweight kernels measure the device's
   rejection-vs-reservoir per-edge cost ratio (Section 5.1).
3. **Runtime** — walk queries are pulled from a dynamic queue, the cost model
   picks eRJS or eRVS per node per step, and the optimised kernels execute on
   the simulated device.

The parity suite (``tests/service/test_session_parity.py``) enforces that
the shim is bit-identical — paths, counters, simulated timings — to the
pre-service engine path.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.core.config import FlexiWalkerConfig
from repro.errors import ReproError
from repro.graph.csr import CSRGraph
from repro.runtime.engine import WalkRunResult
from repro.service.plan import DeviceFleet
from repro.service.service import WalkService
from repro.walks.spec import WalkSpec
from repro.walks.state import WalkQuery, make_queries

_DEPRECATION_HINT = (
    "is deprecated; open a session on a WalkService instead "
    "(service = WalkService(graph); session = service.session(spec, config); "
    "session.submit(queries); session.collect()) — see MIGRATION.md"
)


class FlexiWalker:
    """End-to-end dynamic random walk framework on the simulated GPU.

    A convenience facade over a single-session :class:`~repro.service.WalkService`:
    construction compiles the workload, profiles the device and negotiates an
    execution plan; each (deprecated) ``run`` call opens a fresh session on
    the shared service, so repeated runs reuse every compiled artifact.

    Parameters
    ----------
    graph:
        The input graph (CSR).
    spec:
        The workload's gather-move-update logic.
    config:
        Pipeline configuration; defaults reproduce the paper's setup
        (cost-model selection, profiling on, overheads accounted).
    """

    def __init__(
        self,
        graph: CSRGraph,
        spec: WalkSpec,
        config: FlexiWalkerConfig | None = None,
    ) -> None:
        self.graph = graph
        self.spec = spec
        self.config = config or FlexiWalkerConfig()

        self.service = WalkService(
            graph, fleet=DeviceFleet(self.config.device, self.config.num_devices)
        )
        session = self.service.session(spec, self.config)

        # Legacy attribute surface (kept stable for downstream code).
        self.compiled = session.compiled
        self.profile = session.profile
        self.cost_model = session.cost_model
        self.selector = session.selector
        self.engine = session.engine
        self.plan = session.plan

    # ------------------------------------------------------------------ #
    def run(
        self,
        walk_length: int | None = None,
        num_queries: int | None = None,
        start_nodes: np.ndarray | None = None,
    ) -> WalkRunResult:
        """Create one query per node (or per requested start) and execute them.

        ``walk_length`` defaults to the workload's paper setting (80 steps,
        or the schema depth for MetaPath).

        .. deprecated:: use ``WalkService.session(...)`` +
           ``submit``/``collect`` instead.
        """
        warnings.warn(f"FlexiWalker.run {_DEPRECATION_HINT}", DeprecationWarning, stacklevel=2)
        length = self.spec.walk_length(walk_length)
        queries = make_queries(
            self.graph.num_nodes,
            walk_length=length,
            num_queries=num_queries,
            start_nodes=start_nodes,
            seed=self.config.seed,
        )
        return self._run_legacy(queries)

    def run_queries(self, queries: list[WalkQuery]) -> WalkRunResult:
        """Execute an explicit batch of walk queries.

        .. deprecated:: use ``WalkService.session(...)`` +
           ``submit``/``collect`` instead.
        """
        warnings.warn(
            f"FlexiWalker.run_queries {_DEPRECATION_HINT}", DeprecationWarning, stacklevel=2
        )
        return self._run_legacy(queries)

    def _run_legacy(self, queries: list[WalkQuery]) -> WalkRunResult:
        """One-shot execution through a fresh session on the shared service.

        The facade's own engine (and with it its selector) is threaded into
        every session, so the pre-service facade semantics hold exactly:
        engine knobs mutated in place (``step_overhead``,
        ``use_transition_cache``, ``scheduling``) affect subsequent runs,
        and stateful selection policies (``random``) keep advancing one
        shared generator across repeated ``run()`` calls instead of
        replaying the same coin flips.
        """
        if not queries:
            raise ReproError("no walk queries to execute")
        session = self.service.session(self.spec, self.config, engine=self.engine)
        session.submit(queries)
        return session.collect()

    # ------------------------------------------------------------------ #
    def describe(self) -> dict[str, object]:
        """Summary of the compiled/pipelined state (used by examples/docs)."""
        return {
            "workload": self.spec.describe(),
            "granularity": self.compiled.granularity.name,
            "compiler_supported": self.compiled.supported,
            "compiler_warnings": list(self.compiled.analysis.warnings),
            "edge_cost_ratio": self.cost_model.edge_cost_ratio,
            "selector": self.selector.name,
            "device": self.config.device.name,
            "execution": self.engine.execution,
            "num_devices": self.config.num_devices,
            "partition_policy": self.config.partition_policy,
        }
