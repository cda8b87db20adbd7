"""Flexi-Runtime: per-step sampling-strategy selection and walk execution.

The runtime layer is the paper's second contribution (Section 4.1): because
neither eRJS nor eRVS wins everywhere — the winner depends on the node's
degree and the skew of its transition weights, which change *during* a walk —
FlexiWalker chooses the kernel per node, per step, using a lightweight
first-order cost model whose single hardware parameter (the random-to-
coalesced edge-access cost ratio) is profiled at start-up.

This package contains the cost model (Eq. 9–11), the profiling kernels
(Section 5.1), the selection strategies compared in Fig. 13, the dynamic
query queue (Section 5.3) and the walk engine that ties the kernels, the
compiler output and the GPU simulator together.
"""

from repro.runtime.cost_model import CostModel
from repro.runtime.profiler import ProfileResult, profile_edge_costs
from repro.runtime.selector import (
    SamplerSelector,
    CostModelSelector,
    DegreeThresholdRule,
    FixedSelector,
    RandomSelector,
    DegreeBasedSelector,
)
from repro.runtime.scheduler import DynamicQueryQueue
from repro.runtime.engine import (
    GRAPH_PLACEMENTS,
    EngineCaches,
    WalkEngine,
    WalkRunResult,
)
from repro.runtime.faults import (
    DEFAULT_CHECKPOINT_INTERVAL,
    DeviceFailure,
    FaultPlan,
    InterconnectDrop,
    TransientFault,
)
from repro.runtime.frontier import SuperstepReport
from repro.walks.paths import PathTable

__all__ = [
    "DEFAULT_CHECKPOINT_INTERVAL",
    "DeviceFailure",
    "EngineCaches",
    "FaultPlan",
    "GRAPH_PLACEMENTS",
    "InterconnectDrop",
    "PathTable",
    "SuperstepReport",
    "TransientFault",
    "CostModel",
    "ProfileResult",
    "profile_edge_costs",
    "SamplerSelector",
    "CostModelSelector",
    "DegreeThresholdRule",
    "FixedSelector",
    "RandomSelector",
    "DegreeBasedSelector",
    "DynamicQueryQueue",
    "WalkEngine",
    "WalkRunResult",
]
