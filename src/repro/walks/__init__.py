"""Walk workloads: the user-facing gather-move-update programming model.

A *walk specification* supplies only the workload-specific logic of the paper's
programming model (Section 4.2): ``init`` for hyperparameters, ``get_weight``
for the per-edge transition weight and ``update`` for post-step bookkeeping.
Everything else — sampling strategy, kernel selection, scheduling — is the
framework's job.

This package ships the paper's five evaluated workloads: weighted/unweighted
Node2Vec, weighted/unweighted MetaPath and second-order PageRank, plus
DeepWalk as a static-walk reference.
"""

from repro.walks.state import QueryBatch, WalkerFrontier, WalkerState, WalkQuery, make_queries
from repro.walks.spec import WalkSpec, UniformWalkSpec
from repro.walks.node2vec import Node2VecSpec, UnweightedNode2VecSpec
from repro.walks.metapath import MetaPathSpec
from repro.walks.second_order_pr import SecondOrderPRSpec
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.registry import WORKLOADS, make_workload, workload_names

__all__ = [
    "WalkerState",
    "WalkerFrontier",
    "WalkQuery",
    "QueryBatch",
    "make_queries",
    "WalkSpec",
    "UniformWalkSpec",
    "Node2VecSpec",
    "UnweightedNode2VecSpec",
    "MetaPathSpec",
    "SecondOrderPRSpec",
    "DeepWalkSpec",
    "WORKLOADS",
    "make_workload",
    "workload_names",
]
