"""Fig. 15 — multi-GPU scalability.

The paper replicates the graph on 1–4 A6000s and partitions the walk queries
across them with hash-based start-node mapping (range-based mapping scaled
worse).  This experiment runs the *real* multi-device engine: for every
device count and partitioning policy the query batch is partitioned and each
partition executes the full step-synchronous frontier loop on its own
simulated device (placement never changes the walks — walker randomness is
counter-based per query id — so the sweep measures exactly what the paper
measures: the makespan consequences of query placement).

Expected shape (paper): near-linear scaling (geomean 3.23x on 4 GPUs), with
hash mapping ahead of range mapping — the scale models give low node ids the
highest degrees, so contiguous ranges over the sorted start nodes concentrate
the expensive hub walks on device 0 — and the gap to ideal explained by load
imbalance (worst on AB).  The degree-aware ``balanced`` policy is this
reproduction's extension: greedy longest-processing-time packing by start
degree.
"""

from __future__ import annotations

from repro.bench.config import ExperimentConfig
from repro.bench.runner import prepare_graph, scaled_device_for
from repro.bench.tables import format_table
from repro.core.config import FlexiWalkerConfig
from repro.service import DeviceFleet, WalkService
from repro.walks.registry import make_workload
from repro.walks.state import make_queries

WORKLOAD = "node2vec"
DATASETS = ("FS", "EU", "AB", "TW", "SK")
GPU_COUNTS = (1, 2, 3, 4)
POLICIES = ("hash", "range", "balanced")


def run_experiment(config: ExperimentConfig | None = None) -> dict:
    """Measure simulated multi-GPU speedups for every partitioning policy.

    Unlike the other experiments this one deliberately ignores
    ``config.num_queries`` and always runs the paper's one-query-per-node
    batches: Fig. 15's hash-vs-range story depends on the correlation
    between node id and degree across the *full* id space, which a sparse
    subsample washes out.  Use ``config.walk_length`` and
    ``config.datasets`` to bound the cost of a run.
    """
    config = config or ExperimentConfig.quick()
    datasets = [d for d in DATASETS if d in config.datasets] or list(DATASETS[:2])
    rows: list[dict] = []

    for dataset in datasets:
        graph = prepare_graph(dataset, WORKLOAD, weights="uniform")
        # One query per node, the paper's Fig. 15 setting.  The skew story
        # needs it: scale-model hubs have low node ids, so contiguous ranges
        # over the full id space concentrate expensive walks on device 0 —
        # a sparse subsample would wash that correlation out.
        queries = make_queries(graph.num_nodes, walk_length=config.walk_length)
        device = scaled_device_for("gpu", len(queries), config.waves)
        # The fleet declares the sweep's maximum device count; each cell
        # below re-targets the session's engine at a specific count/policy
        # without recompiling anything.
        service = WalkService(graph, fleet=DeviceFleet(device, max(GPU_COUNTS)))
        session = service.session(
            make_workload(WORKLOAD), FlexiWalkerConfig(device=device, seed=config.seed)
        )
        session.submit(queries)
        single = session.collect()

        row: dict[str, object] = {"dataset": dataset}
        for policy in POLICIES:
            # One device is one partition whatever the policy, so the x1
            # cell is the single run itself — no need to re-walk.
            row[f"{policy}_x1"] = 1.0
        for gpus in [g for g in GPU_COUNTS if g > 1]:
            for policy in POLICIES:
                engine = session.engine.with_devices(gpus, partition_policy=policy)
                result = engine.run(queries)
                row[f"{policy}_x{gpus}"] = single.kernel.time_ns / result.kernel.time_ns
                if gpus == max(GPU_COUNTS):
                    row[f"imbalance_{policy}_x{gpus}"] = result.load_imbalance
        rows.append(row)

    return {
        "rows": rows,
        "config": config,
        "paper_reference": "Figure 15: multi-GPU scalability (paper geomean 3.23x at 4 GPUs, hash mapping)",
    }


def format_result(result: dict) -> str:
    top = max(GPU_COUNTS)
    headers = (
        ["dataset"]
        + [f"{policy}_x{g}" for policy in POLICIES for g in GPU_COUNTS]
        + [f"imbalance_{policy}_x{top}" for policy in POLICIES]
    )
    return format_table(
        headers,
        [[row[h] for h in headers] for row in result["rows"]],
        title="Fig. 15 — multi-GPU speedup over a single GPU (real engine per device)",
        float_format="{:.2f}",
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(format_result(run_experiment()))


if __name__ == "__main__":  # pragma: no cover
    main()
