"""Design-choice ablation — dynamic query scheduling (Section 5.3).

FlexiWalker pulls walk queries from a global atomic-counter queue so that a
processing unit grabs new work the moment it finishes, instead of being
assigned a fixed contiguous range up front.  This experiment quantifies that
design choice on the reproduction's simulator: the same per-query work is
replayed under both policies and the makespan, utilisation and load imbalance
are compared.  (The paper describes the mechanism but does not plot it
separately.)
"""

from __future__ import annotations

import dataclasses

from repro.bench.config import ExperimentConfig
from repro.bench.runner import prepare_graph, prepare_queries, run_flexiwalker, scaled_device_for
from repro.bench.tables import format_table
from repro.gpusim.executor import KernelExecutor

WORKLOAD = "node2vec"


def run_experiment(config: ExperimentConfig | None = None) -> dict:
    """Replay FlexiWalker's per-query work under dynamic vs static scheduling."""
    config = config or ExperimentConfig.quick()
    rows: list[dict] = []

    for dataset in config.datasets:
        graph = prepare_graph(dataset, WORKLOAD, weights="uniform")
        queries = prepare_queries(graph, WORKLOAD, config)
        run = run_flexiwalker(dataset, WORKLOAD, config, graph=graph, queries=queries, check_memory=False)
        per_query_ns = run.result.per_query_ns
        device = scaled_device_for("gpu", len(queries), config.waves)
        executor = KernelExecutor(device)
        # The atomic queue fetches are already part of the per-query times, so
        # the replay isolates purely the assignment policy.
        dynamic = executor.execute(per_query_ns, scheduling="dynamic", queue_atomic_ns=0.0)
        static = executor.execute(per_query_ns, scheduling="static")
        rows.append(
            {
                "dataset": dataset,
                "dynamic_ms": dynamic.time_ms,
                "static_ms": static.time_ms,
                "speedup": static.time_ns / dynamic.time_ns if dynamic.time_ns else float("nan"),
                "dynamic_imbalance": dynamic.load_imbalance,
                "static_imbalance": static.load_imbalance,
            }
        )

    return {
        "rows": rows,
        "config": config,
        "paper_reference": "Section 5.3 design choice: dynamic query scheduling vs static ranges",
    }


def format_result(result: dict) -> str:
    headers = ["dataset", "dynamic_ms", "static_ms", "speedup", "dynamic_imbalance", "static_imbalance"]
    return format_table(
        headers,
        [[row[h] for h in headers] for row in result["rows"]],
        title="Scheduling ablation — dynamic queue vs static ranges",
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(format_result(run_experiment()))


if __name__ == "__main__":  # pragma: no cover
    main()
