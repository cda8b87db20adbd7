"""Fig. 11 — ablation of the runtime selection component.

Weighted Node2Vec on YT / EU / SK with uniform weights and the Pareto sweep,
comparing FlowWalker (reference), FlexiWalker restricted to a single kernel
(eRVS-only / eRJS-only) and full FlexiWalker with cost-model selection.

Expected shape (paper): eRVS-only is stable but leaves performance on the
table for well-behaved distributions; eRJS-only collapses on skewed weights;
the adaptive runtime tracks the better of the two everywhere (up to 3.37x /
421x over the fixed versions), occasionally losing slightly to the best fixed
kernel on extreme skews.
"""

from __future__ import annotations

from repro.bench.config import ExperimentConfig
from repro.bench.runner import prepare_graph, prepare_queries, run_baseline, run_flexiwalker
from repro.bench.tables import format_table

ALPHAS = (1.0, 2.0, 3.0, 4.0)
DATASETS = ("YT", "EU", "SK")
WORKLOAD = "node2vec"


def _weight_settings() -> list[tuple[str, str, float]]:
    return [("uniform", "uniform", 2.0)] + [(f"alpha={a:g}", "powerlaw", a) for a in ALPHAS]


def run_experiment(config: ExperimentConfig | None = None) -> dict:
    """Execute the runtime-component ablation."""
    config = config or ExperimentConfig.quick()
    datasets = [d for d in DATASETS if d in config.datasets] or list(DATASETS[:2])
    rows: list[dict] = []

    for dataset in datasets:
        for label, scheme, alpha in _weight_settings():
            graph = prepare_graph(dataset, WORKLOAD, weights=scheme, alpha=alpha)
            queries = prepare_queries(graph, WORKLOAD, config)
            common = dict(graph=graph, queries=queries, weights=scheme, alpha=alpha, check_memory=False)
            flow = run_baseline("FlowWalker", dataset, WORKLOAD, config, graph=graph, queries=queries,
                                weights=scheme, alpha=alpha, check_memory=False)
            ervs = run_flexiwalker(dataset, WORKLOAD, config, selection="ervs_only", **common)
            erjs = run_flexiwalker(dataset, WORKLOAD, config, selection="erjs_only", **common)
            adaptive = run_flexiwalker(dataset, WORKLOAD, config, selection="cost_model", **common)
            fixed_ok = adaptive.ok and ervs.ok and erjs.ok
            rows.append(
                {
                    "dataset": dataset,
                    "weights": label,
                    "FlowWalker": flow.cell(),
                    "eRVS-only": ervs.cell(),
                    "eRJS-only": erjs.cell(),
                    "FlexiWalker": adaptive.cell(),
                    "adaptive_vs_best_fixed": (
                        adaptive.time_ms / min(ervs.time_ms, erjs.time_ms)
                        if fixed_ok
                        else float("nan")
                    ),
                    "adaptive_vs_worst_fixed": (
                        max(ervs.time_ms, erjs.time_ms) / adaptive.time_ms
                        if fixed_ok
                        else float("nan")
                    ),
                }
            )

    return {
        "rows": rows,
        "config": config,
        "paper_reference": "Figure 11: runtime component ablation (FlowWalker / eRVS-only / eRJS-only / FlexiWalker)",
    }


def format_result(result: dict) -> str:
    headers = [
        "dataset", "weights", "FlowWalker", "eRVS-only", "eRJS-only", "FlexiWalker",
        "adaptive_vs_best_fixed", "adaptive_vs_worst_fixed",
    ]
    rows = [[row[h] for h in headers] for row in result["rows"]]
    return format_table(headers, rows, title="Fig. 11 — runtime-component ablation (ms, simulated)")


def main() -> None:  # pragma: no cover - CLI convenience
    print(format_result(run_experiment()))


if __name__ == "__main__":  # pragma: no cover
    main()
