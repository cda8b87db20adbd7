"""Golden regret table: how close the adaptive runtime tracks the better kernel.

Fig. 11 compares the cost-model runtime with eRVS-only and eRJS-only runs of
weighted Node2Vec; Fig. 13 compares cost-model selection with random and
degree-threshold selection.  The benchmark tests bound these ratios loosely;
this table pins them exactly on the quick configuration, so a change to the
profiler, the cost model or the selector that moves the runtime's choices
shows here as a diff of the table (re-pin it, and EXPERIMENTS.md, when the
move is meant).

``adaptive_vs_best_fixed`` is the adaptive time over the better fixed
kernel's (below 1.0 the per-node mix beats both); ``adaptive_vs_worst_fixed``
is the worse fixed kernel's time over the adaptive time.
"""

from __future__ import annotations

import math

from repro.bench.config import ExperimentConfig
from repro.bench.experiments import fig11_runtime_ablation, fig13_selection

QUICK = dict(num_queries=96, walk_length=10)

#: (dataset, weights) -> (adaptive_vs_best_fixed, adaptive_vs_worst_fixed)
FIG11 = {
    ("YT", "uniform"): (0.8690974311501966, 1.5686124136902626),
    ("YT", "alpha=1"): (1.0738857000902164, 3.4022288780123535),
    ("YT", "alpha=2"): (1.1560781379062037, 1.7544095345689192),
    ("YT", "alpha=3"): (0.9180099947720355, 1.6428733073871908),
    ("YT", "alpha=4"): (0.8847095583532807, 1.5310579852326125),
    ("EU", "uniform"): (1.120647542540777, 2.962983592662106),
    ("EU", "alpha=1"): (1.010058079609632, 6.833674665769507),
    ("EU", "alpha=2"): (1.1054881731947552, 1.1358451119181279),
    ("EU", "alpha=3"): (1.0058006328774853, 1.280077730200038),
    ("EU", "alpha=4"): (1.0404113683295295, 1.879230399594686),
}

FIG13 = {
    "geomean_speedup_vs_random": 1.5270632282709808,
    "geomean_speedup_vs_degree": 1.9206375343069524,
}


def test_fig11_regret_table():
    result = fig11_runtime_ablation.run_experiment(
        ExperimentConfig(datasets=("YT", "EU"), **QUICK)
    )
    table = {
        (row["dataset"], row["weights"]): (
            row["adaptive_vs_best_fixed"], row["adaptive_vs_worst_fixed"]
        )
        for row in result["rows"]
    }
    assert table == FIG11
    best = [ratio for ratio, _ in table.values()]
    assert max(best) <= 1.25
    assert math.exp(sum(map(math.log, best)) / len(best)) <= 1.10
    assert sum(ratio < 1.0 for ratio in best) >= 3


def test_fig13_selection_geomeans():
    result = fig13_selection.run_experiment(
        ExperimentConfig(datasets=("YT", "CP", "OK", "EU"), **QUICK)
    )
    summary = result["summary"]
    assert summary == FIG13
    assert summary["geomean_speedup_vs_random"] > 1.0
    assert summary["geomean_speedup_vs_degree"] >= 1.5
