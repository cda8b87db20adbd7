"""Benchmark: Fig. 11 — ablation of the runtime selection component."""

from __future__ import annotations

from bench_helpers import run_once

from repro.bench.config import ExperimentConfig
from repro.bench.experiments import fig11_runtime_ablation as experiment


def test_fig11_runtime_ablation(benchmark):
    config = ExperimentConfig(num_queries=64, walk_length=8, datasets=("YT", "EU"))
    result = run_once(benchmark, experiment, config)
    for row in result["rows"]:
        adaptive = float(row["FlexiWalker"])
        ervs_only = float(row["eRVS-only"])
        erjs_only = float(row["eRJS-only"])
        # The adaptive runtime never tracks the *worse* fixed kernel, and
        # stays close to the better one (paper: it tracks the better of the
        # two everywhere, occasionally losing slightly on extreme skews).
        assert adaptive <= max(ervs_only, erjs_only) * 1.05
        assert row["adaptive_vs_best_fixed"] <= 1.25
    # Under the most skewed weights, the eRJS-only configuration collapses
    # relative to eRVS-only (the failure mode adaptation protects against).
    skewed = [r for r in result["rows"] if r["weights"] == "alpha=1"]
    assert all(float(r["eRJS-only"]) > float(r["eRVS-only"]) for r in skewed)
