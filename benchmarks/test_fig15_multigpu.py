"""Benchmark: Fig. 15 — multi-GPU scalability (real multi-device engine)."""

from __future__ import annotations

from bench_helpers import run_once

from repro.bench.config import ExperimentConfig
from repro.bench.experiments import fig15_multigpu as experiment


def test_fig15_multigpu(benchmark):
    # EU and AB are the skewed scale models (hubs at low node ids, the
    # paper's worst-case for range mapping); the full five-dataset sweep
    # lives in the tier-2 workflow.  fig15 always runs one query per node
    # (num_queries is documented as ignored), so only walk_length and the
    # dataset choice bound this benchmark's cost.
    config = ExperimentConfig(num_queries=96, walk_length=8, datasets=("EU", "AB"))
    result = run_once(benchmark, experiment, config)
    for row in result["rows"]:
        # Speedup grows with the GPU count and reaches a clear multi-GPU gain
        # at four devices (paper geomean: 3.23x).
        assert row["hash_x1"] == 1.0
        assert row["hash_x4"] >= row["hash_x2"] >= 0.95
        assert row["hash_x4"] > 1.8
        # The paper's Fig. 15 finding: on skewed starts hash mapping beats
        # contiguous range mapping, which piles the hub walks onto device 0.
        # Its premise is a per-walk cost that grows with the hubs' degrees,
        # which is eRVS's cost; the adaptive runtime moves hub steps to eRJS
        # and flattens it (see the experiment's docstring), so the mapping
        # comparison is asserted on the eRVS-only run.
        assert row["ervs_hash_x4"] >= row["ervs_range_x4"]
        # The degree-aware LPT extension also reaches a clear multi-GPU gain.
        assert row["balanced_x4"] > 1.8
