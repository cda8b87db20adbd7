"""Benchmark: Fig. 13 — sensitivity to the sampling-strategy selection policy."""

from __future__ import annotations

from bench_helpers import run_once

from repro.bench.experiments import fig13_selection as experiment


def test_fig13_selection(benchmark, quick_config):
    result = run_once(benchmark, experiment, quick_config)
    summary = result["summary"]
    # The cost model beats both the degree-threshold policy and random
    # selection (paper: 15.86x over random, 2.66x over degree-based; the
    # scale-model graphs cap the damage a wrong per-step choice can do,
    # which compresses both margins — see EXPERIMENTS.md).
    assert summary["geomean_speedup_vs_degree"] >= 1.0
    assert summary["geomean_speedup_vs_random"] > 1.0
