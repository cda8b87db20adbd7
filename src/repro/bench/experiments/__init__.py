"""Experiment modules, one per table/figure of the paper's evaluation.

Each module exposes

* ``run_experiment(config=None) -> dict`` — executes the experiment and
  returns structured results (rows, headers, summary statistics);
* ``format_result(result) -> str`` — renders the result as the paper-style
  table; and
* ``main()`` — runs and prints it, so every experiment is directly runnable
  with ``python -m repro.bench.experiments.<name>``.

The mapping between modules and paper items is recorded in EXPERIMENTS.md.
"""

EXPERIMENT_MODULES = (
    "fig03_sampling_comparison",
    "fig07_sensitivity",
    "table2_uniform",
    "fig10_powerlaw",
    "fig11_runtime_ablation",
    "fig12_kernel_ablation",
    "fig13_selection",
    "fig14_ratio",
    "table3_overheads",
    "fig15_multigpu",
    "fig15_sharded",
    "fig16_energy",
    "int8_extension",
    "scheduling_ablation",
)

__all__ = ["EXPERIMENT_MODULES"]
