"""Self-test of the benchmark on shrunken inputs (about a minute).

Run from the repository root::

    python3 perfbench/selftest.py

Checks that, for every workload,

* a traced and an untraced run give identical path digests and exact
  counts (``run`` counts any mismatch as a failure),
* every wrapped attribute is restored afterwards,
* ``sim_ms`` and the exact per-layer counts repeat bit-for-bit for a seed,
* each mode reports exactly the metrics ``BENCHMARK.json`` declares,

and that the output check rejects a path with a hop that is not an edge.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

EXACT = (
    "rng.reserved_per_draw", "sampling.eRJS.share", "sampling.eRJS.trials_per_step",
    "graph.has_edges.queries_per_step", "gpusim.rng_draws_per_step",
    "gpusim.rejection_trials_per_step", "gpusim.random_accesses_per_step",
    "scheduler.fusion_groups",
)


def shrink() -> None:
    workloads.SETUP_MIN_REPEATS = 1
    workloads.SETUP_SECONDS = 0.0
    workloads.BATCH = {
        "deepwalk-ba": dataclasses.replace(workloads.BATCH["deepwalk-ba"],
                                           size=3000, walkers=1500, warmup_walkers=100),
        "node2vec-rmat": dataclasses.replace(workloads.BATCH["node2vec-rmat"],
                                             size=11, walkers=1500, warmup_walkers=100),
    }
    workloads.SERVE_NODES = 2000


def check_restored() -> None:
    for _layer, target, _work in spans.TARGETS:
        owner, attr = spans._resolve(target)
        assert not hasattr(vars(owner)[attr], "__wrapped__"), f"{target} still wrapped"


def check_output_checker() -> None:
    edges = np.array([[0, 1], [1, 2], [2, 0]])
    ref = inputs.EdgeReference(inputs.edge_keys(edges, 4), 4)
    starts = np.array([0, 3])
    assert ref.bad_paths([[0, 1, 2], [3]], starts, 2) == 0
    assert ref.bad_paths([[0, 2, 0], [3]], starts, 2) == 1, "non-edge hop accepted"
    assert ref.bad_paths([[0, 1], [3]], starts, 2) == 1, "early stop accepted"
    assert ref.bad_paths([[0, 1, 2]], starts, 2) == 2, "missing path accepted"


def main() -> int:
    shrink()
    check_output_checker()
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {key: {m["name"] for m in declared[key]} for key in ("end_to_end", "per_layer")}
    for name in workloads.WORKLOADS:
        seconds = 3.0 if name == "serve-churn" else 0.0
        first = workloads.run(name, 7, seconds, trace=True)
        check_restored()
        again = workloads.run(name, 7, seconds, trace=True)
        plain = [workloads.run(name, 7, seconds, trace=False) for _ in range(2)]
        for attempted, failed, _ in (first, again, *plain):
            assert attempted > 0 and failed == 0, f"{name}: {failed} of {attempted} failed"
        for key in EXACT:
            assert first[2][key] == again[2][key], f"{name}: {key} differs between runs"
        assert plain[0][2]["sim_ms"] == plain[1][2]["sim_ms"], f"{name}: sim_ms differs"
        assert set(plain[0][2]) == names["end_to_end"], f"{name}: end-to-end names differ"
        assert set(first[2]) == names["per_layer"], f"{name}: per-layer names differ"
        print(f"{name}: ok ({first[0]} traced-run operations, "
              f"overhead {first[2]['trace.overhead']:.3f})")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
