"""Benchmark entry point: one workload, one seed, one JSON line of results.

Run from the repository root::

    python3 perfbench/run.py --workload deepwalk-ba --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with no
instrumentation.  ``--trace 1`` is the separate traced run: it wraps the
public functions of each layer (see ``spans.py``), reports the per-layer
metrics and writes a Chrome trace-event file under ``perfbench/out/``.
Either way every timed walk is checked against the benchmark's own copy of
the graph, and the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One single-threaded process: the benchmark's clock is the process's CPU
# time, which must not include helper threads of a numeric library.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads  # needs the program on sys.path first

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    attempted, failed, values = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: workload produced no value for {missing}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
