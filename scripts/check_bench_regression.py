#!/usr/bin/env python
"""CI perf-regression gate for the walk-engine microbenchmark.

Compares a freshly measured ``bench_engine.py`` report against the committed
``BENCH_engine.json`` baseline and fails (exit code 1) when any workload
entry's batched-over-scalar speedup dropped by more than the allowed fraction
— the backstop that keeps the vectorised hot path from silently regressing
toward the interpreter.  Also re-checks every entry's simulated-time parity
flag: a speedup obtained by breaking simulation equivalence is not a speedup.

Entries that report a walked ``remote_edge_ratio`` (the sharded placement)
are additionally gated on locality: the ratio may not regress more than an
absolute margin above the committed baseline, so a partitioner or
ghost-cache change that silently makes walkers migrate more gets caught
even when wall-clock numbers still look fine.

Entries that report a ``p99_latency_ticks`` (the continuous-batching serving
entry) are additionally gated on tail latency: the p99 ticket latency at the
top load scale may not rise more than the allowed fraction above the
committed baseline.  The metric is counted in scheduler supersteps — a
simulation-clock number, deterministic for a given seed and load shape — so
a rise means an admission-policy or fusion change actually delayed walks,
not that the host was busy.

Entries that report a ``recovery_overhead`` (the fault-tolerance entry) are
gated on an *absolute* ceiling: the modeled checkpoint overhead at the
runtime's default interval may not exceed ``--max-recovery-overhead``
(default 10%).  The number is pure simulation — deterministic for a given
workload — so exceeding the ceiling always means the checkpoint cost model
or the checkpoint cadence actually changed, never host noise.

Entries that report a ``delta_slowdown`` (the dynamic-graph entry) are gated
on an *absolute* ceiling: walk throughput at the top streaming-update rate
may not fall below ``1/--max-delta-slowdown`` of the static-rate throughput.
The ratio is measured host wall clock, but both sides of it come from the
same interleaved sweep, so exceeding the ceiling means the per-update work —
overlay maintenance, CSR cache repair, recompilation, scoped cache
migration — actually grew, not that the host got slower overall.

Both reports use the multi-entry schema (``schema_version >= 2``): one entry
per workload under ``"entries"``.

Usage::

    python scripts/bench_engine.py --output BENCH_engine.new.json
    python scripts/check_bench_regression.py \
        --baseline BENCH_engine.json --current BENCH_engine.new.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_entries(path: Path) -> dict[str, dict]:
    """Workload-keyed entries of a report."""
    entries = json.loads(path.read_text()).get("entries")
    if not isinstance(entries, dict) or not entries:
        raise SystemExit(f"{path}: no workload entries (expected a non-empty 'entries' dict)")
    return entries


def entry_speedup(path: Path, name: str, entry: dict) -> float:
    speedup = entry.get("speedup")
    if not isinstance(speedup, (int, float)) or speedup <= 0:
        raise SystemExit(f"{path}: entry {name!r} has no positive 'speedup' (got {speedup!r})")
    return float(speedup)


def entry_extras(entry: dict) -> str:
    """Informational per-entry extras (the sharded entry reports its walked
    remote-edge ratio, the serving entry its p99 ticket latency, alongside
    the gated speedup)."""
    ratio = entry.get("remote_edge_ratio")
    if isinstance(ratio, (int, float)):
        return f", remote-edge ratio {ratio:.3f}"
    p99 = entry.get("p99_latency_ticks")
    if isinstance(p99, (int, float)):
        return f", p99 latency {p99:.0f} ticks"
    overhead = entry.get("recovery_overhead")
    if isinstance(overhead, (int, float)):
        return f", checkpoint overhead {overhead:+.1%}"
    slowdown = entry.get("delta_slowdown")
    if isinstance(slowdown, (int, float)):
        return f", update slowdown {slowdown:.2f}x"
    return ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path, default=Path("BENCH_engine.json"),
                        help="committed baseline report")
    parser.add_argument("--current", type=Path, required=True,
                        help="freshly measured report to gate")
    parser.add_argument("--max-drop", type=float, default=0.30,
                        help="allowed fractional speedup drop per entry (default: 0.30)")
    parser.add_argument("--max-remote-ratio-rise", type=float, default=0.05,
                        help="allowed absolute walked remote-edge-ratio rise above "
                             "the baseline for sharded entries (default: 0.05)")
    parser.add_argument("--max-p99-rise", type=float, default=0.25,
                        help="allowed fractional p99 ticket-latency rise above the "
                             "baseline for serving entries (default: 0.25)")
    parser.add_argument("--max-recovery-overhead", type=float, default=0.10,
                        help="absolute ceiling on the modeled checkpoint overhead "
                             "at the default interval for recovery entries "
                             "(default: 0.10)")
    parser.add_argument("--max-delta-slowdown", type=float, default=2.5,
                        help="absolute ceiling on the top-update-rate walk "
                             "throughput slowdown for dynamic-graph entries "
                             "(default: 2.5)")
    args = parser.parse_args()
    if not 0 <= args.max_drop < 1:
        parser.error("--max-drop must be in [0, 1)")
    if args.max_remote_ratio_rise < 0:
        parser.error("--max-remote-ratio-rise must be non-negative")
    if args.max_p99_rise < 0:
        parser.error("--max-p99-rise must be non-negative")
    if args.max_recovery_overhead < 0:
        parser.error("--max-recovery-overhead must be non-negative")
    if args.max_delta_slowdown <= 0:
        parser.error("--max-delta-slowdown must be positive")

    baseline = load_entries(args.baseline)
    current = load_entries(args.current)

    failed = False

    def recovery_exceeded(name: str, entry: dict) -> bool:
        """Absolute checkpoint-overhead ceiling (baseline-independent)."""
        overhead = entry.get("recovery_overhead")
        if not isinstance(overhead, (int, float)):
            return False
        if overhead > args.max_recovery_overhead:
            print(f"FAIL [{name}]: modeled checkpoint overhead at the default "
                  f"interval is {overhead:.1%}, above the "
                  f"{args.max_recovery_overhead:.0%} ceiling")
            return True
        return False

    def delta_exceeded(name: str, entry: dict) -> bool:
        """Absolute streaming-update slowdown ceiling (baseline-independent)."""
        slowdown = entry.get("delta_slowdown")
        if not isinstance(slowdown, (int, float)):
            return False
        if slowdown > args.max_delta_slowdown:
            print(f"FAIL [{name}]: walk throughput at the top update rate is "
                  f"{slowdown:.2f}x slower than static, above the "
                  f"{args.max_delta_slowdown:.2f}x ceiling")
            return True
        return False
    for name, base_entry in sorted(baseline.items()):
        base = entry_speedup(args.baseline, name, base_entry)
        cur_entry = current.get(name)
        if cur_entry is None:
            print(f"FAIL [{name}]: entry present in the baseline but missing "
                  f"from the current report")
            failed = True
            continue
        if cur_entry.get("simulated_time_parity") is not True:
            print(f"FAIL [{name}]: current report lost scalar/batched "
                  f"simulated-time parity")
            failed = True
            continue
        cur = entry_speedup(args.current, name, cur_entry)
        floor = base * (1.0 - args.max_drop)
        verdict = "ok" if cur >= floor else "REGRESSION"
        print(f"[{name}] baseline {base:.2f}x, current {cur:.2f}x "
              f"(floor {floor:.2f}x){entry_extras(cur_entry)} -> {verdict}")
        if cur < floor:
            print(f"FAIL [{name}]: batched-engine speedup dropped more than "
                  f"{args.max_drop:.0%} below the committed baseline")
            failed = True
        base_ratio = base_entry.get("remote_edge_ratio")
        cur_ratio = cur_entry.get("remote_edge_ratio")
        if isinstance(base_ratio, (int, float)) and isinstance(cur_ratio, (int, float)):
            ceiling = base_ratio + args.max_remote_ratio_rise
            if cur_ratio > ceiling:
                print(f"FAIL [{name}]: walked remote-edge ratio rose to "
                      f"{cur_ratio:.3f}, above the baseline {base_ratio:.3f} "
                      f"+ {args.max_remote_ratio_rise:.2f} locality margin")
                failed = True
        base_p99 = base_entry.get("p99_latency_ticks")
        cur_p99 = cur_entry.get("p99_latency_ticks")
        if isinstance(base_p99, (int, float)) and isinstance(cur_p99, (int, float)):
            p99_ceiling = base_p99 * (1.0 + args.max_p99_rise)
            if cur_p99 > p99_ceiling:
                print(f"FAIL [{name}]: p99 ticket latency rose to "
                      f"{cur_p99:.0f} ticks, more than {args.max_p99_rise:.0%} "
                      f"above the baseline {base_p99:.0f} ticks")
                failed = True
        if recovery_exceeded(name, cur_entry):
            failed = True
        if delta_exceeded(name, cur_entry):
            failed = True
    # Entries the baseline does not know yet (a freshly added workload) have
    # no speedup floor, but the parity backstop still applies to them — a
    # simulation-equivalence break must never ride in on a new entry.
    for name, cur_entry in sorted(current.items()):
        if name in baseline:
            continue
        if cur_entry.get("simulated_time_parity") is not True:
            print(f"FAIL [{name}]: new entry lost scalar/batched simulated-time "
                  f"parity (no baseline yet, parity still required)")
            failed = True
        elif recovery_exceeded(name, cur_entry) or delta_exceeded(name, cur_entry):
            failed = True
        else:
            cur = entry_speedup(args.current, name, cur_entry)
            print(f"[{name}] no baseline entry yet, current {cur:.2f}x "
                  f"(parity ok){entry_extras(cur_entry)} -> ok; "
                  f"refresh the baseline to gate it")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
