#!/usr/bin/env python
"""Lint src/repro against the repository's internal invariants.

Thin CLI over ``repro.analysis.lint_paths``, which enforces the contracts
the test suite cannot express file-by-file:

- no unseeded RNG construction or module-level random streams inside
  ``src/repro`` (determinism is load-bearing for replay and caching);
- no code outside ``graph/invalidation.py`` touches the derived-cache
  internals (``_edge_key_cache``/``_in_degree_cache``/``TransitionCache``
  private buffers) except their owning modules;
- no wall-clock calls outside bench/ and scripts/ (simulated time only);
- no process-environment access (``os.environ``/``getenv``/``putenv``):
  every behaviour is chosen by an explicit config field or argument.

Exit code is non-zero iff any ERROR diagnostic is found, and every finding
prints its rule id, so the CI lint job pinpoints the violated invariant.

Usage::

    PYTHONPATH=src python scripts/lint_internal.py            # lint src/repro
    PYTHONPATH=src python scripts/lint_internal.py src tests  # explicit paths
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import Severity, lint_paths  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths",
        nargs="*",
        default=[str(REPO_ROOT / "src" / "repro")],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--warnings-as-errors",
        action="store_true",
        help="fail on WARNING diagnostics too",
    )
    args = parser.parse_args()

    diagnostics = lint_paths([Path(p) for p in args.paths])
    for diag in diagnostics:
        print(diag.format())

    threshold = Severity.WARNING if args.warnings_as_errors else Severity.ERROR
    failing = [d for d in diagnostics if d.severity >= threshold]
    if failing:
        rules = ", ".join(sorted({d.rule for d in failing}))
        print(f"internal lint FAILED: {len(failing)} finding(s) [{rules}]")
        return 1
    scope = ", ".join(args.paths)
    print(f"internal lint OK: no invariant violations in {scope}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
