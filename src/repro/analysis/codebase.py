"""Internal invariant linter: repo rules the generic linters can't express.

Run over ``src/repro`` by ``scripts/lint_internal.py`` in the CI lint job.
Four invariants, each an ERROR:

``internal/unseeded-rng``
    No unseeded RNG construction and no module-level ``random`` /
    ``np.random`` stream calls anywhere in the library.  Every random draw
    must flow from an explicit seed (the counter-based streams in
    :mod:`repro.rng.streams`), or fault-recovery replay and scheduler-fusion
    parity silently break.
``internal/wall-clock``
    No wall-clock/monotonic reads (``time.*``, ``datetime.now``,
    ``os.urandom``, uuid1/uuid4) outside bench/ or scripts/ paths.  The
    simulator's timing model is counter-driven; host time may only be read
    at the measurement boundaries, which carry explicit
    ``# repro: ignore[internal/wall-clock]`` suppressions.
``internal/cache-contract``
    ``CSRGraph._edge_key_cache`` / ``_edge_filter_cache`` /
    ``_in_degree_cache`` may be touched only
    by ``graph/csr.py`` and ``graph/invalidation.py``, and
    ``TransitionCache`` private state only by
    ``sampling/transition_cache.py`` and ``graph/invalidation.py`` — the
    two modules that uphold the versioned invalidation contracts from the
    delta-graph subsystem.  Any other access path can serve stale topology
    after ``apply_delta``.
``internal/env-read``
    No ``os.environ``, ``os.getenv`` or ``os.putenv`` anywhere in the
    library.  Every behaviour is chosen by an explicit config field or
    argument; an environment variable would be a hidden knob that neither
    ``describe()``, the plan keys nor a replay can see.

Suppression uses the same ``# repro: ignore[rule-id]`` trailing comment as
the spec verifier.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.determinism import (
    _DATETIME_FNS,
    _GLOBAL_STREAM_FNS,
    _RNG_FACTORIES,
    _TIME_FNS,
    _dotted_path,
)
from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    SourceSpan,
    _DiagnosticCollector,
    filter_suppressed,
)

#: CSRGraph topology-cache slots with an invalidation contract.
_GRAPH_CACHE_ATTRS = frozenset({"_edge_key_cache", "_edge_filter_cache", "_in_degree_cache"})
_GRAPH_CACHE_ALLOWED = ("graph/csr.py", "graph/invalidation.py")

#: TransitionCache private state (weights/CDF/alias tables + fill masks).
_TC_PRIVATE_ATTRS = frozenset(
    {
        "_weights",
        "_row_max",
        "_have_weights",
        "_weights_complete",
        "_cdf",
        "_totals",
        "_have_cdf",
        "_alias_prob",
        "_alias_idx",
        "_have_alias",
    }
)
_TC_ALLOWED = ("sampling/transition_cache.py", "graph/invalidation.py")

#: Path components exempt from the wall-clock rule.
_WALL_CLOCK_EXEMPT_PARTS = frozenset({"bench", "benchmarks", "scripts"})

#: ``os`` members that read or write the process environment.
_ENV_NAMES = frozenset({"environ", "getenv", "putenv"})


def _span(file: str, node: ast.AST) -> SourceSpan:
    return SourceSpan(
        file=file,
        line=getattr(node, "lineno", 1),
        end_line=getattr(node, "end_lineno", None) or getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        end_col=getattr(node, "end_col_offset", 0) or 0,
    )


def _path_matches(posix_path: str, allowed: tuple[str, ...]) -> bool:
    return any(posix_path.endswith(suffix) for suffix in allowed)


def _check_internal_call(
    node: ast.Call, file: str, wall_clock_exempt: bool, out: _DiagnosticCollector
) -> None:
    path = _dotted_path(node.func)
    if not path:
        return
    fn = path[-1]
    dotted = ".".join(path)
    if fn in _RNG_FACTORIES and not node.args and not node.keywords:
        out.add(
            "internal/unseeded-rng",
            Severity.ERROR,
            f"unseeded RNG construction {dotted}() in library code",
            span=_span(file, node),
            fix_hint="thread an explicit seed (see repro.rng.streams)",
        )
        return
    if len(path) >= 2 and path[-2] == "random" and fn in _GLOBAL_STREAM_FNS:
        out.add(
            "internal/unseeded-rng",
            Severity.ERROR,
            f"module-level RNG stream call {dotted}() in library code",
            span=_span(file, node),
            fix_hint="draw from an explicitly seeded generator instead",
        )
        return
    if wall_clock_exempt:
        return
    is_time = len(path) >= 2 and path[-2] == "time" and fn in _TIME_FNS
    is_datetime = fn in _DATETIME_FNS and len(path) >= 2 and path[-2] in ("datetime", "date")
    is_entropy = path[-2:] == ("os", "urandom") or fn in ("uuid1", "uuid4")
    if is_time or is_datetime or is_entropy:
        out.add(
            "internal/wall-clock",
            Severity.ERROR,
            f"wall-clock/entropy call {dotted}() outside bench/scripts",
            span=_span(file, node),
            fix_hint=(
                "keep timing counter-driven; measurement boundaries carry "
                "an explicit '# repro: ignore[internal/wall-clock]'"
            ),
        )


def _check_cache_contract(node: ast.Attribute, posix_path: str, out: _DiagnosticCollector) -> None:
    if node.attr in _GRAPH_CACHE_ATTRS and not _path_matches(posix_path, _GRAPH_CACHE_ALLOWED):
        out.add(
            "internal/cache-contract",
            Severity.ERROR,
            f"access to CSRGraph.{node.attr} outside the invalidation contract "
            f"(allowed: {', '.join(_GRAPH_CACHE_ALLOWED)})",
            span=_span(posix_path, node),
            fix_hint="go through the public accessors or repro.graph.invalidation",
        )
    elif node.attr in _TC_PRIVATE_ATTRS and not _path_matches(posix_path, _TC_ALLOWED):
        out.add(
            "internal/cache-contract",
            Severity.ERROR,
            f"access to TransitionCache private state .{node.attr} outside its "
            f"contract (allowed: {', '.join(_TC_ALLOWED)})",
            span=_span(posix_path, node),
            fix_hint="use TransitionCache's public fill/invalidate API",
        )


def _check_env_read(node: ast.Attribute | ast.ImportFrom, file: str,
                    out: _DiagnosticCollector) -> None:
    if isinstance(node, ast.ImportFrom):
        if node.module != "os":
            return
        names = sorted(_ENV_NAMES & {alias.name for alias in node.names})
    else:
        path = _dotted_path(node)
        names = [node.attr] if path[-2:-1] == ("os",) and node.attr in _ENV_NAMES else []
    for name in names:
        out.add(
            "internal/env-read",
            Severity.ERROR,
            f"process-environment access os.{name} in library code",
            span=_span(file, node),
            fix_hint="take the setting as an explicit config field or argument",
        )


def lint_source(source: str, file: str) -> tuple[Diagnostic, ...]:
    """Lint one file's source text; ``file`` is used for spans and contracts."""
    posix_path = file.replace("\\", "/")
    out = _DiagnosticCollector()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        out.add(
            "internal/syntax-error",
            Severity.ERROR,
            f"file does not parse: {exc.msg}",
            span=SourceSpan(file=posix_path, line=exc.lineno or 1, col=(exc.offset or 1) - 1),
        )
        return tuple(out.diagnostics)
    wall_clock_exempt = bool(_WALL_CLOCK_EXEMPT_PARTS & set(posix_path.split("/")))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            _check_internal_call(node, posix_path, wall_clock_exempt, out)
        elif isinstance(node, ast.Attribute):
            _check_cache_contract(node, posix_path, out)
            _check_env_read(node, posix_path, out)
        elif isinstance(node, ast.ImportFrom):
            _check_env_read(node, posix_path, out)
    lines = source.splitlines()

    def get_line(_file: str, lineno: int) -> str:
        if 1 <= lineno <= len(lines):
            return lines[lineno - 1]
        return ""

    return tuple(filter_suppressed(out.diagnostics, get_line))


def lint_file(path: str | Path) -> tuple[Diagnostic, ...]:
    """Lint one Python file on disk."""
    p = Path(path)
    try:
        source = p.read_text(encoding="utf-8")
    except OSError as exc:
        return (
            Diagnostic(
                rule="internal/unreadable-file",
                severity=Severity.ERROR,
                message=f"cannot read {p}: {exc}",
                span=SourceSpan(file=str(p), line=1),
            ),
        )
    return lint_source(source, str(p))


def lint_paths(paths: list[str | Path]) -> tuple[Diagnostic, ...]:
    """Lint every ``.py`` file under the given files/directories."""
    diagnostics: list[Diagnostic] = []
    for entry in paths:
        p = Path(entry)
        files = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for file in files:
            diagnostics.extend(lint_file(file))
    return tuple(diagnostics)
