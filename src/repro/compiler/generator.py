"""Code generator: builds the runtime helper functions from the analysis table.

Mirrors Fig. 9d of the paper.  Given the analysis result for a workload's
``get_weight``:

* ``preprocess``       — per-node MAX/SUM aggregates of every edge-indexed
  array the return values depend on (delegated to
  :mod:`repro.compiler.preprocess`);
* ``get_weight_max``   — estimates an upper bound on the maximum transition
  weight of the current node by replaying the kept assignment statements with
  edge-indexed variables bound to their per-node MAX aggregate and taking the
  max over every return expression;
* ``get_weight_sum``   — estimates the transition-weight sum by binding
  edge-indexed variables to their per-node SUM aggregate, averaging the
  return expressions (and multiplying by the degree in the PER_KERNEL case
  where no per-edge data is involved), following Eq. (12).

The helpers are ordinary Python callables built from compiled AST fragments
of the user's own code, which is the Python analogue of the C++ snippets the
CUDA implementation splices into its kernels.
"""

from __future__ import annotations

import ast
import warnings
from dataclasses import dataclass, field
from types import CodeType

from repro.errors import CompilerWarning
from repro.analysis.diagnostics import SpecReport
from repro.analysis.verify import verify_spec
from repro.compiler.analyzer import AnalysisResult, analyze_get_weight
from repro.compiler.flags import BoundGranularity
from repro.compiler.preprocess import PreprocessResult, preprocess_graph, preprocess_rows
from repro.graph.csr import CSRGraph
from repro.gpusim.device import DeviceSpec
from repro.walks.spec import WalkSpec
from repro.walks.state import WalkerState, WalkQuery

import numpy as np


def _compile_expr(expr: ast.expr) -> CodeType:
    """Compile one expression AST node into an evaluable code object."""
    wrapper = ast.Expression(body=expr)
    ast.fix_missing_locations(wrapper)
    return compile(wrapper, filename="<flexi-compiler>", mode="eval")


@dataclass
class GeneratedHelpers:
    """The compiled helper machinery for one workload.

    The raw compiled fragments are kept private; users interact through
    :meth:`estimate_max` and :meth:`estimate_sum`, which correspond to the
    generated ``get_weight_max()`` / ``get_weight_sum()`` functions.
    """

    spec: WalkSpec
    analysis: AnalysisResult
    _assignment_code: list[tuple[str, CodeType]] = field(default_factory=list)
    _return_code: list[CodeType] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._assignment_code = [
            (name, _compile_expr(expr)) for name, expr in self.analysis.assignments
        ]
        self._return_code = [_compile_expr(expr) for expr in self.analysis.return_expressions]
        self._globals = getattr(self.spec.get_weight, "__globals__", {})
        args = self.analysis.argument_names
        self._self_arg = args[0] if len(args) > 0 else "self"
        self._graph_arg = args[1] if len(args) > 1 else "graph"
        self._state_arg = args[2] if len(args) > 2 else "state"
        self._edge_arg = args[3] if len(args) > 3 else "edge"

    # ------------------------------------------------------------------ #
    def _evaluate_returns(
        self,
        graph: CSRGraph,
        state: WalkerState,
        substitutions: dict[str, float],
    ) -> list[float]:
        """Replay assignments and evaluate every reachable return expression.

        Assignments whose evaluation fails (e.g. they need the previous node
        before the first step) simply leave their variable unbound; any
        return expression that then fails to evaluate is skipped — exactly
        the graceful behaviour needed so the surviving branches still yield a
        valid estimate.
        """
        env: dict[str, object] = {
            self._self_arg: self.spec,
            self._graph_arg: graph,
            self._state_arg: state,
            self._edge_arg: None,
        }
        for name, code in self._assignment_code:
            if name in substitutions:
                env[name] = substitutions[name]
                continue
            try:
                env[name] = eval(code, self._globals, env)  # noqa: S307 - user walk code
            except Exception:
                env.pop(name, None)
        values: list[float] = []
        for code in self._return_code:
            try:
                values.append(float(eval(code, self._globals, env)))  # noqa: S307
            except Exception:
                continue
        return values

    def _substitutions(self, pre: PreprocessResult | None, node: int, kind: str) -> dict[str, float]:
        """Bind edge-indexed variables to the node's preprocessed aggregate."""
        if pre is None:
            return {}
        mapping: dict[str, float] = {}
        for var in self.analysis.edge_indexed:
            if pre.has_array(var.source_array):
                if kind == "max":
                    mapping[var.name] = pre.node_max(var.source_array, node)
                else:
                    mapping[var.name] = pre.node_sum(var.source_array, node)
        return mapping

    # ------------------------------------------------------------------ #
    def estimate_max(
        self,
        graph: CSRGraph,
        state: WalkerState,
        pre: PreprocessResult | None,
    ) -> float | None:
        """``get_weight_max()``: upper bound on the node's max transition weight."""
        subs = self._substitutions(pre, state.current_node, kind="max")
        values = self._evaluate_returns(graph, state, subs)
        if not values:
            return None
        return max(values)

    def estimate_sum(
        self,
        graph: CSRGraph,
        state: WalkerState,
        pre: PreprocessResult | None,
    ) -> float | None:
        """``get_weight_sum()``: estimate of the node's transition-weight sum."""
        subs = self._substitutions(pre, state.current_node, kind="sum")
        values = self._evaluate_returns(graph, state, subs)
        if not values:
            return None
        estimate = sum(values) / len(values)
        if self.analysis.granularity is BoundGranularity.PER_KERNEL:
            # No per-edge data was involved, so the averaged branch value is a
            # per-edge weight; emulate the sum by multiplying by the degree.
            estimate *= graph.degree(state.current_node)
        return estimate

    # ------------------------------------------------------------------ #
    # Vectorised (many-nodes-at-once) evaluation for node-only hints
    # ------------------------------------------------------------------ #
    def _substitutions_nodes(
        self, pre: PreprocessResult | None, nodes: np.ndarray, kind: str
    ) -> dict[str, np.ndarray]:
        """Array form of :meth:`_substitutions`: one aggregate per node."""
        if pre is None:
            return {}
        mapping: dict[str, np.ndarray] = {}
        for var in self.analysis.edge_indexed:
            if pre.has_array(var.source_array):
                agg = pre.aggregates[f"{var.source_array}_{kind}"]
                mapping[var.name] = agg[nodes].astype(np.float64)
        return mapping

    def _evaluate_returns_nodes(
        self,
        graph: CSRGraph,
        nodes: np.ndarray,
        substitutions: dict[str, np.ndarray],
    ) -> list[np.ndarray] | None:
        """Replay the return expressions with *arrays* bound per node.

        Node-only hints never read walker state through any expression that
        matters, so binding the edge-indexed variables to per-node aggregate
        arrays evaluates every pending node in one pass.  The replay is
        all-or-nothing: *any* exception — a numpy floating-point signal where
        the scalar path would have raised per node, an array-truth-value
        error from a ternary or builtin ``min``/``max``, anything — returns
        ``None`` so the caller re-evaluates per node with the exact scalar
        semantics.  Skipping a failing expression here instead would silently
        change the surviving-expression set relative to the scalar helpers
        and break the batched engine's hint parity.
        """
        env: dict[str, object] = {
            self._self_arg: self.spec,
            self._graph_arg: graph,
            # The scalar helpers evaluate against a probe walker state; bind
            # the same shape so state-touching assignments that the node-only
            # returns never consume still evaluate instead of aborting.
            self._state_arg: WalkerState(
                query=WalkQuery(query_id=0, start_node=0, max_length=1), current_node=0
            ),
            self._edge_arg: None,
        }
        values: list[np.ndarray] = []
        try:
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                for name, code in self._assignment_code:
                    if name in substitutions:
                        env[name] = substitutions[name]
                        continue
                    env[name] = eval(code, self._globals, env)  # noqa: S307 - user walk code
                for code in self._return_code:
                    value = np.asarray(eval(code, self._globals, env), dtype=np.float64)  # noqa: S307
                    if value.ndim != 0 and value.shape != nodes.shape:
                        # An array-valued return the scalar helpers would have
                        # rejected via float() — or a stray broadcastable shape
                        # that would silently mean something else per node.
                        raise ValueError(
                            f"return expression shape {value.shape} is not "
                            f"per-node ({nodes.shape})"
                        )
                    values.append(value)
        except Exception:
            return None
        return values

    def estimate_hints_nodes(
        self,
        graph: CSRGraph,
        nodes: np.ndarray,
        pre: PreprocessResult | None,
        per_kernel: bool,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Vectorised ``(get_weight_max, get_weight_sum)`` for many nodes.

        Returns ``(bounds, sums)`` float64 arrays with ``NaN`` marking "no
        estimate" (the array form of the scalar ``None``), or ``None`` when
        the vectorised replay is unsafe and the caller must evaluate per node.
        """
        max_values = self._evaluate_returns_nodes(
            graph, nodes, self._substitutions_nodes(pre, nodes, "max")
        )
        if max_values is None:
            return None
        sum_values = self._evaluate_returns_nodes(
            graph, nodes, self._substitutions_nodes(pre, nodes, "sum")
        )
        if sum_values is None:
            return None

        bounds = np.full(nodes.size, np.nan, dtype=np.float64)
        if max_values:
            acc = np.array(np.broadcast_to(max_values[0], nodes.shape), dtype=np.float64)
            for value in max_values[1:]:
                acc = np.maximum(acc, value)
            bounds = acc
        sums = np.full(nodes.size, np.nan, dtype=np.float64)
        if sum_values:
            # Mirror `sum(values) / len(values)` term for term (same
            # accumulation order, same zero start value).
            acc = np.zeros(nodes.shape, dtype=np.float64)
            for value in sum_values:
                acc = acc + value
            estimate = acc / len(sum_values)
            if per_kernel:
                estimate = estimate * (graph.indptr[nodes + 1] - graph.indptr[nodes])
            sums = np.broadcast_to(estimate, nodes.shape).astype(np.float64)
        return bounds, sums


@dataclass
class CompiledWorkload:
    """A workload bundled with its compiled helpers and preprocessed data.

    This is the artefact Flexi-Runtime consumes: it exposes per-step
    ``bound_hint`` / ``sum_hint`` estimates and remembers whether the compiler
    had to fall back to eRVS-only mode.
    """

    spec: WalkSpec
    analysis: AnalysisResult
    helpers: GeneratedHelpers | None
    preprocessed: PreprocessResult | None
    #: Whole-spec verifier verdict (all hooks, all rule families); None only
    #: for hand-built bundles that bypassed :func:`compile_workload`.
    report: SpecReport | None = None
    _static_bound: float | None = None
    _static_bound_known: bool = False

    @property
    def supported(self) -> bool:
        """False when the analyser flagged unsupported constructs (Section 7.1)."""
        return self.analysis.supported and self.helpers is not None

    @property
    def granularity(self) -> BoundGranularity:
        return self.analysis.granularity

    @property
    def preprocessing_time_ns(self) -> float:
        return self.preprocessed.simulated_time_ns if self.preprocessed else 0.0

    @property
    def hints_node_only(self) -> bool:
        """True when the hints are a pure function of the current node.

        The generated helpers replay the workload's return expressions with
        edge-indexed variables bound to *per-node* aggregates, so when no
        return expression transitively reads the walker state, ``bound_hint``
        / ``sum_hint`` depend only on ``state.current_node`` — and the
        batched engine may precompute them once per node instead of
        re-evaluating the helpers per walker per step.  Workloads whose
        returns do read state (e.g. the degree terms of second-order
        PageRank) report False and fall back to per-walker evaluation.
        """
        if not self.supported:
            return False
        args = self.analysis.argument_names
        state_arg = args[2] if len(args) > 2 else "state"
        return all(state_arg not in deps for deps in self.analysis.return_dependencies)

    @property
    def weights_node_only(self) -> bool:
        """True when every transition weight is a pure function of the edge.

        Stricter than :attr:`hints_node_only`: the walker state must not be
        referenced *anywhere* in ``get_weight`` (a state-dependent branch
        changes the value even when the return expressions are state-free),
        and neither ``update`` nor ``update_batch`` may be overridden (an
        update hook could feed state back through ``self``).  On top of the
        scalar proof, the whole-spec :attr:`report` must agree that every
        *override* weight path (``transition_weights``,
        ``transition_weights_batch``) is state-free too — the batched engine
        samples from those, so a state-reading override would be served
        stale rows from a cache the scalar proof alone would have allowed.
        When True, the weight of an edge never changes across steps,
        walkers, supersteps or devices — the soundness condition for the
        runtime's cross-superstep
        :class:`~repro.sampling.transition_cache.TransitionCache`.
        """
        if not self.supported or self.analysis.reads_state:
            return False
        if type(self.spec).update is not WalkSpec.update:
            return False
        if type(self.spec).update_batch is not WalkSpec.update_batch:
            return False
        return self.report is None or self.report.weights_state_free

    # ------------------------------------------------------------------ #
    def bound_hint(self, graph: CSRGraph, state: WalkerState) -> float | None:
        """Estimated max-weight upper bound for the walker's current node."""
        if not self.supported:
            return None
        if self.granularity is BoundGranularity.PER_KERNEL:
            if not self._static_bound_known:
                self._static_bound = self.helpers.estimate_max(graph, state, self.preprocessed)
                self._static_bound_known = True
            return self._static_bound
        return self.helpers.estimate_max(graph, state, self.preprocessed)

    def sum_hint(self, graph: CSRGraph, state: WalkerState) -> float | None:
        """Estimated transition-weight sum for the walker's current node."""
        if not self.supported:
            return None
        return self.helpers.estimate_sum(graph, state, self.preprocessed)

    def replay_hint_nodes(
        self, graph: CSRGraph, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """The vectorised half of :meth:`hint_nodes` alone (supported
        workloads only): ``None`` when the replay is unsafe for ``nodes``."""
        return self.helpers.estimate_hints_nodes(
            graph,
            nodes,
            self.preprocessed,
            per_kernel=self.granularity is BoundGranularity.PER_KERNEL,
        )

    def hint_nodes(self, graph: CSRGraph, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(bound, sum)`` hints for many nodes at once (node-only hints).

        Only meaningful when :attr:`hints_node_only`; ``NaN`` encodes the
        scalar ``None``.  The vectorised replay is attempted first and the
        exact per-node scalar evaluation is used whenever it bails, so the
        returned values always match what :meth:`bound_hint` /
        :meth:`sum_hint` would have produced node by node.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        bounds = np.full(nodes.size, np.nan, dtype=np.float64)
        sums = np.full(nodes.size, np.nan, dtype=np.float64)
        if not self.supported or nodes.size == 0:
            return bounds, sums
        vectorised = self.replay_hint_nodes(graph, nodes)
        if vectorised is not None:
            return vectorised
        probe = WalkerState(
            query=WalkQuery(query_id=0, start_node=0, max_length=1), current_node=0
        )
        for j in range(nodes.size):
            probe.current_node = int(nodes[j])
            bound = self.bound_hint(graph, probe)
            if bound is not None:
                bounds[j] = bound
            total = self.sum_hint(graph, probe)
            if total is not None:
                sums[j] = total
        return bounds, sums

    def rebind(
        self,
        graph: CSRGraph,
        touched_nodes: np.ndarray,
        device: DeviceSpec | None = None,
    ) -> CompiledWorkload:
        """This workload's bundle for the next graph version.

        Follows a graph delta the way the hint tables do: the
        graph-independent parts (analysis, verifier verdict, helpers) are
        shared, and only the ``touched_nodes`` rows of the preprocessed
        aggregates are recomputed (see
        :func:`~repro.compiler.preprocess.preprocess_rows`).  The result
        equals ``compile_workload(self.spec, graph, device)`` exactly, and
        this bundle is left untouched for sessions still on the old version.
        """
        preprocessed = self.preprocessed
        if preprocessed is not None:
            preprocessed = preprocess_rows(preprocessed, graph, touched_nodes, device=device)
        return CompiledWorkload(
            spec=self.spec,
            analysis=self.analysis,
            helpers=self.helpers,
            preprocessed=preprocessed,
            report=self.report,
        )


@dataclass(frozen=True)
class WorkloadFrontEnd:
    """The graph-independent half of a compile, reusable across graphs.

    The analysis, the whole-spec verifier verdict and the generated helpers
    depend only on the spec's code and hyperparameters, never on the graph.
    A long-lived service therefore computes them once per structural spec
    key and binds them to each graph with :func:`compile_workload`.
    """

    analysis: AnalysisResult
    report: SpecReport
    helpers: GeneratedHelpers | None
    #: Edge-indexed arrays the return values depend on: the ones
    #: ``preprocess()`` aggregates per node.
    preprocess_arrays: tuple[str, ...]


def analyze_workload(spec: WalkSpec) -> WorkloadFrontEnd:
    """Run the graph-independent compile stages: analysis, verify, codegen."""
    analysis = analyze_get_weight(spec)
    report = verify_spec(spec)
    if not analysis.supported:
        return WorkloadFrontEnd(analysis=analysis, report=report, helpers=None,
                                preprocess_arrays=())
    preprocess_arrays = tuple(
        dict.fromkeys(
            var.source_array
            for var in analysis.edge_indexed
            for deps in analysis.return_dependencies
            if var.name in deps
        )
    )
    return WorkloadFrontEnd(
        analysis=analysis,
        report=report,
        helpers=GeneratedHelpers(spec=spec, analysis=analysis),
        preprocess_arrays=preprocess_arrays,
    )


def compile_workload(
    spec: WalkSpec,
    graph: CSRGraph,
    device: DeviceSpec | None = None,
    front: WorkloadFrontEnd | None = None,
) -> CompiledWorkload:
    """Run the full Flexi-Compiler pipeline for one workload on one graph.

    On success the returned bundle carries helper callables and preprocessed
    per-node aggregates; when the analysis finds unsupported constructs a
    :class:`CompilerWarning` is emitted and the bundle reports
    ``supported = False`` so the runtime uses eRVS exclusively.  ``front``
    supplies the graph-independent stages from an earlier
    :func:`analyze_workload` of an equivalent spec instead of re-running them.
    """
    if front is None:
        front = analyze_workload(spec)
    analysis = front.analysis
    if front.helpers is None:
        warnings.warn(
            "Flexi-Compiler could not specialise "
            f"{type(spec).__name__}.get_weight ({'; '.join(analysis.warnings)}); "
            "falling back to eRVS-only execution",
            CompilerWarning,
            stacklevel=2,
        )
        return CompiledWorkload(
            spec=spec, analysis=analysis, helpers=None, preprocessed=None, report=front.report
        )
    arrays = front.preprocess_arrays
    return CompiledWorkload(
        spec=spec,
        analysis=analysis,
        helpers=front.helpers,
        preprocessed=preprocess_graph(graph, arrays=arrays, device=device) if arrays else None,
        report=front.report,
    )
