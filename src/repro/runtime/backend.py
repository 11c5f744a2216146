"""The engine backend: plan nodes compiled to operators, once, up front.

The :class:`EngineBackend` turns every :class:`~repro.distopt.plan_ir.DistNode`
into a :class:`CompiledOperator` whose inputs and output are
:class:`~repro.engine.columnar.ColumnBatch`es — the one batch type that
crosses a node boundary.  Most nodes compile to a vectorized kernel; a
node whose operator is a reference row operator — by design (the sketch
pair, the window-reassembly sides of a sliding aggregate) or by fallback
(a UDAF without a registered kernel) — is *adapted* here, at
plan-compile time: rows in, a batch out.  Nothing downstream of the
backend ever asks which representation it is holding.

The backend also owns the operator cache (a plan instantiates one copy
per host of the same logical operator) and the construction of the
stateful :class:`~repro.engine.streaming.StreamingNode` wrappers.  The
row operators themselves (:mod:`repro.engine.operators`,
:mod:`repro.engine.variants`) double as the paper's §3.4 oracle through
:func:`~repro.engine.executor.run_centralized`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from ..distopt.plan_ir import DistKind, DistNode, Variant
from ..engine.columnar import (
    ColumnarMergeOp,
    ColumnBatch,
    build_columnar_nullpad,
    build_columnar_operator,
    ensure_columns,
)
from ..engine.operators import NullPadOp, Row
from ..engine.panes import WindowSpec
from ..engine.streaming import (
    ColumnBuffer,
    StatelessStreamingNode,
    StreamingAggregate,
    StreamingJoin,
    StreamingNode,
    StreamingWindowedAggregate,
    mapped_watermark,
    merge_watermarks,
    unknown_watermark,
)
from ..engine.variants import build_variant_operator
from ..expr.expressions import Attr
from ..expr.vectorizer import UnsupportedExpression, vectorize_expr
from ..gsql.analyzer import NodeKind
from ..plan.dag import QueryDag

if TYPE_CHECKING:
    from ..cluster.splitter import Splitter


class CompiledOperator:
    """One plan node's operator: ``ColumnBatch``es in, a ``ColumnBatch`` out.

    ``columnar`` records the compile-time choice between a vectorized
    kernel and an adapted row operator; ``process`` converts at the
    adapter's two edges and nowhere else — there is no per-batch
    capability check.  ``row_native`` marks an adapted node whose
    *designed* form is the row operator (the windowed and sketch
    aggregation variants), as opposed to a missing-kernel fallback: only
    the latter is reported in ``SimulationResult.fallback_nodes``.
    ``arity`` is the number of inputs the operator takes (two for a
    join), which is all :meth:`empty` needs to know.

    Instances are picklable by *recipe*: operators hold vectorized
    closures that cannot cross process boundaries, so pickling ships the
    ``(dag, node)`` pair that produced the operator and unpickling
    recompiles it — the parallel runtime hands compiled operators to its
    forked workers at pool start this way.  The dag is shared (pickle
    memoizes it) when a whole compile cache travels in one payload.
    """

    __slots__ = ("operator", "columnar", "recipe", "row_native", "arity")

    def __init__(
        self,
        operator,
        columnar: bool,
        recipe: Optional[tuple] = None,
        row_native: bool = False,
        arity: int = 1,
    ):
        self.operator = operator
        self.columnar = columnar
        self.recipe = recipe
        self.row_native = row_native
        self.arity = arity

    def __reduce__(self):
        if self.recipe is None:
            raise TypeError(
                "CompiledOperator without a compile recipe is not picklable "
                "(operators capture vectorized closures); compile it through "
                "an EngineBackend"
            )
        return (_rebuild_compiled, self.recipe)

    def process(self, *inputs: ColumnBatch) -> ColumnBatch:
        if self.columnar:
            return self.operator.process(*inputs)
        return ColumnBatch.from_rows(
            self.operator.process(*(batch.to_rows() for batch in inputs))
        )

    def process_window(self, rows: List[Row], ends: List[int]) -> ColumnBatch:
        """Window-labelled emission of an adapted windowed operator over
        the rows its streaming wrapper retained."""
        return ColumnBatch.from_rows(self.operator.process_window(rows, ends))

    def empty(self) -> ColumnBatch:
        """An empty output batch (kernels emit typed columns)."""
        return self.process(*[ColumnBatch({}, 0)] * self.arity)


def _operator_key(node: DistNode) -> tuple:
    return (node.kind, node.query, node.variant, node.pad_side)


def _rebuild_compiled(dag: QueryDag, node: DistNode) -> "CompiledOperator":
    """Unpickle hook: recompile a :class:`CompiledOperator` from its recipe.

    Recompilation replays the exact compile-time decision (including a
    node resolving to an adapted row operator), so the rebuilt operator
    is behaviourally identical to the original.
    """
    return EngineBackend(dag).compile_node(node)


class EngineBackend:
    """Compiles plan nodes for the (one) runtime.

    What an :class:`~repro.runtime.session.ExecutionSession` drives:

    * :meth:`compile_node` — the node's :class:`CompiledOperator`, cached
      per ``(kind, query, variant, pad_side)``;
    * :meth:`supports` — whether the node runs in its *designed* form
      (False means a missing kernel resolved it to a row fallback);
    * :meth:`streaming_node` — a fresh stateful wrapper for epoch-driven
      execution (one per run, state lives across epochs);
    * :meth:`prepare` / :meth:`split` — source data converted to batches,
      once, at the door, and partitioned.
    """

    def __init__(self, dag: QueryDag):
        self._dag = dag
        self._cache: Dict[tuple, CompiledOperator] = {}

    # -- compilation ----------------------------------------------------------

    def compile_node(self, node: DistNode) -> CompiledOperator:
        key = _operator_key(node)
        compiled = self._cache.get(key)
        if compiled is None:
            compiled = self._compile(node)
            self._cache[key] = compiled
        return compiled

    @property
    def cached_operators(self) -> Dict[tuple, CompiledOperator]:
        """The compile cache, keyed by ``(kind, query, variant, pad_side)``
        — one entry per *logical* operator, shared by every host's copy."""
        return self._cache

    @property
    def dag(self) -> QueryDag:
        """The analyzed query dag this backend compiles against."""
        return self._dag

    def supports(self, node: DistNode) -> bool:
        compiled = self.compile_node(node)
        return compiled.columnar or compiled.row_native

    def _compile(self, node: DistNode) -> CompiledOperator:
        recipe = (self._dag, node)
        if node.kind is DistKind.MERGE:
            return CompiledOperator(ColumnarMergeOp(), columnar=True, recipe=recipe)
        analyzed = self._dag.node(node.query)
        padding = node.kind is DistKind.NULLPAD
        arity = 2 if not padding and analyzed.kind is NodeKind.JOIN else 1
        # Window reassembly and sketch digests are designed as row
        # operators (their state is per-group, not per-batch) — that is
        # the node's native form, not a fallback.
        row_native = _row_native_variant(analyzed, node.variant)
        if padding:
            kernel = build_columnar_nullpad(analyzed, node.pad_side)
        elif row_native:
            kernel = None
        else:
            kernel = build_columnar_operator(analyzed, node.variant.value)
        if kernel is not None:
            return CompiledOperator(
                kernel, columnar=True, recipe=recipe, arity=arity
            )
        # The reference row operator, adapted.  Unless row-native this is
        # a missing-kernel fallback (an unregistered UDAF), reported in
        # ``SimulationResult.fallback_nodes``.
        if padding:
            reference = NullPadOp(analyzed, node.pad_side)
        else:
            reference = build_variant_operator(analyzed, node.variant.value)
        return CompiledOperator(
            reference,
            columnar=False,
            recipe=recipe,
            row_native=row_native,
            arity=arity,
        )

    # -- sources ----------------------------------------------------------------

    def prepare(self, rows) -> ColumnBatch:
        """Source data as a batch: row lists are converted here, once."""
        return ensure_columns(rows)

    def split(
        self, batch: ColumnBatch, splitter: "Splitter", offset: int
    ) -> List[ColumnBatch]:
        """Partition one batch, continuing a stateful cursor at ``offset``."""
        try:
            return splitter.split_columns(batch, offset=offset)
        except UnsupportedExpression:
            # A splitter with only a per-row assigner.
            return [
                ColumnBatch.from_rows(part)
                for part in splitter.split(batch.to_rows(), offset=offset)
            ]

    # -- streaming-node construction ------------------------------------------

    def streaming_node(self, node: DistNode) -> StreamingNode:
        """A fresh stateful wrapper for ``node`` (buffers start empty)."""
        compiled = self.compile_node(node)
        if node.kind is DistKind.MERGE:
            return StatelessStreamingNode(compiled, merge_watermarks)
        if node.kind is DistKind.NULLPAD:
            # NULLPAD's padding decision is join-local, so its temporal
            # bound is not derivable: unknown watermark, everything
            # downstream drains at the flush.
            return StatelessStreamingNode(compiled, unknown_watermark)
        analyzed = self._dag.node(node.query)
        if analyzed.kind is NodeKind.JOIN:
            return StreamingJoin(compiled, analyzed)
        if analyzed.kind is NodeKind.AGGREGATION:
            return self._streaming_aggregate(node, analyzed)
        if analyzed.kind is NodeKind.SELECTION:
            outputs = list(
                zip((c.name for c in analyzed.columns), analyzed.select_exprs)
            )
            return StatelessStreamingNode(compiled, mapped_watermark(outputs))
        if analyzed.kind is NodeKind.UNION:
            return StatelessStreamingNode(compiled, merge_watermarks)
        raise ValueError(f"unexpected node kind {analyzed.kind!r}")

    def _streaming_aggregate(self, node: DistNode, analyzed) -> StreamingNode:
        # The first temporal group-by column gates release: its value over
        # the *input* rows is the buffer's temporal key.  SUPER inputs are
        # partial rows that already carry the column by name; FULL/SUB
        # evaluate the group-by expression over raw input.
        temporal = next((g for g in analyzed.group_by if g.is_temporal), None)
        if node.variant is Variant.SKETCH_SUPER or (
            analyzed.window is not None
            and node.variant in (Variant.FULL, Variant.SUPER)
        ):
            # Window-labelled emission: results are keyed by window end,
            # not by pane, so release is governed by complete *windows*.
            return self._windowed_aggregate(node, analyzed, temporal)
        if temporal is None:
            filter_expr = None
        elif node.variant is Variant.SUPER:
            filter_expr = Attr(temporal.name)
        else:
            filter_expr = temporal.expr
        if node.variant is Variant.SKETCH_SUB:
            # Summary rows carry only the pane column (plus the opaque
            # digest); it alone propagates a bound.
            outputs = [(temporal.name, Attr(temporal.name))]
        elif node.variant is Variant.SUB:
            # Sub-aggregates emit group-by columns plus opaque partial
            # states; only the group-by columns carry bounds.
            outputs = [(g.name, Attr(g.name)) for g in analyzed.group_by]
        else:
            outputs = list(
                zip((c.name for c in analyzed.columns), analyzed.select_exprs)
            )
        # The temporal key is an attribute or a group-by expression the
        # evaluator compiles, and the vectorizer lowers all of those.
        key_fn = vectorize_expr(filter_expr) if filter_expr is not None else None
        return StreamingAggregate(
            self.compile_node(node),
            ColumnBuffer(key_fn),
            temporal.name if temporal is not None else None,
            filter_expr,
            outputs,
        )

    def _windowed_aggregate(
        self, node: DistNode, analyzed, temporal
    ) -> StreamingNode:
        compiled = self.compile_node(node)
        spec = analyzed.window if analyzed.window is not None else WindowSpec(1, 1)
        # FULL consumes raw rows (pane = group-by expression); SUPER and
        # SKETCH_SUPER consume shipped rows already carrying the column.
        pane_expr = (
            temporal.expr
            if node.variant is Variant.FULL
            else Attr(temporal.name)
        )
        outputs = list(
            zip((c.name for c in analyzed.columns), analyzed.select_exprs)
        )
        return StreamingWindowedAggregate(
            compiled, spec, pane_expr, temporal.name, outputs
        )


def _row_native_variant(analyzed, variant: Variant) -> bool:
    """Aggregation variants whose designed form is the row operator: the
    sketch pair always, and the window-reassembly sides (FULL/SUPER) of a
    windowed node.  The SUB side of a windowed node computes ordinary
    tumbling panes, so the vectorized kernel still applies."""
    if analyzed.kind is not NodeKind.AGGREGATION:
        return False
    if variant in (Variant.SKETCH_SUB, Variant.SKETCH_SUPER):
        return True
    return analyzed.window is not None and variant in (
        Variant.FULL,
        Variant.SUPER,
    )


def create_backend(engine: str, dag: QueryDag) -> EngineBackend:
    """The backend for ``dag``.  The ``engine`` argument survives only
    because the frozen benchmark adapter passes ``"columnar"``; there is
    one runtime, and any other name is an error."""
    if engine != "columnar":
        raise ValueError(
            f"unknown engine {engine!r}: the columnar runtime is the only "
            "one — the row engine is now the §3.4 oracle "
            "(repro.engine.run_centralized), not a runtime"
        )
    return EngineBackend(dag)
