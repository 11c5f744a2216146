"""The engine backend: plan nodes compiled to kernels, once, up front.

The :class:`EngineBackend` turns every :class:`~repro.distopt.plan_ir.DistNode`
into a kernel — a :class:`~repro.engine.columnar.ColumnarOperator` whose
inputs and output are :class:`~repro.engine.columnar.ColumnBatch`es, the
one batch type that crosses a node boundary.  Every node compiles to one
(:func:`~repro.engine.variants.build_variant_kernel`,
:func:`~repro.engine.columnar.build_columnar_nullpad`), the sketch pair,
sliding-window reassembly and UDAFs included: a UDAF's own
state/merge/final protocol runs once per group inside the aggregate
kernels.  Kernels hold vectorized closures and never leave the process
that compiled them; forked workers inherit them.

The backend also owns the operator cache (a plan instantiates one copy
per host of the same logical operator) and the construction of the
stateful :class:`~repro.engine.streaming.StreamingNode` wrappers.  The
row operators (:mod:`repro.engine.operators`,
:func:`~repro.engine.variants.build_variant_operator`) are the paper's
§3.4 oracle, :func:`~repro.engine.executor.run_centralized`; the runtime
never imports them.
"""

from __future__ import annotations

from typing import Dict, List, TYPE_CHECKING

from ..distopt.plan_ir import DistKind, DistNode, Variant
from ..engine.columnar import (
    ColumnarMergeOp,
    ColumnarOperator,
    ColumnBatch,
    build_columnar_nullpad,
    ensure_columns,
)
from ..engine.panes import WindowSpec
from ..engine.streaming import (
    StatelessStreamingNode,
    StreamingAggregate,
    StreamingJoin,
    StreamingNode,
    StreamingWindowedAggregate,
    mapped_watermark,
    merge_watermarks,
    unknown_watermark,
)
from ..engine.variants import build_variant_kernel, is_sliding
from ..expr.expressions import Attr
from ..expr.vectorizer import vectorize_expr
from ..gsql.analyzer import NodeKind
from ..plan.dag import QueryDag

if TYPE_CHECKING:
    from ..cluster.splitter import Splitter


class EngineBackend:
    """Compiles plan nodes for the (one) runtime.

    What an :class:`~repro.runtime.session.ExecutionSession` drives:

    * :meth:`compile_node` — the node's kernel, cached per
      ``(kind, query, variant, pad_side)``;
    * :meth:`streaming_node` — a fresh stateful wrapper for epoch-driven
      execution (one per run, state lives across epochs);
    * :meth:`prepare` / :meth:`split` — source data converted to batches,
      once, at the door, and partitioned.
    """

    def __init__(self, dag: QueryDag):
        self._dag = dag
        self._cache: Dict[tuple, ColumnarOperator] = {}

    # -- compilation ----------------------------------------------------------

    def compile_node(self, node: DistNode) -> ColumnarOperator:
        key = (node.kind, node.query, node.variant, node.pad_side)
        compiled = self._cache.get(key)
        if compiled is None:
            compiled = self._compile(node)
            self._cache[key] = compiled
        return compiled

    @property
    def cached_operators(self) -> Dict[tuple, ColumnarOperator]:
        """The compile cache, keyed by ``(kind, query, variant, pad_side)``
        — one entry per *logical* operator, shared by every host's copy."""
        return self._cache

    def _compile(self, node: DistNode) -> ColumnarOperator:
        if node.kind is DistKind.MERGE:
            return ColumnarMergeOp()
        analyzed = self._dag.node(node.query)
        if node.kind is DistKind.NULLPAD:
            return build_columnar_nullpad(analyzed, node.pad_side)
        return build_variant_kernel(analyzed, node.variant.value)

    # -- sources ----------------------------------------------------------------

    def prepare(self, rows) -> ColumnBatch:
        """Source data as a batch: row lists are converted here, once."""
        return ensure_columns(rows)

    def split(
        self, batch: ColumnBatch, splitter: "Splitter", offset: int
    ) -> List[ColumnBatch]:
        """Partition one batch, continuing a stateful cursor at ``offset``."""
        return splitter.split_columns(batch, offset=offset)

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
        if node.variant is Variant.SKETCH_SUPER or is_sliding(
            analyzed, node.variant.value
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
            key_fn,
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
