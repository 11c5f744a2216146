"""Runtime vs oracle: the one runtime is observationally the reference.

For every workload catalog, partitioning set, and cluster size the run
must deliver what the centralized row operators deliver (§3.4), and
everything the simulator reports — outputs, per-node tuple counts,
per-host per-category CPU charges, every NetworkMeter counter — must be
the same whether the trace entered as dict rows or as a ``ColumnBatch``.

The accounting itself is pinned against committed numbers: the figure
tables under ``benchmarks/results/`` were produced by the retired row
runtime and must regenerate byte-identically.
"""

import numpy as np
import pytest

from repro.cli import build_parser
from repro.cluster import ClusterSimulator, HashSplitter
from repro.distopt import DistributedOptimizer, Placement
from repro.engine.columnar import ColumnBatch
from repro.partitioning import PartitioningSet
from repro.plan import QueryDag
from repro.runtime import create_backend
from repro.workloads import suspicious_flows_catalog

from tests.parity import (
    PS_CHOICES,
    WORKLOADS,
    assert_identical_simulation,
    assert_matches_centralized,
    deploy,
    splitter_for,
)
from tests.split_reference import reference_split


def run_plan(dag, source, hosts, ps, deliver, streaming=False):
    sim, splitter = deploy(dag, hosts, ps, deliver)
    return sim.run({"TCP": source}, splitter, 10.0, streaming=streaming)


@pytest.mark.parametrize("hosts", [1, 3])
@pytest.mark.parametrize("ps", PS_CHOICES, ids=str)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_engine_parity(workload, ps, hosts, tiny_trace):
    catalog_fn, deliver = WORKLOADS[workload]
    _, dag = catalog_fn()
    from_rows = run_plan(dag, tiny_trace.packets, hosts, ps, deliver)
    from_columns = run_plan(dag, tiny_trace.column_batch(), hosts, ps, deliver)
    assert_matches_centralized(dag, tiny_trace.packets, from_columns)
    assert_identical_simulation(from_rows, from_columns)
    assert from_rows.source_columns == from_columns.source_columns


@pytest.mark.parametrize("partitions", [2, 6])
@pytest.mark.parametrize("ps", PS_CHOICES, ids=str)
def test_columnar_split_is_the_row_split(ps, partitions, tiny_trace):
    """Every splitter the parity matrix uses sends each row to the
    partition the per-row reference does, in the same within-partition
    order."""
    splitter = splitter_for(partitions, ps)
    by_rows = reference_split(splitter, tiny_trace.packets, offset=5)
    by_columns = splitter.split_columns(tiny_trace.column_batch(), offset=5)
    assert [part.to_rows() for part in by_columns] == by_rows


def test_columnar_split_is_the_row_split_on_unsigned_keys():
    """Keys at or above 2**63 are where the vectorized hash used to fold
    sign bytes the row hash does not have."""
    keys = [2**63 + 977 * i for i in range(64)] + [2**64 - 1, 0, 2**63 - 1]
    batch = ColumnBatch({"srcIP": np.array(keys, dtype=np.uint64)})
    splitter = HashSplitter(8, PartitioningSet.of("srcIP"))
    by_columns = splitter.split_columns(batch)
    assert [part.to_rows() for part in by_columns] == reference_split(
        splitter, batch.to_rows()
    )
    assert sum(1 for part in by_columns if len(part)) > 1


@pytest.mark.parametrize("streaming", (False, True), ids=("oneshot", "streaming"))
@pytest.mark.parametrize("workload", ("complex", "jitter"))
def test_join_workloads_compile_fully_columnar(workload, streaming, tiny_trace):
    """The complex-query catalogs behind figures 13/14 (§6.3 flows ->
    heavy_flows -> flow_pairs, §6.2 jitter self-join) run end-to-end
    on kernels with the oracle's outputs — one-shot and streaming."""
    catalog_fn, deliver = WORKLOADS[workload]
    _, dag = catalog_fn()
    result = run_plan(
        dag, tiny_trace.packets, 3, PS_CHOICES[1], deliver, streaming
    )
    assert_matches_centralized(dag, tiny_trace.packets, result)


def test_engine_names_are_closed():
    """There is one runtime and no way left to ask for another."""
    _, dag = suspicious_flows_catalog()
    plan = DistributedOptimizer(dag, Placement(1, 2), None).optimize()
    with pytest.raises(TypeError, match="engine"):
        ClusterSimulator(dag, plan, stream_rate=1000, engine="row")
    with pytest.raises(ValueError, match="row engine is now the §3.4 oracle"):
        create_backend("row", dag)
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["figures", "--experiment", "1", "--engine", "columnar"]
        )


def test_columnar_sources_accept_column_batches(tiny_trace):
    """A run that reads one column more than it needs to (the raw stream
    is itself delivered) still answers the same from either form."""
    _, dag = suspicious_flows_catalog()
    deliver = ("TCP", "suspicious_flows")
    from_rows = run_plan(dag, tiny_trace.packets, 2, PS_CHOICES[1], deliver)
    from_columns = run_plan(
        dag, tiny_trace.column_batch(), 2, PS_CHOICES[1], deliver
    )
    assert_identical_simulation(from_rows, from_columns)
    assert len(from_columns.outputs["TCP"]) == len(tiny_trace.packets)


@pytest.mark.parametrize(
    "select",
    ["~(len > 100)", "-(len > 100)", "(len > 100) + (len > 50)"],
    ids=("invert", "negate", "add"),
)
def test_boolean_arithmetic_matches_the_oracle(select, catalog, tiny_trace):
    """Python's bool is an int: ``~True`` is -2, ``-True`` is -1 and
    ``True + True`` is 2, on the kernels as in the centralized run."""
    catalog.define_query("flagged", f"SELECT time, {select} AS x FROM TCP")
    dag = QueryDag.from_catalog(catalog)
    result = run_plan(dag, tiny_trace.packets, 2, PS_CHOICES[1], None)
    assert_matches_centralized(dag, tiny_trace.packets, result)
