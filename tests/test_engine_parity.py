"""Engine parity: the columnar backend is observationally identical to row.

For every workload catalog, partitioning set, and cluster size, the two
backends must agree on *everything the simulator reports*:

- delivered query outputs (up to row order),
- per-node output tuple counts,
- per-host CPU charge totals and their per-category breakdown,
- every NetworkMeter counter (per-host received, per-link tuples).

The accounting equality is parity-by-construction — both engines execute
the same plan topology with the same per-node tuple counts — and this test
pins that construction down.
"""

import numpy as np
import pytest

from repro.cluster import ClusterSimulator, HashSplitter, RoundRobinSplitter
from repro.cluster.simulator import ENGINES
from repro.distopt import DistributedOptimizer, Placement
from repro.engine import batches_equal
from repro.engine.columnar import ColumnBatch
from repro.partitioning import PartitioningSet
from repro.workloads import (
    complex_catalog,
    subnet_jitter_catalog,
    suspicious_flows_catalog,
)

WORKLOADS = {
    "suspicious": (suspicious_flows_catalog, None),
    "jitter": (subnet_jitter_catalog, ("subnet_stats", "tcp_flows", "jitter")),
    "complex": (complex_catalog, ("flows", "heavy_flows", "flow_pairs")),
}

PS_CHOICES = [
    None,
    PartitioningSet.of("srcIP"),
    PartitioningSet.of("srcIP & 0xFFF0", "destIP"),
    PartitioningSet.of("srcIP", "destIP", "srcPort", "destPort"),
]


def run_engine(engine, dag, packets, hosts, ps, deliver):
    placement = Placement(hosts, 2)
    plan = DistributedOptimizer(dag, placement, ps, deliver=deliver).optimize()
    sim = ClusterSimulator(dag, plan, stream_rate=1000, engine=engine)
    if ps is None:
        splitter = RoundRobinSplitter(placement.num_partitions)
    else:
        splitter = HashSplitter(placement.num_partitions, ps)
    return sim.run({"TCP": packets}, splitter, duration_sec=10.0)


def assert_results_match(row, col):
    # Delivered outputs: identical multisets of rows per query.
    assert set(row.outputs) == set(col.outputs)
    for name in row.outputs:
        assert batches_equal(row.outputs[name], col.outputs[name]), name
    # Same plan, same per-node tuple counts.
    assert row.node_output_counts == col.node_output_counts
    # Identical CPU accounting, host by host and category by category.
    for row_host, col_host in zip(row.hosts, col.hosts):
        assert col_host.cpu_units == pytest.approx(row_host.cpu_units, abs=1e-9)
        assert set(row_host.by_category) == set(col_host.by_category)
        for category, units in row_host.by_category.items():
            assert col_host.by_category[category] == pytest.approx(
                units, abs=1e-9
            ), category
    # Identical network accounting, down to each link.
    assert row.network.tuples_received == col.network.tuples_received
    assert row.network.link_tuples == col.network.link_tuples


@pytest.mark.parametrize("hosts", [1, 3])
@pytest.mark.parametrize("ps", PS_CHOICES, ids=str)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_engine_parity(workload, ps, hosts, tiny_trace):
    catalog_fn, deliver = WORKLOADS[workload]
    _, dag = catalog_fn()
    row = run_engine("row", dag, tiny_trace.packets, hosts, ps, deliver)
    col = run_engine("columnar", dag, tiny_trace.packets, hosts, ps, deliver)
    assert_results_match(row, col)


@pytest.mark.parametrize("partitions", [2, 6])
@pytest.mark.parametrize("ps", PS_CHOICES, ids=str)
def test_columnar_split_is_the_row_split(ps, partitions, tiny_trace):
    """Every splitter the parity matrix uses sends each row to the same
    partition, in the same within-partition order, on both paths."""
    if ps is None:
        splitter = RoundRobinSplitter(partitions)
    else:
        splitter = HashSplitter(partitions, ps)
    by_rows = splitter.split(tiny_trace.packets, offset=5)
    by_columns = splitter.split_columns(tiny_trace.column_batch(), offset=5)
    assert [part.to_rows() for part in by_columns] == by_rows


def test_columnar_split_is_the_row_split_on_unsigned_keys():
    """Keys at or above 2**63 are where the vectorized hash used to fold
    sign bytes the row hash does not have."""
    keys = [2**63 + 977 * i for i in range(64)] + [2**64 - 1, 0, 2**63 - 1]
    batch = ColumnBatch({"srcIP": np.array(keys, dtype=np.uint64)})
    splitter = HashSplitter(8, PartitioningSet.of("srcIP"))
    by_columns = splitter.split_columns(batch)
    assert [part.to_rows() for part in by_columns] == splitter.split(batch.to_rows())
    assert sum(1 for part in by_columns if len(part)) > 1


@pytest.mark.parametrize("streaming", (False, True), ids=("oneshot", "streaming"))
@pytest.mark.parametrize("workload", ("complex", "jitter"))
def test_join_workloads_compile_fully_columnar(workload, streaming, tiny_trace):
    """The complex-query catalogs behind figures 13/14 (§6.3 flows ->
    heavy_flows -> flow_pairs, §6.2 jitter self-join) run end-to-end
    vectorized: zero row-fallback nodes under the columnar engine, with
    outputs and CPU/network accounting identical to the row engine —
    one-shot and streaming."""
    catalog_fn, deliver = WORKLOADS[workload]
    _, dag = catalog_fn()
    placement = Placement(3, 2)
    ps = PS_CHOICES[1]
    plan = DistributedOptimizer(dag, placement, ps, deliver=deliver).optimize()
    splitter = HashSplitter(placement.num_partitions, ps)
    results = {}
    for engine in ENGINES:
        sim = ClusterSimulator(dag, plan, stream_rate=1000, engine=engine)
        run = sim.run_streaming if streaming else sim.run
        results[engine] = run({"TCP": tiny_trace.packets}, splitter, 10.0)
        assert results[engine].fallback_nodes == {}, engine
    assert_results_match(results["row"], results["columnar"])


def test_engine_names_are_closed():
    assert ENGINES == ("row", "columnar")
    _, dag = suspicious_flows_catalog()
    plan = DistributedOptimizer(dag, Placement(1, 2), None).optimize()
    with pytest.raises(ValueError):
        ClusterSimulator(dag, plan, stream_rate=1000, engine="simd")


def test_columnar_sources_accept_column_batches(tiny_trace):
    """Feeding the zero-copy trace columns gives the same answer as rows."""
    _, dag = suspicious_flows_catalog()
    placement = Placement(2, 2)
    ps = PartitioningSet.of("srcIP")
    plan = DistributedOptimizer(dag, placement, ps).optimize()
    splitter = HashSplitter(placement.num_partitions, ps)
    sim = ClusterSimulator(dag, plan, stream_rate=1000, engine="columnar")
    from_columns = sim.run(
        {"TCP": tiny_trace.column_batch()}, splitter, duration_sec=10.0
    )
    from_rows = sim.run({"TCP": tiny_trace.packets}, splitter, duration_sec=10.0)
    assert_results_match(from_rows, from_columns)
