#!/usr/bin/env python3
"""Sliding-window port-scan detection on a partitioned cluster.

Extends the paper's tumbling-window machinery with the pane-based
sliding-window evaluation it references (§3.1): detect sources sending
many packets within any 4-second window sliding every second.  The
query says so in GSQL with ``RANGE 4 SLIDE 1`` over one-second panes.
The cluster hashes on ``srcIP``, a non-temporal attribute, so every
pane of a source lands on one host and windows reassemble from that
host's pane states — which is exactly why §3.5.1 bans temporal
attributes from partitioning sets.  The distributed answer must equal
the centralized one (§3.4), whose windows fold each window's raw
packets by definition.

Run:  python examples/sliding_window_scanner.py
"""

from collections import defaultdict

from repro import (
    Catalog,
    ClusterSimulator,
    DistributedOptimizer,
    HashSplitter,
    PartitioningSet,
    Placement,
    QueryDag,
    TraceConfig,
    batches_equal,
    generate_trace,
    run_centralized,
    tcp_schema,
)
from repro.traces import format_ip


def main():
    catalog = Catalog()
    catalog.add_stream(tcp_schema())
    catalog.define_query(
        "fanout",
        """
        SELECT tb, srcIP, COUNT(*) as packets, SUM(len) as bytes
        FROM TCP
        GROUP BY time as tb, srcIP
        HAVING COUNT(*) >= 40
        RANGE 4 SLIDE 1
        """,
    )
    dag = QueryDag.from_catalog(catalog)
    spec = dag.node("fanout").window
    print(
        f"window: {spec.window_panes}s sliding by {spec.slide_panes}s; "
        f"HAVING applies to whole windows (>= 40 packets per source)"
    )

    trace = generate_trace(TraceConfig(duration=12, rate=1500, num_taps=1, seed=99))
    print(f"trace: {len(trace.packets)} packets over {trace.duration_sec:.0f}s")

    # Distributed: 4 hosts, hashed on srcIP (compatible, non-temporal).
    ps = PartitioningSet.of("srcIP")
    placement = Placement(num_hosts=4, partitions_per_host=1)
    plan = DistributedOptimizer(dag, placement, ps).optimize()
    simulator = ClusterSimulator(dag, plan, stream_rate=trace.rate)
    result = simulator.run(
        {"TCP": trace.packets},
        HashSplitter(placement.num_partitions, ps),
        trace.duration_sec,
    )
    distributed = result.outputs["fanout"]
    variants = sorted(set(result.node_variants.values()))
    print(f"plan variants: {', '.join(variants)}")

    centralized = run_centralized(dag, {"TCP": trace.packets})["fanout"]
    assert batches_equal(distributed, centralized)
    print(
        f"\ndistributed sliding windows == centralized evaluation "
        f"({len(centralized)} alert rows)"
    )

    busiest = defaultdict(int)
    for row in centralized:
        busiest[row["srcIP"]] = max(busiest[row["srcIP"]], row["packets"])
    print("\nbusiest sources by peak 4-second window:")
    top = sorted(busiest.items(), key=lambda kv: -kv[1])[:8]
    for src, peak in top:
        print(f"  {format_ip(src):15s} peak {peak} packets / window")


if __name__ == "__main__":
    main()
