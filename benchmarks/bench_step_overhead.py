"""The fixed cost of a step, gated as a ratio measured inside one process.

A streaming run steps every plan node once per epoch; a one-shot run
steps it once over the whole trace.  The kernels see the same rows either
way, so the streaming wall over the one-shot wall prices what a step
costs beyond that row work: buffering and release, the answers of idle
nodes, charge replay, and each kernel call's fixed cost.  A query set
multiplies that cost by its node count, which makes it the workload where
the ratio shows.  A gain in per-row kernel work speeds the one-shot side
more than the streaming one and so raises the ratio: re-base the gate
with such a change.

The catalog is generated here from the public API, in the shape of the
paper's Figs 10-11 query-set experiment: 32 families of a filtered subnet
flow aggregate, a MAX over it and that MAX's consecutive-epoch self-join
(96 queries), rotating the mask, the epoch length and the predicate.  It
is deployed on 4 hosts x 2 partitions under the partitioning the search
picks, over a 40k-row, 20-epoch trace.  One hard assertion: best-of
streaming wall / best-of one-shot wall <= 3.0.
"""

import random
import time

from repro import (
    Catalog,
    DistributedOptimizer,
    Placement,
    QueryDag,
    choose_partitioning,
    tcp_schema,
)
from repro.cluster import ClusterSimulator, HashSplitter
from repro.traces import TraceConfig, generate_trace

FAMILIES = 32
MASKS = (0xFFFFFFF0, 0xFFFFFF00, 0xFFFF0000, 0xFFFFFFFF)
PORTS = (80, 443, 22, 25, 53, 8080)
MAX_RATIO = 3.0


def query_set(seed: int) -> str:
    rng = random.Random(seed)
    statements = []
    for family in range(FAMILIES):
        mask = MASKS[family % len(MASKS)]
        if (family // len(MASKS)) % 2 == 0:
            where = f"destPort = {rng.choice(PORTS)}"
        else:
            where = f"len > {rng.randrange(200, 500)}"
        statements.append(
            f"""
DEFINE QUERY flows_{family} AS
SELECT tb, srcNet, destIP, COUNT(*) as cnt, SUM(len) as bytes
FROM TCP WHERE {where}
GROUP BY time/{1 + family % 3} as tb, srcIP & {mask:#x} as srcNet, destIP;

DEFINE QUERY peak_{family} AS
SELECT tb, srcNet, MAX(cnt) as max_cnt FROM flows_{family}
GROUP BY tb, srcNet;

DEFINE QUERY pairs_{family} AS
SELECT S1.tb, S1.srcNet, S1.max_cnt as cnt1, S2.max_cnt as cnt2
FROM peak_{family} S1, peak_{family} S2
WHERE S1.srcNet = S2.srcNet and S1.tb = S2.tb + 1;
"""
        )
    return "".join(statements)


def _wall(run) -> float:
    started = time.perf_counter()
    run()
    return time.perf_counter() - started


def test_streaming_step_overhead():
    trace = generate_trace(
        TraceConfig(rate=2000, seed=7, heavy_tail_alpha=2.5, mean_flow_packets=16.0)
    )
    catalog = Catalog()
    catalog.add_stream(tcp_schema())
    catalog.load_script(query_set(7))
    dag = QueryDag.from_catalog(catalog)
    chosen = choose_partitioning(dag, input_rate=trace.rate).partitioning
    placement = Placement(num_hosts=4, partitions_per_host=2)
    plan = DistributedOptimizer(dag, placement, chosen).optimize()
    sim = ClusterSimulator(dag, plan, stream_rate=trace.rate)
    splitter = HashSplitter(placement.num_partitions, chosen)
    sources = {"TCP": trace.column_batch()}

    def run(streaming: bool):
        return sim.run(sources, splitter, trace.duration_sec, streaming=streaming)

    # Same answer either way, then alternated timings so that machine
    # drift touches both sides alike.
    assert run(True).outputs.row_count() == run(False).outputs.row_count() > 0
    streaming = oneshot = float("inf")
    for _ in range(20):
        streaming = min(streaming, _wall(lambda: run(True)))
        oneshot = min(oneshot, _wall(lambda: run(False)))
    ratio = streaming / oneshot
    print(
        f"\nstep overhead: streaming {streaming * 1e3:.1f} ms / one-shot "
        f"{oneshot * 1e3:.1f} ms = {ratio:.2f} (gate <= {MAX_RATIO})"
    )
    assert ratio <= MAX_RATIO, (
        f"streaming is {ratio:.2f}x the one-shot wall on a {FAMILIES * 3}-query "
        f"set (gate {MAX_RATIO}): the per-step cost outside the kernels grew"
    )
