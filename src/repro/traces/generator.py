"""Synthetic packet-trace generation.

The paper replays a one-hour, ~400 Mbit/s trace combined from four data
center taps.  That trace is proprietary, so this module synthesizes the
flow-level structure the experiments actually depend on:

* traffic is organized into 5-tuple *flows* with heavy-tailed packet
  counts (a few heavy flows, many mice) — this drives the aggregation
  queries' group cardinalities and the heavy_flows/flow_pairs results;
* flows persist across consecutive time epochs, so epoch-correlation
  self-joins (flow_pairs, jitter) find matches;
* about 5 % of flows are *suspicious*: their packets' TCP-flag OR-fold
  equals :data:`~repro.traces.packet.ATTACK_PATTERN` and never includes
  ACK, matching the paper's §6.1 observation that "suspicious flows
  accounted for about 5 % of the total number of flows";
* source addresses spread over many /28 subnets and destinations over a
  configurable host pool, controlling the cardinality ratios between
  flow-level and subnet-level aggregations (experiment 2's crossover);
* the trace can be produced as several *taps* merged together, like the
  paper's four concurrent capture points.

Generation is NumPy-vectorized and fully determined by the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from .packet import ACK, ATTACK_PATTERN, FIN, PSH, SYN, URG, Packet

# Column order of a generated trace (also the row dicts' key order).
TRACE_COLUMNS = (
    "srcIP",
    "destIP",
    "srcPort",
    "destPort",
    "protocol",
    "time",
    "timestamp",
    "flags",
    "len",
)


@dataclass(frozen=True)
class TraceConfig:
    """Knobs for the synthetic trace.

    The defaults produce roughly 2 000 packets/second for 30 seconds —
    minutes-equivalent of the paper's workload at a scale a Python
    simulator sweeps comfortably (see DESIGN.md's scale substitution).
    """

    duration: int = 20  # seconds of trace
    rate: int = 2000  # total packets per second (all taps)
    mean_flow_packets: float = 64.0  # average packets per flow
    heavy_tail_alpha: float = 1.2  # Pareto shape: smaller = heavier tail
    suspicious_fraction: float = 0.05  # share of flows that are attacks
    num_src_hosts: int = 192  # distinct client addresses (12 /28 subnets)
    num_dst_hosts: int = 64  # distinct server addresses
    src_base: int = 0x0A000000  # 10.0.0.0
    dst_base: int = 0xC0A80000  # 192.168.0.0
    num_taps: int = 4  # capture points merged into the feed
    mean_flow_lifetime: float = 4.0  # seconds a flow stays active
    # Data-center traffic is session-structured: a client opens several
    # *concurrent* connections (distinct source ports) to one server — a
    # browser's parallel fetches, a benchmark's connection pool.  One
    # session therefore spans one (srcIP, destIP) pair, one (srcIP & mask,
    # destIP) subnet group, and several distinct 5-tuple flows active at
    # the same time.  This concurrency is what makes coarser-grained
    # aggregation groups straddle many partitions under flow-level
    # hashing — the effect behind the paper's experiments 2 and 3.
    flows_per_session: float = 4.0
    session_spread: float = 1.0  # stagger (s) of a session's flow starts
    seed: int = 7

    def __post_init__(self):
        if self.duration <= 0 or self.rate <= 0:
            raise ValueError(
                f"trace duration and rate must be positive, got "
                f"duration={self.duration} rate={self.rate}"
            )

    def total_packets(self) -> int:
        return self.duration * self.rate

    def expected_flows(self) -> int:
        return max(1, int(self.total_packets() / self.mean_flow_packets))


class Trace:
    """A generated trace plus the metadata experiments need.

    The trace is held natively as NumPy column arrays (``columns``) and/or
    as a list of dict rows (``packets``); whichever representation is
    absent is derived lazily and cached, so the runtime consumes the
    generator's arrays zero-copy while row-based code (the oracle, the
    tests) keeps working unchanged.
    """

    def __init__(
        self,
        packets: Optional[List[Packet]] = None,
        config: TraceConfig = TraceConfig(),
        duration_sec: float = 0.0,
        flow_count: int = 0,
        suspicious_flow_count: int = 0,
        notes: Optional[dict] = None,
        columns: Optional[Dict[str, np.ndarray]] = None,
    ):
        if packets is None and columns is None:
            raise ValueError("a trace needs packets or columns")
        self._packets = packets
        self._columns = columns
        self.config = config
        self.duration_sec = duration_sec
        self.flow_count = flow_count
        self.suspicious_flow_count = suspicious_flow_count
        self.notes = notes if notes is not None else {}

    @property
    def packets(self) -> List[Packet]:
        """The trace as row dicts (materialized from columns on demand)."""
        if self._packets is None:
            names = list(self._columns)
            pools = [self._columns[name].tolist() for name in names]
            self._packets = [
                dict(zip(names, values)) for values in zip(*pools)
            ]
        return self._packets

    @property
    def columns(self) -> Dict[str, np.ndarray]:
        """The trace as column arrays (built from rows on demand)."""
        if self._columns is None:
            self._columns = {
                name: np.asarray(
                    [packet[name] for packet in self._packets], dtype=np.int64
                )
                for name in TRACE_COLUMNS
            }
        return self._columns

    def column_batch(self):
        """A zero-copy :class:`~repro.engine.columnar.ColumnBatch` view."""
        from ..engine.columnar import ColumnBatch

        return ColumnBatch(dict(self.columns), self.num_packets)

    @property
    def num_packets(self) -> int:
        if self._columns is not None:
            first = next(iter(self._columns.values()))
            return len(first)
        return len(self._packets)

    @property
    def rate(self) -> float:
        """Measured packets per second."""
        return self.num_packets / self.duration_sec


def generate_trace(config: TraceConfig = TraceConfig()) -> Trace:
    """Generate one deterministic synthetic trace."""
    rng = np.random.default_rng(config.seed)
    num_flows = config.expected_flows()

    # Heavy-tailed packets-per-flow: shifted Pareto, clipped so one flow
    # cannot swallow the whole trace.
    raw = rng.pareto(config.heavy_tail_alpha, num_flows) + 1.0
    weights = raw / raw.sum()
    packets_per_flow = np.maximum(
        1, np.round(weights * config.total_packets()).astype(np.int64)
    )

    # 5-tuples, session-structured.  A *session* is one (client, server)
    # pair carrying flows_per_session concurrent connections that differ
    # only in source port; clients sit in /28 subnets (16 per subnet)
    # under the paper's srcIP & 0xFFF0 mask.
    num_sessions = max(1, int(round(num_flows / config.flows_per_session)))
    session_client = rng.integers(0, config.num_src_hosts, num_sessions)
    session_dst = config.dst_base + rng.integers(0, config.num_dst_hosts, num_sessions)
    session_of_flow = rng.integers(0, num_sessions, num_flows)
    src_ips = config.src_base + session_client[session_of_flow]
    dst_ips = session_dst[session_of_flow]
    src_ports = rng.integers(1024, 65536, num_flows)
    dst_ports = rng.choice(
        np.array([80, 443, 22, 25, 53, 8080]), num_flows
    )
    protocols = np.full(num_flows, 6)  # TCP

    suspicious = rng.random(num_flows) < config.suspicious_fraction

    # Flow activity windows.  A session starts at a random point of the
    # trace; its flows start within session_spread of it (parallel
    # connections) and live an exponential lifetime.
    session_start = rng.uniform(0, config.duration, num_sessions)
    starts = np.minimum(
        session_start[session_of_flow]
        + rng.uniform(0, config.session_spread, num_flows),
        config.duration - 0.5,
    )
    lifetimes = np.minimum(
        rng.exponential(config.mean_flow_lifetime, num_flows) + 0.5,
        config.duration - starts,
    )

    # Per-flow packet attributes, gathered as arrays and assembled into
    # columns at the end — the runtime consumes them zero-copy.
    time_parts: List[np.ndarray] = []
    timestamp_parts: List[np.ndarray] = []
    length_parts: List[np.ndarray] = []
    flag_parts: List[np.ndarray] = []
    normal_flag_menu = np.array([ACK, ACK | PSH, SYN | ACK, FIN | ACK])
    attack_flag_menu = np.array([FIN, PSH, URG, FIN | PSH, PSH | URG])
    for index in range(num_flows):
        count = int(packets_per_flow[index])
        offsets = np.sort(rng.uniform(0.0, float(lifetimes[index]), count))
        times = (starts[index] + offsets).astype(np.int64)
        timestamps = ((starts[index] + offsets) * 1_000_000).astype(np.int64)
        lengths = rng.integers(40, 1500, count)
        if suspicious[index]:
            flags = rng.choice(attack_flag_menu, count)
            # Guarantee the OR-fold reaches the full attack pattern.
            flags[0] = ATTACK_PATTERN
        else:
            flags = rng.choice(normal_flag_menu, count)
            flags[0] = SYN  # connection setup
            flags = flags | np.where(np.arange(count) > 0, ACK, 0)
        time_parts.append(times)
        timestamp_parts.append(timestamps)
        length_parts.append(lengths)
        flag_parts.append(flags)

    counts = packets_per_flow
    columns = {
        "srcIP": np.repeat(src_ips, counts).astype(np.int64),
        "destIP": np.repeat(dst_ips, counts).astype(np.int64),
        "srcPort": np.repeat(src_ports, counts).astype(np.int64),
        "destPort": np.repeat(dst_ports, counts).astype(np.int64),
        "protocol": np.repeat(protocols, counts).astype(np.int64),
        "time": np.concatenate(time_parts),
        "timestamp": np.concatenate(timestamp_parts),
        "flags": np.concatenate(flag_parts).astype(np.int64),
        "len": np.concatenate(length_parts).astype(np.int64),
    }
    return Trace(
        columns=_sorted_by_time(columns),
        config=config,
        duration_sec=float(config.duration),
        flow_count=num_flows,
        suspicious_flow_count=int(suspicious.sum()),
    )


def skewed_trace(
    partitioning,
    num_partitions: int,
    partition_weights: List[float],
    duration: int = 20,
    rate: int = 2000,
    seed: int = 7,
    keys_per_partition: int = 6,
    drift_period: Optional[int] = None,
) -> Trace:
    """A trace whose *partition* load follows ``partition_weights``.

    The generators above model realistic traffic; this one models
    adversarial **key skew**: each packet's ``srcIP`` is drawn from a
    per-partition key pool so that partition ``p`` receives
    ``partition_weights[p]`` of the stream, regardless of how the hash
    scatters ordinary addresses.  The pools are found by trial-hashing
    candidate addresses through ``partitioning.partitioner`` — the same
    function the :class:`~repro.cluster.splitter.HashSplitter` applies —
    so the skew survives splitting exactly as specified.

    With ``drift_period`` the weight vector rotates by one partition
    every that-many epochs: the hot spot *moves*, the scenario a static
    partition placement cannot chase but an adaptive rebalancer can.

    Epochs are one second; every epoch carries ``rate`` packets.  The
    result is time-sorted and uses all of :data:`TRACE_COLUMNS`.
    """
    if len(partition_weights) != num_partitions:
        raise ValueError(
            f"got {len(partition_weights)} weights for "
            f"{num_partitions} partitions"
        )
    total = float(sum(partition_weights))
    if total <= 0 or any(w < 0 for w in partition_weights):
        raise ValueError("partition weights must be nonnegative, sum > 0")
    weights = np.asarray(partition_weights, dtype=np.float64) / total
    assign = partitioning.partitioner(num_partitions)
    pools: List[List[int]] = [[] for _ in range(num_partitions)]
    found = 0
    candidate = 0x0A000000
    probe = {name: 0 for name in TRACE_COLUMNS}
    while found < num_partitions * keys_per_partition:
        probe["srcIP"] = candidate
        pool = pools[assign(probe)]
        if len(pool) < keys_per_partition:
            pool.append(candidate)
            found += 1
        candidate += 1
        if candidate - 0x0A000000 > 1_000_000:  # pragma: no cover
            raise RuntimeError("trial hashing failed to fill the key pools")

    rng = np.random.default_rng(seed)
    src_parts: List[np.ndarray] = []
    time_parts: List[np.ndarray] = []
    timestamp_parts: List[np.ndarray] = []
    for epoch in range(duration):
        epoch_weights = weights
        if drift_period is not None and drift_period > 0:
            epoch_weights = np.roll(weights, epoch // drift_period)
        counts = rng.multinomial(rate, epoch_weights)
        src = np.concatenate(
            [
                rng.choice(np.asarray(pools[p], dtype=np.int64), count)
                for p, count in enumerate(counts)
                if count
            ]
        )
        rng.shuffle(src)
        src_parts.append(src)
        time_parts.append(np.full(rate, epoch, dtype=np.int64))
        timestamp_parts.append(
            epoch * 1_000_000
            + np.sort(rng.integers(0, 1_000_000, rate)).astype(np.int64)
        )
    n = duration * rate
    columns = {
        "srcIP": np.concatenate(src_parts),
        "destIP": 0xC0A80000 + rng.integers(0, 64, n),
        "srcPort": rng.integers(1024, 65536, n),
        "destPort": rng.choice(np.array([80, 443, 22, 8080]), n),
        "protocol": np.full(n, 6, dtype=np.int64),
        "time": np.concatenate(time_parts),
        "timestamp": np.concatenate(timestamp_parts),
        "flags": rng.choice(np.array([ACK, ACK | PSH, SYN | ACK]), n),
        "len": rng.integers(40, 1500, n),
    }
    columns = {
        name: np.asarray(column, dtype=np.int64)
        for name, column in columns.items()
    }
    return Trace(
        columns=_sorted_by_time(columns),
        config=TraceConfig(duration=duration, rate=rate, seed=seed),
        duration_sec=float(duration),
        flow_count=0,
        suspicious_flow_count=0,
        notes={
            "skew": [round(float(w), 4) for w in weights],
            "drift_period": drift_period,
        },
    )


def _sorted_by_time(columns: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Order columns by (time, timestamp), stably — like sort_by_time."""
    order = np.lexsort((columns["timestamp"], columns["time"]))
    return {name: column[order] for name, column in columns.items()}


def slice_by_epoch(batch, column: str = "time"):
    """Split a :class:`~repro.engine.columnar.ColumnBatch` into
    ``[(epoch value, sub-batch), ...]``, ascending.

    Generated traces arrive sorted by the epoch column, in which case the
    slices are zero-copy array views; unsorted input is stably sorted by
    the epoch value first, so within-epoch order is preserved either way.
    """
    if len(batch) == 0:
        return []
    values = np.asarray(batch.column(column))
    if np.any(values[1:] < values[:-1]):
        order = np.argsort(values, kind="stable")
        batch = batch.select(order)
        values = values[order]
    # A boolean temporary, not np.diff's full-width one: a trace-sized
    # int64 scratch array per run showed up as peak-RSS jitter.
    edges = np.flatnonzero(values[1:] != values[:-1]) + 1
    starts = np.concatenate(([0], edges))
    stops = np.concatenate((edges, [len(values)]))
    return [
        (values[start].item(), batch.slice(int(start), int(stop)))
        for start, stop in zip(starts, stops)
    ]


def merge_taps(traces: List[Trace]) -> Trace:
    """Combine concurrently captured taps into one feed (paper §6: "the
    trace was obtained by combining four different one-hour traces
    captured concurrently using four data center taps")."""
    if not traces:
        raise ValueError("need at least one tap")
    merged = {
        name: np.concatenate([trace.columns[name] for trace in traces])
        for name in TRACE_COLUMNS
    }
    return Trace(
        columns=_sorted_by_time(merged),
        config=traces[0].config,
        duration_sec=max(trace.duration_sec for trace in traces),
        flow_count=sum(trace.flow_count for trace in traces),
        suspicious_flow_count=sum(t.suspicious_flow_count for t in traces),
        notes={"taps": len(traces)},
    )


def four_tap_trace(config: TraceConfig = TraceConfig()) -> Trace:
    """The paper's setup: ``num_taps`` concurrent captures merged.

    Each tap gets a distinct seed and 1/num_taps of the total rate.
    """
    per_tap_rate = max(1, config.rate // config.num_taps)
    taps = []
    for tap in range(config.num_taps):
        tap_config = replace(
            config,
            rate=per_tap_rate,
            num_taps=1,
            seed=config.seed * 1000 + tap,
        )
        taps.append(generate_trace(tap_config))
    return merge_taps(taps)
