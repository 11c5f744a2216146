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

Generation is NumPy-vectorized and fully determined by the seed: a
handful of whole-array draws fix every flow (its size, 5-tuple, activity
window and whether it is suspicious), then three more draw every
packet's moment in its flow's lifetime, its length and its flag.  A
NumPy release that changes ``Generator``'s algorithms changes every
seeded trace; ``tests/test_trace_parity.py`` pins their digests.  Each
column is held at its header width (:data:`TRACE_COLUMNS`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from ..engine.columnar import _sort_order
from .packet import ACK, ATTACK_PATTERN, FIN, PSH, SYN, URG, Packet

#: Column order of a generated trace (also the row dicts' key order) and
#: each column's dtype: the header width ``tcp_schema()`` declares, so
#: addresses are ``uint32``, ports ``uint16``, protocol and flags
#: ``uint8``; ``len`` takes the IP total-length field's ``uint16``, below
#: the schema's ``uint``.  ``time`` and ``timestamp`` stay ``int64``: a
#: microsecond timestamp passes 2**32 after 71 minutes.
TRACE_COLUMNS: Dict[str, type] = {
    "srcIP": np.uint32,
    "destIP": np.uint32,
    "srcPort": np.uint16,
    "destPort": np.uint16,
    "protocol": np.uint8,
    "time": np.int64,
    "timestamp": np.int64,
    "flags": np.uint8,
    "len": np.uint16,
}


def at_trace_width(name: str, values) -> np.ndarray:
    """``values`` as trace column ``name``'s dtype; a value the dtype
    cannot hold raises a ``ValueError`` naming the column."""
    dtype = np.dtype(TRACE_COLUMNS[name])
    column = np.asarray(values)
    if column.dtype == dtype:
        return column
    if len(column):
        bounds = np.iinfo(dtype)
        low, high = column.min(), column.max()
        if low < bounds.min or high > bounds.max:
            bad = low if low < bounds.min else high
            raise ValueError(
                f"trace column {name!r} holds {bad}, outside {dtype}'s "
                f"range [{bounds.min}, {bounds.max}]"
            )
    return column.astype(dtype)


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
        # `not value > 0` also rejects NaN.
        for name in (
            "mean_flow_packets",
            "heavy_tail_alpha",
            "num_src_hosts",
            "num_dst_hosts",
            "num_taps",
            "flows_per_session",
        ):
            if not getattr(self, name) > 0:
                raise ValueError(
                    f"trace {name} must be positive, got {getattr(self, name)}"
                )
        for name in ("mean_flow_lifetime", "session_spread", "seed"):
            if not getattr(self, name) >= 0:
                raise ValueError(
                    f"trace {name} must be non-negative, got {getattr(self, name)}"
                )
        if not 0 <= self.suspicious_fraction <= 1:
            raise ValueError(
                f"trace suspicious_fraction must be in [0, 1], got "
                f"{self.suspicious_fraction}"
            )
        for name, hosts in (("src", self.num_src_hosts), ("dst", self.num_dst_hosts)):
            base = getattr(self, f"{name}_base")
            if not 0 <= base <= (1 << 32) - hosts:
                raise ValueError(
                    f"trace {name}_base must leave {name} addresses in 32 "
                    f"bits, got {name}_base={base} num_{name}_hosts={hosts}"
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
            self._packets = self.column_batch().to_rows()
        return self._packets

    @property
    def columns(self) -> Dict[str, np.ndarray]:
        """The trace as column arrays (built from rows on demand)."""
        if self._columns is None:
            self._columns = {
                name: at_trace_width(
                    name, [packet[name] for packet in self._packets]
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
    """Generate one deterministic synthetic trace.

    The per-flow parameters come from a handful of whole-array draws.
    Then, for every packet at once: its moment as a uniform fraction of
    its flow's lifetime, its length in [40, 1500) and its pick from its
    flow's flag menu.  Rows are sorted by (time, timestamp), and each
    flow's first packet in that order carries its opener.
    """
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
    # under the paper's srcIP & 0xFFF0 mask.  Each per-flow column takes
    # its trace width as soon as it is drawn.
    num_sessions = max(1, int(round(num_flows / config.flows_per_session)))
    session_client = rng.integers(0, config.num_src_hosts, num_sessions)
    session_dst = config.dst_base + rng.integers(0, config.num_dst_hosts, num_sessions)
    session_of_flow = rng.integers(0, num_sessions, num_flows)
    per_flow = {
        name: values.astype(TRACE_COLUMNS[name])
        for name, values in (
            ("srcIP", config.src_base + session_client[session_of_flow]),
            ("destIP", session_dst[session_of_flow]),
            ("srcPort", rng.integers(1024, 65536, num_flows)),
            ("destPort", rng.choice(np.array([80, 443, 22, 25, 53, 8080]), num_flows)),
        )
    }

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

    # Packets, drawn for the whole trace at once: each one's moment in
    # its flow's lifetime, its length and its pick from its flow's flag
    # menu (the attack menu's picks index past the normal one's).
    counts = packets_per_flow
    rows = int(counts.sum())
    moments = rng.random(rows)
    lengths = rng.integers(_LENGTH_LOW, _LENGTH_HIGH, rows, dtype=np.uint16)
    menu_sizes = np.where(suspicious, len(_ATTACK_FLAGS), len(_NORMAL_FLAGS))
    picks = rng.integers(
        0, np.repeat(menu_sizes.astype(np.uint8), counts), dtype=np.uint8
    )
    picks[np.repeat(suspicious, counts)] += len(_NORMAL_FLAGS)
    flags = _FLAG_TABLE.take(picks)
    del picks
    moments *= np.repeat(lifetimes, counts)
    moments += np.repeat(starts, counts)
    # The second fits a byte or two until the trace is written out.
    time = moments.astype(np.min_scalar_type(config.duration))
    moments *= 1_000_000
    timestamp = moments.astype(np.int64)
    del moments
    order = _time_order(time, timestamp)

    # A flow's first packet in trace order opens it: SYN, or the full
    # attack pattern (which guarantees the flags' OR-fold).  The normal
    # menu already carries ACK on every later packet.
    rank = np.empty(rows, dtype=np.min_scalar_type(rows))
    rank[order] = np.arange(rows, dtype=rank.dtype)
    openers = np.minimum.reduceat(rank, np.cumsum(counts) - counts)
    del rank
    # The peak stays near 1.2x the returned columns
    # (bench_trace_generation.py): both time columns sort in place (time
    # and timestamp rise together, so each one's sorted order is its
    # take(order)), every other sorted column replaces its unsorted copy,
    # and a per-flow column is repeated at its own width, not gathered
    # through a row-to-flow index that take() would widen to intp.
    time.sort()
    timestamp.sort()
    lengths = lengths.take(order)
    flags = flags.take(order)
    flags[openers] = np.where(suspicious, ATTACK_PATTERN, SYN)
    columns = {
        name: np.repeat(values, counts).take(order)
        for name, values in per_flow.items()
    }
    del order
    columns.update(
        protocol=np.full(rows, 6, dtype=TRACE_COLUMNS["protocol"]),  # TCP
        time=time.astype(TRACE_COLUMNS["time"]),
        timestamp=timestamp,
        flags=flags,
        len=lengths,
    )
    return Trace(
        columns=columns,
        config=config,
        duration_sec=float(config.duration),
        flow_count=num_flows,
        suspicious_flow_count=int(suspicious.sum()),
    )


# Packet lengths are integers(40, 1500); a flag pick indexes the normal
# menu, then the attack menu.
_LENGTH_LOW, _LENGTH_HIGH = 40, 1500
_NORMAL_FLAGS = (ACK, ACK | PSH, SYN | ACK, FIN | ACK)
_ATTACK_FLAGS = (FIN, PSH, URG, FIN | PSH, PSH | URG)
_FLAG_TABLE = np.array(_NORMAL_FLAGS + _ATTACK_FLAGS, dtype=TRACE_COLUMNS["flags"])


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
    candidate addresses through ``partitioning.vector_partitioner`` — the
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
    pools = _key_pools(partitioning, num_partitions, keys_per_partition)

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
        "protocol": np.full(n, 6),
        "time": np.concatenate(time_parts),
        "timestamp": np.concatenate(timestamp_parts),
        "flags": rng.choice(np.array([ACK, ACK | PSH, SYN | ACK]), n),
        "len": rng.integers(40, 1500, n),
    }
    columns = {
        name: at_trace_width(name, column) for name, column in columns.items()
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


def _key_pools(
    partitioning, num_partitions: int, keys_per_partition: int
) -> List[List[int]]:
    """The first ``keys_per_partition`` addresses from 10.0.0.0 up that
    hash to each partition (every other column zero), hashed a block of
    candidates at a time."""
    partition = partitioning.vector_partitioner(num_partitions)
    block = 4096
    zeros = np.zeros(block, dtype=np.int64)
    probe = {name: zeros for name in TRACE_COLUMNS}
    pools: List[List[int]] = [[] for _ in range(num_partitions)]
    missing = num_partitions * keys_per_partition
    for start in range(0x0A000000, 0x0A000000 + 1_000_000, block):
        probe["srcIP"] = np.arange(start, start + block, dtype=np.int64)
        indices = partition(probe, block).tolist()
        for candidate, index in enumerate(indices, start):
            pool = pools[index]
            if len(pool) < keys_per_partition:
                pool.append(candidate)
                missing -= 1
                if not missing:
                    return pools
    raise RuntimeError("trial hashing failed to fill the key pools")  # pragma: no cover


def _sorted_by_time(columns: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Order columns by (time, timestamp), stably — like sort_by_time."""
    order = _time_order(columns["time"], columns["timestamp"])
    return {name: column[order] for name, column in columns.items()}


def _time_order(time: np.ndarray, timestamp: np.ndarray) -> np.ndarray:
    """The permutation a stable lexsort by (time, timestamp) returns: the
    group-by's ordering sort (one sort of packed codes when the fields
    fit 64 bits)."""
    if not len(time):
        return np.arange(0)
    return _sort_order([time, timestamp], len(time))[0]


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
        name: at_trace_width(
            name, np.concatenate([trace.columns[name] for trace in traces])
        )
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
