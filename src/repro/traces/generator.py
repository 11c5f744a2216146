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

Generation is NumPy-vectorized and fully determined by the seed.  It
is also *RNG-identical* to a per-flow loop, kept as the reference in
``tests/trace_reference.py``: the per-flow parameters come from the same
whole-array draws, and the packets come from the PCG64 raw 64-bit words
those loop calls would have consumed.  Per flow of ``c`` packets, in
flow order: ``c`` words for the offsets, then ``2c`` 32-bit draws (each
word's low half, then its high half, which a later draw may take) for
the lengths and flag-menu picks, each bounded by NumPy's Lemire step
(see :func:`_packet_draws`).  ``tests/test_trace_parity.py`` holds the
two equal column for column, so a NumPy release that changes
``Generator``'s algorithms fails it rather than silently changing every
seeded trace.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from ..engine.columnar import _sort_order
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
    """Generate one deterministic synthetic trace.

    The per-flow parameters come from a handful of whole-array draws.
    The packets then come from one pass over the bit generator's raw
    64-bit words that reproduces, bit for bit, a loop drawing each flow's
    ``uniform(0, lifetime, c)`` offsets, ``integers(40, 1500, c)``
    lengths and ``choice(menu, c)`` flags in flow order (see
    :func:`_packet_draws`); ``tests/trace_reference.py`` keeps that loop.
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

    counts = packets_per_flow
    menu_sizes = np.where(suspicious, len(_ATTACK_FLAGS), len(_NORMAL_FLAGS))
    keys, lengths, picks = _packet_draws(
        rng.bit_generator, counts, menu_sizes.astype(np.uint32)
    )

    # Each flow's packets in ascending offset order.  An offset is
    # lifetime * ((w >> 11) * 2**-53), monotone in the 53-bit key.  Over
    # a block of 2**11 consecutive flows, a flow's place in the block
    # fits above its keys in 64 bits, and the block's rows are
    # contiguous: sorting each block's codes orders all its flows.
    place = np.arange(num_flows, dtype=np.uint64) % np.uint64(_SORT_BLOCK)
    keys |= np.repeat(place << np.uint64(53), counts)
    ends = np.cumsum(counts)
    edges = np.concatenate(([0], ends[_SORT_BLOCK - 1 :: _SORT_BLOCK], ends[-1:]))
    for start, stop in zip(edges[:-1], edges[1:]):
        keys[start:stop].sort()
    keys &= np.uint64((1 << 53) - 1)
    moments = keys.astype(np.float64)
    del keys
    moments *= 2.0**-53
    moments *= np.repeat(lifetimes, counts)
    moments += np.repeat(starts, counts)
    time = moments.astype(np.int64)
    moments *= 1_000_000
    timestamp = moments.astype(np.int64)
    del moments

    # A flow's first packet opens it: SYN, or the full attack pattern
    # (which guarantees the flags' OR-fold).  The normal menu already
    # carries ACK on every later packet.
    first_rows = ends - counts
    picks[np.repeat(suspicious, counts)] += len(_NORMAL_FLAGS)
    picks[first_rows] = np.where(suspicious, _OPENER_ATTACK, _OPENER_NORMAL)

    order = _time_order(time, timestamp)
    flow = np.repeat(np.arange(num_flows), counts).take(order)
    columns = {
        "srcIP": src_ips.take(flow),
        "destIP": dst_ips.take(flow),
        "srcPort": src_ports.take(flow),
        "destPort": dst_ports.take(flow),
        "protocol": protocols.take(flow),
        "time": time.take(order),
        "timestamp": timestamp.take(order),
        "flags": _FLAG_TABLE.take(picks.take(order)),
        "len": np.add(lengths.take(order), _LENGTH_LOW, dtype=np.int64),
    }
    return Trace(
        columns=columns,
        config=config,
        duration_sec=float(config.duration),
        flow_count=num_flows,
        suspicious_flow_count=int(suspicious.sum()),
    )


# Packet lengths are integers(40, 1500); flags index one table: the
# normal menu, the attack menu, then the two flow openers.
_LENGTH_LOW, _LENGTH_SPAN = 40, 1460
_NORMAL_FLAGS = (ACK, ACK | PSH, SYN | ACK, FIN | ACK)
_ATTACK_FLAGS = (FIN, PSH, URG, FIN | PSH, PSH | URG)
_FLAG_TABLE = np.array(_NORMAL_FLAGS + _ATTACK_FLAGS + (SYN, ATTACK_PATTERN))
_OPENER_NORMAL = len(_NORMAL_FLAGS) + len(_ATTACK_FLAGS)
_OPENER_ATTACK = _OPENER_NORMAL + 1
_MASK32 = (1 << 32) - 1
_SORT_BLOCK = 1 << 11


def _packet_draws(bit_generator, counts, menu_sizes):
    """Every packet's random draws, in flow order, from one pass over the
    raw stream: ``(keys, lengths, picks)``.

    The reference loop draws, per flow of ``c`` packets,
    ``uniform(0, lifetime, c)``, ``integers(40, 1500, c)`` and
    ``choice(menu, c)``.  On PCG64 that consumes:

    * ``c`` 64-bit words ``w`` for the offsets, each ``lifetime * ((w >>
      11) * 2**-53)``; ``keys`` holds ``w >> 11``;
    * ``2c`` 32-bit draws for the lengths, then the menu indexes.  A word
      yields its low half first; its high half is kept, across calls and
      flows, for the next draw (the state's ``has_uint32``/``uinteger``,
      which the calls before may have left set).  A draw ``u`` bounded by
      ``n`` is NumPy's Lemire step: ``m = u * n``, value ``m >> 32``,
      redrawn while ``m mod 2**32 < (2**32 - n) mod n`` -- 616 for the
      lengths, 1 for the five-entry attack menu, 0 for the normal one.

    Without a redraw a flow takes exactly ``2c`` words, so every flow's
    words sit at fixed offsets and all flows are drawn at once.  A flow
    with a redraw (about one 800k-row trace in nine has one) is walked
    draw by draw, and the pass resumes after it.  ``lengths`` holds the
    value above 40, ``picks`` the menu index.
    """
    rows = int(counts.sum())
    keys = np.empty(rows, dtype=np.uint64)
    lengths = np.empty(rows, dtype=np.uint16)
    picks = np.empty(rows, dtype=np.uint8)
    stream = _RawStream(bit_generator, 2 * rows)
    firsts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=firsts[1:])
    flow = 0
    while flow < len(counts):
        rest = slice(firsts[flow], rows)
        words = stream.peek(2 * (rows - firsts[flow]))
        redrawn = _draw_flows(
            words, counts[flow:], menu_sizes[flow:], stream.carry,
            keys[rest], lengths[rest], picks[rest],
        )
        if redrawn is None:
            break
        skipped = 2 * int(firsts[flow + redrawn] - firsts[flow])
        if skipped and stream.carry is not None:
            stream.carry = int(words[skipped - 1]) >> 32
        stream.skip(skipped)
        flow += redrawn
        rows_of_flow = slice(firsts[flow], firsts[flow + 1])
        count = int(counts[flow])
        keys[rows_of_flow] = stream.take(count) >> np.uint64(11)
        lengths[rows_of_flow] = [stream.bounded(_LENGTH_SPAN) for _ in range(count)]
        menu = int(menu_sizes[flow])
        picks[rows_of_flow] = [stream.bounded(menu) for _ in range(count)]
        flow += 1
    return keys, lengths, picks


def _draw_flows(words, counts, menu_sizes, carry, keys, lengths, picks):
    """Fill ``keys``, ``lengths`` and ``picks`` for consecutive flows from
    ``words`` (``2 * sum(counts)`` of them), as if no draw were redrawn.

    Returns the index of the first flow that redraws, whose rows and all
    later ones are then wrong, or None.  ``carry`` is the kept 32-bit
    half, or None.
    """
    # Each flow's block: its c offset words, then its c integer words.
    second = np.repeat(
        np.tile(np.array([False, True]), len(counts)), np.repeat(counts, 2)
    )
    np.right_shift(words[~second], np.uint64(11), out=keys)
    integer_words = words[second]
    # The 32-bit draw stream: the kept half, then low and high halves.
    # Every flow consumes exactly 2c draws, the same split as its words.
    halves = integer_words.astype("<u8", copy=False).view("<u4")
    if carry is not None:
        halves = np.concatenate((np.array([carry], np.uint32), halves[:-1]))
    del integer_words
    redrawn = _lemire(halves[~second], _LENGTH_SPAN, _threshold(_LENGTH_SPAN), lengths)
    redrawn |= _lemire(
        halves[second],
        np.repeat(menu_sizes, counts),
        np.repeat(_threshold(menu_sizes.astype(np.int64)), counts),
        picks,
    )
    rows = np.flatnonzero(redrawn)
    if not len(rows):
        return None
    return int(np.searchsorted(np.cumsum(counts), rows[0], side="right"))


def _threshold(bound):
    """Below this, NumPy redraws a 32-bit draw bounded by ``bound``."""
    return ((1 << 32) - bound) % bound


def _lemire(draws, bound, threshold, out):
    """NumPy's bounded draw below ``bound`` from 32-bit ``draws``, into
    ``out``; returns which draws NumPy would have redrawn."""
    redrawn = np.multiply(draws, bound, dtype=np.uint32) < threshold
    scaled = np.multiply(draws, bound, dtype=np.uint64)
    np.copyto(out, np.right_shift(scaled, 32, out=scaled), casting="unsafe")
    return redrawn


class _RawStream:
    """A bit generator's raw 64-bit words, read front to back, with the
    32-bit half its state holds back for the next 32-bit draw."""

    def __init__(self, bit_generator, count: int):
        state = bit_generator.state
        self.carry = int(state["uinteger"]) if state["has_uint32"] else None
        self._bit_generator = bit_generator
        self._words = bit_generator.random_raw(count)
        self._next = 0

    def peek(self, count: int) -> np.ndarray:
        """The next ``count`` words, not consumed."""
        missing = self._next + count - len(self._words)
        if missing > 0:
            self._words = np.concatenate(
                (self._words[self._next :], self._bit_generator.random_raw(missing))
            )
            self._next = 0
        return self._words[self._next : self._next + count]

    def skip(self, count: int) -> None:
        self._next += count

    def take(self, count: int) -> np.ndarray:
        words = self.peek(count)
        self.skip(count)
        return words

    def bounded(self, bound: int) -> int:
        """One ``integers(0, bound)`` draw, as NumPy makes it."""
        threshold = _threshold(bound)
        while True:
            if self.carry is None:
                word = int(self.take(1)[0])
                draw, self.carry = word & _MASK32, word >> 32
            else:
                draw, self.carry = self.carry, None
            scaled = draw * bound
            if scaled & _MASK32 >= threshold:
                return scaled >> 32


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
