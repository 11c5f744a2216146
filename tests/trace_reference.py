"""The per-flow trace generator, kept as the reference the vectorized
:func:`repro.traces.generate_trace` must reproduce bit for bit.

This is the generator as it was before it drew every packet in one
pass: one NumPy ``uniform``/``integers``/``choice`` call each per flow,
in flow order, so the parity tests in ``test_trace_parity.py`` pin down
exactly which draws of the seeded stream land in which column.
"""

from typing import List

import numpy as np

from repro.traces import Trace, TraceConfig
from repro.traces.packet import ACK, ATTACK_PATTERN, FIN, PSH, SYN, URG


def reference_trace(config: TraceConfig = TraceConfig()) -> Trace:
    """The trace :func:`repro.traces.generate_trace` must equal, one flow at a time."""
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
    order = np.lexsort((columns["timestamp"], columns["time"]))
    return Trace(
        columns={name: column[order] for name, column in columns.items()},
        config=config,
        duration_sec=float(config.duration),
        flow_count=num_flows,
        suspicious_flow_count=int(suspicious.sum()),
    )
