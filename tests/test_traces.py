"""Synthetic trace generation: structure and statistics."""

import hashlib
from collections import defaultdict

import numpy as np
import pytest

from repro.partitioning import PartitioningSet
from repro.traces import (
    ACK,
    ATTACK_PATTERN,
    TraceConfig,
    format_ip,
    four_tap_trace,
    generate_trace,
    ip,
    merge_taps,
    skewed_trace,
)
from repro.traces.generator import TRACE_COLUMNS


@pytest.fixture(scope="module")
def trace():
    return generate_trace(TraceConfig(duration=10, rate=800, num_taps=1, seed=42))


class TestPacketHelpers:
    def test_ip_round_trip(self):
        value = ip(10, 1, 2, 3)
        assert format_ip(value) == "10.1.2.3"

    def test_ip_validates_octets(self):
        with pytest.raises(ValueError):
            ip(256, 0, 0, 0)

    def test_attack_pattern_has_no_ack(self):
        assert ATTACK_PATTERN & ACK == 0


class TestGeneration:
    def test_deterministic_for_seed(self):
        config = TraceConfig(duration=3, rate=200, num_taps=1, seed=9)
        first = generate_trace(config)
        second = generate_trace(config)
        assert first.packets == second.packets

    def test_different_seeds_differ(self):
        a = generate_trace(TraceConfig(duration=3, rate=200, num_taps=1, seed=1))
        b = generate_trace(TraceConfig(duration=3, rate=200, num_taps=1, seed=2))
        assert a.packets != b.packets

    def test_packet_count_close_to_target(self, trace):
        target = trace.config.total_packets()
        assert abs(len(trace.packets) - target) < 0.05 * target

    def test_time_ordering(self, trace):
        times = [(p["time"], p["timestamp"]) for p in trace.packets]
        assert times == sorted(times)

    def test_times_within_duration(self, trace):
        assert all(0 <= p["time"] < trace.config.duration for p in trace.packets)

    def test_schema_fields_present(self, trace):
        expected = {
            "time",
            "timestamp",
            "srcIP",
            "destIP",
            "srcPort",
            "destPort",
            "protocol",
            "flags",
            "len",
        }
        assert set(trace.packets[0]) == expected

    def test_flow_count_metadata(self, trace):
        flows = {
            (p["srcIP"], p["destIP"], p["srcPort"], p["destPort"])
            for p in trace.packets
        }
        # metadata counts generated flows; a few may collide on 5-tuples
        assert 0.9 * len(flows) <= trace.flow_count <= 1.1 * len(flows)


class TestSuspiciousFlows:
    def test_fraction_near_configured(self, trace):
        assert (
            0.3 * trace.flow_count * trace.config.suspicious_fraction
            <= trace.suspicious_flow_count
            <= 2.5 * trace.flow_count * trace.config.suspicious_fraction
        )

    def test_suspicious_flows_or_to_pattern(self, trace):
        """Every suspicious flow's OR-fold equals the attack pattern and
        no normal flow's does (the §6.1 HAVING separates them exactly)."""
        or_fold = defaultdict(int)
        for p in trace.packets:
            key = (p["srcIP"], p["destIP"], p["srcPort"], p["destPort"])
            or_fold[key] |= p["flags"]
        matching = sum(1 for v in or_fold.values() if v == ATTACK_PATTERN)
        assert matching > 0
        # normal flows always carry ACK, the pattern never does
        for value in or_fold.values():
            if value != ATTACK_PATTERN:
                assert value & ACK

    def test_session_structure_creates_concurrent_flows(self):
        config = TraceConfig(
            duration=10, rate=1000, num_taps=1, seed=3, flows_per_session=6.0
        )
        trace = generate_trace(config)
        by_pair = defaultdict(set)
        for p in trace.packets:
            by_pair[(p["srcIP"], p["destIP"])].add((p["srcPort"], p["destPort"]))
        multi = [pair for pair, flows in by_pair.items() if len(flows) >= 3]
        assert multi, "expected sessions with several parallel connections"


class TestTaps:
    def test_merge_taps_interleaves_time_ordered(self):
        config = TraceConfig(duration=4, rate=100, num_taps=1, seed=1)
        merged = merge_taps([generate_trace(config), generate_trace(config)])
        times = [p["time"] for p in merged.packets]
        assert times == sorted(times)

    def test_merge_taps_sums_counts(self):
        config = TraceConfig(duration=4, rate=100, num_taps=1, seed=1)
        t = generate_trace(config)
        merged = merge_taps([t, t])
        assert merged.flow_count == 2 * t.flow_count

    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_taps([])

    def test_four_tap_rate_matches_total(self):
        config = TraceConfig(duration=5, rate=1000, num_taps=4, seed=2)
        trace = four_tap_trace(config)
        assert abs(trace.rate - 1000) < 100
        assert trace.notes == {"taps": 4}


@pytest.mark.parametrize(
    "field, value",
    [
        ("duration", 0),
        ("rate", -5),
        ("mean_flow_packets", 0),
        ("mean_flow_packets", float("nan")),
        ("heavy_tail_alpha", 0),
        ("num_src_hosts", 0),
        ("num_dst_hosts", 0),
        ("num_taps", 0),
        ("flows_per_session", 0),
        ("mean_flow_lifetime", -1.0),
        ("session_spread", -0.5),
        ("seed", -1),
        ("suspicious_fraction", 1.5),
        ("suspicious_fraction", -0.1),
        ("src_base", -1),
        ("dst_base", (1 << 32) - 1),
    ],
)
def test_config_rejects_a_bad_field_by_name(field, value):
    with pytest.raises(ValueError, match=field):
        TraceConfig(**{field: value})


@pytest.mark.parametrize(
    "spec, digest",
    [
        (("srcIP",), "c91807f67131d38030d4f0111a08257d8af827e95b5d1a0f02637b8b8b3df49b"),
        (
            ("srcIP & 0xFFF0", "destIP"),
            "464d31c08ba9de2133cef20a10eaa38a65ce2590bee3830445b5c58ac02440aa",
        ),
    ],
)
def test_skewed_trace_is_pinned(spec, digest):
    """The key pools are filled by hashing blocks of candidate addresses
    at once; the drifting trace must stay the one the per-address loop
    that hashed one candidate at a time produced."""
    trace = skewed_trace(
        PartitioningSet.of(*spec),
        8,
        [0.30, 0.20, 0.10, 0.08, 0.08, 0.08, 0.08, 0.08],
        duration=8,
        rate=500,
        drift_period=2,
    )
    sha = hashlib.sha256()
    for name in TRACE_COLUMNS:
        sha.update(name.encode())
        sha.update(np.ascontiguousarray(trace.columns[name], dtype=np.int64).tobytes())
    assert sha.hexdigest() == digest
