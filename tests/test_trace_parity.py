"""The generated trace's contract, and its seeded traces pinned.

``generate_trace`` draws every flow (size, 5-tuple, activity window,
suspicious or not) first, then every packet's moment, length and flag
pick in three whole-array draws.  These tests pin each seeded trace's
digest, so a NumPy release that changes ``Generator``'s algorithms
fails them rather than silently changing every figure; pin each trace's
flows apart from its packets, so a change that should move only the
packet draws shows that it did; and check, per flow, what the queries
rely on: a flow opens with its first packet in trace order, a
suspicious flow's flags never include ACK and OR-fold to
``ATTACK_PATTERN``, lengths lie in [40, 1500) and ``time`` is the
second of ``timestamp``.  (The test names date from when these
configurations were compared with a per-flow reference loop.)
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.traces import (
    ACK,
    ATTACK_PATTERN,
    SYN,
    TraceConfig,
    four_tap_trace,
    generate_trace,
    merge_taps,
)
from repro.traces.generator import TRACE_COLUMNS
from repro.traces.packet import FIN, PSH, URG
from repro.workloads.experiments import (
    experiment1_trace_config,
    experiment2_trace_config,
    experiment3_trace_config,
)

EXPERIMENT_CONFIGS = {
    "exp1": experiment1_trace_config,
    "exp2": experiment2_trace_config,
    "exp3": experiment3_trace_config,
    "default": lambda seed: TraceConfig(seed=seed),
}

FLOW_KEY = ("srcIP", "destIP", "srcPort", "destPort", "protocol")
NORMAL_FLAGS = {ACK, ACK | PSH, SYN | ACK, FIN | ACK}
ATTACK_FLAGS = {FIN, PSH, URG, FIN | PSH, PSH | URG}

#: sha256 over every column of each seeded trace (experiment 1's config
#: is the default one).
COLUMN_DIGESTS = {
    ("default", 0): "5a5c8a7825cb60a719dd025d36acef873faf39b590f1e5dbd8c0d304fcb8a9fb",
    ("default", 7): "fbdb7189b8fb2da8b85074f2e6e17949f5fd75905c880d33bb589021a329cc16",
    ("exp1", 0): "5a5c8a7825cb60a719dd025d36acef873faf39b590f1e5dbd8c0d304fcb8a9fb",
    ("exp1", 7): "fbdb7189b8fb2da8b85074f2e6e17949f5fd75905c880d33bb589021a329cc16",
    ("exp2", 0): "0ce45f1dfb9b37ddfb629c5698b649a518c9f52af41eddb70cfa32b10a762865",
    ("exp2", 7): "873d71f5371282fcd2702e4f12c3e3394395c5fe9e8616d2874d2407742ab0dc",
    ("exp3", 0): "32791ea3bb0c230eb91657a9e66cf33ac0cae966c17d4f90129704a12d2571cc",
    ("exp3", 7): "7d5c68b704638a2dcb90cdc424e6b9f12a14344ae75188775bac3d4d3a421110",
}

#: sha256 over each seeded trace's flows alone: the sorted (5-tuple,
#: packet count, suspicious) rows, the flow count and the suspicious
#: count.  Recorded before the packet draws became whole-array draws,
#: which left every flow as it was.
FLOW_DIGESTS = {
    ("default", 0): "78538fe87f520faef203fd88bf31c35b6ad8fdc07a356326d51554a26cec95f2",
    ("default", 7): "917b0d1e7e64f906084eb481c71f486b192e15572094d57594bc87fbf0a94dac",
    ("exp1", 0): "78538fe87f520faef203fd88bf31c35b6ad8fdc07a356326d51554a26cec95f2",
    ("exp1", 7): "917b0d1e7e64f906084eb481c71f486b192e15572094d57594bc87fbf0a94dac",
    ("exp2", 0): "e76d40346f15d0468477e9dfb16b2254ac8f9362a26f1fa4ce4bf2d814865747",
    ("exp2", 7): "040f342ab408292ca074096d72a904bfddb2a117ef5b564286ac60ce103d59bf",
    ("exp3", 0): "cee66cbfb0ee83becf618f6d672060a80c3d6791447a0882a0557780b41a0fc4",
    ("exp3", 7): "ca7d86941285baaa536096a87275958bf1ebe613b07fc68c39d1dd3a1f53564f",
}


def column_digest(trace):
    sha = hashlib.sha256()
    for name in TRACE_COLUMNS:
        sha.update(name.encode())
        sha.update(np.ascontiguousarray(trace.columns[name], dtype=np.int64).tobytes())
    return sha.hexdigest()


def flows_of(trace):
    """``(order, tuples, starts)``: the row permutation that groups the
    trace by 5-tuple, keeping trace order within a flow (a stable sort),
    the 5-tuples in that order, and where each flow starts in it."""
    columns = trace.columns
    order = np.lexsort([columns[name] for name in reversed(FLOW_KEY)])
    tuples = np.stack([columns[name][order] for name in FLOW_KEY], axis=1)
    change = np.ones(len(order), dtype=bool)
    change[1:] = (tuples[1:] != tuples[:-1]).any(axis=1)
    return order, tuples, np.flatnonzero(change)


def flow_digest(trace):
    order, tuples, starts = flows_of(trace)
    counts = np.diff(np.append(starts, len(order)))
    folds = np.bitwise_or.reduceat(trace.columns["flags"][order], starts)
    sha = hashlib.sha256()
    sha.update(np.ascontiguousarray(tuples[starts], dtype=np.int64).tobytes())
    sha.update(counts.astype(np.int64).tobytes())
    sha.update((folds == ATTACK_PATTERN).tobytes())
    sha.update(f"{trace.flow_count} {trace.suspicious_flow_count}".encode())
    return sha.hexdigest()


def assert_flows_open_and_carry_their_menus(trace):
    """Each flow's first packet in trace order is its opener: SYN, with
    normal-menu flags (all carrying ACK) after it, or ``ATTACK_PATTERN``,
    with attack-menu flags (none carrying ACK) after it."""
    order, _, starts = flows_of(trace)
    flags = trace.columns["flags"][order]
    suspicious = 0
    for flow_flags in np.split(flags, starts[1:]):
        opener, rest = int(flow_flags[0]), set(flow_flags[1:].tolist())
        if opener == ATTACK_PATTERN:
            suspicious += 1
            assert rest <= ATTACK_FLAGS
            assert np.bitwise_or.reduce(flow_flags) == ATTACK_PATTERN
            assert not np.bitwise_and(flow_flags, ACK).any()
        else:
            assert opener == SYN
            assert rest <= NORMAL_FLAGS
    assert len(starts) == trace.flow_count
    assert suspicious == trace.suspicious_flow_count


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(EXPERIMENT_CONFIGS))
def test_experiment_configs_match_the_loop(name, seed):
    trace = generate_trace(EXPERIMENT_CONFIGS[name](seed))
    assert column_digest(trace) == COLUMN_DIGESTS[name, seed]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(EXPERIMENT_CONFIGS))
def test_experiment_configs_keep_their_flows(name, seed):
    trace = generate_trace(EXPERIMENT_CONFIGS[name](seed))
    assert flow_digest(trace) == FLOW_DIGESTS[name, seed]
    assert_flows_open_and_carry_their_menus(trace)


@pytest.mark.parametrize(
    "config",
    [experiment1_trace_config(686), experiment2_trace_config(207)],
    ids=["kept-half", "no-kept-half"],
)
def test_a_redrawn_length_is_walked(config):
    """Lengths are ``integers(40, 1500)`` held in the IP total-length
    field's ``uint16``: both ends are reached, and nothing outside them."""
    lengths = generate_trace(config).columns["len"]
    assert lengths.dtype == np.uint16 == TRACE_COLUMNS["len"]
    assert (lengths.min(), lengths.max()) == (40, 1499)


@pytest.mark.parametrize(
    "config",
    [TraceConfig(duration=3, rate=333, seed=2), TraceConfig(duration=4, rate=256, seed=2)],
    ids=["odd-flows", "even-flows"],
)
def test_a_kept_half_carries_into_the_packets(config):
    """``time`` is the second of ``timestamp``, and rows come in
    ``timestamp`` order."""
    columns = generate_trace(config).columns
    np.testing.assert_array_equal(columns["time"], columns["timestamp"] // 10**6)
    assert (np.diff(columns["timestamp"]) >= 0).all()
    assert 0 <= columns["time"].min() <= columns["time"].max() < config.duration


@pytest.mark.parametrize(
    "config",
    [
        TraceConfig(seed=3, suspicious_fraction=0.5),
        replace(experiment3_trace_config(4), suspicious_fraction=1.0),
    ],
    ids=["half-suspicious", "all-suspicious"],
)
def test_attack_menu_configs_match_the_loop(config):
    trace = generate_trace(config)
    assert 0 < trace.suspicious_flow_count
    assert_flows_open_and_carry_their_menus(trace)


def test_one_flow_of_one_packet_matches_the_loop():
    """A one-packet flow is its opener, normal or suspicious."""
    for suspicious, opener in ((0.0, SYN), (1.0, ATTACK_PATTERN)):
        config = TraceConfig(duration=1, rate=1, suspicious_fraction=suspicious)
        trace = generate_trace(config)
        assert (trace.flow_count, trace.num_packets) == (1, 1)
        assert trace.columns["flags"].tolist() == [opener]


def test_four_tap_trace_matches_the_loop():
    """Four taps, each a quarter of the rate on its own seed, merged in
    (time, timestamp) order."""
    config = TraceConfig(duration=5, rate=1000, num_taps=4, seed=2)
    taps = [
        generate_trace(replace(config, rate=250, num_taps=1, seed=2000 + tap))
        for tap in range(4)
    ]
    trace, expected = four_tap_trace(config), merge_taps(taps)
    assert list(trace.columns) == list(TRACE_COLUMNS)
    for name in TRACE_COLUMNS:
        np.testing.assert_array_equal(trace.columns[name], expected.columns[name], name)
    assert trace.flow_count == sum(tap.flow_count for tap in taps)
    assert trace.suspicious_flow_count == sum(tap.suspicious_flow_count for tap in taps)
