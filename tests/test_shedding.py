"""Query-aware load shedding: the value model's contract, property-tested.

Three invariant families over ``QueuePolicy(capacity, "semantic")``:

* **conservation** — shedding is accounting-neutral: per host, per epoch,
  ``prior backlog + rows_in == rows_delivered + rows_dropped + backlog``
  under *every* overflow policy, blind or semantic, and nothing survives
  the final flush;
* **determinism** — the value ranking is a pure function of the plan and
  the delivered prefix, so re-running the same bounded trace reproduces
  outputs, per-epoch flow series, and per-query shed attribution exactly;
* **lossless capacity never sheds** — a capacity at or above the offered
  rate makes the shedder a no-op: zero drops, zero shed charges, and
  outputs byte-identical to the unbounded run.

Pinned decisions: sha256 digests of delivered outputs, shed attribution
and flow stats for a few seeds of each workload (one with a ``skip``
fault each), recorded when the value model still scored rows one at a
time with the row evaluator.  The columnar model must reproduce every
one; without the open join buckets the jitter and complex pins must
fail.  The buckets are asked of the executor only when a host
overflows, at most once per step.

Plus the recall plumbing the shedding-quality harness stands on:
``per_query_recall`` multiset math (NaN for empty-reference queries, not
1.0), ``OverloadPoint.mean_recall`` NaN-skipping, and ``overload_sweep``
rejecting unknown modes before it runs anything.
"""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import QueuePolicy
from repro.partitioning import PartitioningSet
from repro.runtime import InProcessExecutor
from repro.runtime.flowcontrol import QUEUE_MODES, Fault, FaultPlan
from repro.runtime.shedding import ValueModel
from repro.traces import Trace
from repro.workloads import (
    OverloadPoint,
    experiment1_configurations,
    format_overload,
    overload_sweep,
    per_query_recall,
    suspicious_flows_catalog,
)

from tests.parity import WORKLOADS, assert_same_outputs, deploy, skewed_packets

CAPACITY = 8  # rows/epoch per host — far below skewed_packets' offered rate


def _simulation(workload, seed, hosts=2):
    catalog_fn, deliver = WORKLOADS[workload]
    _, dag = catalog_fn()
    sim, splitter = deploy(dag, hosts, PartitioningSet.of("srcIP"), deliver)
    return sim, skewed_packets(seed), splitter


def _stream(sim, packets, splitter, **bounds):
    return sim.run_streaming({"TCP": packets}, splitter, 10.0, **bounds)


def semantic(capacity):
    return QueuePolicy(capacity, "semantic")


class TestSemanticQueuePolicy:
    def test_defaults_and_describe(self):
        policy = semantic(25)
        assert "semantic" in QUEUE_MODES
        assert not policy.lossless
        assert "semantic" in policy.describe()
        assert "25" in policy.describe()

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            semantic(0)
        with pytest.raises(ValueError, match="capacity"):
            semantic(-3)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    workload=st.sampled_from(sorted(WORKLOADS)),
    mode=st.sampled_from(QUEUE_MODES),
)
def test_conservation_under_every_policy(seed, workload, mode):
    """in == delivered + dropped (+ queued per epoch) whichever way
    overflow is handled — semantic shedding included."""
    sim, packets, splitter = _simulation(workload, seed)
    stream = _stream(
        sim, packets, splitter, queue_policy=QueuePolicy(CAPACITY, mode)
    )
    assert stream.flow_stats
    for stats in stream.flow_stats.values():
        assert stats.conserves()
        assert stats.total_in == stats.total_delivered + stats.total_dropped
    if mode == "semantic":
        dropped = sum(s.total_dropped for s in stream.flow_stats.values())
        # attribution is per (row, query) — a dropped row may be charged
        # to every query it would have fed, but to each at most once
        for query, charged in stream.shed_counts.items():
            assert charged <= dropped, query


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    workload=st.sampled_from(sorted(WORKLOADS)),
)
def test_value_ranking_is_deterministic(seed, workload):
    """Two fresh simulators over the same bounded trace make identical
    shed decisions: outputs, flow series, and attribution all match."""
    first_sim, packets, splitter = _simulation(workload, seed)
    first = _stream(
        first_sim, packets, splitter, queue_policy=semantic(CAPACITY)
    )
    second_sim, _, _ = _simulation(workload, seed)
    second = _stream(
        second_sim, packets, splitter, queue_policy=semantic(CAPACITY)
    )
    assert_same_outputs(first, second)
    assert first.shed_counts == second.shed_counts
    assert first.flow_stats == second.flow_stats


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    workload=st.sampled_from(sorted(WORKLOADS)),
)
def test_lossless_capacity_never_sheds(seed, workload):
    """A capacity at or above the offered rate is a no-op: the bounded
    run is byte-identical to the unbounded one and nothing is charged."""
    sim, packets, splitter = _simulation(workload, seed)
    unbounded = _stream(sim, packets, splitter)
    bounded = _stream(
        sim, packets, splitter, queue_policy=semantic(len(packets))
    )
    assert_same_outputs(unbounded, bounded)
    assert bounded.shed_counts == {}
    for stats in bounded.flow_stats.values():
        assert stats.conserves()
        assert stats.total_dropped == 0
        assert stats.total_delivered == stats.total_in


# -- pinned shed decisions ---------------------------------------------------------

#: (workload, seed, skip fault on host 1 for epochs 1-2) -> sha256 of a
#: semantic run at CAPACITY, recorded with the row-at-a-time value model.
PINS = {
    ("suspicious", 1, False):
        "ca207fb1eef4f6cd7ddb60ff06e4207c4a69e17fd47fe459e5962c2342b78c74",
    ("suspicious", 4, True):
        "4b71fd82210a6d6a1846239d98ade7ba7d4e54c04d0f4a55673070c8acb5ab9f",
    ("jitter", 2, False):
        "ce06af6de5c4986537d11ec4b882f9ee30262ee0e3dc13b619da47230b9f93bc",
    ("jitter", 3, True):
        "96b6d3557116b07195687ccc4e3343e36468e455b6b9ac7b9edb744e84493409",
    ("complex", 0, False):
        "5b68c9d44bb724f64dbe0c09542c89f2c443991525e813ecc3887c5d8338629f",
    ("complex", 6, True):
        "5a48d0892c2f1e63d2166ee84f94654f7a9e678c63a416f6d5fb5bab1199864a",
}


def _pinned_digest(workload, seed, skip):
    sim, packets, splitter = _simulation(workload, seed)
    result = _stream(
        sim, packets, splitter, queue_policy=semantic(CAPACITY),
        faults=FaultPlan.of(Fault("skip", 1, 1, 2)) if skip else None,
    )
    digest = hashlib.sha256()
    for name in sorted(result.outputs):
        digest.update(repr((name, result.outputs[name])).encode())
    digest.update(repr(sorted(result.shed_counts.items())).encode())
    digest.update(repr(sorted(result.flow_stats.items())).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "case", sorted(PINS), ids=lambda c: f"{c[0]}-{c[1]}" + "-skip" * c[2]
)
def test_shed_decisions_match_pins(case):
    assert _pinned_digest(*case) == PINS[case]


def test_pins_need_the_open_join_buckets(monkeypatch):
    """Known-bad companion: answered with no open buckets, every join
    workload's pin must fail — so the pins see the executor's answer."""
    monkeypatch.setattr(ValueModel, "join_buckets", lambda self, executor: {})
    for case, pin in PINS.items():
        if case[0] != "suspicious":
            assert _pinned_digest(*case) != pin, case


def _spy(monkeypatch):
    """Log every ``run_step`` and ``value_hints`` call, in order."""
    log = []
    for name in ("run_step", "value_hints"):
        original = getattr(InProcessExecutor, name)

        def spy(self, *args, _name=name, _original=original):
            log.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(InProcessExecutor, name, spy)
    return log


def test_buckets_are_asked_only_on_overflow(monkeypatch):
    sim, packets, splitter = _simulation("jitter", 2)
    log = _spy(monkeypatch)
    result = _stream(sim, packets, splitter, queue_policy=semantic(len(packets)))
    assert result.shed_counts == {}
    assert log.count("run_step") > 0
    assert log.count("value_hints") == 0


def test_buckets_are_asked_at_most_once_per_step(monkeypatch):
    sim, packets, splitter = _simulation("jitter", 2)
    log = _spy(monkeypatch)
    result = _stream(sim, packets, splitter, queue_policy=semantic(CAPACITY))
    assert sum(result.shed_counts.values()) > 0
    assert log.count("value_hints") > 0
    # Both hosts overflow, yet no step asks twice.
    assert "value_hints value_hints" not in " ".join(log)


# -- recall plumbing -------------------------------------------------------------


def test_per_query_recall_multiset_math():
    reference = {"q": [{"a": 1}, {"a": 1}, {"a": 2}]}
    assert per_query_recall(reference, {"q": [{"a": 1}, {"a": 2}]}) == {
        "q": pytest.approx(2 / 3)
    }
    # duplicates only count as often as the reference holds them
    assert per_query_recall(reference, {"q": [{"a": 2}] * 5}) == {
        "q": pytest.approx(1 / 3)
    }
    # column order is irrelevant; a missing query recalls nothing
    assert per_query_recall(
        {"q": [{"a": 1, "b": 2}]}, {"q": [{"b": 2, "a": 1}]}
    ) == {"q": 1.0}
    assert per_query_recall(reference, {}) == {"q": 0.0}


def test_per_query_recall_empty_reference_is_nan():
    recall = per_query_recall({"q": []}, {"q": [{"a": 1}]})
    assert math.isnan(recall["q"])


def test_mean_recall_skips_nan():
    point = OverloadPoint(
        fraction=0.5, capacity=10, rows_in=100, rows_delivered=50,
        rows_dropped=50, output_rows=5,
        recall={"a": 0.5, "b": float("nan"), "c": 1.0},
    )
    assert point.mean_recall == pytest.approx(0.75)
    empty = OverloadPoint(
        fraction=0.5, capacity=10, rows_in=100, rows_delivered=50,
        rows_dropped=50, output_rows=0, recall={"a": float("nan")},
    )
    assert math.isnan(empty.mean_recall)


def test_format_overload_renders_nan_as_dash():
    point = OverloadPoint(
        fraction=0.25, capacity=5, rows_in=40, rows_delivered=10,
        rows_dropped=30, output_rows=2,
        recall={"live": 0.625, "silent": float("nan")},
    )
    rendered = format_overload("overload", [point])
    header, row = rendered.splitlines()[1:]
    assert "recall:live" in header and "recall:silent" in header
    assert "0.625" in row
    assert row.rstrip().endswith("-")


# -- the sweep itself ------------------------------------------------------------


def test_overload_sweep_rejects_unknown_mode(tiny_trace):
    _, dag = suspicious_flows_catalog()
    configuration = experiment1_configurations()[2]  # Partitioned
    with pytest.raises(ValueError, match="semantic"):
        overload_sweep(
            dag, tiny_trace, configuration, num_hosts=2, mode="bogus"
        )


def test_overload_sweep_semantic_mode_reports_recall():
    """A semantic sweep over a hot-key trace: conserved at every point,
    recall defined (the trace actually produces suspicious flows), and
    degrading no faster than capacity."""
    _, dag = suspicious_flows_catalog()
    configuration = experiment1_configurations()[2]  # Partitioned
    packets = skewed_packets(3)
    trace = Trace(packets=packets, duration_sec=len({p["time"] for p in packets}))
    points = overload_sweep(
        dag, trace, configuration, num_hosts=2,
        fractions=(1.0, 0.25), mode="semantic",
    )
    assert [p.fraction for p in points] == [1.0, 0.25]
    for point in points:
        assert point.rows_in == point.rows_delivered + point.rows_dropped
        assert not math.isnan(point.mean_recall)
    assert points[-1].rows_dropped > 0
    assert points[-1].mean_recall <= points[0].mean_recall + 1e-9
