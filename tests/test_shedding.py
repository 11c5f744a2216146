"""Blind load shedding: the lossy queue modes' contract, property-tested.

Three invariant families over ``QueuePolicy(capacity, mode)`` for the
modes that drop rows without looking at them, ``drop-newest`` and
``drop-oldest``:

* **conservation** — per host, per epoch, ``prior backlog + rows_in ==
  rows_delivered + rows_dropped + backlog`` under every overflow policy,
  and nothing survives the final flush;
* **determinism** — a drop decision is a pure function of arrival order
  and capacity, so re-running the same bounded trace reproduces outputs,
  per-node counts and per-epoch flow series exactly;
* **lossless capacity never sheds** — a capacity at or above the offered
  rate makes either lossy mode a no-op: zero drops and outputs
  byte-identical to the unbounded run.

Pinned decisions: sha256 digests of delivered outputs, flow stats and
per-node counts for a few seeds of each workload (one with a ``skip``
fault each), under both lossy modes, recorded before the query-aware
``semantic`` mode was removed.  One row/epoch less capacity must move
every pin, and neither mode asks the executor anything.

Plus the recall plumbing the overload curve stands on:
``per_query_recall`` multiset math (NaN for empty-reference queries, not
1.0), ``OverloadPoint.mean_recall`` NaN-skipping, and ``overload_sweep``
rejecting unknown modes before it runs anything.
"""

import hashlib
import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import QueuePolicy
from repro.partitioning import PartitioningSet
from repro.runtime import IngestController, InProcessExecutor
from repro.runtime.flowcontrol import QUEUE_MODES, Fault, FaultPlan
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
LOSSY_MODES = ("drop-newest", "drop-oldest")


def _simulation(workload, seed, hosts=2):
    catalog_fn, deliver = WORKLOADS[workload]
    _, dag = catalog_fn()
    sim, splitter = deploy(dag, hosts, PartitioningSet.of("srcIP"), deliver)
    return sim, skewed_packets(seed), splitter


def _stream(sim, packets, splitter, **bounds):
    return sim.run_streaming({"TCP": packets}, splitter, 10.0, **bounds)


class TestSemanticQueuePolicy:
    def test_defaults_and_describe(self):
        """Three modes remain; the retired ``semantic`` one is refused at
        construction, naming them."""
        assert QUEUE_MODES == ("block", "drop-newest", "drop-oldest")
        with pytest.raises(ValueError, match="semantic") as refused:
            QueuePolicy(25, "semantic")
        for mode in QUEUE_MODES:
            assert mode in str(refused.value)
        for mode in LOSSY_MODES:
            policy = QueuePolicy(25, mode)
            assert not policy.lossless
            assert policy.describe() == f"{mode} queue, 25 rows/epoch per host"

    def test_rejects_bad_capacity(self):
        for mode in LOSSY_MODES:
            with pytest.raises(ValueError, match="capacity"):
                QueuePolicy(0, mode)
            with pytest.raises(ValueError, match="capacity"):
                QueuePolicy(-3, mode)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    workload=st.sampled_from(sorted(WORKLOADS)),
    mode=st.sampled_from(QUEUE_MODES),
)
def test_conservation_under_every_policy(seed, workload, mode):
    """in == delivered + dropped (+ queued per epoch) whichever way
    overflow is handled; only the lossy modes drop."""
    sim, packets, splitter = _simulation(workload, seed)
    stream = _stream(
        sim, packets, splitter, queue_policy=QueuePolicy(CAPACITY, mode)
    )
    assert stream.flow_stats
    for stats in stream.flow_stats.values():
        assert stats.conserves()
        assert stats.total_in == stats.total_delivered + stats.total_dropped
    dropped = sum(s.total_dropped for s in stream.flow_stats.values())
    assert (dropped > 0) == (mode in LOSSY_MODES)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    workload=st.sampled_from(sorted(WORKLOADS)),
    mode=st.sampled_from(LOSSY_MODES),
)
def test_value_ranking_is_deterministic(seed, workload, mode):
    """Two fresh simulators over the same bounded trace make identical
    drop decisions: outputs, per-node counts and flow series match."""
    first_sim, packets, splitter = _simulation(workload, seed)
    first = _stream(
        first_sim, packets, splitter, queue_policy=QueuePolicy(CAPACITY, mode)
    )
    second_sim, _, _ = _simulation(workload, seed)
    second = _stream(
        second_sim, packets, splitter, queue_policy=QueuePolicy(CAPACITY, mode)
    )
    assert_same_outputs(first, second)
    assert first.flow_stats == second.flow_stats


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    workload=st.sampled_from(sorted(WORKLOADS)),
    mode=st.sampled_from(LOSSY_MODES),
)
def test_lossless_capacity_never_sheds(seed, workload, mode):
    """A capacity at or above the offered rate is a no-op: the bounded
    run is byte-identical to the unbounded one and nothing drops."""
    sim, packets, splitter = _simulation(workload, seed)
    unbounded = _stream(sim, packets, splitter)
    bounded = _stream(
        sim, packets, splitter, queue_policy=QueuePolicy(len(packets), mode)
    )
    assert_same_outputs(unbounded, bounded)
    for stats in bounded.flow_stats.values():
        assert stats.conserves()
        assert stats.total_dropped == 0
        assert stats.total_delivered == stats.total_in


# -- pinned drop decisions ---------------------------------------------------------

#: (workload, seed, skip fault on host 1 for epochs 1-2) -> mode -> sha256
#: of a run at CAPACITY, recorded while the ``semantic`` mode still
#: shared the queues.
PINS = {
    ("suspicious", 1, False): {
        "drop-newest":
            "36e7a452a7ccf0e11a18c91cab947681b7ec4d0e73596a90fd07cf41a04a6fa9",
        "drop-oldest":
            "5ba3f148d925a08650ae8813812a39b2ac4a94512ea1c11f9a55f9e5df7a2829",
    },
    ("suspicious", 4, True): {
        "drop-newest":
            "fe3d5b81f079f8ce825110c87987ef9167a7101348427879106916aaaac3274c",
        "drop-oldest":
            "37c1e38379e6db23400e2f3124726733816844580386c08ed96f3ef5f54a363f",
    },
    ("jitter", 2, False): {
        "drop-newest":
            "8c172890707b25045df8601a8d6c2fb9ec6dad70be8899b0652af844429db2db",
        "drop-oldest":
            "dc3a7aba1e75db714592d23e3d728bcafd1918f7f80986a08789411f41a42e19",
    },
    ("jitter", 3, True): {
        "drop-newest":
            "6368d01995f465c11da81318dbaa6b77c998ff312ae3869de757c5c5bc91aef7",
        "drop-oldest":
            "169290534c3a72b3775091eb6be7aa83077ed8e023cfa9537d654b3760294994",
    },
    ("complex", 0, False): {
        "drop-newest":
            "1a30f94e5814bdb6f141b7f4fcffe88f0caaf75db10b9fa15521e8fb92f87b66",
        "drop-oldest":
            "b1e89289c79075aee7ecbc468a922154b4a3b35748ef8a41a60daf295c0c6150",
    },
    ("complex", 6, True): {
        "drop-newest":
            "9fa491bfd4483545d0635bc47043259c80610bf48fa6117c37a89278a8723c63",
        "drop-oldest":
            "f9d651b927a8880e383634d5d5cdd8a03a4ecb4e1fbf2be12e73e7d2d5a63d46",
    },
}


def _pinned_digest(workload, seed, skip, mode, capacity=CAPACITY):
    sim, packets, splitter = _simulation(workload, seed)
    result = _stream(
        sim, packets, splitter, queue_policy=QueuePolicy(capacity, mode),
        faults=FaultPlan.of(Fault("skip", 1, 1, 2)) if skip else None,
    )
    digest = hashlib.sha256()
    for name in sorted(result.outputs):
        digest.update(repr((name, result.outputs[name])).encode())
    digest.update(repr(sorted(result.flow_stats.items())).encode())
    digest.update(repr(sorted(result.node_output_counts.items())).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "case", sorted(PINS), ids=lambda c: f"{c[0]}-{c[1]}" + "-skip" * c[2]
)
def test_shed_decisions_match_pins(case):
    for mode, pin in PINS[case].items():
        assert _pinned_digest(*case, mode) == pin, mode


def test_pins_need_the_open_join_buckets():
    """Known-bad companion: one row/epoch less capacity moves every pin,
    so the pins see each drop decision."""
    for case, pins in PINS.items():
        for mode, pin in pins.items():
            assert _pinned_digest(*case, mode, CAPACITY - 1) != pin, (case, mode)


def _refuse_questions(monkeypatch):
    """Make every question to the executor fail; log its steps."""
    log = []
    run_step = InProcessExecutor.run_step

    def spy(self, *args):
        log.append("run_step")
        return run_step(self, *args)

    def refuse(self, node_ids):
        raise AssertionError(f"the executor was asked about {node_ids}")

    monkeypatch.setattr(InProcessExecutor, "run_step", spy)
    monkeypatch.setattr(InProcessExecutor, "buffered", refuse)
    return log


def test_buckets_are_asked_only_on_overflow(monkeypatch):
    """No lossy mode asks the executor anything, even with room to spare:
    the ingest layer is not handed one."""
    assert "executor" not in inspect.signature(IngestController.begin_step).parameters
    sim, packets, splitter = _simulation("jitter", 2)
    log = _refuse_questions(monkeypatch)
    for mode in LOSSY_MODES:
        result = _stream(
            sim, packets, splitter, queue_policy=QueuePolicy(len(packets), mode)
        )
        assert sum(s.total_dropped for s in result.flow_stats.values()) == 0
    assert log.count("run_step") > 0


def test_buckets_are_asked_at_most_once_per_step(monkeypatch):
    """No lossy mode asks the executor anything while it drops, a
    ``skip`` fault included."""
    sim, packets, splitter = _simulation("jitter", 3)
    log = _refuse_questions(monkeypatch)
    for mode in LOSSY_MODES:
        result = _stream(
            sim, packets, splitter, queue_policy=QueuePolicy(CAPACITY, mode),
            faults=FaultPlan.of(Fault("skip", 1, 1, 2)),
        )
        assert sum(s.total_dropped for s in result.flow_stats.values()) > 0
    assert log.count("run_step") > 0


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
    for mode in ("bogus", "semantic"):
        with pytest.raises(ValueError, match="drop-oldest"):
            overload_sweep(
                dag, tiny_trace, configuration, num_hosts=2, mode=mode
            )


def test_overload_sweep_semantic_mode_reports_recall():
    """Both blind sweeps over a hot-key trace: conserved at every point,
    recall defined (the trace actually produces suspicious flows), and
    degrading no faster than capacity."""
    _, dag = suspicious_flows_catalog()
    configuration = experiment1_configurations()[2]  # Partitioned
    packets = skewed_packets(3)
    trace = Trace(packets=packets, duration_sec=len({p["time"] for p in packets}))
    for mode in LOSSY_MODES:
        points = overload_sweep(
            dag, trace, configuration, num_hosts=2,
            fractions=(1.0, 0.25), mode=mode,
        )
        assert [p.fraction for p in points] == [1.0, 0.25]
        for point in points:
            assert point.rows_in == point.rows_delivered + point.rows_dropped
            assert not math.isnan(point.mean_recall)
        assert points[-1].rows_dropped > 0
        assert points[-1].mean_recall <= points[0].mean_recall + 1e-9, mode
