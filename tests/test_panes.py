"""Sliding windows: the pane arithmetic (engine.panes) and the oracle's
definitional window operator (engine.variants.WindowAggregateOp)."""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import batches_equal, run_centralized
from repro.engine.panes import WindowSpec
from repro.engine.variants import WindowAggregateOp
from repro.partitioning import PartitioningSet
from repro.plan import QueryDag
from repro.runtime import Fault, FaultPlan
from tests.parity import deploy

FLOWS = (
    "SELECT tb, srcIP, COUNT(*) as cnt, SUM(len) as bytes, MAX(len) as biggest "
    "FROM TCP GROUP BY time/2 as tb, srcIP"
)


@pytest.fixture
def flows_node(catalog):
    return catalog.define_query("flows", FLOWS)


def packet(time, src, length):
    return {
        "time": time,
        "timestamp": time * 1_000_000,
        "srcIP": src,
        "destIP": 1,
        "srcPort": 1,
        "destPort": 80,
        "protocol": 6,
        "flags": 0x10,
        "len": length,
    }


def oracle(rows, spec):
    """Independent recomputation of :data:`FLOWS` over ``spec``: bucket
    raw tuples by pane (``time/2``), then fold COUNT/SUM/MAX by hand for
    every window."""
    panes = sorted({r["time"] // 2 for r in rows})
    expected = []
    for end in spec.window_ends_covering(panes):
        start = end - spec.window_panes + 1
        groups = defaultdict(list)
        for row in rows:
            if start <= row["time"] // 2 <= end:
                groups[row["srcIP"]].append(row["len"])
        for src, lens in groups.items():
            expected.append(
                {
                    "tb": end,
                    "srcIP": src,
                    "cnt": len(lens),
                    "bytes": sum(lens),
                    "biggest": max(lens),
                }
            )
    return expected


class TestWindowSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            WindowSpec(0, 1)
        with pytest.raises(ValueError):
            WindowSpec(2, 3)  # slide > window drops panes

    def test_tumbling_detection(self):
        assert WindowSpec(3, 3).is_tumbling
        assert not WindowSpec(3, 1).is_tumbling

    def test_window_ends_alignment(self):
        spec = WindowSpec(window_panes=3, slide_panes=2)
        # window ends e satisfy (e+1) % 2 == 0 -> odd ends
        ends = spec.window_ends_covering([0, 1, 2, 3])
        assert all((e + 1) % 2 == 0 for e in ends)
        # every observed pane is covered by some window
        for pane in (0, 1, 2, 3):
            assert any(e - 2 <= pane <= e for e in ends)

    def test_no_panes_no_windows(self):
        assert WindowSpec(2, 1).window_ends_covering([]) == []

    def test_single_pane_slide_one(self):
        # every window intersecting pane 5: ends 5..5+w-1
        assert WindowSpec(3, 1).window_ends_covering([5]) == [5, 6, 7]

    def test_single_pane_with_alignment(self):
        spec = WindowSpec(window_panes=4, slide_panes=3)
        ends = spec.window_ends_covering([4])
        # aligned ends satisfy (e+1) % 3 == 0 and the window [e-3, e]
        # must actually contain pane 4
        assert ends == [5]
        for end in ends:
            assert (end + 1) % spec.slide_panes == 0
            assert end - spec.window_panes + 1 <= 4 <= end

    def test_tumbling_degenerate_one_window_per_pane(self):
        spec = WindowSpec(window_panes=2, slide_panes=2)
        ends = spec.window_ends_covering([0, 1, 2, 3, 4, 5])
        assert ends == [1, 3, 5]  # disjoint windows tile the pane range

    def test_slide_greater_than_one_skips_unaligned_ends(self):
        spec = WindowSpec(window_panes=3, slide_panes=2)
        ends = spec.window_ends_covering([2])
        assert ends == [3]  # end 2 is unaligned, end 5's window starts at 3
        assert WindowSpec(3, 2).window_ends_covering([0, 1]) == [1, 3]

    def test_sparse_panes_cover_the_gap(self):
        # Ends between distant panes are reported; windows that contain
        # no live pane simply aggregate nothing downstream.
        spec = WindowSpec(window_panes=2, slide_panes=1)
        ends = spec.window_ends_covering([0, 10])
        assert ends == list(range(0, 12))
        for pane in (0, 10):
            assert any(e - 1 <= pane <= e for e in ends)

    def test_pane_zero_slide_one(self):
        # Pane 0 alone: the first window end is 0 itself ((0+1) % 1 == 0)
        # and ends run out to window_panes - 1.
        assert WindowSpec(1, 1).window_ends_covering([0]) == [0]
        assert WindowSpec(4, 1).window_ends_covering([0]) == [0, 1, 2, 3]

    def test_pane_zero_alignment_with_larger_slide(self):
        # With slide 3, aligned ends satisfy (e+1) % 3 == 0, so end 0 is
        # unaligned: pane 0's earliest window is the one ending at 2.
        spec = WindowSpec(window_panes=4, slide_panes=3)
        ends = spec.window_ends_covering([0])
        assert ends == [2]
        for end in ends:
            assert (end + 1) % spec.slide_panes == 0
            assert end - spec.window_panes + 1 <= 0 <= end

    def test_pane_zero_tumbling_degeneration(self):
        # window == slide: pane 0 belongs to exactly one window, the
        # tumbling block [0, w-1].
        for width in (1, 2, 3, 5):
            spec = WindowSpec(width, width)
            assert spec.window_ends_covering([0]) == [width - 1]

    def test_slide_two_ends_are_odd_and_minimal(self):
        # slide > 1 edge case: candidate ends advance in slide steps from
        # the aligned start, and only windows actually touching a live
        # pane are kept — no end below the first pane, none whose window
        # starts past the last pane.
        spec = WindowSpec(window_panes=5, slide_panes=2)
        ends = spec.window_ends_covering([4, 5])
        assert ends == [5, 7, 9]
        assert all((e + 1) % 2 == 0 for e in ends)
        assert min(ends) >= 4 and max(ends) - spec.window_panes + 1 <= 5

    def test_window_equals_slide_tiles_without_overlap(self):
        # window == slide degeneration over a pane run: consecutive
        # windows are disjoint and every pane lands in exactly one.
        spec = WindowSpec(window_panes=3, slide_panes=3)
        ends = spec.window_ends_covering(range(9))
        assert ends == [2, 5, 8]
        covered = sorted(
            pane for end in ends
            for pane in range(end - spec.window_panes + 1, end + 1)
        )
        assert covered == list(range(9))


class TestSlidingEvaluation:
    def test_matches_oracle_slide_one(self, flows_node):
        rows = [packet(t, src, 10 * (t + 1)) for t in range(8) for src in (1, 2)]
        spec = WindowSpec(window_panes=3, slide_panes=1)
        sliding = WindowAggregateOp(flows_node, spec)
        assert batches_equal(sliding.process(rows), oracle(rows, spec))

    def test_matches_oracle_slide_two(self, flows_node):
        rows = [packet(t, 1, 5) for t in range(10)] + [packet(3, 7, 100)]
        spec = WindowSpec(window_panes=4, slide_panes=2)
        sliding = WindowAggregateOp(flows_node, spec)
        assert batches_equal(sliding.process(rows), oracle(rows, spec))

    def test_tumbling_special_case(self, flows_node):
        """window == slide reproduces plain tumbling aggregation totals."""
        rows = [packet(t, 1, 1) for t in range(6)]
        spec = WindowSpec(window_panes=1, slide_panes=1)
        out = WindowAggregateOp(flows_node, spec).process(rows)
        assert sum(r["cnt"] for r in out) == len(rows)

    def test_empty_input(self, flows_node):
        spec = WindowSpec(2, 1)
        assert WindowAggregateOp(flows_node, spec).process([]) == []

    def test_sparse_panes(self, flows_node):
        """Gaps between panes yield windows containing only live panes."""
        rows = [packet(0, 1, 10), packet(9, 1, 20)]  # panes 0 and 4
        spec = WindowSpec(window_panes=2, slide_panes=1)
        out = WindowAggregateOp(flows_node, spec).process(rows)
        assert batches_equal(out, oracle(rows, spec))

    def test_having_applies_per_window(self, catalog):
        node = catalog.define_query(
            "busy",
            "SELECT tb, srcIP, COUNT(*) as cnt FROM TCP "
            "GROUP BY time/2 as tb, srcIP HAVING COUNT(*) >= 3",
        )
        # two packets per pane: no single pane passes HAVING, but a
        # 2-pane window (4 packets) does — HAVING must see window totals
        rows = [packet(t, 1, 5) for t in range(4)]
        tumbling = WindowAggregateOp(node, WindowSpec(1, 1)).process(rows)
        sliding = WindowAggregateOp(node, WindowSpec(2, 1)).process(rows)
        assert tumbling == []
        assert any(r["cnt"] >= 3 for r in sliding)


def _windowed_flows(catalog, spec):
    """:data:`FLOWS` with a ``RANGE``/``SLIDE`` clause, as a one-query DAG."""
    catalog.define_query(
        "flows", f"{FLOWS} RANGE {spec.window_panes} SLIDE {spec.slide_panes}"
    )
    return QueryDag.from_catalog(catalog)


class TestDistributedPanes:
    def test_combine_shipped_partials(self, catalog):
        """Per-host SUB pane states, shipped and reassembled by the SUPER,
        deliver exactly the centralized sliding result — the deployment
        mode §3.5.1's temporal-exclusion rule protects."""
        rows = [packet(t, src, t + src) for t in range(8) for src in (1, 2, 3)]
        spec = WindowSpec(window_panes=3, slide_panes=1)
        dag = _windowed_flows(catalog, spec)
        sim, splitter = deploy(dag, 3, None)  # round-robin: groups span hosts
        result = sim.run({"TCP": rows}, splitter, 8.0)
        assert set(result.node_variants.values()) == {"sub", "super"}
        reference = run_centralized(dag, {"TCP": rows})["flows"]
        assert batches_equal(reference, oracle(rows, spec))
        assert batches_equal(result.outputs["flows"], reference)

    def test_temporal_partitioning_breaks_windows(self, catalog):
        """The §3.5.1 rationale, demonstrated: hashing on the pane index
        puts each host in charge of a subset of panes, so every window's
        reassembly depends on every host shipping its panes.  With all
        of them shipped the windows come out right; a host that misses
        its epochs (a re-allocation glitch) corrupts them."""
        rows = [packet(t, 1, 10) for t in range(8)]
        dag = _windowed_flows(catalog, WindowSpec(window_panes=2, slide_panes=1))
        sim, splitter = deploy(dag, 2, PartitioningSet.of("time/2"))
        reference = run_centralized(dag, {"TCP": rows})["flows"]
        complete = sim.run_streaming({"TCP": rows}, splitter, 8.0)
        assert batches_equal(complete.outputs["flows"], reference)
        glitched = sim.run_streaming(
            {"TCP": rows}, splitter, 8.0,
            faults=FaultPlan.of(Fault("skip", 1, 0, 99)),
        )
        assert not batches_equal(glitched.outputs["flows"], reference)


class TestValidation:
    def test_requires_aggregation_node(self, catalog):
        node = catalog.define_query("sel", "SELECT srcIP FROM TCP")
        with pytest.raises(ValueError):
            WindowAggregateOp(node, WindowSpec(2, 1))

    def test_requires_temporal_column(self, catalog):
        node = catalog.define_query(
            "no_time", "SELECT srcIP, COUNT(*) as c FROM TCP GROUP BY srcIP"
        )
        with pytest.raises(ValueError):
            WindowAggregateOp(node, WindowSpec(2, 1))

    def test_explicit_pane_column_checked(self, catalog):
        """The pane is the one temporal group-by column; two leave it
        ambiguous."""
        node = catalog.define_query(
            "two_times",
            "SELECT tb, t, COUNT(*) as c FROM TCP GROUP BY time/2 as tb, time as t",
        )
        with pytest.raises(ValueError, match="exactly one temporal"):
            WindowAggregateOp(node, WindowSpec(2, 1))

    def test_pane_expression_helper(self, flows_node):
        """A row's pane is its temporal group-by value (``time/2``): a
        packet at time 5 is in pane 2, so it lands in the windows ending
        at 2 and 3."""
        out = WindowAggregateOp(flows_node, WindowSpec(2, 1)).process(
            [packet(5, 1, 1)]
        )
        assert sorted(row["tb"] for row in out) == [2, 3]

    def test_requires_window(self, flows_node):
        with pytest.raises(ValueError, match="no window clause"):
            WindowAggregateOp(flows_node)


# --- property-based: the window operator == per-window recomputation ---------

@settings(max_examples=60, deadline=None)
@given(
    times=st.lists(st.integers(min_value=0, max_value=15), min_size=0, max_size=40),
    window=st.integers(min_value=1, max_value=4),
    slide_offset=st.integers(min_value=0, max_value=3),
)
def test_sliding_matches_oracle_randomized(catalog_factory, times, window, slide_offset):
    node = catalog_factory().define_query("flows", FLOWS)
    slide = max(1, min(window, 1 + slide_offset))
    spec = WindowSpec(window, slide)
    rows = [packet(t, 1 + (t % 2), 10 + t) for t in times]
    sliding = WindowAggregateOp(node, spec)
    assert batches_equal(sliding.process(rows), oracle(rows, spec))
