"""Property tests for the sketch layer (engine.sketches).

The distributed correctness story rests on three claims, each tested
here directly:

* Count-Min never undercounts, and overshoots ``eps * N`` with
  probability at most ``delta`` (the §tentpole accuracy contract);
* plain sketches are *linear*, so splitting a stream across hosts and
  summing the per-host grids, as the sketch SUPER does, reproduces the
  single-site grid bit-for-bit — aggregation order and placement never
  change the answer;
* the ECM pane ring is exact over a window: the sketch SUPER's window
  estimate is that of one sketch fed the whole window, and streaming
  state stays bounded by the window, however long the stream.

The key hash itself is pinned: every lane's 64-bit hash
(:func:`lane_hashes` of :func:`~repro.engine.keyhash.fold_keys`, the
partition hash's key state) against golden values, and against the
scalar definition in ``tests/split_reference.py`` (``fnv1a_state`` and
``lane_hash``), bit for bit.  Changing either re-blesses every
approximate answer.  Keys equal under ``==`` (``100``, ``100.0``, and
``1``, ``True``) share their cells, as they share a group.  Sketches take
their keys as columns, one array per key part.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Catalog, tcp_schema
from repro.distopt import DistributedOptimizer, Placement
from repro.distopt.plan_ir import Variant
from repro.engine.columnar import ColumnBatch
from repro.engine.keyhash import fold_keys
from repro.engine.sketches import (
    CountMinSketch,
    EpochSummary,
    key_cells,
    lane_hashes,
    lane_seeds,
    sketch_dimensions,
    summary_wire_bytes,
)
from repro.engine.variants import SUMMARY_COLUMN, build_variant_kernel
from repro.plan import QueryDag
from repro.runtime.backend import EngineBackend
from repro.workloads import approx_heavy_catalog
from tests.split_reference import fnv1a_state, lane_hash
from tests.test_partition_set import EDGE_VALUES

keys = st.integers(min_value=0, max_value=40)
weights = st.integers(min_value=0, max_value=50)
streams = st.lists(st.tuples(keys, weights), max_size=200)


def _feed(sketch, stream):
    """Fold a stream of ``(int key, weight)`` pairs into ``sketch``."""
    sketch.update(
        [np.array([key for key, _ in stream], dtype=np.int64)],
        np.array([weight for _, weight in stream], dtype=np.int64),
    )


# -- the key hash ------------------------------------------------------------

#: Every lane's 64-bit hash of each key, for lane seeds 0, 1 and 1001,
#: each key part given as a one-element column.  ``True`` hashes as the
#: ``1`` it equals.
HASH_GOLDEN = {
    (0x0A000001, 0xC0A80002): (
        14330472378977240317, 18247135192246700939, 12273469067429895004,
    ),
    ("abc", -5, True): (
        18222676958222341838, 9110465990357376545, 13439958182626437233,
    ),
    (2**64 - 1, -(2**63), 3.5): (
        5196321139431929610, 17028075109408904162, 8346517946414223197,
    ),
}


def test_hash_key_golden_values():
    seeds = np.array([0, 1, 1001], dtype=np.uint64)
    for key, expected in HASH_GOLDEN.items():
        parts = [np.array([part]) for part in key]
        assert tuple(lane_hashes(fold_keys(parts), seeds)[:, 0].tolist()) == expected


def test_lane_seeds_are_aggregate_major():
    """Depth row ``row`` of aggregate ``index`` is lane seed ``index *
    1001 + row``, in the order the SUB lays its grids out."""
    assert lane_seeds(range(3), 2).tolist() == [0, 1, 1001, 1002, 2002, 2003]


INT_DTYPES = (
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
)


@st.composite
def key_parts(draw):
    """Up to three key columns of one length: integers of every width
    (extremes, the partition hash's edge values and uint64 values at or
    above 2**63 included), bools, integral and fractional floats,
    strings, an ``object`` column of ints and floats as ``MIN2``/``MAX2``
    mix them, or one mixing anything."""
    length = draw(st.integers(1, 25))
    column = lambda elements: st.lists(  # noqa: E731
        elements, min_size=length, max_size=length
    )
    parts = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(
            st.sampled_from(("int", "bool", "float", "str", "minmax", "mixed"))
        )
        if kind == "int":
            dtype = np.dtype(draw(st.sampled_from(INT_DTYPES)))
            info = np.iinfo(dtype)
            edges = [v for v in EDGE_VALUES if info.min <= v <= info.max]
            if dtype == np.uint64:
                edges += [2**63, 2**64 - 1]
            values = draw(
                column(
                    st.one_of(
                        st.integers(int(info.min), int(info.max)),
                        st.sampled_from(edges),
                    )
                )
            )
            parts.append(np.array(values, dtype=dtype))
        elif kind == "bool":
            parts.append(np.array(draw(column(st.booleans()))))
        elif kind == "float":
            floats = st.one_of(
                st.floats(width=64), st.integers(-(2**53), 2**53).map(float)
            )
            parts.append(np.array(draw(column(floats)), dtype=float))
        elif kind == "str":
            parts.append(np.array(draw(column(st.text(max_size=6)))))
        elif kind == "minmax":
            numbers = st.one_of(
                st.integers(-(2**63), 2**64 - 1),
                st.floats(allow_nan=False),
                st.integers(-(2**53), 2**53).map(float),
            )
            parts.append(np.array(draw(column(numbers)), dtype=object))
        else:
            mixed = st.one_of(
                st.integers(-(2**64), 2**64), st.text(max_size=4),
                st.booleans(), st.none(), st.floats(allow_nan=False),
            )
            parts.append(np.array(draw(column(mixed)), dtype=object))
    return parts


@settings(deadline=None, max_examples=150)
@given(
    parts=key_parts(),
    seeds=st.lists(st.integers(0, 5000), min_size=1, max_size=6),
    width=st.integers(1, 300),
)
@example(
    parts=[
        np.array([2**63, 2**64 - 1, 0], dtype=np.uint64),
        np.array([-(2**63), 2**63 - 1, -1], dtype=np.int64),
    ],
    seeds=[0, 1, 1001],
    width=55,
)
@example(parts=[np.array([0.0, -0.0, np.nan, 1.5])], seeds=[7], width=55)
def test_vectorized_hash_matches_hash_key(parts, seeds, width):
    """Every lane's hash, and so every cell, of each key is the scalar
    reference's (``lane_hash`` of ``fnv1a_state``) of the key as the tuple
    of Python scalars ``tolist`` yields, bit for bit."""
    keys = list(zip(*(part.tolist() for part in parts))) if parts else [()]
    expected = [[lane_hash(fnv1a_state(key), seed) for key in keys] for seed in seeds]
    lanes = np.array(seeds, dtype=np.uint64)
    assert lane_hashes(fold_keys(parts), lanes).tolist() == expected
    cells = [[value % width for value in row] for row in expected]
    assert key_cells(parts, lanes, width).tolist() == cells


# -- Count-Min ---------------------------------------------------------------


#: Integers and their spellings as other types that compare equal.
equal_ints = st.one_of(
    st.integers(-(2**53), 2**53),
    st.sampled_from((2**63, 2**64 - 2048, -(2**63), 0, 1)),
)


def _spellings(value: int) -> list:
    return (
        [value, float(value)]
        + ([-0.0] if value == 0 else [])
        + ([bool(value)] if value in (0, 1) else [])
    )


@settings(deadline=None, max_examples=100)
@given(data=st.data(), seeds=st.lists(st.integers(0, 5000), min_size=1, max_size=4))
def test_keys_equal_under_eq_get_equal_cells(data, seeds):
    """A key spelled as an int, a float, ``-0.0`` or a bool hashes to the
    int's cells, as a float or object column and as the first part of a
    two-part key."""
    ints = data.draw(st.lists(equal_ints, min_size=1, max_size=12))
    spelled = [data.draw(st.sampled_from(_spellings(value))) for value in ints]
    assert spelled == ints
    lanes = np.array(seeds, dtype=np.uint64)
    sevens = np.full(len(ints), 7)
    expected = key_cells([np.array(ints, dtype=object)], lanes, 97).tolist()
    paired = key_cells([np.array(ints, dtype=object), sevens], lanes, 97).tolist()
    for column in (np.array(spelled, dtype=object), np.array(spelled, dtype=float)):
        assert key_cells([column], lanes, 97).tolist() == expected
        assert key_cells([column, sevens], lanes, 97).tolist() == paired
    sketch = CountMinSketch(width=97, depth=3, seed=seeds[0])
    sketch.update([np.array(spelled, dtype=object)])
    estimates = sketch.estimate([np.array(ints, dtype=object)]).tolist()
    for value, estimate in zip(ints, estimates):
        assert estimate >= ints.count(value)


def test_sketch_super_never_undercounts_a_key_spelled_two_ways():
    """Two hosts' SKETCH_SUB give ``MAX2(len, 100.0)`` the key ``100`` (a
    ``len`` of 100 wins as an int) and ``100.0`` (a shorter ``len`` loses
    to the float): one group, so SKETCH_SUPER must count both hosts' rows.
    Hashing each element's repr put them in different cells, and the
    estimate read one host's count."""
    catalog = Catalog()
    catalog.add_stream(tcp_schema())
    catalog.load_script(
        """
DEFINE QUERY capped AS
SELECT tb, m, APPROX_COUNT(*) as cnt FROM TCP
GROUP BY time as tb, MAX2(len, 100.0) as m
RANGE 1 SLIDE 1 ERROR 0.05 CONFIDENCE 0.95;
"""
    )
    node = QueryDag.from_catalog(catalog).node("capped")
    sub = build_variant_kernel(node, "sketch_sub")
    hosts = [(100, 3), (40, 5)]  # (len, rows) per host
    shipped = []
    for length, rows in hosts:
        batch = ColumnBatch(
            {"time": np.zeros(rows, dtype=np.int64), "len": np.full(rows, length)},
            rows,
        )
        out = sub.process(batch)
        assert out.columns[SUMMARY_COLUMN][0].candidates[0][0] == 100
        shipped += out.columns[SUMMARY_COLUMN].tolist()
    key_types = {
        type(summary.candidates[0][0]).__name__ for summary in shipped
    }
    assert key_types == {"int", "float"}
    rows = build_variant_kernel(node, "sketch_super").process_window(
        _shipped(shipped), [0]
    ).to_rows()
    assert [(row["m"], row["cnt"]) for row in rows] == [(100, 8)]


@settings(deadline=None, max_examples=60)
@given(stream=streams, seed=st.integers(0, 7))
def test_cm_never_underestimates(stream, seed):
    sketch = CountMinSketch(*sketch_dimensions(0.1, 0.05), seed=seed)
    _feed(sketch, stream)
    truth = {}
    for key, weight in stream:
        truth[key] = truth.get(key, 0) + weight
    seen = np.array(list(truth), dtype=np.int64)
    assert (sketch.estimate([seen]) >= np.array(list(truth.values()))).all()
    # Keys never inserted still get a non-negative upper bound.
    assert sketch.estimate([np.array(["never"])]).tolist()[0] >= 0


def test_cm_error_bound_holds_with_confidence():
    """Observed overshoot beyond eps*N must be rare: the failure rate over
    many independent (key, sketch-seed) trials stays below delta with
    generous slack.  The trial stream is adversarial for a sketch —
    many distinct keys, Zipf-ish repetition — not tuned to pass."""
    epsilon, delta = 0.05, 0.1
    rng = random.Random(0xC0FFEE)
    violations = 0
    trials = 0
    for trial in range(40):
        sketch = CountMinSketch(*sketch_dimensions(epsilon, delta), seed=trial)
        stream = [min(rng.randrange(1, 500) for _ in range(2)) for _ in range(2000)]
        sketch.update([np.array(stream)])
        truth = {}
        for key in stream:
            truth[key] = truth.get(key, 0) + 1
        n = sketch.total
        sample = rng.sample(sorted(truth), 25)
        estimates = sketch.estimate([np.array(sample)]).tolist()
        for key, estimate in zip(sample, estimates):
            trials += 1
            if estimate - truth[key] > epsilon * n:
                violations += 1
    # Expected failure rate <= delta = 0.1; allow 2x slack for variance.
    assert violations <= 2 * delta * trials


@settings(deadline=None, max_examples=60)
@given(stream=streams, cut=st.integers(0, 200), seed=st.integers(0, 7))
def test_cm_merge_is_exact(stream, cut, seed):
    """Linearity, as the sketch SUPER relies on it: the cell-wise sum of
    the grids of any split of the stream is the whole stream's grid, bit
    for bit."""
    single, left, right = (
        CountMinSketch(width=30, depth=3, seed=seed) for _ in range(3)
    )
    _feed(single, stream)
    _feed(left, stream[:cut])
    _feed(right, stream[cut:])
    assert np.array_equal(left.counts + right.counts, single.counts)
    assert left.total + right.total == single.total


def test_cm_merge_refuses_shape_and_conservative_mismatch():
    """Grids sum cell for cell only under one width, depth and seed.  The
    sketch SUPER refuses a window whose summaries' grids differ in shape,
    and a sketch of another seed puts the same keys in other cells.
    (The conservative-update mode, which a merge also refused, is gone.)"""
    _, node, (width, depth) = _approx_node(1)
    stream = [(key, 1) for key in range(20)]
    for shape in ((width + 1, depth), (width, depth + 1)):
        summaries = [
            _host_summary(0, stream, width, depth),
            _host_summary(0, stream, *shape),
        ]
        with pytest.raises(ValueError):
            _window_rows(node, summaries, 0)
    reseeded = CountMinSketch(width, depth, seed=5)
    _feed(reseeded, stream)
    grid = _host_summary(0, stream, width, depth).sketches[0].counts
    assert not np.array_equal(reseeded.counts, grid)


@settings(deadline=None, max_examples=40)
@given(stream=streams)
def test_conservative_update_is_tighter(stream):
    """The tightness a sketch has without the retired conservative mode:
    a key that has a cell of its own in some row is estimated exactly,
    and no key below its total."""
    sketch = CountMinSketch(width=10, depth=2)
    _feed(sketch, stream)
    truth = {}
    for key, weight in stream:
        truth[key] = truth.get(key, 0) + weight
    seen = [np.array(list(truth), dtype=np.int64)]
    cells = dict(zip(truth, sketch._cells(seen).T.tolist()))
    for key, estimate in zip(truth, sketch.estimate(seen).tolist()):
        own_cell = any(
            all(cells[other][row] != cells[key][row] for other in truth if other != key)
            for row in range(sketch.depth)
        )
        total = truth[key]
        assert estimate == total if own_cell else estimate >= total


def test_cm_rejects_negative_weights_and_bad_dimensions():
    sketch = CountMinSketch(width=4, depth=1)
    with pytest.raises(ValueError):
        sketch.update([np.array(["k", "l"])], np.array([1, -1]))
    with pytest.raises(ValueError):
        CountMinSketch(width=0, depth=1)
    for epsilon, delta in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)):
        with pytest.raises(ValueError):
            sketch_dimensions(epsilon, delta)


def test_sketch_dimensions_match_paper_formulas():
    width, depth = sketch_dimensions(0.01, 0.05)
    assert width == math.ceil(math.e / 0.01)
    assert depth == math.ceil(math.log(1 / 0.05))


# -- the ECM pane ring -------------------------------------------------------


def _approx_node(window_panes):
    _, dag = approx_heavy_catalog(window_panes=window_panes, slide_panes=1)
    node = dag.node("approx_heavy")
    return dag, node, sketch_dimensions(node.accuracy.epsilon, node.accuracy.delta)


def _shipped(summaries):
    """Summary rows as the sketch SUPER receives them."""
    column = np.empty(len(summaries), dtype=object)
    column[:] = summaries
    panes = np.array([summary.pane for summary in summaries])
    return ColumnBatch({"tb": panes, SUMMARY_COLUMN: column})


@settings(deadline=None, max_examples=30)
@given(
    panes=st.lists(
        st.lists(st.tuples(keys, st.integers(1, 9)), max_size=30),
        min_size=1,
        max_size=6,
    )
)
def test_ecm_full_window_matches_merged_cm(panes):
    """The sketch SUPER's estimates for a window over per-pane summaries
    equal merging the same sketches directly, for every candidate."""
    _, node, (width, depth) = _approx_node(len(panes))
    merged = [CountMinSketch(width, depth, seed=seed) for seed in (0, 1)]
    summaries = []
    for pane, stream in enumerate(panes):
        sketches = [CountMinSketch(width, depth, seed=seed) for seed in (0, 1)]
        src = np.array([key for key, _ in stream], dtype=np.int64)
        amounts = np.array([weight for _, weight in stream], dtype=np.int64)
        for sketch in sketches + merged:
            sketch.update([src, -src], amounts)
        candidates = sorted({(key, -key) for key, _ in stream}, key=repr)
        summaries.append(
            EpochSummary(pane, tuple(sketches), tuple(candidates), len(stream))
        )
    kernel = build_variant_kernel(node, "sketch_super")
    window = kernel.process_window(_shipped(summaries), [len(panes) - 1])
    rows = window.to_rows()
    assert {(row["srcIP"], row["destIP"]) for row in rows} == {
        (key, -key) for stream in panes for key, _ in stream
    }
    parts = [np.array([row[name] for row in rows]) for name in ("srcIP", "destIP")]
    assert [row["cnt"] for row in rows] == merged[0].estimate(parts).tolist()
    assert [row["bytes"] for row in rows] == merged[1].estimate(parts).tolist()


def test_sketch_super_estimates_every_candidate_per_key():
    """The SUPER's estimates, read for all of a window's candidates at
    once, are each candidate's own estimate: the minimum over depth rows
    of the window's summed grid at the cell the scalar reference gives
    that key in that aggregate's lane (seed ``index * 1001 + row``).
    Three hosts' SUBs ship three panes each; a SUPER reading another
    aggregate's lanes, or another window's grid, fails."""
    dag, node, (width, depth) = _approx_node(3)
    sub = build_variant_kernel(node, "sketch_sub")
    rng = np.random.default_rng(11)
    shipped = []
    for host in range(3):
        # Per pane: 16 keys 25 times each (heavy at epsilon 0.05 of 500
        # rows), shifted by host and pane, plus a 100-row tail.
        time = np.repeat(np.arange(3), 500)
        key = np.concatenate(
            [
                np.concatenate(
                    (
                        np.repeat(host * 10 + pane * 3 + np.arange(16), 25),
                        rng.integers(1000, 5000, 100),
                    )
                )
                for pane in range(3)
            ]
        )
        batch = ColumnBatch(
            {
                "time": time,
                "srcIP": 0x0A000000 + key // 16,
                "destIP": 0xC0A80000 + key % 16,
                "len": rng.integers(40, 1500, len(key)),
            },
            len(key),
        )
        shipped += sub.process(batch).columns[SUMMARY_COLUMN].tolist()
    assert len(shipped) == 9
    out = build_variant_kernel(node, "sketch_super").process_window(
        _shipped(shipped), [2, 3]
    )
    rows = out.to_rows()
    for end in (2, 3):
        window = [s for s in shipped if end - 3 < s.pane <= end]
        grids = [
            sum(summary.sketches[index].counts for summary in window)
            for index in range(2)
        ]
        candidates = {key for summary in window for key in summary.candidates}
        emitted = {
            (row["srcIP"], row["destIP"]): (row["cnt"], row["bytes"])
            for row in rows
            if row["tb"] == end
        }
        assert set(emitted) == candidates and len(candidates) > 20
        for key, estimates in emitted.items():
            state = fnv1a_state(key)
            assert estimates == tuple(
                min(
                    int(grid[row, lane_hash(state, index * 1001 + row) % width])
                    for row in range(depth)
                )
                for index, grid in enumerate(grids)
            ), key


def test_ecm_expire_bounds_state():
    """Streamed pane by pane, the windowed sketch SUPER keeps only the
    panes a later window still reads, and each window counts exactly
    its own panes."""
    dag, node, (width, depth) = _approx_node(5)
    plan = DistributedOptimizer(dag, Placement(2, 2), None).optimize()
    (dist,) = [
        n for n in plan.nodes.values() if n.variant is Variant.SKETCH_SUPER
    ]
    snode = EngineBackend(dag).streaming_node(dist)
    history = []
    for pane in range(20):
        sketches = tuple(CountMinSketch(width, depth, seed=s) for s in (0, 1))
        for sketch in sketches:
            sketch.update([np.array([pane % 3]), np.array([0])])
        history.append(EpochSummary(pane, sketches, ((pane % 3, 0),), 1))
        out, _ = snode.step([_shipped(history[-1:])], [{"tb": pane + 1}], False)
        assert snode.buffered_rows() <= 4  # window - slide
        window = CountMinSketch(width, depth, seed=0)
        window.counts = sum(summary.sketches[0].counts for summary in history[-5:])
        live = sorted({p % 3 for p in range(max(0, pane - 4), pane + 1)})
        estimates = window.estimate([np.array(live), np.zeros(len(live), int)])
        rows = out.to_rows()
        assert {row["tb"] for row in rows} == {pane}
        assert {(row["srcIP"], row["cnt"]) for row in rows} == set(
            zip(live, estimates.tolist())
        )


# -- epoch summaries ---------------------------------------------------------


def _host_summary(pane, stream, width, depth):
    """One host's summary of ``(key, weight)`` pairs for the
    ``approx_heavy`` node: keys ``(key, -key)``, COUNT and SUM sketches."""
    src = np.array([key for key, _ in stream], dtype=np.int64)
    amounts = np.array([weight for _, weight in stream], dtype=np.int64)
    sketches = tuple(CountMinSketch(width, depth, seed=seed) for seed in (0, 1))
    sketches[0].update([src, -src])
    sketches[1].update([src, -src], amounts)
    candidates = sorted({(key, -key) for key, _ in stream}, key=repr)
    return EpochSummary(pane, sketches, tuple(candidates), len(stream))


def _window_rows(node, summaries, end):
    kernel = build_variant_kernel(node, "sketch_super")
    return kernel.process_window(_shipped(summaries), [end]).to_rows()


@settings(deadline=None, max_examples=40)
@given(stream=streams, cut=st.integers(0, 200))
def test_summary_merge_equals_single_site(stream, cut):
    """The distributed invariant end to end: the sketch SUPER answers a
    pane summarized by two hosts exactly as one host's summary of the
    whole pane."""
    _, node, (width, depth) = _approx_node(1)
    whole = _host_summary(0, stream, width, depth)
    left = _host_summary(0, stream[:cut], width, depth)
    right = _host_summary(0, stream[cut:], width, depth)
    assert _window_rows(node, [left, right], 0) == _window_rows(node, [whole], 0)


def test_summary_merge_rejects_pane_mismatch():
    """A window sums only its own panes' grids: another pane's summary
    of the same keys adds nothing to it."""
    _, node, (width, depth) = _approx_node(1)
    stream = [(1, 3), (2, 5), (2, 1)]
    own = _host_summary(0, stream, width, depth)
    other = _host_summary(1, stream, width, depth)
    assert _window_rows(node, [own, other], 0) == _window_rows(node, [own], 0)
    assert [row["cnt"] for row in _window_rows(node, [own], 0)] == [1, 2]


def test_summary_merge_leaves_inputs_untouched():
    """Summing a window's grids leaves every shipped summary's grid as it
    was: in-process runs hand the SUPER the SUB's own objects."""
    _, node, (width, depth) = _approx_node(1)
    summaries = [
        _host_summary(0, [(1, 2), (2, 3)], width, depth),
        _host_summary(0, [(1, 5)], width, depth),
    ]
    before = [[s.counts.copy() for s in summary.sketches] for summary in summaries]
    _window_rows(node, summaries, 0)
    for summary, grids in zip(summaries, before):
        for sketch, grid in zip(summary.sketches, grids):
            assert np.array_equal(sketch.counts, grid)


def test_summary_wire_bytes_is_data_independent():
    """The modeled wire size depends only on the clause and query shape."""
    a = summary_wire_bytes(0.05, 0.05, 2, 8)
    assert a == summary_wire_bytes(0.05, 0.05, 2, 8)
    width, depth = sketch_dimensions(0.05, 0.05)
    assert a == 2 * width * depth * 8 + math.ceil(1 / 0.05) * 8 + 16
    # Shrinking epsilon grows the summary; cardinality never enters.
    assert summary_wire_bytes(0.01, 0.05, 2, 8) > a
