"""Property tests for the sketch layer (engine.sketches).

The distributed correctness story rests on three claims, each tested
here directly:

* Count-Min never undercounts, and overshoots ``eps * N`` with
  probability at most ``delta`` (the §tentpole accuracy contract);
* plain sketches are *linear*, so splitting a stream across hosts and
  merging the per-host sketches reproduces the single-site sketch
  bit-for-bit — aggregation order and placement never change the answer;
* the ECM pane ring is exact over a window: the sketch SUPER's window
  estimate is the merged sketch's, and streaming state stays bounded by
  the window, however long the stream.

The key hash itself is pinned: ``_hash_key`` against golden values, and
the vectorized :func:`hash_keys` the SKETCH_SUB kernel folds grids with
against ``_hash_key``, bit for bit.  Changing either re-blesses every
approximate answer.  Keys equal under ``==`` (``100``, ``100.0``, and
``1``, ``True``) share their cells, as they share a group.
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
from repro.engine.sketches import (
    CountMinSketch,
    EpochSummary,
    _hash_key,
    hash_keys,
    sketch_dimensions,
    summary_wire_bytes,
)
from repro.engine.variants import SUMMARY_COLUMN, build_variant_kernel
from repro.plan import QueryDag
from repro.runtime.backend import EngineBackend
from repro.workloads import approx_heavy_catalog

keys = st.integers(min_value=0, max_value=40)
weights = st.integers(min_value=0, max_value=50)
streams = st.lists(st.tuples(keys, weights), max_size=200)


# -- the key hash ------------------------------------------------------------

#: ``_hash_key(key, seed)`` for seeds 0, 1 and 1001, recorded before the
#: vectorized hash existed.  ``True`` hashes as the ``1`` it equals (it
#: once hashed as its repr, ``"True"``).
HASH_GOLDEN = {
    (0x0A000001, 0xC0A80002): (
        14511442430783606412, 17336162063160898461, 8635163641630881765,
    ),
    ("abc", -5, True): (
        8762696838550964305, 9740341752081579804, 7236915733257620708,
    ),
    (2**64 - 1, -(2**63), 3.5): (
        5168707219040203037, 6181390345690970678, 16328094211009427614,
    ),
}


def test_hash_key_golden_values():
    for key, expected in HASH_GOLDEN.items():
        assert tuple(_hash_key(key, seed) for seed in (0, 1, 1001)) == expected


INT_DTYPES = (
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
)


@st.composite
def key_parts(draw):
    """Up to three key columns of one length: integers of every width
    (extremes included), bools, floats, strings, or an object column
    mixing types."""
    length = draw(st.integers(1, 25))
    column = lambda elements: st.lists(  # noqa: E731
        elements, min_size=length, max_size=length
    )
    parts = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("int", "bool", "float", "str", "mixed")))
        if kind == "int":
            dtype = np.dtype(draw(st.sampled_from(INT_DTYPES)))
            info = np.iinfo(dtype)
            values = draw(column(st.integers(int(info.min), int(info.max))))
            parts.append(np.array(values, dtype=dtype))
        elif kind == "bool":
            parts.append(np.array(draw(column(st.booleans()))))
        elif kind == "float":
            parts.append(np.array(draw(column(st.floats(width=64)))))
        elif kind == "str":
            parts.append(np.array(draw(column(st.text(max_size=6)))))
        else:
            mixed = st.one_of(
                st.integers(-(2**64), 2**64), st.text(max_size=4),
                st.booleans(), st.none(), st.floats(allow_nan=False),
            )
            parts.append(np.array(draw(column(mixed)), dtype=object))
    return parts


@settings(deadline=None, max_examples=150)
@given(parts=key_parts(), seeds=st.lists(st.integers(0, 5000), min_size=1, max_size=6))
@example(
    parts=[
        np.array([2**63, 2**64 - 1, 0], dtype=np.uint64),
        np.array([-(2**63), 2**63 - 1, -1], dtype=np.int64),
    ],
    seeds=[0, 1, 1001],
)
@example(parts=[np.array([0.0, -0.0, np.nan, 1.5])], seeds=[7])
def test_vectorized_hash_matches_hash_key(parts, seeds):
    """``hash_keys`` is ``_hash_key`` of each key as the tuple of Python
    scalars ``tolist`` yields, for every seed."""
    keys = list(zip(*(part.tolist() for part in parts))) if parts else [()]
    expected = [[_hash_key(key, seed) for key in keys] for seed in seeds]
    assert hash_keys(parts, seeds).tolist() == expected


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
    int's cells, element by element and as a float or object column."""
    ints = data.draw(st.lists(equal_ints, min_size=1, max_size=12))
    spelled = [data.draw(st.sampled_from(_spellings(value))) for value in ints]
    assert spelled == ints
    expected = hash_keys([np.array(ints, dtype=object)], seeds).tolist()
    for column in (np.array(spelled, dtype=object), np.array(spelled, dtype=float)):
        assert hash_keys([column], seeds).tolist() == expected
    for value, other in zip(ints, spelled):
        assert [_hash_key((other, 7), seed) for seed in seeds] == [
            _hash_key((value, 7), seed) for seed in seeds
        ]
    sketch = CountMinSketch(width=97, depth=3, seed=seeds[0])
    for value in spelled:
        sketch.update((value,))
    for value in ints:
        assert sketch.estimate((value,)) >= ints.count(value)


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
    sketch = CountMinSketch.from_error(0.1, 0.05, seed=seed)
    truth = {}
    for key, weight in stream:
        sketch.update((key,), weight)
        truth[key] = truth.get(key, 0) + weight
    for key, total in truth.items():
        assert sketch.estimate((key,)) >= total
    # Keys never inserted still get a non-negative upper bound.
    assert sketch.estimate(("never",)) >= 0


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
        sketch = CountMinSketch.from_error(epsilon, delta, seed=trial)
        truth = {}
        for _ in range(2000):
            key = min(rng.randrange(1, 500) for _ in range(2))
            sketch.update((key,))
            truth[key] = truth.get(key, 0) + 1
        n = sketch.total
        sample = rng.sample(sorted(truth), 25)
        for key in sample:
            trials += 1
            if sketch.estimate((key,)) - truth[key] > epsilon * n:
                violations += 1
    # Expected failure rate <= delta = 0.1; allow 2x slack for variance.
    assert violations <= 2 * delta * trials


@settings(deadline=None, max_examples=60)
@given(stream=streams, cut=st.integers(0, 200), seed=st.integers(0, 7))
def test_cm_merge_is_exact(stream, cut, seed):
    """Linearity: any split of the stream merges back to the single-site
    sketch, cell for cell."""
    single = CountMinSketch(width=30, depth=3, seed=seed)
    left = CountMinSketch(width=30, depth=3, seed=seed)
    right = CountMinSketch(width=30, depth=3, seed=seed)
    for index, (key, weight) in enumerate(stream):
        single.update((key,), weight)
        (left if index < cut else right).update((key,), weight)
    left.merge(right)
    assert left == single


def test_cm_merge_refuses_shape_and_conservative_mismatch():
    """Merge refuses a sketch of another width, depth or seed: its cells
    count other keys.  (The conservative-update mode, which merge also
    refused, is gone.)"""
    sketch = CountMinSketch(width=8, depth=2)
    for other in (
        CountMinSketch(width=9, depth=2),
        CountMinSketch(width=8, depth=3),
        CountMinSketch(width=8, depth=2, seed=5),
    ):
        with pytest.raises(ValueError):
            sketch.merge(other)
        with pytest.raises(ValueError):
            other.merge(sketch)
    sketch.merge(CountMinSketch(width=8, depth=2))


@settings(deadline=None, max_examples=40)
@given(stream=streams)
def test_conservative_update_is_tighter(stream):
    """The tightness a sketch has without the retired conservative mode:
    a key that has a cell of its own in some row is estimated exactly,
    and no key below its total."""
    sketch = CountMinSketch(width=10, depth=2)
    truth = {}
    for key, weight in stream:
        sketch.update((key,), weight)
        truth[key] = truth.get(key, 0) + weight
    cells = {key: sketch._columns((key,)) for key in truth}
    for key, total in truth.items():
        own_cell = any(
            all(cells[other][row] != cells[key][row] for other in truth if other != key)
            for row in range(sketch.depth)
        )
        estimate = sketch.estimate((key,))
        assert estimate == total if own_cell else estimate >= total


def test_cm_rejects_negative_weights_and_bad_dimensions():
    sketch = CountMinSketch(width=4, depth=1)
    with pytest.raises(ValueError):
        sketch.update(("k",), -1)
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
        for key, weight in stream:
            for sketch in sketches + merged:
                sketch.update((key, -key), weight)
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
    for row in rows:
        key = (row["srcIP"], row["destIP"])
        assert row["cnt"] == merged[0].estimate(key)
        assert row["bytes"] == merged[1].estimate(key)


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
            sketch.update((pane % 3, 0))
        history.append(EpochSummary(pane, sketches, ((pane % 3, 0),), 1))
        out, _ = snode.step([_shipped(history[-1:])], [{"tb": pane + 1}], False)
        assert snode.buffered_rows() <= 4  # window - slide
        window = CountMinSketch(width, depth, seed=0)
        for summary in history[-5:]:
            window.merge(summary.sketches[0])
        live = {p % 3 for p in range(max(0, pane - 4), pane + 1)}
        rows = out.to_rows()
        assert {row["tb"] for row in rows} == {pane}
        assert {(row["srcIP"], row["cnt"]) for row in rows} == {
            (key, window.estimate((key, 0))) for key in live
        }


# -- epoch summaries ---------------------------------------------------------


def _summary(pane, stream, seed=0):
    sketch = CountMinSketch(16, 2, seed=seed)
    truth = {}
    for key, weight in stream:
        sketch.update((key,), weight)
        truth[key] = truth.get(key, 0) + weight
    return EpochSummary(
        pane=pane,
        sketches=(sketch,),
        candidates=tuple(sorted(truth, key=repr)),
        rows=len(stream),
    )


@settings(deadline=None, max_examples=40)
@given(stream=streams, cut=st.integers(0, 200))
def test_summary_merge_equals_single_site(stream, cut):
    """The distributed invariant end to end: per-host summaries merged at
    the aggregator carry exactly the single-site sketch."""
    whole = _summary(3, stream)
    left = _summary(3, stream[:cut])
    right = _summary(3, stream[cut:])
    merged = left.merge(right)
    assert merged.sketches[0] == whole.sketches[0]
    assert merged.rows == whole.rows
    assert set(merged.candidates) == set(whole.candidates)


def test_summary_merge_rejects_pane_mismatch():
    with pytest.raises(ValueError):
        _summary(1, [(1, 1)]).merge(_summary(2, [(1, 1)]))


def test_summary_merge_leaves_inputs_untouched():
    left = _summary(0, [(1, 2), (2, 3)])
    before = left.sketches[0].counts.copy()
    left.merge(_summary(0, [(1, 5)]))
    assert np.array_equal(left.sketches[0].counts, before)


def test_summary_wire_bytes_is_data_independent():
    """The modeled wire size depends only on the clause and query shape."""
    a = summary_wire_bytes(0.05, 0.05, 2, 8)
    assert a == summary_wire_bytes(0.05, 0.05, 2, 8)
    width, depth = sketch_dimensions(0.05, 0.05)
    assert a == 2 * width * depth * 8 + math.ceil(1 / 0.05) * 8 + 16
    # Shrinking epsilon grows the summary; cardinality never enters.
    assert summary_wire_bytes(0.01, 0.05, 2, 8) > a
