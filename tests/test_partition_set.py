"""Partitioning sets and the bucketed hash partitioner (§3.3)."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import HashSplitter
from repro.expr import mask, parse_scalar
from repro.partitioning import PartitioningSet, subset_sets
from repro.partitioning.partition_set import (
    HASH_RANGE,
    dedupe_exprs,
    fnv1a_hash_arrays,
)
from tests.split_reference import fnv1a_hash, reference_assign

INTEGER_DTYPES = (
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
)
# Byte-count boundaries of the folded hash, plus the sign edges.
EDGE_VALUES = (0, 255, 256, 65535, 2**32 - 1, 2**63 - 1, -1, -(2**63))


class TestConstruction:
    def test_of_parses_text_specs(self):
        ps = PartitioningSet.of("srcIP & 0xFFF0", "destIP")
        assert len(ps) == 2
        assert ps.exprs[0] == parse_scalar("srcIP & 0xFFF0")

    def test_of_accepts_expression_objects(self):
        ps = PartitioningSet.of(mask("srcIP", 0xF0))
        assert len(ps) == 1

    def test_empty(self):
        assert PartitioningSet.empty().is_empty
        assert len(PartitioningSet.empty()) == 0

    def test_str(self):
        assert str(PartitioningSet.of("srcIP")) == "{srcIP}"
        assert str(PartitioningSet.empty()) == "{}"

    def test_attrs(self):
        ps = PartitioningSet.of("srcIP & 0xF0", "destIP")
        assert ps.attrs() == frozenset({"srcIP", "destIP"})

    def test_hashable(self):
        assert PartitioningSet.of("srcIP") == PartitioningSet.of("srcIP")
        assert len({PartitioningSet.of("srcIP"), PartitioningSet.of("srcIP")}) == 1


class TestHash:
    def test_deterministic(self):
        assert fnv1a_hash((1, 2, 3)) == fnv1a_hash((1, 2, 3))

    def test_within_range(self):
        assert 0 <= fnv1a_hash((123456789,)) < HASH_RANGE

    def test_different_keys_differ(self):
        # not guaranteed in general, but these specific keys must differ
        assert fnv1a_hash((1,)) != fnv1a_hash((2,))

    def test_handles_strings_and_negatives(self):
        assert 0 <= fnv1a_hash(("abc", -5)) < HASH_RANGE


def _row_hashes(*columns):
    return [fnv1a_hash(key) for key in zip(*columns)]


class TestVectorizedHash:
    """``fnv1a_hash_arrays`` folds only the significant bytes of each key
    array and must stay bit-identical to the per-byte row hash."""

    @pytest.mark.parametrize("dtype", INTEGER_DTYPES, ids=lambda d: d.__name__)
    def test_edge_values_match_row_hash(self, dtype):
        info = np.iinfo(dtype)
        values = [v for v in EDGE_VALUES if info.min <= v <= info.max]
        values += [info.min, info.max]
        for value in values:  # alone: the array's min/max pick the byte count
            hashed = fnv1a_hash_arrays([np.array([value], dtype=dtype)])
            assert hashed.tolist() == [fnv1a_hash((value,))], value
        batch = np.array(values, dtype=dtype)
        assert fnv1a_hash_arrays([batch]).tolist() == _row_hashes(values)

    def test_uint64_at_and_above_two_to_the_63(self):
        """Unsigned keys have no sign bytes: the old kernel wrapped them
        to negative int64 and folded ``0xFF`` where the row hash folds 0."""
        values = [2**63, 2**64 - 1]
        hashed = fnv1a_hash_arrays([np.array(values, dtype=np.uint64)])
        assert hashed.tolist() == [3245419018, 291793387] == _row_hashes(values)

    def test_mixed_sign_batch_and_several_keys(self):
        first = [-(2**40), -300, -1, 0, 1, 70000, 2**62]
        second = [5, 5, 5, 5, 5, 5, 5]  # one significant byte
        third = [0] * 7  # none: all sixteen steps fold into one multiply
        hashed = fnv1a_hash_arrays(
            [np.array(column, dtype=np.int64) for column in (first, second, third)]
        )
        assert hashed.tolist() == _row_hashes(first, second, third)

    def test_empty_arrays(self):
        hashed = fnv1a_hash_arrays([np.array([], dtype=np.int64)])
        assert hashed.dtype == np.uint64 and len(hashed) == 0

    def test_rejects_non_integer_keys(self):
        """Keys that are neither integers nor floats have no encoding."""
        with pytest.raises(ValueError):
            fnv1a_hash_arrays([np.array(["a", "b"])])
        with pytest.raises(ValueError):
            fnv1a_hash_arrays([np.array([1, "a", None], dtype=object)])
        with pytest.raises(ValueError):
            fnv1a_hash_arrays([])

    def test_vector_partitioner_matches_rows_on_unsigned_keys(self):
        values = [0, 7, 2**63 - 1, 2**63, 2**63 + 12345, 2**64 - 1]
        ps = PartitioningSet.of("x")
        indices = ps.vector_partitioner(8)(
            {"x": np.array(values, dtype=np.uint64)}, len(values)
        )
        expected = reference_assign(
            HashSplitter(8, ps), [{"x": value} for value in values]
        )
        assert indices.tolist() == expected


@given(
    st.sampled_from(INTEGER_DTYPES).flatmap(
        lambda dtype: st.lists(
            st.integers(int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)),
            min_size=1,
            max_size=30,
        ).map(lambda values: np.array(values, dtype=dtype))
    ),
    st.integers(min_value=0, max_value=2**16),
)
def test_vectorized_hash_equals_row_hash(key, salt):
    salts = np.full(len(key), salt, dtype=np.int64)
    hashed = fnv1a_hash_arrays([key, salts])
    assert hashed.tolist() == _row_hashes(key.tolist(), salts.tolist())


# Every key column the runtime produces: int64 and uint64 attributes,
# float64 arithmetic, and the object columns MIN2/MAX2 make of an int and
# a float operand.  Integral floats at the int64/uint64 edges, -0.0, NaN
# and the infinities included.
INTS = st.integers(-(2**63), 2**64 - 1)
FLOATS = st.one_of(
    st.floats(), INTS.map(float), st.sampled_from([-0.0, 2.0**63, 2.0**64])
)
KEY_COLUMNS = st.one_of(
    st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1).map(
        lambda values: np.array(values, dtype=np.int64)
    ),
    st.lists(st.integers(0, 2**64 - 1), min_size=1).map(
        lambda values: np.array(values, dtype=np.uint64)
    ),
    st.lists(FLOATS, min_size=1).map(lambda values: np.array(values, dtype=np.float64)),
    st.lists(st.one_of(INTS, FLOATS, st.booleans()), min_size=1).map(
        lambda values: np.array(values, dtype=object)
    ),
)


@given(KEY_COLUMNS, st.integers(min_value=0, max_value=2**16))
def test_every_key_column_hashes_like_the_reference(key, salt):
    salts = np.full(len(key), salt, dtype=np.int64)
    hashed = fnv1a_hash_arrays([key, salts])
    assert hashed.tolist() == _row_hashes(key.tolist(), salts.tolist())


@given(st.lists(INTS, min_size=1, max_size=20))
def test_keys_equal_under_eq_hash_equal(values):
    """An int, the float equal to it and the bool equal to it are one
    group key to the group-by and the join, so they must share a
    partition, whichever column type carries them."""
    twins = []
    for value in values:
        twins.append(value)
        if float(value) == value:
            twins.append(float(value))
        if value in (0, 1):
            twins.append(bool(value))
    hashed = fnv1a_hash_arrays([np.array(twins, dtype=object)]).tolist()
    for (left, left_hash), (right, right_hash) in itertools.combinations(
        zip(twins, hashed), 2
    ):
        if left == right:
            assert left_hash == right_hash, (left, right)
    for value, value_hash in zip(twins, hashed):  # alone, in a typed column
        dtype = (np.int64 if value < 2**63 else np.uint64) if type(value) is int else None
        typed = np.array([value], dtype=dtype)
        assert fnv1a_hash_arrays([typed]).tolist() == [value_hash], value


def test_mixed_int_and_float_keys_share_a_partition():
    """``100`` and ``100.0`` (a ``MAX2(len, 100.0)`` key), ``True`` and
    ``1``, ``-0.0`` and ``0``: one hash whatever the column type."""
    cases = [
        [np.array([100]), np.array([100.0]), np.array([100, 100.0], dtype=object)],
        [np.array([1]), np.array([True]), np.array([True, 1, 1.0], dtype=object)],
        [np.array([0], dtype=np.uint64), np.array([-0.0]), np.array([-0.0], dtype=object)],
    ]
    for columns in cases:
        hashes = {h for column in columns for h in fnv1a_hash_arrays([column]).tolist()}
        assert len(hashes) == 1, columns


def assign(ps, num_partitions, values, name="srcIP"):
    """The partition of every value of column ``name``."""
    column = np.array(values, dtype=np.int64)
    return ps.vector_partitioner(num_partitions)({name: column}, len(column)).tolist()


class TestPartitioner:
    def test_all_rows_assigned_in_range(self):
        indices = assign(PartitioningSet.of("srcIP"), 8, range(1000))
        assert all(0 <= index < 8 for index in indices)

    def test_equal_keys_same_partition(self):
        ps = PartitioningSet.of("srcIP", "destIP")
        columns = {
            "srcIP": np.array([10, 10]),
            "destIP": np.array([20, 20]),
            "len": np.array([1, 999]),
        }
        first, second = ps.vector_partitioner(4)(columns, 2).tolist()
        assert first == second

    def test_rough_balance(self):
        """Hash partitioning should spread distinct keys roughly evenly."""
        counts = np.bincount(assign(PartitioningSet.of("srcIP"), 4, range(4000)))
        assert min(counts) > 700  # perfectly even would be 1000

    def test_single_partition(self):
        assert assign(PartitioningSet.of("srcIP"), 1, [42]) == [0]

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            PartitioningSet.of("srcIP").vector_partitioner(0)

    def test_empty_set_has_no_key_function(self):
        with pytest.raises(ValueError):
            PartitioningSet.empty().vector_partitioner(4)

    def test_mask_expression_partitioning(self):
        """Rows equal under the mask land together even when raw IPs differ."""
        ps = PartitioningSet.of("srcIP & 0xFFF0")
        first, second = assign(ps, 8, [0x0A0001A1, 0x0A0001AF])
        assert first == second


class TestHelpers:
    def test_subset_sets_enumerates_all_nonempty(self):
        ps = PartitioningSet.of("a", "b")
        subsets = {str(s) for s in subset_sets(ps)}
        assert subsets == {"{a}", "{b}", "{a, b}"}

    def test_dedupe_exprs(self):
        exprs = [parse_scalar("srcIP"), parse_scalar("srcIP"), parse_scalar("destIP")]
        assert len(dedupe_exprs(exprs)) == 2


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=64))
def test_partitioner_always_in_range(value, num_partitions):
    (index,) = assign(PartitioningSet.of("x"), num_partitions, [value], "x")
    assert 0 <= index < num_partitions


@given(
    st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=50),
    st.integers(min_value=1, max_value=16),
)
def test_partition_is_a_function_of_the_key(values, num_partitions):
    """The same key value must always land in the same partition."""
    indices = assign(PartitioningSet.of("x & 0xFF00"), num_partitions, values, "x")
    seen = {}
    for value, index in zip(values, indices):
        assert seen.setdefault(value & 0xFF00, index) == index
