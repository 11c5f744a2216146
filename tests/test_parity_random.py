"""Randomized parity sweeps: fifty seeds, every oracle, always on.

Each seed derives a fresh adversarial trace, cluster size and
partitioning (see :mod:`parity`) and feeds it to the run both as dict
rows and as a ``ColumnBatch`` (``parity.SOURCES``).  All four sweeps are
part of the plain test run:

* **streaming == one-shot** (``test_randomized_parity``) — the three
  paper workloads in rotation, the streaming side in-process and on
  forked workers.  Every fifth seed also routes the streaming run
  through a tight bounded ``block`` ingest queue: the lossless policy
  defers rows across epochs under backpressure, and the result must
  still be byte-identical to one-shot.
* **sliding windows and sketches** (``test_randomized_sliding_parity``)
  — even seeds the exact ``RANGE/SLIDE`` workload, odd seeds the
  approximate one, window shapes rotating with the seed; again
  in-process and forked.
* **rebalancing** (``test_randomized_rebalance_parity``) — hot-key
  traces with an aggressive ``RebalancePolicy`` migrating partitions
  mid-run (every third seed races the migrations against a ``delay``
  fault, every fifth runs the streaming side on forked workers);
  outputs stay byte-identical to the static one-shot run.
* **shedding** (``test_randomized_shedding_dominance``) — the same
  hot-key seeds run unbounded and under the two blind lossy queues,
  ``drop-newest`` and ``drop-oldest``, at one capacity; per seed every
  host conserves its rows and no query's recall exceeds 1, and every
  other seed proves a forked-worker ``drop-newest`` run byte-identical
  to in-process.

The first two sweeps also meet the paper's §3.4 oracle: every delivered
exact query's distributed output equals ``run_centralized``'s (a
tumbling oracle on a sliding seed must fail —
``test_sliding_parity_rejects_a_tumbling_oracle``), and every
approximate one stays within its declared bounds of it (an emptied
answer must fail — ``test_sliding_parity_rejects_an_emptied_answer``).
The windowed oracle folds raw rows by definition, so a wrong aggregate
``merge`` in the SUPER fails it too
(``test_sliding_parity_rejects_a_stale_merge``).

A sweep that never exercised its mechanism would test nothing, so two
sweep-level checks follow: some seed migrated, and some seed's drops
cost some query part of its answer.
Both take their numbers from the module-scoped, memoized trial the
per-seed tests call, so any selection of tests — one node id, ``-k``,
``--lf``, a sharded run — computes what it asserts.

Last, the recall floors of the overload curve: under either blind
mode, half the offered rate recalls at least 1.2x what a tenth of it
does, on every workload.
"""

import functools

import pytest

from repro.workloads import sliding_flows_catalog

from tests.parity import (
    SLIDING_SHAPES,
    SOURCES,
    WORKLOADS,
    assert_matches_centralized,
    assert_blind_shedding,
    assert_rebalanced_matches_oneshot,
    assert_sliding_matches_oneshot,
    assert_streaming_matches_oneshot,
    blind_shedding,
    mean_recall,
    oldest_shedding,
    random_packets,
    shed_trial,
    skewed_packets,
    windowed_last_value_run,
)

SEEDS = range(50)
EXECUTIONS = ("inprocess", "parallel")
#: the three paper workloads, rotated by seed
ROTATION = tuple(WORKLOADS)


@pytest.mark.parametrize("execution", EXECUTIONS)
@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("seed", SEEDS)
def test_randomized_parity(seed, source, execution):
    # tight block queue on every fifth seed
    capacity = 25 if seed % 5 == 0 else None
    assert_streaming_matches_oneshot(
        ROTATION[seed % 3], seed, source, capacity, execution=execution
    )


@pytest.mark.parametrize("execution", EXECUTIONS)
@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("seed", SEEDS)
def test_randomized_sliding_parity(seed, source, execution):
    """Sliding-window and sketch-variant parity: even seeds run the exact
    RANGE/SLIDE workload, odd seeds the approximate one; window shapes
    and partitionings rotate with the seed (see parity.SLIDING_SHAPES)."""
    assert_sliding_matches_oneshot(seed, source, execution=execution)


def test_sliding_parity_rejects_a_tumbling_oracle():
    """The §3.4 check inside the sliding sweep bites: a centralized run
    that ignores the window (``RANGE 1 SLIDE 1``) must fail a
    ``RANGE 3 SLIDE 1`` seed — the bug the oracle carried for three PRs."""
    assert SLIDING_SHAPES[6 % len(SLIDING_SHAPES)] == (3, 1)
    _, tumbling = sliding_flows_catalog(1, 1)
    with pytest.raises(
        AssertionError, match="sliding_flows: distributed output differs"
    ):
        assert_sliding_matches_oneshot(6, "columnar", oracle=tumbling)


def test_sliding_parity_rejects_an_emptied_answer():
    """The approximate seeds' bound check bites: an answer that reports
    nothing underestimates nothing, yet must fail for the heavy keys it
    omits."""
    with pytest.raises(AssertionError, match="missing heavy key"):
        assert_sliding_matches_oneshot(7, "columnar", answer=lambda rows: [])


def test_sliding_parity_rejects_a_stale_merge():
    """The windowed §3.4 check bites on a wrong ``merge``: the oracle
    folds each window's raw rows with ``update`` only, so a SUPER whose
    LAST_VALUE merge keeps the older pane state fails it, while the
    correct LAST_VALUE on the same plan and split meets it."""
    packets = random_packets(4)
    dag, correct = windowed_last_value_run("LAST_VALUE", packets)
    assert_matches_centralized(dag, packets, correct)
    dag, stale = windowed_last_value_run("STALE_LAST_VALUE", packets)
    with pytest.raises(AssertionError, match="latest: distributed output differs"):
        assert_matches_centralized(dag, packets, stale)


@pytest.fixture(scope="module")
def rebalance_trial():
    """``trial(seed, source)`` -> migrations that seed performed.

    Memoized for the module: the per-seed tests and the sweep-level
    check share one run per (seed, source), whichever of them is
    selected.  A failing trial raises and is not cached.
    """

    @functools.lru_cache(maxsize=None)
    def trial(seed, source):
        # parallel execution on every fifth seed (the delay-fault seeds,
        # seed % 3 == 0, are chosen inside the trial)
        execution = "parallel" if seed % 5 == 0 else "inprocess"
        _, stream = assert_rebalanced_matches_oneshot(
            ROTATION[seed % 3], seed, source, execution=execution
        )
        return len(stream.rebalance.migrations)

    return trial


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("seed", SEEDS)
def test_randomized_rebalance_parity(seed, source, rebalance_trial):
    rebalance_trial(seed, source)


@pytest.mark.parametrize("source", SOURCES)
def test_rebalance_sweep_migrated(source, rebalance_trial):
    assert sum(rebalance_trial(seed, source) for seed in SEEDS) > 0, (
        "no seed in the rebalance sweep triggered a migration — the "
        "parity leg exercised nothing"
    )


@pytest.fixture(scope="module")
def shedding_trial():
    """``trial(seed, source)`` -> the lowest per-query recall that seed's
    blind modes left; memoized like :func:`rebalance_trial`."""

    @functools.lru_cache(maxsize=None)
    def trial(seed, source):
        # every other seed re-runs drop-newest on forked workers and
        # asserts it byte-identical to in-process
        execution = "parallel" if seed % 2 == 0 else "inprocess"
        return assert_blind_shedding(
            ROTATION[seed % 3], seed, source, execution=execution
        )

    return trial


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("seed", SEEDS)
def test_randomized_shedding_dominance(seed, source, shedding_trial):
    shedding_trial(seed, source)


@pytest.mark.parametrize("source", SOURCES)
def test_shedding_sweep_strictly_dominates(source, shedding_trial):
    """The sweep's gate bites: every trial dropped rows (``shed_trial``
    asserts it), and some seed left some query below full recall."""
    lowest = min(shedding_trial(seed, source) for seed in SEEDS)
    assert lowest < 1.0, (
        "no seed's drops cost any query a row of its answer — the blind "
        "shedding sweep exercised nothing"
    )


def recall_ratio(workload, mode, fraction, baseline_fraction):
    """Summed mean per-query recall under ``mode`` at ``fraction`` of the
    offered per-host rate over that at ``baseline_fraction``, five
    hot-key seeds on two hosts."""
    totals = [0.0, 0.0]
    for index, share in enumerate((fraction, baseline_fraction)):
        for seed in range(5):
            ((_, recall),) = shed_trial(
                workload, seed, "columnar", 2, share, (mode,)
            )
            totals[index] += mean_recall(recall)
    return totals[0] / totals[1]


#: Half the offered rate must recall this much more than a tenth of it.
RECALL_FLOOR = 1.2


def assert_recall_floors(mode, fractions=(0.5, 0.1)):
    for workload in WORKLOADS:
        ratio = recall_ratio(workload, mode, *fractions)
        assert ratio >= RECALL_FLOOR, (
            f"{workload}@{fractions[0]}/{fractions[1]}: {ratio:.2f}x the "
            f"recall, floor {RECALL_FLOOR}x"
        )


def test_semantic_shedding_recall_floors():
    for mode in (blind_shedding, oldest_shedding):
        assert_recall_floors(mode)


def test_recall_floors_reject_blind_against_itself():
    with pytest.raises(AssertionError, match=r"suspicious@0\.25/0\.25: 1\.00x"):
        assert_recall_floors(blind_shedding, (0.25, 0.25))


def test_generator_is_deterministic():
    assert random_packets(11) == random_packets(11)
    assert random_packets(11) != random_packets(12)
    assert skewed_packets(11) == skewed_packets(11)
    assert skewed_packets(11) != skewed_packets(12)


def test_generator_rows_are_time_sorted():
    for seed in (0, 1, 2):
        times = [p["time"] for p in random_packets(seed)]
        assert times == sorted(times)
        times = [p["time"] for p in skewed_packets(seed)]
        assert times == sorted(times)


def test_skewed_generator_has_a_hot_key():
    for seed in (0, 3, 7):
        packets = skewed_packets(seed)
        counts = {}
        for packet in packets:
            counts[packet["srcIP"]] = counts.get(packet["srcIP"], 0) + 1
        assert max(counts.values()) > 0.4 * len(packets)
