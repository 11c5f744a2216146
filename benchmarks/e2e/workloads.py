"""The six workloads and the benchmark's own seeded input generators.

Inputs are made here, in the benchmark process, from ``--seed``; the
program receives only the generated GSQL text and trace.  ``scale``
shrinks every trace proportionally (the self-tests smoke at 0.05, the
output check runs the row-engine oracle at 1/20).

Every workload runs the columnar engine on 4 hosts x 2 partitions per
host with the paper's ``experiment_capacity`` host budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

import adapter

#: Link rate of the four paper-trace workloads: 20 s x 40k rows/s = 800k rows.
PAPER_RATE = 40_000

#: Pareto shape of the flow sizes in every generated packet trace.  The
#: generator's default, 1.2, has infinite variance: a handful of elephant
#: flows decide partition skew, the busiest epoch and the aggregator's
#: load, and those moved by 14-58 % (interquartile) from seed to seed.
#: At 2.5 the same quantities stay within a few percent, so a run on
#: another seed measures the same workload.
TAIL_ALPHA = 2.5

#: Accuracy clause of the approximate query in ``sliding_sketch``.
EPSILON = 0.05
CONFIDENCE = 0.95
WINDOW_PANES = 3

ZIPF_GROUPS = 10_000
ZIPF_EXPONENT = 1.1
ZIPF_EPOCHS = 6
ZIPF_ROWS_PER_EPOCH = 8_000

QSET_FAMILIES = 32
QSET_RATE = 2_000  # the default TraceConfig: 20 s x 2k rows/s = 40k rows
#: 2 500 flows in the 40k-row trace instead of the default 625, again so
#: that what the 96 queries select is steady from seed to seed.
QSET_FLOW_PACKETS = 16.0


@dataclass(frozen=True)
class Workload:
    """One set of inputs plus the deployment the paper runs it under."""

    name: str
    why: str
    script: Callable[[int], str]  # seed -> GSQL text
    trace: Callable[[int, float], object]  # (seed, scale) -> trace
    #: Hash expressions, None for round-robin, or ``adapter.CHOSEN``.
    partitioning: object
    params: Optional[Dict[str, int]] = None
    deliver: Optional[Tuple[str, ...]] = None
    streaming: bool = True
    execution: str = "inprocess"
    capacity_experiment: int = 1
    #: ``(exact, approximate)`` query names when the workload carries an
    #: approximate query whose answer the check must bound.
    approximate: Optional[Tuple[str, str]] = None
    #: trace columns -> {query: rows}: the workload's own oracle, for
    #: queries the program's ``run_centralized`` oracle cannot answer.
    reference: Optional[Callable[[Dict[str, np.ndarray]], Dict[str, list]]] = None


def _paper_trace(experiment: int):
    def make(seed: int, scale: float):
        return adapter.paper_trace(
            experiment, max(200, int(PAPER_RATE * scale)), seed, TAIL_ALPHA
        )

    return make


# -- sliding_sketch: one catalog, an exact and an approximate sliding query ----

SLIDING_EXACT_SQL = f"""
DEFINE QUERY exact_heavy AS
SELECT tb, srcIP, destIP, COUNT(*) as cnt, SUM(len) as bytes
FROM TCP
GROUP BY time as tb, srcIP, destIP
RANGE {WINDOW_PANES} SLIDE 1;
"""


def sliding_script(_seed: int) -> str:
    return SLIDING_EXACT_SQL + adapter.APPROX_HEAVY_SQL.format(
        range=WINDOW_PANES, slide=1, error=EPSILON, confidence=CONFIDENCE
    )


def zipf_trace(seed: int, scale: float):
    """A Zipf(1.1) stream over 10 000 (srcIP, destIP) groups.

    The head of the distribution gives every window real epsilon-heavy
    hitters (the approximate query must emit rows), the tail keeps the
    exact query's per-window group count near the cardinality.
    """
    rng = np.random.default_rng(seed)
    rows_per_epoch = max(200, int(ZIPF_ROWS_PER_EPOCH * scale))
    rows = ZIPF_EPOCHS * rows_per_epoch
    weights = 1.0 / np.arange(1, ZIPF_GROUPS + 1) ** ZIPF_EXPONENT
    # Which group is hot depends on the seed, not only how hot it is.
    keys = rng.permutation(ZIPF_GROUPS)[
        rng.choice(ZIPF_GROUPS, size=rows, p=weights / weights.sum())
    ]
    epoch = np.repeat(np.arange(ZIPF_EPOCHS, dtype=np.int64), rows_per_epoch)
    within = np.tile(np.arange(rows_per_epoch, dtype=np.int64), ZIPF_EPOCHS)
    columns = {
        "srcIP": 0x0A000000 + keys // 64,
        "destIP": 0xC0A80000 + keys % 64,
        "srcPort": rng.integers(1024, 65536, rows),
        "destPort": np.full(rows, 80),
        "protocol": np.full(rows, 6),
        "time": epoch,
        "timestamp": epoch * 1_000_000 + within,
        "flags": np.full(rows, 16),
        "len": rng.integers(40, 1500, rows),
    }
    return adapter.trace_from_columns(
        {name: np.asarray(column, dtype=np.int64) for name, column in columns.items()},
        ZIPF_EPOCHS,
        seed,
    )


def sliding_reference(columns: Dict[str, np.ndarray]) -> Dict[str, list]:
    """Brute-force answer of ``exact_heavy``: the window labelled by end
    pane ``e`` covers panes ``[e - 2, e]``, for every window that
    intersects the trace.  The program's row-engine oracle evaluates
    RANGE/SLIDE queries as tumbling, so this workload brings its own."""
    pane = columns["time"]
    key = (columns["srcIP"] << 32) | columns["destIP"]
    rows = []
    for end in range(int(pane.min()), int(pane.max()) + WINDOW_PANES):
        inside = (pane > end - WINDOW_PANES) & (pane <= end)
        keys, inverse = np.unique(key[inside], return_inverse=True)
        counts = np.bincount(inverse)
        totals = np.zeros(len(keys), dtype=np.int64)
        np.add.at(totals, inverse, columns["len"][inside])
        rows.extend(
            {"tb": end, "srcIP": k >> 32, "destIP": k & 0xFFFFFFFF, "cnt": c, "bytes": b}
            for k, c, b in zip(keys.tolist(), counts.tolist(), totals.tolist())
        )
    return {"exact_heavy": rows}


# -- qset96_deploy: a generated 96-query catalog -----------------------------------

_MASKS = (0xFFFFFFF0, 0xFFFFFF00, 0xFFFF0000, 0xFFFFFFFF)  # /28 /24 /16 /32
_PORTS = (80, 443, 22, 25, 53, 8080)


def qset_script(seed: int) -> str:
    """32 families of three queries: a filtered subnet-level flow
    aggregate, a second-level MAX aggregate over it, and the
    consecutive-epoch self-join of that — the shape of the paper's
    complex query set, varied in mask, epoch length and predicate."""
    rng = random.Random(seed)
    statements = []
    for family in range(QSET_FAMILIES):
        mask = _MASKS[family % len(_MASKS)]
        epoch = 1 + family % 3
        # Every mask gets four port filters (one row in six passes) and
        # four length filters (most rows pass): the seed picks the values,
        # not the split, so that the work is steady from seed to seed.
        if (family // len(_MASKS)) % 2 == 0:
            where = f"destPort = {rng.choice(_PORTS)}"
        else:
            where = f"len > {rng.randrange(200, 500)}"
        statements.append(
            f"""
DEFINE QUERY flows_{family} AS
SELECT tb, srcNet, destIP, COUNT(*) as cnt, SUM(len) as bytes
FROM TCP
WHERE {where}
GROUP BY time/{epoch} as tb, srcIP & {mask:#x} as srcNet, destIP;

DEFINE QUERY peak_{family} AS
SELECT tb, srcNet, MAX(cnt) as max_cnt
FROM flows_{family}
GROUP BY tb, srcNet;

DEFINE QUERY pairs_{family} AS
SELECT S1.tb, S1.srcNet, S1.max_cnt as cnt1, S2.max_cnt as cnt2
FROM peak_{family} S1, peak_{family} S2
WHERE S1.srcNet = S2.srcNet and S1.tb = S2.tb + 1;
"""
        )
    return "".join(statements)


def _qset_trace(seed: int, scale: float):
    return adapter.default_trace(
        max(200, int(QSET_RATE * scale)), seed, TAIL_ALPHA, QSET_FLOW_PACKETS
    )


WORKLOADS = (
    Workload(
        name="suspicious_hash",
        why=(
            "Sec. 6.1 suspicious flows, hash on the 5-tuple: the splitter is "
            "most of the run and pushed-down FULL aggregation the rest, so "
            "splitter and hash/group kernel work must show here."
        ),
        script=lambda _seed: adapter.SUSPICIOUS_FLOWS_SQL,
        params=adapter.SUSPICIOUS_PARAMS,
        trace=_paper_trace(1),
        partitioning=("srcIP", "destIP", "srcPort", "destPort"),
        capacity_experiment=1,
    ),
    Workload(
        name="jitter_join",
        why=(
            "Sec. 6.2 subnet stats + jitter self-join, 190k delivered rows: "
            "operators and delivery carry the run, so a splitter gain moves "
            "it little and a join or delivery gain a lot."
        ),
        script=lambda _seed: adapter.SUBNET_JITTER_SQL,
        trace=_paper_trace(2),
        partitioning=("srcIP & 0xFFFFFFF0", "destIP"),
        deliver=("subnet_stats", "jitter", "tcp_flows"),
        capacity_experiment=2,
    ),
    Workload(
        name="complex_rr_oneshot",
        why=(
            "Sec. 6.3 complex DAG, round-robin splitter, SUB->merge->SUPER "
            "through a loaded aggregator, one 800k-row batch: a hash-path "
            "gain that costs the round-robin or one-shot path shows here."
        ),
        script=lambda _seed: adapter.COMPLEX_2S_SQL,
        trace=_paper_trace(3),
        partitioning=None,
        streaming=False,
        capacity_experiment=3,
    ),
    Workload(
        name="complex_parallel",
        why=(
            "Same DAG hashed on (srcIP, destIP) with forked workers, pool "
            "forked per run: fork, shm transport, pickle and stage barriers "
            "dominate, so only a transport or pool gain moves it much."
        ),
        script=lambda _seed: adapter.COMPLEX_2S_SQL,
        trace=_paper_trace(3),
        partitioning=("srcIP", "destIP"),
        execution="parallel",
        capacity_experiment=3,
    ),
    Workload(
        name="sliding_sketch",
        why=(
            "Exact and sketch sliding-window queries on a Zipf trace, "
            "round-robin: per-row-Python operators are nearly all of the run "
            "and the splitter none, the bypass for splitter/columnar work."
        ),
        script=sliding_script,
        trace=zipf_trace,
        partitioning=None,
        capacity_experiment=1,
        approximate=("exact_heavy", "approx_heavy"),
        reference=sliding_reference,
    ),
    Workload(
        name="qset96_deploy",
        why=(
            "Generated 96-query catalog on a 40k-row trace: the front end "
            "and per-step Python orchestration outweigh kernels, so it "
            "shows front-end and run-loop changes and not kernel work."
        ),
        script=qset_script,
        trace=_qset_trace,
        partitioning=adapter.CHOSEN,
        capacity_experiment=1,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
