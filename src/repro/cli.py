"""Command-line interface: ``python -m repro <command>``.

Five subcommands cover the toolkit's workflows:

``figures``   regenerate one paper experiment's figure tables
``timeline``  per-epoch load/traffic series from a streaming run
``analyze``   run the partitioning analysis on a GSQL script
``plan``      print the distributed plan for a script + partitioning
``trace``     generate (and optionally save) a synthetic trace

Examples::

    python -m repro figures --experiment 3 --streaming
    python -m repro timeline --experiment 1 --config Naive --hosts 2
    python -m repro analyze --script queries.gsql --rate 100000
    python -m repro plan --script queries.gsql --hosts 4 --partitioning srcIP
    python -m repro trace --out trace.csv --preset exp2
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from .distopt import DistributedOptimizer, Placement, render_plan
from .gsql.catalog import Catalog
from .gsql.errors import GsqlError
from .runtime import (
    BLOCK,
    QUEUE_MODES,
    SEMANTIC,
    Fault,
    FaultPlan,
    QueuePolicy,
    RebalancePolicy,
    RunOptions,
)
from .gsql.schema import tcp_schema
from .partitioning import FieldsConstraint, PartitioningSet, choose_partitioning
from .plan import QueryDag
from .traces import (
    TraceConfig,
    four_tap_trace,
    save_trace,
    trace_statistics,
)
from .workloads import (
    approx_heavy_catalog,
    complex_catalog,
    experiment1_configurations,
    experiment2_configurations,
    experiment3_configurations,
    format_figure,
    subnet_jitter_catalog,
    suspicious_flows_catalog,
    sweep_hosts,
)
from .workloads.experiments import (
    experiment1_trace_config,
    experiment2_trace_config,
    experiment3_trace_config,
    experiment_capacity,
    run_configuration,
)

_EXPERIMENTS = {
    1: (suspicious_flows_catalog, experiment1_configurations, experiment1_trace_config),
    2: (subnet_jitter_catalog, experiment2_configurations, experiment2_trace_config),
    3: (complex_catalog, experiment3_configurations, experiment3_trace_config),
}

_PRESETS = {
    "exp1": experiment1_trace_config,
    "exp2": experiment2_trace_config,
    "exp3": experiment3_trace_config,
}


def _load_script_catalog(path: str) -> Catalog:
    catalog = Catalog()
    catalog.add_stream(tcp_schema())
    with open(path) as handle:
        catalog.load_script(handle.read())
    return catalog


def _host_list(text: str) -> tuple:
    """Parse a comma-separated ``--hosts`` list with a friendly error."""
    try:
        counts = tuple(int(part) for part in text.split(","))
    except ValueError:
        counts = ()
    if not counts or any(count <= 0 for count in counts):
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of positive cluster sizes "
            f"(e.g. '1,2,4'), got {text!r}"
        )
    return counts


def _fault_spec(text: str) -> Fault:
    """Parse a ``--fault`` spec with a friendly error."""
    try:
        return Fault.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _simulation_flags() -> argparse.ArgumentParser:
    """Flags shared by every command that runs the simulator."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--hosts",
        type=_host_list,
        default=None,
        help="comma-separated cluster sizes, e.g. '1,2,4'",
    )
    common.add_argument("--seed", type=int, default=7)
    common.add_argument(
        "--execution",
        choices=("inprocess", "parallel"),
        default="inprocess",
        help="where operators run: in this process, or one forked worker "
        "per simulated host (identical results)",
    )
    common.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="cap the parallel worker pool at N processes "
        "(default: one per simulated host)",
    )
    return common


def _usage_error(message) -> int:
    """An invalid run description: one line on stderr, exit status 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_figures(args) -> int:
    catalog_fn, configs_fn, trace_fn = _EXPERIMENTS[args.experiment]
    try:
        options = RunOptions(
            streaming=args.streaming,
            execution=args.execution,
            workers=args.workers,
        )
    except ValueError as error:
        return _usage_error(error)
    trace = four_tap_trace(trace_fn(seed=args.seed))
    _, dag = catalog_fn()
    capacity = experiment_capacity(args.experiment, trace)
    host_counts = args.hosts
    outcomes = sweep_hosts(
        dag,
        trace,
        configs_fn(),
        host_counts=host_counts,
        host_capacity=capacity,
        **vars(options),
    )
    print(
        format_figure(
            f"Experiment {args.experiment}: CPU load on aggregator node (%)",
            outcomes,
            "cpu",
        )
    )
    print()
    print(
        format_figure(
            f"Experiment {args.experiment}: network load on aggregator (tuples/s)",
            outcomes,
            "net",
        )
    )
    return 0


def cmd_timeline(args) -> int:
    catalog_fn, configs_fn, trace_fn = _EXPERIMENTS[args.experiment]
    configurations = configs_fn()
    wanted = args.config.lower()
    matches = [c for c in configurations if wanted in c.name.lower()]
    if len(matches) != 1:
        names = ", ".join(repr(c.name) for c in configurations)
        return _usage_error(
            f"--config {args.config!r} matches {len(matches)} of: {names}"
        )
    if len(args.hosts) != 1:
        return _usage_error(
            f"timeline runs one cluster size; --hosts got {len(args.hosts)} "
            f"values: {','.join(str(h) for h in args.hosts)}"
        )
    (num_hosts,) = args.hosts
    configuration = matches[0]
    if (args.epsilon is not None or args.delta is not None) and (
        not args.approximate
    ):
        return _usage_error("--epsilon/--delta require --approximate")
    epsilon = args.epsilon if args.epsilon is not None else 0.05
    delta = args.delta if args.delta is not None else 0.05
    if args.approximate and not (0.0 < epsilon < 1.0 and 0.0 < delta < 1.0):
        return _usage_error(
            f"--epsilon and --delta must lie in (0, 1), got "
            f"epsilon={epsilon} delta={delta}"
        )
    if args.queue_policy != BLOCK and args.queue_limit is None:
        return _usage_error(
            f"--queue-policy {args.queue_policy} requires --queue-limit "
            f"(the per-host capacity it enforces)"
        )
    # The whole run description is built — and so validated — before the
    # trace is generated: a bad flag costs one line, not a traceback.
    try:
        queue_policy = (
            QueuePolicy(args.queue_limit, args.queue_policy)
            if args.queue_limit is not None
            else None
        )
        rebalance = None
        if args.rebalance_threshold is not None:
            rebalance = RebalancePolicy(threshold=args.rebalance_threshold)
        elif args.rebalance:
            rebalance = RebalancePolicy()
        options = RunOptions(
            streaming=True,
            queue_policy=queue_policy,
            faults=FaultPlan(tuple(args.fault)) if args.fault else None,
            execution=args.execution,
            workers=args.workers,
            rebalance=rebalance,
        )
        if options.faults:
            options.faults.validate(num_hosts)
    except ValueError as error:
        return _usage_error(error)
    trace = four_tap_trace(trace_fn(seed=args.seed))
    if args.approximate:
        # Replace the experiment's queries with the sketch-backed
        # approximate heavy-hitter workload over the same trace; the
        # configuration's deliveries name queries that no longer exist,
        # so fall back to the DAG roots.
        _, dag = approx_heavy_catalog(
            epsilon=epsilon, confidence=1.0 - delta
        )
        configuration = dataclasses.replace(configuration, deliver=None)
    else:
        _, dag = catalog_fn()
    outcome = run_configuration(
        dag,
        trace,
        configuration,
        num_hosts,
        host_capacity=experiment_capacity(args.experiment, trace),
        record_events=True,
        **vars(options),
    )
    result = outcome.result
    print(
        f"experiment {args.experiment}, {configuration.name!r}, "
        f"{num_hosts} host(s), execution {result.execution}"
    )
    host_pids = outcome.simulator.metrics.host_pids()
    by_host = ", ".join(
        f"h{host}:{'/'.join(str(pid) for pid in pids)}"
        for host, pids in sorted(
            (h, p) for h, p in host_pids.items() if h is not None
        )
    )
    driver = host_pids.get(None)
    if by_host:
        print(
            f"processes: driver {'/'.join(str(p) for p in driver or ())} — "
            f"{by_host}"
        )
    print(result.summary())
    print(
        f"peak resident batch: {result.peak_batch_rows} rows over "
        f"{result.timeline.num_epochs} epochs"
    )
    if result.node_variants:
        variants = ", ".join(
            f"{node_id}={variant}"
            for node_id, variant in sorted(result.node_variants.items())
        )
        print(f"aggregation variants: {variants}")
    if args.approximate:
        print(
            f"accuracy clause: ERROR {epsilon} CONFIDENCE {1.0 - delta} "
            f"(estimates within {epsilon} * window rows with probability "
            f">= {1.0 - delta})"
        )
    if queue_policy is not None:
        print(f"ingest queue: {queue_policy.describe()}")
    if queue_policy is not None and queue_policy.mode == SEMANTIC:
        if result.shed_counts:
            charged = ", ".join(
                f"{query}={rows}"
                for query, rows in sorted(result.shed_counts.items())
            )
            print(f"shed rows charged per query: {charged}")
        elif any(s.total_dropped for s in result.flow_stats.values()):
            # every shed row was provably worthless to every query
            print("shed rows charged per query: none (only dead rows shed)")
        else:
            print("shed rows charged per query: none (capacity held)")
    if result.flow_stats:
        print("\ningest per host (rows):")
        print(f"{'host':>6} {'in':>10} {'delivered':>10} {'dropped':>10}")
        for host in sorted(result.flow_stats):
            stats = result.flow_stats[host]
            print(
                f"{host:>6} {stats.total_in:>10} "
                f"{stats.total_delivered:>10} {stats.total_dropped:>10}"
            )
    if result.rebalance is not None:
        print()
        print(result.rebalance.describe())
    print()
    print(result.timeline.render(result.aggregator))
    if args.events_out is not None:
        with open(args.events_out, "w") as handle:
            count = outcome.simulator.metrics.dump_events(handle)
        print(f"\n{count} events written to {args.events_out}")
    return 0


def cmd_analyze(args) -> int:
    if args.rate <= 0:
        return _usage_error(f"--rate must be positive, got {args.rate:g}")
    try:
        catalog = _load_script_catalog(args.script)
    except GsqlError as error:
        return _usage_error(error)
    dag = QueryDag.from_catalog(catalog)
    print("query DAG:")
    print(dag.render())
    hardware = None
    if args.hardware:
        hardware = FieldsConstraint.of(*args.hardware.split(","))
        print(f"\nhardware constraint: {hardware.describe()}")
    result = choose_partitioning(dag, input_rate=args.rate, hardware=hardware)
    print()
    print(result.summary())
    print(f"\nrecommended partitioning: {result.partitioning}")
    return 0


def cmd_plan(args) -> int:
    try:
        placement = Placement(num_hosts=args.hosts, partitions_per_host=args.partitions)
        catalog = _load_script_catalog(args.script)
    except (ValueError, GsqlError) as error:
        return _usage_error(error)
    dag = QueryDag.from_catalog(catalog)
    ps: Optional[PartitioningSet] = None
    if args.partitioning:
        ps = PartitioningSet.of(*args.partitioning.split(","))
    optimizer = DistributedOptimizer(dag, placement, ps)
    plan = optimizer.optimize()
    print(f"partitioning: {ps if ps is not None else 'round-robin (none)'}")
    print()
    print("optimizer decisions:")
    print(optimizer.report)
    print()
    print(render_plan(plan))
    return 0


def cmd_trace(args) -> int:
    if args.preset:
        config = _PRESETS[args.preset](seed=args.seed)
    else:
        try:
            config = TraceConfig(duration=args.duration, rate=args.rate, seed=args.seed)
        except ValueError as error:
            return _usage_error(error)
    trace = four_tap_trace(config)
    print(trace_statistics(trace).describe())
    if args.out:
        save_trace(trace, args.out)
        print(f"\nwritten to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Query-aware stream partitioning toolkit (Johnson et al., 2008)",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    simulation_flags = _simulation_flags()

    figures = commands.add_parser(
        "figures",
        help="regenerate one paper experiment's figures",
        parents=[simulation_flags],
    )
    figures.add_argument("--experiment", type=int, choices=(1, 2, 3), required=True)
    figures.add_argument(
        "--streaming",
        action="store_true",
        help="execute epoch by epoch (identical figures, bounded memory)",
    )
    figures.set_defaults(func=cmd_figures, hosts=(1, 2, 3, 4))

    timeline = commands.add_parser(
        "timeline",
        help="per-epoch series from a streaming run",
        parents=[simulation_flags],
    )
    timeline.add_argument("--experiment", type=int, choices=(1, 2, 3), required=True)
    timeline.add_argument(
        "--config", required=True, help="configuration name (substring match)"
    )
    timeline.add_argument(
        "--events-out",
        default=None,
        help="write the run's JSON-lines event trace to this path",
    )
    timeline.add_argument(
        "--approximate",
        action="store_true",
        help="run the sketch-backed approximate heavy-hitter workload "
        "over the experiment's trace (hosts ship fixed-size summaries "
        "instead of exact partial rows)",
    )
    timeline.add_argument(
        "--epsilon",
        type=float,
        default=None,
        metavar="EPS",
        help="relative error bound for --approximate (default: 0.05)",
    )
    timeline.add_argument(
        "--delta",
        type=float,
        default=None,
        metavar="DELTA",
        help="failure probability for --approximate: estimates exceed "
        "eps * N with probability at most DELTA (default: 0.05)",
    )
    timeline.add_argument(
        "--queue-limit",
        type=int,
        default=None,
        metavar="ROWS",
        help="bound each host's ingest queue to ROWS rows per epoch",
    )
    timeline.add_argument(
        "--queue-policy",
        choices=QUEUE_MODES,
        default=BLOCK,
        help="overflow handling for --queue-limit (default: block, "
        "lossless); 'semantic' ranks overflow rows by plan-derived value "
        "and sheds the least valuable first",
    )
    timeline.add_argument(
        "--fault",
        action="append",
        type=_fault_spec,
        default=None,
        metavar="KIND:HOST:FIRST[-LAST][:DELAY]",
        help="inject a host fault, e.g. 'skip:1:2-4', 'delay:0:1-3:2', "
        "'duplicate:2:5', 'leave:1:3-5', 'join:2:4'; repeatable",
    )
    timeline.add_argument(
        "--rebalance",
        action="store_true",
        help="adaptively migrate hot partitions to cooler hosts at epoch "
        "boundaries (outputs stay identical to the static run)",
    )
    timeline.add_argument(
        "--rebalance-threshold",
        type=float,
        default=None,
        metavar="RATIO",
        help="host max/mean load ratio that arms a migration "
        "(default: %s; implies --rebalance)" % RebalancePolicy().threshold,
    )
    timeline.set_defaults(func=cmd_timeline, hosts=(4,))

    analyze = commands.add_parser(
        "analyze", help="choose a partitioning for a GSQL script"
    )
    analyze.add_argument("--script", required=True, help="GSQL DEFINE-script path")
    analyze.add_argument("--rate", type=float, default=100_000.0)
    analyze.add_argument(
        "--hardware", default=None, help="comma-separated splittable fields"
    )
    analyze.set_defaults(func=cmd_analyze)

    plan = commands.add_parser("plan", help="print the distributed plan")
    plan.add_argument("--script", required=True)
    plan.add_argument("--hosts", type=int, default=4)
    plan.add_argument("--partitions", type=int, default=2, help="per host")
    plan.add_argument(
        "--partitioning", default=None, help="comma-separated expressions"
    )
    plan.set_defaults(func=cmd_plan)

    trace = commands.add_parser("trace", help="generate a synthetic trace")
    trace.add_argument("--out", default=None, help="CSV output path")
    trace.add_argument("--duration", type=int, default=20)
    trace.add_argument("--rate", type=int, default=2000)
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--preset", choices=sorted(_PRESETS), default=None)
    trace.set_defaults(func=cmd_trace)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
