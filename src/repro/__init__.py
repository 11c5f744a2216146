"""repro — query-aware stream partitioning for network monitoring.

A from-scratch reproduction of Johnson, Muthukrishnan, Shkapenyuk and
Spatscheck, *Query-Aware Partitioning for Monitoring Massive Network Data
Streams* (2008): a Gigascope-style GSQL front end, the partitioning
analysis framework, the partition-aware distributed query optimizer, and a
deterministic cluster simulator that re-runs every experiment of the
paper's evaluation.

Quickstart::

    from repro import Catalog, QueryDag, tcp_schema, choose_partitioning

    catalog = Catalog()
    catalog.add_stream(tcp_schema())
    catalog.load_script(\"\"\"
        DEFINE QUERY flows AS
        SELECT tb, srcIP, destIP, COUNT(*) as cnt
        FROM TCP GROUP BY time/60 as tb, srcIP, destIP;
    \"\"\")
    dag = QueryDag.from_catalog(catalog)
    result = choose_partitioning(dag, input_rate=100_000)
    print(result.partitioning)   # {srcIP, destIP}
"""

from .advisor import DeploymentAdvisor, DeploymentReport
from .cluster import (
    BalanceReport,
    ClusterSimulator,
    CostTable,
    HashSplitter,
    RoundRobinSplitter,
    SimulationResult,
    partition_balance,
)
from .distopt import DistributedOptimizer, DistributedPlan, Placement, render_plan
from .engine import batches_equal, run_centralized
from .engine.panes import WindowSpec
from .gsql import StreamSchema, packet_schema, parse_query, tcp_schema
from .gsql.catalog import Catalog
from .partitioning import (
    CostModel,
    FieldsConstraint,
    HardwareConstraint,
    PartitioningSet,
    choose_partitioning,
    compatible_set,
    is_compatible,
    reconcile_partition_sets,
)
from .plan import QueryDag
from .traces import Trace, TraceConfig, four_tap_trace, generate_trace
from .workloads import (
    Configuration,
    complex_catalog,
    run_configuration,
    subnet_jitter_catalog,
    suspicious_flows_catalog,
    sweep_hosts,
)

__version__ = "1.0.0"

__all__ = [
    "BalanceReport",
    "Catalog",
    "DeploymentAdvisor",
    "DeploymentReport",
    "WindowSpec",
    "partition_balance",
    "ClusterSimulator",
    "Configuration",
    "CostModel",
    "CostTable",
    "DistributedOptimizer",
    "DistributedPlan",
    "FieldsConstraint",
    "HardwareConstraint",
    "HashSplitter",
    "PartitioningSet",
    "Placement",
    "QueryDag",
    "RoundRobinSplitter",
    "SimulationResult",
    "StreamSchema",
    "Trace",
    "TraceConfig",
    "batches_equal",
    "choose_partitioning",
    "compatible_set",
    "complex_catalog",
    "four_tap_trace",
    "generate_trace",
    "is_compatible",
    "packet_schema",
    "parse_query",
    "reconcile_partition_sets",
    "render_plan",
    "run_centralized",
    "run_configuration",
    "subnet_jitter_catalog",
    "suspicious_flows_catalog",
    "sweep_hosts",
    "tcp_schema",
    "__version__",
]
