"""The deployment advisor: one call from query set to deployment report.

Ties the whole reproduction together the way an operator would use it
(and the way the paper's conclusion frames it — "make OC-768 monitoring
feasible"): given a query catalog, a trace sample, the splitter hardware
at hand and a cluster size, produce

* measured per-query selectivities (the cost model's §4.2.1 inputs);
* the recommended partitioning (§4.2.2 search, hardware-feasible);
* the distributed plan the §5 optimizer builds for it;
* simulated per-host CPU and network loads on the sample;
* the load balance the partitioning key actually achieves;
* a verification that the distributed deployment's outputs equal
  centralized execution on the sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .cluster.balance import BalanceReport, partition_balance
from .cluster.costs import DEFAULT_COSTS, CostTable
from .cluster.simulator import ClusterSimulator, SimulationResult
from .cluster.splitter import HashSplitter, RoundRobinSplitter, Splitter
from .distopt.placement import Placement
from .distopt.plan_ir import DistributedPlan
from .distopt.render import render_plan
from .distopt.transform import DistributedOptimizer
from .engine.executor import batches_equal, run_centralized
from .partitioning.hardware import HardwareConstraint
from .partitioning.partition_set import PartitioningSet
from .partitioning.search import SearchResult, choose_partitioning
from .plan.dag import QueryDag
from .traces.generator import Trace
from .workloads.experiments import measure_selectivities


@dataclass
class DeploymentReport:
    """Everything :meth:`DeploymentAdvisor.advise` produces."""

    num_hosts: int
    partitioning: PartitioningSet
    search: SearchResult
    plan: DistributedPlan
    simulation: SimulationResult
    balance: BalanceReport
    selectivity: Dict[str, float]
    outputs_verified: bool
    optimizer_decisions: Dict[str, str] = field(default_factory=dict)

    @property
    def aggregator_cpu(self) -> float:
        return self.simulation.aggregator_cpu_load()

    @property
    def aggregator_net(self) -> float:
        return self.simulation.aggregator_network_load()

    @property
    def overloaded_hosts(self) -> List[int]:
        """Hosts whose simulated demand exceeds their capacity."""
        return [
            host.index
            for host in self.simulation.hosts
            if self.simulation.cpu_load(host.index) > 100.0
        ]

    def summary(self) -> str:
        lines = [
            f"deployment: {self.num_hosts} host(s), partitioning {self.partitioning}",
            f"measured selectivities: "
            + ", ".join(f"{k}={v:.4f}" for k, v in sorted(self.selectivity.items())),
            "",
            self.simulation.summary(),
            "",
            f"partition balance: max/mean {self.balance.max_over_mean:.2f}, "
            f"cv {self.balance.coefficient_of_variation:.2f}",
            f"outputs verified against centralized execution: "
            f"{'yes' if self.outputs_verified else 'NO — investigate!'}",
        ]
        if self.overloaded_hosts:
            lines.append(
                f"WARNING: overloaded host(s) {self.overloaded_hosts} — "
                "the real system would drop tuples here"
            )
        return "\n".join(lines)

    def render_plan(self) -> str:
        return render_plan(self.plan)


class DeploymentAdvisor:
    """Plans query-aware deployments for a query DAG."""

    def __init__(
        self,
        dag: QueryDag,
        hardware: Optional[HardwareConstraint] = None,
        costs: CostTable = DEFAULT_COSTS,
    ):
        self._dag = dag
        self._hardware = hardware
        self._costs = costs

    def advise(
        self,
        trace: Trace,
        num_hosts: int,
        partitions_per_host: int = 2,
        host_capacity: Optional[float] = None,
        deliver: Optional[List[str]] = None,
        partitioning: Optional[PartitioningSet] = None,
    ) -> DeploymentReport:
        """Produce a full deployment report for ``num_hosts`` hosts.

        ``partitioning`` overrides the recommendation (what-if analysis);
        by default the §4.2.2 search chooses, respecting the hardware
        constraint.  Pass the paper's round-robin baseline explicitly as
        ``PartitioningSet.empty()``.
        """
        selectivity = measure_selectivities(self._dag, trace)
        search = choose_partitioning(
            self._dag,
            input_rate=trace.rate,
            selectivity=selectivity,
            hardware=self._hardware,
        )
        chosen = partitioning if partitioning is not None else search.partitioning
        placement = Placement(num_hosts, partitions_per_host)
        optimizer = DistributedOptimizer(
            self._dag,
            placement,
            None if chosen.is_empty else chosen,
            deliver=deliver,
        )
        plan = optimizer.optimize()
        splitter = self._splitter(chosen, placement.num_partitions)
        simulator = ClusterSimulator(
            self._dag,
            plan,
            stream_rate=trace.rate,
            costs=self._costs,
            host_capacity=host_capacity,
        )
        source_rows = {source.name: trace.packets for source in self._dag.sources()}
        simulation = simulator.run(source_rows, splitter, trace.duration_sec)
        balance = partition_balance(splitter, trace.column_batch(), placement)
        verified = self._verify(source_rows, simulation)
        return DeploymentReport(
            num_hosts=num_hosts,
            partitioning=chosen,
            search=search,
            plan=plan,
            simulation=simulation,
            balance=balance,
            selectivity=selectivity,
            outputs_verified=verified,
            optimizer_decisions=dict(optimizer.report.decisions),
        )

    def minimum_hosts(
        self,
        trace: Trace,
        host_counts,
        target_cpu: float = 80.0,
        **advise_kwargs,
    ) -> Optional[int]:
        """Smallest cluster size whose busiest host stays under
        ``target_cpu`` percent, or None if none in range qualifies."""
        for num_hosts in sorted(host_counts):
            report = self.advise(trace, num_hosts, **advise_kwargs)
            busiest = max(
                report.simulation.cpu_load(host.index)
                for host in report.simulation.hosts
            )
            if busiest < target_cpu:
                return num_hosts
        return None

    def _splitter(self, ps: PartitioningSet, num_partitions: int) -> Splitter:
        if ps.is_empty:
            return RoundRobinSplitter(num_partitions)
        return HashSplitter(num_partitions, ps)

    def _verify(self, source_rows, simulation: SimulationResult) -> bool:
        reference = run_centralized(self._dag, source_rows)
        for name, batch in simulation.outputs.items():
            if not batches_equal(batch, reference[name]):
                return False
        return True
