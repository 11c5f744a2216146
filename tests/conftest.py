"""Shared fixtures: catalogs, DAGs, and small deterministic traces."""

import multiprocessing

import pytest

from repro.gsql.catalog import Catalog
from repro.gsql.schema import tcp_schema
from repro.traces import TraceConfig, generate_trace
from repro.workloads import (
    complex_catalog,
    subnet_jitter_catalog,
    suspicious_flows_catalog,
)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a child process running — a worker pool
    that was not torn down, on success or on failure."""
    yield
    leftover = multiprocessing.active_children()
    assert not leftover, f"child processes left running: {leftover}"


@pytest.fixture
def catalog():
    """An empty catalog with the TCP stream registered."""
    cat = Catalog()
    cat.add_stream(tcp_schema())
    return cat


@pytest.fixture(scope="session")
def catalog_factory():
    """A factory producing fresh catalogs — for hypothesis tests, which
    run many examples inside one fixture instantiation."""

    def make():
        cat = Catalog()
        cat.add_stream(tcp_schema())
        return cat

    return make


@pytest.fixture
def complex_dag():
    """The paper's §3.2 flows -> heavy_flows -> flow_pairs DAG."""
    _, dag = complex_catalog()
    return dag


@pytest.fixture
def suspicious_dag():
    _, dag = suspicious_flows_catalog()
    return dag


@pytest.fixture
def jitter_dag():
    _, dag = subnet_jitter_catalog()
    return dag


@pytest.fixture(scope="session")
def small_trace():
    """A small deterministic trace for integration tests (~4k packets)."""
    return generate_trace(
        TraceConfig(duration=8, rate=500, num_taps=1, seed=3)
    )


@pytest.fixture(scope="session")
def tiny_trace():
    """A very small trace for per-test equivalence checks (~800 packets)."""
    return generate_trace(
        TraceConfig(
            duration=5,
            rate=160,
            num_taps=1,
            seed=5,
            num_src_hosts=24,
            num_dst_hosts=8,
            mean_flow_packets=16.0,
            mean_flow_lifetime=2.0,
        )
    )
