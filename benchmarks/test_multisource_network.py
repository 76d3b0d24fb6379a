"""Benchmark of the multi-source reconfigurable-network substrate.

Not a figure of the paper, but the application its introduction motivates:
per-source self-adjusting trees composed into a bounded-degree datacenter
topology.  The benchmark routes a clustered traffic trace through the network
with Rotor-Push trees and with oblivious static trees and records both
runtimes and the resulting cost/degree statistics.
"""

from __future__ import annotations

from repro.network import MultiSourceNetwork, TrafficSpec, degree_statistics, multi_source_topology
from repro.workloads import WorkloadSpec

N_NODES = 64
SOURCES = [0, 1, 2, 3]
REQUESTS_PER_SOURCE = 1_000


def _make_traffic() -> TrafficSpec:
    workloads = {
        source: WorkloadSpec.create(
            "markov",
            n_elements=N_NODES,
            n_neighbours=3,
            self_loop=0.7,
            neighbour_probability=0.2,
            seed=source + 1,
        )
        for source in SOURCES
    }
    return TrafficSpec.create(N_NODES, workloads, interleaving="uniform_pairs", seed=9)


def _route(algorithm: str):
    network = MultiSourceNetwork(N_NODES, sources=SOURCES, algorithm=algorithm, base_seed=4)
    summary = network.serve_trace_stream(_make_traffic().iter_trace(REQUESTS_PER_SOURCE))
    return network, summary


def test_multisource_rotor_push(benchmark):
    network, summary = benchmark.pedantic(_route, args=("rotor-push",), rounds=1, iterations=1)
    graph = multi_source_topology(network)
    stats = degree_statistics(graph)
    benchmark.extra_info["cost_summary"] = summary
    benchmark.extra_info["degree_statistics"] = stats
    assert summary["n_requests"] == len(SOURCES) * REQUESTS_PER_SOURCE
    assert stats["max_degree"] <= 4 * len(SOURCES)
    # the adjacency mapping is undirected: every edge sits in both endpoints' sets
    assert sorted(graph) == list(range(N_NODES))
    assert all(node in graph[neighbour] for node in graph for neighbour in graph[node])


def test_multisource_static_oblivious(benchmark):
    network, summary = benchmark.pedantic(_route, args=("static-oblivious",), rounds=1, iterations=1)
    benchmark.extra_info["cost_summary"] = summary
    assert summary["total_adjustment_cost"] == 0


def test_multisource_rotor_beats_static_on_clustered_traffic():
    _, rotor_summary = _route("rotor-push")
    _, static_summary = _route("static-oblivious")
    assert rotor_summary["total_access_cost"] < static_summary["total_access_cost"]
