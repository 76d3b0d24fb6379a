"""Tests for the reconfigurable-network substrate (traffic, single- and multi-source)."""

from __future__ import annotations

import pytest

from repro.exceptions import AlgorithmError, WorkloadError
from repro.network import (
    MultiSourceNetwork,
    SingleSourceTreeNetwork,
    TrafficRequest,
    TrafficTrace,
    degree_statistics,
    multi_source_topology,
    single_source_topology,
    theoretical_degree_bound,
    trace_from_workloads,
    uniform_trace,
)
from repro.workloads import MarkovWorkload, UniformWorkload


class TestTrafficTrace:
    def test_rejects_self_requests(self):
        with pytest.raises(WorkloadError):
            TrafficTrace(n_nodes=4, requests=[TrafficRequest(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(WorkloadError):
            TrafficTrace(n_nodes=4, requests=[TrafficRequest(0, 9)])

    def test_per_source_sequences(self):
        trace = TrafficTrace(
            n_nodes=4,
            requests=[TrafficRequest(0, 1), TrafficRequest(1, 2), TrafficRequest(0, 3)],
        )
        split = trace.per_source_sequences()
        assert split[0] == [1, 3]
        assert split[1] == [2]
        assert trace.sources() == [0, 1]

    def test_traffic_matrix(self):
        trace = TrafficTrace(
            n_nodes=3, requests=[TrafficRequest(0, 1), TrafficRequest(0, 1), TrafficRequest(2, 0)]
        )
        matrix = trace.traffic_matrix()
        assert matrix[(0, 1)] == 2
        assert matrix[(2, 0)] == 1

    def test_uniform_trace_properties(self):
        trace = uniform_trace(n_nodes=16, n_requests=500, n_sources=4, seed=1)
        assert len(trace) == 500
        assert all(request.source < 4 for request in trace)
        assert all(request.source != request.destination for request in trace)

    def test_uniform_trace_validation(self):
        with pytest.raises(WorkloadError):
            uniform_trace(n_nodes=1, n_requests=5)
        with pytest.raises(WorkloadError):
            uniform_trace(n_nodes=4, n_requests=-1)

    def test_trace_from_workloads(self):
        workloads = {
            0: MarkovWorkload(8, seed=1),
            3: UniformWorkload(8, seed=2),
        }
        trace = trace_from_workloads(8, workloads, requests_per_source=50, interleave_seed=3)
        assert len(trace) == 100
        assert set(trace.sources()) == {0, 3}
        assert all(request.source != request.destination for request in trace)

    def test_trace_from_workloads_validates_universe(self):
        with pytest.raises(WorkloadError):
            trace_from_workloads(8, {0: UniformWorkload(4, seed=1)}, requests_per_source=5)


class TestSingleSourceTree:
    def test_requires_destinations(self):
        with pytest.raises(AlgorithmError):
            SingleSourceTreeNetwork(source=0, destinations=[])

    def test_source_cannot_be_destination(self):
        with pytest.raises(AlgorithmError):
            SingleSourceTreeNetwork(source=0, destinations=[0, 1])

    def test_universe_padded_to_complete_size(self):
        network = SingleSourceTreeNetwork(source=0, destinations=list(range(1, 11)))
        assert network.n_destinations == 10
        assert network.tree_size == 15

    def test_serve_returns_cost(self):
        network = SingleSourceTreeNetwork(
            source=0, destinations=list(range(1, 8)), placement_seed=1
        )
        record = network.serve(3)
        assert record.access_cost >= 1
        assert network.n_served == 1

    def test_unknown_destination_rejected(self):
        network = SingleSourceTreeNetwork(source=0, destinations=[1, 2, 3])
        with pytest.raises(AlgorithmError):
            network.serve(9)

    def test_destination_depth_shrinks_after_repeated_requests(self):
        network = SingleSourceTreeNetwork(
            source=0, destinations=list(range(1, 32)), placement_seed=5
        )
        for _ in range(3):
            network.serve(17)
        assert network.destination_depth(17) == 0

    def test_serve_sequence_aggregates(self):
        network = SingleSourceTreeNetwork(
            source=2, destinations=[0, 1, 3, 4, 5, 6, 7], algorithm="static-opt"
        )
        result = network.serve_sequence([1, 1, 4, 1])
        assert result.n_requests == 4
        assert result.total_adjustment_cost == 0

    def test_cost_summary(self):
        network = SingleSourceTreeNetwork(source=0, destinations=[1, 2, 3], placement_seed=1)
        network.serve(2)
        summary = network.cost_summary()
        assert summary["n_requests"] == 1
        assert summary["source"] == 0


class TestMultiSourceNetwork:
    def test_validation(self):
        with pytest.raises(AlgorithmError):
            MultiSourceNetwork(n_nodes=1)
        with pytest.raises(AlgorithmError):
            MultiSourceNetwork(n_nodes=4, sources=[])
        with pytest.raises(AlgorithmError):
            MultiSourceNetwork(n_nodes=4, sources=[9])

    @pytest.mark.parametrize(
        "sources", [[3, 3], [1, 3, 1], [True], [1, 2.0]], ids=["twice", "thrice", "bool", "float"]
    )
    def test_repeated_and_non_integer_sources_are_rejected(self, sources):
        with pytest.raises(AlgorithmError):
            MultiSourceNetwork(7, sources=sources)

    def test_default_sources_are_all_nodes(self):
        network = MultiSourceNetwork(n_nodes=4)
        assert network.sources == [0, 1, 2, 3]

    def test_serve_trace_accumulates_costs(self):
        network = MultiSourceNetwork(n_nodes=8, sources=[0, 1], algorithm="rotor-push")
        trace = uniform_trace(n_nodes=8, n_requests=200, n_sources=2, seed=4)
        summary = network.serve_trace(trace)
        assert summary["n_requests"] == 200
        assert summary["total_cost"] > 0
        assert summary["n_sources"] == 2.0

    def test_trace_size_must_match(self):
        network = MultiSourceNetwork(n_nodes=8, sources=[0])
        with pytest.raises(AlgorithmError):
            network.serve_trace(uniform_trace(n_nodes=16, n_requests=10, seed=1))

    def test_per_source_summary(self):
        network = MultiSourceNetwork(n_nodes=8, sources=[0, 5])
        network.serve(0, 3)
        network.serve(5, 2)
        summaries = network.per_source_summary()
        assert summaries[0]["n_requests"] == 1
        assert summaries[5]["n_requests"] == 1

    def test_unknown_source_rejected(self):
        network = MultiSourceNetwork(n_nodes=8, sources=[0])
        with pytest.raises(AlgorithmError):
            network.serve(3, 1)

    def test_locality_reduces_cost_vs_static(self):
        """Self-adjusting per-source trees beat static ones on clustered traffic."""

        def run(algorithm: str) -> float:
            network = MultiSourceNetwork(
                n_nodes=64, sources=[0, 1], algorithm=algorithm, base_seed=3
            )
            workloads = {
                0: MarkovWorkload(
                    64, n_neighbours=2, self_loop=0.85, neighbour_probability=0.1, seed=10
                ),
                1: MarkovWorkload(
                    64, n_neighbours=2, self_loop=0.85, neighbour_probability=0.1, seed=11
                ),
            }
            trace = trace_from_workloads(64, workloads, requests_per_source=800, interleave_seed=1)
            return network.serve_trace(trace)["total_cost"]

        assert run("rotor-push") < run("static-oblivious")


class TestTopology:
    def test_single_source_topology_degrees_bounded(self):
        network = SingleSourceTreeNetwork(
            source=0, destinations=list(range(1, 16)), placement_seed=2
        )
        graph = single_source_topology(network)
        stats = degree_statistics(graph)
        assert stats["max_degree"] <= 4.0
        assert stats["n_nodes"] == 16

    def test_multi_source_topology_degree_bound(self):
        network = MultiSourceNetwork(n_nodes=10, sources=[0, 1, 2], base_seed=1)
        graph = multi_source_topology(network)
        stats = degree_statistics(graph)
        assert stats["max_degree"] <= theoretical_degree_bound(3)
        assert stats["n_nodes"] == 10

    def test_topology_follows_reconfiguration(self):
        network = SingleSourceTreeNetwork(
            source=0, destinations=list(range(1, 16)), placement_seed=2
        )
        before_root_neighbours = set(single_source_topology(network).neighbors(0))
        for _ in range(3):
            network.serve(7)
        after = single_source_topology(network)
        # Destination 7 is now hosted at the tree root, hence attached to the source.
        assert 7 in set(after.neighbors(0))
        assert before_root_neighbours != {7} or 7 in before_root_neighbours

    def test_degree_statistics_empty_graph(self):
        import networkx as nx

        stats = degree_statistics(nx.Graph())
        assert stats["n_nodes"] == 0.0


class TestDestinationTable:
    """The destination-to-element table of every source tree.

    A multi-source tree hosts every node but its source: destination ``d``
    is element ``d`` below the source and ``d - 1`` above it.
    """

    @pytest.fixture()
    def network(self):
        network = MultiSourceNetwork(10, sources=[0, 4, 9], base_seed=2)
        network.serve_trace_stream([([4, 0, 9, 4], [7, 3, 8, 1])])
        return network

    @staticmethod
    def state(network):
        return {
            source: (
                network.tree_of(source).tree_algorithm.network.placement(),
                network.tree_of(source).n_served,
                network.tree_of(source).cost_summary(),
            )
            for source in network.sources
        }

    @pytest.mark.parametrize("source", [0, 4, 9])
    def test_destinations_and_elements(self, network, source):
        tree = network.tree_of(source)
        expected = [node for node in range(10) if node != source]
        assert tree.destinations() == expected
        assert tree.n_destinations == 9
        assert [tree.element_of(node) for node in expected] == list(range(9))
        assert tree.elements_of(expected) == list(range(9))
        assert tree.tree_size == 15

    @pytest.mark.parametrize("bad", [4, -1, 10], ids=["source", "minus-one", "n-nodes"])
    def test_an_unreachable_destination_is_named(self, network, bad):
        tree = network.tree_of(4)
        with pytest.raises(AlgorithmError, match=f"destination {bad} is not reachable"):
            tree.element_of(bad)
        with pytest.raises(AlgorithmError, match=f"destination {bad} is not reachable"):
            tree.elements_of([1, 2, bad, 3, 4, -1, 10])

    def test_minus_one_does_not_wrap_to_the_last_node(self, network):
        # the last entry of source 4's table is node 9, element 8
        tree = network.tree_of(4)
        assert tree.element_of(9) == 8
        for destinations in ([-1], [9, -1], [-9]):
            with pytest.raises(AlgorithmError):
                tree.elements_of(destinations)

    @pytest.mark.parametrize("bad", [4, -1, 10], ids=["source", "minus-one", "n-nodes"])
    def test_a_stream_chunk_naming_one_serves_nothing(self, network, bad):
        before = self.state(network)
        chunk = ([0, 4, 9, 4, 4], [5, 2, 1, bad, 3])
        with pytest.raises(AlgorithmError, match=f"destination {bad} is not reachable"):
            network.serve_trace_stream([chunk])
        assert self.state(network) == before

    def test_an_explicit_destination_list(self):
        tree = SingleSourceTreeNetwork(source=2, destinations=[5, 0, 9, 0, 3])
        assert tree.destinations() == [5, 0, 9, 3]
        assert tree.n_destinations == 4
        assert [tree.element_of(node) for node in (5, 0, 9, 3)] == [0, 1, 2, 3]
        for bad in (2, 1, -1, 10, "5"):
            with pytest.raises(AlgorithmError):
                tree.element_of(bad)
            with pytest.raises(AlgorithmError):
                tree.elements_of([5, bad])

    def test_n_nodes_equals_the_listed_destinations(self):
        listed = SingleSourceTreeNetwork(
            source=3, destinations=[0, 1, 2, 4, 5, 6, 7], placement_seed=6
        )
        counted = SingleSourceTreeNetwork(source=3, n_nodes=8, placement_seed=6)
        assert counted.destinations() == listed.destinations()
        assert counted.serve_batch([7, 0, 7, 5]) == listed.serve_batch([7, 0, 7, 5])
        assert counted.cost_summary() == listed.cost_summary()
        assert (
            counted.tree_algorithm.network.placement()
            == listed.tree_algorithm.network.placement()
        )

    @pytest.mark.parametrize(
        "arguments",
        [{}, {"destinations": [1, 2], "n_nodes": 3}, {"n_nodes": 3, "source": 3},
         {"destinations": [1, -2]}, {"destinations": [1, 2.5]}],
        ids=["neither", "both", "source-outside", "negative", "float"],
    )
    def test_bad_destination_arguments(self, arguments):
        with pytest.raises(AlgorithmError):
            SingleSourceTreeNetwork(**{"source": 0, **arguments})
