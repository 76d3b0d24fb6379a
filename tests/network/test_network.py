"""Tests for the reconfigurable-network substrate (traffic, single- and multi-source)."""

from __future__ import annotations

import pytest

from repro.exceptions import AlgorithmError, WorkloadError
from repro.network import (
    MultiSourceNetwork,
    SingleSourceTreeNetwork,
    TrafficSpec,
    degree_statistics,
    multi_source_topology,
    single_source_topology,
    theoretical_degree_bound,
)
from repro.network.multi_source import ALGORITHM_SEED_OFFSET
from repro.workloads import WorkloadSpec


def uniform_traffic(n_nodes: int, sources, seed: int) -> TrafficSpec:
    """Uniform destinations from each of ``sources``, in a uniform interleave."""
    uniform = WorkloadSpec.create("uniform", n_elements=n_nodes)
    return TrafficSpec.create(
        n_nodes, {source: uniform for source in sources}, interleaving="uniform_pairs"
    ).with_seed(seed)


def trace_pairs(traffic: TrafficSpec, requests_per_source: int, chunk_size: int = 64):
    """The streamed trace of ``traffic`` as ``(source, destination)`` pairs."""
    return [
        pair
        for sources, destinations in traffic.iter_trace(requests_per_source, chunk_size)
        for pair in zip(sources, destinations)
    ]


class TestTrafficTrace:
    """The streamed trace of a :class:`TrafficSpec`, as a network serves it."""

    def test_self_requests_are_remapped_to_the_next_node(self):
        # a source's own node goes to source + 1, wrapping past the last node
        traffic = TrafficSpec.create(
            8,
            {
                0: WorkloadSpec.create("fixed-sequence", n_elements=8, sequence=(0, 0, 5)),
                7: WorkloadSpec.create("fixed-sequence", n_elements=8, sequence=(7, 3, 7)),
            },
        )
        assert trace_pairs(traffic, 3, chunk_size=2) == [
            (0, 1), (7, 0), (0, 1), (7, 3), (0, 5), (7, 0),
        ]
        network = MultiSourceNetwork(n_nodes=8, sources=[0, 7])
        assert network.serve_trace_stream(traffic.iter_trace(3))["n_requests"] == 6

    def test_per_source_sequences(self):
        # the trace split by source is each source's own stream, in order
        traffic = uniform_traffic(16, [9, 2, 5], seed=3)
        split = {}
        for source, destination in trace_pairs(traffic, 40, chunk_size=7):
            split.setdefault(source, []).append(destination)
        assert sorted(split) == traffic.source_ids() == [2, 5, 9]
        assert split == {
            source: [destination for chunk in chunks for destination in chunk]
            for source, chunks in traffic.iter_source_streams(40, chunk_size=11)
        }

    def test_traffic_matrix(self):
        # the interleave only orders the requests: every policy routes the
        # same (source, destination) counts
        workloads = {
            source: WorkloadSpec.create("zipf", n_elements=16, exponent=1.2, seed=source)
            for source in (0, 4, 11)
        }
        matrices = []
        for policy in ("round_robin", "uniform_pairs", "weighted"):
            traffic = TrafficSpec.create(16, workloads, interleaving=policy, seed=2)
            matrix = {}
            for pair in trace_pairs(traffic, 60):
                matrix[pair] = matrix.get(pair, 0) + 1
            matrices.append(matrix)
        assert matrices[0] == matrices[1] == matrices[2]
        assert sum(matrices[0].values()) == 180

    @pytest.mark.parametrize("policy", ["round_robin", "uniform_pairs", "weighted"])
    def test_uniform_trace_properties(self, policy):
        uniform = WorkloadSpec.create("uniform", n_elements=16)
        traffic = TrafficSpec.create(
            16, {source: uniform for source in range(4)}, interleaving=policy
        ).with_seed(1)
        pairs = trace_pairs(traffic, 125, chunk_size=33)
        assert len(pairs) == 500
        assert all(source < 4 for source, _destination in pairs)
        assert all(0 <= destination < 16 for _source, destination in pairs)
        assert all(source != destination for source, destination in pairs)

    def test_uniform_trace_validation(self):
        # bad arguments fail at the call, before any chunk is drawn
        traffic = uniform_traffic(4, [0, 1], seed=1)
        with pytest.raises(WorkloadError):
            traffic.iter_trace(-1)
        with pytest.raises(WorkloadError):
            traffic.iter_source_streams(-1)
        with pytest.raises(WorkloadError):
            uniform_traffic(1, [0], seed=1)

    def test_trace_from_workloads(self):
        traffic = TrafficSpec.create(
            8,
            {
                0: WorkloadSpec.create(
                    "markov",
                    n_elements=8,
                    n_neighbours=2,
                    self_loop=0.5,
                    neighbour_probability=0.3,
                    seed=1,
                ),
                3: WorkloadSpec.create("uniform", n_elements=8, seed=2),
            },
            interleaving="uniform_pairs",
            seed=3,
        )
        pairs = trace_pairs(traffic, 50)
        assert len(pairs) == 100
        assert {source for source, _destination in pairs} == {0, 3}
        assert all(source != destination for source, destination in pairs)
        network = MultiSourceNetwork(n_nodes=8, sources=[0, 3])
        network.serve_trace_stream(traffic.iter_trace(50, chunk_size=16))
        columns = network.per_source_columns()
        assert columns["source"] == [0, 3]
        assert columns["n_requests"] == [50, 50]


class TestSingleSourceTree:
    def test_requires_destinations(self):
        with pytest.raises(AlgorithmError):
            SingleSourceTreeNetwork(source=0, n_nodes=1)

    def test_source_cannot_be_destination(self):
        network = SingleSourceTreeNetwork(source=0, n_nodes=2)
        with pytest.raises(AlgorithmError):
            network.serve(0)

    def test_universe_padded_to_complete_size(self):
        network = SingleSourceTreeNetwork(source=0, n_nodes=11)
        assert network.n_destinations == 10
        assert network.tree_size == 15

    def test_serve_returns_cost(self):
        network = SingleSourceTreeNetwork(source=0, n_nodes=8, placement_seed=1)
        record = network.serve(3)
        assert record.access_cost >= 1
        assert network.n_served == 1

    def test_unknown_destination_rejected(self):
        network = SingleSourceTreeNetwork(source=0, n_nodes=4)
        with pytest.raises(AlgorithmError):
            network.serve(9)

    def test_destination_depth_shrinks_after_repeated_requests(self):
        network = SingleSourceTreeNetwork(source=0, n_nodes=32, placement_seed=5)
        for _ in range(3):
            network.serve(17)
        assert network.tree_algorithm.level_of(network.element_of(17)) == 0

    def test_serve_sequence_aggregates(self):
        # an offline tree algorithm serves a whole translated sequence via run()
        network = SingleSourceTreeNetwork(source=2, n_nodes=8, algorithm="static-opt")
        result = network.tree_algorithm.run(network.elements_of([1, 1, 4, 1]))
        assert result.n_requests == 4
        assert result.total_adjustment_cost == 0
        assert network.cost_summary()["n_requests"] == 4

    def test_cost_summary(self):
        network = SingleSourceTreeNetwork(source=0, n_nodes=4, placement_seed=1)
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

    def test_serve_trace_stream_accumulates_costs(self):
        network = MultiSourceNetwork(n_nodes=8, sources=[0, 1], algorithm="rotor-push")
        summary = network.serve_trace_stream(uniform_traffic(8, [0, 1], 4).iter_trace(100))
        assert summary["n_requests"] == 200
        assert summary["total_cost"] > 0
        assert summary["n_sources"] == 2.0

    def test_a_larger_networks_trace_is_rejected(self):
        network = MultiSourceNetwork(n_nodes=8, sources=[0])
        with pytest.raises(AlgorithmError):
            network.serve_trace_stream(uniform_traffic(16, [0], 1).iter_trace(10))

    def test_per_source_columns(self):
        network = MultiSourceNetwork(n_nodes=8, sources=[5, 0])
        network.tree_of(0).serve(3)
        network.tree_of(5).serve(2)
        network.tree_of(5).serve(2)
        columns = network.per_source_columns()
        assert columns["source"] == [0, 5]
        assert columns["n_requests"] == [1, 2]

    def test_unknown_source_rejected(self):
        network = MultiSourceNetwork(n_nodes=8, sources=[0])
        with pytest.raises(AlgorithmError):
            network.tree_of(3)

    def test_locality_reduces_cost_vs_static(self):
        """Self-adjusting per-source trees beat static ones on clustered traffic."""

        def run(algorithm: str) -> float:
            network = MultiSourceNetwork(
                n_nodes=64, sources=[0, 1], algorithm=algorithm, base_seed=3
            )
            traffic = TrafficSpec.create(
                64,
                {
                    source: WorkloadSpec.create(
                        "markov",
                        n_elements=64,
                        n_neighbours=2,
                        self_loop=0.85,
                        neighbour_probability=0.1,
                        seed=10 + source,
                    )
                    for source in (0, 1)
                },
            )
            return network.serve_trace_stream(traffic.iter_trace(800))["total_cost"]

        assert run("rotor-push") < run("static-oblivious")


class TestTopology:
    def test_single_source_topology_degrees_bounded(self):
        network = SingleSourceTreeNetwork(
            source=0, n_nodes=16, placement_seed=2
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
            source=0, n_nodes=16, placement_seed=2
        )
        before_root_neighbours = single_source_topology(network)[0]
        for _ in range(3):
            network.serve(7)
        after = single_source_topology(network)
        # Destination 7 is now hosted at the tree root, hence attached to the source.
        assert 7 in after[0]
        assert before_root_neighbours != {7} or 7 in before_root_neighbours

    def test_degree_statistics_empty_graph(self):
        stats = degree_statistics({})
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

    @pytest.mark.parametrize(
        "bad", [4, -1, 10, "5", 2.5], ids=["source", "minus-one", "n-nodes", "str", "float"]
    )
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
        tree = SingleSourceTreeNetwork(source=2, n_nodes=10)
        assert tree.destinations() == [0, 1, 3, 4, 5, 6, 7, 8, 9]
        assert tree.n_destinations == 9
        assert [tree.element_of(node) for node in (0, 1, 3, 9)] == [0, 1, 2, 8]
        for bad in (2, -1, 10, "5"):
            with pytest.raises(AlgorithmError):
                tree.element_of(bad)
            with pytest.raises(AlgorithmError):
                tree.elements_of([5, bad])

    def test_n_nodes_equals_the_listed_destinations(self):
        # a standalone tree with source_tree's seeds is the multi-source tree
        counted = SingleSourceTreeNetwork(
            source=3, n_nodes=8, placement_seed=6 + 3,
            algorithm_seed=6 + ALGORITHM_SEED_OFFSET + 3,
        )
        listed = MultiSourceNetwork(8, sources=[3], base_seed=6).tree_of(3)
        assert counted.destinations() == listed.destinations() == [0, 1, 2, 4, 5, 6, 7]
        assert counted.serve_batch([7, 0, 7, 5]) == listed.serve_batch([7, 0, 7, 5])
        assert counted.cost_summary() == listed.cost_summary()
        assert (
            counted.tree_algorithm.network.placement()
            == listed.tree_algorithm.network.placement()
        )

    @pytest.mark.parametrize(
        "arguments",
        [{"n_nodes": 3, "source": 3}, {"n_nodes": 3, "source": -1}, {"n_nodes": 0},
         {"n_nodes": -2}],
        ids=["source-outside", "source-negative", "empty-network", "negative"],
    )
    def test_bad_destination_arguments(self, arguments):
        with pytest.raises(AlgorithmError):
            SingleSourceTreeNetwork(**{"source": 0, **arguments})
