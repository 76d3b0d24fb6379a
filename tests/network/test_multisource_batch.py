"""Batch dispatch of streamed traces on the multi-source substrate."""

from __future__ import annotations

from array import array

import pytest

from repro.exceptions import AlgorithmError
from repro.network import MultiSourceNetwork, TrafficSpec
from repro.workloads import WorkloadSpec

N_NODES = 24
N_SOURCES = 6


def fresh_network(**kwargs) -> MultiSourceNetwork:
    return MultiSourceNetwork(
        N_NODES, sources=range(N_SOURCES), base_seed=11, **kwargs
    )


@pytest.fixture(scope="module")
def trace():
    """600 uniform requests from the first ``N_SOURCES`` nodes, as
    ``(sources, destinations)`` columns."""
    uniform = WorkloadSpec.create("uniform", n_elements=N_NODES)
    traffic = TrafficSpec.create(
        N_NODES,
        {source: uniform for source in range(N_SOURCES)},
        interleaving="uniform_pairs",
    ).with_seed(2)
    sources, destinations = [], []
    for source_chunk, destination_chunk in traffic.iter_trace(600 // N_SOURCES):
        sources += source_chunk
        destinations += destination_chunk
    return sources, destinations


@pytest.fixture(scope="module")
def legacy_summary(trace):
    """Request-by-request serving, the pre-batch reference semantics."""
    network = fresh_network()
    for source, destination in zip(*trace):
        network.tree_of(source).serve(destination)
    return network.cost_summary(), network.per_source_columns()


class TestServeTraceBatch:
    def test_batched_equals_request_by_request(self, trace, legacy_summary):
        network = fresh_network()
        summary = network.serve_trace_stream([trace])
        assert summary == legacy_summary[0]
        assert network.per_source_columns() == legacy_summary[1]

    @pytest.mark.parametrize("chunk_size", [1, 7, 1_000_000])
    def test_chunk_size_never_changes_results(self, trace, legacy_summary, chunk_size):
        sources, destinations = trace
        chunks = [
            (sources[start : start + chunk_size], destinations[start : start + chunk_size])
            for start in range(0, len(sources), chunk_size)
        ]
        assert fresh_network().serve_trace_stream(chunks) == legacy_summary[0]

    @pytest.mark.parametrize("chunk_type", ["list", "array"])
    def test_stream_chunk_types_bit_identical(self, trace, legacy_summary, chunk_type):
        sources, destinations = trace
        convert = (lambda values: array("q", values)) if chunk_type == "array" else list
        chunks = [
            (
                convert(sources[start : start + 64]),
                convert(destinations[start : start + 64]),
            )
            for start in range(0, len(sources), 64)
        ]
        network = fresh_network()
        assert network.serve_trace_stream(chunks) == legacy_summary[0]
        assert network.per_source_columns() == legacy_summary[1]

    def test_backend_keyword_is_gone(self, trace):
        with pytest.raises(TypeError):
            fresh_network(backend="array")
        with pytest.raises(TypeError):
            fresh_network().serve_trace_stream([trace], backend="array")


class TestSingleSourceBatch:
    def test_serve_batch_counts_and_matches_serial(self):
        from repro.network import SingleSourceTreeNetwork

        destinations = [3, 9, 9, 14, 3, 20, 7]
        serial = SingleSourceTreeNetwork(
            source=0, n_nodes=N_NODES, placement_seed=4, algorithm_seed=5
        )
        for destination in destinations:
            serial.serve(destination)
        batched = SingleSourceTreeNetwork(
            source=0, n_nodes=N_NODES, placement_seed=4, algorithm_seed=5
        )
        served = batched.serve_batch(destinations)
        assert served == len(destinations)
        assert batched.n_served == serial.n_served
        assert batched.cost_summary() == serial.cost_summary()


class TestWholeChunkValidation:
    """A rejected chunk serves nothing: counts and placements stay put."""

    @staticmethod
    def state(network):
        return (
            network.cost_summary()["n_requests"],
            {
                source: network.tree_of(source).tree_algorithm.network.placement()
                for source in network.sources
            },
        )

    def twin_after(self, chunks):
        twin = MultiSourceNetwork(8, sources=[0, 1], base_seed=3)
        twin.serve_trace_stream([([0, 1, 0, 1], [5, 6, 7, 2])] + chunks)
        return self.state(twin)

    @pytest.fixture()
    def network(self):
        network = MultiSourceNetwork(8, sources=[0, 1], base_seed=3)
        # move every tree off its initial placement first, so an accidental
        # partial serve cannot hide behind a pristine placement
        network.serve_trace_stream([([0, 1, 0, 1], [5, 6, 7, 2])])
        return network

    @pytest.mark.parametrize(
        "chunk",
        [
            ([0, 0, 1, 5], [3, 4, 2, 1]),  # node 5 is not a source
            ([0, 1], [3, 1]),  # source 1 cannot reach itself
            ([0, 1], [3, 8]),  # destination outside the network
            ([0, 1, 0], [3, 2]),  # one destination short
            ([0, 1], [3, 2, 4]),  # one source short
        ],
        ids=["unknown-source", "self-destination", "out-of-range", "short-dst", "short-src"],
    )
    def test_stream_rejects_the_whole_chunk(self, network, chunk):
        before = self.state(network)
        with pytest.raises(AlgorithmError):
            network.serve_trace_stream([chunk])
        assert self.state(network) == before

    def test_earlier_chunks_stay_served(self, network):
        before = self.state(network)
        with pytest.raises(AlgorithmError):
            network.serve_trace_stream([([0, 1], [3, 2]), ([0, 1], [3, 1])])
        n_requests, placements = self.state(network)
        assert n_requests == before[0] + 2
        assert placements == self.twin_after([([0, 1], [3, 2])])[1]

    def test_array_chunk_rejected_whole(self, network):
        before = self.state(network)
        with pytest.raises(AlgorithmError):
            network.serve_trace_stream(
                [(array("q", [0, 0, 1, 5]), array("q", [3, 4, 2, 1]))]
            )
        assert self.state(network) == before

    def test_trace_with_a_non_source_serves_nothing(self, network):
        # the spec's trace, one chunk whole: node 5 sends too, and it is no
        # source of this network
        uniform = WorkloadSpec.create("uniform", n_elements=8)
        traffic = TrafficSpec.create(8, {0: uniform, 1: uniform, 5: uniform}).with_seed(4)
        before = self.state(network)
        with pytest.raises(AlgorithmError, match="not a source"):
            network.serve_trace_stream(traffic.iter_trace(10, chunk_size=30))
        assert self.state(network) == before

    def test_trace_with_an_unreachable_destination_serves_nothing(self, network):
        # a 16-node network's trace, one chunk whole, names nodes this one lacks
        uniform = WorkloadSpec.create("uniform", n_elements=16)
        traffic = TrafficSpec.create(16, {0: uniform, 1: uniform}).with_seed(4)
        before = self.state(network)
        with pytest.raises(AlgorithmError, match="not reachable"):
            network.serve_trace_stream(traffic.iter_trace(20, chunk_size=40))
        assert self.state(network) == before
