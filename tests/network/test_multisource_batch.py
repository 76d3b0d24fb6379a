"""Batch serve-trace dispatch on the multi-source substrate (PR-3 knobs lifted)."""

from __future__ import annotations

from array import array

import pytest

from repro.exceptions import AlgorithmError
from repro.network import MultiSourceNetwork
from repro.network.traffic import TrafficRequest, TrafficTrace, uniform_trace

N_NODES = 24
N_SOURCES = 6


def fresh_network(**kwargs) -> MultiSourceNetwork:
    return MultiSourceNetwork(
        N_NODES, sources=range(N_SOURCES), base_seed=11, **kwargs
    )


@pytest.fixture(scope="module")
def trace():
    return uniform_trace(N_NODES, 600, n_sources=N_SOURCES, seed=2)


@pytest.fixture(scope="module")
def legacy_summary(trace):
    """Request-by-request serving, the pre-batch reference semantics."""
    network = fresh_network()
    for request in trace:
        network.serve(request.source, request.destination)
    return network.cost_summary(), network.per_source_summary()


class TestServeTraceBatch:
    def test_batched_equals_request_by_request(self, trace, legacy_summary):
        network = fresh_network()
        summary = network.serve_trace(trace)
        assert summary == legacy_summary[0]
        assert network.per_source_summary() == legacy_summary[1]

    @pytest.mark.parametrize("chunk_size", [1, 7, 1_000_000])
    def test_chunk_size_never_changes_results(self, trace, legacy_summary, chunk_size):
        network = fresh_network()
        assert network.serve_trace(trace, chunk_size=chunk_size) == legacy_summary[0]

    @pytest.mark.parametrize("chunk_type", ["list", "array"])
    def test_stream_chunk_types_bit_identical(self, trace, legacy_summary, chunk_type):
        sources = [request.source for request in trace]
        destinations = [request.destination for request in trace]
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
        assert network.per_source_summary() == legacy_summary[1]

    def test_backend_keyword_is_gone(self, trace):
        with pytest.raises(TypeError):
            fresh_network(backend="array")
        with pytest.raises(TypeError):
            fresh_network().serve_trace(trace, backend="array")


class TestSingleSourceBatch:
    def test_serve_batch_counts_and_matches_serial(self):
        from repro.network import SingleSourceTreeNetwork

        destinations = [3, 9, 9, 14, 3, 20, 7]
        serial = SingleSourceTreeNetwork(
            source=0, destinations=range(1, N_NODES), placement_seed=4, algorithm_seed=5
        )
        for destination in destinations:
            serial.serve(destination)
        batched = SingleSourceTreeNetwork(
            source=0, destinations=range(1, N_NODES), placement_seed=4, algorithm_seed=5
        )
        served = batched.serve_batch(destinations)
        assert served == len(destinations)
        assert batched.n_served == serial.n_served
        assert batched.cost_summary() == serial.cost_summary()


class TestWholeChunkValidation:
    """A rejected chunk or trace serves nothing: counts and placements stay put."""

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
        trace = TrafficTrace(
            8,
            [
                TrafficRequest(0, 3),
                TrafficRequest(1, 2),
                TrafficRequest(5, 1),
            ],
        )
        before = self.state(network)
        with pytest.raises(AlgorithmError, match="not a source"):
            network.serve_trace(trace)
        assert self.state(network) == before

    def test_trace_with_an_unreachable_destination_serves_nothing(self, network):
        trace = TrafficTrace(8, [TrafficRequest(0, 3), TrafficRequest(1, 2)])
        # TrafficTrace validates at construction only; a later edit slips by
        trace.requests.append(TrafficRequest(1, 1))
        before = self.state(network)
        with pytest.raises(AlgorithmError, match="not reachable"):
            network.serve_trace(trace)
        assert self.state(network) == before
