"""Batch serve-trace dispatch on the multi-source substrate (PR-3 knobs lifted)."""

from __future__ import annotations

import pytest

from repro.core import backend as backend_mod
from repro.network import MultiSourceNetwork
from repro.network.traffic import uniform_trace

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

    @pytest.mark.parametrize("chunk_type", ["list", "ndarray"])
    def test_stream_chunk_types_bit_identical(self, trace, legacy_summary, chunk_type):
        if chunk_type == "ndarray" and not backend_mod.HAS_NUMPY:
            pytest.skip("ndarray chunks need NumPy")
        sources = [request.source for request in trace]
        destinations = [request.destination for request in trace]
        convert = backend_mod.np.asarray if chunk_type == "ndarray" else list
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
