"""Batch-vs-scalar and list-vs-ndarray chunk equivalence property tests.

Placement always lives in plain lists; ndarray chunks take the vectorised
batch ports when NumPy is importable.  Those ports are a pure throughput
optimisation: for every registered algorithm, every registered workload kind,
every chunking and both record modes, serving ndarray chunks must produce
exactly the same final placement, ledger totals and per-request cost records
as serving list chunks through the scalar loop.  These tests pin that
contract, including the chunk-boundary edge cases (chunk 1, chunk larger than
the stream, uneven tail) and the simulated NumPy-less environment (list
chunks only, plus the pure-Python Zipf sampler).
"""

from __future__ import annotations

import pytest

from repro.algorithms.registry import available_algorithms, make_algorithm
from repro.core import backend as backend_mod
from repro.core.cost import CostLedger
from repro.exceptions import CostAccountingError, MappingError, WorkloadError
from repro.workloads.spec import WorkloadSpec, build_workload

N_NODES = 63
N_REQUESTS = 300
PLACEMENT_SEED = 11
ALGORITHM_SEED = 13

#: One spec per registered workload kind (universe size 63 throughout).
WORKLOAD_SPECS = {
    "uniform": WorkloadSpec.create("uniform", seed=5, n_elements=N_NODES),
    "zipf": WorkloadSpec.create("zipf", seed=5, n_elements=N_NODES, exponent=1.4),
    "temporal": WorkloadSpec.create(
        "temporal",
        seed=5,
        n_elements=N_NODES,
        repeat_probability=0.6,
        base=WorkloadSpec.create("zipf", seed=6, n_elements=N_NODES, exponent=2.0),
    ),
    "combined-locality": WorkloadSpec.create(
        "combined-locality",
        seed=5,
        n_elements=N_NODES,
        zipf_exponent=1.4,
        repeat_probability=0.5,
    ),
    "markov": WorkloadSpec.create(
        "markov",
        seed=5,
        n_elements=N_NODES,
        n_neighbours=4,
        self_loop=0.3,
        neighbour_probability=0.4,
    ),
    "mixture": WorkloadSpec.create(
        "mixture",
        seed=5,
        n_elements=N_NODES,
        components=(
            WorkloadSpec.create("uniform", seed=7, n_elements=N_NODES),
            WorkloadSpec.create("zipf", seed=8, n_elements=N_NODES, exponent=1.8),
        ),
        weights=(1.0, 2.0),
    ),
    "fixed-sequence": WorkloadSpec.create(
        "fixed-sequence",
        n_elements=N_NODES,
        sequence=tuple((7 * i + 3) % N_NODES for i in range(N_REQUESTS)),
    ),
}

#: Chunkings covering the edge cases: single-request chunks, an uneven tail
#: (300 = 42 * 7 + 6), a power-of-two mid-size, and one chunk larger than the
#: whole stream.
CHUNK_SIZES = (1, 7, 64, N_REQUESTS + 1)

#: The chunk-type axis: list chunks run the scalar loop, ndarray chunks the
#: vectorised ports (and need NumPy).
CHUNK_TYPES = ("list", "ndarray")


def require_chunk_type(chunk_type: str) -> None:
    if chunk_type == "ndarray" and not backend_mod.HAS_NUMPY:
        pytest.skip("ndarray chunks need NumPy")


def as_chunk(requests, chunk_type: str):
    if chunk_type == "ndarray":
        return backend_mod.np.asarray(requests, dtype=backend_mod.np.intp)
    return list(requests)


def serve_outcome(algorithm, kind, chunk_type, chunk_size, keep_records):
    """Serve the workload stream and return every observable of the run."""
    workload = build_workload(WORKLOAD_SPECS[kind])
    instance = make_algorithm(
        algorithm,
        n_nodes=N_NODES,
        placement_seed=PLACEMENT_SEED,
        seed=ALGORITHM_SEED,
        keep_records=keep_records,
    )
    result = instance.run_stream(
        workload.iter_requests(
            N_REQUESTS, chunk_size, as_array=chunk_type == "ndarray"
        )
    )
    network = instance.network
    return {
        "n_requests": result.n_requests,
        "access": result.total_access_cost,
        "adjustment": result.total_adjustment_cost,
        "records": list(result.per_request),
        "placement": network.placement(),
        "rotor": list(network.rotor._pointers) if network.rotor is not None else None,
    }


@pytest.fixture(scope="module")
def scalar_baselines():
    """Scalar-loop outcome per (algorithm, kind, keep_records): one list chunk."""
    baselines = {}
    for algorithm in available_algorithms():
        for kind in WORKLOAD_SPECS:
            for keep_records in (False, True):
                baselines[(algorithm, kind, keep_records)] = serve_outcome(
                    algorithm, kind, "list", N_REQUESTS, keep_records
                )
    return baselines


@pytest.mark.parametrize("kind", sorted(WORKLOAD_SPECS))
@pytest.mark.parametrize("algorithm", available_algorithms())
@pytest.mark.parametrize("chunk_type", CHUNK_TYPES)
def test_chunked_serving_matches_scalar_baseline(
    chunk_type, algorithm, kind, scalar_baselines
):
    """Either chunk type == one scalar list chunk, every chunking, totals-only."""
    require_chunk_type(chunk_type)
    expected = scalar_baselines[(algorithm, kind, False)]
    for chunk_size in CHUNK_SIZES:
        outcome = serve_outcome(algorithm, kind, chunk_type, chunk_size, False)
        assert outcome == expected, (algorithm, kind, chunk_size)


@pytest.mark.parametrize("kind", ["combined-locality", "fixed-sequence"])
@pytest.mark.parametrize("algorithm", available_algorithms())
def test_ndarray_chunks_match_records_too(algorithm, kind, scalar_baselines):
    """Per-request cost records are byte-identical across chunk types/chunkings."""
    require_chunk_type("ndarray")
    expected = scalar_baselines[(algorithm, kind, True)]
    for chunk_size in (1, 7, N_REQUESTS + 1):
        outcome = serve_outcome(algorithm, kind, "ndarray", chunk_size, True)
        assert outcome == expected, (algorithm, kind, chunk_size)


def build(algorithm: str):
    return make_algorithm(
        algorithm,
        n_nodes=N_NODES,
        placement_seed=1,
        seed=2,
        keep_records=True,
    )


class TestServeBatchDirect:
    """Direct serve_batch calls (outside run_stream) behave like serve()."""

    @pytest.mark.parametrize("chunk_type", CHUNK_TYPES)
    def test_empty_chunk_serves_nothing(self, chunk_type):
        require_chunk_type(chunk_type)
        batched = build("rotor-push")
        assert batched.serve_batch(as_chunk([], chunk_type)) == 0
        assert batched.network.ledger.n_requests == 0

    @pytest.mark.parametrize("case", ["rotor-push", "static-opt prepared twice"])
    @pytest.mark.parametrize("chunk_type", CHUNK_TYPES)
    def test_batch_equals_request_by_request(self, chunk_type, case):
        """Includes Static-Opt re-prepared between chunks: the reset placement
        must drop the static port's NumPy copy of the mapping."""
        require_chunk_type(chunk_type)
        rounds = [[3, 3, 41, 7, 7, 7, 0, 62, 41], [5, 5, 17, 30, 62, 62, 8]]
        algorithm = case.split()[0]
        batched, scalar = build(algorithm), build(algorithm)
        for requests in rounds:
            if batched.requires_preparation:
                batched.prepare(requests)
                scalar.prepare(requests)
            served = batched.serve_batch(as_chunk(requests, chunk_type))
            assert served == len(requests)
            for element in requests:
                scalar.serve(element)
            assert batched.network.placement() == scalar.network.placement()
            assert batched.network.ledger.records == scalar.network.ledger.records

    @pytest.mark.parametrize("algorithm", available_algorithms())
    @pytest.mark.parametrize("chunk_type", CHUNK_TYPES)
    def test_out_of_range_element_rejects_whole_chunk(self, chunk_type, algorithm):
        require_chunk_type(chunk_type)
        batched = build(algorithm)
        if batched.requires_preparation:
            batched.prepare([1, 2, 3])
        before = batched.network.placement()
        for bad in (N_NODES, -1):
            with pytest.raises(MappingError):
                batched.serve_batch(as_chunk([1, 2, bad, 3], chunk_type))
        # the batch bounds check validates up front: nothing was served
        assert batched.network.ledger.n_requests == 0
        assert batched.network.placement() == before


class TestWithoutNumPy:
    """Simulated NumPy-less environment via the backend module flag."""

    def test_as_array_transport_refused(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "HAS_NUMPY", False)
        workload = build_workload(WORKLOAD_SPECS["uniform"])
        with pytest.raises(WorkloadError):
            next(workload.iter_requests(10, 4, as_array=True))

    @pytest.mark.parametrize("algorithm", ["move-to-front", "static-oblivious"])
    def test_scalar_loops_serve_correctly_without_numpy(
        self, monkeypatch, algorithm, scalar_baselines
    ):
        expected = scalar_baselines[(algorithm, "uniform", True)]
        monkeypatch.setattr(backend_mod, "HAS_NUMPY", False)
        outcome = serve_outcome(algorithm, "uniform", "list", 64, True)
        assert outcome == expected

    def test_pure_python_zipf_sampler_is_deterministic(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "HAS_NUMPY", False)
        workload = build_workload(WORKLOAD_SPECS["zipf"])
        first = workload.generate(200)
        rebuilt = build_workload(WORKLOAD_SPECS["zipf"])
        streamed = [e for chunk in rebuilt.iter_requests(200, 9) for e in chunk]
        assert first == streamed
        assert all(0 <= element < N_NODES for element in first)
        # a fresh generator from the same spec starts from the same pristine
        # sampler state (cumulative CDF + permutation)
        assert build_workload(WORKLOAD_SPECS["zipf"]).generate(200) == first


class TestLedgerBatchAccounting:
    def test_record_batch_totals(self):
        ledger = CostLedger(keep_records=False)
        ledger.record_batch(10, 25, 7)
        assert ledger.n_requests == 10
        assert ledger.total_access_cost == 25
        assert ledger.total_adjustment_cost == 7

    def test_record_batch_refuses_to_drop_records(self):
        ledger = CostLedger(keep_records=True)
        with pytest.raises(CostAccountingError):
            ledger.record_batch(3, 5, 0)

    def test_record_batch_refuses_negative_totals(self):
        ledger = CostLedger(keep_records=False)
        with pytest.raises(CostAccountingError):
            ledger.record_batch(3, -1, 0)

    def test_record_batch_columns_matches_individual_records(self):
        batched = CostLedger(keep_records=True)
        batched.record_batch_columns([4, 2, 9], [1, 0, 3], [2, 0, 5])
        scalar = CostLedger(keep_records=True)
        for element, level, swaps in [(4, 1, 2), (2, 0, 0), (9, 3, 5)]:
            scalar.record_request(element, level, swaps)
        assert batched.records == scalar.records
        assert batched.snapshot_totals() == scalar.snapshot_totals()

    def test_record_batch_columns_default_swaps_are_zero(self):
        ledger = CostLedger(keep_records=True)
        ledger.record_batch_columns([1, 2], [2, 4])
        assert ledger.total_adjustment_cost == 0
        assert [record.adjustment_cost for record in ledger.records] == [0, 0]

    def test_record_batch_columns_rejects_ragged_columns(self):
        ledger = CostLedger(keep_records=False)
        with pytest.raises(CostAccountingError):
            ledger.record_batch_columns([1, 2], [0])

    def test_record_batch_while_open_raises(self):
        ledger = CostLedger(keep_records=False)
        ledger.open_request(1, 0)
        with pytest.raises(CostAccountingError):
            ledger.record_batch(1, 1, 0)
