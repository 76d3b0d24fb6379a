"""Batch-vs-request and list-vs-``array('q')`` chunk equivalence property tests.

Placement always lives in plain lists; a request chunk is a list or the
``array('q')`` a workload drew on the kernel, in every environment.  For
every registered algorithm, every registered workload kind, every chunking
and both record modes, serving either chunk type must produce exactly the
same final placement, ledger totals and per-request cost records as serving
the whole stream as one list chunk.  These tests pin that contract,
including the chunk-boundary edge cases (chunk 1, chunk larger than the
stream, uneven tail) and the simulated NumPy-less environment (the
pure-Python Zipf sampler).

``serve_batch`` serves every request of every chunk through the reference
``_adjust``, whatever the chunk's length: the kernel's chunk functions
serve only seeded trees, whose state is pinned to the reference chunk by
chunk here (:func:`test_paper_scale_kernel_matches_reference`), in
``test_serve_path_equivalence.py`` and in
``tests/sim/test_seeded_trial_path.py``.  The ``kernel`` fixture runs each
test with the kernel on (it still draws the workloads, the placements and
the LRU index, and no chunk may reach a chunk function) and off (the loader
returns ``None``, as without a compiler); the one-chunk baselines are
always computed with it off.  Random-Push's draws are compared through the
state of its ``random.Random``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import List

import pytest

from repro.algorithms import cascade_kernel
from repro.algorithms.registry import (
    available_algorithms,
    get_algorithm_class,
    make_algorithm,
)
from repro.core.cost import RequestRecordColumns
from repro.exceptions import AlgorithmError, MappingError, TreeStructureError
from repro.workloads.uniform import UniformWorkload
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
#: (300 = 42 * 7 + 6), exactly ``n_nodes``, a power-of-two mid-size, and one
#: chunk larger than the whole stream.
CHUNK_SIZES = (1, 7, N_NODES, 64, N_REQUESTS + 1)

#: The algorithms with a chunk function in the C cascade kernel.
KERNEL_ALGORITHMS = (
    "rotor-push", "move-half", "max-push", "random-push", "move-to-front",
)


@dataclass
class KernelMode:
    """The chunk functions the loaded cascade kernel ran (none when it is off)."""

    runs: List[str] = field(default_factory=list)

    def check(self) -> None:
        """Assert that no chunk reached a chunk function: a tree serves in
        Python, whatever the chunk's length."""
        assert self.runs == []


@pytest.fixture(params=["kernel", "no-kernel"])
def kernel(request, monkeypatch):
    """Run the test with the cascade kernel loaded, then with it unavailable."""
    if request.param == "no-kernel":
        monkeypatch.setattr(cascade_kernel, "load", lambda: None)
        return KernelMode()
    loaded = cascade_kernel.load()
    if loaded is None:
        pytest.skip("the cascade kernel needs a C compiler")
    mode = KernelMode()

    def counting(name, function):
        return lambda *arguments: mode.runs.append(name) or function(*arguments)

    monkeypatch.setattr(
        loaded,
        "_functions",
        {name: counting(name, function) for name, function in loaded._functions.items()},
    )
    return mode


#: The chunk-type axis: chunks of either type are served in Python.
CHUNK_TYPES = ("list", "array")


def as_chunk(requests, chunk_type: str):
    if chunk_type == "array":
        return array("q", requests)
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
        as_chunk(chunk, chunk_type)
        for chunk in workload.iter_requests(N_REQUESTS, chunk_size)
    )
    network = instance.network
    lru = getattr(instance, "_lru", None)
    if lru is not None:
        lru.validate_against(network)
    return {
        "n_requests": result.n_requests,
        "access": result.total_access_cost,
        "adjustment": result.total_adjustment_cost,
        "records": list(result.per_request),
        "placement": network.placement(),
        "rotor": list(network.rotor._pointers) if network.rotor is not None else None,
        "rng": rng_state(instance),
    }


def rng_state(instance):
    """The state of Random-Push's generator; ``None`` for the others."""
    rng = getattr(instance, "_rng", None)
    return rng.getstate() if rng is not None else None


@pytest.fixture(scope="module")
def scalar_baselines():
    """Outcome per (algorithm, kind, keep_records) of one list chunk.

    The cascade kernel is kept out, so the workloads draw in Python too.
    """
    baselines = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cascade_kernel, "load", lambda: None)
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
    chunk_type, algorithm, kind, scalar_baselines, kernel
):
    """Either chunk type == one list chunk, every chunking, totals-only."""
    expected = scalar_baselines[(algorithm, kind, False)]
    for chunk_size in CHUNK_SIZES:
        outcome = serve_outcome(algorithm, kind, chunk_type, chunk_size, False)
        assert outcome == expected, (algorithm, kind, chunk_size)
    kernel.check()


@pytest.mark.parametrize("kind", ["combined-locality", "fixed-sequence"])
@pytest.mark.parametrize("algorithm", available_algorithms())
@pytest.mark.parametrize("chunk_type", CHUNK_TYPES)
def test_chunks_match_records_too(
    chunk_type, algorithm, kind, scalar_baselines, kernel
):
    """Per-request cost records are byte-identical across chunk types/chunkings."""
    expected = scalar_baselines[(algorithm, kind, True)]
    for chunk_size in (1, 7, N_NODES, N_REQUESTS + 1):
        outcome = serve_outcome(algorithm, kind, chunk_type, chunk_size, True)
        assert outcome == expected, (algorithm, kind, chunk_size)
    kernel.check()


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
        batched = build("rotor-push")
        assert batched.serve_batch(as_chunk([], chunk_type)) == 0
        assert batched.network.ledger.n_requests == 0

    @pytest.mark.parametrize("repeat", [1, 9])
    @pytest.mark.parametrize(
        "case",
        [*KERNEL_ALGORITHMS, "static-opt prepared twice"],
    )
    @pytest.mark.parametrize("chunk_type", CHUNK_TYPES)
    def test_batch_equals_request_by_request(self, chunk_type, case, repeat, kernel):
        """Includes Static-Opt re-prepared between chunks: the batch must
        read the reset placement.  Repeated nine times, both rounds reach
        ``n_nodes`` requests."""
        rounds = [[3, 3, 41, 7, 7, 7, 0, 62, 41], [5, 5, 17, 30, 62, 62, 8]]
        rounds = [requests * repeat for requests in rounds]
        algorithm = case.split()[0]
        batched, single = build(algorithm), build(algorithm)
        for requests in rounds:
            if batched.requires_preparation:
                batched.prepare(requests)
                single.prepare(requests)
            served = batched.serve_batch(as_chunk(requests, chunk_type))
            assert served == len(requests)
            for element in requests:
                single.serve(element)
            assert batched.network.placement() == single.network.placement()
            assert batched.network.ledger.records == single.network.ledger.records
            assert rng_state(batched) == rng_state(single)
        kernel.check()

    @pytest.mark.parametrize("chunk_type", CHUNK_TYPES)
    def test_random_push_stream_continues_across_a_twist(self, chunk_type, kernel):
        """A chunk drawing more than 624 words re-twists the state mid-chunk.

        The Mersenne Twister regenerates its 624 words when the index runs
        out, so this chunk twists mid-chunk; the short chunk after it must
        continue the same stream.
        """
        requests = UniformWorkload(N_NODES, seed=9).generate(1_500)
        batched, reference = build("random-push"), build("random-push")
        batched.serve_batch(as_chunk(requests, chunk_type))
        tail = requests[:N_NODES - 1]
        batched.serve_batch(as_chunk(tail, chunk_type))
        for element in requests + tail:
            reference.serve(element)
        # every request below the root draws at least one word
        drawn = sum(record.level_at_access > 0 for record in reference.network.ledger.records)
        assert drawn > 624
        assert batched.network.placement() == reference.network.placement()
        assert batched.network.ledger.records == reference.network.ledger.records
        assert rng_state(batched) == rng_state(reference)
        assert batched._rng.random() == reference._rng.random()
        kernel.check()

    @pytest.mark.parametrize("padding", [0, N_NODES])
    @pytest.mark.parametrize("algorithm", available_algorithms())
    @pytest.mark.parametrize("chunk_type", CHUNK_TYPES)
    def test_out_of_range_element_rejects_whole_chunk(
        self, chunk_type, algorithm, padding, kernel
    ):
        batched = build(algorithm)
        if batched.requires_preparation:
            batched.prepare([1, 2, 3])
        before = batched.network.placement()
        for bad in (N_NODES, -1):
            chunk = as_chunk([1, 2, bad, 3] + [0] * padding, chunk_type)
            with pytest.raises(MappingError):
                batched.serve_batch(chunk)
        # the whole chunk is validated up front: nothing was served
        assert batched.network.ledger.n_requests == 0
        assert batched.network.placement() == before
        kernel.check()

    @pytest.mark.parametrize("length", [N_NODES // 4, N_NODES])
    @pytest.mark.parametrize(
        "algorithm", [*KERNEL_ALGORITHMS, "static-oblivious", "static-opt"]
    )
    def test_array_chunk_is_handed_over_once(self, algorithm, length, kernel, monkeypatch):
        """An ``array('q')`` chunk is checked and served as one list of the
        same requests, whatever its length."""
        chunk = array("q", [(7 * index) % N_NODES for index in range(length)])
        batched, reference = build(algorithm), build(algorithm)
        if batched.requires_preparation:
            batched.prepare(list(chunk))
            reference.prepare(list(chunk))
        handed = []
        check = type(batched)._check_batch_bounds
        monkeypatch.setattr(
            type(batched),
            "_check_batch_bounds",
            staticmethod(lambda requests, n: handed.append(requests) or check(requests, n)),
        )
        assert batched.serve_batch(chunk) == length
        (requests,) = handed
        assert type(requests) is list and requests == chunk.tolist()
        reference.serve_batch(chunk.tolist())
        assert batched.network.placement() == reference.network.placement()
        assert batched.network.ledger.records == reference.network.ledger.records
        kernel.check()


#: The two algorithms driven by the per-level LRU index.
LRU_ALGORITHMS = ("max-push", "move-half")


class TestLRUEmptyLevel:
    """The empty-level AlgorithmError is the same served in a batch or alone.

    Trees are always complete, so no level of a consistent index is ever
    empty: non-full sizes are refused at construction.  The error therefore
    shows only when the index disagrees with the placement, which these
    tests arrange by moving elements between levels of the index alone.
    """

    @pytest.mark.parametrize("n_nodes", [2, 4, 8, 100])
    @pytest.mark.parametrize("algorithm", LRU_ALGORITHMS)
    def test_non_full_trees_are_refused(self, algorithm, n_nodes):
        with pytest.raises(TreeStructureError, match=f"{n_nodes} nodes"):
            make_algorithm(algorithm, n_nodes=n_nodes, placement_seed=1)

    @staticmethod
    def _error(algorithm, requested_level, emptied_level, keep_records, chunk, serve):
        """Serve ``chunk`` until it raises; return the error and what it left.

        ``chunk`` is ``(root hits, failing requests)``: that many requests of
        the root's element, which touch no emptied level and are served,
        then that many requests of the element whose cascade finds
        ``emptied_level`` empty.
        """
        instance = make_algorithm(
            algorithm, n_nodes=15, placement_seed=3, keep_records=keep_records
        )
        network = instance.network
        element = network.elements_at_level(requested_level)[0]
        (root,) = network.elements_at_level(0)
        # the index loses every element of ``emptied_level`` (except the
        # requested one) to a neighbouring level
        refuge = emptied_level - 1 if emptied_level else emptied_level + 1
        for other in network.elements_at_level(emptied_level):
            if other != element:
                instance._lru.move(other, refuge)
        hits, failing = chunk
        with pytest.raises(AlgorithmError) as raised:
            serve(instance, [root] * hits + [element] * failing)
        ledger = network.ledger
        return str(raised.value), {
            "totals": ledger.snapshot_totals(),
            "records": list(ledger.records),
            "placement": network.placement(),
        }

    @pytest.mark.parametrize("keep_records", [False, True])
    @pytest.mark.parametrize("chunk", [(0, 1), (3, 1), (3, 12)])
    @pytest.mark.parametrize(
        "algorithm, requested_level, emptied_level",
        [
            ("max-push", 3, 2),  # a demotion level in the middle
            ("max-push", 3, 3),  # only the accessed element is left
            ("max-push", 1, 1),
            ("move-half", 2, 1),  # the half-depth partner level
            ("move-half", 1, 0),
        ],
    )
    def test_same_error_from_serve_batch_and_serve(
        self, algorithm, requested_level, emptied_level, chunk, keep_records, kernel
    ):
        """Batch serving raises the reference error and accounts what it served.

        Whatever the chunk's length (15 requests is ``n_nodes``), the
        requests before the failing one are accounted exactly as serving
        them one at a time accounts them, with records on and off.
        """
        case = (algorithm, requested_level, emptied_level, keep_records, chunk)

        def one_at_a_time(serve_one):
            def serve(instance, requests):
                for element in requests:
                    serve_one(instance, element)

            return serve

        reference, _ = self._error(
            *case, one_at_a_time(lambda instance, element: instance.serve(element))
        )
        request_by_request = self._error(
            *case, one_at_a_time(lambda instance, element: instance.serve(element))
        )
        batch = self._error(
            *case, lambda instance, requests: instance.serve_batch(requests)
        )
        assert reference == f"no eligible element on level {emptied_level}"
        assert batch == request_by_request
        assert batch[0] == reference
        assert batch[1]["totals"]["n_requests"] == chunk[0]
        kernel.check()


@pytest.mark.parametrize("algorithm", KERNEL_ALGORITHMS)
def test_paper_scale_kernel_matches_reference(algorithm, assert_owner_matches_tree):
    """At the paper's 65,535 nodes, a seeded owner equals ``_adjust``, chunk
    by chunk.

    A uniform trace over the whole universe makes almost every request a
    first access and demotes never-accessed elements through every level,
    the regime in which the never-accessed bitmap carries the inserts (and
    its summary spans several words).  The first 300 requests are one chunk
    and the next 65,536 another.  After each, the owner's placement, rotor
    pointers, LRU buffers, Mersenne Twister state, totals and records must
    be those of the tree the same seeds build, served through the reference
    once.
    """
    loaded = cascade_kernel.load()
    if loaded is None or not loaded.rng_port_matches:
        pytest.skip("the seeded owner needs the cascade kernel and its RNG check")
    n_nodes = 65_535
    requests = UniformWorkload(n_nodes, seed=4).generate(300 + 65_536)
    requests[100:110] = [requests[99]] * 10  # a repeat run
    owner = cascade_kernel.SeededTrees(
        loaded, get_algorithm_class(algorithm).kernel, n_nodes
    )
    owner.draw(7, 5)
    reference = make_algorithm(algorithm, n_nodes=n_nodes, placement_seed=7, seed=5)
    records = RequestRecordColumns()
    for chunk in (requests[:300], requests[300:]):
        totals = owner.serve_chunks([array("q", chunk)], records)
        for element in chunk:
            reference.serve(element)
        ledger = reference.network.ledger
        assert totals == (
            len(chunk), ledger.total_access_cost, ledger.total_adjustment_cost
        )
        assert records == ledger.records
        assert_owner_matches_tree(owner, reference)
